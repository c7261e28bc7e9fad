"""Record the output goldens the benchmark checks its runs against.

Runs every world that a run with one of the requested seeds times
(``run.world_seeds``) of the ``fullstudy`` and ``campaign`` workloads as
one cold repetition and stores the report sha256 (fullstudy) or the
per-week ``canonical_columns()`` digests (campaign) in ``goldens.json``,
next to the workload shape they were recorded for.  A world whose
repetition fails any check (a degraded pipeline or week, or a mismatch
with a golden already recorded) is reported and left unrecorded.

    python3 perfbench/record_goldens.py --seeds 0-31
"""

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import repetition, world_seeds
from workloads import CONFIGS, GOLDENS_PATH, load_goldens

RECORDED = ("fullstudy", "campaign")
JOBS = 2                   # repetitions run side by side


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        first, __, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="7", type=parse_seeds)
    args = parser.parse_args(argv)
    goldens = load_goldens()
    jobs = [(workload, world) for workload in RECORDED for seed in args.seeds
            for world in world_seeds(workload, seed)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda job: repetition(*job), jobs))
    refused = 0
    for (workload, seed), result in zip(jobs, results):
        entry = goldens.setdefault(workload, {})
        if entry.get("config") != CONFIGS[workload]:
            entry.clear()
            entry.update(config=CONFIGS[workload], seeds={})
        if result["failed"]:
            refused += 1
            print("%s world %d not recorded: %s"
                  % (workload, seed, "; ".join(result["problems"])),
                  file=sys.stderr)
            continue
        entry["seeds"][str(seed)] = result["digest"]
    for entry in goldens.values():
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda item: int(item[0])))
    with open(GOLDENS_PATH, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %d of %d repetitions into %s"
          % (len(jobs) - refused, len(jobs), GOLDENS_PATH))
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
