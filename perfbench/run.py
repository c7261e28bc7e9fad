"""End-to-end benchmark: fullstudy, faulted campaign, observatory over HTTP.

Runs one workload as cold repetitions, each in a fresh interpreter
(``workloads.py``), one per world of the run in turn (``--seed`` picks
the worlds), until the timed work adds up to ``--seconds``, and prints
the end-to-end metrics: one line per metric, then one JSON object as
the last line.  With ``--trace 1`` it instead runs one plain
and one traced repetition and prints the per-layer metrics.  Every
repetition checks its outputs; a failed check makes ``correct`` false
and the exit code 1.

    python3 perfbench/run.py --workload fullstudy --seed 7
    python3 perfbench/run.py --workload observatory --trace 1
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER, percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fullstudy", "campaign", "observatory")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Set-up is timed at least this often per run; the median is reported.
# A set-up-only repetition costs under a second for fullstudy and
# campaign, but about 8 s for observatory (its 12-week journal campaign
# and ingest), whose set-up is steady with two samples.
SETUP_SAMPLES = {"fullstudy": 9, "campaign": 9, "observatory": 2}
# Worlds a run times, each in its own repetitions.  fullstudy's work
# depends on the world: diff clustering is quadratic in the responses
# the prefilter leaves unknown, and one world's wall ranged from 23 to
# 34 s over seeds 1-20, so a run takes the median over two worlds.  The
# campaign's work is the same in every world to 0.1%.
WORLDS = {"fullstudy": 2, "campaign": 1, "observatory": 1}
RUN_BUDGET_S = 150.0       # start no repetition that would end later
REPETITION_TIMEOUT_S = 170


class RepetitionError(RuntimeError):
    """A repetition crashed or printed no result."""


def repetition(workload, seed, trace=False, setup_only=False,
               trace_out=None):
    """Run one cold repetition in a fresh interpreter; its result dict."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out]
    started = time.monotonic()
    process = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=REPETITION_TIMEOUT_S)
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RepetitionError("%s repetition exited %d"
                              % (workload, process.returncode))
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def world_seeds(workload, seed):
    """The world seeds a run with ``seed`` times: disjoint across seeds."""
    count = WORLDS[workload]
    return [seed * count + index for index in range(count)]


def git_commit():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed):
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit(),
            "seed": seed, "worlds": world_seeds(workload, seed),
            "transport": "loopback 127.0.0.1 TCP, one http.client "
                         "keep-alive connection, one client thread"}


def measure(workload, seed, seconds):
    """Untraced repetitions, one per world in turn, until the timed work
    reaches ``seconds``; whole turns only, so each world weighs the same."""
    worlds = world_seeds(workload, seed)
    started = time.monotonic()
    reps = []
    while True:
        turn = [repetition(workload, world) for world in worlds]
        reps += turn
        if sum(rep["wall_s"] for rep in reps) >= seconds:
            break
        elapsed = time.monotonic() - started
        if elapsed + 1.2 * sum(rep["elapsed_s"] for rep in turn) \
                > RUN_BUDGET_S:
            break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES[workload]:
        world = worlds[len(setups) % len(worlds)]
        setups.append(repetition(workload, world,
                                 setup_only=True)["setup_s"])
    return reps, setups


def identity_problems(reps):
    """Cold repetitions of one world must produce identical outputs."""
    first = {}
    problems = []
    for index, rep in enumerate(reps):
        reference, digest = first.setdefault(rep["seed"],
                                             (index, rep["digest"]))
        if rep["digest"] != digest:
            problems.append("repetition %d output differs from repetition %d"
                            % (index, reference))
    return problems


def identity_checks(reps):
    return len(reps) - len({rep["seed"] for rep in reps})


def summary_lines(workload, reps, setups, env, attempted, problems):
    """The human-readable report: every metric by name, with its unit."""
    walls = [rep["wall_s"] for rep in reps]
    lines = ["workload %s: %d cold repetition(s); %s"
             % (workload, len(reps), json.dumps(env, sort_keys=True)),
             "  %-14s %12.4f s   (median of %d)"
             % ("setup_s", statistics.median(setups), len(setups))]
    named = {}
    for rep in reps:
        for name, value in rep["named"].items():
            named.setdefault(name, []).append(value)
    for name, values in sorted(named.items()):
        lines.append("  %-14s %12.4f s   (median of %d)"
                     % (name, statistics.median(values), len(values)))
    latencies = [latency for rep in reps
                 for latency in rep.get("latencies") or ()]
    if latencies:
        tail = tail_percentile(len(latencies))
        lines += [
            "  %-14s %12.2f 1/s (closed loop, 1 client)"
            % ("http_rps", len(latencies) / sum(latencies)),
            "  %-14s %12.3f ms  (n=%d)"
            % ("http_p50_ms", percentile(latencies, 50) * 1000,
               len(latencies)),
            "  %-14s %12.3f ms  (n=%d, p%g: highest percentile with >= 10 "
            "samples beyond)" % ("http_p%g_ms" % tail,
                                 percentile(latencies, tail) * 1000,
                                 len(latencies), tail)]
    lines += ["  %-14s %12.4f s   (median of %d: %s)"
              % ("wall_s", statistics.median(walls), len(walls),
                 ", ".join("%.3f" % wall for wall in walls)),
              "  %-14s %12.1f MB  (median of %d)"
              % ("peak_rss_mb",
                 statistics.median(rep["peak_rss_mb"] for rep in reps),
                 len(reps)),
              "  %-14s %12.4f     (%d failed of %d attempted)"
              % ("error_share", len(problems) / attempted, len(problems),
                 attempted)]
    if "golden" in reps[0]:
        missing = sorted({rep["seed"] for rep in reps if not rep["golden"]})
        lines.append("  goldens: " + ("checked" if not missing else
                                      "none recorded for world(s) %s; the "
                                      "other checks still ran" % missing))
    lines += ["  FAIL: %s" % problem for problem in problems]
    return lines


def run_untraced(workload, seed, seconds):
    reps, setups = measure(workload, seed, seconds)
    problems = identity_problems(reps)
    for rep in reps:
        problems += rep["problems"]
    attempted = identity_checks(reps) + sum(rep["attempted"]
                                            for rep in reps)
    lines = summary_lines(workload, reps, setups,
                          environment(workload, seed), attempted, problems)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
    }
    return lines, attempted, len(problems), metrics, END_TO_END


def run_traced(workload, seed):
    """One plain and one traced repetition: per-layer metrics from the
    traced one, overhead and byte identity from the pair."""
    world = world_seeds(workload, seed)[0]
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    trace_out = os.path.join(ROOT, ".perfbench",
                             "trace-%s-%d.jsonl" % (workload, world))
    plain = repetition(workload, world)
    traced = repetition(workload, world, trace=True, trace_out=trace_out)
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    problems = identity_problems([plain, traced]) + plain["problems"] \
        + traced["problems"]
    attempted = plain["attempted"] + traced["attempted"] + 1
    lines = ["workload %s traced, world %d; %s"
             % (workload, world,
                json.dumps(environment(workload, seed), sort_keys=True)),
             "  outputs identical with tracing on and off: %s"
             % (traced["digest"] == plain["digest"]),
             "  spans written to %s" % os.path.relpath(trace_out, ROOT),
             "  trace.overhead_s is one pair of repetitions, so it is only "
             "good to about +-%.1f s (+-8%% run-to-run noise); "
             "trace.wrapper_cost_s is the wrappers' calibrated own cost"
             % (0.08 * plain["wall_s"])]
    lines += ["  %-44s %14.6g %s" % (name, layers[name], unit)
              for name, unit in PER_LAYER.items()]
    lines += ["  FAIL: %s" % problem for problem in problems]
    return lines, attempted, len(problems), layers, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no program sources at %s"
              % os.path.join(ROOT, "src", "repro"), file=sys.stderr)
        return 2
    try:
        if args.trace:
            lines, attempted, failed, values, units = run_traced(
                args.workload, args.seed)
        else:
            lines, attempted, failed, values, units = run_untraced(
                args.workload, args.seed, args.seconds)
    except (RepetitionError, subprocess.TimeoutExpired) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
