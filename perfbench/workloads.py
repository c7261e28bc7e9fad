"""One cold repetition of one benchmark workload.

``run.py`` starts this file in a fresh interpreter for every
repetition, so the module-level memos of the scan engine (the LFSR
permutation, sweep plans, address columns) start cold each time, as
they do for a user running ``repro fullstudy``.  The last line of
standard output is one JSON object describing the repetition.

    python3 perfbench/workloads.py --workload campaign --seed 7
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import reporting  # noqa: E402
from repro import scenario as scenario_mod  # noqa: E402
from repro.analysis.churn import churn_survival, format_survival  # noqa: E402
from repro.analysis.geography import (  # noqa: E402
    country_fluctuation,
    format_fluctuation,
)
from repro.checkpoint import CheckpointedRun  # noqa: E402
from repro.faults import FaultPlan, parse_fault_spec  # noqa: E402
from repro.observatory import (  # noqa: E402
    Observatory,
    ObservatoryServer,
    ResolverStore,
    scenario_geo,
)
from repro.observatory import ingest as ingest_mod  # noqa: E402

from tracing import Pause, Tracer, layer_metrics  # noqa: E402

# Workload shapes.  Changing one changes its goldens: re-record them
# with record_goldens.py.
FULLSTUDY = {"scale": 60000, "weeks": 20, "snoop_sample": 200,
             "shards": 1, "pipeline_shards": 1}
CAMPAIGN = {"scale": 20000, "weeks": 6, "faults": "mild", "retries": 1,
            "shards": 1}
OBSERVATORY = {"scale": 20000, "weeks": 12, "requests": 240, "warmup": 8}
ROUTE_MIX = (("resolver", 0.80), ("timeline", 0.10), ("rankings", 0.05),
             ("survival", 0.05))
CONFIGS = {"fullstudy": FULLSTUDY, "campaign": CAMPAIGN,
           "observatory": OBSERVATORY}
# The span whose wall trace.coverage_share is measured against.
COVERAGE_PARENT = {"fullstudy": "timed", "campaign": "scanner.campaign.run",
                   "observatory": "timed"}
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
WORK_DIR = os.path.join(ROOT, ".perfbench")


class Outcome:
    """Checks made by one repetition: every attempt and every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def load_goldens(path=GOLDENS_PATH):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def golden_for(goldens, workload, seed):
    """The recorded golden for ``seed``, or ``None`` when there is none
    (or it was recorded for another workload shape)."""
    entry = goldens.get(workload) or {}
    if entry.get("config") != CONFIGS[workload]:
        return None
    return entry.get("seeds", {}).get(str(seed))


def _root(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _build(scale, seed):
    return scenario_mod.build_scenario(
        scenario_mod.ScenarioConfig(scale=scale, seed=seed))


def _keep_pipeline_reports(scenario, reports):
    """Collect every PipelineReport the study produces, for the
    ``degraded`` check (run_full_study keeps only derived tables)."""
    make = scenario.new_pipeline

    def new_pipeline(**kwargs):
        pipeline = make(**kwargs)
        run = pipeline.run

        def run_and_keep(*args, **run_kwargs):
            report = run(*args, **run_kwargs)
            reports.append(report)
            return report

        pipeline.run = run_and_keep
        return pipeline

    scenario.new_pipeline = new_pipeline


# -- fullstudy ---------------------------------------------------------------

def fullstudy(seed, outcome, goldens, tracer=None, setup_only=False):
    config = FULLSTUDY
    scenario = _build(config["scale"], seed)
    reports = []
    _keep_pipeline_reports(scenario, reports)
    setup_s = time.perf_counter() - STARTED
    if setup_only:
        return {"setup_s": setup_s}
    with _root(tracer, "timed"):
        started = time.perf_counter()
        results = reporting.run_full_study(
            scenario, weeks=config["weeks"],
            snoop_sample=config["snoop_sample"], shards=config["shards"],
            pipeline_shards=config["pipeline_shards"])
        text = reporting.render_markdown(results, scenario=scenario) + "\n"
        wall_s = time.perf_counter() - started
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for report in reports:
        outcome.check(not report.degraded,
                      "pipeline degraded: %r" % (report.degraded,))
    golden = golden_for(goldens, "fullstudy", seed)
    if golden is not None:
        outcome.check(digest == golden,
                      "report sha256 %s != golden %s" % (digest, golden))
    return {"setup_s": setup_s, "wall_s": wall_s, "digest": digest,
            "golden": golden is not None,
            "named": {"fullstudy_s": wall_s}}


# -- campaign ----------------------------------------------------------------

def week_digest(result):
    """sha256 over one week's canonical observation columns."""
    digest = hashlib.sha256()
    for column in result.canonical_columns():
        digest.update(column)
    return digest.hexdigest()


def campaign(seed, outcome, goldens, tracer=None, setup_only=False):
    config = CAMPAIGN
    scenario = _build(config["scale"], seed)
    plan = FaultPlan(parse_fault_spec(config["faults"]), seed=seed)
    scenario.network.install_faults(plan)
    scan = scenario.new_campaign(verify=False, shards=config["shards"],
                                 retries=config["retries"])
    directory = tempfile.mkdtemp(prefix="campaign-", dir=WORK_DIR)
    try:
        checkpoint = CheckpointedRun(
            directory, fault_plan=plan,
            meta={"command": "campaign", "scale": config["scale"],
                  "seed": seed, "weeks": config["weeks"],
                  "faults": config["faults"], "shards": config["shards"]})
        setup_s = time.perf_counter() - STARTED
        if setup_only:
            checkpoint.close()
            return {"setup_s": setup_s}
        with _root(tracer, "timed"):
            started = time.perf_counter()
            scan.run(config["weeks"], checkpoint=checkpoint)
            wall_s = time.perf_counter() - started
        checkpoint.close()
        journal_bytes = os.path.getsize(os.path.join(directory,
                                                     "journal.wal"))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    digests = [week_digest(snapshot.result) for snapshot in scan.snapshots]
    golden = golden_for(goldens, "campaign", seed)
    for week, (snapshot, digest) in enumerate(zip(scan.snapshots,
                                                  digests)):
        degraded = snapshot.result.degraded_shards
        ok = not degraded
        problem = "week %d degraded: %r" % (week, degraded)
        if golden is not None and ok:
            ok = week < len(golden) and digest == golden[week]
            problem = "week %d digest %s != golden" % (week, digest)
        outcome.check(ok, problem)
    outcome.check(len(scan.snapshots) == config["weeks"],
                  "ran %d of %d weeks" % (len(scan.snapshots),
                                          config["weeks"]))
    return {"setup_s": setup_s, "wall_s": wall_s, "digest": digests,
            "golden": golden is not None,
            "facts": {"journal_bytes": journal_bytes},
            "named": {"campaign_s": wall_s}}


# -- observatory -------------------------------------------------------------

def draw_routes(seed, snapshots, count):
    """The seeded request list: 80% point lookups, 10% /16 timelines,
    5% country rankings, 5% survival, over the journal's responders."""
    rng = random.Random(seed)
    responders = sorted(set().union(*(snapshot.result.responders
                                      for snapshot in snapshots)))
    routes = []
    for __ in range(count):
        draw = rng.random()
        if draw < ROUTE_MIX[0][1]:
            routes.append("/resolver/" + rng.choice(responders))
        elif draw < ROUTE_MIX[0][1] + ROUTE_MIX[1][1]:
            first, second = rng.choice(responders).split(".")[:2]
            routes.append("/timeline/%s.%s.0.0/16" % (first, second))
        elif draw < 1.0 - ROUTE_MIX[3][1]:
            routes.append("/rankings/countries?top=10")
        else:
            routes.append("/survival")
    return routes


def expected_body(observatory, path):
    """The in-process answer to ``path``, serialized as the server
    serializes it."""
    parts = [part for part in path.split("?")[0].split("/") if part]
    if parts[0] == "resolver":
        body = observatory.lookup(parts[1])
    elif parts[0] == "timeline":
        prefix = "%s/%s" % (parts[1], parts[2])
        body = {"prefix": prefix, "rows": observatory.timeline(prefix)}
    elif parts[0] == "rankings":
        rows, top_share = observatory.country_rankings(top=10)
        body = {"rows": rows, "top_share": top_share}
    else:
        body = {"curve": [[week, pct]
                          for week, pct in observatory.survival()]}
    return json.dumps(body, sort_keys=True).encode("utf-8")


class Client:
    """One keep-alive ``http.client`` connection, one request at a time."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.connection = http.client.HTTPConnection(host, port,
                                                      timeout=30)

    def get(self, path):
        """``(status, body)``; ``(None, error)`` on a connection error,
        after which the next request opens a new connection."""
        try:
            self.connection.request("GET", path)
            response = self.connection.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError) as error:
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=30)
            return None, repr(error).encode("utf-8")

    def close(self):
        self.connection.close()


def check_response(outcome, path, status, body, expected):
    outcome.check(status == 200 and body == expected,
                  "%s: status %s, body %s" % (
                      path, status,
                      "equal" if body == expected else "differs"))


def observatory(seed, outcome, goldens, tracer=None, setup_only=False):
    config = OBSERVATORY
    scenario = _build(config["scale"], seed)
    scan = scenario.new_campaign(verify=False)
    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=WORK_DIR)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
    server = client = None
    try:
        with Pause(tracer):
            checkpoint = CheckpointedRun(
                journal_dir, meta={"command": "campaign",
                                   "scale": config["scale"], "seed": seed,
                                   "weeks": config["weeks"]})
            scan.run(config["weeks"], checkpoint=checkpoint)
            checkpoint.close()
        routes = draw_routes(seed, scan.snapshots,
                             config["warmup"] + config["requests"])
        geo = scenario_geo(scenario)
        setup_s = time.perf_counter() - STARTED

        with _root(tracer, "timed"):
            started = time.perf_counter()
            store = ResolverStore(store_dir)
            ingest_mod.ingest_checkpoint(store, journal_dir, geo=geo)
            ingest_s = time.perf_counter() - started

        prepared = time.perf_counter()
        with Pause(tracer):
            served = Observatory(store)
            expected = {path: expected_body(served, path)
                        for path in set(routes)
                        | {"/rankings/countries?top=10", "/survival"}}
            check_formats(outcome, scenario, scan.snapshots, expected)
            server = ObservatoryServer(served).start()
            client = Client(*server.address)
            for path in routes[:config["warmup"]]:
                status, body = client.get(path)
                check_response(outcome, path, status, body, expected[path])
        setup_s += time.perf_counter() - prepared
        if setup_only:
            return {"setup_s": setup_s}

        latencies = []
        response_bytes = 0
        with _root(tracer, "timed"):
            started = time.perf_counter()
            for path in routes[config["warmup"]:]:
                with _root(tracer, "http.request"):
                    sent = time.perf_counter()
                    status, body = client.get(path)
                    latencies.append(time.perf_counter() - sent)
                response_bytes += len(body)
                check_response(outcome, path, status, body, expected[path])
            http_s = time.perf_counter() - started
        disk_bytes = store.disk_bytes()
        digest = hashlib.sha256(store.digest().encode("utf-8"))
        for path in routes:
            digest.update(expected[path])
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
        shutil.rmtree(journal_dir, ignore_errors=True)
        shutil.rmtree(store_dir, ignore_errors=True)
    return {"setup_s": setup_s, "wall_s": ingest_s + http_s,
            "digest": digest.hexdigest(),
            "facts": {"store_disk_bytes": disk_bytes,
                      "http_latencies": latencies,
                      "response_bytes": response_bytes},
            "named": {"ingest_s": ingest_s, "http_s": http_s}}


def check_formats(outcome, scenario, snapshots, expected):
    """Served rankings and survival must format exactly as the batch
    analysis formats the campaign's own snapshots."""
    served = json.loads(expected["/rankings/countries?top=10"])
    rows, top_share = country_fluctuation(snapshots[0].result,
                                          snapshots[-1].result,
                                          scenario.geoip, top=10)
    outcome.check(format_fluctuation(served["rows"], "Country")
                  == format_fluctuation(rows, "Country")
                  and served["top_share"] == top_share,
                  "served country rankings differ from analysis.geography")
    curve = json.loads(expected["/survival"])["curve"]
    outcome.check(format_survival(curve)
                  == format_survival(churn_survival(snapshots)),
                  "served survival differs from analysis.churn")


WORKLOADS = {"fullstudy": fullstudy, "campaign": campaign,
             "observatory": observatory}


def run_repetition(workload, seed, trace=False, setup_only=False,
                   goldens=None, trace_out=None):
    """Run one repetition in this process and return its result dict."""
    os.makedirs(WORK_DIR, exist_ok=True)
    goldens = load_goldens() if goldens is None else goldens
    outcome = Outcome()
    tracer = None
    if trace:
        tracer = Tracer("%s-%d-%d" % (workload, seed, os.getpid()))
        tracer.install()
    try:
        result = WORKLOADS[workload](seed, outcome, goldens, tracer=tracer,
                                     setup_only=setup_only)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(seed=seed, attempted=outcome.attempted,
                  failed=outcome.failed,
                  problems=outcome.problems,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    facts = result.pop("facts", {})
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, COVERAGE_PARENT[workload],
                                         facts)
        if trace_out:
            tracer.dump(trace_out, {"workload": workload, "seed": seed})
    if "http_latencies" in facts:
        result["latencies"] = facts["http_latencies"]
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run_repetition(args.workload, args.seed, trace=bool(args.trace),
                            setup_only=args.setup_only,
                            trace_out=args.trace_out)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
