"""Observatory benchmark: served and in-process point queries + identity.

Runs a checkpointed campaign, ingests its journal into a fresh
:class:`~repro.observatory.store.ResolverStore`, and gates on:

* **answer identity**: the Table 1/2 fluctuation rankings and the
  Figure 2 survival curve served from the store must be byte-identical
  (same formatter output) to the batch analysis over the campaign's
  live snapshots;
* **durability**: re-ingesting the same journal is a no-op, and the
  store built from a crash-then-resume campaign digests identically to
  the store from an uninterrupted run;
* **HTTP end to end**: closed-loop ``/resolver/<ip>`` requests on one
  keep-alive connection to an :class:`ObservatoryServer` must sustain
  at least ``HTTP_RPS_GATE`` per second with p99 under
  ``HTTP_P99_GATE_MS``, every body byte-equal to the in-process answer
  (a response split into headers-then-body writes stalls ~40 ms on
  Nagle + delayed ACK, which this gate catches);
* **lookup layer**: single-process point lookups must sustain at least
  ``LOOKUP_QPS_GATE`` per second with p99 under ``P99_GATE_MS``.

Writes ``BENCH_observatory.json`` (including ingest lag and store
size); exits 1 when a gate fails.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_observatory
    PYTHONPATH=src python -m benchmarks.perf.bench_observatory --quick
"""

import argparse
import json
import socket
import statistics
import sys
import time

from repro.analysis.churn import churn_survival, format_survival
from repro.analysis.geography import (
    country_fluctuation,
    format_fluctuation,
    rir_fluctuation,
)
from repro.checkpoint import CheckpointedRun
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.observatory import (
    Observatory,
    ObservatoryServer,
    ResolverStore,
    ingest_checkpoint,
    scenario_geo,
)
from repro.perf import PerfRegistry
from repro.scenario import ScenarioConfig, build_scenario

WEEKS = 4
LOOKUP_QPS_GATE = 50_000
P99_GATE_MS = 1.0
HTTP_RPS_GATE = 3_000
HTTP_P99_GATE_MS = 1.0
HTTP_WARMUP = 200
HTTP_ROUNDS = 5


def check(ok, message):
    if not ok:
        print("FAIL: %s" % message, file=sys.stderr)
        return 1
    print("ok: %s" % message, file=sys.stderr)
    return 0


def run_campaign(scale, seed, directory, fault_plan=None, resume=False):
    """One campaign incarnation over a freshly built world."""
    scenario = build_scenario(ScenarioConfig(scale=scale, seed=seed,
                                             loss_rate=0.0))
    campaign = scenario.new_campaign(verify=False)
    checkpoint = CheckpointedRun(directory,
                                 meta={"command": "campaign",
                                       "scale": scale, "seed": seed,
                                       "weeks": WEEKS},
                                 fault_plan=fault_plan, resume=resume)
    try:
        campaign.run(WEEKS, checkpoint=checkpoint)
    finally:
        checkpoint.close()
    return scenario, campaign


def ingest(directory, store_dir, scenario, perf=None):
    store = ResolverStore(store_dir)
    report = ingest_checkpoint(store, directory,
                               geo=scenario_geo(scenario), perf=perf)
    return store, report


def measure_lookups(observatory, ips, rounds):
    """Single-process point-lookup throughput over a cycling IP list."""
    lookup = observatory.lookup
    for ip in ips[:1000]:                       # warm caches
        lookup(ip)
    observatory.perf.histograms.pop("observatory_lookup_seconds", None)
    count = len(ips)
    start = time.perf_counter()
    for index in range(rounds):
        lookup(ips[index % count])
    elapsed = time.perf_counter() - start
    histogram = observatory.perf.histogram("observatory_lookup_seconds")
    return {
        "lookups": rounds,
        "seconds": round(elapsed, 4),
        "qps": round(rounds / elapsed, 1),
        "p50_us": round(histogram.percentile(50) * 1e6, 2),
        "p99_us": round(histogram.percentile(99) * 1e6, 2),
        "max_us": round((histogram.max or 0.0) * 1e6, 2),
    }


def measure_http(observatory, ips, requests):
    """Closed-loop ``/resolver/<ip>`` requests on one keep-alive
    connection: the next request is sent only after the previous reply
    arrived.  ``HTTP_ROUNDS`` rounds of ``requests`` each; the fastest
    round is reported and gated (best-of-N, as ``bench_scan`` does),
    because on a shared 2-CPU box other tenants' bursts land in the
    p99 of whichever round they hit.  A Nagle stall is in every round.

    The gate is on the server, so the client is a minimal HTTP/1.1
    reader: status line, headers up to the blank line, then the
    ``Content-Length`` body.  :mod:`http.client` parses every response's
    headers with the email parser, which costs about as much as the
    server's whole answer and here shares the server's interpreter
    lock; with it the same loop measures half the rate.
    """
    wire = [("GET /resolver/%s HTTP/1.1\r\nHost: bench\r\n\r\n" % ip)
            .encode("ascii") for ip in ips]
    expected = [json.dumps(observatory.lookup(ip), sort_keys=True)
                .encode("utf-8") for ip in ips]
    count = len(ips)
    rounds = []
    mismatches = 0
    with ObservatoryServer(observatory) as server, \
            socket.create_connection(server.address, timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with sock.makefile("rb") as reader:
            def fetch(index):
                sock.sendall(wire[index % count])
                status = reader.readline()
                length = 0
                for line in iter(reader.readline, b"\r\n"):
                    if not line:
                        raise ConnectionError("server closed the "
                                              "keep-alive connection")
                    name, __, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = reader.read(length)
                return (status.startswith(b"HTTP/1.1 200 ")
                        and body == expected[index % count])

            for index in range(HTTP_WARMUP):
                mismatches += not fetch(index)
            for __ in range(HTTP_ROUNDS):
                latencies = []
                start = time.perf_counter()
                for index in range(requests):
                    sent = time.perf_counter()
                    mismatches += not fetch(index)
                    latencies.append(time.perf_counter() - sent)
                elapsed = time.perf_counter() - start
                cuts = statistics.quantiles(latencies, n=100)
                rounds.append({
                    "seconds": round(elapsed, 4),
                    "rps": round(requests / elapsed, 1),
                    "p50_us": round(cuts[49] * 1e6, 2),
                    "p99_us": round(cuts[98] * 1e6, 2),
                    "max_us": round(max(latencies) * 1e6, 2),
                })
    best = max(rounds, key=lambda summary: summary["rps"])
    return dict(best, requests=requests, mismatches=mismatches,
                round_rps=[summary["rps"] for summary in rounds],
                round_p99_us=[summary["p99_us"] for summary in rounds])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="smaller world + fewer lookups and HTTP "
                             "requests (CI smoke)")
    parser.add_argument("--lookups", type=int, default=None,
                        help="point lookups to time (default 200000, "
                             "quick 60000)")
    parser.add_argument("--out", default="BENCH_observatory.json")
    args = parser.parse_args(argv)
    scale = 60000 if args.quick else args.scale
    rounds = args.lookups or (60_000 if args.quick else 200_000)
    requests = 1_000 if args.quick else 2_000

    import tempfile
    failures = 0
    with tempfile.TemporaryDirectory(prefix="bench-observatory-") as tmp:
        print("campaign @ scale 1:%d seed %d, %d weeks..."
              % (scale, args.seed, WEEKS), file=sys.stderr)
        ckpt = "%s/ckpt" % tmp
        scenario, campaign = run_campaign(scale, args.seed, ckpt)

        print("ingest...", file=sys.stderr)
        perf = PerfRegistry()
        store, report = ingest(ckpt, "%s/store" % tmp, scenario, perf)
        failures += check(
            report.units_folded >= WEEKS and len(store) > 0,
            "ingested %d units -> %d resolvers, %d weeks, %.2fs"
            % (report.units_folded, len(store), len(store.weeks()),
               report.seconds))

        observatory = Observatory(store, perf=perf)

        # -- answer identity (Tables 1/2 + Figure 2) -------------------
        first = campaign.snapshots[0].result
        last = campaign.snapshots[-1].result
        batch_rows, batch_share = country_fluctuation(first, last,
                                                      scenario.geoip)
        store_rows, store_share = observatory.country_rankings()
        table1_equal = (format_fluctuation(store_rows, "Country")
                        == format_fluctuation(batch_rows, "Country")
                        and store_share == batch_share)
        failures += check(table1_equal,
                          "Table 1 byte-identical to batch analysis")
        table2_equal = (
            format_fluctuation(observatory.rir_rankings(), "RIR")
            == format_fluctuation(rir_fluctuation(first, last,
                                                  scenario.geoip),
                                  "RIR"))
        failures += check(table2_equal,
                          "Table 2 byte-identical to batch analysis")
        survival_equal = (format_survival(observatory.survival())
                          == format_survival(
                              churn_survival(campaign.snapshots)))
        failures += check(survival_equal,
                          "Figure 2 byte-identical to batch analysis")

        # -- idempotence + crash-resume equality -----------------------
        digest = store.digest()
        again = ingest_checkpoint(store, ckpt,
                                  geo=scenario_geo(scenario))
        failures += check(
            not again.changed() and store.digest() == digest,
            "re-ingest of the same journal is a no-op")

        print("crash-resume campaign...", file=sys.stderr)
        crashed_ckpt = "%s/crashed" % tmp
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)),
                         seed=args.seed)
        try:
            run_campaign(scale, args.seed, crashed_ckpt,
                         fault_plan=plan)
        except InjectedCrash:
            pass
        resumed_scenario, __ = run_campaign(scale, args.seed,
                                            crashed_ckpt, resume=True)
        resumed_store, __ = ingest(crashed_ckpt,
                                   "%s/resumed-store" % tmp,
                                   resumed_scenario)
        failures += check(
            resumed_store.digest() == digest,
            "crash-resumed store digests identical to uninterrupted")

        # -- served point queries, HTTP end to end ---------------------
        ips = store.rows_where()
        print("timing %d x %d keep-alive HTTP requests..."
              % (HTTP_ROUNDS, requests), file=sys.stderr)
        served = measure_http(observatory, ips, requests)
        failures += check(
            served["mismatches"] == 0,
            "every served body byte-equal to the in-process lookup")
        failures += check(
            served["rps"] >= HTTP_RPS_GATE,
            "%.0f HTTP req/s on one keep-alive connection (gate %d)"
            % (served["rps"], HTTP_RPS_GATE))
        failures += check(
            served["p99_us"] < HTTP_P99_GATE_MS * 1000,
            "HTTP p99 %.1fus (gate %.0fus)" % (served["p99_us"],
                                               HTTP_P99_GATE_MS * 1000))

        # -- point-lookup throughput (the layer figure) ----------------
        print("timing %d point lookups over %d resolvers..."
              % (rounds, len(ips)), file=sys.stderr)
        lookups = measure_lookups(observatory, ips, rounds)
        failures += check(
            lookups["qps"] >= LOOKUP_QPS_GATE,
            "%.0f lookups/s (gate %d)" % (lookups["qps"],
                                          LOOKUP_QPS_GATE))
        failures += check(
            lookups["p99_us"] < P99_GATE_MS * 1000,
            "p99 %.1fus (gate %.0fus)" % (lookups["p99_us"],
                                          P99_GATE_MS * 1000))

        report_json = {
            "scale": scale,
            "seed": args.seed,
            "weeks": WEEKS,
            "resolvers": len(store),
            "ingest_seconds": round(report.seconds, 3),
            "ingest_lag_records_at_start": report.lag_records,
            "ingest_lag_records_after": max(
                0, report.lag_records - report.units_seen),
            "store_generation": store.generation,
            "store_disk_bytes": store.disk_bytes(),
            "http": served,
            "http_rps_gate": HTTP_RPS_GATE,
            "http_p99_gate_ms": HTTP_P99_GATE_MS,
            "lookup": lookups,
            "lookup_qps_gate": LOOKUP_QPS_GATE,
            "p99_gate_ms": P99_GATE_MS,
            "table1_identical": table1_equal,
            "table2_identical": table2_equal,
            "survival_identical": survival_equal,
            "reingest_noop": not again.changed(),
            "crash_resume_identical":
                resumed_store.digest() == digest,
            "passed": failures == 0,
        }
    with open(args.out, "w") as handle:
        json.dump(report_json, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.out, file=sys.stderr)

    if failures:
        print("%d observatory gate(s) failed" % failures,
              file=sys.stderr)
        return 1
    print("observatory passed: %.0f HTTP req/s, p99 %.0fus; "
          "%.0f lookups/s, p99 %.0fus; store %d bytes"
          % (served["rps"], served["p99_us"], lookups["qps"],
             lookups["p99_us"], report_json["store_disk_bytes"]),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
