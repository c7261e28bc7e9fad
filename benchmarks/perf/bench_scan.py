"""Scan-engine throughput benchmark: seed loop vs fast path vs shards.

Runs the full-scenario weekly scan three ways — the seed implementation
(:mod:`benchmarks.perf.legacy`), the optimised sequential fast path, and
the fork-sharded engine — each against a freshly built scenario with the
same scale and seed, and writes the measurements to ``BENCH_scan.json``.
The fast-vs-seed speedup gate is the median ratio of at least five
alternating-order seed/fast pairs (every pair's ratio is recorded).
The sharded run doubles as the determinism check: its merged
``counts()`` must equal the sequential run's exactly.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_scan
    PYTHONPATH=src python -m benchmarks.perf.bench_scan --quick
"""

import argparse
import json
import statistics
import sys
import time

from benchmarks.perf.legacy import LegacyIpv4Scanner, LegacyScanTargetSpace
from repro.perf import PerfRegistry
from repro.scenario import MEASUREMENT_DOMAIN, ScenarioConfig, build_scenario


def _build(scale, seed):
    return build_scenario(ScenarioConfig(scale=scale, seed=seed))


def _legacy_once(scale, seed):
    """One timed seed-loop scan of week 1 on a fresh scenario."""
    scenario = _build(scale, seed)
    scenario.churn.step()
    scanner = LegacyIpv4Scanner(
        scenario.network, scenario.scanner_ip, MEASUREMENT_DOMAIN,
        blacklist=scenario.blacklist)
    space = LegacyScanTargetSpace(scenario.resolver_prefixes)
    start = time.perf_counter()
    result = scanner.scan(space)
    return time.perf_counter() - start, result


def _engine_once(scale, seed, shards):
    """One timed engine scan (sequential when ``shards == 1``) of week
    1 on a fresh scenario; returns ``(seconds, result, perf)``."""
    scenario = _build(scale, seed)
    perf = PerfRegistry()
    campaign = scenario.new_campaign(verify=False, shards=shards,
                                     perf=perf)
    snapshot = campaign.run_week()
    return perf.seconds("scan_wall"), snapshot.result, perf


def _rate(seconds, result):
    return result.probes_sent / seconds


def _summary(samples):
    """Best-of summary of ``[(seconds, result, ...), ...]`` samples
    (the shared host's background load only ever slows a run down, so
    min-time is the least-noise single-variant estimator)."""
    best = min(samples, key=lambda item: item[0])
    elapsed, result = best[0], best[1]
    return best, {
        "probes_sent": result.probes_sent,
        "repeats": len(samples),
        "seconds": round(elapsed, 4),
        "probes_per_sec": round(_rate(elapsed, result), 1),
        "samples_probes_per_sec": [
            round(_rate(sample[0], sample[1]), 1) for sample in samples],
        "counts": result.counts(),
    }


def _engine_stats(samples, shards):
    (__, result, perf), stats = _summary(samples)
    stats.update({
        "shards": shards,
        "divergent_sources": len(result.divergent_sources),
        "parse_calls_avoided": perf.counter("parse_calls_avoided"),
    })
    return stats, result


def _measure_speedup(scale, seed, pairs):
    """Seed loop vs fast path in adjacent pairs; returns
    ``(legacy, fast, sequential_result, ratios)``.

    Each pair scans both ways back to back and the side that runs first
    alternates, so a slow host phase lands on both sides of a pair
    alike.  ``ratios`` holds every pair's fast-vs-legacy probes/sec
    ratio; the gate reads their median, which one noisy pair cannot
    move (a single best-of-2 pair read 8.77x and 10.14x back to back on
    an idle 2-CPU box).
    """
    legacy_samples = []
    fast_samples = []
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            fast = _engine_once(scale, seed, shards=1)
            legacy = _legacy_once(scale, seed)
        else:
            legacy = _legacy_once(scale, seed)
            fast = _engine_once(scale, seed, shards=1)
        legacy_samples.append(legacy)
        fast_samples.append(fast)
        ratios.append(_rate(*fast[:2]) / _rate(*legacy))
    __, legacy_stats = _summary(legacy_samples)
    fast_stats, sequential_result = _engine_stats(fast_samples, 1)
    return legacy_stats, fast_stats, sequential_result, ratios


def _measure_engine(scale, seed, shards, repeats):
    """Best-of-``repeats`` engine scans of week 1."""
    return _engine_stats([_engine_once(scale, seed, shards)
                          for __ in range(repeats)], shards)


def _measure_robustness(scale, seed, retries, loss_rate):
    """One weekly scan under injected loss, with/without retransmissions.

    Quantifies the robustness tax: what `--retries N` costs in wall
    time and probe volume, and what it buys back in responders that
    plain single-probe scanning loses to the injected loss.
    """
    from repro.faults import FaultPlan, FaultProfile
    scenario = _build(scale, seed)
    scenario.network.install_faults(FaultPlan(
        FaultProfile(loss_rate=loss_rate), seed=seed))
    perf = PerfRegistry()
    campaign = scenario.new_campaign(verify=False, perf=perf,
                                     retries=retries)
    result = campaign.run_week().result
    elapsed = perf.seconds("scan_wall")
    return {
        "retries": retries,
        "probes_sent": result.probes_sent,
        "retransmissions": result.retransmissions,
        "responders": len(result.responders),
        "seconds": round(elapsed, 4),
        "probes_per_sec": round(result.probes_sent / elapsed, 1),
    }


def _measure_tracing_overhead(scale, seed, repeats):
    """Tracing-off vs traced weekly scans on the sequential engine.

    Tracing off is ``Observability(enabled=False).install(...)`` — the
    instruments stay ``None`` on the network, so this must cost nothing
    against a plain un-instrumented run; the report gates that overhead
    below 2%.  Baseline and tracing-off runs execute in adjacent pairs
    with alternating order, and the reported overhead is the *minimum*
    per-pair ratio: host noise (CPU contention, allocator state) only
    ever inflates individual pairs, while a real hot-path regression
    shifts every pair, so the minimum is a low-noise detector that
    still catches genuine overhead.  The traced run records every span
    and flight event and reports its real cost for the record (it is
    not gated — enabling tracing is allowed to cost).
    """
    from repro.obs import Observability

    def run_once(enabled):
        scenario = _build(scale, seed)
        perf = PerfRegistry()
        obs = None
        if enabled is not None:
            obs = Observability(clock=scenario.network.clock, seed=seed,
                                enabled=enabled)
            obs.install(scenario.network)
        campaign = scenario.new_campaign(verify=False, perf=perf)
        campaign.run_week()
        return perf.seconds("scan_wall"), obs

    baseline_samples = []
    off_samples = []
    ratios = []
    for pair in range(max(3, repeats)):
        if pair % 2:
            off_t = run_once(False)[0]
            base_t = run_once(None)[0]
        else:
            base_t = run_once(None)[0]
            off_t = run_once(False)[0]
        baseline_samples.append(base_t)
        off_samples.append(off_t)
        ratios.append(off_t / base_t)
    baseline_seconds = min(baseline_samples)
    off_seconds = min(off_samples)
    traced = [run_once(True) for __ in range(repeats)]
    traced_seconds, obs = min(traced, key=lambda item: item[0])
    overhead_pct = max(0.0, (min(ratios) - 1.0) * 100)
    return {
        "baseline_seconds": round(baseline_seconds, 4),
        "tracing_off_seconds": round(off_seconds, 4),
        "tracing_off_overhead_pct": round(overhead_pct, 2),
        "traced_seconds": round(traced_seconds, 4),
        "traced_overhead_x": round(traced_seconds / baseline_seconds, 2),
        "spans": len(obs.tracer.spans),
        "flight_events": len(obs.recorder.events),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="scan-engine throughput benchmark")
    parser.add_argument("--scale", type=int, default=20000,
                        help="1:N scale of the simulated Internet")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--check-shards", type=int, default=2,
                        help="shard count for the determinism check")
    parser.add_argument("--quick", action="store_true",
                        help="smaller world (CI smoke run)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per variant (fastest wins; "
                        "the legacy/fast speedup runs at least 5 pairs)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail below this fast-vs-legacy ratio")
    parser.add_argument("--out", default="BENCH_scan.json")
    args = parser.parse_args(argv)
    scale = 60000 if args.quick else args.scale
    repeats = max(1, args.repeats if not args.quick else 2)
    pairs = max(5, repeats)

    print("benchmarking at scale 1:%d (seed %d, %d legacy/fast pairs, "
          "best of %d otherwise)..." % (scale, args.seed, pairs, repeats),
          file=sys.stderr)
    legacy, fast, sequential_result, ratios = _measure_speedup(
        scale, args.seed, pairs)
    print("  legacy:    %8.0f probes/sec" % legacy["probes_per_sec"],
          file=sys.stderr)
    print("  fast:      %8.0f probes/sec" % fast["probes_per_sec"],
          file=sys.stderr)
    print("  pairs:     %s" % " ".join("%.2fx" % r for r in ratios),
          file=sys.stderr)
    sharded, sharded_result = _measure_engine(scale, args.seed,
                                              shards=args.check_shards,
                                              repeats=repeats)
    print("  sharded:   %8.0f probes/sec (%d shards)"
          % (sharded["probes_per_sec"], args.check_shards), file=sys.stderr)

    loss_rate = 0.05
    tax_single = _measure_robustness(scale, args.seed, retries=0,
                                     loss_rate=loss_rate)
    tax_robust = _measure_robustness(scale, args.seed, retries=2,
                                     loss_rate=loss_rate)
    print("  retries=0: %8.0f probes/sec, %d responders (5%% loss)"
          % (tax_single["probes_per_sec"], tax_single["responders"]),
          file=sys.stderr)
    print("  retries=2: %8.0f probes/sec, %d responders (+%d recovered)"
          % (tax_robust["probes_per_sec"], tax_robust["responders"],
             tax_robust["responders"] - tax_single["responders"]),
          file=sys.stderr)

    tracing = _measure_tracing_overhead(scale, args.seed, repeats)
    print("  tracing:   off +%.2f%% vs baseline, on %.2fx "
          "(%d spans, %d flight events)"
          % (tracing["tracing_off_overhead_pct"],
             tracing["traced_overhead_x"], tracing["spans"],
             tracing["flight_events"]), file=sys.stderr)

    identical = (
        sequential_result.counts() == sharded_result.counts()
        and sequential_result.responders == sharded_result.responders
        and sequential_result.divergent_sources
        == sharded_result.divergent_sources
        and sequential_result.probes_sent == sharded_result.probes_sent)
    speedup = statistics.median(ratios)
    speedup_sharded = sharded["probes_per_sec"] / legacy["probes_per_sec"]
    report = {
        "benchmark": "scan_engine_throughput",
        "scale": scale,
        "seed": args.seed,
        "repeats": repeats,
        "min_speedup": args.min_speedup,
        "legacy": legacy,
        "fast": fast,
        "sharded": sharded,
        "speedup_fast_vs_legacy": round(speedup, 2),
        "speedup_method": "median of alternating-order legacy/fast pairs",
        "speedup_pairs": [round(ratio, 2) for ratio in ratios],
        "speedup_sharded_vs_legacy": round(speedup_sharded, 2),
        "shard_determinism": {
            "shards_compared": [1, args.check_shards],
            "identical": identical,
            "counts": sequential_result.counts(),
        },
        "robustness_tax": {
            "injected_loss_rate": loss_rate,
            "retries_0": tax_single,
            "retries_2": tax_robust,
            "time_overhead_x": round(
                tax_robust["seconds"] / tax_single["seconds"], 2),
            "responders_recovered": (tax_robust["responders"]
                                     - tax_single["responders"]),
        },
        "tracing_overhead": tracing,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("speedup: %.2fx (sharded %.2fx); determinism: %s; wrote %s"
          % (speedup, speedup_sharded,
             "OK" if identical else "MISMATCH", args.out), file=sys.stderr)

    if not identical:
        print("FAIL: sharded result differs from sequential",
              file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print("FAIL: fast path below %.1fx the seed implementation "
              "(%.2fx)" % (args.min_speedup, speedup), file=sys.stderr)
        return 1
    if tracing["tracing_off_overhead_pct"] >= 2.0:
        print("FAIL: disabled tracing costs %.2f%% against the fast "
              "path (budget: <2%%)"
              % tracing["tracing_off_overhead_pct"], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
