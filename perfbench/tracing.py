"""Spans and counters recorded from outside the program.

The traced run installs timing wrappers on the public entry points of
each layer, at the name its caller resolves (``repro.core.pipeline``
imports ``cluster_deduplicated`` by name, so the wrapper goes on
``repro.core.pipeline.cluster_deduplicated``, not on the defining
module).  Spans stay in memory as ``(id, name, start, end, parent,
thread)`` tuples and are written once, when the run ends.  Nothing under
``src/`` knows it is being watched, and :meth:`Tracer.uninstall` puts
every original attribute back, so untraced runs pay for nothing.

``PER_LAYER`` names every per-layer metric the benchmark reports, with
its unit; :func:`layer_metrics` derives them from one traced run.
"""

import functools
import importlib
import json
import threading
import time
from collections import Counter

# Analysis functions ``run_full_study`` calls, by the names it resolves
# in ``repro.reporting``; each call is one ``analysis`` span.
ANALYSIS_NAMES = (
    "as_fluctuation", "broadband_share_of_top_networks",
    "case_study_summary", "censorship_coverage", "churn_survival",
    "classification_table", "country_fluctuation", "device_table",
    "gfw_double_responses", "legit_addresses_from_report",
    "magnitude_series", "prefilter_summary", "rir_fluctuation",
    "social_geography", "software_table", "utilization_summary",
)


class Tracer:
    """In-memory span and counter recorder with wrapper install/restore."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # (id, name, start, end, parent, thread)
        self.counts = Counter()
        self.paused = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []     # (owner, attribute, original raw value)

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)          # reserve the id
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name, parent, time.perf_counter()))
        return span_id

    def end(self):
        ended = time.perf_counter()
        span_id, name, parent, started = self._stack().pop()
        self.spans[span_id] = (span_id, name, started, ended, parent,
                               threading.get_ident())

    def span(self, name):
        """Context manager recording one span (the benchmark's roots)."""
        return _SpanContext(self, name)

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def finished(self):
        return [span for span in self.spans if span is not None]

    def dump(self, path, meta):
        """Write every span and counter once, as JSON lines."""
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(meta, run=self.run_id,
                                         kind="meta")) + "\n")
            for span_id, name, start, end, parent, thread \
                    in self.finished():
                handle.write(json.dumps({
                    "kind": "span", "run": self.run_id, "id": span_id,
                    "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread}) + "\n")
            for name, value in sorted(self.counts.items()):
                handle.write(json.dumps({"kind": "count",
                                         "run": self.run_id,
                                         "name": name,
                                         "value": value}) + "\n")

    # -- wrappers ----------------------------------------------------------

    def install(self, hooks=None):
        """Wrap every hook target (all of ``HOOKS`` by default)."""
        for hook in (HOOKS if hooks is None else hooks):
            owner, attribute = _resolve(hook.target)
            raw = vars(owner)[attribute]
            self._installed.append((owner, attribute, raw))
            setattr(owner, attribute, _rewrap(raw, hook, self))

    def uninstall(self):
        """Restore every wrapped attribute to its original object."""
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)


class _SpanContext:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc_info):
        self.tracer.end()


class Pause:
    """Suspend recording (for untimed preparation inside a traced run)."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.paused = True

    def __exit__(self, *exc_info):
        if self.tracer is not None:
            self.tracer.paused = False


# -- hook table --------------------------------------------------------------

class Hook:
    """One wrapped entry point.

    ``mode`` is ``"span"`` (time every call), ``"count"`` (count calls
    only; for entry points called hundreds of thousands of times) or
    ``"yield"`` (count the items a generator yields).  ``before`` runs
    ahead of the call and its value reaches ``after(tracer, args,
    result, before_value)``, which records counters from the result.
    """

    def __init__(self, target, name, mode="span", before=None,
                 after=None):
        self.target = target
        self.name = name
        self.mode = mode
        self.before = before
        self.after = after


def _resolve(target):
    module_name, __, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rewrap(raw, hook, tracer):
    if isinstance(raw, classmethod):
        return classmethod(_wrap(raw.__func__, hook, tracer))
    if isinstance(raw, staticmethod):
        return staticmethod(_wrap(raw.__func__, hook, tracer))
    return _wrap(raw, hook, tracer)


def _wrap(func, hook, tracer):
    name, before, after = hook.name, hook.before, hook.after
    if hook.mode == "count":
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[name] += 1
            return func(*args, **kwargs)
    elif hook.mode == "yield":
        def wrapper(*args, **kwargs):
            for item in func(*args, **kwargs):
                if not tracer.paused:
                    tracer.count(name)
                yield item
    else:
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            state = before(args) if before is not None else None
            tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, args, result, state)
            return result
    return functools.update_wrapper(wrapper, func)


def _after_ipv4_scan(tracer, args, result, state):
    tracer.count("ipv4.probes_sent", result.probes_sent)
    tracer.count("ipv4.retransmissions", result.retransmissions)
    tracer.count("ipv4.noerror", len(result.noerror))


def _queries_before(args):
    return args[0].scanner.queries_sent


def _after_domain_scan(tracer, args, result, before):
    tracer.count("domainscan.queries_sent",
                 args[0].scanner.queries_sent - before)


def _after_prefilter(tracer, args, result, state):
    tracer.count("prefilter.unknown", len(result.unknown))
    tracer.count("prefilter.observations", result.stats()["observations"])


def _after_acquire(tracer, args, result, state):
    captures = list(result[0]) + list(result[1])
    tracer.count("acquisition.attempted", len(captures))
    tracer.count("acquisition.fetched",
                 sum(1 for capture in captures if capture.fetched))


def _week_resident(args):
    store, week = args[0], args[1]
    return week in store.resident_weeks()


def _after_week(tracer, args, result, resident):
    tracer.count("store.week_calls")
    tracer.count("store.week_hits", int(resident))


HOOKS = [
    Hook("repro.scenario:build_scenario", "scenario.build"),
    # Weekly scans and the robust per-target path.
    Hook("repro.scanner.campaign:ScanCampaign.run", "scanner.campaign.run"),
    Hook("repro.scanner.campaign:ScanCampaign.run_week",
         "scanner.campaign.week"),
    Hook("repro.scanner.ipv4scan:Ipv4Scanner.scan", "scanner.ipv4scan.scan",
         after=_after_ipv4_scan),
    Hook("repro.netsim.network:Network.send_probe", "network.send_probe",
         mode="count"),
    Hook("repro.inetmodel.churn:ChurnModel.step", "inetmodel.churn.step"),
    # Fingerprint and snoop.
    Hook("repro.scanner.chaos:ChaosScanner.scan", "scanner.chaos.scan"),
    Hook("repro.scanner.banner:BannerGrabber.grab_all",
         "scanner.banner.grab_all"),
    Hook("repro.scanner.fingerprints:FingerprintMatcher.classify_all",
         "scanner.fingerprints.classify_all"),
    Hook("repro.scanner.snooping:CacheSnoopingProber.run",
         "scanner.snooping.run"),
    # Domain scan and the DNS wire codec.
    Hook("repro.scanner.domainengine:DomainScanEngine.scan",
         "scanner.domainengine.scan", before=_queries_before,
         after=_after_domain_scan),
    Hook("repro.dnswire.message:Message.to_wire", "message.to_wire",
         mode="count"),
    Hook("repro.dnswire.message:Message.from_wire", "message.from_wire",
         mode="count"),
    # Prefilter, ground truth, acquisition.
    Hook("repro.core.prefilter:Prefilterer.process", "core.prefilter.process",
         after=_after_prefilter),
    Hook("repro.core.pipeline:ManipulationPipeline.collect_ground_truth",
         "core.pipeline.ground_truth"),
    Hook("repro.core.acquisition:DataAcquirer.acquire",
         "core.acquisition.acquire", after=_after_acquire),
    # Clustering and labeling.
    Hook("repro.core.pipeline:cluster_deduplicated",
         "core.clustering.cluster"),
    Hook("repro.core.distance:edit_distance", "core.distance.edit_distance"),
    Hook("repro.core.labeling:ClusterLabeler.label_clusters",
         "core.labeling.label_clusters"),
    Hook("repro.core.pipeline:build_diff_profile", "core.diffcluster.build"),
    Hook("repro.core.pipeline:diff_cluster", "core.diffcluster.cluster"),
    Hook("repro.core.diffcluster:DiffProfile.combined_multiset",
         "diffcluster.combined_multiset", mode="count"),
    # Analysis and report.
    *[Hook("repro.reporting:" + name, "analysis") for name in ANALYSIS_NAMES],
    Hook("repro.reporting:render_markdown", "reporting.render"),
    # Checkpoint writes.
    Hook("repro.checkpoint.run:CheckpointedRun.commit",
         "checkpoint.run.commit"),
    Hook("repro.checkpoint:capture_world_state", "checkpoint.state"),
    Hook("repro.checkpoint:churn_digest", "checkpoint.state"),
    # Observatory ingest, store, queries, HTTP handler.
    Hook("repro.checkpoint.feed:CheckpointFeed.commits", "feed.records",
         mode="yield"),
    Hook("repro.observatory.ingest:ingest_checkpoint",
         "observatory.ingest"),
    Hook("repro.observatory.store:ResolverStore.save",
         "observatory.store.save"),
    Hook("repro.observatory.store:ResolverStore.week",
         "observatory.store.week", before=_week_resident, after=_after_week),
    Hook("repro.observatory.query:Observatory.lookup",
         "observatory.query.lookup"),
    Hook("repro.observatory.query:Observatory.timeline",
         "observatory.query.timeline"),
    Hook("repro.observatory.query:Observatory.country_rankings",
         "observatory.query.country_rankings"),
    Hook("repro.observatory.query:Observatory.survival",
         "observatory.query.survival"),
    Hook("repro.observatory.service:_ObservatoryHandler.do_GET",
         "observatory.service.handler"),
]


# -- per-layer metrics -------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "scenario.build_s": "s",
    "scanner.campaign.run_s": "s",
    "scanner.ipv4scan.probes_sent": "count",
    "scanner.chaos.scan_s": "s",
    "scanner.banner.grab_all_s": "s",
    "scanner.fingerprints.classify_all_s": "s",
    "scanner.snooping.run_s": "s",
    "scanner.domainengine.scan_s": "s",
    "scanner.domainscan.queries_sent": "count",
    "dnswire.message.to_wire_calls": "count",
    "dnswire.message.from_wire_calls": "count",
    "core.prefilter.process_s": "s",
    "core.prefilter.unknown_share": "ratio",
    "core.pipeline.ground_truth_s": "s",
    "core.acquisition.acquire_s": "s",
    "core.acquisition.fetched_share": "ratio",
    "core.clustering.cluster_s": "s",
    "core.distance.edit_distance_calls": "count",
    "core.distance.edit_distance_s": "s",
    "core.labeling.label_clusters_s": "s",
    "core.diffcluster.build_s": "s",
    "core.diffcluster.cluster_s": "s",
    "core.diffcluster.combined_multiset_calls": "count",
    "analysis.s": "s",
    "reporting.render_s": "s",
    "scanner.campaign.week_p50_s": "s",
    "scanner.campaign.week_max_s": "s",
    "scanner.ipv4scan.scan_s": "s",
    "scanner.ipv4scan.retransmissions": "count",
    "scanner.ipv4scan.responder_yield": "ratio",
    "netsim.network.send_probe_calls": "count",
    "inetmodel.churn.step_s": "s",
    "checkpoint.run.commit_s": "s",
    "checkpoint.run.commits": "count",
    "checkpoint.journal.bytes": "B",
    "checkpoint.feed.records": "count",
    "observatory.ingest.ingest_s": "s",
    "observatory.store.save_s": "s",
    "observatory.store.disk_bytes": "B",
    "observatory.query.lookup_p50_ms": "ms",
    "observatory.query.lookup_p99_ms": "ms",
    "observatory.query.timeline_p50_ms": "ms",
    "observatory.query.timeline_p99_ms": "ms",
    "observatory.query.country_rankings_p50_ms": "ms",
    "observatory.query.country_rankings_p99_ms": "ms",
    "observatory.query.survival_p50_ms": "ms",
    "observatory.query.survival_p99_ms": "ms",
    "observatory.store.week_hit_share": "ratio",
    "observatory.service.handler_s": "s",
    "observatory.service.response_bytes": "B",
    "http.client_gap_ms": "ms",
    "http.rps": "1/s",
    "http.p50_ms": "ms",
    "http.tail_ms": "ms",
    "http.tail_pct": "%",
    "http.samples": "count",
    "trace.coverage_share": "ratio",
    "trace.overhead_s": "s",
    "trace.wrapper_cost_s": "s",
}


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count):
    """The highest of p99.9/p99/p95/p90/p50 with >= 10 samples beyond."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _union_length(intervals):
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def coverage(spans, parent_name):
    """Share of the ``parent_name`` spans' wall covered by their direct
    child spans — the unmeasured gap between layers shows as < 1."""
    parents = {span[0]: span for span in spans if span[1] == parent_name}
    if not parents:
        return 0.0
    children = {}
    for span in spans:
        if span[4] in parents:
            children.setdefault(span[4], []).append((span[2], span[3]))
    covered = sum(_union_length(children.get(span_id, ()))
                  for span_id in parents)
    wall = sum(span[3] - span[2] for span in parents.values())
    return _ratio(covered, wall)


def _noop():
    return None


def per_call_cost(mode):
    """Seconds one call through a ``mode`` wrapper adds over the bare
    call: the least over five timings of 20,000 calls to a wrapped no-op."""
    calls = 20000
    wrapped = _wrap(_noop, Hook("", "calibration", mode=mode),
                    Tracer("calibration"))
    best = None
    for __ in range(5):
        started = time.perf_counter()
        for __ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for __ in range(calls):
            _noop()
        cost = ((middle - started) - (time.perf_counter() - middle)) / calls
        best = cost if best is None else min(best, cost)
    return max(best, 0.0)


def wrapper_cost(tracer):
    """The wrappers' own cost in a traced run: spans recorded and calls
    counted, each times its calibrated per-call cost.  Steadier than
    traced minus plain wall, which one pair of repetitions measures only
    to within the box's run-to-run noise."""
    counted = sum(tracer.counts[hook.name] for hook in HOOKS
                  if hook.mode == "count")
    return (len(tracer.finished()) * per_call_cost("span")
            + counted * per_call_cost("count"))


def layer_metrics(tracer, coverage_parent, facts):
    """Every ``PER_LAYER`` metric from one traced run (0 where the
    workload does not reach the layer).  ``facts`` carries what the
    workload measured itself: file sizes, client-side HTTP latencies."""
    spans = tracer.finished()
    counts = tracer.counts
    durations = {}
    for span in spans:
        durations.setdefault(span[1], []).append(span[3] - span[2])

    def total(name):
        return sum(durations.get(name, ()))

    def pct_ms(name, pct):
        return percentile(durations.get(name, []), pct) * 1000.0

    child_time = Counter()
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    ingest_self = sum(span[3] - span[2] - child_time[span[0]]
                      for span in spans if span[1] == "observatory.ingest")

    handlers = durations.get("observatory.service.handler", [])
    latencies = facts.get("http_latencies", [])
    gaps = [latency - handler
            for latency, handler in zip(latencies, handlers)]
    tail = tail_percentile(len(latencies))
    weeks = durations.get("scanner.campaign.week", [])
    metrics = {
        "scenario.build_s": total("scenario.build"),
        "scanner.campaign.run_s": total("scanner.campaign.run"),
        "scanner.ipv4scan.probes_sent": counts["ipv4.probes_sent"],
        "scanner.chaos.scan_s": total("scanner.chaos.scan"),
        "scanner.banner.grab_all_s": total("scanner.banner.grab_all"),
        "scanner.fingerprints.classify_all_s":
            total("scanner.fingerprints.classify_all"),
        "scanner.snooping.run_s": total("scanner.snooping.run"),
        "scanner.domainengine.scan_s": total("scanner.domainengine.scan"),
        "scanner.domainscan.queries_sent":
            counts["domainscan.queries_sent"],
        "dnswire.message.to_wire_calls": counts["message.to_wire"],
        "dnswire.message.from_wire_calls": counts["message.from_wire"],
        "core.prefilter.process_s": total("core.prefilter.process"),
        "core.prefilter.unknown_share": _ratio(
            counts["prefilter.unknown"], counts["prefilter.observations"]),
        "core.pipeline.ground_truth_s": total("core.pipeline.ground_truth"),
        "core.acquisition.acquire_s": total("core.acquisition.acquire"),
        "core.acquisition.fetched_share": _ratio(
            counts["acquisition.fetched"], counts["acquisition.attempted"]),
        "core.clustering.cluster_s": total("core.clustering.cluster"),
        "core.distance.edit_distance_calls":
            len(durations.get("core.distance.edit_distance", ())),
        "core.distance.edit_distance_s":
            total("core.distance.edit_distance"),
        "core.labeling.label_clusters_s":
            total("core.labeling.label_clusters"),
        "core.diffcluster.build_s": total("core.diffcluster.build"),
        "core.diffcluster.cluster_s": total("core.diffcluster.cluster"),
        "core.diffcluster.combined_multiset_calls":
            counts["diffcluster.combined_multiset"],
        "analysis.s": total("analysis"),
        "reporting.render_s": total("reporting.render"),
        "scanner.campaign.week_p50_s": percentile(weeks, 50),
        "scanner.campaign.week_max_s": max(weeks, default=0.0),
        "scanner.ipv4scan.scan_s": total("scanner.ipv4scan.scan"),
        "scanner.ipv4scan.retransmissions": counts["ipv4.retransmissions"],
        "scanner.ipv4scan.responder_yield": _ratio(
            counts["ipv4.noerror"], counts["ipv4.probes_sent"]),
        "netsim.network.send_probe_calls": counts["network.send_probe"],
        "inetmodel.churn.step_s": total("inetmodel.churn.step"),
        "checkpoint.run.commit_s": total("checkpoint.run.commit"),
        "checkpoint.run.commits":
            len(durations.get("checkpoint.run.commit", ())),
        "checkpoint.journal.bytes": facts.get("journal_bytes", 0),
        "checkpoint.feed.records": counts["feed.records"],
        "observatory.ingest.ingest_s": ingest_self,
        "observatory.store.save_s": total("observatory.store.save"),
        "observatory.store.disk_bytes": facts.get("store_disk_bytes", 0),
        "observatory.store.week_hit_share": _ratio(
            counts["store.week_hits"], counts["store.week_calls"]),
        "observatory.service.handler_s": sum(handlers),
        "observatory.service.response_bytes":
            facts.get("response_bytes", 0),
        "http.client_gap_ms": percentile(gaps, 50) * 1000.0,
        "http.rps": _ratio(len(latencies), sum(latencies)),
        "http.p50_ms": percentile(latencies, 50) * 1000.0,
        "http.tail_ms": percentile(latencies, tail) * 1000.0,
        "http.tail_pct": tail,
        "http.samples": len(latencies),
        "trace.coverage_share": coverage(spans, coverage_parent),
        "trace.overhead_s": 0.0,     # filled in by the parent process
        "trace.wrapper_cost_s": wrapper_cost(tracer),
    }
    for query in ("lookup", "timeline", "country_rankings", "survival"):
        name = "observatory.query." + query
        metrics[name + "_p50_ms"] = pct_ms(name, 50)
        metrics[name + "_p99_ms"] = pct_ms(name, 99)
    return metrics
