"""Equivalence of the scan loop's attempt schedule with the per-target
retry loop it replaced.

``robust_scan_oracle`` below is that loop, kept verbatim as a reference:
it steps the LFSR one state at a time, filters each index with a
per-address membership check, hand-joins every payload, and retries
each unanswered target with latency-floored exponential backoff.
``Ipv4Scanner.scan`` must reproduce it byte for byte — the pickled
result, the datagram and retransmission counts, the network's traffic
and fault counters, the perf registry and the heartbeat count — under
retries, timeouts, injected faults, adaptive pacing against defenses,
shards and streamed results.
"""

import bisect
import pickle

import pytest

from repro.dnswire.name import encode_name
from repro.faults import FaultPlan, parse_fault_spec
from repro.netsim.address import int_to_ip, is_reserved
from repro.netsim.defense import install_hostile_population
from repro.perf import PerfRegistry
from repro.scanner import Ipv4Scanner, ScanTargetSpace
from repro.scanner.engine import _absorb_result_chunks
from repro.scanner.ipv4scan import (LFSR, ScanResult, TargetFilter,
                                    _mix64, merge_scan_results,
                                    retry_schedule)
from repro.scenario import MEASUREMENT_DOMAIN, ScenarioConfig, build_scenario

SCALE = 100000
SEED = 3

_QUERY_HEADER_TAIL = b"\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00"
_QUESTION_TAIL = b"\x00\x01\x00\x01"  # QTYPE=A, QCLASS=IN
_LABEL_LEN = tuple(bytes((n,)) for n in range(64))
TIMEOUT_MARGIN = 1.25


def _allows_slot(target_filter, slot, value):
    """Per-address reserved/blacklist membership, given the prefix slot."""
    if target_filter.clean[slot]:
        return value not in target_filter.blacklist_addresses
    if is_reserved(value):
        return False
    if target_filter.blacklist is not None and \
            value in target_filter.blacklist:
        return False
    return True


def robust_scan_oracle(scanner, target_space, index_range=None,
                       on_progress=None, chunk_sink=None,
                       chunk_rows=65536):
    """The retry/backoff scan as a standalone per-target loop."""
    result = ScanResult(scanner.network.clock.now)
    total = len(target_space)
    if total == 0:
        return result
    start, stop = index_range if index_range is not None else (0, total)
    epoch = scanner._scan_epoch()
    order = LFSR.order_for(total)
    lfsr = LFSR(order, seed=(scanner.lfsr_seed % ((1 << order) - 1)) or 1)
    target_filter = TargetFilter(target_space, scanner.blacklist)
    cumulative = target_space._cumulative
    prefixes = target_space.prefixes
    bisect_right = bisect.bisect_right
    all_clean = (all(target_filter.clean)
                 and not target_filter.blacklist_addresses)
    template_tail = encode_name(scanner.measurement_domain) + _QUESTION_TAIL
    seed_epoch = scanner._identity ^ (epoch << 32)
    attempts = scanner.retries + 1
    base_schedule = retry_schedule(scanner.probe_timeout, scanner.retries,
                                   scanner.backoff)
    # Floor-anchored escape (mirrors retry_schedule): when a
    # target's rtt floor dominates even the last backed-off base
    # timeout, re-anchor the exponent at the floor so the schedule
    # never silently flattens.
    last_base = base_schedule[-1]
    backoff_steps = [scanner.backoff ** attempt
                     for attempt in range(attempts)]
    flat_escapes = 0
    latency_between = scanner.network.latency_between
    margin = TIMEOUT_MARGIN
    network = scanner.network
    pacing = scanner._pacing_plan(target_space, target_filter)
    base_bucket = int(scanner.max_pps) if scanner.max_pps is not None \
        else None
    paced = pacing is not None or base_bucket is not None
    paced_causes = pacing.suppressed if pacing is not None else None
    paced_rates = pacing.rates.get if pacing is not None else None
    window_mask = pacing.window_mask if pacing is not None else 0
    recorder = getattr(network, "recorder", None)
    record_suppressed = result.record_suppressed
    suppressed = 0
    taps = lfsr.taps
    state = first = lfsr.state
    probes_sent = 0
    targets_probed = 0
    retransmissions = 0
    late_responses = 0
    responses_seen = 0
    rtts = [] if scanner.perf is not None else None
    if paced:
        network.scan_rate_bucket = base_bucket
    try:
        while True:
            index = state - 1
            if index < total and start <= index < stop:
                slot = bisect_right(cumulative, index) - 1
                value = prefixes[slot].base + (index - cumulative[slot])
                allowed_here = all_clean or _allows_slot(target_filter,
                                                         slot, value)
                cause = (paced_causes.get(value)
                         if allowed_here and paced_causes is not None
                         else None)
                if cause is not None:
                    suppressed += 1
                    record_suppressed(value & window_mask, cause)
                    if recorder is not None:
                        recorder.record(network.clock.now,
                                        "suppressed", scanner.source_ip,
                                        value, cause)
                elif allowed_here:
                    targets_probed += 1
                    if on_progress is not None and \
                            not targets_probed & 1023:
                        on_progress()
                    if paced_rates is not None:
                        network.scan_rate_bucket = paced_rates(
                            value, base_bucket)
                    key = _mix64(seed_epoch ^ value)
                    txid = key & 0xFFFF
                    prefix_label = b"r%x" % ((key >> 16) & 0xFFFFFF)
                    payload = b"".join((
                        txid.to_bytes(2, "big"), _QUERY_HEADER_TAIL,
                        _LABEL_LEN[len(prefix_label)], prefix_label,
                        b"\x08", b"%08x" % value, template_tail))
                    target_ip = int_to_ip(value)
                    # Adaptive floor: never time a target out faster
                    # than its own deterministic round trip.
                    rtt_floor = None
                    floor_anchored = False
                    for attempt in range(attempts):
                        timeout = base_schedule[attempt]
                        if timeout is not None:
                            if rtt_floor is None:
                                rtt_floor = 2 * latency_between(
                                    scanner.source_ip, target_ip) * margin
                                floor_anchored = (
                                    attempts > 1
                                    and last_base <= rtt_floor)
                                if floor_anchored:
                                    flat_escapes += 1
                            if floor_anchored:
                                timeout = rtt_floor * \
                                    backoff_steps[attempt]
                            elif timeout < rtt_floor:
                                timeout = rtt_floor
                        probes_sent += 1
                        if attempt:
                            retransmissions += 1
                        answered = False
                        for response in network.send_probe(
                                scanner.source_ip, scanner.source_port,
                                target_ip, 53, value, payload):
                            raw = response.packet.payload
                            if len(raw) < 12 or not raw[2] & 0x80:
                                continue
                            if (raw[0] << 8) | raw[1] != txid:
                                continue
                            if timeout is not None and \
                                    response.latency > timeout:
                                late_responses += 1
                                continue
                            answered = True
                            responses_seen += 1
                            if rtts is not None:
                                rtts.append(response.latency)
                            result.record(target_ip, raw[3] & 0x0F,
                                          response.packet.src_ip)
                        if answered:
                            break
                    if chunk_sink is not None and \
                            result.row_count() >= chunk_rows:
                        chunk_sink(result.take_chunk())
            lsb = state & 1
            state >>= 1
            if lsb:
                state ^= taps
            if state == first:
                break
    finally:
        if paced:
            network.scan_rate_bucket = None
    result.probes_sent = probes_sent
    result.retransmissions = retransmissions
    if scanner.perf is not None:
        scanner.perf.count("probes_sent", probes_sent)
        scanner.perf.count("responses_seen", responses_seen)
        scanner.perf.count("parse_calls_avoided", responses_seen)
        scanner.perf.count("probe_retransmissions", retransmissions)
        if late_responses:
            scanner.perf.count("probe_responses_late", late_responses)
        if suppressed:
            scanner.perf.count("pacing_suppressed_targets", suppressed)
        if flat_escapes:
            scanner.perf.count("rtt_floor_flat_schedules", flat_escapes)
        scanner.perf.observe_many("probe_rtt_seconds", rtts)
    scanner._record_pacing_perf(pacing, index_range, total)
    return result


def build_world(faults=None, hostile=False):
    """A fresh scenario: equivalence runs each need their own world,
    since resolver caches and defense state carry across scans."""
    scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
    if faults is not None:
        scenario.network.install_faults(
            FaultPlan(parse_fault_spec(faults), seed=SEED))
    if hostile:
        install_hostile_population(scenario.network,
                                   scenario.target_space().prefixes,
                                   seed=SEED)
    return scenario


def run(scan, faults=None, hostile=False, shards=1, chunk_rows=None,
        overrides=None, prefix_step=2, **scanner_kwargs):
    """One scan of a fresh world through ``scan(scanner, space,
    index_range, on_progress, chunk_sink, chunk_rows)``; returns every
    observable the equivalence compares.

    The space is every ``prefix_step``-th prefix of the scenario's
    target space: by default half the probes, with the same mix of
    resolvers, reserved ranges and defended prefixes.  ``overrides`` sets scanner attributes after
    construction, past its argument checks."""
    scenario = build_world(faults=faults, hostile=hostile)
    perf = PerfRegistry()
    scanner = Ipv4Scanner(scenario.network, scenario.scanner_ip,
                          MEASUREMENT_DOMAIN, blacklist=scenario.blacklist,
                          perf=perf, **scanner_kwargs)
    for name, value in (overrides or {}).items():
        setattr(scanner, name, value)
    space = ScanTargetSpace(
        scenario.target_space().prefixes[::prefix_step])
    beats = []
    chunks = []
    parts = []
    for index_range in space.shard_ranges(shards):
        part = scan(scanner, space, index_range=index_range,
                    on_progress=lambda: beats.append(1),
                    chunk_sink=chunks.append if chunk_rows else None,
                    chunk_rows=chunk_rows or 65536)
        parts.append(part)
    result = _absorb_result_chunks(
        merge_scan_results(parts[0].timestamp, parts), chunks)
    network = scenario.network
    return {
        "pickle": pickle.dumps(result),
        "probes_sent": result.probes_sent,
        "retransmissions": result.retransmissions,
        "responders": len(result.responders),
        "udp_queries_sent": network.udp_queries_sent,
        "udp_queries_lost": network.udp_queries_lost,
        "fault_counters": dict(network.fault_counters),
        "perf": perf.snapshot(),
        "heartbeats": len(beats),
        "chunks": bool(chunks),
    }


def scan_loop(scanner, space, **kwargs):
    return scanner.scan(space, **kwargs)


def assert_equivalent(reference_counters=None, **config):
    """``Ipv4Scanner.scan`` against the oracle on two identical worlds.

    ``reference_counters`` adjusts the oracle's perf counters for
    configurations the oracle loop never served: retries 0 without a
    timeout (a single-probe scan records no retransmission counter)."""
    got = run(scan_loop, **config)
    want = run(robust_scan_oracle, **config)
    if reference_counters is not None:
        reference_counters(want["perf"]["counters"])
    assert got["responders"] > 0
    assert got["heartbeats"] > 0
    assert got == want
    return got


CASES = [
    pytest.param(faults, retries, timeout,
                 id="%s-r%d-%s" % (faults, retries, timeout))
    for faults in ("mild", "aggressive")
    for retries in (0, 1, 2)
    for timeout in (None, 0.01)
]


class TestRobustOracle:
    @pytest.mark.parametrize("faults,retries,timeout", CASES)
    def test_faulted_scans_match_oracle(self, faults, retries, timeout):
        def single_probe(counters):
            if not retries and timeout is None:
                del counters["probe_retransmissions"]

        got = assert_equivalent(reference_counters=single_probe,
                                faults=faults, retries=retries,
                                probe_timeout=timeout)
        assert got["fault_counters"]
        if retries:
            assert got["retransmissions"] > 0

    def test_late_responses_match(self):
        # Genuine answers arrive at twice the one-way latency, inside
        # the 2.5x rtt floor, so only a shrinking schedule makes them
        # late: a factor below 1 (which the constructor rejects) on a
        # floor-anchored schedule times retries out before the answer.
        got = assert_equivalent(faults="mild", retries=2,
                                probe_timeout=0.05,
                                overrides={"backoff": 0.5})
        counters = got["perf"]["counters"]
        assert counters["probe_responses_late"] > 0
        assert counters["rtt_floor_flat_schedules"] > 0

    @pytest.mark.parametrize("retries,timeout", [(1, None), (2, 0.01)])
    def test_hostile_population_adaptive_pacing(self, retries, timeout):
        got = assert_equivalent(hostile=True, pacing="adaptive",
                                retries=retries, probe_timeout=timeout)
        assert got["perf"]["counters"]["pacing_suppressed_targets"] > 0

    def test_shards_merge_to_oracle(self):
        assert_equivalent(faults="mild", shards=3, retries=1,
                          probe_timeout=0.01)

    def test_streamed_chunks_match_oracle(self):
        # The whole space: enough responders to fill 257-row chunks.
        got = assert_equivalent(faults="mild", prefix_step=1,
                                chunk_rows=257, retries=2,
                                probe_timeout=0.01)
        assert got["chunks"]


class TestTimeoutOnlyBulkSweep:
    """A probe timeout alone no longer vetoes bulk settlement: with one
    attempt per target a cold probe still sends exactly one datagram.
    Everything the oracle observes is unchanged; the sweep additionally
    reports the probes it settled in bulk."""

    @pytest.mark.parametrize("hostile", [False, True])
    def test_matches_oracle_plus_bulk_counter(self, hostile):
        config = {"retries": 0, "probe_timeout": 0.01}
        if hostile:
            config.update(hostile=True, pacing="adaptive")
        got = run(scan_loop, **config)
        want = run(robust_scan_oracle, **config)
        bulk_settled = got["perf"]["counters"].pop("probes_bulk_settled")
        assert 0 < bulk_settled < got["probes_sent"]
        # Bulk sweeps beat per settled batch, not per target probed.
        assert got.pop("heartbeats") > 0
        want.pop("heartbeats")
        assert got == want
