"""Tests for the sharded domain-scan engine.

The keystone assertion: the sharded domain scan's concatenated
observation list is *bit-identical* to the sequential
``DomainScanner.scan`` — every field of every observation, in the same
order — for the shard counts named in the acceptance criteria, on a
full scenario with middleboxes and injected loss.
"""

import pytest

from repro.datasets import DOMAIN_SETS
from repro.faults import FaultPlan, FaultProfile
from repro.netsim import SimClock
from repro.perf import PerfRegistry
from repro.scanner import DomainScanEngine, DomainScanner
from repro.scanner.domainscan import DnsObservation
from repro.scenario import ScenarioConfig, build_scenario

SHARD_COUNTS = (1, 2, 4, 7)


def fingerprint(observations):
    """Every field of every observation, order-preserving."""
    return [(o.domain, o.resolver_ip, o.rcode, tuple(o.addresses),
             o.source_ip, o.ns_record_count,
             tuple((r, tuple(a)) for r, a in o.all_responses),
             o.injected_suspect)
            for o in observations]


class FakeNetwork:
    def __init__(self):
        self.clock = SimClock()
        self.udp_queries_sent = 0
        self.udp_queries_lost = 0
        self.udp_responses_corrupted = 0
        self.faults = None
        self.fault_counters = {}

    def install_faults(self, plan):
        self.faults = plan
        return plan


class FakeDomainScanner:
    """Deterministic double: answers for every even resolver index.

    Like the real scanner it can flush observation chunks mid-scan (at
    resolver boundaries), so the engine's streamed path is reachable.
    """

    supports_progress = True
    supports_chunks = True

    def __init__(self):
        self.network = FakeNetwork()
        self.perf = None
        self.queries_sent = 0
        self.scan_calls = []          # (start, stop) of every scan issued

    def scan(self, resolver_ips, domains, index_range=None,
             on_progress=None, chunk_sink=None, chunk_rows=65536):
        resolver_ips = list(resolver_ips)
        start, stop = (index_range if index_range is not None
                       else (0, len(resolver_ips)))
        self.scan_calls.append((start, stop))
        observations = []
        for resolver_id in range(start, stop):
            for domain in domains:
                self.queries_sent += 1
                self.network.udp_queries_sent += 1
                if resolver_id % 2 == 0:
                    observations.append(DnsObservation(
                        domain, resolver_ips[resolver_id], 0,
                        ["198.18.0.%d" % resolver_id]))
            if on_progress is not None:
                on_progress()
            if chunk_sink is not None and len(observations) >= chunk_rows:
                chunk_sink(observations)
                observations = []
        return observations


RESOLVERS = ["10.0.0.%d" % i for i in range(10)]
DOMAINS = ["a.example", "b.example"]


class TestShardRanges:
    def test_partitions_every_index_once(self):
        for shards in (1, 2, 3, 7, 16):
            engine = DomainScanEngine(FakeDomainScanner(), shards=shards)
            covered = []
            for start, stop in engine.shard_ranges(10):
                assert start < stop
                covered.extend(range(start, stop))
            assert covered == list(range(10))

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            DomainScanEngine(FakeDomainScanner(), shards=0)


class TestForkPlumbing:
    def test_sharded_identical_to_sequential(self):
        sequential = FakeDomainScanner().scan(RESOLVERS, DOMAINS)
        for shards in SHARD_COUNTS:
            engine = DomainScanEngine(FakeDomainScanner(), shards=shards)
            assert fingerprint(engine.scan(RESOLVERS, DOMAINS)) \
                == fingerprint(sequential), shards

    def test_single_shard_runs_in_process(self):
        scanner = FakeDomainScanner()
        engine = DomainScanEngine(scanner, shards=1)
        engine.scan(RESOLVERS, DOMAINS)
        assert scanner.scan_calls == [(0, len(RESOLVERS))]
        assert engine.provenance == []

    def test_queries_sent_reconciled_from_workers(self):
        scanner = FakeDomainScanner()
        engine = DomainScanEngine(scanner, shards=4)
        engine.scan(RESOLVERS, DOMAINS)
        # Worker-side increments die with the fork; the parent counter
        # must still account for every query of every shard.
        assert scanner.queries_sent == len(RESOLVERS) * len(DOMAINS)
        # All work happened in forked workers, not the parent loop.
        assert scanner.scan_calls == []

    def test_provenance_covers_all_shards(self):
        engine = DomainScanEngine(FakeDomainScanner(), shards=3)
        engine.scan(RESOLVERS, DOMAINS)
        assert [e["status"] for e in engine.provenance] == ["ok"] * 3
        assert [(e["start"], e["stop"]) for e in engine.provenance] \
            == engine.shard_ranges(len(RESOLVERS))

    def test_heartbeats_seen(self):
        perf = PerfRegistry()
        engine = DomainScanEngine(FakeDomainScanner(), shards=2,
                                  perf=perf, heartbeat_timeout=30.0)
        engine.scan(RESOLVERS, DOMAINS)
        # One heartbeat per resolver, minus the final one per worker
        # when it coalesces with the result frame in a single read.
        assert perf.counter("heartbeats_seen") > 0

    def test_perf_counters_ride_back(self):
        perf = PerfRegistry()
        engine = DomainScanEngine(FakeDomainScanner(), shards=2,
                                  perf=perf)
        engine.scan(RESOLVERS, DOMAINS)
        assert perf.counter("domain_scans_run") == 1
        assert perf.seconds("domain_scan_wall") > 0
        assert perf.seconds("shard_wall") > 0


class TestDeathRecovery:
    def test_killed_worker_retried(self):
        scanner = FakeDomainScanner()
        scanner.network.install_faults(
            FaultPlan(FaultProfile(kill_shards={1: 1}), seed=1))
        sequential = FakeDomainScanner().scan(RESOLVERS, DOMAINS)
        perf = PerfRegistry()
        engine = DomainScanEngine(scanner, shards=3, perf=perf)
        observations = engine.scan(RESOLVERS, DOMAINS)
        assert fingerprint(observations) == fingerprint(sequential)
        assert perf.counter("worker_deaths") == 1
        assert perf.counter("shard_retries") == 1
        statuses = sorted(e["status"] for e in engine.provenance)
        assert statuses == ["ok", "ok", "retried"]
        # The retry ran in a fresh worker, not in the parent process.
        assert scanner.scan_calls == []

    def test_repeated_deaths_rescued_in_process(self):
        scanner = FakeDomainScanner()
        scanner.network.install_faults(
            FaultPlan(FaultProfile(kill_shards={0: 99}), seed=1))
        sequential = FakeDomainScanner().scan(RESOLVERS, DOMAINS)
        perf = PerfRegistry()
        engine = DomainScanEngine(scanner, shards=2, perf=perf)
        observations = engine.scan(RESOLVERS, DOMAINS)
        assert fingerprint(observations) == fingerprint(sequential)
        assert perf.counter("shard_failures") == 1
        rescued = [e for e in engine.provenance
                   if e["status"] == "rescued"]
        assert rescued and all(e["mode"] == "in-process" for e in rescued)
        # Rescues stayed narrow: only the split halves of shard 0 ran in
        # the parent, never the full resolver list.
        full = (0, len(RESOLVERS))
        assert scanner.scan_calls and full not in scanner.scan_calls


# kill_shards plan -> sorted provenance statuses of a 3-shard scan of
# RESOLVERS (shard 1 is the 3-resolver range (4, 7), shard 0 is (0, 4)).
KILL_PLANS = [
    ({}, ["ok", "ok", "ok"]),
    ({1: 1}, ["ok", "ok", "retried"]),
    ({1: 2}, ["ok", "ok", "split", "split"]),
    ({0: 99}, ["ok", "ok", "rescued", "rescued"]),
]


class RecordingScope:
    """A dict-backed checkpoint scope: commits are kept in memory and
    restored verbatim; no crash points fire."""

    def __init__(self, committed=None):
        self.committed = dict(committed or {})

    def restore(self, key):
        payload = self.committed.get(tuple(key))
        return None if payload is None else {"payload": payload}

    def commit(self, key, payload, state=None):
        self.committed[tuple(key)] = payload

    def maybe_crash(self, kind, key):
        pass


class TestDeliveryMatrix:
    """Every way a sharded domain scan can hand back observations —
    resident list or ``consume`` batches, resident or streamed shard
    frames, clean or recovered workers — yields the sequential scan."""

    @pytest.mark.parametrize("use_consume", [False, True],
                             ids=["resident", "consume"])
    @pytest.mark.parametrize("stream_results", [False, True],
                             ids=["frames", "streamed"])
    @pytest.mark.parametrize("kill_shards,statuses", KILL_PLANS,
                             ids=["clean", "retry", "split", "rescue"])
    def test_matches_sequential(self, kill_shards, statuses,
                                stream_results, use_consume):
        sequential_scanner = FakeDomainScanner()
        sequential = sequential_scanner.scan(RESOLVERS, DOMAINS)
        scanner = FakeDomainScanner()
        if kill_shards:
            scanner.network.install_faults(
                FaultPlan(FaultProfile(kill_shards=kill_shards), seed=1))
        engine = DomainScanEngine(scanner, shards=3,
                                  stream_results=stream_results,
                                  chunk_rows=1)
        if use_consume:
            batches = []
            delivered = engine.scan(RESOLVERS, DOMAINS,
                                    consume=batches.extend)
            observations = batches
            assert delivered == len(sequential)
        else:
            observations = engine.scan(RESOLVERS, DOMAINS)
        assert fingerprint(observations) == fingerprint(sequential)
        assert scanner.queries_sent == sequential_scanner.queries_sent
        assert sorted(e["status"] for e in engine.provenance) == statuses

    def test_restored_shard_delivered_in_order(self):
        sequential_scanner = FakeDomainScanner()
        sequential = sequential_scanner.scan(RESOLVERS, DOMAINS)
        first = RecordingScope()
        DomainScanEngine(FakeDomainScanner(), shards=3).scan(
            RESOLVERS, DOMAINS, checkpoint=first)
        middle = ("shard", 1, 4, 7)
        assert middle in first.committed
        # Resume with only the middle shard committed: it is restored,
        # the outer two rerun in workers, and the consumer still sees
        # every observation once, in resolver order.
        resumed = RecordingScope({middle: first.committed[middle]})
        scanner = FakeDomainScanner()
        engine = DomainScanEngine(scanner, shards=3)
        batches = []
        delivered = engine.scan(RESOLVERS, DOMAINS, checkpoint=resumed,
                                consume=batches.append)
        assert delivered == len(sequential)
        flat = [o for batch in batches for o in batch]
        assert fingerprint(flat) == fingerprint(sequential)
        assert [batch[0].resolver_ip for batch in batches] \
            == ["10.0.0.0", "10.0.0.4", "10.0.0.8"]
        # The restored shard's queries come from its payload; the live
        # shards' from their workers; none ran in the parent.
        assert scanner.queries_sent == sequential_scanner.queries_sent
        assert scanner.scan_calls == []
        assert set(resumed.committed) == set(first.committed)


@pytest.fixture(scope="module")
def scanned_world():
    """A small full scenario plus its sequential baseline scan."""
    scenario = build_scenario(ScenarioConfig(scale=120000, seed=5))
    resolvers = sorted(scenario.online_resolver_ips())[:24]
    domains = [d.name for d in DOMAIN_SETS["Banking"]] \
        + [d.name for d in DOMAIN_SETS["NX"]]
    scanner = DomainScanner(scenario.network,
                            scenario.pipeline_source_ip)
    # Flow-keyed fates are per clock epoch: each scan starts on a fresh
    # tick (the campaign normally advances the clock between scans).
    scenario.network.clock.advance(1)
    baseline = fingerprint(scanner.scan(resolvers, domains))
    # The scan must be replayable before shard comparisons mean
    # anything: warm caches from the first pass must not change answers.
    scenario.network.clock.advance(1)
    assert fingerprint(scanner.scan(resolvers, domains)) == baseline
    return scenario, resolvers, domains, baseline


class TestEngineOnScenario:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_scan_bit_identical(self, scanned_world, shards):
        scenario, resolvers, domains, baseline = scanned_world
        scanner = DomainScanner(scenario.network,
                                scenario.pipeline_source_ip)
        engine = DomainScanEngine(scanner, shards=shards)
        scenario.network.clock.advance(1)
        assert fingerprint(engine.scan(resolvers, domains)) == baseline

    def test_sharded_scan_under_loss(self, scanned_world):
        # Injected loss draws are flow-keyed, so even lossy scans must
        # replay identically across shard counts.
        scenario, resolvers, domains, __ = scanned_world
        scenario.network.install_faults(
            FaultPlan(FaultProfile(loss_rate=0.2), seed=9))
        try:
            scanner = DomainScanner(scenario.network,
                                    scenario.pipeline_source_ip)
            scenario.network.clock.advance(1)
            lossy_baseline = fingerprint(scanner.scan(resolvers, domains))
            engine = DomainScanEngine(scanner, shards=4)
            scenario.network.clock.advance(1)
            assert fingerprint(engine.scan(resolvers, domains)) \
                == lossy_baseline
        finally:
            scenario.network.install_faults(None)
