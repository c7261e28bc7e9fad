"""Sharded domain scanning: step 2 of Figure 3 across worker processes.

:class:`DomainScanEngine` is a :class:`repro.scanner.engine.ScanEngine`:
the constructor, fork check, chunk spill store, checkpointed shard
planning, worker supervision and in-order delivery are all the IPv4
engine's.  What stays here is domain-specific: the resolver-list
shard split, the per-range scan that hands back ``(observations,
queries)``, the reassembly of streamed observation chunks, and the
delivery of observations — into a list, or to a ``consume`` callback.

Each worker runs ``DomainScanner.scan`` over its index slice of the
*same* resolver list, so the resolver id encoded into every query
(txid + source port + 0x20 case pattern) is the global list index — a
shard worker emits byte-identical queries to the ones the sequential
scan would emit for those resolvers.

Determinism contract (verified by ``tests/scanner/test_domainengine.py``
and re-checked by ``benchmarks/perf/bench_pipeline.py``): the
concatenated observation list is **bit-identical** to a sequential
:meth:`DomainScanner.scan` of the same inputs for any shard count.
This holds for the same reasons as the IPv4 engine: query bytes are a
pure function of (resolver index, domain), packet fates are keyed per
flow + occurrence rather than drawn from a shared RNG, and one
resolver's queries — which share a flow 4-tuple — always run in domain
order inside a single worker because shards are contiguous resolver
ranges.  Shard observation lists are delivered in range-start order,
which is exactly sequential order.

As with the IPv4 engine, worker-side traffic/fault counter deltas are
reconciled into the parent by the supervisor, while worker-local
resolver-cache warm-ups are deliberately dropped (replays from the
identical pre-fork state produce identical answers).  The scanner's
``queries_sent`` follows one rule: every shard scan hands back its
query delta and leaves the counter where it found it, and delivery
adds the delta — for worker, rescued and restored shards alike.
"""

from repro.scanner.engine import ScanEngine
from repro.util import shard_ranges


def _absorb_observation_chunks(tail, chunks):
    """Reassemble a streamed ``(observations, queries)`` shard result.

    Chunks were flushed before the tail, in scan order, so prepending
    them (in emission order) to the tail list reproduces the sequential
    observation order exactly.
    """
    observations, queries = tail
    merged = []
    for chunk in chunks:
        merged.extend(chunk)
    merged.extend(observations)
    return merged, queries


class DomainScanEngine(ScanEngine):
    """Runs the per-resolver domain scan, optionally sharded.

    ``stream_results`` bounds worker memory the same way the IPv4
    engine does: workers flush observation chunks of ``chunk_rows``
    through the pipe, the parent spills them via a
    :class:`SnapshotStore`, and each shard's observations are folded
    back together on completion.  Independently, :meth:`scan` accepts a
    ``consume`` callback that delivers observations incrementally (in
    exact sequential order) instead of returning them as one list — the
    classification pipeline's streaming entry point.
    """

    def shard_ranges(self, total):
        """Split ``[0, total)`` resolver indexes into contiguous ranges
        (same balanced split as ``ScanTargetSpace.shard_ranges``)."""
        return shard_ranges(total, self.shards)

    def scan(self, resolver_ips, domains, checkpoint=None, consume=None):
        """Query every domain at every resolver; returns the flat
        observation list, identical to ``DomainScanner.scan``.

        ``checkpoint``, when given, is a :class:`repro.checkpoint`
        scope: completed resolver-range shards are committed as they
        merge and restored on resume instead of re-queried.

        ``consume``, when given, is called with successive observation
        batches — delivered in exact sequential (resolver-index) order
        as shards complete — and :meth:`scan` returns the *count* of
        observations delivered instead of a list, so the engine never
        accumulates the full observation set.
        """
        resolver_ips = list(resolver_ips)
        domains = list(domains)
        ranges = self.shard_ranges(len(resolver_ips))
        scanner = self.scanner
        self.provenance = []
        with self._measured("domain_", "domain_scan_engine",
                            resolvers=len(resolver_ips),
                            domains=len(domains), shards=len(ranges)):
            if len(ranges) <= 1 or not self.can_fork:
                observations = scanner.scan(resolver_ips, domains)
                if consume is None:
                    return observations
                if observations:
                    consume(observations)
                return len(observations)

            def scan_range(**kwargs):
                before = scanner.queries_sent
                observations = scanner.scan(resolver_ips, domains, **kwargs)
                queries = scanner.queries_sent - before
                scanner.queries_sent = before
                return observations, queries

            collected = []
            sink = consume or collected.extend
            delivered = 0

            def deliver(result):
                nonlocal delivered
                observations, queries = result
                scanner.queries_sent += queries
                if observations:
                    delivered += len(observations)
                    sink(observations)

            self._run_sharded(ranges, scan_range, _absorb_observation_chunks,
                              deliver, checkpoint)
        return collected if consume is None else delivered
