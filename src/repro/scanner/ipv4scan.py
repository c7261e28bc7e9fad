"""Internet-wide IPv4 DNS scanning (paper §2.2).

One scan sends a single DNS A query to every address in the target space
(minus blacklist and reserved ranges), in LFSR-permuted order, with the
target address hex-encoded in the query name.  The result records, per
rcode, the set of *target* addresses that answered — attributing responses
by the encoded name, so hosts answering from a different source address
(multi-homed / DNS proxies) are both counted correctly and detected.

Hot-path design (the "wire-level fast paths" of the sharded engine):

* the scan hot loop is *batched and columnar* (see DESIGN.md, "Columnar
  scan core"): targets come out of the LFSR permutation in fixed-size
  batches (:class:`repro.scanner.lfsr.TargetBatchIterator`), and each
  batch is triaged in bulk — targets that host no node and interest no
  middlebox (~97% of the space) are settled with C-level set/array
  operations against precomputed columns (addresses, filter mask, loss
  fates, hotness), while the rare "hot" target pays the full per-packet
  wire path, preserving exact per-probe semantics;
* responses are triaged with :func:`repro.dnswire.message.peek_header`
  — txid/qr/rcode read straight off the fixed 12-byte header, no
  :class:`~repro.dnswire.message.Message` construction;
* query payloads come from a preallocated buffer pool
  (:class:`repro.scanner.encoding.ProbeBatchEncoder`): per probe only
  the txid, cache-busting label, and hex target are written;
* reserved/blacklist membership is precomputed per target prefix, so
  prefixes that cannot intersect an excluded range skip the per-address
  checks entirely;
* probe identity (txid + cache-busting label) is a pure hash of
  (scanner, scan epoch, target address) rather than a sequential
  counter, so any index subset of the target space — a shard — sends
  byte-identical probes to what a sequential full scan would send;
* :class:`ScanResult` stores observations as parallel integer columns
  and exposes the historical set API as lazy views, so shard result
  frames and checkpoint snapshots ship raw buffers, not per-IP
  containers.
"""

import bisect
from array import array
from itertools import compress
from sys import intern

from repro.dnswire.constants import (
    RCODE_NOERROR,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
)
from repro.dnswire.message import peek_header
from repro.netsim.address import (
    RESERVED_NETWORKS,
    int_to_ip,
    ip_to_int,
    is_reserved,
)
from repro.scanner.encoding import ProbeBatchEncoder
from repro.scanner.lfsr import LFSR, TargetBatchIterator, permutation
from repro.scanner.pacing import (
    build_pacing_plan,
    defense_plane,
    normalize_pacing,
)
from repro.util import shard_ranges

_M64 = (1 << 64) - 1
# A timed attempt never waits less than this multiple of the target's
# deterministic round trip (the adaptive per-target timeout floor).
_TIMEOUT_MARGIN = 1.25


def _mix64(value):
    """splitmix64 finaliser (see :mod:`repro.netsim.network`)."""
    value &= _M64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _M64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _M64
    value ^= value >> 31
    return value


def _networks_intersect(left, right):
    """True when two CIDR prefixes share any address."""
    return ((left.base & right.mask) == right.base
            or (right.base & left.mask) == left.base)


class ScanTargetSpace:
    """Maps a dense index space onto a set of target prefixes.

    Substitution note: the paper permutes all 2^32 addresses; scanning the
    simulator's full IPv4 space would waste cycles on guaranteed-empty
    space, so the LFSR permutes the *allocated* universe instead — the
    same behaviour (bounded per-network probe rate) on the same
    populated prefixes.
    """

    def __init__(self, prefixes):
        self.prefixes = list(prefixes)
        self._cumulative = []
        total = 0
        for prefix in self.prefixes:
            self._cumulative.append(total)
            total += prefix.num_addresses
        self.total = total

    def int_at(self, index):
        """The 32-bit integer address ``index`` positions into the space."""
        if not 0 <= index < self.total:
            raise IndexError(index)
        slot = bisect.bisect_right(self._cumulative, index) - 1
        return self.prefixes[slot].base + (index - self._cumulative[slot])

    def ip_at(self, index):
        return int_to_ip(self.int_at(index))

    def index_of(self, value):
        """Index of the 32-bit address ``value``, or ``None`` if the
        space does not cover it."""
        for slot, prefix in enumerate(self.prefixes):
            if (value & prefix.mask) == prefix.base:
                return self._cumulative[slot] + (value - prefix.base)
        return None

    def shard_ranges(self, shards):
        """Split ``[0, len(self))`` into ``shards`` contiguous ranges.

        Every index lands in exactly one range; empty trailing ranges are
        dropped (a space smaller than the shard count yields fewer
        ranges).  Sharding by index keeps each worker's targets
        contiguous in address space while the shared LFSR walk still
        interleaves probe *order* pseudo-randomly within each shard.
        """
        return shard_ranges(self.total, shards)

    def __len__(self):
        return self.total


# ---------------------------------------------------------------------------
# Columnar sweep support: precomputed per-space columns, memoised at
# module level.  Every column is a pure function of its key (the
# space's prefix layout, plus the filter for the allow mask), so the
# memos survive scenario rebuilds — weekly campaign scans, bench
# repeats, and forked shard workers (which inherit warm caches through
# copy-on-write) all reuse them for free.
# ---------------------------------------------------------------------------

_COLUMN_CACHE = {}
_ALLOWED_CACHE = {}
# Sweep plans: the entire cold settlement of one batched sweep — per
# batch, its size, the states needing the full wire path, and the
# bulk-settled loss count — memoised on everything it is a pure
# function of (space layout, filter, walk parameters, the network's
# live-address signature, middlebox interest, and the loss-draw
# parameters).  Weekly re-scans recompute it only when churn actually
# moved a node; bench repeats and shard workers reuse it outright.
_SWEEP_PLAN_CACHE = {}
# Pacing plans (see repro.scanner.pacing): the full AIMD recurrence
# over every defended target, pure in (space, filter, walk, defense
# configuration, controller config, scanner identity, clock) — shard
# workers and weekly re-scans against an unchanged defense plane reuse
# it outright.
_PACING_PLAN_CACHE = {}
_CACHE_ENTRIES = 8


def _space_signature(target_space):
    """Value-identity of a target space: its exact prefix layout."""
    return tuple((prefix.base, prefix.mask)
                 for prefix in target_space.prefixes)


def _evict(cache):
    if len(cache) >= _CACHE_ENTRIES:
        cache.pop(next(iter(cache)))


def _address_columns(target_space):
    """``(addresses, state_addresses, is_sorted)`` for a space.

    ``addresses`` is the dense index-order address column (an
    ``array('I')``, built per prefix from C-level ``range`` extends —
    never via per-index ``int_at``).  ``state_addresses`` is the same
    column shifted one slot right, so an LFSR *state* (which maps to
    index ``state - 1``) subscripts it directly — batch loops never
    compute ``state - 1`` in Python.  ``is_sorted`` reports whether the
    column is globally ascending, which lets CIDR interest ranges be
    painted with two bisects instead of a per-address pass.
    """
    signature = _space_signature(target_space)
    cached = _COLUMN_CACHE.get(signature)
    if cached is not None:
        return cached
    addresses = array("I")
    for prefix in target_space.prefixes:
        addresses.extend(range(prefix.base,
                               prefix.base + prefix.num_addresses))
    state_addresses = array("I", (0,))
    state_addresses.extend(addresses)
    is_sorted = all(
        left.base + left.num_addresses <= right.base
        for left, right in zip(target_space.prefixes,
                               target_space.prefixes[1:]))
    columns = (addresses, state_addresses, is_sorted)
    _evict(_COLUMN_CACHE)
    _COLUMN_CACHE[signature] = columns
    return columns


def _allowed_column(target_space, target_filter):
    """Index-aligned allow mask: 1 where the filter admits the address.

    Clean prefixes (see :class:`TargetFilter`) are painted with one
    slice store, only the rare dirty prefix walks its addresses.
    """
    blacklist = target_filter.blacklist
    key = (_space_signature(target_space), target_filter.signature())
    cached = _ALLOWED_CACHE.get(key)
    if cached is not None:
        return cached
    allowed = bytearray(target_space.total)
    for slot, prefix in enumerate(target_space.prefixes):
        start = target_space._cumulative[slot]
        count = prefix.num_addresses
        if target_filter.clean[slot]:
            allowed[start:start + count] = b"\x01" * count
        else:
            base = prefix.base
            for offset in range(count):
                value = base + offset
                if is_reserved(value):
                    continue
                if blacklist is not None and value in blacklist:
                    continue
                allowed[start + offset] = 1
    for value in target_filter.blacklist_addresses:
        index = target_space.index_of(value)
        if index is not None:
            allowed[index] = 0
    _evict(_ALLOWED_CACHE)
    _ALLOWED_CACHE[key] = allowed
    return allowed


class ScanResult:
    """Outcome of one Internet-wide scan, stored columnar.

    Observations live in three parallel columns — ``_targets``
    (``array('I')``, 32-bit target address), ``_rcodes`` (``array('B')``)
    and ``_flags`` (``array('B')``, bit 0 = the reply's source address
    differed from the target) — one row per accepted response.  The
    historical set-based API (``responders``, ``by_rcode``,
    ``divergent_sources``, the rcode properties) is preserved as lazy
    views, built once on first access and cached until the next
    mutation, so ``analysis/``, ``reporting``, and the pipeline read
    exactly what they always read.  Merging concatenates columns
    (C-level ``array.extend``); pickling — shard result frames and
    checkpoint snapshots — ships the raw column buffers in canonical
    (target, rcode, flags) sort order, making serialized bytes
    independent of probe completion order and of set-hash iteration.

    ``retransmissions`` counts retry datagrams beyond the first probe of
    each target (zero on the default single-probe path).  ``provenance``
    is filled by the sharded engine: one entry per completed work item,
    recording which shards degraded (worker retried, split, or rescued
    in-process) on the way to this merged result.

    ``suppressed`` maps ``(window_base, defense cause)`` to the number
    of targets the adaptive pacing controller skipped there (graceful
    degradation under hostile defenses): coverage deliberately not
    attempted, recorded instead of silently lost.  It is a dedicated
    mergeable structure — not provenance entries — because the forked
    engine replaces result provenance wholesale with its own
    work-item log; :attr:`degraded_shards` surfaces both.

    ``carried`` is the delta-scanning analogue (see
    :mod:`repro.scanner.delta`): ``(window_base, delta cause)`` -> the
    number of verdicts copied forward from the prior week instead of
    probed, each such row also wearing :attr:`FLAG_CARRIED` in its
    flags column.  Same contract as ``suppressed``: mergeable,
    canonically sorted in pickles, omitted entirely when empty so
    full-sweep results keep their historical bytes.
    """

    FLAG_DIVERGENT = 1
    FLAG_CARRIED = 2

    def __init__(self, timestamp):
        self.timestamp = timestamp
        self.probes_sent = 0
        self.retransmissions = 0
        self.provenance = []
        self.suppressed = {}
        self.carried = {}
        self._targets = array("I")
        self._rcodes = array("B")
        self._flags = array("B")
        self._views = None

    # -- recording ---------------------------------------------------------

    def record(self, target_ip, rcode, source_ip):
        self.record_value(ip_to_int(target_ip), rcode,
                          source_ip != target_ip)

    def record_suppressed(self, window_base, cause, count=1):
        """Count targets skipped under ``cause`` in one /16-style window."""
        key = (window_base, cause)
        self.suppressed[key] = self.suppressed.get(key, 0) + count

    def record_value(self, value, rcode, divergent):
        """Columnar recording: the target as a 32-bit int, the response
        rcode, and whether the reply source diverged from the target."""
        self._targets.append(value)
        self._rcodes.append(rcode & 0x0F)
        self._flags.append(self.FLAG_DIVERGENT if divergent else 0)
        self._views = None

    def record_carried(self, value, rcode, flags, window_base, cause):
        """Copy one prior-week row forward without probing it.

        The row keeps its original rcode and divergence flag, gains
        :attr:`FLAG_CARRIED`, and is tallied under ``(window_base,
        cause)`` in :attr:`carried` — explicit provenance for every
        verdict this result asserts but did not measure."""
        self._targets.append(value)
        self._rcodes.append(rcode)
        self._flags.append(flags | self.FLAG_CARRIED)
        key = (window_base, cause)
        self.carried[key] = self.carried.get(key, 0) + 1
        self._views = None

    def merge(self, other):
        """Fold another (disjoint shard's) result into this one."""
        self.probes_sent += other.probes_sent
        self.retransmissions += other.retransmissions
        self.provenance.extend(other.provenance)
        for key, count in other.suppressed.items():
            self.suppressed[key] = self.suppressed.get(key, 0) + count
        for key, count in other.carried.items():
            self.carried[key] = self.carried.get(key, 0) + count
        self._targets.extend(other._targets)
        self._rcodes.extend(other._rcodes)
        self._flags.extend(other._flags)
        self._views = None
        return self

    # -- streaming chunks --------------------------------------------------
    #
    # A streaming scan never holds a whole shard's columns: it detaches
    # them as raw-buffer chunks (take_chunk) that the engine spills to
    # disk, and the final result carries only the scalar tail plus the
    # last partial columns.  Reassembly (absorb_chunk per spilled chunk,
    # in any order) is exact: __getstate__ canonically row-sorts, so the
    # reassembled result pickles byte-identically to a resident one.

    def row_count(self):
        """Rows currently resident in the columns."""
        return len(self._targets)

    def take_chunk(self):
        """Detach the resident columns as a raw-bytes chunk, leaving
        the scalar fields (and future rows) in place."""
        chunk = (self._targets.tobytes(), self._rcodes.tobytes(),
                 self._flags.tobytes())
        self._targets = array("I")
        self._rcodes = array("B")
        self._flags = array("B")
        self._views = None
        return chunk

    def absorb_chunk(self, chunk):
        """Append a chunk produced by :meth:`take_chunk`."""
        targets, rcodes, flags = chunk
        self._targets.frombytes(targets)
        self._rcodes.frombytes(rcodes)
        self._flags.frombytes(flags)
        self._views = None
        return self

    # -- set views ---------------------------------------------------------

    def _view(self, which):
        views = self._views
        if views is None:
            targets = self._targets
            ips = list(map(int_to_ip, targets))
            by_rcode = {}
            for ip, rcode in zip(ips, self._rcodes):
                bucket = by_rcode.get(rcode)
                if bucket is None:
                    bucket = by_rcode[rcode] = set()
                bucket.add(ip)
            divergent = set(compress(
                ips, (flag & self.FLAG_DIVERGENT for flag in self._flags)))
            views = self._views = (set(ips), by_rcode, divergent)
        return views[which]

    def iter_rows(self):
        """Yield raw ``(target_int, rcode, flags)`` rows — the feed a
        delta scan carries forward (see :mod:`repro.scanner.delta`)."""
        return zip(self._targets, self._rcodes, self._flags)

    def canonical_columns(self):
        """The observation columns as canonically sorted raw bytes.

        Returns ``(targets, rcodes, flags)`` byte strings in (target,
        rcode, flags) row-sort order — the same canonical form
        :meth:`__getstate__` ships — so two results holding the same
        observations in any internal order yield identical buffers.
        The observatory's ingest layer folds and digests week columns
        off this view without paying a full pickle round trip.
        """
        rows = sorted(zip(self._targets, self._rcodes, self._flags))
        return (array("I", (row[0] for row in rows)).tobytes(),
                array("B", (row[1] for row in rows)).tobytes(),
                array("B", (row[2] for row in rows)).tobytes())

    @property
    def responders(self):
        """All target IPs that answered (lazy set view)."""
        return self._view(0)

    @property
    def by_rcode(self):
        """rcode -> set of target IPs (lazy dict-of-sets view)."""
        return self._view(1)

    @property
    def divergent_sources(self):
        """Targets whose reply came from a different source address."""
        return self._view(2)

    @property
    def degraded_shards(self):
        """Provenance entries that did not complete on a first try,
        plus one synthesized ``status: "suppressed"`` entry per
        (window, cause) the pacing controller gave up on — every loss
        of coverage in one place."""
        degraded = [entry for entry in self.provenance
                    if entry.get("status") != "ok"]
        for (window, cause), count in sorted(self.suppressed.items()):
            degraded.append({"status": "suppressed",
                             "window": int_to_ip(window),
                             "cause": cause, "targets": count})
        return degraded

    @property
    def suppressed_targets(self):
        """Total targets skipped under defensive suppression."""
        return sum(self.suppressed.values())

    @property
    def carried_targets(self):
        """Total verdicts carried forward from a prior scan unprobed."""
        return sum(self.carried.values())

    @property
    def noerror(self):
        return self.by_rcode.get(RCODE_NOERROR, set())

    @property
    def refused(self):
        return self.by_rcode.get(RCODE_REFUSED, set())

    @property
    def servfail(self):
        return self.by_rcode.get(RCODE_SERVFAIL, set())

    def counts(self):
        """Summary dict used by the magnitude analysis (Figure 1).

        Computed straight off the integer columns (deduplicated in int
        sets) unless the string views already exist — at million-host
        scale the views cost ~50 bytes per responder in interned
        strings, the int sets a fraction of that, transiently.
        """
        if self._views is not None:
            return {
                "all": len(self.responders),
                "noerror": len(self.noerror),
                "refused": len(self.refused),
                "servfail": len(self.servfail),
            }
        responders = set()
        by_rcode = {}
        for value, rcode in zip(self._targets, self._rcodes):
            responders.add(value)
            bucket = by_rcode.get(rcode)
            if bucket is None:
                bucket = by_rcode[rcode] = set()
            bucket.add(value)
        return {
            "all": len(responders),
            "noerror": len(by_rcode.get(RCODE_NOERROR, ())),
            "refused": len(by_rcode.get(RCODE_REFUSED, ())),
            "servfail": len(by_rcode.get(RCODE_SERVFAIL, ())),
        }

    # -- serialization -----------------------------------------------------
    #
    # Shard workers pickle results back to the supervisor and the
    # checkpoint store pickles them into snapshots; both therefore ship
    # the raw column buffers (a few bytes per responder) instead of
    # per-IP string containers, and both get canonical bytes: rows are
    # emitted sorted, so any completion order serializes identically.

    def __getstate__(self):
        rows = sorted(zip(self._targets, self._rcodes, self._flags))
        targets = array("I", (row[0] for row in rows))
        rcodes = array("B", (row[1] for row in rows))
        flags = array("B", (row[2] for row in rows))

        # Pickle output must depend on *values* only, never on string
        # object identity: the pickler memoizes by id, so a provenance
        # string that happens to share an object with a later key (a
        # compile-time literal) serializes shorter than an equal-but-
        # distinct string from an unpickled checkpoint.  Interning every
        # string routes all equal values through one canonical object.
        def canonical(value):
            return intern(value) if type(value) is str else value

        state = {
            "timestamp": self.timestamp,
            "probes_sent": self.probes_sent,
            "retransmissions": self.retransmissions,
            "provenance": [{intern(key): canonical(value)
                            for key, value in entry.items()}
                           for entry in self.provenance],
            "targets": targets.tobytes(),
            "rcodes": rcodes.tobytes(),
            "flags": flags.tobytes(),
        }
        if self.suppressed:
            # Canonical (sorted) and omitted when empty, so pickles of
            # suppression-free results keep their historical bytes.
            state["suppressed"] = tuple(sorted(
                (window, intern(cause), count)
                for (window, cause), count in self.suppressed.items()))
        if self.carried:
            # Same byte-stability contract as suppressed.
            state["carried"] = tuple(sorted(
                (window, intern(cause), count)
                for (window, cause), count in self.carried.items()))
        return state

    def __setstate__(self, state):
        self.timestamp = state["timestamp"]
        self.probes_sent = state["probes_sent"]
        self.retransmissions = state["retransmissions"]
        self.provenance = state["provenance"]
        self.suppressed = {(window, cause): count for window, cause, count
                           in state.get("suppressed", ())}
        self.carried = {(window, cause): count for window, cause, count
                        in state.get("carried", ())}
        self._targets = array("I")
        self._targets.frombytes(state["targets"])
        self._rcodes = array("B")
        self._rcodes.frombytes(state["rcodes"])
        self._flags = array("B")
        self._flags.frombytes(state["flags"])
        self._views = None

    def __repr__(self):
        return "ScanResult(t=%.0f, %d responders)" % (
            self.timestamp, len(self.responders))


def retry_schedule(probe_timeout, retries, backoff=2.0, rtt_floor=0.0):
    """Effective per-attempt response timeouts for one target.

    Pure function: attempt ``k`` waits ``probe_timeout * backoff**k``
    (exponential backoff), floored at ``rtt_floor`` — the deterministic
    pairwise round-trip estimate, so a far target is never timed out
    faster than its own path latency.  ``None`` entries mean "wait
    indefinitely" (no timeout configured): responses are never discarded
    as late, and a retry happens only when nothing answered at all.

    When the floor dominates even the *last* backed-off attempt, a
    per-attempt ``max()`` would flatten the whole schedule to
    ``[rtt_floor] * n`` — silently defeating exponential backoff for
    far targets with small base timeouts.  That edge re-anchors the
    exponent at the floor instead, so attempt spacing keeps widening.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if probe_timeout is None:
        return [None] * (retries + 1)
    if retries and probe_timeout * backoff ** retries <= rtt_floor:
        return [rtt_floor * backoff ** attempt
                for attempt in range(retries + 1)]
    return [max(probe_timeout * backoff ** attempt, rtt_floor)
            for attempt in range(retries + 1)]


def merge_scan_results(timestamp, results):
    """Merge disjoint per-shard results into one :class:`ScanResult`.

    Set unions are order-insensitive and the shards partition the index
    space, so the merged result is identical to what one sequential scan
    over the whole space produces.
    """
    merged = ScanResult(timestamp)
    for result in results:
        merged.merge(result)
    return merged


class TargetFilter:
    """Precomputed reserved/blacklist membership for one target space.

    Prefixes that provably cannot intersect a reserved range or a
    blacklisted network are marked clean once, reducing the per-address
    check to (at most) one set lookup.
    """

    def __init__(self, target_space, blacklist=None):
        self.blacklist = blacklist
        blacklist_networks = list(blacklist.networks) if blacklist else []
        self.blacklist_addresses = (frozenset(blacklist.addresses)
                                    if blacklist else frozenset())
        excluded = list(RESERVED_NETWORKS) + blacklist_networks
        # One flag per prefix slot, aligned with ScanTargetSpace.prefixes.
        self.clean = [
            not any(_networks_intersect(prefix, other)
                    for other in excluded)
            for prefix in target_space.prefixes
        ]

    def signature(self):
        """Value-identity of the filter (the blacklist's exact content),
        used to key the allow-mask and sweep-plan memos."""
        if self.blacklist is None:
            return None
        return (tuple((net.base, net.mask)
                      for net in self.blacklist.networks),
                tuple(sorted(self.blacklist_addresses)))


class Ipv4Scanner:
    """Sends one DNS A probe per target address and aggregates responses.

    ``retries``/``probe_timeout``/``backoff`` configure each target's
    attempt schedule: up to ``retries`` retransmissions per unanswered
    target, each attempt's timeout growing by the factor ``backoff``
    (at least 1) from ``probe_timeout`` but never below the target's
    own deterministic round-trip estimate (adaptive per-target
    timeout).  The defaults (``retries=0``, ``probe_timeout=None``) send
    one probe per target.

    ``pacing``/``max_pps`` configure the arms-race side (see
    :mod:`repro.scanner.pacing`): ``pacing="adaptive"`` precomputes an
    AIMD pacing plan against the network's defense plane and declares a
    per-probe rate bucket while scanning; ``max_pps`` caps the declared
    rate (and, with pacing off, is declared as the scan's constant
    rate).  Both default off: scans against defense-free networks are
    bit-identical to before.
    """

    # The engine checks this before passing its heartbeat callback
    # (scanner doubles in tests may not accept ``on_progress``).
    supports_progress = True
    # ... and this before passing a streaming chunk sink (same reason).
    supports_chunks = True

    def __init__(self, network, source_ip, measurement_domain,
                 blacklist=None, source_port=31337, lfsr_seed=0xACE1,
                 perf=None, retries=0, probe_timeout=None, backoff=2.0,
                 probe_batch=4096, pacing=None, max_pps=None):
        self.network = network
        self.source_ip = source_ip
        self.measurement_domain = measurement_domain
        self.blacklist = blacklist
        self.source_port = source_port
        self.lfsr_seed = lfsr_seed
        self.perf = perf
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if probe_timeout is not None and not probe_timeout > 0:
            raise ValueError("probe_timeout must be > 0 (or None)")
        if not backoff >= 1:  # also catches NaN
            raise ValueError("backoff must be >= 1")
        if probe_batch < 1:
            raise ValueError("probe batch size must be >= 1")
        self.retries = retries
        self.probe_timeout = probe_timeout
        self.backoff = backoff
        self.probe_batch = probe_batch
        self.pacing = normalize_pacing(pacing, max_pps)
        self.max_pps = max_pps
        self._encoder = ProbeBatchEncoder(measurement_domain)
        # Scanner identity folded into probe ids: the verification
        # scanner (different source) must not reuse the primary
        # scanner's query names even when probing the same target at the
        # same simulated time.
        self._identity = _mix64(
            (ip_to_int(source_ip) << 17) ^ source_port ^ lfsr_seed)

    # -- probe construction ------------------------------------------------

    def _probe_key(self, epoch, target_int):
        """Deterministic 40-bit probe identity for one (scan, target).

        Independent of probe *order*, so shard workers and a sequential
        scan build byte-identical packets for the same target.
        """
        return _mix64(self._identity ^ (epoch << 32) ^ target_int)

    def _scan_epoch(self):
        """Per-scan component of probe identity (advances with the clock)."""
        return int(self.network.clock.now) & 0xFFFFFFFF

    def probe(self, target_ip):
        """Send one scan probe; return parsed (rcode, source_ip) pairs."""
        target_int = ip_to_int(target_ip)
        return self._probe_fast(target_ip, target_int,
                                self._probe_key(self._scan_epoch(),
                                                target_int))

    def _probe_fast(self, target_ip, target_int, key):
        """Hot-path probe: pre-keyed identity, header-peek triage."""
        txid, payload = self._encoder.encode(key, target_int)
        observations = []
        for response in self.network.send_probe(
                self.source_ip, self.source_port, target_ip, 53,
                target_int, payload):
            peeked = peek_header(response.packet.payload)
            if peeked is None:
                continue  # short/truncated garbage (§5 Completeness)
            rtxid, qr, rcode = peeked
            if not qr:
                continue
            if rtxid != txid:
                continue  # mismatched (or corrupted) transaction id
            observations.append((rcode, response.packet.src_ip))
        return observations

    # -- scans -------------------------------------------------------------

    def prewarm(self, target_space):
        """Build this space's memoised scan state in the calling process.

        The sharded engine calls this in the parent before forking so
        every worker inherits the LFSR walk, the target address columns,
        and the allowed-selector column copy-on-write.  The walk is
        force-cached even past the usual memo cap: at a ~38M-address
        space (order 26) it is a ~256 MB array that would otherwise be
        rebuilt inside every forked worker.
        """
        total = len(target_space)
        if total == 0:
            return
        order = LFSR.order_for(total)
        period = (1 << order) - 1
        permutation(order, seed=(self.lfsr_seed % period) or 1,
                    force_cache=True)
        target_filter = TargetFilter(target_space, self.blacklist)
        _address_columns(target_space)
        _allowed_column(target_space, target_filter)

    def scan(self, target_space, index_range=None, on_progress=None,
             chunk_sink=None, chunk_rows=65536):
        """Scan every allowed address in the target space once.

        ``index_range`` restricts the walk to a contiguous ``(start,
        stop)`` index shard; the full LFSR permutation is still walked,
        so probe order within the shard — and every probe's bytes —
        match the sequential scan exactly.

        ``on_progress`` (no arguments) is invoked once per ~1024 probes
        — the engine's worker heartbeat.  ``chunk_sink`` enables
        streaming results: whenever the result's resident columns reach
        ``chunk_rows`` rows they are detached (:meth:`ScanResult.
        take_chunk`) and handed to the sink, so the scan never holds
        more than one chunk of observations; the returned result then
        carries only the scalar tail plus the final partial columns.
        Targets stream out of the LFSR permutation in
        :attr:`probe_batch`-sized batches and one loop
        (:meth:`_scan_batched`) settles them under one of two plans:
        the bulk plan (:meth:`_sweep_plan`), or the every-target plan —
        each target takes the exact wire path — used whenever bulk
        short-cuts cannot be proven safe: retransmissions configured (a
        cold target then sends more than one datagram), fault injection
        or a flight recorder active, a middlebox that cannot enumerate
        its interest, or a flow epoch that has already drawn packet
        fates.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        result = ScanResult(self.network.clock.now)
        total = len(target_space)
        if total == 0:
            return result
        start, stop = index_range if index_range is not None else (0, total)
        epoch = self._scan_epoch()
        order = LFSR.order_for(total)
        period = (1 << order) - 1
        walk = permutation(order, seed=(self.lfsr_seed % period) or 1)
        target_filter = TargetFilter(target_space, self.blacklist)
        addresses, state_addresses, addresses_sorted = \
            _address_columns(target_space)
        # One selector folds every per-state predicate — in-range,
        # in-shard, reserved/blacklist — into a single subscript, so
        # batch extraction is pure C (see TargetBatchIterator).
        allowed = _allowed_column(target_space, target_filter)
        selector = bytearray(period + 1)
        selector[start + 1:stop + 1] = allowed[start:stop]
        batches = TargetBatchIterator(walk, selector,
                                      batch_size=self.probe_batch)
        network = self.network
        begin_epoch = getattr(network, "begin_flow_epoch", None)
        bulk_ok = (not self.retries
                   and begin_epoch is not None
                   and getattr(network, "recorder", None) is None
                   and getattr(network, "faults", None) is None
                   and begin_epoch())
        interest = None
        if bulk_ok:
            interest = network.scan_interest(
                self.source_ip, 53,
                qname_suffix=self.measurement_domain)
        bulk = bulk_ok and interest is not None
        if bulk:
            plan = self._sweep_plan(target_space, target_filter, start,
                                    stop, batches, addresses,
                                    addresses_sorted, interest)
        else:
            plan = ((len(batch), batch, 0) for batch in batches)
        pacing = self._pacing_plan(target_space, target_filter)
        base_bucket = int(self.max_pps) if self.max_pps is not None \
            else None
        paced = pacing is not None or base_bucket is not None
        if paced:
            # Declare the scan's rate to the defense plane; per-target
            # buckets override it probe by probe under adaptive pacing.
            network.scan_rate_bucket = base_bucket
        try:
            result = self._scan_batched(result, plan, state_addresses,
                                        epoch, on_progress, bulk=bulk,
                                        pacing=pacing,
                                        base_bucket=base_bucket,
                                        chunk_sink=chunk_sink,
                                        chunk_rows=chunk_rows)
        finally:
            if paced:
                network.scan_rate_bucket = None
        self._record_pacing_perf(pacing, index_range, total)
        return result

    def _pacing_plan(self, target_space, target_filter):
        """The (memoised) adaptive pacing plan for this scan, or
        ``None`` when pacing is off or no defense plane is armed.

        Built over the *full* allowed space — never a shard slice — so
        every forked worker replays the identical AIMD recurrence; see
        :mod:`repro.scanner.pacing`.
        """
        config = self.pacing
        if config is None:
            return None
        network = self.network
        plane = defense_plane(network, self.source_ip)
        if not plane:
            return None
        total = len(target_space)
        order = LFSR.order_for(total)
        period = (1 << order) - 1
        plan_key = None
        signatures = [getattr(box, "signature", None)
                      for box, __ in plane]
        if all(signatures):
            plan_key = (_space_signature(target_space),
                        target_filter.signature(), self.lfsr_seed,
                        self.source_ip, self.source_port,
                        network.clock.now,
                        tuple(sig() for sig in signatures),
                        config.signature())
            plan = _PACING_PLAN_CACHE.get(plan_key)
            if plan is not None:
                return plan
        walk = permutation(order, seed=(self.lfsr_seed % period) or 1)
        addresses, state_addresses, addresses_sorted = \
            _address_columns(target_space)
        allowed = _allowed_column(target_space, target_filter)
        defended = bytearray(total)
        for __, ranges in plane:
            for base, mask in ranges:
                last = base | (~mask & 0xFFFFFFFF)
                if addresses_sorted:
                    lo = bisect.bisect_left(addresses, base)
                    hi = bisect.bisect_right(addresses, last)
                    if hi > lo:
                        defended[lo:hi] = b"\x01" * (hi - lo)
                else:
                    for position, value in enumerate(addresses):
                        if value & mask == base:
                            defended[position] = 1
        selector = bytearray(period + 1)
        if total:
            selector[1:total + 1] = (
                int.from_bytes(bytes(allowed), "big")
                & int.from_bytes(bytes(defended), "big")
            ).to_bytes(total, "big")
        plan = build_pacing_plan(plane, ip_to_int(self.source_ip),
                                 self._identity, walk, selector,
                                 state_addresses, config)
        if plan_key is not None:
            _evict(_PACING_PLAN_CACHE)
            _PACING_PLAN_CACHE[plan_key] = plan
        return plan

    def _record_pacing_perf(self, pacing, index_range, total):
        """Plan-level pacing observability (window-rate histogram,
        signal counters).  Recorded only by a full-space scan: the plan
        is global, so per-shard workers re-deriving it must not tally
        it once per shard into the merged registry."""
        if pacing is None or self.perf is None:
            return
        if index_range is not None and index_range != (0, total):
            return
        self.perf.observe_many("pacing_window_pps", pacing.window_rates())
        self.perf.count("pacing_defense_signals", pacing.signals)
        if pacing.suppressed_count:
            self.perf.count("pacing_suppressed_planned",
                            pacing.suppressed_count)
        self.perf.gauge("pacing_windows", float(len(pacing.windows)))

    def _hot_column(self, addresses, addresses_sorted, interest):
        """State-aligned hotness mask: 1 where a probe must take the
        full wire path — the address hosts a node, or some middlebox
        declared interest in it.  Everything else ("cold") provably has
        no observable effect beyond the sent/lost counters and can be
        settled in bulk.
        """
        live = self.network._nodes_by_int
        hot = bytearray(map(live.__contains__, addresses))
        for base, mask in interest:
            last = base | (~mask & 0xFFFFFFFF)
            if addresses_sorted:
                lo = bisect.bisect_left(addresses, base)
                hi = bisect.bisect_right(addresses, last)
                if hi > lo:
                    hot[lo:hi] = b"\x01" * (hi - lo)
            else:
                for position, value in enumerate(addresses):
                    if value & mask == base:
                        hot[position] = 1
        column = bytearray(1)
        column.extend(hot)
        return column

    def _sweep_plan(self, target_space, target_filter, start, stop,
                    batches, addresses, addresses_sorted, interest):
        """The bulk plan — the cold settlement of a sweep: per batch,
        ``(size, hot_states, lost)``, the states needing the full wire
        path and the bulk-settled first-occurrence loss count for the
        rest.

        A cold probe's only observable effects in ``send_probe`` are
        one ``udp_queries_sent`` increment and a first-occurrence
        query-loss draw (no node, no interested middlebox, no faults,
        no recorder, no retransmission — all established by the
        caller), so a whole batch's worth collapses to ``len(batch)``
        sends plus a sum over the precomputed loss column; fates stay
        bit-identical because the column is the same pure flow hash
        ``send_probe`` draws.  The plan is memoised on everything it is
        a function of, so re-scans against an unchanged world only ever
        pay for the hot probes.
        """
        network = self.network
        plan_key = None
        nodes_signature = getattr(network, "nodes_signature", None)
        if nodes_signature is not None:
            # An unkeyable network double just skips the memo.
            plan_key = (
                _space_signature(target_space), target_filter.signature(),
                self.lfsr_seed, start, stop, self.probe_batch,
                nodes_signature(), tuple(interest),
                getattr(network, "_seed_high", None), network.loss_rate,
                self.source_ip, self.source_port)
            plan = _SWEEP_PLAN_CACHE.get(plan_key)
            if plan is not None:
                return plan
        state_loss = None
        loss_selector = network.query_loss_selector(
            self.source_ip, self.source_port, 53, addresses)
        if loss_selector is not None:
            state_loss = bytearray(1)
            state_loss.extend(loss_selector)
        state_hot = self._hot_column(addresses, addresses_sorted, interest)
        hot_of = state_hot.__getitem__
        loss_of = state_loss.__getitem__ if state_loss is not None else None
        plan = []
        for batch in batches:
            hot_states = list(compress(batch, map(hot_of, batch)))
            lost = sum(map(loss_of, batch)) if loss_of is not None else 0
            if hot_states and loss_of is not None:
                # Hot probes draw their own fate inside send_probe;
                # their column bits must not be double-counted.
                lost -= sum(map(loss_of, hot_states))
            plan.append((len(batch), hot_states, lost))
        if plan_key is not None:
            _evict(_SWEEP_PLAN_CACHE)
            _SWEEP_PLAN_CACHE[plan_key] = plan
        return plan

    def _scan_batched(self, result, plan, state_addresses, epoch,
                      on_progress, bulk=False, pacing=None,
                      base_bucket=None, chunk_sink=None, chunk_rows=65536):
        """The scan's one settle loop, driven by a plan of ``(size,
        states, lost)`` per batch: each listed state's target runs its
        attempt schedule down the full wire path, in LFSR order, and on
        the bulk plan the batch's remaining ``size - len(states)`` cold
        probes (``lost`` of them lost) are settled as counters.

        A target's attempts are contiguous: up to ``retries``
        retransmissions when nothing (in time) answered, each attempt's
        timeout growing exponentially from ``probe_timeout`` but never
        below the target's own deterministic round trip.  Every
        retransmission re-sends the *same* flow, so the network's
        flow-keyed fate draws give it a fresh, order-independent loss
        decision — merged shard results stay bit-identical to a
        sequential scan.
        """
        network = self.network
        # Inert middleboxes (scan_interest == []) are pruned from the
        # bulk plan's hot-probe path checks; network doubles without
        # the hook keep the stock send_probe signature.
        sweep_checks = None
        path_checks = getattr(network, "scan_path_checks", None)
        if bulk and path_checks is not None:
            sweep_checks = path_checks(
                self.source_ip, 53, qname_suffix=self.measurement_domain)
        seed_epoch = self._identity ^ (epoch << 32)
        encode = self._encoder.encode
        send_probe = network.send_probe
        source_ip = self.source_ip
        source_port = self.source_port
        addr_of = state_addresses.__getitem__
        record_value = result.record_value
        attempts = self.retries + 1
        base_schedule = retry_schedule(self.probe_timeout, self.retries,
                                       self.backoff)
        # Floor-anchored escape (mirrors retry_schedule): when a
        # target's rtt floor dominates even the last backed-off base
        # timeout, re-anchor the exponent at the floor so the schedule
        # never silently flattens.
        last_base = base_schedule[-1]
        backoff_steps = [self.backoff ** attempt
                         for attempt in range(attempts)]
        latency_between = (network.latency_between
                           if last_base is not None else None)
        probes_sent = 0
        bulk_sent = 0
        bulk_lost = 0
        suppressed = 0
        targets_probed = 0
        retransmissions = 0
        late_responses = 0
        flat_escapes = 0
        responses_seen = 0
        rtts = [] if self.perf is not None else None
        # Heartbeats: per 1024 targets probed on the every-target plan,
        # per 1024 settled probes (at batch ends) on the bulk plan.
        target_beat = on_progress if not bulk else None
        batch_beat = on_progress if bulk else None
        heartbeat_due = 0
        # Pacing: defended targets are hot by construction (their boxes
        # declare scan_interest), so the plan's per-target decisions are
        # consulted only here — the cold bulk settlement is untouched.
        paced_causes = pacing.suppressed if pacing is not None else None
        paced_rates = pacing.rates.get if pacing is not None else None
        window_mask = pacing.window_mask if pacing is not None else 0
        record_suppressed = result.record_suppressed
        recorder = getattr(network, "recorder", None)
        for size, states, lost in plan:
            for state in states:
                value = addr_of(state)
                if paced_causes is not None:
                    cause = paced_causes.get(value)
                    if cause is not None:
                        suppressed += 1
                        record_suppressed(value & window_mask, cause)
                        if recorder is not None:
                            recorder.record(network.clock.now,
                                            "suppressed", source_ip,
                                            value, cause)
                        continue
                    network.scan_rate_bucket = paced_rates(value,
                                                           base_bucket)
                if target_beat is not None:
                    targets_probed += 1
                    if not targets_probed & 1023:
                        target_beat()
                # splitmix64 finaliser, inlined (== _mix64).
                key = (seed_epoch ^ value) & _M64
                key ^= key >> 30
                key = (key * 0xBF58476D1CE4E5B9) & _M64
                key ^= key >> 27
                key = (key * 0x94D049BB133111EB) & _M64
                key ^= key >> 31
                txid, payload = encode(key, value)
                target_ip = int_to_ip(value)
                # Adaptive floor: never time a target out faster than
                # its own deterministic round trip.
                rtt_floor = None
                floor_anchored = False
                for attempt in range(attempts):
                    timeout = base_schedule[attempt]
                    if timeout is not None:
                        if rtt_floor is None:
                            rtt_floor = 2 * latency_between(
                                source_ip, target_ip) * _TIMEOUT_MARGIN
                            floor_anchored = (attempts > 1
                                              and last_base <= rtt_floor)
                            if floor_anchored:
                                flat_escapes += 1
                        if floor_anchored:
                            timeout = rtt_floor * backoff_steps[attempt]
                        elif timeout < rtt_floor:
                            timeout = rtt_floor
                    if attempt:
                        retransmissions += 1
                    if sweep_checks is None:
                        responses = send_probe(source_ip, source_port,
                                               target_ip, 53, value,
                                               payload)
                    else:
                        responses = send_probe(source_ip, source_port,
                                               target_ip, 53, value,
                                               payload,
                                               _checks=sweep_checks)
                    answered = False
                    for response in responses:
                        raw = response.packet.payload
                        # Inlined peek_header + qr/txid triage.
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
                        record_value(value, raw[3] & 0x0F,
                                     response.packet.src_ip != target_ip)
                    if answered:
                        break
            probes_sent += size
            bulk_sent += size - len(states)
            bulk_lost += lost
            if chunk_sink is not None and \
                    result.row_count() >= chunk_rows:
                chunk_sink(result.take_chunk())
            if batch_beat is not None:
                heartbeat_due += size
                while heartbeat_due >= 1024:
                    batch_beat()
                    heartbeat_due -= 1024
        if bulk:
            network.absorb_probe_sweep(bulk_sent, bulk_lost)
        probes_sent += retransmissions - suppressed
        result.probes_sent = probes_sent
        result.retransmissions = retransmissions
        perf = self.perf
        if perf is not None:
            perf.count("probes_sent", probes_sent)
            if bulk:
                perf.count("probes_bulk_settled", bulk_sent)
            perf.count("responses_seen", responses_seen)
            perf.count("parse_calls_avoided", responses_seen)
            if self.retries or last_base is not None:
                perf.count("probe_retransmissions", retransmissions)
            if late_responses:
                perf.count("probe_responses_late", late_responses)
            if suppressed:
                perf.count("pacing_suppressed_targets", suppressed)
            if flat_escapes:
                perf.count("rtt_floor_flat_schedules", flat_escapes)
            perf.observe_many("probe_rtt_seconds", rtts)
        return result

    def scan_addresses(self, addresses):
        """Probe an explicit address list (re-probing known resolvers)."""
        result = ScanResult(self.network.clock.now)
        epoch = self._scan_epoch()
        for target_ip in addresses:
            if self.blacklist is not None and target_ip in self.blacklist:
                continue
            result.probes_sent += 1
            target_int = ip_to_int(target_ip)
            key = self._probe_key(epoch, target_int)
            for rcode, source_ip in self._probe_fast(target_ip, target_int,
                                                     key):
                result.record(target_ip, rcode, source_ip)
        if self.perf is not None:
            self.perf.count("probes_sent", result.probes_sent)
        return result
