"""Sharded parallel scan engine with worker supervision.

Splits a :class:`~repro.scanner.ipv4scan.ScanTargetSpace` into N
contiguous index shards and drives each through a fork-based worker
process.  ``os.fork`` gives every worker a copy-on-write view of the
fully built scenario — no scenario rebuild, no pickling of the world,
just the per-shard :class:`ScanResult` coming back over a pipe.

Determinism contract (verified by ``tests/scanner/test_engine.py``):
the merged result is **identical** to a sequential single-process scan
of the same space — same ``counts()``, same ``responders``, same
``divergent_sources``, same ``probes_sent`` — for any shard count.
Three properties make this hold:

* probe identity is a pure hash of (scanner, scan epoch, target), so a
  worker scanning indexes [k, m) emits byte-identical packets to the
  ones a full scan would emit for those targets;
* packet fates (loss/corruption/injected faults) are keyed per flow +
  occurrence, not drawn from a shared sequential RNG, so fates cannot
  depend on how workers interleave sends
  (:meth:`repro.netsim.network.Network._packet_fate`);
* shard results are merged with set unions over disjoint target sets,
  which is order-insensitive.

Because those properties also make a *repeated* shard scan reproduce
the exact bytes and fates of the first attempt, worker failure recovery
is cheap and safe.  The fork/pipe/recovery machinery lives in
:class:`ShardSupervisor`, which is scanner-agnostic: it drives any
``run_range((start, stop), on_progress)`` callable over contiguous
index ranges.  :meth:`ScanEngine._run_sharded` is the one sharded path
on top of it — checkpointed shard planning, chunk spilling, supervision
and in-order delivery of every shard result (:class:`_OrderedDelivery`)
— and the per-domain scan
(:class:`repro.scanner.domainengine.DomainScanEngine`) is a subclass
that supplies only its per-range scan and delivery.  The IPv4 scan
delivers shard results into a list and merges them.  The supervisor
watches its workers over the result pipe — workers stream single-byte
heartbeats while scanning and ship their result as one length-prefixed
frame — and reacts to failures with escalating, narrow recovery:

1. a worker that dies on its first attempt is retried once (fresh fork
   of the same shard);
2. a second death splits the shard in half and retries both halves;
3. a death after splitting falls back to scanning just that index range
   in-process — never the whole space.

A worker that stops heartbeating for ``heartbeat_timeout`` seconds is
killed and treated as dead (hang recovery; requires a scanner with
``supports_progress``).  Every completed work item is recorded in the
merged result's ``provenance`` so degraded shards are visible to the
analysis layer, and all recovery events increment ``repro.perf``
counters (``worker_deaths``, ``shard_retries``, ``shard_splits``,
``shard_failures``, ``workers_hung``).

Workers cannot write back into the parent (fork semantics), so parent-
side state the scan would have advanced — network traffic and fault
counters, warm resolver caches — is reconciled explicitly: counter
deltas ride back in the result frame, while cache warm-ups are
deliberately dropped (the next scan replays the identical resolutions
from the identical pre-fork state, so dropped warm-ups cannot change
any later result).  One observable consequence: every worker re-warms
the resolution suffix cache in its own copy, so the *traffic* counters
report a few more queries than a sequential scan (one warm-up per extra
worker) even though the scan results are identical.

When ``shards <= 1`` or the platform lacks ``os.fork`` (non-POSIX), the
engines transparently scan in-process.
"""

import os
import pickle
import select
import shutil
import signal
import tempfile
import time
from collections import deque
from contextlib import contextmanager, nullcontext

from repro.checkpoint.store import SnapshotStore
from repro.perf import PerfRegistry, sample_ru_maxrss_kb
from repro.scanner.ipv4scan import merge_scan_results

# Network traffic counters reconciled from workers back into the parent.
_NET_COUNTERS = ("udp_queries_sent", "udp_queries_lost",
                 "udp_responses_corrupted")

# Pipe protocol: workers stream _HEARTBEAT bytes while scanning, zero
# or more _CHUNK frames (streamed column chunks, spilled by the parent
# as they arrive), then one _RESULT frame.  Frames are tag + 4-byte
# big-endian length + pickled payload; heartbeats are single bytes that
# may appear between (never inside) frames.
_HEARTBEAT = b"\x01"
_RESULT = b"\x02"
_CHUNK = b"\x03"
_HEARTBEAT_BYTE = _HEARTBEAT[0]
_RESULT_BYTE = _RESULT[0]
_CHUNK_BYTE = _CHUNK[0]

# Exit code of a worker killed by an injected fault (worker_dies).
_FAULT_EXIT = 23


def _absorb_result_chunks(result, chunks):
    """Reassemble a streamed :class:`ScanResult` from its tail + chunks."""
    for chunk in chunks:
        result.absorb_chunk(chunk)
    return result


def _changes(before, after):
    """``{name: after - before}`` for every counter that moved."""
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if value - before.get(name, 0)}


def _span(tracer, name, **attributes):
    """A trace span on ``tracer``, or a no-op context without one."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attributes)


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _restore_shard_record(network, perf, payload, origin=None):
    """Re-apply a checkpointed shard's side effects to a rebuilt world.

    A restored shard contributed traffic/fault counter deltas, perf
    numbers, and trace spans/flight events when it originally ran;
    replaying those (instead of re-scanning) keeps a resumed run's
    counters — and its trace — identical to an uninterrupted one.
    """
    for name, delta in (payload.get("net_counters") or {}).items():
        setattr(network, name, getattr(network, name, 0) + delta)
    fault_counters = getattr(network, "fault_counters", None)
    if fault_counters is not None:
        for name, delta in (payload.get("fault_counters") or {}).items():
            fault_counters[name] = fault_counters.get(name, 0) + delta
    tracer = getattr(network, "tracer", None)
    if tracer is not None and payload.get("spans"):
        tracer.absorb(payload["spans"])
    recorder = getattr(network, "recorder", None)
    if recorder is not None and payload.get("flight"):
        recorder.absorb_state(payload["flight"])
    if perf is None:
        return
    wall = payload.get("wall_seconds")
    if wall is not None:
        perf.record_seconds("shard_wall", wall)
        perf.observe("shard_wall_seconds", wall)
    shard_perf = payload.get("perf")
    if shard_perf is not None:
        perf.merge(shard_perf, rank=origin)
    for name, amount in (payload.get("perf_counters") or {}).items():
        perf.count(name, amount)


class _Worker:
    """Parent-side state of one live worker process.

    ``feed`` is an incremental frame parser, not a byte scan: chunk and
    result payloads are arbitrary pickle bytes and may contain the tag
    values, so frames must be walked by their length prefixes.  Complete
    ``_CHUNK`` frames are handed to ``on_chunk`` (the supervisor's spill
    hook) as they arrive and never buffered beyond one read, which is
    what keeps the parent's per-worker memory O(chunk) while streaming.
    """

    __slots__ = ("pid", "fd", "item", "heartbeats", "last_beat",
                 "buffer", "payload", "on_chunk", "chunk_keys")

    def __init__(self, pid, fd, item, now, on_chunk=None):
        self.pid = pid
        self.fd = fd
        self.item = item              # (start, stop, origin, attempt)
        self.heartbeats = 0
        self.last_beat = now
        self.buffer = bytearray()     # unparsed pipe bytes
        self.payload = None           # _RESULT payload bytes, once seen
        self.on_chunk = on_chunk      # callable(payload_bytes) or None
        self.chunk_keys = []          # spill keys written for this item

    def feed(self, data, now):
        """Consume pipe bytes: heartbeats, chunk frames, result frame."""
        self.last_beat = now
        buffer = self.buffer
        buffer.extend(data)
        pos = 0
        end = len(buffer)
        while pos < end:
            tag = buffer[pos]
            if tag == _HEARTBEAT_BYTE:
                self.heartbeats += 1
                pos += 1
                continue
            if tag not in (_RESULT_BYTE, _CHUNK_BYTE):
                # Corrupt stream (torn write); stop parsing — the frame
                # never completes and the worker takes the death path.
                break
            if pos + 5 > end:
                break                 # header not yet complete
            need = int.from_bytes(buffer[pos + 1:pos + 5], "big")
            if pos + 5 + need > end:
                break                 # payload not yet complete
            payload = bytes(buffer[pos + 5:pos + 5 + need])
            if tag == _CHUNK_BYTE:
                if self.on_chunk is not None:
                    self.on_chunk(payload)
            else:
                self.payload = payload
            pos += 5 + need
        del buffer[:pos]

    def shard_payload(self):
        """The unpickled result dict, or ``None`` if the result frame
        never completed (worker died mid-write)."""
        if self.payload is None:
            return None
        try:
            return pickle.loads(self.payload)
        except Exception:
            return None


class ShardSupervisor:
    """Fork/COW worker supervision over contiguous index ranges.

    ``run_range((start, stop), on_progress)`` is the unit of work: it is
    executed inside a forked worker (with a heartbeat callback when the
    scanner ``supports_progress``) or in-process for a last-resort
    rescue, and must return a picklable per-shard result.  The
    supervisor owns spawning, the heartbeat/result pipe protocol, hang
    detection, escalating death recovery, and the reconciliation of
    worker-side network/fault counter deltas back into the parent.

    ``perf_host``, when given, is the object whose ``perf`` registry is
    swapped for a fresh one inside each worker so only shard-local
    numbers ride back (merging the inherited copy-on-write registry
    would double-count pre-fork totals).

    ``chunk_store`` (a :class:`repro.checkpoint.store.SnapshotStore`)
    enables result streaming: ``run_range`` is then called with a third
    ``chunk_sink`` argument the worker may invoke with fixed-size result
    chunks, which ride the pipe as ``_CHUNK`` frames and are spilled to
    the store as they arrive — so neither the worker nor the parent ever
    holds a whole shard's rows.  When the worker's final frame lands,
    ``reassemble(tail_result, chunks_iter)`` folds the spilled chunks
    back into the shard result *before* it enters the success path, so
    checkpoint commits, provenance, and merging see exactly the result a
    non-streaming worker would have shipped.  A worker death discards
    its spilled chunks (the retry re-emits them), and in-process rescues
    stay resident — they never stream.

    The supervisor keeps no results: each completed item's result is
    handed to the caller's ``on_item_done`` hook and dropped.
    """

    def __init__(self, network, run_range, perf=None,
                 heartbeat_timeout=None, supports_progress=False,
                 perf_host=None, chunk_store=None, reassemble=None):
        self.network = network
        self.run_range = run_range
        self.perf = perf
        self.supports_progress = supports_progress
        self.heartbeat_timeout = (heartbeat_timeout
                                  if supports_progress else None)
        self.perf_host = perf_host
        self.chunk_store = chunk_store
        self.reassemble = reassemble

    def _count(self, name, amount=1):
        if self.perf is not None:
            self.perf.count(name, amount)

    def run(self, ranges, on_item_done, origins=None):
        """Supervise workers over ``ranges``; returns the provenance,
        one entry per completed work item, in completion order.

        ``on_item_done(item, payload, entry)`` fires after each completed
        work item — ``item`` is ``(start, stop, origin, attempt)`` — with
        a self-contained, picklable payload (``result`` + counter deltas
        + perf), in completion order.  It is the only way results leave
        the supervisor (checkpoint commit plus ordered delivery) and may
        raise to abort the run — active workers are reaped first.

        ``origins`` optionally names each range's global shard index —
        a checkpointed resume runs only the not-yet-committed ranges but
        must keep their original indices so per-origin fault draws
        (``worker_dies``) and provenance stay identical to a full run.
        """
        plan = getattr(self.network, "faults", None)
        heartbeat_timeout = self.heartbeat_timeout
        if origins is None:
            origins = range(len(ranges))
        pending = deque((start, stop, origin, 0)
                        for origin, (start, stop) in zip(origins, ranges))
        active = {}                     # read fd -> _Worker
        provenance = []
        rescues = []                    # items for in-process fallback
        rescued_origins = set()
        counter_deltas = {name: 0 for name in _NET_COUNTERS}
        fault_deltas = {}
        # Per-item observability batches (worker spans + flight events),
        # flushed into the parent instruments in sorted item order after
        # the run — completion order varies, the trace must not.
        obs_items = []

        try:
            while pending or active:
                while pending:
                    worker = self._spawn(pending.popleft(), plan)
                    active[worker.fd] = worker
                wait = 0.05 if heartbeat_timeout is not None else None
                ready, __, __unused = select.select(list(active), [], [],
                                                    wait)
                now = time.monotonic()
                for fd in ready:
                    worker = active[fd]
                    data = os.read(fd, 1 << 16)
                    if data:
                        worker.feed(data, now)
                        continue
                    # EOF: the worker finished or died.
                    del active[fd]
                    os.close(fd)
                    os.waitpid(worker.pid, 0)
                    if worker.heartbeats:
                        self._count("heartbeats_seen", worker.heartbeats)
                    shard = worker.shard_payload()
                    if shard is None:
                        self._discard_chunks(worker)
                        self._on_death(worker.item, pending, rescues,
                                       rescued_origins)
                    else:
                        if worker.chunk_keys:
                            shard["result"] = self._reassemble_result(
                                shard["result"], worker.chunk_keys)
                        self._on_success(worker.item, shard, provenance,
                                         counter_deltas, fault_deltas,
                                         obs_items, on_item_done)
                if heartbeat_timeout is not None:
                    for worker in list(active.values()):
                        if now - worker.last_beat > heartbeat_timeout:
                            # Hung worker: no heartbeat within budget.
                            # Kill it; the pipe EOF routes it through
                            # _on_death.
                            self._count("workers_hung")
                            worker.last_beat = now
                            try:
                                os.kill(worker.pid, signal.SIGKILL)
                            except ProcessLookupError:
                                pass

            # In-process fallback, narrowed to just the failed index
            # ranges: probe identity and packet fates are position-
            # independent, so the late retry still produces exactly the
            # bytes and fates the worker would have.
            for start, stop, origin, attempt in sorted(rescues):
                self._rescue((start, stop, origin, attempt), provenance,
                             on_item_done)
        except BaseException:
            # Abort (an injected crash from the commit hook, ^C, ...):
            # reap every live worker so no zombies outlive the run.
            for worker in active.values():
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.close(worker.fd)
                except OSError:
                    pass
                try:
                    os.waitpid(worker.pid, 0)
                except ChildProcessError:
                    pass
                self._discard_chunks(worker)
            raise

        network = self.network
        for name, delta in counter_deltas.items():
            setattr(network, name, getattr(network, name) + delta)
        fault_counters = getattr(network, "fault_counters", None)
        if fault_counters is not None:
            for name, delta in fault_deltas.items():
                fault_counters[name] = fault_counters.get(name, 0) + delta
        if obs_items:
            tracer = getattr(network, "tracer", None)
            recorder = getattr(network, "recorder", None)
            obs_items.sort(key=lambda entry: entry[0])
            for __key, spans, flight in obs_items:
                if tracer is not None and spans:
                    tracer.absorb(spans)
                if recorder is not None and flight:
                    recorder.absorb_state(flight)
        return provenance

    def _spawn(self, item, plan):
        """Fork one worker for a work item; returns its parent-side state."""
        start, stop, origin, attempt = item
        streaming = self.chunk_store is not None
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Worker: run one shard of the COW-shared scenario and
            # ship the result back; never return into the caller.
            os.close(read_fd)
            status = 0
            try:
                if plan is not None and plan.worker_dies(origin, attempt):
                    # Injected worker death (chaos testing): die before
                    # any work, as a crashed process would.
                    os._exit(_FAULT_EXIT)
                on_progress = None
                if self.supports_progress:
                    def on_progress():
                        os.write(write_fd, _HEARTBEAT)
                chunk_sink = None
                if streaming:
                    def chunk_sink(chunk):
                        data = pickle.dumps(
                            chunk, protocol=pickle.HIGHEST_PROTOCOL)
                        _write_all(write_fd, _CHUNK
                                   + len(data).to_bytes(4, "big") + data)
                payload = pickle.dumps(
                    self._run_shard((start, stop), on_progress,
                                    origin=origin, attempt=attempt,
                                    chunk_sink=chunk_sink),
                    protocol=pickle.HIGHEST_PROTOCOL)
                _write_all(write_fd, _RESULT
                           + len(payload).to_bytes(4, "big") + payload)
            except BaseException:
                status = 1
            finally:
                # Skip atexit/buffer teardown of the forked
                # interpreter; only the pipe payload matters.
                os._exit(status)
        os.close(write_fd)
        worker = _Worker(pid, read_fd, item, time.monotonic())
        if streaming:
            store = self.chunk_store

            def on_chunk(payload, worker=worker):
                # Spill keyed by the full work-item identity: a retried
                # or split item must never collide with stale chunks
                # from an earlier attempt of the same range.
                key = ("chunk", origin, attempt, start,
                       len(worker.chunk_keys))
                store.save(key, payload)
                worker.chunk_keys.append(key)

            worker.on_chunk = on_chunk
        return worker

    def _discard_chunks(self, worker):
        """Drop a dead/aborted worker's spilled chunks (retries re-emit)."""
        if self.chunk_store is None or not worker.chunk_keys:
            return
        for key in worker.chunk_keys:
            self.chunk_store.discard(key)
        worker.chunk_keys = []

    def _reassemble_result(self, tail, keys):
        """Fold spilled chunks back into a shard's tail result.

        Chunks are loaded lazily in emission order and discarded as they
        are consumed, so reassembly holds at most one chunk beyond the
        growing result.  The reassembled result is canonically equal to
        what a non-streaming worker would have shipped (column results
        sort rows on serialisation, so chunk boundaries leave no trace).
        """
        store = self.chunk_store

        def chunks():
            for key in keys:
                yield pickle.loads(store.load(key))
                store.discard(key)

        return self.reassemble(tail, chunks())

    def _on_death(self, item, pending, rescues, rescued_origins):
        """Escalating recovery: retry, then split, then in-process."""
        start, stop, origin, attempt = item
        self._count("worker_deaths")
        if attempt == 0:
            self._count("shard_retries")
            pending.append((start, stop, origin, 1))
        elif attempt == 1 and stop - start > 1:
            self._count("shard_splits")
            middle = (start + stop) // 2
            pending.append((start, middle, origin, 2))
            pending.append((middle, stop, origin, 2))
        else:
            # Repeated deaths: rescue this narrow range in-process.
            # ``shard_failures`` counts once per original shard needing
            # rescue (the pre-supervision contract).
            if origin not in rescued_origins:
                rescued_origins.add(origin)
                self._count("shard_failures")
            rescues.append(item)

    def _on_success(self, item, shard, provenance, counter_deltas,
                    fault_deltas, obs_items, on_item_done):
        start, stop, origin, attempt = item
        status = ("ok" if attempt == 0
                  else "retried" if attempt == 1 else "split")
        entry = {"shard": origin, "start": start, "stop": stop,
                 "mode": "worker", "attempt": attempt, "status": status}
        provenance.append(entry)
        for name in _NET_COUNTERS:
            counter_deltas[name] += shard["net_counters"][name]
        for name, delta in shard.get("fault_counters", {}).items():
            fault_deltas[name] = fault_deltas.get(name, 0) + delta
        spans = shard.get("spans")
        flight = shard.get("flight")
        if spans or flight:
            obs_items.append(((start, stop, attempt), spans, flight))
        if self.perf is not None:
            self.perf.record_seconds("shard_wall", shard["wall_seconds"])
            self.perf.observe("shard_wall_seconds", shard["wall_seconds"])
            if shard["perf"] is not None:
                self.perf.merge(shard["perf"], rank=origin)
        on_item_done(item, {
            "result": shard["result"],
            "net_counters": dict(shard["net_counters"]),
            "fault_counters": dict(shard.get("fault_counters") or {}),
            "perf": shard["perf"],
            "wall_seconds": shard["wall_seconds"],
            "spans": spans,
            "flight": flight,
            "provenance": [dict(entry)],
        }, entry)

    def _rescue(self, item, provenance, on_item_done):
        """Run one failed range in-process, with checkpoint bookkeeping.

        Unlike a worker, an in-process rescue mutates parent state
        directly, so the commit payload captures its counter/perf deltas
        by differencing around the call.
        """
        start, stop, origin, attempt = item
        network = self.network
        before = {name: getattr(network, name) for name in _NET_COUNTERS}
        fault_before = dict(getattr(network, "fault_counters", None) or {})
        perf_before = (dict(self.perf.counters)
                       if self.perf is not None else {})
        tracer = getattr(network, "tracer", None)
        spans_before = len(tracer.spans) if tracer is not None else 0
        # Rescues trace live into the parent's instruments (they mutate
        # parent state directly, unlike worker shards).
        with _span(tracer, "shard", origin=origin, attempt=attempt,
                   start=start, stop=stop, mode="in-process"):
            result = self.run_range((start, stop), None)
        entry = {"shard": origin, "start": start, "stop": stop,
                 "mode": "in-process", "attempt": attempt,
                 "status": "rescued"}
        provenance.append(entry)
        fault_after = getattr(network, "fault_counters", None) or {}
        perf_after = (dict(self.perf.counters)
                      if self.perf is not None else {})
        on_item_done(item, {
            "result": result,
            "net_counters": {name: getattr(network, name) - before[name]
                             for name in _NET_COUNTERS},
            "fault_counters": _changes(fault_before, fault_after),
            "perf_counters": _changes(perf_before, perf_after),
            "spans": (tracer.spans[spans_before:]
                      if tracer is not None else None),
            "provenance": [dict(entry)],
        }, entry)

    def _run_shard(self, index_range, on_progress=None, origin=0,
                   attempt=0, chunk_sink=None):
        """Executed inside a worker: one shard run plus bookkeeping."""
        network = self.network
        host = self.perf_host
        # The worker inherits the parent's registry copy-on-write; swap
        # in a fresh one so only shard-local numbers ride back (merging
        # the inherited copy would double-count pre-fork totals).
        if host is not None and getattr(host, "perf", None) is not None:
            host.perf = PerfRegistry()
        # Same treatment for the observability instruments: re-namespace
        # the inherited tracer (span ids stay unique across every worker
        # of every supervised scan in the process — the prefix carries
        # the parent's active span id, which is unique per scan, plus
        # origin, attempt, *and* range start, because both halves of a
        # split shard share origin and attempt) and clear the inherited
        # flight ring, so only shard-local spans and events ride back
        # over the result pipe.
        tracer = getattr(network, "tracer", None)
        recorder = getattr(network, "recorder", None)
        if tracer is not None:
            tracer.rebase("%s.w%d.%d.%d:" % (tracer.active_span_id or "",
                                             origin, attempt,
                                             index_range[0]))
        if recorder is not None:
            recorder.reset()
        before = {name: getattr(network, name) for name in _NET_COUNTERS}
        fault_before = dict(getattr(network, "fault_counters", None) or {})
        rss_before = sample_ru_maxrss_kb()
        shard_start = time.perf_counter()
        # Only a streaming run_range takes the third argument.
        sink = (chunk_sink,) if chunk_sink is not None else ()
        with _span(tracer, "shard", origin=origin, attempt=attempt,
                   start=index_range[0], stop=index_range[1],
                   mode="worker"):
            result = self.run_range(index_range, on_progress, *sink)
        wall = time.perf_counter() - shard_start
        worker_perf = (getattr(host, "perf", None)
                       if host is not None else None)
        if worker_perf is not None:
            # Kernel high-water marks, merged with "max" policy so the
            # parent registry reports the worst worker of the scan.  A
            # forked child *inherits* the parent's ru_maxrss high-water
            # mark, so the absolute peak mostly restates the pre-fork
            # footprint (world + walk + columns, all shared
            # copy-on-write); the growth delta is the worker's own
            # private allocation — the number bench_scale gates on.
            worker_perf.declare_gauge("worker_peak_rss_kb", "max")
            worker_perf.gauge("worker_peak_rss_kb", sample_ru_maxrss_kb())
            worker_perf.declare_gauge("worker_rss_growth_kb", "max")
            worker_perf.gauge("worker_rss_growth_kb",
                              max(0, sample_ru_maxrss_kb() - rss_before))
        fault_after = getattr(network, "fault_counters", None) or {}
        return {
            "result": result,
            "wall_seconds": wall,
            "net_counters": {
                name: getattr(network, name) - before[name]
                for name in _NET_COUNTERS},
            "fault_counters": _changes(fault_before, fault_after),
            "perf": host.perf if host is not None else None,
            "spans": tracer.spans if tracer is not None else None,
            "flight": (recorder.export_state()
                       if recorder is not None else None),
        }


class _OrderedDelivery:
    """Re-sequences out-of-order shard completions for ``deliver``.

    Shards complete in arbitrary order (and a recovered shard may
    complete as several split work items), but callers must see results
    in exact range order.  Completed items are buffered per origin
    shard; once an origin's items cover its whole range, and every
    earlier origin has been delivered, its results go to ``deliver`` in
    range order.  At most the out-of-order window is ever buffered — a
    fully in-order run buffers nothing beyond the completing shard.
    """

    def __init__(self, ranges, deliver):
        self.ranges = ranges
        self.deliver = deliver
        self.parts = {}           # origin -> [(start, result)]
        self.covered = {}         # origin -> indexes covered so far
        self.cursor = 0

    def add(self, item, result):
        """Buffer one completed ``(start, stop, origin, attempt)`` item,
        then flush every origin that is now complete and next in line."""
        start, stop, origin, __attempt = item
        self.parts.setdefault(origin, []).append((start, result))
        self.covered[origin] = self.covered.get(origin, 0) + (stop - start)
        while self.cursor < len(self.ranges):
            origin_start, origin_stop = self.ranges[self.cursor]
            if self.covered.get(self.cursor) != origin_stop - origin_start:
                break
            parts = self.parts.pop(self.cursor)
            parts.sort(key=lambda entry: entry[0])
            for __, part in parts:
                self.deliver(part)
            self.cursor += 1


class ScanEngine:
    """Runs Internet-wide scans, optionally sharded across processes.

    ``stream_results`` bounds worker memory: workers flush their result
    columns every ``chunk_rows`` rows as pipe frames which the parent
    spills through a :class:`SnapshotStore` (in ``spill_dir``, or a
    private temporary directory) and folds back per shard on completion.
    The merged result is byte-identical to a resident run — streaming
    changes *where* rows live during the scan, never what they are.
    Requires a scanner advertising ``supports_chunks``; silently runs
    resident otherwise (and for in-process rescues).

    :meth:`_run_sharded` is the one supervise-and-deliver path; the
    domain scan engine subclasses this class and only supplies its own
    per-range scan and delivery.
    """

    def __init__(self, scanner, shards=1, perf=None,
                 heartbeat_timeout=None, stream_results=False,
                 chunk_rows=65536, spill_dir=None):
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.scanner = scanner
        self.shards = shards
        self.perf = perf
        # Kill workers silent for this many wall-clock seconds (needs a
        # scanner with ``supports_progress``); ``None`` disables.
        self.heartbeat_timeout = heartbeat_timeout
        self.stream_results = stream_results
        self.chunk_rows = chunk_rows
        self.spill_dir = spill_dir
        # Provenance of the last sharded scan (one entry per work item).
        self.provenance = []
        # Host the registry on a scanner that has a ``perf`` slot (the
        # domain scanner has none and records no scanner-side numbers).
        if perf is not None and getattr(scanner, "perf", False) is None:
            scanner.perf = perf

    @property
    def can_fork(self):
        return hasattr(os, "fork")

    @contextmanager
    def _measured(self, prefix, span_name, **attributes):
        """Trace span plus ``<prefix>scan_wall``/``<prefix>scans_run``
        perf numbers around one scan (recorded only if it completes)."""
        start = time.perf_counter()
        tracer = getattr(getattr(self.scanner, "network", None),
                         "tracer", None)
        with _span(tracer, span_name, **attributes):
            yield
        if self.perf is not None:
            self.perf.record_seconds(prefix + "scan_wall",
                                     time.perf_counter() - start)
            self.perf.count(prefix + "scans_run")

    def scan(self, target_space, checkpoint=None):
        """Scan the whole target space; returns one merged ScanResult.

        ``checkpoint``, when given, is a :class:`repro.checkpoint`
        scope: completed shards are committed as they merge and a
        resumed scan restores them instead of re-scanning.  (A
        single-process scan has no sub-scan units; its enclosing
        campaign week is the unit of durability.)
        """
        network = self.scanner.network
        fault_before = dict(getattr(network, "fault_counters", None) or {})
        ranges = target_space.shard_ranges(self.shards)
        self.provenance = []
        with self._measured("", "scan", shards=len(ranges)):
            if len(ranges) <= 1 or not self.can_fork:
                result = self.scanner.scan(target_space)
            else:
                result = self._scan_forked(target_space, ranges,
                                           checkpoint=checkpoint)
        if self.perf is not None:
            # Flush this scan's injected/absorbed fault deltas.
            fault_after = getattr(network, "fault_counters", None)
            if fault_after:
                for name, delta in _changes(fault_before,
                                            fault_after).items():
                    self.perf.count("fault_" + name, delta)
        return result

    # -- forked path -------------------------------------------------------

    def _open_spill_store(self):
        """The chunk spill store for a streamed scan, or ``(None, None)``.

        Returns ``(store, temp_dir)``; ``temp_dir`` is non-``None`` only
        when a private directory was created and must be removed after
        the run."""
        if not self.stream_results or \
                not getattr(self.scanner, "supports_chunks", False):
            return None, None
        if self.spill_dir is not None:
            return SnapshotStore(self.spill_dir, self.perf), None
        temp = tempfile.mkdtemp(prefix="scan-spill-")
        return SnapshotStore(temp, self.perf), temp

    def _run_sharded(self, ranges, scan_range, reassemble, deliver,
                     checkpoint):
        """Supervise ``ranges`` across forked workers; returns (and
        keeps as ``self.provenance``) the sorted provenance.

        ``scan_range(index_range=..., [on_progress=...,] [chunk_sink=...,
        chunk_rows=...])`` scans one contiguous range and returns a
        picklable shard result; ``reassemble(tail, chunks)`` folds a
        streamed shard's spilled chunks back into it.  Every shard's
        result — restored from ``checkpoint`` or freshly scanned, by a
        worker or an in-process rescue — reaches ``deliver`` exactly
        once, in range order.

        ``checkpoint``, when given, is a :class:`repro.checkpoint` scope
        that splits the run into restored and still-to-run work: a
        committed shard has its side effects re-applied instead of being
        re-scanned, and each newly completed item is committed — but
        only items covering a *full* original range (a split half or
        narrowed rescue is not independently restorable; its origin
        reruns whole on resume, reproducing the identical escalation
        path from the same fault draws).  After each commit the crash
        plane gets its shot at the ``shard`` boundary.
        """
        scanner = self.scanner
        chunk_rows = self.chunk_rows

        def run_range(index_range, on_progress, chunk_sink=None):
            kwargs = {"index_range": index_range}
            if on_progress is not None:
                kwargs["on_progress"] = on_progress
            if chunk_sink is not None:
                kwargs["chunk_sink"] = chunk_sink
                kwargs["chunk_rows"] = chunk_rows
            return scan_range(**kwargs)

        restored = []
        provenance = []
        live_ranges = []
        live_origins = []
        for origin, (start, stop) in enumerate(ranges):
            record = (checkpoint.restore(("shard", origin, start, stop))
                      if checkpoint is not None else None)
            if record is None:
                live_ranges.append((start, stop))
                live_origins.append(origin)
                continue
            payload = record["payload"]
            _restore_shard_record(scanner.network, self.perf, payload,
                                  origin=origin)
            restored.append(((start, stop, origin, None),
                             payload["result"]))
            provenance.extend(payload.get("provenance") or [])
        delivery = _OrderedDelivery(ranges, deliver)
        for item, result in restored:
            delivery.add(item, result)

        def on_item_done(item, payload, entry):
            start, stop, origin, __attempt = item
            if checkpoint is not None:
                if (start, stop) == ranges[origin]:
                    checkpoint.commit(("shard", origin, start, stop),
                                      payload)
                checkpoint.maybe_crash("shard", (origin,))
            delivery.add(item, payload["result"])

        spill_store, spill_temp = self._open_spill_store()
        try:
            supervisor = ShardSupervisor(
                scanner.network, run_range, perf=self.perf,
                heartbeat_timeout=self.heartbeat_timeout,
                supports_progress=getattr(scanner, "supports_progress",
                                          False),
                perf_host=scanner, chunk_store=spill_store,
                reassemble=reassemble)
            provenance += supervisor.run(live_ranges, on_item_done,
                                         origins=live_origins)
        finally:
            if spill_temp is not None:
                shutil.rmtree(spill_temp, ignore_errors=True)
        # Completion order varies run to run; sorted provenance keeps
        # same-seed runs bit-identical.
        provenance.sort(key=lambda e: (e["start"], e["stop"], e["attempt"]))
        self.provenance = provenance
        return provenance

    def _scan_forked(self, target_space, ranges, checkpoint=None):
        scanner = self.scanner
        prewarm = getattr(scanner, "prewarm", None)
        if prewarm is not None:
            # Build the memoised target columns and LFSR walk *before*
            # forking so every worker inherits them copy-on-write
            # instead of paying an O(targets) build per process.
            prewarm(target_space)

        def scan_range(**kwargs):
            return scanner.scan(target_space, **kwargs)

        parts = []
        provenance = self._run_sharded(ranges, scan_range,
                                       _absorb_result_chunks, parts.append,
                                       checkpoint)
        merged = merge_scan_results(scanner.network.clock.now, parts)
        merged.provenance = provenance
        return merged

    def __repr__(self):
        return "%s(shards=%d, fork=%s)" % (
            type(self).__name__, self.shards, self.can_fork)
