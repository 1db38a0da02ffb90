"""Greedy sweep dispatch over a supervised pool of worker processes.

This is the pooled path of :func:`repro.exec.sweep.sweep` (a sweep with
no pool runs its misses in a plain in-process loop instead).  Two pieces
decide where a point runs:

* :func:`build_chunks` — points are grouped by their warm-node group key
  (input order kept within a group, the adjacency the warm
  :class:`~repro.core.runner.NodePool` reuses nodes along) and each group
  is cut into chunks targeting ``total_price / (workers * oversub)``, so a
  large-message point rides alone while cheap points batch up.  Groups
  are sorted biggest first by :func:`point_cost`, a ``procs * bytes *
  lane`` price: the expensive tail starts immediately and small groups
  back-fill behind it.  Prices only order work, they never change
  results.
* :class:`_Router` — greedy list scheduling: an idle worker finishes its
  current group's chunks in input order, or else takes the next group
  off one shared deque.  A group is held by one worker from its first
  chunk to its last, so a warm group never runs on two workers
  concurrently (``tests/test_sched.py`` asserts this).

Results stream back as chunks complete (the ``on_result`` callback is how
:func:`repro.exec.sweep.sweep` overlaps cache writes with the remaining
compute) and are reassembled in input order, preserving the
serial == pooled == cached bit-identity contract: dispatch changes
*where and when* a point runs, never its inputs — every point still
executes on a fresh-or-reset node.

**Supervision.**  The pool watches its workers, not just their pipes:

* every worker stamps a shared heartbeat slot before each point and
  reports which point it is on, so the parent distinguishes a *hung*
  worker (alive, no heartbeat progress for ``hung_s`` seconds, 300 by
  default, while a chunk is in flight) from a *dead* one (``is_alive()``
  false) — a hung worker is SIGKILLed and treated as lost;
* results travel over per-worker *lock-free framed pipes* (a length
  prefix per pickled message, non-blocking parent reads): a SIGKILL
  landing mid-report can tear at most that worker's own trailing frame —
  never a lock another worker needs, which a shared queue could strand —
  and every complete frame the dying worker shipped is salvaged;
* a lost worker is respawned (fresh inbox and result pipe — a kill can
  strand the old queue's read lock or leave a torn frame) with
  exponential backoff, bounded by ``max_respawns`` total respawns per
  pool (``4 * workers`` by default), and its unfinished chunk's points
  are re-dispatched;
* the point a worker was executing when it was lost takes a **poison
  strike**; at ``poison_strikes`` strikes (2 by default) the point is
  no longer re-dispatched but computed in the parent, as a serial sweep
  would compute it (counted in ``fallback_points``);
* exhausting the respawn budget marks the pool broken, records why
  (``SchedStats.broken_reason``, naming the lost worker's exit code) and
  computes the missing points in the parent, in input order.

Every worker failure thus ends on one fallback — the parent computing
the point — so a sweep's result list only ever holds computed values.
A point that crashes or hangs every process does so in the parent too,
exactly as in a serial sweep.  A context whose pool broke runs its
later sweeps in-process (:meth:`~repro.exec.context.ExecContext.sched_pool`).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import chaos as _chaos

__all__ = [
    "SchedStats",
    "StickyPool",
    "Chunk",
    "build_chunks",
    "point_cost",
    "usable_cpus",
]

#: Outstanding-chunk multiple the adaptive chunker targets per worker:
#: a chunk's price aims at ``total / (workers * OVERSUB)`` so every worker
#: has slack to back-fill behind a straggler without drowning in dispatch.
OVERSUB = 4

#: Hard cap on points per chunk regardless of price.
MAX_CHUNK = 32

#: Parent poll interval while waiting on worker results (also the dead-
#: worker detection latency).
_POLL_S = 0.25


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# --------------------------------------------------------------------------
# Supervision defaults
# --------------------------------------------------------------------------

#: a worker whose in-flight chunk shows no per-point heartbeat progress
#: for this long is declared hung and killed; generous by default — no
#: legitimate sweep point is minutes of wall time — and ``<= 0`` disables.
DEFAULT_HUNG_S = 300.0

#: worker-loss blames before a point is computed in the parent instead
#: of re-dispatched
DEFAULT_POISON_STRIKES = 2


# --------------------------------------------------------------------------
# Prices and chunking
# --------------------------------------------------------------------------

#: relative transfer-cost weight per transport lane (shm double-copies;
#: mapped windows copy pin-free)
LANE_FACTOR = {"cma": 1.0, "shm": 1.4, "xpmem": 0.8}


def point_cost(pt: Any) -> float:
    """Dispatch price of one sweep point: ``procs * bytes * lane factor``.

    Collective points are priced by rank count and message size; other
    points (microbenches) by their ``readers``/``procs`` and
    ``nbytes``/``eta`` kwargs, if any.  Prices only order and size the
    work, never its results.
    """
    if getattr(pt, "collective", None) is not None:
        procs, nbytes = getattr(pt, "procs", 2), getattr(pt, "eta", 4096)
    else:
        kwargs = dict(getattr(pt, "kwargs", ()) or ())
        nbytes = kwargs.get("nbytes") or kwargs.get("eta") or 4096
        procs = kwargs.get("readers") or kwargs.get("procs") or 1
    try:
        return (
            max(int(procs), 1)
            * max(int(nbytes), 1)
            * LANE_FACTOR.get(getattr(pt, "lane", "cma"), 1.0)
        )
    except (TypeError, ValueError):
        return 1.0


class Chunk:
    """A dispatch unit: consecutive same-group point indices."""

    __slots__ = ("cid", "group", "indices")

    def __init__(self, cid: int, group: Any, indices: Tuple[int, ...]):
        self.cid = cid
        self.group = group
        self.indices = indices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chunk({self.cid}, n={len(self.indices)})"


class _GroupPlan:
    """All of one group's chunks, dispatched in order by one worker."""

    __slots__ = ("group", "chunks", "cost")

    def __init__(self, group: Any, chunks: "deque[Chunk]", cost: float):
        self.group = group
        self.chunks = chunks
        self.cost = cost


def build_chunks(
    costs: Sequence[float],
    groups: Optional[Sequence[Any]],
    workers: int,
    oversub: int = OVERSUB,
    max_chunk: int = MAX_CHUNK,
) -> List[_GroupPlan]:
    """Split points into price-balanced chunks, grouped and ordered.

    Points are partitioned by ``groups`` (input order preserved within a
    group — the adjacency warm-node reuse depends on); each group is cut
    into chunks whose summed price targets ``total / (workers *
    oversub)``, capped at ``max_chunk`` points.  With ``groups=None``
    every chunk becomes its own group, free to run on any worker.
    Returned plans are sorted biggest-price-first (ties: first
    appearance), the order the router hands them out in.
    """
    n = len(costs)
    by_group: Dict[Any, List[int]] = {}
    order: List[Any] = []
    if groups is None:
        by_group[None] = list(range(n))
        order.append(None)
    else:
        for i, g in enumerate(groups):
            bucket = by_group.get(g)
            if bucket is None:
                by_group[g] = bucket = []
                order.append(g)
            bucket.append(i)
    total = float(sum(costs))
    target = total / max(workers * oversub, 1) if total > 0 else 0.0

    plans: List[_GroupPlan] = []
    cid = 0
    for g in order:
        priced: List[Tuple[Chunk, float]] = []
        run: List[int] = []
        acc = 0.0
        for i in by_group[g]:
            run.append(i)
            acc += costs[i]
            if len(run) >= max_chunk or (target > 0 and acc >= target):
                priced.append((Chunk(cid, g, tuple(run)), acc))
                cid += 1
                run, acc = [], 0.0
        if run:
            priced.append((Chunk(cid, g, tuple(run)), acc))
            cid += 1
        if groups is None:
            # Ungrouped sweep: one pseudo-group per chunk, so chunks are
            # handed out to workers individually.
            for ch, price in priced:
                ch.group = ("_chunk", ch.cid)
                plans.append(_GroupPlan(ch.group, deque([ch]), price))
        else:
            plans.append(_GroupPlan(
                g, deque(ch for ch, _ in priced), sum(p for _, p in priced)
            ))
    plans.sort(key=lambda p: (-p.cost, p.chunks[0].indices[0] if p.chunks else 0))
    return plans


# --------------------------------------------------------------------------
# Router: greedy list scheduling over whole groups
# --------------------------------------------------------------------------


class _Router:
    """Parent-side greedy dispatch enforcing the no-concurrent-group rule.

    An idle worker finishes the group it holds, chunk by chunk in input
    order, or else takes the next (biggest remaining) group off one shared
    deque.  A group stays with its worker from first chunk to last.
    """

    def __init__(self, plans: List[_GroupPlan], workers: int):
        self._plans: "deque[_GroupPlan]" = deque(plans)
        self._held: List[Optional[_GroupPlan]] = [None] * workers

    def next_for(self, wid: int) -> Optional[Chunk]:
        """The next chunk ``wid`` should run; ``None`` once every group
        is taken and ``wid``'s own group is drained."""
        plan = self._held[wid]
        if plan is None or not plan.chunks:
            plan = self._plans.popleft() if self._plans else None
            self._held[wid] = plan
            if plan is None:
                return None
        return plan.chunks.popleft()


# --------------------------------------------------------------------------
# Stats
# --------------------------------------------------------------------------


@dataclass
class SchedStats:
    """What one pooled run did — folded into the sweep report line."""

    points: int = 0
    chunks: int = 0
    workers: int = 1
    pooled: bool = False
    chunk_sizes: List[int] = field(default_factory=list)
    #: points computed in the parent: poison-struck points, and every
    #: point still missing when the pool broke
    fallback_points: int = 0
    #: workers respawned after dying or being killed as hung
    respawns: int = 0
    #: workers SIGKILLed by hung-chunk detection
    hung_kills: int = 0
    #: why the pool broke during this run ("" when it did not)
    broken_reason: str = ""
    #: per-chunk timeline records (only when profiling was requested)
    profile: Optional[List[dict]] = None

    def note_chunk(
        self,
        worker: int,
        chunk: Chunk,
        start_s: float,
        end_s: float,
        profiling: bool,
    ) -> None:
        self.chunks += 1
        self.chunk_sizes.append(len(chunk.indices))
        if profiling:
            if self.profile is None:
                self.profile = []
            self.profile.append(
                {
                    "worker": worker,
                    "chunk": chunk.cid,
                    "group": repr(chunk.group),
                    "points": len(chunk.indices),
                    "start_s": round(start_s, 6),
                    "end_s": round(end_s, 6),
                    "wall_s": round(end_s - start_s, 6),
                }
            )


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------


#: result-pipe frame header: u32 little-endian payload length.  Framing
#: (rather than a shared ``mp.Queue``) is what makes worker reports safe
#: against SIGKILL: a kill mid-write tears only the dying worker's own
#: trailing frame, which the parent simply never parses — a shared locked
#: queue would instead strand its write lock and deadlock every survivor.
_FRAME_HDR = struct.Struct("<I")


def _send_frame(fd: int, msg: tuple) -> bool:
    """Ship one framed message up the worker's result pipe.

    False means the parent closed its read end (teardown): the worker
    should exit quietly rather than retry.
    """
    buf = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_FRAME_HDR.pack(len(buf)) + buf)
    try:
        while view:
            n = os.write(fd, view)
            view = view[n:]
    except OSError:
        return False
    return True


def _chaos_point(cst) -> None:
    """Worker-side chaos draw around one point: kill or stall this worker.

    Only scheduler worker processes draw here — the parent, which
    computes poison-struck points and salvages a broken pool's, never
    does, so chaos is always survivable by the supervision layer above it.
    """
    spec = cst.draw("point")
    if spec is None:
        return
    if spec.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.kind == "stall":
        time.sleep(spec.resolved_factor)


def _worker_main(wid: int, inbox, out_fd, hb=None, cur=None) -> None:
    _chaos.set_role(f"w{wid}")
    while True:
        msg = inbox.get()
        if msg is None:
            return
        epoch, cid, fn, pts, idxs = msg
        t0 = time.monotonic()
        try:
            cst = _chaos.state()
            vals = []
            for k, p in enumerate(pts):
                # Heartbeat + blame slot: the parent reads these to tell a
                # hung worker from a busy one, and to know *which* point a
                # lost worker was on (poison accounting).
                if hb is not None:
                    hb[wid] = time.monotonic()
                if cur is not None:
                    cur[wid] = idxs[k] if idxs is not None else -1
                if cst is not None:
                    _chaos_point(cst)
                vals.append(fn(p))
            if cur is not None:
                cur[wid] = -1
            t1 = time.monotonic()
            # Pre-pickle so an unpicklable value surfaces as an error
            # message instead of killing the queue's feeder thread (which
            # would hang the parent until dead-worker detection).
            buf = pickle.dumps(vals, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"worker {wid} failed: {exc!r}")
            if not _send_frame(out_fd, ("err", epoch, wid, cid, exc)):
                return  # pipe gone: parent is tearing us down
            continue
        if not _send_frame(
            out_fd, ("done", epoch, wid, cid, buf, t0, t1, idxs)
        ):
            return


class _SchedBroken(RuntimeError):
    """Internal: the pool is unrecoverable (triggers in-process salvage)."""


def _salvage(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    results: List[Any],
    got: List[bool],
    on_result: Optional[Callable[[int, Any], None]],
    stats: "SchedStats",
) -> None:
    """Compute every point not yet in ``results`` in-process, in input order."""
    for i, pt in enumerate(points):
        if not got[i]:
            v = fn(pt)
            results[i] = v
            if on_result is not None:
                on_result(i, v)
            stats.fallback_points += 1


# --------------------------------------------------------------------------
# The pool
# --------------------------------------------------------------------------


class StickyPool:
    """Persistent addressable workers for greedy group dispatch.

    Unlike ``ProcessPoolExecutor`` the parent decides *which* worker gets
    each chunk, which is what keeps a group on one worker (and its
    module-level :class:`~repro.core.runner.NodePool` warm for it).  All
    failure modes degrade to in-process recomputation of whatever is
    missing — never to a wrong or partial result.

    ``hung_s`` (``<= 0`` disables hung detection), ``max_respawns`` and
    ``poison_strikes`` tune the supervision described in the module
    docstring; only tests and the chaos soak move them off the defaults.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        hung_s: float = DEFAULT_HUNG_S,
        max_respawns: Optional[int] = None,
        poison_strikes: int = DEFAULT_POISON_STRIKES,
    ):
        import multiprocessing as mp

        if workers < 2:
            raise ValueError("StickyPool needs >= 2 workers (use a plain loop)")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        ctx = mp.get_context(start_method)
        self._mp_ctx = ctx
        self.workers = workers
        self.broken = False
        #: hung-chunk timeout in seconds (None: detection off)
        self.hung_s = float(hung_s) if hung_s > 0 else None
        #: total respawn budget (default ``4 * workers``)
        self.max_respawns = (
            4 * workers if max_respawns is None else max(int(max_respawns), 0)
        )
        self.poison_strikes = max(int(poison_strikes), 1)
        #: workers respawned over this pool's lifetime (budget consumed)
        self.respawns = 0
        self._respawn_attempts = [0] * workers
        self._epoch = 0
        #: lock-free shared slots: last per-point heartbeat and the global
        #: index of the point each worker is currently executing (-1 idle)
        self._hb = ctx.Array("d", workers, lock=False)
        self._cur = ctx.Array("l", workers, lock=False)
        for wid in range(workers):
            self._cur[wid] = -1
        self._inboxes = [ctx.SimpleQueue() for _ in range(workers)]
        #: per-worker result pipes: read fd (non-blocking, parent side)
        #: and a reassembly buffer for partially-arrived frames
        self._rfds: List[Optional[int]] = [None] * workers
        self._rbufs: List[bytearray] = [bytearray() for _ in range(workers)]
        self._procs = []
        try:
            for wid in range(workers):
                self._procs.append(self._spawn(wid))
        except BaseException:
            self.close()
            raise

    def _spawn(self, wid: int):
        # Fresh result pipe per (re)spawn: a predecessor's torn trailing
        # frame must never prefix the new worker's stream.  The write end
        # is closed in the parent immediately after the fork, so exactly
        # one process ever holds it — later-forked workers cannot inherit
        # it and keep a dead sibling's pipe half-open.
        rfd, wfd = os.pipe()
        os.set_blocking(rfd, False)
        old = self._rfds[wid]
        if old is not None:
            try:
                os.close(old)
            except OSError:
                pass
        self._rfds[wid] = rfd
        self._rbufs[wid] = bytearray()
        try:
            p = self._mp_ctx.Process(
                target=_worker_main,
                args=(wid, self._inboxes[wid], wfd, self._hb, self._cur),
                daemon=True,
                name=f"repro-sched-{wid}",
            )
            p.start()
        finally:
            try:
                os.close(wfd)
            except OSError:
                pass
        return p

    def _respawn(self, wid: int) -> None:
        """Replace a lost worker: fresh inbox (a SIGKILL can strand the
        old queue's read lock mid-``get``) and fresh result pipe
        (``_spawn`` replaces it, discarding any torn trailing frame),
        exponential backoff per slot."""
        self.respawns += 1
        attempt = self._respawn_attempts[wid]
        self._respawn_attempts[wid] = attempt + 1
        delay = min(0.05 * (2 ** attempt), 1.0)
        if delay > 0:
            time.sleep(delay)
        old = self._procs[wid]
        try:
            old.join(timeout=0.5)
        except Exception:
            pass
        self._hb[wid] = 0.0
        self._cur[wid] = -1
        self._inboxes[wid] = self._mp_ctx.SimpleQueue()
        self._procs[wid] = self._spawn(wid)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the workers — join with a timeout, then terminate, then
        SIGKILL stragglers — so a failing sweep never leaks a live child
        process; safe to call repeatedly."""
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except Exception:
                pass
        # Closing the read ends first turns any worker blocked mid-report
        # into an EPIPE exit instead of a join-timeout straggler.
        for fd in self._rfds:
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._rfds = [None] * len(self._rfds)
        for p in self._procs:
            p.join(timeout=2.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for p in self._procs:
            if p.is_alive():
                # SIGTERM ignored or blocked: SIGKILL cannot be.
                try:
                    p.kill()
                except Exception:
                    pass
                p.join(timeout=2.0)
        self._procs = []
        self._inboxes = []
        self._rfds = []
        self._rbufs = []

    def __enter__(self) -> "StickyPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- result pipes --------------------------------------------------------

    def _drain_worker(self, wid: int) -> List[tuple]:
        """Every complete frame currently in one worker's result pipe.

        Never blocks: the read end is non-blocking and only whole frames
        decode — a torn trailing frame from a killed worker sits unparsed
        in the buffer until the respawn discards it with the pipe.
        """
        if wid >= len(self._rfds):
            return []
        fd = self._rfds[wid]
        if fd is None:
            return []
        buf = self._rbufs[wid]
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break
            if not chunk:
                break  # EOF: the worker is gone; supervision handles it
            buf += chunk
        msgs: List[tuple] = []
        off = 0
        while len(buf) - off >= _FRAME_HDR.size:
            (length,) = _FRAME_HDR.unpack_from(buf, off)
            start = off + _FRAME_HDR.size
            if len(buf) - start < length:
                break
            try:
                msgs.append(pickle.loads(bytes(buf[start:start + length])))
            except Exception:
                pass  # undecodable frame: skip it, framing stays aligned
            off = start + length
        if off:
            del buf[:off]
        return msgs

    def _poll_messages(self, timeout: float) -> List[tuple]:
        """Wait up to ``timeout`` for worker reports across all pipes."""
        fds = [fd for fd in self._rfds if fd is not None]
        if not fds:
            time.sleep(timeout)
            return []
        try:
            ready, _, _ = select.select(fds, [], [], timeout)
        except OSError:
            return []  # a pipe was replaced under us: caller re-polls
        msgs: List[tuple] = []
        for fd in ready:
            msgs.extend(self._drain_worker(self._rfds.index(fd)))
        return msgs

    # -- dispatch ------------------------------------------------------------

    def run(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        costs: Optional[Sequence[float]] = None,
        groups: Optional[Sequence[Any]] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
        profile: bool = False,
    ) -> Tuple[List[Any], SchedStats]:
        """Run ``fn`` over ``points``; returns (ordered results, stats).

        ``on_result(i, value)`` fires as each point's value arrives
        (arbitrary order) — the overlapped-cache-write hook.  ``costs``
        (default uniform) are the points' :func:`point_cost` prices and
        ``groups`` their warm-node group keys.  Exceptions raised by
        ``fn`` propagate.  Lost workers are respawned and their points
        re-dispatched; a point out of poison strikes, and every point a
        broken pool left missing, is computed in-process.
        """
        points = list(points)
        n = len(points)
        stats = SchedStats(
            points=n, workers=self.workers, pooled=not self.broken
        )
        results: List[Any] = [None] * n
        got = [False] * n
        if self.broken or n == 0:
            _salvage(fn, points, results, got, on_result, stats)
            return results, stats
        plans = build_chunks(
            costs if costs is not None else [1.0] * n, groups, self.workers
        )
        router = _Router(plans, self.workers)
        remaining = n
        strikes: Dict[int, int] = {}
        redo: "deque[int]" = deque()
        self._epoch += 1
        epoch = self._epoch
        t_base = time.monotonic()
        #: frames drained but not yet handled (the pipe pump can surface
        #: several completions in one poll)
        pending_msgs: "deque[tuple]" = deque()
        #: wid -> (chunk, dispatch timestamp)
        in_flight: Dict[int, Tuple[Chunk, float]] = {}
        next_cid = sum(len(p.chunks) for p in plans)

        def fill(i: int, v: Any) -> None:
            # Deduplicating sink: a hung-killed worker's late completion
            # can race its points' re-dispatch — first value wins (they
            # are bit-identical anyway; the simulator is deterministic).
            nonlocal remaining
            if got[i]:
                return
            got[i] = True
            remaining -= 1
            results[i] = v
            if on_result is not None:
                on_result(i, v)

        def dispatch(wid: int) -> None:
            ch = router.next_for(wid)
            if ch is None:
                # Router drained: pick up re-dispatched points (one per
                # chunk — they already cost a worker once).
                nonlocal next_cid
                while redo and got[redo[0]]:
                    redo.popleft()
                if not redo:
                    return
                i = redo.popleft()
                ch = Chunk(next_cid, ("_redo", i), (i,))
                next_cid += 1
            self._inboxes[wid].put(
                (epoch, ch.cid, fn, [points[i] for i in ch.indices],
                 list(ch.indices))
            )
            in_flight[wid] = (ch, time.monotonic())

        def on_worker_lost(wid: int, why: str) -> None:
            """Blame, requeue, respawn — or escalate to _SchedBroken."""
            # The dying worker may have shipped complete frames before the
            # kill landed; salvage them (``fill`` dedupes) before the
            # respawn discards its pipe.
            for msg in self._drain_worker(wid):
                if msg[0] == "done" and msg[1] == epoch and msg[7]:
                    for i, v in zip(msg[7], pickle.loads(msg[4])):
                        fill(i, v)
            ent = in_flight.pop(wid, None)
            if ent is not None:
                ch, _t = ent
                blamed = self._cur[wid]
                for i in ch.indices:
                    if got[i]:
                        continue
                    if i == blamed:
                        strikes[i] = strikes.get(i, 0) + 1
                        if strikes[i] >= self.poison_strikes:
                            # Out of strikes: the parent computes it, as a
                            # serial sweep would.
                            fill(i, fn(points[i]))
                            stats.fallback_points += 1
                            continue
                    redo.append(i)
            if self.respawns >= self.max_respawns:
                raise _SchedBroken(
                    f"respawn budget exhausted ({self.respawns}/"
                    f"{self.max_respawns}) after {why}"
                )
            self._respawn(wid)
            stats.respawns += 1
            dispatch(wid)

        def supervise() -> None:
            now = time.monotonic()
            for wid in range(self.workers):
                p = self._procs[wid]
                if not p.is_alive():
                    on_worker_lost(
                        wid, f"worker {wid} died (exitcode {p.exitcode})"
                    )
                    continue
                ent = in_flight.get(wid)
                if ent is None or self.hung_s is None:
                    continue
                ch, t_disp = ent
                if now - max(self._hb[wid], t_disp) > self.hung_s:
                    # Alive but silent past the deadline: hung, not slow —
                    # every point stamps a heartbeat on entry.
                    stats.hung_kills += 1
                    try:
                        p.kill()
                    except Exception:
                        pass
                    p.join(timeout=2.0)
                    on_worker_lost(wid, f"worker {wid} hung, killed")

        try:
            for wid in range(self.workers):
                dispatch(wid)
            while remaining > 0:
                if not in_flight:
                    # Workers idle with work left: top everyone back up
                    # (points can enter `redo` outside dispatch paths).
                    for wid in range(self.workers):
                        if wid not in in_flight:
                            dispatch(wid)
                    if not in_flight:
                        if remaining > 0:
                            raise _SchedBroken("scheduler starved")
                        break
                if not pending_msgs:
                    pending_msgs.extend(self._poll_messages(_POLL_S))
                    if not pending_msgs:
                        supervise()
                        continue
                msg = pending_msgs.popleft()
                tag = msg[0]
                if tag == "done":
                    _, ep, wid, cid, buf, t0w, t1w, idxs = msg
                    if ep != epoch:
                        continue  # stale chunk from an aborted run
                    ent = in_flight.pop(wid, None)
                    if ent is None or ent[0].cid != cid:
                        # Completion raced loss detection (the worker
                        # finished right before supervision declared it
                        # lost): salvage the values — `fill` dedupes
                        # against any re-dispatch already in flight.
                        if idxs:
                            for i, v in zip(idxs, pickle.loads(buf)):
                                fill(i, v)
                        continue
                    ch = ent[0]
                    vals = pickle.loads(buf)
                    for i, v in zip(ch.indices, vals):
                        fill(i, v)
                    stats.note_chunk(
                        wid, ch, t0w - t_base, t1w - t_base, profile
                    )
                    dispatch(wid)
                elif tag == "err":
                    _, ep, wid, cid, exc = msg
                    if ep != epoch:
                        continue
                    in_flight.pop(wid, None)
                    raise exc
        except _SchedBroken as exc:
            stats.broken_reason = str(exc)
            self.broken = True
            self.close()
            _salvage(fn, points, results, got, on_result, stats)
        return results, stats
