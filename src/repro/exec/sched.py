"""Work-stealing sweep scheduler with cost-model chunking and sticky routing.

This is the one dispatcher behind :func:`repro.exec.sweep.sweep`.  A
fixed-size chunking over a plain ``ProcessPoolExecutor`` would park a
whole chunk behind a long-tail point (a large-message contended convoy,
per Fig 7 of the source paper) while other workers sit idle, and would
land a point on whichever worker the executor picks — never deliberately
on the one whose warm :class:`~repro.core.runner.NodePool` already holds
its node.  Three cooperating pieces avoid both:

* :class:`CostModel` — predicts a per-point cost from the analytic
  latency model (:mod:`repro.core.model`); unmodeled points fall back to
  a ``(procs, nbytes, lane)`` heuristic.  Costs only *order* work, they
  never change results.
* :func:`build_chunks` — adaptive chunking: points are grouped by their
  warm-node group key and split into chunks targeting ``total_cost /
  (workers * oversub)``, so a convoy-heavy point rides alone while
  trivially cheap points batch up; groups are dispatched biggest-first so
  the expensive tail starts immediately and small chunks back-fill.
* :class:`StickyPool` — persistent worker processes with *per-worker*
  inboxes (a plain ``ProcessPoolExecutor`` cannot address a specific
  worker, which sticky routing requires).  Groups are LPT-assigned to
  workers — preferring a worker whose last-reported
  :func:`~repro.core.runner.NodePool.warm_keys` already contain the
  group's pool key — and a drained worker steals **whole groups** from
  the tail of the most loaded victim.  A group with an in-flight chunk is
  never stolen, so a warm group never runs on two workers concurrently
  (``tests/test_sched.py`` asserts this), and within a group execution
  order is input order: exactly the adjacency the warm-node pool needs.

Results stream back as chunks complete (the ``on_result`` callback is how
:func:`repro.exec.sweep.sweep` overlaps cache writes with the remaining
compute) and are reassembled in input order, preserving the
serial == pooled == cached bit-identity contract: chunking, stealing and
routing change *where and when* a point runs, never its inputs — every
point still executes on a fresh-or-reset node.

On a host where the pool would lose (one usable CPU, or process start-up
denied), the same chunking/routing machinery runs inline in-process —
same results, same stats, no IPC tax.

**Supervision.**  The pool watches its workers, not just their pipes:

* every worker stamps a shared heartbeat slot before each point and
  reports which point it is on, so the parent distinguishes a *hung*
  worker (alive, no heartbeat progress for ``REPRO_HUNG_CHUNK_S``
  seconds while a chunk is in flight) from a *dead* one (``is_alive()``
  false) — a hung worker is SIGKILLed and treated as lost;
* results travel over per-worker *lock-free framed pipes* (a length
  prefix per pickled message, non-blocking parent reads): a SIGKILL
  landing mid-report can tear at most that worker's own trailing frame —
  never a lock another worker needs, which a shared queue could strand —
  and every complete frame the dying worker shipped is salvaged;
* a lost worker is respawned (fresh inbox and result pipe — a kill can
  strand the old queue's read lock or leave a torn frame) with
  exponential backoff, bounded by ``REPRO_SCHED_RESPAWNS`` total
  respawns per pool, and its unfinished chunk's points are re-dispatched;
* the point a worker was executing when it was lost takes a **poison
  strike**; at ``REPRO_POISON_STRIKES`` strikes the point is retried once
  in a sandboxed one-shot subprocess under a tight deadline, and if that
  also fails it is **quarantined**: its result slot becomes a
  :class:`PoisonedPoint` and the sweep completes without it instead of
  failing (the sweep report carries the quarantine);
* exhausting the respawn budget marks the pool broken and the missing
  points are recomputed inline, so a sweep always completes.

:class:`CircuitBreaker` is the systemic-failure ladder above all of
this: repeated pool-level breakage degrades the context's dispatch from
this scheduler to a plain in-process loop.
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
    "CostModel",
    "SchedStats",
    "StickyPool",
    "Chunk",
    "CircuitBreaker",
    "PoisonedPoint",
    "build_chunks",
    "run_scheduled",
    "usable_cpus",
    "resolve_hung_s",
    "resolve_max_respawns",
    "resolve_poison_strikes",
]

#: Outstanding-chunk multiple the adaptive chunker targets per worker:
#: chunk cost aims at ``total / (workers * OVERSUB)`` so every worker has
#: slack to back-fill behind a straggler without drowning in dispatch.
OVERSUB = 4

#: Hard cap on points per chunk regardless of predicted cost.
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
# Supervision knobs
# --------------------------------------------------------------------------

ENV_HUNG_S = "REPRO_HUNG_CHUNK_S"
ENV_MAX_RESPAWNS = "REPRO_SCHED_RESPAWNS"
ENV_POISON_STRIKES = "REPRO_POISON_STRIKES"

#: a worker whose in-flight chunk shows no per-point heartbeat progress
#: for this long is declared hung and killed; generous by default — no
#: legitimate sweep point is minutes of wall time — and ``0`` disables.
DEFAULT_HUNG_S = 300.0

#: worker-loss blames before a point is sandboxed instead of re-pooled
DEFAULT_POISON_STRIKES = 2

#: wall-clock budget of the sandboxed one-shot retry of a poisoned point
SANDBOX_DEADLINE_S = 10.0


def resolve_hung_s(hung_s: Any = None) -> Optional[float]:
    """Explicit argument > ``REPRO_HUNG_CHUNK_S`` > 300 s; <= 0 disables."""
    if hung_s is None:
        raw = os.environ.get(ENV_HUNG_S, "").strip()
        if not raw:
            return DEFAULT_HUNG_S
        hung_s = raw
    try:
        hung_s = float(hung_s)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid hung-chunk timeout {hung_s!r} (set {ENV_HUNG_S} to "
            f"seconds; 0 disables)"
        ) from None
    return hung_s if hung_s > 0 else None


def resolve_max_respawns(max_respawns: Any, workers: int) -> int:
    """Explicit argument > ``REPRO_SCHED_RESPAWNS`` > ``4 * workers``."""
    if max_respawns is None:
        raw = os.environ.get(ENV_MAX_RESPAWNS, "").strip()
        if not raw:
            return 4 * max(int(workers), 1)
        max_respawns = raw
    try:
        return max(int(max_respawns), 0)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid respawn budget {max_respawns!r} (set {ENV_MAX_RESPAWNS} "
            f"to an integer)"
        ) from None


def resolve_poison_strikes(strikes: Any = None) -> int:
    """Explicit argument > ``REPRO_POISON_STRIKES`` > 2 (min 1)."""
    if strikes is None:
        raw = os.environ.get(ENV_POISON_STRIKES, "").strip()
        if not raw:
            return DEFAULT_POISON_STRIKES
        strikes = raw
    try:
        return max(int(strikes), 1)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid poison-strike count {strikes!r} (set "
            f"{ENV_POISON_STRIKES} to an integer >= 1)"
        ) from None


@dataclass(frozen=True)
class PoisonedPoint:
    """A sweep point quarantined by supervision instead of computed.

    Occupies the point's result slot so the sweep completes; the sweep
    layer skips cache/journal writes for it and counts it in the report.
    Only ever produced under worker loss (chaos, a genuinely crashing
    point) — default healthy runs never see one.
    """

    index: int
    strikes: int
    reason: str


class CircuitBreaker:
    """Systemic-failure ladder: ``sched`` → ``serial``.

    Worker-level trouble is absorbed by supervision (respawn, poison);
    the breaker counts *pool-level* failures — a :class:`StickyPool`
    breaking or refusing to start — and after ``threshold`` of them
    permanently (for this context) degrades dispatch to a plain
    in-process loop.  That floor cannot fail systemically, only per-point.
    """

    def __init__(self, threshold: int = 2):
        self.threshold = max(int(threshold), 1)
        self.failures = 0

    @property
    def tripped(self) -> bool:
        return self.failures >= self.threshold

    @property
    def state(self) -> str:
        return "serial" if self.tripped else "sched"

    def record_failure(self) -> None:
        self.failures += 1

    def describe(self) -> str:
        return f"breaker={self.state} (failures={self.failures})"


# --------------------------------------------------------------------------
# Cost model
# --------------------------------------------------------------------------


class CostModel:
    """Predicted per-point cost, in (dimensionless) model units.

    For collective points the analytic model's predicted latency is the
    cost — the same family of T(eta, p) curves the tuner ranks algorithms
    with, so relative magnitudes are meaningful.  A point whose algorithm
    has no closed-form model falls back to ``procs * nbytes`` scaled by a
    per-lane factor.  Scheduling quality degrades gracefully with cost
    quality; correctness never depends on it.
    """

    #: relative transfer-cost weight per transport lane for the fallback
    #: heuristic (shm double-copies; mapped windows copy pin-free)
    LANE_FACTOR = {"cma": 1.0, "shm": 1.4, "xpmem": 0.8}

    def __init__(self):
        self._models: Dict[Any, Any] = {}
        self._memo: Dict[Any, float] = {}

    def _model_for(self, arch: Any):
        key = arch if isinstance(arch, str) else id(arch)
        model = self._models.get(key)
        if model is None:
            from repro.core.model import AnalyticModel

            if isinstance(arch, str):
                from repro.machine import get_arch

                arch = get_arch(arch)
            model = AnalyticModel(arch)
            self._models[key] = model
        return model

    def heuristic(self, procs: int, nbytes: int, lane: str = "cma") -> float:
        return (
            max(int(procs), 1)
            * max(int(nbytes), 1)
            * 1e-3
            * self.LANE_FACTOR.get(lane, 1.0)
        )

    def cost(self, pt: Any) -> float:
        """Predicted cost of one sweep point (never raises)."""
        coll = getattr(pt, "collective", None)
        if coll is None:
            return self._generic_cost(pt)
        arch = getattr(pt, "arch", None)
        memo_key = (
            coll,
            getattr(pt, "algorithm", None),
            arch if isinstance(arch, str) else id(arch),
            getattr(pt, "procs", 0),
            getattr(pt, "eta", 0),
            getattr(pt, "params", ()),
            getattr(pt, "lane", "cma"),
        )
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        cost = self._collective_cost(pt)
        self._memo[memo_key] = cost
        return cost

    def _collective_cost(self, pt: Any) -> float:
        procs = getattr(pt, "procs", 2)
        eta = getattr(pt, "eta", 4096)
        try:
            model = self._model_for(pt.arch)
        except Exception:
            return self.heuristic(procs, eta, getattr(pt, "lane", "cma"))
        try:
            return float(
                model.predict(
                    pt.collective, pt.algorithm, procs, eta,
                    **dict(getattr(pt, "params", ()) or ()),
                )
            )
        except (KeyError, TypeError, ValueError):
            return self.heuristic(procs, eta, getattr(pt, "lane", "cma"))

    def _generic_cost(self, pt: Any) -> float:
        """Non-collective points (microbenches): size-ish kwargs if any."""
        kwargs = dict(getattr(pt, "kwargs", ()) or ())
        nbytes = kwargs.get("nbytes") or kwargs.get("eta") or 4096
        readers = kwargs.get("readers") or kwargs.get("procs") or 1
        try:
            return self.heuristic(int(readers), int(nbytes))
        except (TypeError, ValueError):
            return 1.0


# --------------------------------------------------------------------------
# Chunking
# --------------------------------------------------------------------------


class Chunk:
    """A dispatch unit: consecutive same-group point indices."""

    __slots__ = ("cid", "group", "indices", "cost", "stolen")

    def __init__(self, cid: int, group: Any, indices: Tuple[int, ...], cost: float):
        self.cid = cid
        self.group = group
        self.indices = indices
        self.cost = cost
        self.stolen = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chunk({self.cid}, n={len(self.indices)}, cost={self.cost:.1f})"


class _GroupPlan:
    """All of one group's chunks, dispatched in order by one worker."""

    __slots__ = ("group", "chunks", "cost", "stolen", "busy")

    def __init__(self, group: Any, chunks: "deque[Chunk]", cost: float):
        self.group = group
        self.chunks = chunks
        self.cost = cost
        self.stolen = False  # picked up via a steal (rides into chunk stats)
        self.busy = False    # has an in-flight chunk; never stealable


def build_chunks(
    costs: Sequence[float],
    groups: Optional[Sequence[Any]],
    workers: int,
    oversub: int = OVERSUB,
    max_chunk: int = MAX_CHUNK,
) -> List[_GroupPlan]:
    """Split points into cost-balanced chunks, grouped and ordered.

    Points are partitioned by ``groups`` (input order preserved within a
    group — the adjacency warm-node reuse depends on); each group is cut
    into chunks whose predicted cost targets ``total / (workers *
    oversub)``, capped at ``max_chunk`` points.  With ``groups=None``
    every chunk becomes its own group, i.e. unrestricted stealing.
    Returned plans are sorted biggest-cost-first (ties: first appearance),
    so the LPT assignment below sees the expensive tail before the filler.
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
        chunks: "deque[Chunk]" = deque()
        run: List[int] = []
        acc = 0.0
        gcost = 0.0
        for i in by_group[g]:
            run.append(i)
            acc += costs[i]
            if len(run) >= max_chunk or (target > 0 and acc >= target):
                chunks.append(Chunk(cid, g, tuple(run), acc))
                cid += 1
                gcost += acc
                run, acc = [], 0.0
        if run:
            chunks.append(Chunk(cid, g, tuple(run), acc))
            cid += 1
            gcost += acc
        if groups is None:
            # Ungrouped sweep: one pseudo-group per chunk, so the router
            # may steal at chunk granularity.
            for ch in chunks:
                ch.group = ("_chunk", ch.cid)
                plans.append(_GroupPlan(ch.group, deque([ch]), ch.cost))
        else:
            plans.append(_GroupPlan(g, chunks, gcost))
    plans.sort(key=lambda p: (-p.cost, p.chunks[0].indices[0] if p.chunks else 0))
    return plans


def _pool_key_of(group: Any) -> Optional[tuple]:
    """The warm-node pool key embedded in a sweep group key.

    :func:`repro.exec.sweep._pool_group_key` builds ``(arch_name, procs,
    verify, not warm, lane)`` — the first three fields are exactly
    :class:`~repro.core.runner.NodePool`'s entry key.  Foreign group keys
    simply don't get warm-affinity hints.
    """
    if isinstance(group, tuple) and len(group) >= 3:
        return tuple(group[:3])
    return None


# --------------------------------------------------------------------------
# Router: sticky assignment + whole-group stealing
# --------------------------------------------------------------------------


class _Router:
    """Parent-side dispatch state enforcing the no-concurrent-group rule.

    Groups are LPT-assigned (descending cost onto the least-loaded
    worker), except that a worker whose warm-node pool already holds the
    group's key is preferred while its load stays under 1.5x the mean —
    sticky routing pays for itself only until it unbalances the sweep.
    ``next_for`` dispatches from the worker's own front group (sticky:
    a group's chunks keep landing on one worker back-to-back); a worker
    with an empty queue steals a whole non-busy group from the tail of
    the most-loaded victim.
    """

    def __init__(
        self,
        plans: List[_GroupPlan],
        workers: int,
        warm_hint: Optional[Dict[int, Sequence[tuple]]] = None,
    ):
        self.steals = 0
        self.queues: List["deque[_GroupPlan]"] = [deque() for _ in range(workers)]
        self._busy: Dict[int, _GroupPlan] = {}
        loads = [0.0] * workers
        total = sum(p.cost for p in plans)
        mean = total / workers if workers else 0.0
        warm_hint = warm_hint or {}
        for plan in plans:
            wid = None
            pkey = _pool_key_of(plan.group)
            if pkey is not None:
                warm_wids = [
                    w for w, keys in warm_hint.items()
                    if w < workers and pkey in (keys or ())
                ]
                if warm_wids:
                    w = min(warm_wids, key=lambda w: (loads[w], w))
                    if mean <= 0 or loads[w] + plan.cost <= 1.5 * mean:
                        wid = w
            if wid is None:
                wid = min(range(workers), key=lambda w: (loads[w], w))
            loads[wid] += plan.cost
            self.queues[wid].append(plan)

    def _steal_into(self, wid: int) -> bool:
        """Move one stealable group from the richest victim to ``wid``."""
        best: Optional[Tuple[float, int, _GroupPlan]] = None
        for v, q in enumerate(self.queues):
            if v == wid:
                continue
            for plan in reversed(q):  # tail = cheapest-assigned first
                if plan.busy or not plan.chunks:
                    continue
                remaining = sum(c.cost for c in q if not c.busy)
                if best is None or remaining > best[0]:
                    best = (remaining, v, plan)
                break
        if best is None:
            return False
        _, victim, plan = best
        self.queues[victim].remove(plan)
        plan.stolen = True
        self.steals += 1
        self.queues[wid].append(plan)
        return True

    def next_for(self, wid: int) -> Optional[Chunk]:
        """The next chunk ``wid`` should run, stealing if drained."""
        q = self.queues[wid]
        while True:
            while q and not q[0].chunks:
                q.popleft()
            if not q:
                if not self._steal_into(wid):
                    return None
                continue
            plan = q[0]
            ch = plan.chunks.popleft()
            plan.busy = True
            ch.stolen = plan.stolen
            if not plan.chunks:
                q.popleft()  # exhausted once this chunk lands
            self._busy[wid] = plan
            return ch

    def on_done(self, wid: int) -> None:
        plan = self._busy.pop(wid, None)
        if plan is not None:
            plan.busy = False


# --------------------------------------------------------------------------
# Stats
# --------------------------------------------------------------------------


@dataclass
class SchedStats:
    """What one scheduled run did — folded into the sweep report line."""

    points: int = 0
    chunks: int = 0
    steals: int = 0
    workers: int = 1
    pooled: bool = False
    chunk_sizes: List[int] = field(default_factory=list)
    predicted_cost: float = 0.0
    #: summed worker-side chunk walls (compute seconds, not wall-clock)
    chunk_wall_s: float = 0.0
    #: scale-normalised |predicted - actual| summed over chunks, seconds
    cost_abs_err_s: float = 0.0
    #: points recomputed inline after a pool failure
    fallback_points: int = 0
    #: workers respawned after dying or being killed as hung
    respawns: int = 0
    #: workers SIGKILLed by hung-chunk detection
    hung_kills: int = 0
    #: poisoned points rescued by the sandboxed one-shot retry
    sandbox_rescues: int = 0
    #: points quarantined as :class:`PoisonedPoint` (result slot filled
    #: with the marker, sweep completes without them)
    poisoned: int = 0
    poisoned_indices: List[int] = field(default_factory=list)
    #: per-chunk timeline records (only when profiling was requested)
    profile: Optional[List[dict]] = None

    @property
    def cost_err_pct(self) -> Optional[float]:
        """Weighted predicted-vs-actual cost error, best scale applied.

        Cost units are model-us, walls are host seconds, so the scale
        between them is fitted (total actual / total predicted) and the
        error prices only *mis-ranking*: 0% means the model ordered every
        chunk perfectly, 100% means predictions were uninformative.
        """
        if self.chunk_wall_s <= 0:
            return None
        return 100.0 * self.cost_abs_err_s / self.chunk_wall_s

    def note_chunk(
        self,
        worker: int,
        chunk: Chunk,
        wall_s: float,
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
                    "predicted_cost": round(chunk.cost, 3),
                    "stolen": chunk.stolen,
                    "start_s": round(start_s, 6),
                    "end_s": round(end_s, 6),
                    "wall_s": round(wall_s, 6),
                }
            )

    def finalize(self, records: List[Tuple[float, float]]) -> None:
        """Fit the cost scale and accumulate the ranking error."""
        total_pred = sum(p for p, _ in records)
        total_wall = sum(w for _, w in records)
        self.predicted_cost = total_pred
        self.chunk_wall_s = total_wall
        if total_pred > 0 and total_wall > 0:
            scale = total_wall / total_pred
            self.cost_abs_err_s = sum(
                abs(p * scale - w) for p, w in records
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


def _worker_warm_keys() -> tuple:
    """This worker's warm-node pool keys (best-effort, never raises)."""
    try:
        from repro.core.runner import default_pool

        return default_pool().warm_keys()
    except Exception:
        return ()


def _chaos_point(cst) -> None:
    """Worker-side chaos draw around one point: kill or stall this worker.

    Only scheduler worker processes draw here — the parent, inline
    salvage, and the poison-retry sandbox never do, so chaos is always
    survivable by the supervision layer above it.
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
            out_fd,
            ("done", epoch, wid, cid, buf, t0, t1, _worker_warm_keys(), idxs),
        ):
            return


def _sandbox_main(conn, fn, point) -> None:
    """One-shot sandbox body: compute the point, ship the value, exit."""
    try:
        buf = pickle.dumps(fn(point), protocol=pickle.HIGHEST_PROTOCOL)
        conn.send(("ok", buf))
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        try:
            conn.send(("err", repr(exc)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class _SchedBroken(RuntimeError):
    """Internal: the pool is unrecoverable (triggers inline salvage)."""


# --------------------------------------------------------------------------
# The pool
# --------------------------------------------------------------------------


class StickyPool:
    """Persistent addressable workers for sticky, stealing dispatch.

    Unlike ``ProcessPoolExecutor`` the parent decides *which* worker gets
    each chunk, which is what warm-node affinity needs; workers keep
    their module-level :class:`~repro.core.runner.NodePool` warm across
    sweeps and report its keys with every completion, so the next sweep's
    router can route same-keyed groups back.  All failure modes degrade
    to inline recomputation of whatever is missing — never to a wrong or
    partial result.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        hung_s: Any = None,
        max_respawns: Any = None,
        poison_strikes: Any = None,
        sandbox_deadline_s: float = SANDBOX_DEADLINE_S,
    ):
        import multiprocessing as mp

        if workers < 2:
            raise ValueError("StickyPool needs >= 2 workers (run inline instead)")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        ctx = mp.get_context(start_method)
        self._mp_ctx = ctx
        self.workers = workers
        self.broken = False
        self.hung_s = resolve_hung_s(hung_s)
        self.max_respawns = resolve_max_respawns(max_respawns, workers)
        self.poison_strikes = resolve_poison_strikes(poison_strikes)
        self.sandbox_deadline_s = float(sandbox_deadline_s)
        #: workers respawned over this pool's lifetime (budget consumed)
        self.respawns = 0
        self._respawn_attempts = [0] * workers
        self._epoch = 0
        #: wid -> last reported warm-node pool keys
        self.warm_keys: Dict[int, tuple] = {}
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
        (arbitrary order) — the overlapped-cache-write hook.  Exceptions
        raised by ``fn`` propagate.  A worker death falls back to inline
        recomputation of the missing points.
        """
        points = list(points)
        n = len(points)
        if costs is None:
            costs = [1.0] * n
        stats = SchedStats(points=n, workers=self.workers, pooled=True)
        if n == 0:
            return [], stats
        if self.broken:
            stats.pooled = False
            return _run_inline(
                fn, points, costs, groups, on_result, profile, stats
            )
        plans = build_chunks(costs, groups, self.workers)
        router = _Router(plans, self.workers, warm_hint=self.warm_keys)
        results: List[Any] = [None] * n
        got = [False] * n
        remaining = n
        strikes: Dict[int, int] = {}
        redo: "deque[int]" = deque()
        records: List[Tuple[float, float]] = []
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

        def quarantine(i: int, reason: str) -> None:
            """Last rung of the poison ladder: sandbox once, then mark."""
            ok, payload = self._one_shot(fn, points[i])
            if ok:
                stats.sandbox_rescues += 1
                fill(i, payload)
                return
            stats.poisoned += 1
            stats.poisoned_indices.append(i)
            fill(
                i,
                PoisonedPoint(
                    index=i,
                    strikes=strikes.get(i, 0),
                    reason=f"{reason}; sandbox retry: {payload}",
                ),
            )

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
                ch = Chunk(next_cid, ("_redo", i), (i,), costs[i])
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
                if msg[0] == "done" and msg[1] == epoch and msg[8]:
                    for i, v in zip(msg[8], pickle.loads(msg[4])):
                        fill(i, v)
            ent = in_flight.pop(wid, None)
            if ent is not None:
                ch, _t = ent
                router.on_done(wid)
                blamed = self._cur[wid]
                for i in ch.indices:
                    if got[i]:
                        continue
                    if i == blamed:
                        strikes[i] = strikes.get(i, 0) + 1
                        if strikes[i] >= self.poison_strikes:
                            quarantine(
                                i, f"{why} x{strikes[i]} (worker {wid})"
                            )
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
                    on_worker_lost(wid, "worker died")
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
                    on_worker_lost(wid, "hung chunk killed")

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
                    _, ep, wid, cid, buf, t0w, t1w, warm, idxs = msg
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
                    self.warm_keys[wid] = warm
                    wall = t1w - t0w
                    records.append((ch.cost, wall))
                    stats.note_chunk(
                        wid, ch, wall, t0w - t_base, t1w - t_base, profile
                    )
                    router.on_done(wid)
                    dispatch(wid)
                elif tag == "err":
                    _, ep, wid, cid, exc = msg
                    if ep != epoch:
                        continue
                    in_flight.pop(wid, None)
                    router.on_done(wid)
                    raise exc
        except _SchedBroken:
            self.broken = True
            self.close()
            # Salvage: recompute only what's missing, inline, in order.
            for i in range(n):
                if not got[i]:
                    v = fn(points[i])
                    results[i] = v
                    if on_result is not None:
                        on_result(i, v)
                    stats.fallback_points += 1
        stats.steals = router.steals
        stats.finalize(records)
        return results, stats

    def _one_shot(self, fn, point) -> Tuple[bool, Any]:
        """Sandboxed single-point retry under a tight deadline.

        Runs ``fn(point)`` in a fresh subprocess (no scheduler worker
        state, no chaos role — worker-scoped chaos cannot follow it
        here) and returns ``(True, value)`` or ``(False, reason)``.
        """
        recv = None
        try:
            recv, send = self._mp_ctx.Pipe(duplex=False)
            p = self._mp_ctx.Process(
                target=_sandbox_main,
                args=(send, fn, point),
                daemon=True,
                name="repro-sched-sandbox",
            )
            p.start()
            send.close()
            p.join(timeout=self.sandbox_deadline_s)
            if p.is_alive():
                try:
                    p.kill()
                except Exception:
                    pass
                p.join(timeout=2.0)
                return False, f"deadline {self.sandbox_deadline_s:g}s exceeded"
            try:
                if recv.poll(0):
                    tag, payload = recv.recv()
                    if tag == "ok":
                        return True, pickle.loads(payload)
                    return False, str(payload)
            except EOFError:
                pass  # died with the pipe open but nothing written
            return False, f"sandbox exited {p.exitcode} without a result"
        except Exception as exc:
            return False, f"sandbox unavailable: {exc!r}"
        finally:
            if recv is not None:
                try:
                    recv.close()
                except Exception:
                    pass


# --------------------------------------------------------------------------
# Inline execution (single CPU, pool unavailable, or salvage)
# --------------------------------------------------------------------------


def _run_inline(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    costs: Sequence[float],
    groups: Optional[Sequence[Any]],
    on_result: Optional[Callable[[int, Any], None]],
    profile: bool,
    stats: SchedStats,
) -> Tuple[List[Any], SchedStats]:
    """The same chunk plan executed in-process, big groups first."""
    n = len(points)
    plans = build_chunks(costs, groups, workers=1)
    results: List[Any] = [None] * n
    records: List[Tuple[float, float]] = []
    t_base = time.monotonic()
    for plan in plans:
        for ch in plan.chunks:
            t0 = time.monotonic()
            for i in ch.indices:
                v = fn(points[i])
                results[i] = v
                if on_result is not None:
                    on_result(i, v)
            t1 = time.monotonic()
            wall = t1 - t0
            records.append((ch.cost, wall))
            stats.note_chunk(0, ch, wall, t0 - t_base, t1 - t_base, profile)
    stats.finalize(records)
    return results, stats


def run_scheduled(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    workers: int = 1,
    costs: Optional[Sequence[float]] = None,
    groups: Optional[Sequence[Any]] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    profile: bool = False,
    pool: Optional[StickyPool] = None,
) -> Tuple[List[Any], SchedStats]:
    """One-shot scheduled run: pooled when it can win, else inline.

    ``pool`` lends a long-lived :class:`StickyPool` (the
    :class:`~repro.exec.context.ExecContext` owns one per session);
    without it a throwaway pool is created only when ``workers > 1``
    *and* the host actually has more than one usable CPU — on a one-CPU
    host process fan-out is pure IPC loss, so the cost model's cheapest
    plan is the inline one.
    """
    points = list(points)
    if costs is None:
        costs = [1.0] * len(points)
    if pool is not None and not pool.broken:
        return pool.run(
            fn, points, costs=costs, groups=groups,
            on_result=on_result, profile=profile,
        )
    workers = min(workers, len(points))
    if workers > 1 and usable_cpus() > 1:
        try:
            own = StickyPool(workers)
        except Exception:
            own = None
        if own is not None:
            try:
                return own.run(
                    fn, points, costs=costs, groups=groups,
                    on_result=on_result, profile=profile,
                )
            finally:
                own.close()
    stats = SchedStats(points=len(points), workers=1, pooled=False)
    return _run_inline(fn, points, costs, groups, on_result, profile, stats)
