"""The cache-aware sweep engine.

Everything the benchmark harness measures flows through one of three
entry points:

* :func:`run_specs` / :func:`run_collective` — collective points
  (:class:`~repro.core.runner.CollectiveSpec`);
* :func:`sweep_microbench` — raw CMA microbenchmark points
  (:mod:`repro.bench.microbench` functions);
* :func:`cached_call` — expensive scalar computations (the NLLS fits in
  :mod:`repro.core.fitting`).

Each checks the active :class:`~repro.exec.context.ExecContext`'s cache
first, computes the misses (on the context's worker pool,
:mod:`repro.exec.sched`, or in a plain in-process loop), stores the
computed values back, and returns results in input order.  A pool
worker runs exactly what the plain loop runs — the same points, collective
points as their own specs — and ships back the full values.  The
determinism contract — enforced by ``tests/test_exec_differential.py``
— is that the returned values are *bit-identical* whether a point was
computed serially, in a pool worker, or served from a warm cache: every
point runs on a fresh or reset simulated node, so points share no mutable
state, and the simulator itself is deterministic.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.runner import CollectiveResult, CollectiveSpec
from repro.core.runner import run_collective as _run_collective_fresh
from repro.core.runner import run_collective_pooled as _run_collective_pooled
from repro.exec import context as _context
from repro.exec.sched import point_cost

__all__ = [
    "sweep",
    "run_specs",
    "run_collective",
    "sweep_microbench",
    "microbench_point",
    "cached_call",
]

_MISS = object()


@contextmanager
def _group_commit(ctx) -> Iterator[None]:
    """Hold the context cache's writes in one
    :meth:`~repro.exec.cache.ResultCache.batch`; the outermost batch counts
    its publications into the context's stats."""
    cache = ctx.cache if ctx is not None else None
    if cache is None:
        yield
        return
    outer = not cache.batching
    flushes, flushed = cache.flushes, cache.flushed
    try:
        with cache.batch():
            yield
    finally:
        if outer:
            ctx.stats.cache_flushes += cache.flushes - flushes
            ctx.stats.cache_puts += cache.flushed - flushed


def sweep(
    kind: str,
    runner: Callable[[Any], Any],
    points: Sequence[Any],
    group_key: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """Run ``runner`` over ``points`` under the active context.

    Each point is fingerprinted for its cache key and is exactly what
    ``runner`` receives, in the parent or in a pool worker; ``runner``
    must be a picklable top-level callable for the pool path.

    ``group_key`` marks points that share a warm-node pool key: the pool
    runs same-keyed points on one worker back to back, so a leased node is
    reused instead of rotating through the pool.  Results are still
    returned in input order, and each point is simulated on a
    fresh-or-reset node either way, so values are unaffected.

    Dispatch: when :meth:`~repro.exec.context.ExecContext.sched_pool`
    returns a pool, cache misses go through ``pool.run``
    (:mod:`repro.exec.sched`) — groups priced by :func:`point_cost` and
    handed out biggest first, results streamed back as chunks complete.
    Otherwise (no context, a serial context, a single miss, one usable CPU
    or a pool that broke earlier in the context) the misses run in a
    plain in-process loop, in input order.  Either way every computed
    value is staged into the cache through one callback, and the values
    are bit-identical (``tests/test_sched.py``).

    Cache writes are group-committed: the sweep runs inside one
    :meth:`~repro.exec.cache.ResultCache.batch` (a sweep nested in another
    sweep or in :func:`cached_call` joins the outer one), so the outermost
    publishes the computed values in one fsync pass when it ends — or
    raises — and a long sweep publishes about once a second
    (:data:`~repro.exec.cache.MAX_STAGE_AGE_S`).

    Crash safety is the cache's: a killed sweep loses at most the points
    staged since the last publication (about a second's worth), and
    re-running it serves every published point as a hit — values
    bit-identical — and computes only the rest.  With the cache off a
    rerun recomputes the sweep.  Every slot of the returned list holds a
    computed value: a point the pool cannot finish is computed in the
    parent, as a serial sweep would (:mod:`repro.exec.sched`).
    """
    ctx = _context.current()
    cache = ctx.cache if ctx is not None else None
    points = list(points)
    results: List[Any] = [_MISS] * len(points)
    keys: List[Optional[str]] = [None] * len(points)
    miss: List[int] = []
    if cache is not None:
        for i, pt in enumerate(points):
            keys[i] = cache.key_for(kind, pt)
        for i, (hit, value) in enumerate(cache.get_many(keys)):
            if hit:
                results[i] = value
            else:
                miss.append(i)
    else:
        miss = list(range(len(points)))
    cache_hits = len(points) - len(miss)

    run_wall = 0.0
    sim_events = 0

    def on_result(j: int, value: Any) -> None:
        # Pooled points stream back as chunks complete: stage each into
        # the cache's batch as it arrives.
        nonlocal sim_events
        i = miss[j]
        results[i] = value
        # Collective results report how many simulator events the point
        # cost; cache hits replay none, so only misses count.
        sim_events += getattr(value, "sim_events", 0) or 0
        if cache is not None:
            cache.put(keys[i], value)

    # One group commit for the sweep's writes (nested sweeps join the
    # outermost): entries are staged as they arrive and published,
    # durable, when it closes — also when a point raises.
    with _group_commit(ctx):
        if miss:
            miss_points = [points[i] for i in miss]
            t0 = time.perf_counter()
            # No pool (serial context, one usable CPU, a broken pool)
            # means the plain loop, in input order.
            pool = (
                ctx.sched_pool()
                if ctx is not None and len(miss) > 1 else None
            )
            if pool is None:
                for j, pt in enumerate(miss_points):
                    on_result(j, runner(pt))
            else:
                _, sstats = pool.run(
                    runner,
                    miss_points,
                    costs=[point_cost(p) for p in miss_points],
                    groups=(
                        [group_key(p) for p in miss_points]
                        if group_key is not None else None
                    ),
                    on_result=on_result,
                )
                ctx.stats.record_sched(sstats)
            run_wall = time.perf_counter() - t0
    if ctx is not None:
        ctx.stats.points_total += len(points)
        ctx.stats.points_run += len(miss)
        ctx.stats.cache_hits += cache_hits
        ctx.stats.sim_events += sim_events
        ctx.stats.run_wall_s += run_wall
        ctx.stats.record_kind(kind, len(points), len(miss), cache_hits)
        if cache is not None:
            ctx.stats.cache_quarantined = max(
                ctx.stats.cache_quarantined, cache.quarantine_count()
            )
    return results


# -- collective points -------------------------------------------------------


def _compute_collective(spec: CollectiveSpec, warm: bool) -> CollectiveResult:
    """The one place a sweep point's simulation actually runs.

    ``warm`` selects the warm-node pool (bit-identical, skips per-point
    node construction; every fault-free point is warm); tests patch this
    symbol to count executions.
    """
    if warm:
        return _run_collective_pooled(spec)
    return _run_collective_fresh(spec)


def _exec_point(spec: CollectiveSpec) -> CollectiveResult:
    """The sweep runner, in the parent and in pool workers alike.

    It looks ``_compute_collective`` up at call time, so a patch made
    before a pool forks reaches its workers.  Fault plans are run-scoped
    state outside the warm-pool key, so faulted points build fresh nodes.
    """
    return _compute_collective(spec, spec.faults is None)


def _pool_group_key(spec: CollectiveSpec) -> Tuple[str, int, bool, bool, str]:
    """Warm-node pool key of a point (:class:`~repro.core.runner.NodePool`
    keys nodes on ``(arch name, procs, verify)``), plus whether it is
    faulted and its transport lane: faulted (cold) points sort apart from
    warm ones instead of interleaving with them, so a chunk's leased node
    never alternates between pooled reuse and fresh builds, and same-lane
    points land adjacently (each point still resets the node either way)."""
    name = str(getattr(spec.arch, "name", ""))
    return (name, spec.procs, spec.verify, spec.faults is not None, spec.lane)


def run_specs(specs: Iterable[CollectiveSpec]) -> List[CollectiveResult]:
    """Run every spec, pooled and cached per the active context."""
    return sweep(
        "collective", _exec_point, list(specs), group_key=_pool_group_key
    )


def run_collective(spec: CollectiveSpec) -> CollectiveResult:
    """Cache-aware single point (a one-element :func:`run_specs`)."""
    return run_specs([spec])[0]


# -- microbenchmark points ---------------------------------------------------


@dataclass(frozen=True)
class MicrobenchPoint:
    """One microbench invocation, with arguments normalised by name so the
    cache key is identical however the call was spelled."""

    fn: str
    arch: Any
    kwargs: Tuple[Tuple[str, Any], ...]


def microbench_point(fn_name: str, arch, args=(), kwargs=None) -> MicrobenchPoint:
    import repro.bench.microbench as mb

    target = inspect.unwrap(getattr(mb, fn_name))
    bound = inspect.signature(target).bind(arch, *args, **(kwargs or {}))
    bound.apply_defaults()
    items = {k: v for k, v in bound.arguments.items() if k != "arch"}
    return MicrobenchPoint(fn_name, arch, tuple(sorted(items.items())))


def _exec_microbench(pt: MicrobenchPoint):
    import repro.bench.microbench as mb

    fn = inspect.unwrap(getattr(mb, pt.fn))
    return fn(pt.arch, **dict(pt.kwargs))


def sweep_microbench(fn_name: str, calls: Sequence[Tuple[Any, tuple, dict]]) -> List[Any]:
    """Fan microbench points out: ``calls`` is ``(arch, args, kwargs)`` each."""
    points = [microbench_point(fn_name, a, args, kw) for a, args, kw in calls]
    return sweep(f"microbench.{fn_name}", _exec_microbench, points)


# -- scalar cached computations ----------------------------------------------


def cached_call(kind: str, payload: Any, compute: Callable[[], Any]) -> Any:
    """Memoise one expensive computation in the active context's cache.

    With no context (or no cache) this is just ``compute()``.  The
    computation runs inside one cache batch, so the sweeps it makes (a
    fit's microbenchmarks) are published together with its own value.
    """
    ctx = _context.current()
    if ctx is None or ctx.cache is None:
        return compute()
    with _group_commit(ctx):
        key = ctx.cache.key_for(kind, payload)
        hit, value = ctx.cache.get(key)
        ctx.stats.points_total += 1
        if hit:
            ctx.stats.cache_hits += 1
            ctx.stats.record_kind(kind, 1, 0, 1)
            return value
        t0 = time.perf_counter()
        value = compute()
        ctx.stats.run_wall_s += time.perf_counter() - t0
        ctx.stats.points_run += 1
        ctx.stats.sim_events += getattr(value, "sim_events", 0) or 0
        ctx.stats.record_kind(kind, 1, 1, 0)
        ctx.cache.put(key, value)
    return value
