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
computed values back, and returns results in input order.  The
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
from functools import lru_cache
from typing import (
    Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.runner import CollectiveResult, CollectiveSpec
from repro.core.runner import run_collective as _run_collective_fresh
from repro.core.runner import run_collective_pooled as _run_collective_pooled
from repro.exec import context as _context
from repro.exec.sched import PoisonedPoint, point_cost

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
    payloads: Optional[Sequence[Any]] = None,
    decode: Optional[Callable[[Any, int], Any]] = None,
    group_key: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """Run ``runner`` over ``points`` under the active context.

    ``payloads`` (defaults to the points themselves) are what gets
    fingerprinted for the cache key; ``runner`` must be a picklable
    top-level callable for the pool path.  ``decode(raw, i)`` inflates a
    slimmed cross-process record back into the full value for point ``i``
    — applied *before* ``cache.put``, so the on-disk cache always stores
    full values and stays byte-compatible with entries written by older
    code under the same ``CACHE_VERSION``.

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
    or a tripped circuit breaker) the misses run in a plain in-process
    loop, in input order.  Either way every computed value is decoded
    and staged into the cache through one callback, and the values are
    bit-identical (``tests/test_sched.py``).

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
    rerun recomputes the sweep.  Points quarantined by the scheduler's
    poison ladder arrive as :class:`~repro.exec.sched.PoisonedPoint`
    markers in the result list (never cached); healthy runs never see one.
    """
    ctx = _context.current()
    cache = ctx.cache if ctx is not None else None
    points = list(points)
    results: List[Any] = [_MISS] * len(points)
    keys: List[Optional[str]] = [None] * len(points)
    miss: List[int] = []
    if cache is not None:
        for i, pt in enumerate(points):
            keys[i] = cache.key_for(
                kind, payloads[i] if payloads is not None else pt
            )
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
    breaker = ctx.breaker if ctx is not None else None

    def on_result(j: int, value: Any) -> None:
        # Pooled points stream back as chunks complete: decode, stage into
        # the cache's batch as each one arrives.
        nonlocal sim_events
        i = miss[j]
        if isinstance(value, PoisonedPoint):
            # Quarantined, not computed: re-anchor the marker to the
            # sweep-global index; never cache it (a rerun retries the
            # point).
            results[i] = PoisonedPoint(
                index=i, strikes=value.strikes, reason=value.reason
            )
            return
        if decode is not None:
            value = decode(value, i)
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
            # No pool (serial context, one usable CPU, a tripped breaker)
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
        if breaker is not None:
            ctx.stats.breaker_state = breaker.state
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


@lru_cache(maxsize=8)
def _preset_arch(name: str):
    """Per-process preset architecture (workers rebuild each name once)."""
    from repro.machine import get_arch

    return get_arch(name)


@dataclass(frozen=True)
class _CollectivePoint:
    """Slim picklable stand-in for a :class:`CollectiveSpec`.

    ``arch`` is the preset *name* whenever the spec's arch is value-equal
    to that preset, so a thousand-point sweep doesn't re-ship the full
    parameter/topology tables per point; workers rebuild (and memoize) the
    preset locally.  A customised arch still travels whole.
    """

    collective: str
    algorithm: str
    arch: Any  # str preset name, or a full Architecture
    procs: int
    eta: int
    root: int
    in_place: bool
    params: Tuple[Tuple[str, Any], ...]
    verify: bool
    counts: Any
    faults: Any
    warm: bool
    #: transport lane (registry-resolved); rides along so group keys can
    #: separate lanes without re-resolving the registry on the worker side
    lane: str = "cma"


@dataclass
class _SlimResult:
    """A :class:`CollectiveResult` minus its spec (the parent re-attaches
    the original spec object, so results don't round-trip arch tables)."""

    latency_us: float
    per_rank_us: List[float]
    ctrl_messages: int
    cma_reads: int
    cma_writes: int
    sim_events: int
    trace_by_phase: dict
    fallbacks: int = 0
    retries: int = 0
    faults_injected: int = 0
    xpmem_reads: int = 0
    xpmem_writes: int = 0
    xpmem_attaches: int = 0
    xpmem_page_faults: int = 0


#: id(arch) -> (arch, preset-name-or-None).  The full-dataclass equality
#: check against the preset is expensive enough to show up per point on
#: thousand-point sweeps, and specs overwhelmingly share one arch object
#: — memoise the verdict by identity.  The strong reference pins the
#: object so its id cannot be recycled; bounded, cleared when full.
_ARCH_TOKENS: dict = {}


def _arch_token(arch: Any) -> Optional[str]:
    ent = _ARCH_TOKENS.get(id(arch))
    if ent is not None and ent[0] is arch:
        return ent[1]
    token = None
    name = getattr(arch, "name", None)
    if isinstance(name, str):
        try:
            if _preset_arch(name) == arch:
                token = name
        except KeyError:
            pass
    if len(_ARCH_TOKENS) > 64:
        _ARCH_TOKENS.clear()
    _ARCH_TOKENS[id(arch)] = (arch, token)
    return token


def _slim_point(spec: CollectiveSpec) -> _CollectivePoint:
    arch = spec.arch
    token = _arch_token(arch)
    if token is not None:
        arch = token
    return _CollectivePoint(
        collective=spec.collective,
        algorithm=spec.algorithm,
        arch=arch,
        procs=spec.procs,
        eta=spec.eta,
        root=spec.root,
        in_place=spec.in_place,
        params=tuple(sorted(spec.params.items())),
        verify=spec.verify,
        counts=spec.counts,
        faults=spec.faults,
        # Fault plans are run-scoped state outside the warm-pool key, so
        # faulted points always build fresh nodes (the runner enforces it
        # too; clearing the flag here keeps group_key honest as well).
        warm=spec.faults is None,
        lane=spec.lane,
    )


def _exec_point(pt: _CollectivePoint) -> _SlimResult:
    """Worker-side execution: rebuild the spec, run it, return it slim."""
    arch = _preset_arch(pt.arch) if isinstance(pt.arch, str) else pt.arch
    spec = CollectiveSpec(
        collective=pt.collective,
        algorithm=pt.algorithm,
        arch=arch,
        procs=pt.procs,
        eta=pt.eta,
        root=pt.root,
        in_place=pt.in_place,
        params=dict(pt.params),
        verify=pt.verify,
        counts=pt.counts,
        faults=pt.faults,
    )
    r = _compute_collective(spec, pt.warm)
    return _SlimResult(
        latency_us=r.latency_us,
        per_rank_us=r.per_rank_us,
        ctrl_messages=r.ctrl_messages,
        cma_reads=r.cma_reads,
        cma_writes=r.cma_writes,
        sim_events=r.sim_events,
        trace_by_phase=r.trace_by_phase,
        fallbacks=r.fallbacks,
        retries=r.retries,
        faults_injected=r.faults_injected,
        xpmem_reads=r.xpmem_reads,
        xpmem_writes=r.xpmem_writes,
        xpmem_attaches=r.xpmem_attaches,
        xpmem_page_faults=r.xpmem_page_faults,
    )


def _pool_group_key(
    pt: _CollectivePoint,
) -> Tuple[str, int, bool, bool, str]:
    """Warm-node pool key of a point (:class:`~repro.core.runner.NodePool`
    keys nodes on exactly this tuple), stringly ordered for sorting, plus
    warmness and the transport lane: warm points sort ahead of cold ones
    (``not pt.warm``) instead of interleaving with them, so a chunk's
    leased node never alternates between pooled reuse and fresh builds,
    and same-lane points land adjacently, so a leased node's xpmem attach
    state is never interleaved across lanes within a worker chunk (each
    point still resets the node either way)."""
    arch = pt.arch
    name = arch if isinstance(arch, str) else str(getattr(arch, "name", ""))
    return (name, pt.procs, pt.verify, not pt.warm, pt.lane)


def _inflate_result(raw: Any, spec: CollectiveSpec) -> CollectiveResult:
    if isinstance(raw, CollectiveResult):  # a patched runner returned it whole
        return raw
    return CollectiveResult(
        spec=spec,
        latency_us=raw.latency_us,
        per_rank_us=raw.per_rank_us,
        ctrl_messages=raw.ctrl_messages,
        cma_reads=raw.cma_reads,
        cma_writes=raw.cma_writes,
        sim_events=raw.sim_events,
        trace_by_phase=raw.trace_by_phase,
        fallbacks=getattr(raw, "fallbacks", 0),
        retries=getattr(raw, "retries", 0),
        faults_injected=getattr(raw, "faults_injected", 0),
        xpmem_reads=getattr(raw, "xpmem_reads", 0),
        xpmem_writes=getattr(raw, "xpmem_writes", 0),
        xpmem_attaches=getattr(raw, "xpmem_attaches", 0),
        xpmem_page_faults=getattr(raw, "xpmem_page_faults", 0),
    )


def run_specs(specs: Iterable[CollectiveSpec]) -> List[CollectiveResult]:
    """Run every spec, pooled and cached per the active context.

    Cache keys fingerprint the *specs* (unchanged from PR 1 — warm cache
    entries stay valid); only the cross-process transport is slimmed.
    """
    specs = list(specs)
    points = [_slim_point(s) for s in specs]
    return sweep(
        "collective",
        _exec_point,
        points,
        payloads=specs,
        decode=lambda raw, i: _inflate_result(raw, specs[i]),
        group_key=_pool_group_key,
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
