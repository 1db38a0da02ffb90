"""Per-sweep execution context: worker count, cache handle, and stats.

A context is pushed around a sweep (``with use_context(ExecContext(...))``)
and every sweep point executed underneath it — collective runs, microbench
points, NLLS fits — consults its cache and its worker pool.  With no
active context everything runs serial and uncached, exactly as the seed
code did.

Environment knobs (honoured only where no explicit argument wins):

* ``REPRO_EXEC_WORKERS`` — pool size; ``1`` (or unset) means serial,
  ``auto`` means one worker per usable CPU (affinity-aware).
* ``REPRO_CACHE_DIR`` — enables the on-disk cache at that directory for
  ``run_experiment`` / the CLIs.  The cache is also what resumes a
  killed sweep: a rerun serves every published point as a hit.

The context lazily owns one :class:`~repro.exec.sched.StickyPool`.
Worker-level trouble is handled by the pool's supervision; a pool that
breaks (its respawn budget spent) or fails to start is not rebuilt, and
the context's later sweeps run in-process.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.exec import sched as _sched
from repro.exec.cache import ENV_CACHE_DIR, ResultCache

__all__ = [
    "ENV_WORKERS",
    "SweepStats",
    "ExecContext",
    "current",
    "use_context",
    "from_env",
    "resolve_workers",
]

ENV_WORKERS = "REPRO_EXEC_WORKERS"


@dataclass
class SweepStats:
    """What one sweep actually did — surfaced by ``bench.report``."""

    points_total: int = 0
    points_run: int = 0
    cache_hits: int = 0
    workers: int = 1
    wall_s: float = 0.0
    #: simulator events processed by the points actually *run* (cache hits
    #: replay nothing); collective results carry the count, microbench
    #: scalars contribute 0.
    sim_events: int = 0
    #: wall seconds spent computing cache misses (the sweep's simulator
    #: cost, as opposed to ``wall_s`` which spans the whole context).
    run_wall_s: float = 0.0
    #: pool counters (zero when every miss ran in the plain loop):
    #: chunks dispatched, points routed through the pool, and points
    #: salvaged in-process after the pool broke
    sched_chunks: int = 0
    sched_points: int = 0
    sched_fallbacks: int = 0
    #: cache entries published and the publications that carried them
    #: (each top-level sweep or fit publishes once, plus once a second
    #: on long sweeps; see repro.exec.cache)
    cache_puts: int = 0
    cache_flushes: int = 0
    #: corrupt cache entries currently quarantined (count as of the last
    #: sweep; the cache bounds the directory, see repro.exec.cache)
    cache_quarantined: int = 0
    #: resilience counters (all zero on healthy runs): workers
    #: respawned and hung-chunk kills
    sched_respawns: int = 0
    sched_hung_kills: int = 0
    #: why the pool broke or failed to start ("" on healthy runs); later
    #: sweeps in the context run in-process
    sched_broken: str = ""
    #: per-sweep-kind breakdown: kind -> [points_total, points_run,
    #: cache_hits].  The aggregate counters above fold every kind of work
    #: together (collective points, microbench points, fits), which hides
    #: e.g. a calibration whose microbench points all missed the cache
    #: behind a figure sweep that mostly hit — the breakdown is what the
    #: report line prints so such misses stay visible in CI summaries.
    by_kind: dict = field(default_factory=dict)

    def record_kind(self, kind: str, total: int, run: int, hits: int) -> None:
        row = self.by_kind.setdefault(kind, [0, 0, 0])
        row[0] += total
        row[1] += run
        row[2] += hits

    def record_sched(self, sstats) -> None:
        """Fold one pooled run's :class:`~repro.exec.sched.SchedStats`."""
        self.sched_chunks += sstats.chunks
        self.sched_points += sstats.points
        self.sched_fallbacks += sstats.fallback_points
        self.sched_respawns += sstats.respawns
        self.sched_hung_kills += sstats.hung_kills
        self.sched_broken = sstats.broken_reason or self.sched_broken

    def merge(self, other: "SweepStats") -> None:
        """Fold a child sweep's counters into this one (wall time excluded:
        each context times its own span)."""
        self.points_total += other.points_total
        self.points_run += other.points_run
        self.cache_hits += other.cache_hits
        self.sim_events += other.sim_events
        self.run_wall_s += other.run_wall_s
        self.sched_chunks += other.sched_chunks
        self.sched_points += other.sched_points
        self.sched_fallbacks += other.sched_fallbacks
        self.cache_puts += other.cache_puts
        self.cache_flushes += other.cache_flushes
        self.sched_respawns += other.sched_respawns
        self.sched_hung_kills += other.sched_hung_kills
        self.sched_broken = other.sched_broken or self.sched_broken
        # Quarantine counts are a cache-level census, not per-sweep deltas:
        # contexts sharing one cache must not double-count it.
        self.cache_quarantined = max(
            self.cache_quarantined, other.cache_quarantined
        )
        for kind, (total, run, hits) in other.by_kind.items():
            self.record_kind(kind, total, run, hits)


def resolve_workers(workers: Union[int, str, None]) -> int:
    """Explicit argument > ``REPRO_EXEC_WORKERS`` > serial."""
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if not raw:
            return 1
        workers = raw
    if isinstance(workers, str):
        if workers.lower() == "auto":
            return _sched.usable_cpus()
        try:
            workers = int(workers)
        except ValueError:
            raise ValueError(
                f"invalid worker count {workers!r} (set --workers or "
                f"{ENV_WORKERS} to an integer or 'auto')"
            ) from None
    return max(int(workers), 1)


def _resolve_cache(cache) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    return cache


class ExecContext:
    """One sweep's execution policy plus its accumulated stats.

    ``cache`` accepts ``None``/``False`` (off), ``True`` (default
    directory), a path, or a :class:`ResultCache`.  The context lazily
    owns one worker pool shared by every sweep run underneath it;
    ``use_context`` shuts it down on exit.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = None,
        cache=None,
        journal=None,
    ):
        # Accepted only because e2ebench/workloads.py still passes
        # journal=False; the result cache resumes killed sweeps.
        if journal is not None and journal is not False:
            raise ValueError(
                "the sweep journal was removed: the result cache resumes "
                "killed sweeps (pass cache=... instead of journal=...)"
            )
        self.workers = resolve_workers(workers)
        self.cache = _resolve_cache(cache)
        self.stats = SweepStats(workers=self.workers)
        self._pool_owner: "ExecContext" = self
        self._sched_pool = None  # None = not created, False = unavailable

    def sched_pool(self):
        """The shared :class:`~repro.exec.sched.StickyPool`, or ``None``.

        ``None`` means sweeps run their misses in a plain in-process
        loop: serial context, a host with one usable CPU (where process
        fan-out can only lose), or a pool that broke or could not start —
        neither is tried again in this context.
        """
        if self._pool_owner is not self:
            return self._pool_owner.sched_pool()
        if self.workers <= 1 or self._sched_pool is False:
            return None
        if self._sched_pool is None:
            size = min(self.workers, _sched.usable_cpus())
            try:
                self._sched_pool = size >= 2 and _sched.StickyPool(size)
            except Exception as exc:
                self.stats.sched_broken = f"pool failed to start: {exc!r}"
                self._sched_pool = False
        elif self._sched_pool.broken:
            self._sched_pool.close()
            self._sched_pool = False
        return self._sched_pool or None

    def adopt_sched_pool(self, pool) -> None:
        """Hand the context a caller-built :class:`StickyPool`.

        The chaos soak (and tests) use this to exercise pool supervision
        and pooled dispatch on hosts whose usable-CPU count would make
        :meth:`sched_pool` return ``None``.  The context owns the pool
        from here on — :meth:`close` shuts it down.
        """
        if self._pool_owner is not self:
            self._pool_owner.adopt_sched_pool(pool)
            return
        if self._sched_pool not in (None, False):
            self._sched_pool.close()
        self._sched_pool = pool

    def close(self) -> None:
        if self._pool_owner is self and self._sched_pool not in (None, False):
            self._sched_pool.close()
        self._sched_pool = None


_STACK: list[ExecContext] = []


def current() -> Optional[ExecContext]:
    return _STACK[-1] if _STACK else None


@contextmanager
def use_context(ctx: ExecContext) -> Iterator[ExecContext]:
    _STACK.append(ctx)
    try:
        yield ctx
    finally:
        _STACK.pop()
        ctx.close()


def from_env(workers=None, cache=None) -> ExecContext:
    """Build a context from explicit args, the enclosing context, then env.

    Used by ``run_experiment`` and the CLIs so that an outer context (e.g.
    the benchmark harness's) keeps control of workers/cache while each
    experiment still gets its own stats.
    """
    parent = current()
    if workers is None and parent is not None:
        workers = parent.workers
    if cache is None:
        if parent is not None:
            cache = parent.cache
        elif os.environ.get(ENV_CACHE_DIR, "").strip():
            cache = ResultCache()
    ctx = ExecContext(workers=workers, cache=cache)
    if parent is not None and parent.workers == ctx.workers:
        # Nested sweeps (run_experiment under a harness context) share the
        # parent's worker pool rather than paying start-up again.
        ctx._pool_owner = parent
    return ctx
