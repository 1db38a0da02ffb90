"""Parallel sweep execution and persistent result/fit caching.

The evaluation sweeps (Figs 2–18, Tabs III–VII) are embarrassingly
parallel: every point runs on a fresh or reset simulated node.  This
package computes cache misses either on a supervised pool of worker
processes (:mod:`repro.exec.sched`: groups of same-node points handed out
biggest first to whichever worker is idle) or in a plain in-process loop,
and memoises per-point results and NLLS fit outputs
in a content-addressed on-disk cache, while keeping one hard guarantee:
**parallel == serial == cached, byte for byte**
(``tests/test_exec_differential.py`` enforces it).

Quick use::

    from repro.exec import ExecContext, ResultCache, use_context
    from repro.exec.sweep import run_specs

    with use_context(ExecContext(workers=4, cache=ResultCache("/tmp/c"))):
        results = run_specs(specs)      # pooled, cached, input order

Environment: ``REPRO_EXEC_WORKERS`` (pool size, ``1``=serial,
``auto``=CPU count), ``REPRO_CACHE_DIR`` (cache directory; enables the
cache for ``run_experiment`` and the CLIs).
"""

from repro.exec.cache import CACHE_VERSION, ENV_CACHE_DIR, ResultCache, default_cache_dir
from repro.exec.context import (
    ENV_WORKERS,
    ExecContext,
    SweepStats,
    current,
    from_env,
    resolve_workers,
    use_context,
)
from repro.exec.sweep import (
    cached_call,
    run_collective,
    run_specs,
    sweep_microbench,
)

__all__ = [
    "CACHE_VERSION",
    "ENV_CACHE_DIR",
    "ENV_WORKERS",
    "ExecContext",
    "ResultCache",
    "SweepStats",
    "cached_call",
    "current",
    "default_cache_dir",
    "from_env",
    "resolve_workers",
    "run_collective",
    "run_specs",
    "sweep_microbench",
    "use_context",
]
