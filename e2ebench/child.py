"""One regeneration in a fresh interpreter (started by ``run.py``).

Modes:

* ``cold``   -- import the program, generate the inputs (set-up), then
  time one cold regeneration; with ``--warm-seconds``, repeat it warm
  (the same regeneration again in this process) for that long;
* ``traced`` -- set up and run one cold regeneration under ``cProfile``
  with spans and counters, and report the per-layer ledger (a cached
  workload also traces one warm regeneration, for the cache reads);
* ``refs``   -- one cold regeneration, written to ``refs/`` as the
  reference digest.

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _cpu_s() -> float:
    """CPU time of this process and every child process it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _checked(plan, out: dict) -> None:
    attempted, failed, problems = workloads.check(plan)
    out["attempted"] = out.get("attempted", 0) + attempted
    out["failed"] = out.get("failed", 0) + failed
    kept = out.setdefault("problems", [])
    kept.extend(problems[: max(0, 20 - len(kept))])


def _traced(plan, spans_path: str, out: dict) -> None:
    import cProfile
    import pstats

    from ledger import Tracer, layer_self_times, ledger_metrics
    from repro.core.runner import default_pool

    pool = default_pool()
    leases, reuses = pool.leases, pool.reuses
    tracer = Tracer()
    tracer.install()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        workloads.regenerate(plan)
    finally:
        profiler.disable()
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()
    results = plan.recorder.results()
    layer_s = layer_self_times(pstats.Stats(profiler).stats)
    _checked(plan, out)
    # the cache reads are timed on a warm regeneration (traced, not profiled)
    warm_get_s = warm_hits = 0.0
    if workloads.WORKLOADS[plan.name].cached:
        warm = Tracer()
        warm.install()
        try:
            wstats = workloads.regenerate(plan)
        finally:
            warm.uninstall()
        _checked(plan, out)
        warm_get_s = warm.span_total("exec.cache_get")
        warm_hits = wstats.cache_hits / wstats.points_total if wstats.points_total else 0.0
        warm.dump(Path(spans_path).with_suffix(".warm.json"))
    metrics = ledger_metrics(
        layer_s, traced_wall, tracer, results,
        pool.leases - leases, pool.reuses - reuses, warm_get_s, warm_hits,
    )
    tracer.dump(Path(spans_path))
    out["traced_wall_s"] = traced_wall
    out["metrics"] = metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("cold", "traced", "refs"))
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--warm-seconds", type=float, default=0.0,
                    help="after the cold regeneration, repeat it warm for this long")
    ap.add_argument("--cache-dir")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    plan = workloads.prepare(args.workload, args.seed, args.cache_dir)
    out: dict = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "traced":
        _traced(plan, args.spans, out)
    elif args.mode == "refs":
        workloads.regenerate(plan)
        workloads.write_refs(plan)
    else:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        workloads.regenerate(plan)
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_s() - cpu0
        out["peak_rss_mb"] = _peak_rss_mb()
        _checked(plan, out)
        warm: list = []
        while sum(warm) < args.warm_seconds:
            t0 = time.perf_counter()
            workloads.regenerate(plan)
            warm.append(time.perf_counter() - t0)
            _checked(plan, out)
        if warm:
            out["warm_walls"] = warm
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
