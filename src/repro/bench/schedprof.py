"""Scheduler profiling CLI: ``python -m repro.bench sched``.

Runs the mixed fig07+fig13 scatter slice (:data:`SLICES`, shared with
the perf suite's ``sched`` probe) on a :class:`~repro.exec.sched.StickyPool`
with per-chunk profiling on and emits a JSON report: dispatch counters
(chunks, chunk sizes) plus a per-worker timeline — which chunks each
worker ran and the idle gaps between them.  ``--profile`` keeps the raw
per-chunk records in the payload; without it only the per-worker
summaries are emitted.  On a one-CPU host the slice runs in the plain
in-process loop, one point per chunk record on worker ``0``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

__all__ = [
    "SLICES",
    "slice_specs",
    "run_slice",
    "build_timeline",
    "run_profile",
    "main",
]

#: The mixed sweep slice, in two halves of ``(arch, procs, points)`` with
#: points ``(algorithm, params, eta)``: Fig 7's scatter family on the KNL
#: model, and the scatter algorithms Fig 13's library models lower to
#: (binomial pt2pt trees, rendezvous fan-out) on the Broadwell model.  This
#: profiler and the perf suite's ``sched`` probe both run it.
SLICES = {
    "fig07": ("knl", 12, [
        (alg, params, eta)
        for eta in (16 * 1024, 64 * 1024, 256 * 1024)
        for alg, params in (
            ("parallel_read", {}),
            ("sequential_write", {}),
            ("throttled_read", {"k": 4}),
        )
    ]),
    "fig13": ("broadwell", 12, [
        (alg, params, eta)
        for eta in (16 * 1024, 128 * 1024)
        for alg, params in (
            ("parallel_read", {}),
            ("binomial_p2p", {}),
            ("fanout_rndv", {}),
        )
    ]),
}

_SLICE_CHOICES = ("mixed", *SLICES)


def slice_specs(which: str = "mixed"):
    """The slice's scatter specs; ``mixed`` is fig07 then fig13."""
    from repro.core.runner import CollectiveSpec
    from repro.machine import get_arch

    specs = []
    for name in SLICES if which == "mixed" else (which,):
        arch, procs, points = SLICES[name]
        specs += [
            CollectiveSpec(
                "scatter", alg, get_arch(arch), procs=procs, eta=eta,
                params=params,
            )
            for alg, params, eta in points
        ]
    return specs


def run_slice(which: str = "mixed", workers=None, profile: bool = False):
    """One run of a slice, cache off.

    The points go through ``StickyPool.run`` exactly as a pooled sweep's
    misses do (priced, warm-pool groups).  With fewer than two usable CPUs
    or workers they run in the plain loop instead.  Returns
    ``(results, stats, wall_s)``.
    """
    from repro.exec import resolve_workers
    from repro.exec.sched import (
        Chunk, SchedStats, StickyPool, point_cost, usable_cpus,
    )
    from repro.exec.sweep import _exec_point, _pool_group_key, _slim_point

    points = [_slim_point(s) for s in slice_specs(which)]
    size = min(
        resolve_workers(workers if workers is not None else "auto"),
        usable_cpus(),
        len(points),
    )
    t0 = time.perf_counter()
    if size >= 2:
        with StickyPool(size) as pool:
            results, stats = pool.run(
                _exec_point,
                points,
                costs=[point_cost(p) for p in points],
                groups=[_pool_group_key(p) for p in points],
                profile=profile,
            )
        return results, stats, time.perf_counter() - t0
    stats = SchedStats(points=len(points))
    results = []
    for i, pt in enumerate(points):
        t_start = time.monotonic()
        results.append(_exec_point(pt))
        stats.note_chunk(
            0, Chunk(i, _pool_group_key(pt), (i,)),
            t_start - t0, time.monotonic() - t0, profile,
        )
    return results, stats, time.perf_counter() - t0


def build_timeline(stats, keep_chunks: bool = True) -> dict:
    """Per-worker timeline from :class:`~repro.exec.sched.SchedStats`.

    Chunk records carry worker-side monotonic timestamps; on Linux the
    monotonic clock is system-wide, so spans from different worker
    processes share one time base and the idle gaps between a worker's
    consecutive chunks are directly the time it sat waiting for work.
    """
    by_worker: dict = {}
    for rec in stats.profile or []:
        by_worker.setdefault(rec["worker"], []).append(rec)
    timeline = {}
    for wid, recs in sorted(by_worker.items()):
        recs.sort(key=lambda r: r["start_s"])
        gaps = [
            round(nxt["start_s"] - prev["end_s"], 6)
            for prev, nxt in zip(recs, recs[1:])
            if nxt["start_s"] - prev["end_s"] > 0
        ]
        entry = {
            "chunks_run": len(recs),
            "points_run": sum(r["points"] for r in recs),
            "busy_s": round(sum(r["wall_s"] for r in recs), 6),
            "span_s": round(recs[-1]["end_s"] - recs[0]["start_s"], 6),
            "idle_gaps": len(gaps),
            "idle_s": round(sum(gaps), 6),
        }
        if keep_chunks:
            entry["chunks"] = recs
        timeline[str(wid)] = entry
    return timeline


def run_profile(
    which: str = "mixed",
    workers=None,
    keep_chunks: bool = True,
) -> dict:
    _results, stats, wall = run_slice(which, workers, profile=True)
    return {
        "slice": which,
        "points": stats.points,
        "workers": stats.workers,
        "pooled": stats.pooled,
        "chunks": stats.chunks,
        "chunk_sizes": stats.chunk_sizes,
        "fallback_points": stats.fallback_points,
        "wall_s": round(wall, 6),
        "points_per_sec": round(stats.points / wall, 2) if wall > 0 else None,
        "workers_timeline": build_timeline(stats, keep_chunks=keep_chunks),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench sched",
        description="Profile pooled sweep dispatch: per-worker timeline "
        "(chunks, idle gaps) as JSON.",
    )
    parser.add_argument(
        "--slice",
        choices=_SLICE_CHOICES,
        default="mixed",
        help="which sweep slice to run (default: mixed fig07+fig13)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="worker count (default: auto = CPU count; plain loop on one CPU)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="include the raw per-chunk records in each worker's timeline",
    )
    parser.add_argument(
        "--out", default="-", help="output path (default: stdout)"
    )
    args = parser.parse_args(argv)

    payload = run_profile(
        which=args.slice,
        workers=args.workers,
        keep_chunks=args.profile,
    )
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.bench
    sys.exit(main())
