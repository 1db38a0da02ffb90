"""Scheduler profiling CLI: ``python -m repro.bench sched``.

Runs the perf suite's mixed fig07+fig13 scatter slice through
:func:`repro.exec.sched.run_scheduled` with per-chunk profiling on and
emits a JSON report: scheduling counters (chunks, steals, cost-model
error) plus a per-worker timeline — which chunks each worker ran, which
were stolen, and the idle gaps between them.  ``--profile`` keeps the raw
per-chunk records in the payload; without it only the per-worker
summaries are emitted.  On a one-CPU host the run is inline and the
timeline collapses to worker ``0`` — the counters and chunk records are
still real.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

__all__ = ["build_timeline", "run_profile", "main"]

_SLICE_CHOICES = ("mixed", "fig07", "fig13")


def _slice_specs(which: str):
    from repro.bench.perfsuite import SCHED_SLICE_NAMES, SWEEP_SLICES, _sweep_specs

    names = {
        "mixed": SCHED_SLICE_NAMES,
        "fig07": SCHED_SLICE_NAMES[:1],
        "fig13": SCHED_SLICE_NAMES[1:],
    }[which]
    return [s for name in names for s in _sweep_specs(SWEEP_SLICES[name])]


def build_timeline(stats, keep_chunks: bool = True) -> dict:
    """Per-worker timeline from :class:`~repro.exec.sched.SchedStats`.

    Chunk records carry worker-side monotonic timestamps; on Linux the
    monotonic clock is system-wide, so spans from different worker
    processes share one time base and the idle gaps between a worker's
    consecutive chunks are directly the time its queue sat empty (or a
    steal was in flight).
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
            "steals": sum(1 for r in recs if r["stolen"]),
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
    from repro.exec import resolve_workers
    from repro.exec.sched import CostModel, run_scheduled
    from repro.exec.sweep import _exec_point, _pool_group_key, _slim_point

    specs = _slice_specs(which)
    points = [_slim_point(s) for s in specs]
    cm = CostModel()
    costs = [cm.cost(p) for p in points]
    groups = [_pool_group_key(p) for p in points]
    nworkers = resolve_workers(workers if workers is not None else "auto")
    t0 = time.perf_counter()
    _results, stats = run_scheduled(
        _exec_point,
        points,
        workers=nworkers,
        costs=costs,
        groups=groups,
        profile=True,
    )
    wall = time.perf_counter() - t0
    err = stats.cost_err_pct
    return {
        "slice": which,
        "points": stats.points,
        "workers": stats.workers,
        "pooled": stats.pooled,
        "chunks": stats.chunks,
        "steals": stats.steals,
        "chunk_sizes": stats.chunk_sizes,
        "predicted_cost": round(stats.predicted_cost, 3),
        "cost_err_pct": round(err, 1) if err is not None else None,
        "fallback_points": stats.fallback_points,
        "wall_s": round(wall, 6),
        "points_per_sec": round(stats.points / wall, 2) if wall > 0 else None,
        "workers_timeline": build_timeline(stats, keep_chunks=keep_chunks),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench sched",
        description="Profile the work-stealing sweep scheduler: per-worker "
        "timeline (chunks, steals, idle gaps) as JSON.",
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
        help="worker count (default: auto = CPU count; inline on 1-CPU hosts)",
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
