"""Chaos soak battery: prove sweeps out-survive a hostile harness.

``python -m repro.bench chaos`` arms a seeded :mod:`repro.exec.chaos`
plan against the execution stack itself — workers SIGKILLed mid-chunk,
points stalled past the hung-chunk deadline, cache publications
corrupted, truncated, or torn — then verifies the two properties the
resilience layer promises:

* **bit-identity**: the chaos run's results equal a clean serial run's,
  byte for byte, whatever mix of respawn, sandbox rescue, or inline
  salvage the plan happened to force;
* **convergent state**: a follow-up run over the same cache quarantines
  whatever the plan damaged and still reproduces the same bytes.

It emits one JSON document (injection, respawn and poison counters
included) and exits non-zero if any property failed — the contract the
gated CI chaos job consumes.  A killed sweep's resume through the cache
is pinned by ``tests/test_exec_cache.py``'s SIGKILL tests.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.exec import ExecContext, use_context
from repro.exec import chaos
from repro.exec.chaos import ENV_CHAOS
from repro.exec.sched import DEFAULT_HUNG_S, StickyPool
from repro.exec.sweep import sweep

__all__ = ["PLAN_TEMPLATES", "run_soak_case", "main"]

#: per-kind chaos plan templates (seed interpolated per case).  ``hang``
#: pairs a default 30 s stall with a 1.5 s hung-chunk deadline so the
#: supervision path — not patience — is what completes the sweep.
PLAN_TEMPLATES = {
    "kill": "{seed}:kill@0.3",
    "hang": "{seed}:stall@0.15",
    "corrupt": "{seed}:corrupt@0.5",
    "truncate": "{seed}:truncate@0.5",
    "tear": "{seed}:tear@0.5",
}


def _soak_point(x: int) -> tuple:
    """A cheap, pure, deterministic stand-in for a sweep point."""
    acc = 0
    for i in range(64):
        acc = (acc * 1103515245 + x + i) % (1 << 31)
    return (x, acc)


class _env_overlay:
    """Apply env vars for one case; restore (and re-arm chaos) on exit."""

    def __init__(self, **vars):
        self.vars = {k: v for k, v in vars.items() if v is not None}
        self.saved: dict = {}

    def __enter__(self):
        for k, v in self.vars.items():
            self.saved[k] = os.environ.get(k)
            os.environ[k] = v
        chaos.reset_state()
        return self

    def __exit__(self, *exc):
        for k, old in self.saved.items():
            if old is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = old
        chaos.reset_state()


def run_soak_case(
    kind: str,
    seed: int,
    npoints: int,
    workers: int,
    tmp: Path,
) -> dict:
    """One (kind, seed) soak: chaos run + convergence pass, both diffed
    against the clean serial baseline."""
    points = list(range(npoints))
    baseline = pickle.dumps([_soak_point(x) for x in points])
    plan = PLAN_TEMPLATES[kind].format(seed=seed)
    cache_dir = tmp / f"cache-{kind}-{seed}"
    sweep_kind = f"chaos.soak.{kind}"
    before = {p.pid for p in multiprocessing.active_children()}
    t0 = time.monotonic()
    with _env_overlay(**{ENV_CHAOS: plan}):
        ctx = ExecContext(workers=workers, cache=cache_dir)
        # Hand the context an explicit pool: on a host whose usable-CPU
        # count would pick inline dispatch, worker-scoped chaos (kill,
        # stall) would never even fire.
        try:
            ctx.adopt_sched_pool(
                StickyPool(
                    workers,
                    hung_s=1.5 if kind == "hang" else DEFAULT_HUNG_S,
                    # A generous respawn budget keeps supervision (not the
                    # broken-pool salvage floor) as the path under test.
                    max_respawns=64,
                )
            )
        except Exception:
            pass  # fork-restricted host: the case still runs inline
        with use_context(ctx):
            got = sweep(sweep_kind, _soak_point, points)
        st = chaos.state()
        parent_injections = st.counts() if st is not None else {}
    chaos_identical = pickle.dumps(got) == baseline
    # Convergence pass: chaos disarmed, same cache — damaged entries must
    # be quarantined and recomputed, reproducing the same bytes.
    with use_context(ExecContext(workers=1, cache=cache_dir)) as ctx2:
        again = sweep(sweep_kind, _soak_point, points)
    converged = pickle.dumps(again) == baseline
    leaked = [
        p.pid for p in multiprocessing.active_children() if p.pid not in before
    ]
    return {
        "kind": kind,
        "seed": seed,
        "plan": plan,
        "points": npoints,
        "workers": workers,
        # what ran, not what was adopted: only dispatched chunks prove
        # the worker-scoped attacks had a pool to land on
        "pooled": ctx.stats.sched_chunks > 0,
        "wall_s": round(time.monotonic() - t0, 3),
        "bit_identical": chaos_identical,
        "converged": converged,
        "leaked_pids": leaked,
        "parent_injections": parent_injections,
        "respawns": ctx.stats.sched_respawns,
        "hung_kills": ctx.stats.sched_hung_kills,
        "sandbox_rescues": ctx.stats.sandbox_rescues,
        "poisoned": ctx.stats.poisoned,
        "breaker_state": ctx.stats.breaker_state,
        "cache_quarantined": max(
            ctx.stats.cache_quarantined, ctx2.stats.cache_quarantined
        ),
        "recomputed_on_converge": ctx2.stats.points_run,
        "ok": bool(chaos_identical and converged and not leaked),
    }


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench chaos",
        description="Soak the execution harness under seeded chaos and "
        "verify bit-identical completion; emits a JSON summary.",
    )
    parser.add_argument(
        "--kinds",
        default="kill,hang,corrupt",
        help=f"comma-separated chaos kinds ({','.join(PLAN_TEMPLATES)})",
    )
    parser.add_argument(
        "--seeds", default="3,11", help="comma-separated plan seeds"
    )
    parser.add_argument(
        "--points", type=int, default=12, help="sweep points per case"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="scheduler workers per case (>= 2)",
    )
    args = parser.parse_args(argv)

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for k in kinds:
        if k not in PLAN_TEMPLATES:
            parser.error(
                f"unknown chaos kind {k!r} (choose from {','.join(PLAN_TEMPLATES)})"
            )
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if args.points < 4:
        parser.error("--points must be >= 4")
    if args.workers < 2:
        # a one-worker context dispatches inline, so no worker could be
        # killed or stalled and every case would pass vacuously
        parser.error("--workers must be >= 2")

    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        cases = [
            run_soak_case(kind, seed, args.points, args.workers, tmp)
            for kind in kinds
            for seed in seeds
        ]
        summary = {
            "mode": "soak",
            "cases": cases,
            "injections": {
                "respawns": sum(c["respawns"] for c in cases),
                "hung_kills": sum(c["hung_kills"] for c in cases),
                "sandbox_rescues": sum(c["sandbox_rescues"] for c in cases),
                "poisoned": sum(c["poisoned"] for c in cases),
                "cache_quarantined": sum(
                    c["cache_quarantined"] for c in cases
                ),
            },
            "ok": all(c["ok"] for c in cases),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(summary, indent=2))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
