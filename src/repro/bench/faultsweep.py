"""Degraded-mode fault-matrix sweep: latency under injected kernel faults.

``python -m repro.bench faults`` runs every core collective twice per
fault plan — once clean, once with the plan armed — and reports the
latency inflation next to the degraded-mode counters (CMA→shm fallbacks,
retries, injections).  This is the robustness twin of the paper figures:
the numbers show the stack *completing with verified buffers* while the
simulated kernel misbehaves, and how much the two-copy fallback path
costs relative to the kernel-assisted one.

Determinism note: the whole table is a pure function of (plans, arch,
procs, eta) — same seeds, same counters, same timestamps — so results
cache like any other sweep point.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.bench.report import sweep_summary
from repro.core.runner import CollectiveResult, CollectiveSpec
from repro.exec import context as exec_context
from repro.exec.sweep import run_specs
from repro.faults import ENV_FAULTS, FaultPlan, parse_plan, plan_from_env

__all__ = ["DEFAULT_MATRIX", "run_fault_matrix", "render_table", "main"]

#: the five core collectives the acceptance battery exercises
COLLECTIVES = (
    ("scatter", "parallel_read"),
    ("gather", "parallel_write"),
    ("bcast", "direct_read"),
    ("allgather", "ring_source_read"),
    ("alltoall", "pairwise"),
)

#: default fault matrix (seed:kinds strings, see :func:`repro.faults.parse_plan`)
DEFAULT_MATRIX = (
    "3:partial@0.4",
    "5:eperm@0.2",
    "7:eintr@0.3",
    "9:straggler@2.5",
    "11:partial@0.3,eperm@0.1,esrch@0.05,efault@0.05,eintr@0.15",
)


def run_fault_matrix(
    plans: Sequence[FaultPlan],
    arch,
    procs: Optional[int] = None,
    eta: int = 32768,
) -> List[List[CollectiveResult]]:
    """Run the collective battery clean + once per plan.

    Returns one row per ``(collective, plan-or-clean)`` combination,
    grouped as ``[clean_results, plan0_results, plan1_results, ...]``.
    All points flow through :func:`repro.exec.sweep.run_specs`, so the
    active context's pool and cache apply.
    """
    specs: List[CollectiveSpec] = []
    for faults in (None, *plans):
        for coll, alg in COLLECTIVES:
            specs.append(
                CollectiveSpec(
                    collective=coll,
                    algorithm=alg,
                    arch=arch,
                    procs=procs,
                    eta=eta,
                    faults=faults,
                )
            )
    flat = run_specs(specs)
    n = len(COLLECTIVES)
    return [flat[i : i + n] for i in range(0, len(flat), n)]


def render_table(
    plan_texts: Sequence[str], groups: List[List[CollectiveResult]]
) -> str:
    """Format the matrix as one aligned text table."""
    clean = {r.spec.collective: r for r in groups[0]}
    lines = [
        f"{'plan':<44} {'collective':<10} {'latency_us':>12} {'xclean':>7} "
        f"{'fallbacks':>9} {'retries':>8} {'injected':>9}"
    ]
    for label, results in zip(("(none)", *plan_texts), groups):
        for r in results:
            base = clean[r.spec.collective].latency_us
            ratio = r.latency_us / base if base else float("nan")
            lines.append(
                f"{label:<44} {r.spec.collective:<10} {r.latency_us:>12.3f} "
                f"{ratio:>7.2f} {r.fallbacks:>9d} {r.retries:>8d} "
                f"{r.faults_injected:>9d}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench faults",
        description="Sweep the core collectives under a deterministic "
        "fault matrix and report latency + degraded-mode counters.",
    )
    parser.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="PLAN",
        help="fault plan '<seed>:<kind>[@value],...' (repeatable; default: "
        f"a built-in matrix, or {ENV_FAULTS} when set)",
    )
    parser.add_argument("--arch", default="broadwell", help="architecture preset")
    parser.add_argument(
        "--procs", type=int, default=None, help="process count (default: arch's)"
    )
    parser.add_argument(
        "--eta", type=int, default=32768, help="message size in bytes per block"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="sweep points in N processes"
    )
    parser.add_argument(
        "--cache", action="store_true", help="use the on-disk result cache"
    )
    args = parser.parse_args(argv)

    if args.faults:
        plan_texts = list(args.faults)
    elif plan_from_env() is not None:
        plan_texts = [os.environ[ENV_FAULTS].strip()]
    else:
        plan_texts = list(DEFAULT_MATRIX)
    plans = [parse_plan(t) for t in plan_texts]

    from repro.machine import get_arch

    arch = get_arch(args.arch)
    ctx = exec_context.from_env(
        workers=args.workers, cache=True if args.cache else None
    )
    with exec_context.use_context(ctx):
        groups = run_fault_matrix(plans, arch, procs=args.procs, eta=args.eta)
    print(render_table(plan_texts, groups))
    print(f"\n{sweep_summary(ctx.stats)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
