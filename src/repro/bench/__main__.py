"""CLI: regenerate any evaluation table or figure.

Usage::

    python -m repro.bench fig07            # quick axes
    python -m repro.bench fig07 --full     # the paper's full axes
    python -m repro.bench all              # everything (quick)
    python -m repro.bench --list
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.figures import experiment_ids, run_experiment


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "perf":
        # Wall-clock perf suite: separate CLI surface (different flags, no
        # sweep machinery) — see repro.bench.perfsuite.
        from repro.bench import perfsuite

        return perfsuite.main(argv[1:])
    if argv and argv[0] == "sched":
        # Pooled-dispatch profiler: per-worker timeline (chunks, idle
        # gaps) as JSON — see repro.bench.schedprof.
        from repro.bench import schedprof

        return schedprof.main(argv[1:])
    if argv and argv[0] == "chaos":
        # Harness chaos soak: seeded worker kills, stalls, and cache
        # attacks, verified bit-identical — see
        # repro.bench.chaossoak.
        from repro.bench import chaossoak

        return chaossoak.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (fig02..fig18, tab03..tab07, ablation_*) or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full sweep axes (slower)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep points in N processes (default: REPRO_EXEC_WORKERS or serial)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="reuse/store per-point results in the on-disk cache "
             "(REPRO_CACHE_DIR or ~/.cache/repro-exec)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (implies --cache)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        print("Available experiments:")
        for eid in experiment_ids():
            print(f"  {eid}")
        return 0

    cache = args.cache_dir if args.cache_dir else (True if args.cache else None)
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    for eid in ids:
        t0 = time.time()
        exp = run_experiment(
            eid, quick=not args.full, workers=args.workers, cache=cache
        )
        print(exp.render())
        print(f"\n[{eid} regenerated in {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
