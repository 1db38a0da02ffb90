"""OSU-microbenchmark-style CLI for the simulated collectives.

Mirrors the familiar ``osu_bcast``/``osu_scatter`` interface so results
read like the tool every MPI user already knows::

    python -m repro.osu scatter --arch knl --procs 64
    python -m repro.osu bcast --arch broadwell --impl mvapich2
    python -m repro.osu allreduce --impl ring --min 1024 --max 1048576

``--impl`` selects who runs the collective:

* ``proposed`` (default) — the calibrated tuner picks the paper's
  contention-aware algorithm per size;
* a library name (``mvapich2``/``intelmpi``/``openmpi``) — that baseline
  model's tuning table;
* an algorithm name from the registry (e.g. ``throttled_read``), with
  ``--param k=8``-style overrides.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.bench.report import format_bytes, sweep_summary
from repro.core.baselines import LIBRARY_NAMES, library
from repro.core.registry import ALGORITHMS, algorithms_for
from repro.core.runner import CollectiveSpec
from repro.core.tuning import Tuner
from repro.exec import ExecContext, from_env, use_context
from repro.exec.sweep import run_specs
from repro.machine import ARCH_NAMES, get_arch

__all__ = ["main"]


def _parse_params(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = int(value)
        except ValueError:
            out[key] = value
    return out


def _point_spec(
    collective: str,
    impl: str,
    arch_name: str,
    procs: int,
    eta: int,
    params: dict,
    tuner: Optional[Tuner],
    verify: bool,
) -> tuple[CollectiveSpec, str]:
    """One measurement point; returns (spec, algorithm label)."""
    if impl == "proposed":
        assert tuner is not None
        choice = tuner.choose(collective, eta, procs)
        return tuner.spec(collective, eta, procs, verify=verify), choice.describe()
    if impl in LIBRARY_NAMES:
        lib = library(impl)
        alg, _lib_params = lib.select(collective, eta, procs)
        return lib.spec(collective, get_arch(arch_name), eta, procs, verify=verify), alg
    # explicit algorithm
    spec = CollectiveSpec(
        collective,
        impl,
        get_arch(arch_name),
        procs=procs,
        eta=eta,
        params=params,
        verify=verify,
    )
    return spec, impl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.osu",
        description="OSU-style latency sweeps on the simulated node.",
    )
    parser.add_argument("collective", choices=sorted(ALGORITHMS))
    parser.add_argument("--arch", default="knl", choices=ARCH_NAMES)
    parser.add_argument("--procs", type=int, default=None,
                        help="ranks (default: a manageable fraction of the arch)")
    parser.add_argument("--impl", default="proposed",
                        help="'proposed', a library (mvapich2/intelmpi/openmpi), "
                             "or an algorithm name")
    parser.add_argument("--param", action="append", default=[],
                        help="algorithm parameter, e.g. --param k=8")
    parser.add_argument("--min", type=int, default=1024, dest="min_size")
    parser.add_argument("--max", type=int, default=1 << 22, dest="max_size")
    parser.add_argument("--verify", action="store_true",
                        help="move and check buffer contents (slower)")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep points in N processes "
                             "(default: REPRO_EXEC_WORKERS or serial)")
    parser.add_argument("--cache", action="store_true",
                        help="reuse/store per-point results in the on-disk "
                             "cache (REPRO_CACHE_DIR or ~/.cache/repro-exec)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (implies --cache)")
    args = parser.parse_args(argv)

    arch = get_arch(args.arch)
    procs = args.procs or min(arch.default_procs, 32)
    params = _parse_params(args.param)

    if args.impl not in ("proposed", *LIBRARY_NAMES) and args.impl not in algorithms_for(
        args.collective
    ):
        known = ["proposed", *LIBRARY_NAMES, *algorithms_for(args.collective)]
        raise SystemExit(
            f"unknown --impl {args.impl!r} for {args.collective}; known: {known}"
        )

    sizes = []
    eta = args.min_size
    while eta <= args.max_size:
        sizes.append(eta)
        eta *= 4

    cache = args.cache_dir if args.cache_dir else (True if args.cache else None)
    ctx = from_env(workers=args.workers, cache=cache)
    t0 = time.perf_counter()
    with use_context(ctx):
        tuner = (
            Tuner.calibrated(get_arch(args.arch))
            if args.impl == "proposed"
            else None
        )
        specs, labels = [], []
        for eta in sizes:
            spec, label = _point_spec(
                args.collective, args.impl, args.arch, procs, eta, params,
                tuner, args.verify,
            )
            specs.append(spec)
            labels.append(label)
        results = run_specs(specs)
    ctx.stats.wall_s = time.perf_counter() - t0

    print(f"# {args.collective} latency ({args.arch} model, {procs} processes, "
          f"impl={args.impl}{', verified' if args.verify else ''})")
    print(f"# {'Size':<10}{'Latency(us)':>14}  Algorithm")
    for eta, res, label in zip(sizes, results, labels):
        print(f"{format_bytes(eta):<12}{res.latency_us:>14.2f}  {label}")
    print(f"# {sweep_summary(ctx.stats)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
