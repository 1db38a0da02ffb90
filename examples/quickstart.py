#!/usr/bin/env python3
"""Quickstart: run one contention-aware collective and see why it wins.

This is the 5-minute tour:

1. build a simulated KNL node,
2. run MPI_Scatter three ways — the naive parallel read, the fully serial
   sequential write, and the paper's throttled read — with *verified* data
   movement,
3. watch the mm-lock contention appear in the per-phase breakdown the
   kernel keeps on every run (the paper's ftrace view),
4. let the tuner pick the algorithm for you.

Run:  python examples/quickstart.py
"""

from repro import CollectiveSpec, get_arch, run_collective
from repro.core.tuning import Tuner

PROCS = 32
ETA = 256 * 1024  # 256 KiB per receiver


def main() -> None:
    arch = get_arch("knl")
    print(f"Simulated node: {arch.name}, {arch.topology.physical_cores} cores, "
          f"{PROCS} MPI ranks, {ETA // 1024} KiB per block\n")

    print(f"{'algorithm':<28}{'latency':>12}   {'lock+pin share':>15}")
    print("-" * 60)
    for algorithm, params in [
        ("parallel_read", {}),
        ("sequential_write", {}),
        ("throttled_read", {"k": 8}),
    ]:
        spec = CollectiveSpec(
            collective="scatter",
            algorithm=algorithm,
            arch=get_arch("knl"),
            procs=PROCS,
            eta=ETA,
            params=params,
            verify=True,  # every byte checked against MPI semantics
        )
        res = run_collective(spec)
        ph = res.trace_by_phase  # syscall/check/lock/pin/copy, summed over ranks
        lockpin = ph.get("lock", 0.0) + ph.get("pin", 0.0)
        total = sum(ph.values()) or 1.0
        label = algorithm + (f"(k={params['k']})" if params else "")
        print(f"{label:<28}{res.latency_us:>10.1f}us   {lockpin / total:>14.1%}")

    print("\nThe parallel read hammers the root's mm lock (the get_user_pages")
    print("bottleneck); sequential writes avoid it but serialize everything;")
    print("throttling bounds the concurrency at the sweet spot.\n")

    tuner = Tuner.calibrated(get_arch("knl"))
    for eta in (4096, 65536, 1 << 20, 4 << 20):
        choice = tuner.choose("scatter", eta, PROCS)
        print(f"tuner pick @ {eta // 1024:>5} KiB: {choice.describe():<22} "
              f"(predicted {choice.predicted_us:.0f}us)")


if __name__ == "__main__":
    main()
