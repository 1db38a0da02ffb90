"""Table VII — speedup at the largest evaluated message size.

Shape criteria: Scatter/Gather keep multi-x factors even at the largest
sizes; Alltoall/Allgather shrink toward parity (data movement dominates,
the paper reports 10-50% there); nothing regresses below ~parity.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    grid = exp.data["grid"]

    for (arch, coll, lib), (speedup, _at) in grid.items():
        assert speedup >= 0.9, (arch, coll, lib, speedup)

    # personalized collectives: still factors of improvement at max size
    pers = [s for (a, c, l), (s, _) in grid.items() if c in ("scatter", "gather")]
    assert max(pers) > 5.0
    assert min(pers) > 1.2

    # low-contention collectives: modest but present
    a2a = [s for (a, c, l), (s, _) in grid.items() if c == "alltoall"]
    assert all(s < 6.0 for s in a2a)


def bench_tab07_large_speedup(regen):
    _check_shapes(regen("tab07"))


@pytest.mark.slow
def bench_tab07_large_speedup_full():
    """The same shapes on the paper's full axes (POWER8 at 160 ranks),
    run serially."""
    _check_shapes(run_experiment("tab07", quick=False))
