"""Table VI — maximum speedup of Proposed vs each library, per collective
and architecture.

Shape criteria: the paper reports up to ~50x for the personalized
collectives (Scatter/Gather), up to ~4-5x for Bcast/Allgather/Alltoall.
We assert the same structure: Proposed never loses; personalized
collectives show order-of-magnitude peaks; non-personalized show
small-multiple peaks.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    grid = exp.data["grid"]

    for (arch, coll, lib), (speedup, _at) in grid.items():
        assert speedup >= 0.95, (arch, coll, lib, speedup)

    personalized_peak = max(
        s for (a, c, l), (s, _) in grid.items() if c in ("scatter", "gather")
    )
    assert personalized_peak > 15.0

    bcast_peak = max(s for (a, c, l), (s, _) in grid.items() if c == "bcast")
    assert bcast_peak > 2.0

    a2a_peak = max(s for (a, c, l), (s, _) in grid.items() if c == "alltoall")
    assert 1.05 < a2a_peak < 10.0


def bench_tab06_max_speedup(regen):
    _check_shapes(regen("tab06"))


@pytest.mark.slow
def bench_tab06_max_speedup_full():
    """The same shapes on the paper's full axes (POWER8 at 160 ranks),
    run serially."""
    _check_shapes(run_experiment("tab06", quick=False))
