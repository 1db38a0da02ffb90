"""Fig. 18 — MPI_Bcast: Proposed vs library models on Broadwell and POWER8.

Shape criteria (paper Section VII-F): on Broadwell, shared memory remains
the right choice below ~2MB (the tuner *selects* it, so Proposed ties the
shm-based libraries there) and CMA wins beyond; on POWER8 the k-nomial
read wins from a few tens of KB; overall 3-4x reduction in the large range.
"""

import pytest

from repro.bench.figures import run_experiment
from repro.core.tuning import Tuner
from repro.machine import get_arch


def _check_shapes(exp):
    for name, d in exp.data.items():
        grid = d["grid"]
        for eta, row in grid.items():
            best_lib = min(row[l] for l in ("mvapich2", "intelmpi", "openmpi"))
            assert row["proposed"] <= best_lib * 1.10, (name, eta)
        big = max(grid)
        best_lib = min(grid[big][l] for l in ("mvapich2", "intelmpi", "openmpi"))
        assert grid[big]["proposed"] < 0.95 * best_lib, name

    # the Broadwell tuning decision itself: shm below ~2MB, CMA above
    tuner = Tuner(get_arch("broadwell"))
    assert tuner.choose("bcast", 256 * 1024, 28).algorithm == "shm_slab"
    assert tuner.choose("bcast", 8 << 20, 28).algorithm != "shm_slab"
    # POWER8: kernel-assisted k-nomial from medium sizes up
    p8 = Tuner(get_arch("power8"))
    assert p8.choose("bcast", 128 * 1024, 160).algorithm in (
        "knomial",
        "scatter_allgather",
    )


def bench_fig18_bcast_vs_libs(regen):
    _check_shapes(regen("fig18"))


@pytest.mark.slow
def bench_fig18_bcast_vs_libs_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig18", quick=False))
