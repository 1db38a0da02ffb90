"""Fig. 9 — three implementations of the pairwise Alltoall schedule.

Shape criteria (paper Section IV-C3): CMA-pt2pt beats SHMEM for large
messages (single copy); native CMA-coll beats CMA-pt2pt in the small and
medium range (no RTS/CTS per transfer); for the largest messages the two
CMA variants converge (control traffic is amortized away).
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    for name, d in exp.data.items():
        grid = d["grid"]
        sizes = sorted(grid)
        big = sizes[-1]
        # single-copy beats two-copy at the top end
        assert grid[big]["CMA-pt2pt"] < grid[big]["SHMEM"], name
        # native collective never loses to pt2pt, and wins visibly somewhere
        gains = []
        for eta in sizes:
            assert grid[eta]["CMA-coll"] <= grid[eta]["CMA-pt2pt"] * 1.02, (name, eta)
            gains.append(grid[eta]["CMA-pt2pt"] / grid[eta]["CMA-coll"])
        assert max(gains) > 1.05, name
        # convergence at the largest size: RTS/CTS no longer matters much
        assert gains[-1] < gains[0] or gains[-1] < 1.2, name


def bench_fig09_alltoall_impls(regen):
    _check_shapes(regen("fig09"))


@pytest.mark.slow
def bench_fig09_alltoall_impls_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig09", quick=False))
