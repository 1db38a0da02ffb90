"""Fig. 15 — MPI_Alltoall: Proposed vs library models.

Shape criteria (paper Section VII-D): native CMA pairwise wins in the
small/medium range (no RTS/CTS, single copy) and the advantage shrinks to
a few percent for the largest messages, where raw data movement dominates
every design.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    for name, d in exp.data.items():
        grid = d["grid"]
        sizes = sorted(grid)
        gains = {}
        for eta in sizes:
            row = grid[eta]
            ours = row["proposed"]
            best_lib = min(row[l] for l in ("mvapich2", "intelmpi", "openmpi"))
            gains[eta] = best_lib / ours
            assert ours <= best_lib * 1.05, (name, eta)
        # visible win somewhere in the range...
        assert max(gains.values()) > 1.05, name
        # ...but only modest improvement at the top end (bandwidth-bound)
        assert gains[sizes[-1]] < 2.0, name


def bench_fig15_alltoall_vs_libs(regen):
    _check_shapes(regen("fig15"))


@pytest.mark.slow
def bench_fig15_alltoall_vs_libs_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig15", quick=False))
