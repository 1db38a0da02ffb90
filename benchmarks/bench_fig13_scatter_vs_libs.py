"""Fig. 13 — MPI_Scatter: Proposed vs MVAPICH2/Intel MPI/Open MPI models.

Shape criteria (paper Section VII-B): the proposed design wins at every
message size on every architecture, by several-fold in the medium/large
range; improvements are largest where contention-unaware baselines hit
the mm-lock wall.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    for name, d in exp.data.items():
        grid = d["grid"]
        best_gain = 0.0
        for eta, row in grid.items():
            ours = row["proposed"]
            for lib in ("mvapich2", "intelmpi", "openmpi"):
                assert ours <= row[lib] * 1.15, (name, eta, lib)
                best_gain = max(best_gain, row[lib] / ours)
        assert best_gain > 3.0, f"{name}: expected multi-x scatter win"


def bench_fig13_scatter_vs_libs(regen):
    _check_shapes(regen("fig13"))


@pytest.mark.slow
def bench_fig13_scatter_vs_libs_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig13", quick=False))
