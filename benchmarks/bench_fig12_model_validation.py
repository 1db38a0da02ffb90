"""Fig. 12 — model validation: predicted vs observed Bcast latency.

Shape criteria (paper Section VI): the analytic model (with fitted
parameters) tracks the simulated latencies — every point within a factor
of two, most much closer, and the relative ordering of the algorithms is
preserved at the large-message end where the model terms dominate.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    algs = ("direct_re", "direct_wr", "scatter_a")
    for name, d in exp.data.items():
        grid = d["grid"]
        sizes = sorted(grid)
        errors = []
        for eta in sizes:
            for alg in algs:
                act = grid[eta][f"act:{alg}"]
                mod = grid[eta][f"mod:{alg}"]
                ratio = mod / act
                errors.append(abs(ratio - 1.0))
                assert 0.45 < ratio < 2.2, (name, eta, alg, ratio)
        # the fit is good on average, not just within loose bounds
        assert sum(errors) / len(errors) < 0.45, name
        # ordering preserved at the largest size
        big = sizes[-1]
        act_order = sorted(algs, key=lambda a: grid[big][f"act:{a}"])
        mod_order = sorted(algs, key=lambda a: grid[big][f"mod:{a}"])
        assert act_order == mod_order, name


def bench_fig12_model_validation(regen):
    _check_shapes(regen("fig12"))


@pytest.mark.slow
def bench_fig12_model_validation_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig12", quick=False))
