"""Extension — kernel-copy mechanism comparison (Table I context).

Shape criteria (paper Section I): "the raw communication performance of
LiMIC, CMA and KNEM are quite similar"; all three share the
get_user_pages contention; CMA avoids KNEM's cookie / LiMIC's descriptor
setup, which is visible for small transfers and amortized away for large.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    grid = exp.data["grid"]
    small, big = min(grid), max(grid)

    # setup-cost ordering at small sizes: CMA < LiMIC < KNEM
    assert grid[small]["CMA"] < grid[small]["LiMIC"] < grid[small]["KNEM"]
    # "quite similar" overall: within ~15% even at the smallest size
    assert grid[small]["KNEM"] < 1.15 * grid[small]["CMA"]
    # amortized away at the largest size (< 1%)
    assert grid[big]["KNEM"] < 1.01 * grid[big]["CMA"]


def bench_ext_mechanisms(regen):
    _check_shapes(regen("ext_mechanisms"))


@pytest.mark.slow
def bench_ext_mechanisms_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("ext_mechanisms", quick=False))
