"""Table IV — recovered model parameters per architecture.

Shape criteria: the measurement pipeline recovers the ground-truth
uncontended constants (alpha, beta, l, s) to within 2%, and every fitted
gamma is super-linear (positive quadratic term).
"""

import pytest

from repro.bench.figures import run_experiment
from repro.machine import get_arch


def _check_shapes(exp):
    fits = exp.data["fits"]
    for name, fa in fits.items():
        truth = get_arch(name).params
        assert abs(fa.base.alpha - truth.alpha) < 0.02 * truth.alpha, name
        assert abs(fa.base.l_page - truth.l_page) < 0.02 * truth.l_page, name
        assert abs(fa.base.beta - truth.beta) < 0.02 * truth.beta, name
        assert fa.base.page_size == truth.page_size
        superlinear = fa.gamma.g2 > 0.001 or fa.gamma.spill > 0.01
        assert superlinear, f"{name}: gamma must be super-linear"
    # POWER8's huge pages: 16x fewer locks per byte than x86
    assert fits["power8"].base.page_size == 16 * fits["knl"].base.page_size


def bench_tab04_params(regen):
    _check_shapes(regen("tab04"))


@pytest.mark.slow
def bench_tab04_params_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("tab04", quick=False))
