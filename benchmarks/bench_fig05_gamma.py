"""Fig. 5 — the contention factor gamma(c) and its NLLS best fit.

Shape criteria: gamma is ~independent of the page count and grows
super-linearly in the reader count; the two-socket machines (Broadwell,
POWER8) show the inter-socket knee; the fit tracks the samples.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    for name, d in exp.data.items():
        samples, fit = d["samples"], d["fit"]
        by_pages = {}
        for s in samples:
            by_pages.setdefault(s.readers, {})[s.pages] = s.gamma
        # page-count independence (the paper's key modelling assumption);
        # short transfers desynchronize the queue, so allow some scatter —
        # the paper's own Fig 5 shows spread between the page-count curves.
        # POWER8 is exempt past the socket boundary: its SMT-8 cores and
        # X-bus make the measured factor noisy across page counts, which is
        # why Fig 5(c) plots only averages.
        for c, per_page in by_pages.items():
            vals = list(per_page.values())
            if c >= 4 and not (name == "power8" and c > 10):
                assert max(vals) < 3.0 * min(vals), (name, c)
        # super-linearity of the fit
        top = max(s.readers for s in samples)
        if top >= 8:
            assert fit(top) > top, f"{name}: gamma should exceed linear"
        # fit quality: rms residual small vs the largest gamma
        assert fit.residual < 0.25 * max(s.gamma for s in samples), name
    # socket knee present only on the two-socket machines
    assert exp.data["broadwell"]["fit"].spill > 0
    assert exp.data["power8"]["fit"].spill > 0
    assert exp.data["knl"]["fit"].spill == 0


def bench_fig05_gamma(regen):
    _check_shapes(regen("fig05"))


@pytest.mark.slow
def bench_fig05_gamma_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig05", quick=False))
