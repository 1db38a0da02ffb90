"""Fig. 8 — Gather algorithms: the Scatter designs mirrored.

Shape criteria (paper Section IV-B4): trends mirror Scatter — throttled
writes win the medium/large range, with k ~ 4-8 on KNL and ~10 on POWER8.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    knl = exp.data["knl"]["grid"]
    big = max(knl)

    assert min(knl[big], key=knl[big].get) in ("thr-4", "thr-8")
    # worst-two claim is about the paper's CMA algorithms; the extension
    # xpmem lane loses one-shot large gathers by design (cold map+fault-in,
    # see EXPERIMENTS.md) and would displace par-write here
    cma_row = {k: v for k, v in knl[big].items() if k != "xpmem"}
    worst_two = sorted(cma_row, key=cma_row.get)[-2:]
    assert "par-write" in worst_two

    p8 = exp.data["power8"]["grid"]
    assert min(p8[max(p8)], key=p8[max(p8)].get) == "thr-10"

    # mirror symmetry with Scatter: same winner family at large sizes
    for name in ("knl", "broadwell", "power8"):
        grid = exp.data[name]["grid"]
        row = grid[max(grid)]
        best = min(row, key=row.get)
        assert best.startswith("thr-"), name


def bench_fig08_gather_algos(regen):
    _check_shapes(regen("fig08"))


@pytest.mark.slow
def bench_fig08_gather_algos_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig08", quick=False))
