"""Fig. 6 — relative aggregate throughput vs concurrency: the sweet spot.

Shape criteria: a moderate degree of concurrency maximizes aggregate
throughput (more than 1 reader helps; the maximum reader count is *not*
the best for large messages) — the observation the throttled designs
exploit.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    for name, d in exp.data.items():
        readers, grid = d["readers"], d["grid"]
        big = max(grid)
        row = grid[big]
        lo, hi = f"{readers[0]}r", f"{readers[-1]}r"
        # some concurrency beats a single reader
        assert max(row.values()) > 1.2, name
        # the sweet spot is interior: max throughput not at max concurrency
        best = max(row, key=row.get)
        assert best != hi, f"{name}: sweet spot should not be max readers"
    # KNL at full subscription: aggregate throughput *collapses below one
    # reader's* for large messages — the strongest form of the paper's
    # motivation (Fig 6(a)'s 64-reader curve)
    knl = exp.data["knl"]["grid"]
    top = f"{exp.data['knl']['readers'][-1]}r"
    assert knl[max(knl)][top] < 1.5


def bench_fig06_throughput(regen):
    _check_shapes(regen("fig06"))


@pytest.mark.slow
def bench_fig06_throughput_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig06", quick=False))
