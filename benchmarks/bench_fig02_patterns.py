"""Fig. 2 — CMA read latency under three access patterns on KNL.

Shape criteria: all-to-all (disjoint pairs) scales flat; one-to-all
degrades badly with reader count; same-buffer vs different-buffers makes
no difference (the bottleneck is the source *process*, not the buffer).
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    readers = exp.data["readers"]
    sizes = exp.data["sizes"]
    grid = exp.data["grid"]
    big = max(sizes)
    lo, hi = f"{min(readers)}r", f"{max(readers)}r"

    a2a = grid["all-to-all (disjoint pairs)"]
    same = grid["one-to-all (same buffer)"]
    diff = grid["one-to-all (different buffers)"]

    # disjoint pairs: flat in reader count
    assert a2a[big][hi] < 1.3 * a2a[big][lo]
    # one-to-all: strong degradation
    assert same[big][hi] > 4 * same[big][lo]
    # the buffer doesn't matter, the source process does
    for n in sizes:
        assert abs(same[n][hi] - diff[n][hi]) < 0.1 * same[n][hi]


def bench_fig02_patterns(regen):
    _check_shapes(regen("fig02"))


@pytest.mark.slow
def bench_fig02_patterns_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig02", quick=False))
