"""Fig. 3 — One-to-all degradation on KNL, Broadwell, and POWER8.

Shape criteria: every architecture degrades with concurrency; KNL (slow
cores, strong bouncing) degrades hardest, Broadwell (few fast cores)
mildest — the paper's cross-architecture generality claim.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    big_ratio = {}
    for name, d in exp.data.items():
        readers = d["readers"]
        grid = d["grid"]
        big = max(grid)
        lo, hi = f"{readers[0]}r", f"{readers[-1]}r"
        ratio = grid[big][hi] / grid[big][lo]
        big_ratio[name] = ratio
        assert ratio > 2.5, f"{name} should degrade under one-to-all"
    assert big_ratio["knl"] > big_ratio["broadwell"]


def bench_fig03_arch_sweep(regen):
    _check_shapes(regen("fig03"))


@pytest.mark.slow
def bench_fig03_arch_sweep_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig03", quick=False))
