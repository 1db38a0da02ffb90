"""Table III — isolating CMA steps by iovec games (T1 <= T2 <= T3 <= T4)."""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    steps = exp.data["steps"]
    for (arch, pages), s in steps.items():
        assert s.t1_syscall < s.t2_check < s.t3_lock_pin < s.t4_copy, (arch, pages)
    # lock+pin grows with the page count; syscall cost does not
    for arch in ("knl", "broadwell", "power8"):
        small, big = steps[(arch, 4)], steps[(arch, 64)]
        assert big.t3_lock_pin - big.t2_check > 2 * (small.t3_lock_pin - small.t2_check)
        assert abs(big.t1_syscall - small.t1_syscall) < 1e-9


def bench_tab03_steps(regen):
    _check_shapes(regen("tab03"))


@pytest.mark.slow
def bench_tab03_steps_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("tab03", quick=False))
