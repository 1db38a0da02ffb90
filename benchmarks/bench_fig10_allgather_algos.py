"""Fig. 10 — Allgather algorithms across architectures.

Shape criteria (paper Section V-A5): Bruck loses for large messages
(extra copies); recursive doubling is competitive only at power-of-two
process counts; on the two-socket Broadwell, Ring-Neighbor-1 (intra-socket
hops) beats Ring-Neighbor-5 (inter-socket hops).
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    knl = exp.data["knl"]["grid"]  # 32 procs quick, 64 full: powers of two
    big = max(knl)
    assert knl[big]["bruck"] > 1.3 * knl[big]["ring-src-rd"]
    assert knl[big]["rec-dbl"] < 1.25 * knl[big]["ring-src-rd"]

    bdw = exp.data["broadwell"]["grid"]  # 28 procs: not a power of two
    big_b = max(bdw)
    # RD's fold/pull tax at 28 procs
    assert bdw[big_b]["rec-dbl"] > bdw[big_b]["ring-src-rd"]
    # socket-aware stride choice (Fig 10(b))
    assert bdw[big_b]["ring-nbr-1"] < bdw[big_b]["ring-nbr-5"]

    # reading straight from the source never loses to the neighbor ring
    for name in exp.data:
        grid = exp.data[name]["grid"]
        row = grid[max(grid)]
        assert row["ring-src-rd"] <= row["ring-nbr-1"] * 1.1, name


def bench_fig10_allgather_algos(regen):
    _check_shapes(regen("fig10"))


@pytest.mark.slow
def bench_fig10_allgather_algos_full():
    """The same shapes on the paper's full axes (64/28/160 processes,
    sizes up to 1 MiB), run serially."""
    _check_shapes(run_experiment("fig10", quick=False))
