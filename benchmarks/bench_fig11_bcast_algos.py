"""Fig. 11 — Broadcast algorithms across architectures.

Shape criteria (paper Section V-B4): k-nomial beats both direct designs
on every architecture; scatter-allgather has overhead for small messages
but wins the large-message range through contention avoidance.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    for name, d in exp.data.items():
        grid = d["grid"]
        sizes = sorted(grid)
        small, big = sizes[0], sizes[-1]
        knoms = [k for k in grid[big] if k.startswith("knom-")]
        best_knom_big = min(grid[big][k] for k in knoms)
        best_knom_small = min(grid[small][k] for k in knoms)
        # k-nomial beats the direct designs (the throttled analogue)
        assert best_knom_big < grid[big]["dir-read"], name
        assert best_knom_big < grid[big]["dir-write"], name
        # scatter-allgather: overhead for small...
        assert grid[small]["scat-allg"] > best_knom_small, name
    # ...but wins (or ties k-nomial) at the top end on KNL
    knl = exp.data["knl"]["grid"]
    big = max(knl)
    best_knom = min(v for k, v in knl[big].items() if k.startswith("knom-"))
    assert knl[big]["scat-allg"] < 1.1 * best_knom
    assert knl[big]["scat-allg"] < knl[big]["dir-read"]


def bench_fig11_bcast_algos(regen):
    _check_shapes(regen("fig11"))


@pytest.mark.slow
def bench_fig11_bcast_algos_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig11", quick=False))
