"""Fig. 7 — Scatter algorithms: parallel read / sequential write /
throttled-k across the three architectures.

Shape criteria (paper Section IV-A4): parallel read wins small messages
but is the worst for large ones on KNL; throttled k in {4,8} wins the
medium/large range on KNL; POWER8's best throttle is ~10 (one socket's
cores); every algorithm result verified for MPI semantics elsewhere.
"""

import pytest

from repro.bench.figures import run_experiment


def _winner(row):
    return min(row, key=row.get)


def _check_shapes(exp):
    knl = exp.data["knl"]["grid"]
    small, big = min(knl), max(knl)

    # KNL: over-throttling (k=2, nearly serial) loses to parallel read at
    # large sizes; the tuned k is interior (thr-8 beats both thr-2 and the
    # largest k) — the optimum the paper's Fig 6/7 sweet spot predicts.
    # (The paper's small-message par-read advantage does not reproduce:
    # our wave-synchronization tokens are cheaper than a real MPI stack's;
    # see EXPERIMENTS.md deviations.)
    assert knl[big]["par-read"] > knl[big]["thr-2"]
    best_thr = min(v for k, v in knl[big].items() if k.startswith("thr-"))
    assert knl[big]["thr-2"] > best_thr
    thr_keys = sorted(
        (k for k in knl[big] if k.startswith("thr-")),
        key=lambda k: int(k.split("-")[1]),
    )
    assert knl[big][thr_keys[-1]] > best_thr  # largest k not optimal either
    # the best throttle beats parallel read by a wide margin at large sizes
    assert knl[big]["par-read"] > 1.8 * best_thr
    # parallel read is one of the two losers for large messages among the
    # paper's CMA algorithms (the extension xpmem lane sits outside this
    # Fig 7 claim: its cold one-shot map+fault-in cost makes it lose large
    # scatters by design — see EXPERIMENTS.md)
    cma_row = {k: v for k, v in knl[big].items() if k != "xpmem"}
    worst_two = sorted(cma_row, key=cma_row.get)[-2:]
    assert "par-read" in worst_two
    # and the mapped window indeed never wins a one-shot large scatter
    assert knl[big]["xpmem"] > best_thr
    # throttled 4/8 take the large-message win on KNL
    assert _winner(knl[big]) in ("thr-4", "thr-8")
    # throttling beats both extremes at every size beyond the smallest
    for eta in list(knl)[1:]:
        best_thr = min(v for k, v in knl[eta].items() if k.startswith("thr-"))
        assert best_thr < knl[eta]["par-read"]
        assert best_thr < knl[eta]["seq-write"]

    # POWER8: large system bandwidth + big pages favour k ~ one socket
    p8 = exp.data["power8"]["grid"]
    assert _winner(p8[max(p8)]) == "thr-10"

    # Broadwell: contention costs the least there (paper: "the performance
    # difference between different algorithms is smaller for Broadwell") —
    # measured as how much parallel read loses to the best throttle
    def contention_spread(grid):
        row = grid[max(grid)]
        best_thr = min(v for k, v in row.items() if k.startswith("thr-"))
        return row["par-read"] / best_thr

    assert contention_spread(exp.data["broadwell"]["grid"]) < contention_spread(knl)


def bench_fig07_scatter_algos(regen):
    _check_shapes(regen("fig07"))


@pytest.mark.slow
def bench_fig07_scatter_algos_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("fig07", quick=False))
