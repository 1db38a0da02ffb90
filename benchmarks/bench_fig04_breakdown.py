"""Fig. 4 — breakdown of a CMA read on Broadwell into the kernel's phases
(the paper's ftrace view), from the always-on phase counters.

Shape criteria: with one reader, copy dominates and lock waiting is ~zero;
under 27-way contention the lock(+pin) share explodes — the paper's
"majority of the time is spent inside get_user_pages" observation.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    data = exp.data["breakdown"]
    pages = max(p for p, _ in data)

    solo = data[(pages, 1)]
    crowd = data[(pages, 27)]

    # uncontended: no queueing, copy is the dominant phase
    assert solo.get("lock", 0.0) < 0.05 * solo["copy"]
    # contended: lock waiting grows by orders of magnitude...
    assert crowd["lock"] > 50 * max(solo.get("lock", 0.0), 1e-6)
    # ...and lock+pin overtakes the copy itself
    assert crowd["lock"] + crowd["pin"] > crowd["copy"]
    # per-call pin time also inflates (cache-line bouncing, not just queueing)
    assert crowd["pin"] > 1.5 * solo["pin"]


def bench_fig04_breakdown(regen):
    _check_shapes(regen("fig04"))


@pytest.mark.slow
def bench_fig04_breakdown_full():
    """The same shapes on the paper's full axes (1-1000 pages), run
    serially."""
    _check_shapes(run_experiment("fig04", quick=False))
