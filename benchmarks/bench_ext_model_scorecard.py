"""Extension — model-vs-simulation scorecard across the algorithm matrix.

Shape criteria: the closed forms for contention-free designs (sequential,
pairwise, ring, chain, recursive doubling) are near-exact; the contended
designs (parallel/throttled/k-nomial) carry the fitted-gamma error, which
stays well-bounded — the quantitative backing for Fig 12's "closely
matches" claim plus an honest bound on where the model is soft.
"""

import pytest

from repro.bench.figures import run_experiment


UNCONTENDED = {
    ("scatter", "sequential_write"),
    ("alltoall", "pairwise"),
    ("allgather", "ring_source_read"),
    ("allgather", "recursive_doubling"),
    ("bcast", "direct_write"),
    ("bcast", "scatter_allgather"),
    ("bcast", "chain"),
    ("reduce", "binomial"),
    ("allreduce", "ring"),
}


def _check_shapes(exp):
    errors = exp.data["errors"]
    means = []
    for key, (mean_err, max_err) in errors.items():
        means.append(mean_err)
        if key in UNCONTENDED:
            assert mean_err < 0.12, (key, mean_err)
        else:
            # contended designs: fitted gamma vs transient queue dynamics
            assert mean_err < 0.60, (key, mean_err)
        assert max_err < 0.80, (key, max_err)
    assert sum(means) / len(means) < 0.25


def bench_ext_model_scorecard(regen):
    _check_shapes(regen("ext_model_scorecard"))


@pytest.mark.slow
def bench_ext_model_scorecard_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("ext_model_scorecard", quick=False))
