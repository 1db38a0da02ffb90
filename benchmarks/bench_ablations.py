"""Ablations for the design choices DESIGN.md calls out.

* bounce — without the cache-line bounce term, contention collapses to
  ~queueing-linear and throttling loses most of its edge: super-linearity
  is what the contention-aware designs exploit.
* batch — coarser pin batches amortize lock fights; batch=1 is the
  pathological case.
* throttle — the model-derived k* agrees with exhaustive simulation.
"""

import pytest

from repro.bench.figures import run_experiment


def _check_bounce(exp):
    gamma = exp.data["gamma"]
    top = max(gamma["with"])
    # with bounce: super-linear; without: at most ~linear queueing
    assert gamma["with"][top] > 1.3 * top
    assert gamma["without"][top] < 1.3 * top
    # throttling pays off far more when contention is super-linear
    ratios = exp.data["scatter_ratio"]
    assert ratios["with"] > ratios["without"]
    assert ratios["with"] > 1.5


def _check_batch(exp):
    lat = exp.data["latency"]
    # per-page locking is the worst; the kernel's batching helps
    assert lat[1] > lat[16]
    # diminishing returns: 16 -> 64 is a much smaller step than 1 -> 16
    gain_1_16 = lat[1] / lat[16]
    gain_16_64 = lat[16] / lat[64]
    assert gain_1_16 > gain_16_64


def _check_throttle(exp):
    model_k, sim_k = exp.data["model_k"], exp.data["sim_k"]
    sim = exp.data["sim"]
    # the model's pick is within 25% of the simulated optimum's latency
    assert sim[model_k] <= 1.25 * sim[sim_k], (model_k, sim_k)


def bench_ablation_bounce(regen):
    _check_bounce(regen("ablation_bounce"))


@pytest.mark.slow
def bench_ablation_bounce_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_bounce(run_experiment("ablation_bounce", quick=False))


def bench_ablation_batch(regen):
    _check_batch(regen("ablation_batch"))


@pytest.mark.slow
def bench_ablation_batch_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_batch(run_experiment("ablation_batch", quick=False))


def bench_ablation_throttle(regen):
    _check_throttle(regen("ablation_throttle"))


@pytest.mark.slow
def bench_ablation_throttle_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_throttle(run_experiment("ablation_throttle", quick=False))
