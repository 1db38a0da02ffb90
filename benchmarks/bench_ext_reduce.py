"""Extension — the reduction family (the paper's future-work direction).

Shape criteria: binomial reduce (parallel combines, one reader per source)
beats the root-serial throttled fan-in as vectors grow; the ring designs
win the large-vector regime by spreading both bandwidth and combine work;
recursive doubling wins small Allreduce (fewest rounds).
"""

import pytest

from repro.bench.figures import run_experiment


def _check_shapes(exp):
    red = exp.data["reduce"]
    ar = exp.data["allreduce"]
    small, big = min(red), max(red)

    # large vectors: ring reduce-scatter spreads the work
    assert red[big]["ring-rs"] < red[big]["binomial"]
    assert red[big]["ring-rs"] < red[big]["gather-thr8"]
    # the tree parallelizes combines that the fan-in design serializes
    assert red[big]["binomial"] < red[big]["gather-thr8"]

    # allreduce: latency-optimal vs bandwidth-optimal crossover
    assert ar[small]["rec-dbl"] < ar[small]["ring"]
    assert ar[big]["ring"] < ar[big]["rec-dbl"]
    # composing reduce+bcast is never the best extreme at large sizes
    assert ar[big]["ring"] < ar[big]["red+bcast"]


def bench_ext_reduce(regen):
    _check_shapes(regen("ext_reduce"))


@pytest.mark.slow
def bench_ext_reduce_full():
    """The same shapes on the paper's full axes, run serially."""
    _check_shapes(run_experiment("ext_reduce", quick=False))
