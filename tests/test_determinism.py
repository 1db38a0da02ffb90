"""The simulator must be fully deterministic: identical runs, identical
results.  Resume-ability, debugging, and the benchmark assertions all
depend on it."""

import pytest

from repro.core.runner import CollectiveSpec, run_collective
from repro.machine import make_generic


def _spec(**kw):
    base = dict(
        collective="alltoall",
        algorithm="pairwise",
        arch=make_generic(sockets=2, cores_per_socket=4),
        procs=8,
        eta=30_000,
    )
    base.update(kw)
    return CollectiveSpec(**base)


def test_identical_runs_produce_identical_times():
    a = run_collective(_spec())
    b = run_collective(_spec())
    assert a.latency_us == b.latency_us
    assert a.per_rank_us == b.per_rank_us
    assert a.sim_events == b.sim_events
    assert a.ctrl_messages == b.ctrl_messages


@pytest.mark.parametrize(
    "coll,alg,params",
    [
        ("scatter", "throttled_read", {"k": 3}),
        ("bcast", "knomial", {"k": 4}),
        ("allgather", "recursive_doubling", {}),
        ("allreduce", "ring", {}),
    ],
)
def test_determinism_across_algorithms(coll, alg, params):
    runs = {
        run_collective(_spec(collective=coll, algorithm=alg, params=params)).latency_us
        for _ in range(3)
    }
    assert len(runs) == 1


def test_trace_is_deterministic_too():
    """The per-phase times (``trace_by_phase``) repeat bit for bit."""
    def phases():
        return tuple(run_collective(_spec()).trace_by_phase.items())

    assert phases() == phases()
