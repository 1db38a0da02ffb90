"""Shared helpers for the figure/table benchmarks.

Every bench regenerates one evaluation artifact in quick mode, asserts the
paper's *shape* criteria on the raw data (who wins, where the crossovers
fall), and reports the regeneration time through pytest-benchmark.

The ``regen`` fixture doubles as a determinism harness: each experiment is
regenerated once serially (under the benchmark timer, populating a shared
on-disk cache) and once more under a ``workers=2`` context, and the two
runs must produce identical data and rendered tables.  The second run is
served entirely from the warm cache, so it checks serial == cached and
costs almost nothing; pooled == serial is checked on whole artifacts by
``tests/test_sched.py::TestBitIdentity::test_pooled_artifacts_match_serial``.
"""

import math

import pytest

from repro.bench.figures import run_experiment
from repro.exec import ExecContext, ResultCache, use_context


@pytest.fixture(scope="session")
def sweep_cache(tmp_path_factory):
    """One content-addressed result cache shared by the whole bench session."""
    return ResultCache(tmp_path_factory.mktemp("sweep-cache"))


def _equal(a, b) -> bool:
    """Recursive equality that tolerates numpy scalars/arrays in exp.data."""
    if type(a) is not type(b) and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    try:
        result = a == b
    except Exception:
        return False
    if result is True or result is False:
        return result
    try:  # numpy arrays compare elementwise
        return bool(result.all())
    except AttributeError:
        return False


@pytest.fixture
def regen(benchmark, sweep_cache):
    """Run an experiment serially under the benchmark timer, then again from
    the warm cache, assert the two are identical, and return the first."""

    def _run(exp_id: str):
        with use_context(ExecContext(workers=1, cache=sweep_cache)):
            serial = benchmark.pedantic(
                run_experiment, args=(exp_id,), kwargs={"quick": True},
                rounds=1, iterations=1,
            )
        with use_context(ExecContext(workers=2, cache=sweep_cache)):
            pooled = run_experiment(exp_id, quick=True)
        assert _equal(serial.data, pooled.data), (
            f"{exp_id}: cached run diverged from serial run"
        )
        assert [t.render() for t in serial.tables] == [
            t.render() for t in pooled.tables
        ], f"{exp_id}: rendered tables diverged between serial and cached runs"
        return serial

    return _run
