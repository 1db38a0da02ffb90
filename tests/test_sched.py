"""The pooled sweep dispatcher's contract battery.

Three layers, mirroring DESIGN.md §5:

* **Bit-identity** (hypothesis): whatever dispatch does — chunking,
  greedy group hand-out, cache reads — results must be byte-for-byte
  what a serial uncached run produces, across ``workers ∈ {1, 2, 8}``,
  cached and uncached; whole artifacts render identically pooled and
  serial.
* **Routing invariants** (unit): a warm group never runs on two workers
  concurrently (asserted both structurally on :class:`_Router` and
  empirically from profile timelines of a real :class:`StickyPool`), an
  idle worker takes the next-biggest group, and chunks respect the price
  target and ``MAX_CHUNK``.
* **Robustness**: worker death salvages in-process with identical
  results, a point that keeps killing workers is computed in the parent,
  and point exceptions propagate without poisoning the pool.
"""

import itertools
import os
import shutil
import tempfile
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.sched as sched_mod
import repro.exec.sweep as sweep_mod
from repro.bench.figures import run_experiment
from repro.bench.report import sweep_summary
from repro.core.runner import CollectiveSpec, run_collective
from repro.exec import ExecContext, ResultCache, use_context
from repro.exec.sched import (
    MAX_CHUNK,
    StickyPool,
    _Router,
    build_chunks,
    point_cost,
)
from repro.exec.sweep import (
    _exec_point,
    _pool_group_key,
    run_specs,
    sweep,
)
from repro.machine import get_arch


# -- module-level so pool workers can pickle them ---------------------------


def _double(x):
    return x * 2


def _timed_point(pt):
    """Sleep for the point's duration, then echo it back."""
    _gid, _idx, dur = pt
    time.sleep(dur)
    return pt


def _raise_on_neg(x):
    if x < 0:
        raise ValueError(f"negative point {x}")
    return x + 1


def _exit_in_worker(x):
    """Kill the hosting process — but only when it isn't the test parent
    (inline salvage must be able to run this very function safely)."""
    if str(os.getpid()) != os.environ.get("SCHED_TEST_PARENT_PID", ""):
        os._exit(23)
    return x * 3


def _exit_in_sched_worker(x):
    """Kill scheduler worker processes only: the parent runs it fine."""
    import multiprocessing as mp

    if mp.current_process().name.startswith("repro-sched-"):
        os._exit(23)
    return x * 3


# -- shared fixtures --------------------------------------------------------


def _fig07_slice_specs():
    arch = get_arch("knl")
    specs = []
    for eta in (16 * 1024, 256 * 1024):
        for alg, params in (
            ("parallel_read", {}),
            ("sequential_write", {}),
            ("throttled_read", {"k": 4}),
        ):
            specs.append(
                CollectiveSpec(
                    "scatter", alg, arch, procs=12, eta=eta, params=params
                )
            )
    return specs


def _result_fields(res):
    return (
        res.latency_us,
        tuple(res.per_rank_us),
        res.ctrl_messages,
        res.cma_reads,
        res.cma_writes,
        res.sim_events,
    )


_BASELINE = None


def _serial_baseline():
    global _BASELINE
    if _BASELINE is None:
        _BASELINE = [_result_fields(run_collective(s)) for s in _fig07_slice_specs()]
    return _BASELINE


def _make_pool(workers, **kwargs):
    try:
        return StickyPool(workers, **kwargs)
    except Exception as exc:  # pragma: no cover - fork-restricted hosts
        pytest.skip(f"cannot start scheduler workers: {exc}")


def _pooled_context():
    """A two-worker context on an explicit pool, so misses go through the
    dispatcher even where one usable CPU would pick the plain loop."""
    ctx = ExecContext(workers=2)
    ctx.adopt_sched_pool(_make_pool(2))
    return ctx


# -- bit-identity battery ----------------------------------------------------


class TestBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        workers=st.sampled_from([1, 2, 8]),
        cached=st.booleans(),
    )
    def test_scheduled_sweep_matches_serial(self, workers, cached):
        """workers x cached/uncached: all bit-identical."""
        specs = _fig07_slice_specs()
        expect = _serial_baseline()
        tmp = tempfile.mkdtemp(prefix="sched-cache-")
        try:
            cache = ResultCache(tmp) if cached else None
            with use_context(ExecContext(workers=workers, cache=cache)) as cold:
                first = run_specs(specs)
            with use_context(ExecContext(workers=workers, cache=cache)) as warm:
                second = run_specs(specs)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        assert [_result_fields(r) for r in first] == expect
        assert [_result_fields(r) for r in second] == expect
        assert cold.stats.cache_hits == 0
        assert cold.stats.points_run == len(specs)
        assert warm.stats.cache_hits == (len(specs) if cached else 0)
        assert warm.stats.points_run == (0 if cached else len(specs))

    def test_sticky_pool_matches_serial(self):
        """Actual multi-process dispatch returns exactly the serial values."""
        points = _fig07_slice_specs()
        serial = [_exec_point(p) for p in points]
        costs = [point_cost(p) for p in points]
        groups = [_pool_group_key(p) for p in points]
        pool = _make_pool(2)
        try:
            results, stats = pool.run(
                _exec_point, points, costs=costs, groups=groups
            )
        finally:
            pool.close()
        assert results == serial
        assert stats.pooled and stats.points == len(points)
        assert sum(stats.chunk_sizes) == len(points)

    def test_on_result_streams_every_point(self):
        seen = {}
        pool = _make_pool(2)
        try:
            results, stats = pool.run(
                _double,
                list(range(10)),
                on_result=lambda i, v: seen.__setitem__(i, v),
            )
        finally:
            pool.close()
        assert results == [x * 2 for x in range(10)]
        assert seen == {i: i * 2 for i in range(10)}
        assert stats.chunks >= 1

    @pytest.mark.parametrize("exp_id", ["fig07", "fig13"])
    def test_pooled_artifacts_match_serial(self, exp_id):
        """A whole artifact, cache off, regenerated serially and through a
        real two-worker pool: identical data and rendered tables."""
        with use_context(ExecContext(workers=1)) as serial_ctx:
            serial = run_experiment(exp_id, quick=True)
        with use_context(_pooled_context()) as pooled_ctx:
            pooled = run_experiment(exp_id, quick=True)
        assert serial_ctx.stats.sched_chunks == 0
        assert pooled_ctx.stats.cache_hits == 0
        assert pooled_ctx.stats.sched_points == pooled_ctx.stats.points_run
        assert pooled_ctx.stats.sched_chunks >= 1
        assert pooled.data == serial.data
        assert [t.render() for t in pooled.tables] == [
            t.render() for t in serial.tables
        ]


# -- routing invariants ------------------------------------------------------


def _overlapping(a, b):
    return a["start_s"] < b["end_s"] and b["start_s"] < a["end_s"]


def _assert_groups_exclusive(profile):
    """No group's chunks may overlap in time across different workers."""
    by_group = {}
    for rec in profile:
        by_group.setdefault(rec["group"], []).append(rec)
    for group, recs in by_group.items():
        for a, b in itertools.combinations(recs, 2):
            if a["worker"] != b["worker"]:
                assert not _overlapping(a, b), (
                    f"group {group} ran concurrently on workers "
                    f"{a['worker']} and {b['worker']}: {a} vs {b}"
                )
    return by_group


class TestStickyRouting:
    def _uneven_points(self):
        """Four equal-price groups alternating fast and slow: both workers
        are busy at once, and whichever drains first takes the next group
        while the other's slow group is still in flight."""
        points, groups = [], []
        for gid in range(4):
            dur = 0.08 if gid % 2 else 0.004
            for idx in range(3):
                points.append((gid, idx, dur))
                groups.append(("grp", gid))
        return points, groups

    def test_warm_group_never_on_two_workers_concurrently(self):
        points, groups = self._uneven_points()
        pool = _make_pool(2)
        try:
            results, stats = pool.run(
                _timed_point,
                points,
                costs=[1.0] * len(points),
                groups=groups,
                profile=True,
            )
        finally:
            pool.close()
        assert results == points
        assert stats.profile and len(stats.profile) == stats.chunks
        _assert_groups_exclusive(stats.profile)

    def test_router_dispatches_front_group_to_completion(self):
        plans = build_chunks(
            [3.0, 3.0, 1.0], ["A", "A", "C"], workers=1, oversub=1, max_chunk=1
        )
        router = _Router(plans, workers=1)
        order = []
        while True:
            ch = router.next_for(0)
            if ch is None:
                break
            order.append(ch.group)
        assert order == ["A", "A", "C"]  # sticky: A finishes before C starts

    def test_idle_worker_takes_next_biggest_group(self):
        # Prices: A 6 (three chunks), B 4, C 2 — handed out biggest first.
        plans = build_chunks(
            [2.0, 2.0, 2.0, 4.0, 2.0],
            ["A", "A", "A", "B", "C"],
            workers=2, oversub=1, max_chunk=1,
        )
        router = _Router(plans, workers=2)
        first = router.next_for(0)
        assert (first.group, first.indices) == ("A", (0,))
        assert router.next_for(1).group == "B"
        # w1 drained B while w0 still holds A: w1 takes C, never A.
        assert router.next_for(1).group == "C"
        # Every group is taken and w1 holds nothing more: None.
        assert router.next_for(1) is None
        # A's remaining chunks stay on w0, in input order.
        rest = [router.next_for(0).indices for _ in range(2)]
        assert rest == [(1,), (2,)]
        assert router.next_for(0) is None


class TestChunking:
    def test_max_chunk_cap(self):
        plans = build_chunks([1.0] * 100, None, workers=1)
        sizes = [len(c.indices) for p in plans for c in p.chunks]
        assert sum(sizes) == 100
        assert max(sizes) <= MAX_CHUNK

    def test_cost_target_splits_heavy_points(self):
        # target = 13 / (2*1) = 6.5: the 10-cost point rides alone.
        plans = build_chunks(
            [10.0, 1.0, 1.0, 1.0], ["g"] * 4, workers=2, oversub=1
        )
        assert len(plans) == 1
        sizes = [len(c.indices) for c in plans[0].chunks]
        assert sizes == [1, 3]

    def test_biggest_group_first(self):
        plans = build_chunks([5.0, 20.0], ["small", "big"], workers=2)
        assert [p.group for p in plans] == ["big", "small"]

    def test_input_order_within_group(self):
        plans = build_chunks([1.0] * 6, ["g"] * 6, workers=1, max_chunk=2)
        indices = [i for c in plans[0].chunks for i in c.indices]
        assert indices == list(range(6))

    def test_ungrouped_chunks_are_separate_groups(self):
        plans = build_chunks([1.0] * 4, None, workers=1, oversub=1, max_chunk=2)
        assert len(plans) == 2  # one pseudo-group per chunk
        assert all(len(p.chunks) == 1 for p in plans)
        assert {i for p in plans for i in p.chunks[0].indices} == {0, 1, 2, 3}


class TestCostModel:
    """:func:`point_cost`, the ``procs * bytes * lane`` dispatch price."""

    def test_bigger_messages_cost_more(self):
        arch = get_arch("knl")
        costs = [
            point_cost(
                CollectiveSpec("scatter", "parallel_read", arch,
                               procs=12, eta=eta)
            )
            for eta in (4 * 1024, 64 * 1024, 1024 * 1024)
        ]
        assert costs == sorted(costs) and costs[0] < costs[-1]

    def test_microbench_points_price_by_size(self):
        small = SimpleNamespace(kwargs=(("nbytes", 1024), ("readers", 2)))
        big = SimpleNamespace(kwargs=(("nbytes", 1 << 20), ("readers", 2)))
        assert point_cost(small) < point_cost(big)


# -- robustness --------------------------------------------------------------


class TestSchedRobustness:
    def test_respawn_budget_exhaustion_salvages_inline(self, monkeypatch):
        """Old salvage contract, now behind the respawn budget: when the
        pool cannot keep workers alive it breaks and recomputes inline."""
        monkeypatch.setenv("SCHED_TEST_PARENT_PID", str(os.getpid()))
        pool = _make_pool(2, max_respawns=1, poison_strikes=99)
        try:
            results, stats = pool.run(
                _exit_in_worker, [1, 2, 3, 4], costs=[1.0] * 4
            )
        finally:
            pool.close()
        assert results == [3, 6, 9, 12]
        assert stats.fallback_points >= 1
        assert pool.broken
        # The break names its cause: the spent budget and the lost
        # worker's exit code.
        assert stats.broken_reason.startswith(
            "respawn budget exhausted (1/1) after worker"
        )
        assert "(exitcode 23)" in stats.broken_reason

    def test_repeat_killer_points_are_quarantined(self, monkeypatch):
        """A point that keeps killing workers is computed in the parent
        once out of strikes, as a serial sweep would compute it; the sweep
        completes with every value and the pool stays usable."""
        monkeypatch.setenv("SCHED_TEST_PARENT_PID", str(os.getpid()))
        pool = _make_pool(2, max_respawns=50, poison_strikes=2)
        try:
            results, stats = pool.run(
                _exit_in_worker, [1, 2, 3, 4], costs=[1.0] * 4
            )
            assert not pool.broken
            assert results == [3, 6, 9, 12]
            assert stats.fallback_points == 4
            assert stats.broken_reason == ""
            assert stats.respawns >= 4
            # The pool survived the quarantine: a healthy run still works.
            healthy, _ = pool.run(_double, [5, 6], costs=[1.0] * 2)
        finally:
            pool.close()
        assert healthy == [10, 12]

    def test_sandbox_rescues_worker_killer(self):
        """A point that only kills *scheduler workers* is computed in the
        parent after its one strike — full results, the pool unbroken."""
        pool = _make_pool(2, max_respawns=50, poison_strikes=1)
        try:
            results, stats = pool.run(
                _exit_in_sched_worker, [1, 2, 3, 4], costs=[1.0] * 4
            )
        finally:
            pool.close()
        assert results == [3, 6, 9, 12]
        assert stats.fallback_points >= 1
        assert not pool.broken

    def test_worker_killer_point_keeps_artifact_whole(self, monkeypatch):
        """One collective point that kills every process but the parent:
        out of strikes, it is computed in the parent, and the pooled
        artifact renders exactly as a serial one.  (A quarantine marker
        in its slot once crashed rendering on a missing ``latency_us``.)"""
        parent = os.getpid()
        real = sweep_mod._compute_collective

        def killer(spec, warm):
            if os.getpid() != parent and spec.arch.name == "knl" and \
                    spec.algorithm == "parallel_read" and \
                    spec.eta == 256 * 1024:
                os._exit(23)
            return real(spec, warm)

        with use_context(ExecContext(workers=1)):
            serial = run_experiment("fig07", quick=True)
        # Patched before the pool forks, so its workers inherit it.
        monkeypatch.setattr(sweep_mod, "_compute_collective", killer)
        ctx = ExecContext(workers=2)
        ctx.adopt_sched_pool(_make_pool(2, max_respawns=50))
        with use_context(ctx):
            pooled = run_experiment("fig07", quick=True)
        assert [t.render() for t in pooled.tables] == [
            t.render() for t in serial.tables
        ]
        assert ctx.stats.sched_fallbacks >= 1

    def test_point_exception_propagates_and_pool_survives(self):
        pool = _make_pool(2)
        try:
            with pytest.raises(ValueError, match="negative point"):
                pool.run(_raise_on_neg, [1, -2, 3], costs=[1.0] * 3)
            assert not pool.broken
            results, _ = pool.run(_double, [5, 6, 7, 8], costs=[1.0] * 4)
        finally:
            pool.close()
        assert results == [10, 12, 14, 16]

    def test_one_cpu_sweep_runs_plain_loop(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "usable_cpus", lambda: 1)
        with use_context(ExecContext(workers=8)) as ctx:
            results = sweep("unit.one_cpu", _double, list(range(10)))
        assert results == [x * 2 for x in range(10)]
        assert ctx.stats.points_run == 10
        assert ctx.stats.sched_chunks == 0

    def test_broken_pool_runs_in_order_salvage(self):
        pool = _make_pool(2)
        pool.close()
        pool.broken = True
        seen = []
        results, stats = pool.run(
            _double, [3, 1, 2], on_result=lambda i, v: seen.append(i)
        )
        assert results == [6, 2, 4]
        assert seen == [0, 1, 2]
        assert not stats.pooled and stats.fallback_points == 3


# -- context wiring and reporting -------------------------------------------


class TestContextIntegration:
    def test_sweep_records_sched_stats(self):
        specs = _fig07_slice_specs()
        with use_context(_pooled_context()) as ctx:
            run_specs(specs)
        assert ctx.stats.sched_points == len(specs)
        assert ctx.stats.sched_chunks >= 1
        line = sweep_summary(ctx.stats)
        assert f"sched: {ctx.stats.sched_chunks} chunks" in line

    def test_serial_sweep_runs_misses_in_input_order(self, monkeypatch):
        """No pool: the misses run one after another in input order (not
        biggest group first), and no dispatcher chunks are recorded."""
        arch = get_arch("knl")
        specs = [
            CollectiveSpec("scatter", "parallel_read", arch, procs=procs,
                           eta=eta)
            # two warm-node groups; the 12-rank one is priced far higher
            for procs, eta in ((4, 16 * 1024), (12, 256 * 1024), (4, 64 * 1024))
        ]
        seen = []
        real = sweep_mod._compute_collective

        def recording(spec, warm):
            seen.append((spec.procs, spec.eta))
            return real(spec, warm)

        monkeypatch.setattr(sweep_mod, "_compute_collective", recording)
        with use_context(ExecContext(workers=1)) as ctx:
            run_specs(specs)
        assert seen == [(s.procs, s.eta) for s in specs]
        assert ctx.stats.points_run == len(specs)
        assert ctx.stats.sched_chunks == 0

    def test_single_miss_runs_plain_loop(self):
        """One miss skips the scheduler: no chunk stats, same value."""
        specs = _fig07_slice_specs()[:1]
        with use_context(ExecContext(workers=2)) as ctx:
            results = run_specs(specs)
        assert [_result_fields(r) for r in results] == _serial_baseline()[:1]
        assert ctx.stats.points_run == 1
        assert ctx.stats.sched_chunks == 0
        assert "sched:" not in sweep_summary(ctx.stats)

    def test_sweep_summary_breaks_out_kinds(self, tmp_path):
        """The report line splits each sweep kind's run/hit counts, so one
        kind's cache misses can't hide in the aggregate."""
        with use_context(ExecContext(cache=tmp_path)) as ctx:
            sweep("unit.kind", _double, [1])
            ctx.stats.record_kind("collective", 10, 2, 8)
            line = sweep_summary(ctx.stats)
        assert "unit.kind 1 run/0 hit" in line
        assert "collective 2 run/8 hit" in line

    def test_quarantine_count_surfaces_in_stats(self, tmp_path):
        specs = _fig07_slice_specs()[:2]
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("collective", specs[0])
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"definitely not a pickle")
        with use_context(ExecContext(workers=1, cache=cache)) as ctx:
            results = run_specs(specs)
        assert [_result_fields(r) for r in results] == _serial_baseline()[:2]
        assert ctx.stats.cache_quarantined == 1
        assert "1 quarantined" in sweep_summary(ctx.stats)

    def test_sched_pool_gated_off(self, monkeypatch):
        assert ExecContext(workers=1).sched_pool() is None
        monkeypatch.setattr(sched_mod, "usable_cpus", lambda: 1)
        ctx = ExecContext(workers=4)
        try:
            assert ctx.sched_pool() is None  # 1 usable CPU: inline wins
        finally:
            ctx.close()
