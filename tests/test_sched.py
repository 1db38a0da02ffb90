"""The work-stealing sweep scheduler's contract battery.

Three layers, mirroring DESIGN.md §5:

* **Bit-identity** (hypothesis): whatever the scheduler does — chunking,
  stealing, sticky routing, cache reads — results must be byte-for-byte
  what a serial uncached run produces, across ``workers ∈ {1, 2, 8}``,
  cached and uncached.
* **Routing invariants** (unit): a warm group never runs on two workers
  concurrently (asserted both structurally on :class:`_Router` and
  empirically from profile timelines of a real :class:`StickyPool`),
  stealing moves whole non-busy groups only, and chunks respect the cost
  target and ``MAX_CHUNK``.
* **Robustness**: worker death salvages inline with identical results;
  point exceptions propagate without poisoning the pool.
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
from repro.bench.report import sweep_summary
from repro.core.model import AnalyticModel
from repro.core.runner import CollectiveSpec, run_collective
from repro.exec import ExecContext, ResultCache, use_context
from repro.exec.sched import (
    MAX_CHUNK,
    CostModel,
    PoisonedPoint,
    StickyPool,
    _Router,
    build_chunks,
    run_scheduled,
)
from repro.exec.sweep import (
    _exec_point,
    _pool_group_key,
    _slim_point,
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
    (inline salvage must be able to run this very function safely).
    Also kills the poison sandbox, which is not the parent either."""
    if str(os.getpid()) != os.environ.get("SCHED_TEST_PARENT_PID", ""):
        os._exit(23)
    return x * 3


def _exit_in_sched_worker(x):
    """Kill scheduler worker processes only: the poison-retry sandbox
    (named ``repro-sched-sandbox``) and the parent run it fine."""
    import multiprocessing as mp

    if mp.current_process().name.startswith("repro-sched-") and \
            "sandbox" not in mp.current_process().name:
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
        specs = _fig07_slice_specs()
        points = [_slim_point(s) for s in specs]
        serial = [_exec_point(p) for p in points]
        cm = CostModel()
        costs = [cm.cost(p) for p in points]
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
        results, stats = run_scheduled(
            _double,
            list(range(10)),
            workers=1,
            costs=[1.0] * 10,
            on_result=lambda i, v: seen.__setitem__(i, v),
        )
        assert results == [x * 2 for x in range(10)]
        assert seen == {i: i * 2 for i in range(10)}
        assert stats.chunks >= 1


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
        """Four equal-cost groups, two slow and two fast: LPT pairs them
        (fast, fast) vs (slow, slow), so the fast worker drains first and
        a steal is guaranteed while one slow group is still in flight."""
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
        assert stats.steals >= 1  # the drained worker stole a slow group
        assert stats.profile and len(stats.profile) == stats.chunks
        _assert_groups_exclusive(stats.profile)

    def test_router_never_steals_a_busy_group(self):
        # Group A: two single-point chunks on w0; group B: one chunk on w1.
        plans = build_chunks(
            [2.0, 2.0, 1.0], ["A", "A", "B"], workers=2, oversub=1, max_chunk=1
        )
        router = _Router(plans, workers=2)
        first = router.next_for(0)
        assert first.group == "A"  # A is the costliest, LPT-assigned to w0
        assert router.next_for(1).group == "B"
        router.on_done(1)
        # A still has a chunk queued on w0 but is busy: unstealable.
        assert router.next_for(1) is None
        assert router.steals == 0
        router.on_done(0)
        stolen = router.next_for(1)
        assert stolen is not None and stolen.group == "A" and stolen.stolen
        assert router.steals == 1
        # The stolen group left w0's queue entirely (whole-group steals).
        assert router.next_for(0) is None

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
            router.on_done(0)
        assert order == ["A", "A", "C"]  # sticky: A finishes before C starts

    def test_warm_hint_prefers_matching_worker(self):
        # Group key embeds the NodePool key in its first three fields.
        # Plain LPT would give the first (warm) group to w0; the hint —
        # within the 1.5x-mean load guard — routes it to warm w1 instead.
        g = ("knl", 12, True, False, "cma")
        h = ("bdw", 8, True, False, "cma")
        plans = build_chunks([1.0, 1.0], [g, h], workers=2)
        router = _Router(
            plans, workers=2, warm_hint={1: (("knl", 12, True),)}
        )
        assert [p.group for p in router.queues[1]] == [g]
        assert [p.group for p in router.queues[0]] == [h]


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

    def test_ungrouped_chunks_are_individually_stealable(self):
        plans = build_chunks([1.0] * 4, None, workers=1, oversub=1, max_chunk=2)
        assert len(plans) == 2  # one pseudo-group per chunk
        assert all(len(p.chunks) == 1 for p in plans)
        assert {i for p in plans for i in p.chunks[0].indices} == {0, 1, 2, 3}


class TestCostModel:
    def test_collective_uses_analytic_model(self):
        arch = get_arch("knl")
        spec = CollectiveSpec("scatter", "parallel_read", arch, procs=12,
                              eta=64 * 1024)
        pt = _slim_point(spec)
        cost = CostModel().cost(pt)
        expect = AnalyticModel(arch).predict(
            "scatter", "parallel_read", 12, 64 * 1024
        )
        assert cost == pytest.approx(expect)

    def test_bigger_messages_cost_more(self):
        arch = get_arch("knl")
        cm = CostModel()
        costs = [
            cm.cost(_slim_point(
                CollectiveSpec("scatter", "parallel_read", arch,
                               procs=12, eta=eta),
            ))
            for eta in (4 * 1024, 64 * 1024, 1024 * 1024)
        ]
        assert costs == sorted(costs) and costs[0] < costs[-1]

    def test_unmodeled_algorithm_falls_back_to_heuristic(self):
        pt = SimpleNamespace(
            collective="scatter", algorithm="no_such_alg", arch="knl",
            procs=12, eta=65536, params=(), lane="cma",
        )
        cm = CostModel()
        assert cm.cost(pt) == pytest.approx(cm.heuristic(12, 65536, "cma"))

    def test_microbench_points_price_by_size(self):
        cm = CostModel()
        small = SimpleNamespace(kwargs=(("nbytes", 1024), ("readers", 2)))
        big = SimpleNamespace(kwargs=(("nbytes", 1 << 20), ("readers", 2)))
        assert cm.cost(small) < cm.cost(big)

    def test_memoized(self):
        arch = get_arch("knl")
        pt = _slim_point(
            CollectiveSpec("scatter", "parallel_read", arch, procs=12,
                           eta=64 * 1024),
        )
        cm = CostModel()
        assert cm.cost(pt) == cm.cost(pt)
        assert len(cm._memo) == 1


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

    def test_repeat_killer_points_are_quarantined(self, monkeypatch):
        """A point that keeps killing workers (and the sandbox) becomes a
        PoisonedPoint; the sweep completes and the pool stays usable."""
        monkeypatch.setenv("SCHED_TEST_PARENT_PID", str(os.getpid()))
        pool = _make_pool(2, max_respawns=50, poison_strikes=2)
        try:
            results, stats = pool.run(
                _exit_in_worker, [1, 2, 3, 4], costs=[1.0] * 4
            )
            assert not pool.broken
            assert all(isinstance(r, PoisonedPoint) for r in results)
            assert stats.poisoned == 4
            assert sorted(stats.poisoned_indices) == [0, 1, 2, 3]
            assert stats.respawns >= 4
            # The pool survived the quarantine: a healthy run still works.
            healthy, _ = pool.run(_double, [5, 6], costs=[1.0] * 2)
        finally:
            pool.close()
        assert healthy == [10, 12]

    def test_sandbox_rescues_worker_killer(self):
        """A point that only kills *scheduler workers* is rescued by the
        sandboxed one-shot retry — full results, zero quarantines."""
        pool = _make_pool(2, max_respawns=50, poison_strikes=1)
        try:
            results, stats = pool.run(
                _exit_in_sched_worker, [1, 2, 3, 4], costs=[1.0] * 4
            )
        finally:
            pool.close()
        assert results == [3, 6, 9, 12]
        assert stats.sandbox_rescues >= 1
        assert stats.poisoned == 0
        assert not pool.broken

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

    def test_run_scheduled_inline_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(sched_mod, "usable_cpus", lambda: 1)
        results, stats = run_scheduled(
            _double, list(range(10)), workers=8, costs=[1.0] * 10
        )
        assert results == [x * 2 for x in range(10)]
        assert not stats.pooled
        assert stats.chunks >= 1


# -- context wiring and reporting -------------------------------------------


class TestContextIntegration:
    def test_sweep_records_sched_stats(self):
        specs = _fig07_slice_specs()
        with use_context(ExecContext(workers=2)) as ctx:
            run_specs(specs)
        assert ctx.stats.sched_points == len(specs)
        assert ctx.stats.sched_chunks >= 1
        line = sweep_summary(ctx.stats)
        assert "sched:" in line and "steals" in line

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
