"""Supervision layer: the pool's knobs, hung-chunk detection,
randomized worker loss, and the context's fall back to serial dispatch.

The contract under test: worker-level trouble —
dead workers, hung chunks, repeat-killer points — is absorbed below the
sweep (respawn, and the parent computing a point out of poison strikes),
and a pool that breaks or cannot start leaves its context running later
sweeps in-process, without ever changing results.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.exec import ExecContext, use_context
from repro.exec import chaos
from repro.exec.chaos import ENV_CHAOS
import repro.exec.sched as sched_mod
from repro.exec.sched import DEFAULT_HUNG_S, DEFAULT_POISON_STRIKES, StickyPool
from repro.exec.sweep import sweep


def _triple(x):
    return x * 3


def _square(x):
    return x * x


def _stall_in_sched_worker(x):
    """Hang forever — but only inside a scheduler worker process; the
    parent computes it fine."""
    if multiprocessing.current_process().name.startswith("repro-sched-"):
        time.sleep(600)
    return x * 3


def _exit_in_sched_worker(x):
    """Kill scheduler worker processes only: the parent computes it."""
    if multiprocessing.current_process().name.startswith("repro-sched-"):
        os._exit(5)
    return x * x


def _live_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _assert_no_new_children(before, deadline_s=10.0):
    deadline = time.monotonic() + deadline_s
    while True:
        leftover = [p for p in multiprocessing.active_children()
                    if p.pid not in before]
        if not leftover:
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"stray workers survived: {leftover}")
        time.sleep(0.05)


def _make_pool(**kwargs):
    try:
        return StickyPool(2, **kwargs)
    except Exception as exc:  # pragma: no cover - fork-restricted hosts
        pytest.skip(f"cannot start scheduler workers: {exc}")


# -- knob resolution ----------------------------------------------------------


def _knobs(**kwargs):
    """Return (hung_s, max_respawns, poison_strikes) as the pool resolved
    them from its constructor arguments."""
    pool = _make_pool(**kwargs)
    try:
        return pool.hung_s, pool.max_respawns, pool.poison_strikes
    finally:
        pool.close()


class TestKnobs:
    def test_hung_s(self):
        assert _knobs()[0] == DEFAULT_HUNG_S
        assert _knobs(hung_s=12.5)[0] == 12.5
        assert _knobs(hung_s=0)[0] is None  # <= 0 disables detection

    def test_max_respawns(self):
        assert _knobs()[1] == 4 * 2  # 4 * workers
        assert _knobs(max_respawns=3)[1] == 3
        assert _knobs(max_respawns=-1)[1] == 0  # floor: no negative budget

    def test_poison_strikes(self):
        assert _knobs()[2] == DEFAULT_POISON_STRIKES == 2
        assert _knobs(poison_strikes=5)[2] == 5
        assert _knobs(poison_strikes=0)[2] == 1  # floor: one strike minimum


# -- hung-chunk detection -----------------------------------------------------


class TestHungChunks:
    def test_hung_worker_is_killed_and_point_rescued(self):
        """A chunk that stalls forever must be detected by heartbeat age
        (the worker is *alive*, just silent), the worker killed, and the
        blamed point computed in the parent — the sweep completes with
        correct values instead of hanging for the default 300 s."""
        points = list(range(4))
        before = _live_pids()
        pool = _make_pool(hung_s=0.75, poison_strikes=1, max_respawns=50)
        try:
            t0 = time.monotonic()
            results, stats = pool.run(
                _stall_in_sched_worker, points, costs=[1.0] * len(points)
            )
            wall = time.monotonic() - t0
        finally:
            pool.close()
        assert results == [x * 3 for x in points]
        assert stats.hung_kills >= 1
        assert stats.fallback_points >= 1
        assert wall < 60.0, f"hung detection took {wall:.1f}s"
        _assert_no_new_children(before)

    def test_hung_detection_can_be_disabled(self):
        pool = _make_pool(hung_s=0)  # <= 0 resolves to None: never kill
        try:
            assert pool.hung_s is None
            # Healthy work still flows with detection off.
            results, stats = pool.run(_triple, [1, 2, 3, 4], costs=[1.0] * 4)
        finally:
            pool.close()
        assert results == [3, 6, 9, 12]
        assert stats.hung_kills == 0


# -- randomized worker loss ---------------------------------------------------


class TestRandomizedWorkerLoss:
    def test_seeded_kill_storms_keep_bit_identity(self):
        """Property-style battery: across randomized chaos seeds and sweep
        sizes, SIGKILLed workers mid-chunk must never change results —
        whatever mix of respawn, in-parent compute, or broken-pool
        salvage each seed happens to exercise."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings, strategies as st

        @settings(
            max_examples=5,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(seed=st.integers(0, 10_000), npoints=st.integers(4, 12))
        def battery(seed, npoints):
            points = list(range(npoints))
            serial = [_triple(x) for x in points]
            os.environ[ENV_CHAOS] = f"{seed}:kill@0.4"
            chaos.reset_state()
            try:
                pool = _make_pool(max_respawns=40, poison_strikes=2)
                try:
                    results, _stats = pool.run(
                        _triple, points, costs=[1.0] * npoints
                    )
                finally:
                    pool.close()
            finally:
                os.environ.pop(ENV_CHAOS, None)
                chaos.reset_state()
            assert pickle.dumps(results) == pickle.dumps(serial)

        before = _live_pids()
        battery()
        _assert_no_new_children(before)

    def test_killed_sweep_workers_with_cache_rerun_cleanly(
        self, tmp_path, monkeypatch
    ):
        """Full-stack: a cached scheduled sweep under a kill plan must
        finish bit-identical to serial, and a second pass over the same
        cache must serve every point (nothing half-published)."""
        points = list(range(10))
        serial = [x * x for x in points]
        before = _live_pids()
        monkeypatch.setenv(ENV_CHAOS, "11:kill@0.3")
        chaos.reset_state()
        try:
            ctx = ExecContext(workers=2, cache=tmp_path)
            # Adopt an explicit pool: a one-usable-CPU host would pick
            # inline dispatch, where worker-scoped chaos never fires.
            ctx.adopt_sched_pool(_make_pool(max_respawns=64))
            with use_context(ctx):
                results = sweep("supervision-kill", _square, points)
        finally:
            monkeypatch.delenv(ENV_CHAOS, raising=False)
            chaos.reset_state()
        assert pickle.dumps(results) == pickle.dumps(serial)
        assert ctx.stats.sched_broken == ""
        with use_context(ExecContext(workers=1, cache=tmp_path)) as again:
            rerun = sweep("supervision-kill", _square, points)
        assert pickle.dumps(rerun) == pickle.dumps(serial)
        assert again.stats.points_run == 0
        _assert_no_new_children(before)


# -- pool breakage: the context turns serial -----------------------------------


class TestCircuitBreaker:
    """A pool that breaks or cannot start is not rebuilt: the context's
    later sweeps run in a plain in-process loop."""

    def test_degradation_ladder(self):
        """sched → serial, one way: once the adopted pool has broken, the
        context hands out no pool again."""
        ctx = ExecContext(workers=2)
        pool = _make_pool()
        ctx.adopt_sched_pool(pool)
        try:
            assert ctx.sched_pool() is pool
            pool.broken = True
            assert ctx.sched_pool() is None
            assert ctx.sched_pool() is None  # the floor: nothing rebuilds
        finally:
            ctx.close()

    def test_tripped_breaker_stops_sched_pool_creation(self, monkeypatch):
        """A pool that fails to start is tried once, and its cause kept."""
        attempts = []

        def unstartable(workers):
            attempts.append(workers)
            raise OSError("fork refused")

        monkeypatch.setattr(sched_mod, "usable_cpus", lambda: 2)
        monkeypatch.setattr(sched_mod, "StickyPool", unstartable)
        ctx = ExecContext(workers=2)
        try:
            assert ctx.sched_pool() is None
            assert ctx.sched_pool() is None
        finally:
            ctx.close()
        assert attempts == [2]
        assert "fork refused" in ctx.stats.sched_broken

    def test_serial_breaker_forces_inline_sweep(self):
        """A sweep that breaks the pool still returns serial values, and
        the context's next sweep runs in the plain loop."""
        ctx = ExecContext(workers=2)
        ctx.adopt_sched_pool(_make_pool(max_respawns=0))
        try:
            with use_context(ctx):
                first = sweep("breaker-break", _exit_in_sched_worker,
                              list(range(6)))
                pooled = ctx.stats.sched_points
                results = sweep("breaker-serial", _square, list(range(6)))
        finally:
            ctx.close()
        assert first == results == [x * x for x in range(6)]
        assert "respawn budget exhausted (0/0)" in ctx.stats.sched_broken
        assert "(exitcode 5)" in ctx.stats.sched_broken
        assert ctx.stats.sched_points == pooled  # the plain loop ran it
