"""Seeded chaos harness: plan grammar, determinism, and soak batteries.

The contract under test (ISSUE 10 tentpole #3): under an armed
``REPRO_CHAOS`` plan — workers SIGKILLed mid-chunk, cache publications
corrupted, truncated, or torn — every sweep still completes with results
bit-identical to a clean serial run, and no worker process leaks.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.exec import ExecContext, use_context
from repro.exec import chaos
from repro.exec.cache import ResultCache
from repro.exec.chaos import (
    ENV_CHAOS,
    ChaosPlan,
    ChaosSpec,
    parse_chaos,
)
from repro.exec.sweep import sweep


def _double(x):
    return x * 2


def _square(x):
    return x * x


@pytest.fixture
def armed(monkeypatch):
    """Arm a chaos plan via the env for the duration of one test."""

    def _arm(text):
        monkeypatch.setenv(ENV_CHAOS, text)
        chaos.reset_state()

    yield _arm
    monkeypatch.delenv(ENV_CHAOS, raising=False)
    chaos.reset_state()


# -- plan grammar -------------------------------------------------------------


class TestParse:
    def test_full_grammar(self):
        plan = parse_chaos("7:kill@0.05,stall@0.02@30,corrupt")
        assert plan.seed == 7
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["kill", "stall", "corrupt"]
        assert plan.specs[0].prob == 0.05
        assert plan.specs[1].factor == 30.0
        assert plan.specs[2].prob == 0.2  # per-kind default

    @pytest.mark.parametrize(
        "bad",
        ["", "kill", "x:kill", "1:", "1:frob", "1:kill@zap", "1:kill@1@2@3"],
    )
    def test_rejects_malformed_plans(self, bad):
        with pytest.raises(ValueError):
            parse_chaos(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec("kill", prob=1.5)
        with pytest.raises(ValueError):
            ChaosSpec("stall", factor=-1.0)
        with pytest.raises(ValueError):
            ChaosSpec("meteor")


# -- draw determinism ---------------------------------------------------------


class TestDraws:
    def _sequence(self, plan, role, op, n=64):
        st = plan.arm(role)
        return [spec.kind if spec else None for spec in
                (st.draw(op) for _ in range(n))]

    def test_same_seed_same_role_replays_identically(self):
        plan = parse_chaos("42:kill@0.3")
        assert (self._sequence(plan, "w0", "point")
                == self._sequence(plan, "w0", "point"))

    def test_roles_draw_independent_streams(self):
        plan = parse_chaos("42:kill@0.3")
        seqs = {tuple(self._sequence(plan, r, "point"))
                for r in ("w0", "w1", "main")}
        assert len(seqs) == 3  # distinct patterns per process slot

    def test_op_scoping_is_enforced(self):
        plan = parse_chaos("1:kill@1.0")
        st = plan.arm("w0")
        assert all(st.draw("cache") is None for _ in range(16))
        assert st.draw("point").kind == "kill"

    def test_calls_scheduled_spec_fires_exactly_there(self):
        plan = ChaosPlan(seed=0, specs=(ChaosSpec("kill", calls=(2, 5)),))
        st = plan.arm("w0")
        fired = [i for i in range(8) if st.draw("point") is not None]
        assert fired == [2, 5]
        assert st.counts() == {"kill": 2}

    def test_armed_state_rearms_when_env_changes(self, armed):
        armed("1:kill@1.0")
        assert chaos.state() is not None
        os.environ[ENV_CHAOS] = ""
        assert chaos.state() is None


# -- cache attacks ------------------------------------------------------------


class TestCacheChaos:
    def _entry_path(self, cache, key):
        hit, _ = cache.get(key)
        # Path derivation is internal; locate the entry on disk instead.
        files = [p for p in cache.root.rglob("*") if p.is_file()
                 and "quarantine" not in p.parts and key[:8] in p.name]
        return files

    def test_corrupt_is_quarantined_then_recomputed(self, tmp_path, armed):
        cache = ResultCache(tmp_path)
        key = cache.key_for("chaos-test", 1)
        armed("1:corrupt@1.0")
        cache.put(key, {"v": 1})
        chaos.reset_state()
        os.environ[ENV_CHAOS] = ""
        hit, _ = cache.get(key)
        assert not hit  # CRC caught the flipped byte
        assert cache.quarantine_count() >= 1
        cache.put(key, {"v": 1})  # healthy re-publication heals the entry
        hit, value = cache.get(key)
        assert hit and value == {"v": 1}

    def test_truncate_is_quarantined(self, tmp_path, armed):
        cache = ResultCache(tmp_path)
        key = cache.key_for("chaos-test", 2)
        armed("1:truncate@1.0")
        cache.put(key, list(range(100)))
        chaos.reset_state()
        os.environ[ENV_CHAOS] = ""
        hit, _ = cache.get(key)
        assert not hit
        assert cache.quarantine_count() >= 1

    def test_tear_leaves_target_untouched(self, tmp_path, armed):
        cache = ResultCache(tmp_path)
        key = cache.key_for("chaos-test", 3)
        cache.put(key, "committed")
        armed("1:tear@1.0")
        cache.put(key, "torn-away")  # swap abandoned mid-rename
        chaos.reset_state()
        os.environ[ENV_CHAOS] = ""
        hit, value = cache.get(key)
        assert hit and value == "committed"  # old entry intact, not torn
        tmps = [p for p in cache.root.rglob(".tmp-*")]
        assert tmps, "the abandoned temp file is the only residue"

    def test_sweep_survives_fully_corrupted_cache(self, tmp_path, armed):
        """Every publication of the first run is corrupted; the second run
        must quarantine all of them and recompute bit-identically."""
        points = list(range(8))
        armed("9:corrupt@1.0")
        with use_context(ExecContext(workers=1, cache=tmp_path)):
            first = sweep("chaos-sweep", _square, points)
        chaos.reset_state()
        os.environ[ENV_CHAOS] = ""
        with use_context(ExecContext(workers=1, cache=tmp_path)) as ctx:
            second = sweep("chaos-sweep", _square, points)
        assert pickle.dumps(second) == pickle.dumps(first)
        assert ctx.stats.cache_hits == 0  # nothing corrupt was trusted
        assert ctx.stats.points_run == len(points)
        assert ctx.stats.cache_quarantined >= 1


# -- worker-kill soak ---------------------------------------------------------


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
            raise AssertionError(f"stray workers survived chaos: {leftover}")
        time.sleep(0.05)


class TestKillSoak:
    def test_scheduled_run_survives_seeded_worker_kills(self, armed):
        """Workers are SIGKILLed by the plan mid-sweep; supervision
        (respawn + poison ladder + sandbox) must still deliver results
        bit-identical to a serial run, with no leaked processes."""
        from repro.exec.sched import StickyPool

        points = list(range(8))
        serial = [_double(x) for x in points]
        before = _live_pids()
        armed("3:kill@0.5")
        try:
            pool = StickyPool(2, max_respawns=60, poison_strikes=2)
        except Exception as exc:  # pragma: no cover - fork-restricted hosts
            pytest.skip(f"cannot start scheduler workers: {exc}")
        try:
            results, stats = pool.run(
                _double, points, costs=[1.0] * len(points)
            )
        finally:
            pool.close()
        chaos.reset_state()
        os.environ[ENV_CHAOS] = ""
        assert pickle.dumps(results) == pickle.dumps(serial)
        assert stats.respawns >= 1, "the seeded plan must actually fire"
        assert not pool.broken
        _assert_no_new_children(before)


class TestSoakCli:
    def test_kill_case_reports_a_pool_that_ran(self, tmp_path):
        """A kill case must dispatch through the adopted pool and lose
        (and respawn) at least one worker, so ``pooled`` is a fact."""
        from repro.bench.chaossoak import run_soak_case

        case = run_soak_case("kill", 3, 8, 2, tmp_path)
        assert case["pooled"]
        assert case["respawns"] >= 1
        assert case["ok"]

    def test_one_worker_is_a_usage_error(self, capsys):
        """A one-worker context dispatches inline, where no worker could
        be killed: the soak refuses it instead of passing vacuously."""
        from repro.bench.chaossoak import main

        with pytest.raises(SystemExit) as exc:
            main(["--workers", "1"])
        assert exc.value.code == 2
        assert "--workers must be >= 2" in capsys.readouterr().err
