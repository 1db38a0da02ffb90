"""Property tests for the content-addressed result cache.

The cache key must be a pure function of the point's content: stable
across process restarts and hash seeds (no reliance on Python's
process-seeded ``hash()``), and sensitive to *every* field of the spec and
its architecture.  Corrupted and version-salt-stale entries must read as
misses and be recomputed silently.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.report import sweep_summary
from repro.core.runner import CollectiveSpec
from repro.exec import ExecContext, ResultCache, use_context
from repro.exec.sweep import cached_call, sweep
from repro.machine import make_generic

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _spec(kw) -> CollectiveSpec:
    arch = make_generic(
        sockets=kw["sockets"],
        cores_per_socket=kw["cores"],
        beta_gbps=kw["beta_gbps"],
    )
    return CollectiveSpec(
        kw["collective"],
        kw["algorithm"],
        arch,
        procs=kw["procs"],
        eta=kw["eta"],
        root=kw["root"],
        params=dict(kw["params"]),
        verify=kw["verify"],
    )


spec_kwargs = st.fixed_dictionaries(
    {
        "collective": st.sampled_from(["scatter", "gather", "bcast"]),
        "algorithm": st.sampled_from(["parallel_read", "throttled_read"]),
        "eta": st.integers(min_value=1, max_value=1 << 22),
        "procs": st.integers(min_value=2, max_value=64),
        "root": st.integers(min_value=0, max_value=1),
        "params": st.dictionaries(
            st.sampled_from(["k", "batch", "seg"]),
            st.integers(min_value=1, max_value=32),
            max_size=2,
        ).map(lambda d: tuple(sorted(d.items()))),
        "verify": st.booleans(),
        "sockets": st.integers(min_value=1, max_value=2),
        "cores": st.integers(min_value=2, max_value=16),
        "beta_gbps": st.sampled_from([1.5, 3.0, 6.0]),
    }
)


@settings(max_examples=50, deadline=None)
@given(kw=spec_kwargs)
def test_key_deterministic_for_equal_payloads(kw):
    cache = ResultCache("key-only", salt="test-salt")  # key_for never touches disk
    a = cache.key_for("collective", _spec(kw))
    b = cache.key_for("collective", _spec(dict(kw)))
    assert a == b


_PERTURB = [
    ("eta", lambda kw: {**kw, "eta": kw["eta"] + 1}),
    ("procs", lambda kw: {**kw, "procs": kw["procs"] + 1}),
    ("root", lambda kw: {**kw, "root": (kw["root"] + 1) % 2}),
    ("algorithm", lambda kw: {**kw, "algorithm": kw["algorithm"] + "_x"}),
    ("verify", lambda kw: {**kw, "verify": not kw["verify"]}),
    ("params", lambda kw: {**kw, "params": tuple(sorted(dict(kw["params"], zz=99).items()))}),
    ("arch", lambda kw: {**kw, "beta_gbps": kw["beta_gbps"] * 2}),
    ("cores", lambda kw: {**kw, "cores": kw["cores"] + 1}),
]


@settings(max_examples=50, deadline=None)
@given(kw=spec_kwargs, which=st.integers(min_value=0, max_value=len(_PERTURB) - 1))
def test_key_changes_when_any_field_changes(kw, which):
    cache = ResultCache("key-only", salt="test-salt")
    _name, perturb = _PERTURB[which]
    assert cache.key_for("collective", _spec(kw)) != cache.key_for(
        "collective", _spec(perturb(kw))
    )


def test_key_depends_on_kind_and_salt():
    cache = ResultCache("key-only", salt="v1")
    kw = {
        "collective": "scatter", "algorithm": "parallel_read", "eta": 4096,
        "procs": 8, "root": 0, "params": (), "verify": False,
        "sockets": 1, "cores": 8, "beta_gbps": 3.0,
    }
    key_v1 = cache.key_for("collective", _spec(kw))
    assert key_v1 != cache.key_for("microbench", _spec(kw))
    assert key_v1 != ResultCache("key-only", salt="v2").key_for(
        "collective", _spec(kw)
    )


def test_key_stable_across_process_restart_and_hash_seed(tmp_path):
    """The same payload keys identically in a fresh interpreter with a
    different PYTHONHASHSEED — the key never touches ``hash()``."""
    code = """
from repro.core.runner import CollectiveSpec
from repro.exec import ResultCache
from repro.machine import make_generic

cache = ResultCache("key-only", salt="restart-test")
spec = CollectiveSpec(
    "scatter", "throttled_read", make_generic(cores_per_socket=12),
    procs=10, eta=65536, params={"k": 4, "batch": 2},
)
print(cache.key_for("collective", spec))
"""
    keys = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        )
        keys.add(out.stdout.strip())
    assert len(keys) == 1
    cache = ResultCache("key-only", salt="restart-test")
    spec = CollectiveSpec(
        "scatter", "throttled_read", make_generic(cores_per_socket=12),
        procs=10, eta=65536, params={"k": 4, "batch": 2},
    )
    assert keys == {cache.key_for("collective", spec)}


def test_corrupted_entry_is_silently_recomputed(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with use_context(ExecContext(cache=cache)):
        assert cached_call("unit", ("p",), lambda: 41) == 41
    key = cache.key_for("unit", ("p",))
    path = cache.path_for(key)
    assert path.exists()
    path.write_bytes(b"not a pickle")
    hit, _ = cache.get(key)
    assert not hit
    with use_context(ExecContext(cache=cache)) as ctx:
        assert cached_call("unit", ("p",), lambda: 41) == 41
    assert ctx.stats.points_run == 1  # recomputed, not served corrupt
    hit, value = cache.get(key)
    assert hit and value == 41


def test_stale_salt_entry_is_a_miss(tmp_path):
    old = ResultCache(tmp_path / "cache", salt="repro-exec-v0")
    new = ResultCache(tmp_path / "cache", salt="repro-exec-v1")
    payload = ("fit", 1, 2)
    # Different salts never share keys...
    assert old.key_for("k", payload) != new.key_for("k", payload)
    # ...and even a forged collision reads as a miss under the new salt.
    old.put(new.key_for("k", payload), "stale-value")
    hit, _ = new.get(new.key_for("k", payload))
    assert not hit
    new.put(new.key_for("k", payload), "fresh")
    hit, value = new.get(new.key_for("k", payload))
    assert hit and value == "fresh"


class TestLaneKeying:
    """The transport lane must separate cache entries and pool groups.

    Regression for the xpmem lane: a CMA point and a mapped-window point
    must never share a cache entry, even if a future rename made their
    (collective, algorithm) strings collide — the registry-resolved
    ``lane`` field is the backstop.
    """

    def _spec(self, algorithm, faults=None):
        from repro.machine import get_arch

        return CollectiveSpec(
            "scatter", algorithm, get_arch("knl"), procs=8, eta=4096,
            verify=False, faults=faults,
        )

    def test_lane_resolved_from_registry(self):
        assert self._spec("parallel_read").lane == "cma"
        assert self._spec("xpmem_read").lane == "xpmem"

    def test_forged_lane_collision_keys_differ(self):
        # Same spec except for the lane: simulates the cross-lane rename
        # that (collective, algorithm) strings alone would not catch.
        cache = ResultCache("key-only", salt="lane-test")
        a = self._spec("parallel_read")
        b = self._spec("parallel_read")
        b.lane = "xpmem"
        assert cache.key_for("collective", a) != cache.key_for("collective", b)

    def test_pool_group_key_separates_lanes(self):
        from repro.exec.sweep import _pool_group_key

        ga = _pool_group_key(self._spec("parallel_read"))
        gb = _pool_group_key(self._spec("xpmem_read"))
        assert ga != gb
        assert ga[:-1] == gb[:-1]  # only the lane component differs

    def test_pool_group_key_separates_warm_from_cold(self):
        # Cold (faulted) points must not interleave with warm ones inside
        # a chunk: the key carries "has faults" so warm sorts first, cold
        # second.
        from repro.exec.sweep import _pool_group_key
        from repro.faults import parse_plan

        plan = parse_plan("1:eintr@0.1")
        warm = _pool_group_key(self._spec("parallel_read"))
        cold = _pool_group_key(self._spec("parallel_read", faults=plan))
        assert warm != cold
        assert warm[-2] is False and cold[-2] is True  # spec has faults
        assert warm[:-2] == cold[:-2] and warm[-1] == cold[-1]
        assert sorted([warm, cold])[0] is warm  # warm sorts ahead

    def test_cache_version_bumped_past_pre_lane_salt(self):
        from repro.exec.cache import CACHE_VERSION

        # v2 entries were written before lane existed in the key payload;
        # they must silently miss rather than be served cross-lane.
        assert CACHE_VERSION not in ("repro-exec-v1", "repro-exec-v2")


class TestShardedCache:
    """Hex-prefix sharding and batched I/O."""

    def test_roundtrip_under_shard_layout(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [cache.key_for("shard-test", i) for i in range(8)]
        for i, key in enumerate(keys):
            cache.put(key, {"i": i})
            # the entry sits under its two-hex-char prefix directory
            rel = cache.path_for(key).relative_to(cache.root)
            assert len(rel.parts) == 2 and len(rel.parts[0]) == 2
            assert key.startswith(rel.parts[0])
        assert [cache.get(k) for k in keys] == [
            (True, {"i": i}) for i in range(8)
        ]

    def test_default_layout_matches_legacy_paths(self, tmp_path):
        # 256 shards = two-hex-char prefix: byte-identical to the layout
        # every version has written, so old caches stay readable.
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("k", "v")
        assert cache.path_for(key) == (
            cache.root / key[:2] / f"{key}.pkl"
        )

    def test_get_many_alignment(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [cache.key_for("batch", i) for i in range(10)]
        for i in (0, 4, 7):
            cache.put(keys[i], f"cur-{i}")
        out = cache.get_many(keys)
        assert len(out) == len(keys)
        assert out[0] == (True, "cur-0") and out[4] == (True, "cur-4")
        assert out[7] == (True, "cur-7")
        assert all(
            out[i] == (False, None) for i in range(10) if i not in (0, 4, 7)
        )

    def test_put_many_then_get_many(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        pairs = [(cache.key_for("pm", i), i * i) for i in range(12)]
        cache.put_many(pairs)
        assert cache.get_many([k for k, _ in pairs]) == [
            (True, i * i) for i in range(12)
        ]

    def test_quarantine_is_capped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_quarantine=5)
        for i in range(9):
            key = cache.key_for("corrupt", i)
            path = cache.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"garbage %d" % i)
            hit, _ = cache.get(key)
            assert not hit
        assert cache.quarantined == 9  # every corruption was detected...
        assert cache.quarantine_count() <= 5  # ...but the directory is capped


def test_put_get_roundtrip_and_atomicity(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = cache.key_for("roundtrip", {"a": [1, 2.5, "x"], "b": (True, None)})
    hit, _ = cache.get(key)
    assert not hit
    cache.put(key, {"value": [1, 2, 3]})
    hit, value = cache.get(key)
    assert hit and value == {"value": [1, 2, 3]}
    assert not list((tmp_path / "cache").rglob("*.tmp*")), "no temp litter"


# -- group commit ------------------------------------------------------------


def _visible(root) -> list:
    """Published entries under ``root`` (temp files and quarantine aside)."""
    return sorted(
        p for p in Path(root).rglob("*.pkl") if "quarantine" not in p.parts
    )


def _square(x):
    return x * x


def _raise_at_3(i):
    if i == 3:
        raise RuntimeError("point 3 fails")
    return {"i": i}


def _kill_value(i):
    return {"i": i, "sq": i * i, "pad": b"x" * (40 * i)}


_KILL_SCRIPT = """
import os, signal, sys
import repro.exec.cache as cache_mod
from repro.exec import ExecContext, ResultCache, use_context
from repro.exec.sweep import sweep

mode, root = sys.argv[1], sys.argv[2]
kill_at, npoints = int(sys.argv[3]), int(sys.argv[4])
now = [0.0]
cache_mod._clock = lambda: now[0]


def runner(i):
    if mode == "compute" and i == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    # so the one-second bound publishes every fourth point mid-sweep
    # (0-3, then 4-7, then 8-11)
    now[0] += 0.4
    return {"i": i, "sq": i * i, "pad": b"x" * (40 * i)}


if mode == "publish":
    real_replace, done = os.replace, [0]

    def replace(src, dst):
        if done[0] == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        done[0] += 1
        real_replace(src, dst)

    os.replace = replace

with use_context(ExecContext(workers=1, cache=ResultCache(root))):
    sweep("kill-test", runner, list(range(npoints)))
"""

#: points in the SIGKILLed sweep
KILL_POINTS = 14

#: seeded compute-kill midpoints, one per seed, drawn in [1, 13)
_SEEDED_KILLS = [
    pytest.param(
        "compute",
        random.Random(f"resume/{seed}").randrange(1, KILL_POINTS - 1),
        id=f"compute-seed{seed}",
    )
    for seed in (3, 11)
]


class TestGroupCommit:
    """Writes inside a batch are staged, then published in one pass that
    makes every entry durable before any becomes visible."""

    def test_staged_entries_appear_only_when_outermost_batch_closes(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        keys = [cache.key_for("gc", i) for i in range(6)]
        with cache.batch():
            for i, key in enumerate(keys):
                cache.put(key, i)
            assert _visible(cache.root) == []
            assert cache.get(keys[2]) == (True, 2)  # served from staging
            assert cache.get_many(keys) == [(True, i) for i in range(6)]
        assert len(_visible(cache.root)) == 6
        assert (cache.flushes, cache.flushed) == (1, 6)
        fresh = ResultCache(cache.root)
        assert fresh.get_many(keys) == [(True, i) for i in range(6)]
        assert not list(cache.root.rglob(".tmp-*")), "no temp litter"

    def test_nested_batches_join_the_outer_one(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with cache.batch():
            cache.put(cache.key_for("gc", "outer"), "outer")
            with cache.batch():
                assert cache.batching
                cache.put(cache.key_for("gc", "inner"), "inner")
            assert cache.batching and cache.flushes == 0
            assert _visible(cache.root) == []
        assert not cache.batching
        assert len(_visible(cache.root)) == 2
        assert cache.flushes == 1

    def test_put_outside_a_batch_publishes_at_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(cache.key_for("gc", 1), 1)
        assert len(_visible(cache.root)) == 1
        assert (cache.flushes, cache.flushed) == (1, 1)

    def test_forked_child_publishes_its_own_puts_only(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        parent_key = cache.key_for("gc-fork", "parent")
        child_key = cache.key_for("gc-fork", "child")
        with cache.batch():
            cache.put(parent_key, "parent")
            pid = os.fork()
            if pid == 0:  # a pool worker: it inherits the open batch
                code = 1
                try:
                    cache.put(child_key, "child")
                    code = 2 if cache.batching else 0
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert [p.stem for p in _visible(cache.root)] == [child_key]
        assert sorted(p.stem for p in _visible(cache.root)) == sorted(
            [parent_key, child_key]
        )

    def test_raising_sweep_still_publishes_completed_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with use_context(ExecContext(workers=1, cache=cache)) as ctx:
            with pytest.raises(RuntimeError, match="point 3"):
                sweep("gc-raise", _raise_at_3, list(range(6)))
        assert len(_visible(cache.root)) == 3
        fresh = ResultCache(cache.root)
        keys = [fresh.key_for("gc-raise", i) for i in range(6)]
        assert fresh.get_many(keys) == (
            [(True, {"i": i}) for i in range(3)] + [(False, None)] * 3
        )
        assert (ctx.stats.cache_puts, ctx.stats.cache_flushes) == (3, 1)

    def test_every_fsync_runs_before_the_first_replace(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        with cache.batch():
            for i in range(8):
                cache.put(cache.key_for("gc-order", i), i)
            assert events == []
        assert events == ["fsync"] * 8 + ["replace"] * 8

    def test_staged_hit_is_a_fresh_copy(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("gc-copy", 0)
        value = {"rows": [1, 2]}
        with cache.batch():
            cache.put(key, value)
            value["rows"].append("mutated after put")
            hit, got = cache.get(key)
            assert hit and got == {"rows": [1, 2]}
            got["rows"].append("mutated after get")
            [(hit, again)] = cache.get_many([key])
            assert hit and again == {"rows": [1, 2]} and again is not got
        # The published bytes are those of the value as it was put.
        ref = ResultCache(tmp_path / "ref")
        ref.put(key, {"rows": [1, 2]})
        assert cache.path_for(key).read_bytes() == (
            ref.path_for(key).read_bytes()
        )

    def test_one_second_bound_publishes_mid_sweep(self, tmp_path, monkeypatch):
        import repro.exec.cache as cache_mod

        now = [0.0]
        monkeypatch.setattr(cache_mod, "_clock", lambda: now[0])
        cache = ResultCache(tmp_path / "cache")
        seen = []

        def tick(i):
            seen.append(len(_visible(cache.root)))
            now[0] += 0.4
            return i

        with use_context(ExecContext(workers=1, cache=cache)) as ctx:
            assert sweep("gc-age", tick, list(range(6))) == list(range(6))
        # staged at t=0.4..1.6; the put at 1.6 finds the oldest 1.2 s old
        assert seen == [0, 0, 0, 0, 4, 4]
        assert (ctx.stats.cache_puts, ctx.stats.cache_flushes) == (6, 2)
        assert "6 puts in 2 flushes" in sweep_summary(ctx.stats)

    def test_cached_call_publishes_its_nested_sweep_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")

        def fit():
            return sum(sweep("gc-inner", _square, [1, 2, 3]))

        with use_context(ExecContext(workers=1, cache=cache)) as ctx:
            assert cached_call("gc-fit", ("p",), fit) == 14
        assert len(_visible(cache.root)) == 4
        assert (ctx.stats.cache_puts, ctx.stats.cache_flushes) == (4, 1)

    @pytest.mark.parametrize("kind", ["corrupt", "truncate", "tear"])
    def test_chaos_attacks_land_on_batched_entries(
        self, tmp_path, monkeypatch, kind
    ):
        from repro.exec import chaos

        cache = ResultCache(tmp_path / "cache")
        keys = [cache.key_for("gc-chaos", i) for i in range(4)]
        monkeypatch.setenv(chaos.ENV_CHAOS, f"1:{kind}@1.0")
        chaos.reset_state()
        try:
            with cache.batch():
                for i, key in enumerate(keys):
                    cache.put(key, list(range(50 + i)))
                # an attacked entry reads as the disk holds it: absent
                assert cache.get_many(keys) == [(False, None)] * 4
        finally:
            monkeypatch.delenv(chaos.ENV_CHAOS)
            chaos.reset_state()
        fresh = ResultCache(cache.root)
        assert fresh.get_many(keys) == [(False, None)] * 4
        if kind == "tear":
            assert _visible(cache.root) == []
            assert len(list(cache.root.rglob(".tmp-*"))) == 4
        else:
            assert fresh.quarantine_count() == 4
        fresh.put_many((key, i) for i, key in enumerate(keys))
        assert fresh.get_many(keys) == [(True, i) for i in range(4)]

    @pytest.mark.parametrize(
        "mode, kill_at",
        [
            pytest.param("compute", 6, id="compute"),
            pytest.param("publish", -1, id="publish"),
            *_SEEDED_KILLS,
        ],
    )
    def test_sigkill_mid_batch_leaves_only_whole_entries(
        self, tmp_path, mode, kill_at
    ):
        """A sweep SIGKILLed mid-compute or mid-publication leaves only
        whole entries, and rerunning it over the same cache serves what
        was published and computes the rest, bit-identical."""
        root = tmp_path / "cache"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = REPO_SRC
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, mode, str(root),
             str(kill_at), str(KILL_POINTS)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -9, proc.stderr
        visible = _visible(root)
        # compute: every whole group of four points before the kill was
        # published; publish: the kill came after two of the four renames.
        published = 4 * (kill_at // 4) if mode == "compute" else 2
        assert len(visible) == published
        cache = ResultCache(root)
        for path in visible:
            assert cache.get(path.stem)[0], f"{path.name} fails its CRC"
        assert cache.quarantine_count() == 0
        points = list(range(KILL_POINTS))
        expected = [pickle.dumps(_kill_value(i)) for i in points]
        # The resume: published points are hits, the rest are recomputed.
        with use_context(ExecContext(workers=1, cache=root)) as ctx:
            again = sweep("kill-test", _kill_value, points)
        assert [pickle.dumps(v) for v in again] == expected
        assert ctx.stats.cache_hits == published
        assert ctx.stats.points_run == KILL_POINTS - published
        # Then the whole sweep is served warm.
        with use_context(ExecContext(workers=1, cache=root)) as ctx:
            again = sweep("kill-test", _kill_value, points)
        assert [pickle.dumps(v) for v in again] == expected
        assert (ctx.stats.cache_hits, ctx.stats.points_run) == (KILL_POINTS, 0)
