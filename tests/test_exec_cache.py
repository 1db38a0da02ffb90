"""Property tests for the content-addressed result cache.

The cache key must be a pure function of the point's content: stable
across process restarts and hash seeds (no reliance on Python's
process-seeded ``hash()``), and sensitive to *every* field of the spec and
its architecture.  Corrupted and version-salt-stale entries must read as
misses and be recomputed silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import CollectiveSpec
from repro.exec import ExecContext, ResultCache, use_context
from repro.exec.sweep import cached_call
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
        from repro.exec.sweep import _pool_group_key, _slim_point

        ga = _pool_group_key(_slim_point(self._spec("parallel_read")))
        gb = _pool_group_key(_slim_point(self._spec("xpmem_read")))
        assert ga != gb
        assert ga[:-1] == gb[:-1]  # only the lane component differs

    def test_pool_group_key_separates_warm_from_cold(self):
        # Cold (faulted) points must not interleave with warm ones inside
        # a chunk: the key carries ``not warm`` so warm sorts first, cold
        # second.
        from repro.exec.sweep import _pool_group_key, _slim_point
        from repro.faults import parse_plan

        plan = parse_plan("1:eintr@0.1")
        warm = _pool_group_key(_slim_point(self._spec("parallel_read")))
        cold = _pool_group_key(
            _slim_point(self._spec("parallel_read", faults=plan))
        )
        assert warm != cold
        assert warm[-2] is False and cold[-2] is True  # not pt.warm
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
