"""Harness robustness: checksummed cache entries and context knobs.

The cache must detect (and quarantine, not serve) corrupted entries; an
execution context resolves its settings (workers, cache) from explicit
arguments, then the enclosing context, then the environment, and rejects
malformed values.
"""

import os
import pickle
import zlib

import pytest

from repro.exec import context as exec_context
from repro.exec.cache import CACHE_VERSION, ResultCache


# -- cache: checksum + quarantine -------------------------------------------


class TestChecksummedCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("k", {"x": 1})
        cache.put(key, [1, 2, 3])
        hit, value = cache.get(key)
        assert hit and value == [1, 2, 3]

    def test_entry_is_checksummed_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("k", "payload")
        cache.put(key, "payload")
        with open(cache.path_for(key), "rb") as f:
            entry = pickle.load(f)
        assert entry["salt"] == CACHE_VERSION
        assert entry["crc"] == zlib.crc32(entry["payload"])
        assert pickle.loads(entry["payload"]) == "payload"

    def test_unpicklable_garbage_is_quarantined_then_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("k", "v")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle at all")
        hit, _ = cache.get(key)
        assert not hit
        assert cache.quarantined == 1
        qfile = tmp_path / "quarantine" / path.name
        assert qfile.read_bytes() == b"not a pickle at all"  # evidence kept
        cache.put(key, "fresh")
        assert cache.get(key) == (True, "fresh")

    def test_bitflip_in_payload_is_caught_by_crc(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("k", "v")
        cache.put(key, {"answer": 42})
        path = cache.path_for(key)
        entry = pickle.loads(path.read_bytes())
        payload = bytearray(entry["payload"])
        payload[-1] ^= 0xFF  # valid envelope, corrupt payload bytes
        entry["payload"] = bytes(payload)
        path.write_bytes(pickle.dumps(entry))
        hit, _ = cache.get(key)
        assert not hit
        assert cache.quarantined == 1
        assert not path.exists()  # moved aside, ready for the recompute

    def test_stale_salt_is_dropped_not_quarantined(self, tmp_path):
        old = ResultCache(tmp_path, salt="ancient-version")
        new = ResultCache(tmp_path)
        key = new.key_for("k", "v")
        # write a well-formed entry under the old salt at the new key's path
        path = new.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps("old value")
        path.write_bytes(
            pickle.dumps(
                {"salt": old.salt, "crc": zlib.crc32(payload), "payload": payload}
            )
        )
        hit, _ = new.get(key)
        assert not hit
        assert new.quarantined == 0  # versioning, not corruption
        assert not path.exists()
        assert not (tmp_path / "quarantine").exists()

    def test_no_tmp_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(cache.key_for("k", i), i)
        assert not list(tmp_path.rglob("*.tmp*"))


# -- context knobs -----------------------------------------------------------


class TestContextKnobs:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(exec_context.ENV_WORKERS, "3")
        ctx = exec_context.ExecContext()
        assert ctx.workers == 3
        monkeypatch.setenv(exec_context.ENV_WORKERS, "auto")
        assert exec_context.ExecContext().workers == max(os.cpu_count() or 1, 1)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(exec_context.ENV_WORKERS, "3")
        ctx = exec_context.ExecContext(workers=2)
        assert ctx.workers == 2

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            exec_context.ExecContext(workers="many")
        # journal= survives only as "off"; the result cache resumes sweeps
        assert exec_context.ExecContext(journal=False).cache is None
        with pytest.raises(ValueError, match="journal was removed"):
            exec_context.ExecContext(journal="x")
        monkeypatch.setenv(exec_context.ENV_WORKERS, "lots")
        with pytest.raises(ValueError):
            exec_context.ExecContext()

    def test_from_env_inherits_parent(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        parent = exec_context.ExecContext(workers=1, cache=cache)
        with exec_context.use_context(parent):
            child = exec_context.from_env()
        assert child.workers == 1
        assert child.cache is cache
