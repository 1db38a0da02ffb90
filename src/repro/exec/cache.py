"""Persistent content-addressed cache for sweep points and NLLS fits.

Entries live under a sharded directory tree (``REPRO_CACHE_DIR`` or
``~/.cache/repro-exec``), one pickle per key, written atomically.  The
shard of a key is the first two hex characters of its digest (256
subdirectories, the layout every version has written), so a
million-entry cache never funnels into one directory.

The key already embeds a code-version salt (:data:`CACHE_VERSION`), and
every entry re-states the salt it was written under plus a CRC-32 of its
pickled payload, so a stale, truncated, or bit-flipped entry is never
served — :meth:`ResultCache.get` reports a miss, moves the bad file into
a ``quarantine/`` subdirectory (preserving the evidence for debugging),
and the caller recomputes and overwrites.  Quarantine is bounded: it
keeps at most :data:`DEFAULT_MAX_QUARANTINE` entries (oldest evicted), so
a recurring corruption source cannot grow the directory without limit.

``get_many`` / ``put_many`` are the sweep-facing batched forms: one call
covers a whole point list, amortising shard-directory bookkeeping (and,
for writes, the ``mkdir`` probe per shard) across the batch instead of
paying it per point.

Writes are crash-safe, not just atomic: the entry is written to a temp
file *in the same shard*, flushed and fsync'd, then ``os.replace``'d over
the target — a kill between write and rename leaves only a stray
``.tmp-`` file (never a truncated envelope), and a kill after the rename
leaves a fully durable entry.  ``REPRO_CACHE_FSYNC=0`` trades the
power-loss guarantee for write speed (the rename alone already protects
against process death).  Under an armed chaos plan (:mod:`repro.exec.chaos`)
``put`` is also the injection site for ``corrupt`` / ``truncate`` /
``tear`` attacks, which the CRC quarantine must absorb.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import zlib
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.exec import chaos as _chaos
from repro.exec.keying import digest

__all__ = [
    "ResultCache",
    "CACHE_VERSION",
    "ENV_CACHE_DIR",
    "ENV_CACHE_FSYNC",
    "DEFAULT_MAX_QUARANTINE",
    "default_cache_dir",
    "resolve_cache_fsync",
]

#: Code-version salt baked into every key and entry.  Bump whenever the
#: simulator, model, or fitting pipeline changes in a way that alters
#: results: old entries then silently miss instead of serving stale data.
#: v2: checksummed entry envelope + CollectiveResult degraded-mode counters.
#: v3: transport-lane spec field (xpmem vs cma points must never collide)
#: + CollectiveResult mapped-window counters.
#: v4: no ``trace`` spec field; every result carries its phase times.
#: v5: no node-wide shm eager pool (POWER8 at 160 ranks no longer queues).
CACHE_VERSION = "repro-exec-v5"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_FSYNC = "REPRO_CACHE_FSYNC"

#: hex-prefix length of a key's shard directory (256 shards)
_SHARD_WIDTH = 2

#: ``quarantine/`` keeps at most this many corrupt entries as evidence;
#: beyond it the oldest files are evicted so a recurring corruption
#: source (bad disk, torn writer) cannot grow the directory unboundedly.
DEFAULT_MAX_QUARANTINE = 64

_QUARANTINE_DIR = "quarantine"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-exec"


def resolve_cache_fsync(fsync: Optional[bool] = None) -> bool:
    """Explicit argument > ``REPRO_CACHE_FSYNC`` > on."""
    if fsync is not None:
        return bool(fsync)
    raw = os.environ.get(ENV_CACHE_FSYNC, "").strip().lower()
    return raw not in ("0", "off", "false", "no")


class ResultCache:
    """On-disk result cache; every operation is best-effort and atomic.

    ``get`` never raises on a bad entry and ``put`` never fails a sweep
    over an unwritable directory — the cache only ever turns recomputation
    into a lookup, it cannot change results.

    An entry is ``{"salt", "crc", "payload"}`` where ``payload`` is the
    pickled value and ``crc`` its CRC-32: a checksum mismatch (disk
    corruption, torn concurrent writer on a non-atomic filesystem) is
    detected *before* the payload is unpickled, so a corrupted entry can
    neither be served nor crash the sweep mid-unpickle.
    """

    def __init__(
        self,
        root: Optional[os.PathLike | str] = None,
        salt: str = CACHE_VERSION,
        max_quarantine: int = DEFAULT_MAX_QUARANTINE,
        fsync: Optional[bool] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt
        self.fsync = resolve_cache_fsync(fsync)
        self.max_quarantine = max(int(max_quarantine), 1)
        #: entries found corrupt and moved aside since construction
        self.quarantined = 0
        #: shard directories already mkdir'd by this instance — ``put``
        #: pays the probe once per shard, not once per entry
        self._dirs_made: set = set()

    def key_for(self, kind: str, payload: Any) -> str:
        return digest(kind, payload, self.salt)

    def path_for(self, key: str) -> Path:
        return self.root / key[:_SHARD_WIDTH] / f"{key}.pkl"

    # -- reads ---------------------------------------------------------------

    def _read_entry(self, path: Path) -> Tuple[str, Any]:
        """Classify the entry at ``path``: ``("hit", value)`` /
        ``("missing", None)`` / ``("stale", None)`` / ``("corrupt", None)``.
        Never raises; never mutates the filesystem."""
        try:
            with open(path, "rb") as f:
                entry = pickle.load(f)
        except FileNotFoundError:
            return "missing", None
        except Exception:
            return "corrupt", None
        if isinstance(entry, dict) and entry.get("salt") == self.salt:
            payload = entry.get("payload")
            if (
                isinstance(payload, bytes)
                and entry.get("crc") == zlib.crc32(payload)
            ):
                try:
                    return "hit", pickle.loads(payload)
                except Exception:
                    return "corrupt", None
            return "corrupt", None
        # A well-formed entry under a different code version isn't
        # corruption — just drop it rather than quarantining.
        if isinstance(entry, dict) and "salt" in entry:
            return "stale", None
        return "corrupt", None

    def _dispose(self, status: str, path: Path) -> None:
        if status == "stale":
            try:
                path.unlink()
            except OSError:
                pass
        elif status == "corrupt":
            self._quarantine(path)

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; corrupted/stale entries count as misses."""
        path = self.path_for(key)
        status, value = self._read_entry(path)
        if status == "hit":
            return True, value
        self._dispose(status, path)
        return False, None

    def get_many(self, keys: Sequence[str]) -> List[Tuple[bool, Any]]:
        """Batched :meth:`get`: one call for a whole point list.

        Returns ``[(hit, value), ...]`` aligned with ``keys``.  Existence
        is resolved with one ``scandir`` per *shard directory* touched by
        the batch instead of one failed ``open`` per missing key, so a
        cold sweep over N points costs O(shards-touched) directory reads,
        not O(N) exceptions.
        """
        listed: dict = {}

        def names_in(shard_dir: Path) -> frozenset:
            cached = listed.get(shard_dir)
            if cached is None:
                try:
                    with os.scandir(shard_dir) as it:
                        cached = frozenset(e.name for e in it)
                except OSError:
                    cached = frozenset()
                listed[shard_dir] = cached
            return cached

        out: List[Tuple[bool, Any]] = []
        for key in keys:
            path = self.path_for(key)
            if path.name in names_in(path.parent):
                status, value = self._read_entry(path)
                if status == "hit":
                    out.append((True, value))
                    continue
                self._dispose(status, path)
            out.append((False, None))
        return out

    # -- writes --------------------------------------------------------------

    def _ensure_dir(self, parent: Path) -> None:
        if parent not in self._dirs_made:
            parent.mkdir(parents=True, exist_ok=True)
            self._dirs_made.add(parent)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (or delete it if that fails), then
        trim ``quarantine/`` to :attr:`max_quarantine` oldest-first."""
        qdir = self.root / _QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
            self.quarantined += 1
        except OSError:
            try:
                path.unlink()
                self.quarantined += 1
            except OSError:
                return
        self._trim_quarantine(qdir)

    def _trim_quarantine(self, qdir: Path) -> None:
        try:
            entries = [
                (e.stat().st_mtime, e.path)
                for e in os.scandir(qdir)
                if e.is_file()
            ]
        except OSError:
            return
        if len(entries) <= self.max_quarantine:
            return
        entries.sort()
        for _, stale in entries[: len(entries) - self.max_quarantine]:
            try:
                os.unlink(stale)
            except OSError:
                pass

    def quarantine_count(self) -> int:
        """Files currently held in ``quarantine/`` (0 if none/unreadable)."""
        try:
            return sum(
                1 for e in os.scandir(self.root / _QUARANTINE_DIR) if e.is_file()
            )
        except OSError:
            return 0

    def put(self, key: str, value: Any) -> None:
        path = self.path_for(key)
        cst = _chaos.state()
        attack = cst.draw("cache") if cst is not None else None
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            self._ensure_dir(path.parent)
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
            except FileNotFoundError:
                # Shard dir removed externally since we memoised it.
                self._dirs_made.discard(path.parent)
                self._ensure_dir(path.parent)
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(
                        {
                            "salt": self.salt,
                            "crc": zlib.crc32(payload),
                            "payload": payload,
                        },
                        f,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    f.flush()
                    if self.fsync:
                        # Durable before visible: the rename below must
                        # never publish an entry the disk doesn't hold yet.
                        os.fsync(f.fileno())
                if attack is not None and attack.kind == "tear":
                    # Chaos: abandon the swap mid-publication — exactly
                    # the state a kill between write and replace leaves
                    # (a stray .tmp- file, target untouched).
                    return
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if attack is not None:
                self._chaos_mangle(path, attack.kind)
        except (OSError, pickle.PicklingError):
            pass

    def _chaos_mangle(self, path: Path, kind: str) -> None:
        """Damage the just-published entry at rest (chaos ``corrupt`` /
        ``truncate``) — the CRC envelope must catch it on the next read."""
        try:
            size = os.path.getsize(path)
            if size <= 0:
                return
            if kind == "corrupt":
                with open(path, "r+b") as f:
                    f.seek(size // 2)
                    b = f.read(1)
                    f.seek(size // 2)
                    f.write(bytes([(b[0] ^ 0xFF) if b else 0xFF]))
            elif kind == "truncate":
                with open(path, "r+b") as f:
                    f.truncate(max(size // 2, 1))
        except OSError:
            pass

    def put_many(self, pairs: Iterable[Tuple[str, Any]]) -> None:
        """Batched :meth:`put` — same atomic per-entry writes, shard-dir
        creation amortised across the batch (see :meth:`_ensure_dir`)."""
        for key, value in pairs:
            self.put(key, value)
