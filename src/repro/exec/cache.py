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

``get_many`` is the sweep-facing batched read: one ``scandir`` per shard
directory touched instead of one failed ``open`` per missing key.

Writes are group-committed.  Inside :meth:`ResultCache.batch` (re-entrant;
:func:`~repro.exec.sweep.sweep` and :func:`~repro.exec.sweep.cached_call`
open one around their cache work) ``put`` pickles the entry at once but
only stages it, and reads serve staged entries as fresh copies.  The
outermost batch publishes everything staged when it closes, normally or
by an exception, and so does the first ``put`` that finds the oldest
staged entry :data:`MAX_STAGE_AGE_S` old.  Outside a batch ``put``
publishes its one entry at once.

Publication is crash-safe, not just atomic, and takes three passes: every
entry is written to a temp file *in its shard*, every temp file is
fsync'd, then each is ``os.replace``'d over its target.  No entry becomes
visible before the disk holds it: a kill mid-publication leaves stray
``.tmp-`` files and whole entries, never a truncated envelope, and a kill
mid-batch loses only what was staged (about a second of computed points,
which the sweep journal, :mod:`repro.exec.journal`, still records).
Under an armed chaos plan (:mod:`repro.exec.chaos`) every staged entry
draws a ``corrupt`` / ``truncate`` / ``tear`` attack, in ``put`` order,
which lands when the entry is published and which the CRC quarantine
must absorb.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.exec import chaos as _chaos
from repro.exec.keying import digest

__all__ = [
    "ResultCache",
    "CACHE_VERSION",
    "ENV_CACHE_DIR",
    "DEFAULT_MAX_QUARANTINE",
    "MAX_STAGE_AGE_S",
    "default_cache_dir",
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

#: hex-prefix length of a key's shard directory (256 shards)
_SHARD_WIDTH = 2

#: ``quarantine/`` keeps at most this many corrupt entries as evidence;
#: beyond it the oldest files are evicted so a recurring corruption
#: source (bad disk, torn writer) cannot grow the directory unboundedly.
DEFAULT_MAX_QUARANTINE = 64

#: an open batch publishes at the first ``put`` that finds its oldest
#: staged entry this many seconds old, bounding what a kill can lose
MAX_STAGE_AGE_S = 1.0

#: the staging clock (a module global so tests can substitute a fake one)
_clock = time.monotonic

_QUARANTINE_DIR = "quarantine"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-exec"


class _Staged(NamedTuple):
    """One entry awaiting publication."""

    path: Path
    #: the pickled value (what the CRC covers and staged reads unpickle)
    payload: bytes
    #: the pickled envelope: the exact bytes the entry file will hold
    blob: bytes
    #: the chaos attack drawn for this entry, or None
    attack: Any


def _fsync_path(path: str) -> bool:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


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
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt
        self.max_quarantine = max(int(max_quarantine), 1)
        #: entries found corrupt and moved aside since construction
        self.quarantined = 0
        #: publications made since construction, and the entries in them
        self.flushes = 0
        self.flushed = 0
        #: shard directories already mkdir'd by this instance — a
        #: publication pays the probe once per shard, not once per entry
        self._dirs_made: set = set()
        #: key -> entry staged by an open batch, in ``put`` order
        self._staged: Dict[str, _Staged] = {}
        self._staged_since = 0.0
        self._depth = 0
        self._pid = os.getpid()

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

    def _read_staged(self, key: str) -> Optional[Tuple[bool, Any]]:
        """A staged entry as a disk hit would serve it (a fresh copy), or
        None when ``key`` is not staged.  An entry drawn for a chaos
        attack reads as the disk holds it until its publication."""
        entry = self._staged.get(key)
        if entry is None or entry.attack is not None:
            return None
        return True, pickle.loads(entry.payload)

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
        staged = self._read_staged(key)
        if staged is not None:
            return staged
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
            staged = self._read_staged(key)
            if staged is not None:
                out.append(staged)
                continue
            path = self.path_for(key)
            if path.name in names_in(path.parent):
                status, value = self._read_entry(path)
                if status == "hit":
                    out.append((True, value))
                    continue
                self._dispose(status, path)
            out.append((False, None))
        return out

    # -- quarantine ----------------------------------------------------------

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

    # -- writes --------------------------------------------------------------

    @property
    def batching(self) -> bool:
        """Whether a :meth:`batch` is open (``put`` only stages)."""
        return self._depth > 0

    @contextmanager
    def batch(self) -> Iterator["ResultCache"]:
        """Group-commit the ``put`` calls made inside.

        Re-entrant: a nested batch joins the outer one, and only the
        outermost exit publishes — on a normal exit and on an exception
        alike, so a failing sweep still keeps the points it completed.
        """
        self._forget_parent_batch()
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            if self._depth == 0 and self._staged:
                self.put_many(())

    def put(self, key: str, value: Any) -> None:
        """A one-entry :meth:`put_many`."""
        self.put_many(((key, value),))

    def put_many(self, pairs: Iterable[Tuple[str, Any]]) -> None:
        """Stage ``pairs``, then publish everything staged — unless a
        batch is open and its oldest entry is younger than
        :data:`MAX_STAGE_AGE_S`."""
        self._forget_parent_batch()
        for key, value in pairs:
            self._stage(key, value)
        if self._staged and (
            self._depth == 0
            or _clock() - self._staged_since >= MAX_STAGE_AGE_S
        ):
            entries = list(self._staged.values())
            self._staged = {}
            self._publish(entries)

    def _forget_parent_batch(self) -> None:
        # A forked pool worker inherits its parent's open batch: it must
        # neither publish the parent's entries nor wait on its batch.
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._staged = {}
            self._depth = 0

    def _stage(self, key: str, value: Any) -> None:
        """Pickle ``value`` into its envelope now (a caller mutating the
        value afterwards cannot change what gets published) and draw its
        chaos attack in ``put`` order."""
        cst = _chaos.state()
        attack = cst.draw("cache") if cst is not None else None
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except pickle.PicklingError:
            return
        blob = pickle.dumps(
            {"salt": self.salt, "crc": zlib.crc32(payload), "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        if not self._staged:
            self._staged_since = _clock()
        self._staged[key] = _Staged(self.path_for(key), payload, blob, attack)

    def _publish(self, entries: List[_Staged]) -> None:
        """Make ``entries`` durable, then visible: write every temp file,
        fsync each, then rename each over its target.  Best-effort per
        entry; a temp file that is not renamed is removed (except under a
        chaos ``tear``)."""
        self.flushes += 1
        self.flushed += len(entries)
        pending: Dict[str, _Staged] = {}
        try:
            for entry in entries:
                tmp = self._write_temp(entry)
                if tmp is not None:
                    pending[tmp] = entry
            synced = [tmp for tmp in pending if _fsync_path(tmp)]
            for tmp in synced:
                entry = pending[tmp]
                attack = entry.attack
                if attack is not None and attack.kind == "tear":
                    # Chaos: abandon the swap mid-publication — exactly
                    # the state a kill between fsync and replace leaves
                    # (a stray .tmp- file, target untouched).
                    del pending[tmp]
                    continue
                try:
                    os.replace(tmp, entry.path)
                except OSError:
                    continue
                del pending[tmp]
                if attack is not None:
                    self._chaos_mangle(entry.path, attack.kind)
        finally:
            for tmp in pending:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _write_temp(self, entry: _Staged) -> Optional[str]:
        """Write ``entry`` to a fresh ``.tmp-`` file in its shard; returns
        its path, or None when the shard is unwritable."""
        parent = entry.path.parent
        try:
            if parent not in self._dirs_made:
                parent.mkdir(parents=True, exist_ok=True)
                self._dirs_made.add(parent)
            try:
                fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
            except FileNotFoundError:
                # Shard dir removed externally since we memoised it.
                parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
        except OSError:
            return None
        written = False
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(entry.blob)
            written = True
        except OSError:
            pass
        finally:
            if not written:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        return tmp if written else None

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
