"""Contended resources.

The only resource the kernel model needs is a FIFO mutex whose *contender
set* is observable: the mm-lock hold-time model inflates the critical
section as a function of how many processes (and on which sockets) are
fighting for the lock, which is how `get_user_pages` cache-line bouncing
shows up in the paper's Figure 4/5 measurements.

Contender accounting is incremental: per-socket counts are maintained on
acquire/release so :meth:`Mutex.contention_profile` — called once per pin
batch by the hold-time model — is O(1) instead of a scan over the waiter
queue.  A process's ``socket`` must therefore not change while it is
holding or waiting on a lock (placement is assigned at spawn time and the
machine layer never moves a pinned process).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import SimError, _K_CGRANT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimProcess, Simulator

__all__ = ["Mutex", "Semaphore"]


class Mutex:
    """FIFO mutual-exclusion lock with an observable contender set.

    Acquire/release go through the engine commands
    :class:`~repro.sim.engine.Acquire` / :class:`~repro.sim.engine.Release`
    (or the fused :class:`~repro.sim.engine.HoldRelease`); the methods here
    are engine-internal.  Grants are zero-delay dispatch records, so an
    uncontended acquire costs one ready-deque entry — no heap round-trip,
    no closure.

    Waiters are queued as ``(process, enqueue_time)`` pairs, so wait-time
    accounting cannot leak state for waiters that are never granted (e.g.
    a deadlocked simulation being torn down).

    Statistics (`acquisitions`, `total_wait_us`, `total_hold_us`,
    `max_contenders`) are always on, traced or not.  ``total_wait_us``
    sums (grant time - request time) over contended grants, in grant
    order; ``total_hold_us`` sums (release time - grant time) over holds,
    in release order.  On one mutex those orders coincide with the order
    in which the traced kernel records its 'lock' and 'pin' spans, and an
    uncontended grant's zero wait adds nothing, so ``total_wait_us +
    total_hold_us`` is bit-for-bit the traced lock+pin span total — the
    number :func:`repro.bench.microbench.lock_pin_per_page` calibrates
    gamma from without a tracer.

    ``generation`` counts every acquire/release.

    Grant routing is convoy-shaped: a grant inspects ``proc.convoy``
    only, and a convoy member's grant rides a ``_K_CGRANT`` record
    instead of a generator resumption.  The engine counts in-flight
    convoy members per lock (``_members``); a lone member granted a lock
    with no waiters may be collapsed, which marks the lock
    (``_collapsed``) as held until the convoy finishes.  While marked,
    ``holder``, ``acquisitions``, ``generation``, ``total_hold_us`` and
    the contender counts lag the per-batch schedule; :meth:`_acquire` by
    any other process settles them first, so every reader that holds the
    lock sees exact state.  The settle writes back the hold total the
    collapse folded batch by batch, replacing the term the lock's own
    :meth:`_release` added, so no hold counts twice.
    """

    __slots__ = (
        "sim",
        "name",
        "holder",
        "_waiters",
        "_socket_counts",
        "acquisitions",
        "total_wait_us",
        "total_hold_us",
        "max_contenders",
        "generation",
        "_members",
        "_collapsed",
        "_granted_at",
    )

    def __init__(self, sim: "Simulator", name: str = "mutex"):
        self.sim = sim
        self.name = name
        self.holder: Optional["SimProcess"] = None
        self._waiters: deque[tuple["SimProcess", float]] = deque()
        self._socket_counts: dict[int, int] = {}
        self.acquisitions = 0
        self.total_wait_us = 0.0
        self.total_hold_us = 0.0
        self.max_contenders = 0
        self.generation = 0
        #: in-flight PinConvoy members on this lock (engine-maintained)
        self._members = 0
        #: the collapsed convoy holding this lock, if any
        self._collapsed = None
        #: when the current holder was granted the lock
        self._granted_at = 0.0

    def reset(self) -> None:
        """Drop holder/waiter state and statistics (fresh-construction state)."""
        self.holder = None
        self._waiters.clear()
        self._socket_counts.clear()
        self.acquisitions = 0
        self.total_wait_us = 0.0
        self.total_hold_us = 0.0
        self.max_contenders = 0
        self.generation = 0
        self._members = 0
        self._collapsed = None
        self._granted_at = 0.0

    # -- observability -------------------------------------------------------

    @property
    def contenders(self) -> list["SimProcess"]:
        """Processes currently involved with the lock: holder plus waiters."""
        out = [self.holder] if self.holder is not None else []
        out.extend(w for w, _ in self._waiters)
        return out

    @property
    def n_contenders(self) -> int:
        return (1 if self.holder is not None else 0) + len(self._waiters)

    def contention_profile(self, socket: int) -> tuple[int, int]:
        """Split the contender set into (same-socket, other-socket) counts
        relative to ``socket``.  Used by the bounce model; O(1)."""
        same = self._socket_counts.get(socket, 0)
        return same, self.n_contenders - same

    # -- engine internals ------------------------------------------------------

    def _acquire(self, proc: "SimProcess") -> None:
        if self.holder is proc:
            raise SimError(f"{proc.name} re-acquired non-reentrant {self.name}")
        if self._collapsed is not None:
            # another process reaches a lock whose convoy was folded
            # into one record: rebuild its per-batch state first
            self.sim._convoy_expand(self._collapsed)
        counts = self._socket_counts
        counts[proc.socket] = counts.get(proc.socket, 0) + 1
        self.generation += 1
        if self.holder is None:
            self.holder = proc
            self._granted_at = self.sim.now
            self.acquisitions += 1
            n = 1 + len(self._waiters)
            if n > self.max_contenders:
                self.max_contenders = n
            conv = proc.convoy
            if conv is not None and conv.lock is self:
                self.sim._push(0.0, _K_CGRANT, conv, None)
            else:
                self.sim._schedule_resume(0.0, proc, None)
            return
        self._waiters.append((proc, self.sim.now))
        n = 1 + len(self._waiters)
        if n > self.max_contenders:
            self.max_contenders = n

    def _release(self, proc: "SimProcess") -> None:
        if self.holder is not proc:
            raise SimError(
                f"{proc.name} released {self.name} held by "
                f"{self.holder.name if self.holder else 'nobody'}"
            )
        counts = self._socket_counts
        left = counts[proc.socket] - 1
        if left:
            counts[proc.socket] = left
        else:
            del counts[proc.socket]
        self.generation += 1
        now = self.sim.now
        self.total_hold_us += now - self._granted_at
        if self._waiters:
            nxt, since = self._waiters.popleft()
            self.holder = nxt
            self._granted_at = now
            self.acquisitions += 1
            self.total_wait_us += now - since
            conv = nxt.convoy
            if conv is not None and conv.lock is self:
                self.sim._push(0.0, _K_CGRANT, conv, None)
            else:
                self.sim._schedule_resume(0.0, nxt, None)
        else:
            self.holder = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        h = self.holder.name if self.holder else None
        return f"<Mutex {self.name} holder={h} waiters={len(self._waiters)}>"


class Semaphore:
    """Counting semaphore with FIFO wakeups.

    Used for pooled capacities (shared-segment slots): ``Acquire`` takes a
    unit (blocking when none remain — the backpressure), ``Release``
    returns one.  Unlike :class:`Mutex` there is no holder identity:
    any process may release, which is exactly how a receiver frees a slot
    the sender acquired.

    Tracks ``total_wait_us``/``max_waiters`` the same way :class:`Mutex`
    does, so slot backpressure shows up in stats next to lock contention.
    """

    __slots__ = ("sim", "name", "capacity", "available", "_waiters",
                 "acquisitions", "total_wait_us", "max_waiters")

    def __init__(self, sim: "Simulator", capacity: int, name: str = "sem"):
        if capacity < 1:
            raise SimError(f"semaphore capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.available = capacity
        self._waiters: deque[tuple["SimProcess", float]] = deque()
        self.acquisitions = 0
        self.total_wait_us = 0.0
        self.max_waiters = 0

    def reset(self) -> None:
        """Restore full capacity and drop waiters/statistics."""
        self.available = self.capacity
        self._waiters.clear()
        self.acquisitions = 0
        self.total_wait_us = 0.0
        self.max_waiters = 0

    @property
    def in_use(self) -> int:
        return self.capacity - self.available

    # -- engine internals ----------------------------------------------------

    def _acquire(self, proc: "SimProcess") -> None:
        if self.available > 0:
            self.available -= 1
            self.acquisitions += 1
            self.sim._schedule_resume(0.0, proc, None)
        else:
            self._waiters.append((proc, self.sim.now))
            if len(self._waiters) > self.max_waiters:
                self.max_waiters = len(self._waiters)

    def _release(self, proc: "SimProcess") -> None:
        if self._waiters:
            nxt, since = self._waiters.popleft()
            self.acquisitions += 1
            self.total_wait_us += self.sim.now - since
            self.sim._schedule_resume(0.0, nxt, None)
        else:
            if self.available >= self.capacity:
                raise SimError(f"{self.name}: release past capacity")
            self.available += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Semaphore {self.name} {self.available}/{self.capacity} "
            f"waiters={len(self._waiters)}>"
        )
