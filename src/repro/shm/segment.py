"""The shared-memory segment pool: finite eager-buffer capacity.

Real MPI libraries carve a fixed shared segment per node into chunk slots;
eager traffic stalls when the pool drains (classic "eager buffer
exhaustion").  :class:`SegmentPool` models exactly that: a counting
semaphore over ``nslots`` chunk slots, acquired by senders per in-flight
chunk and released when the receiver copies the chunk out.

The backpressure matters for the SHMEM baselines: a dense two-copy
Alltoall can have O(p) concurrent transfers and visibly serializes once
in-flight chunks exceed the pool — one more reason the single-copy
kernel-assisted path wins dense collectives.

A *collapsed* eager train (see :mod:`repro.shm.transport`) holds one slot
for its whole duration, where the per-chunk protocol hands it back and
re-takes it between chunks.  The two agree only while no acquire has to
wait, so the pool enforces that: an acquire that would wait while a
train holds a slot, or a train that starts with waiters queued, raises
:class:`~repro.sim.engine.SimError` instead of yielding a different
latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import Acquire, Release, SimError
from repro.sim.resources import Semaphore

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.params import ModelParams
    from repro.sim.engine import Simulator

__all__ = ["SegmentPool"]


class SegmentPool:
    """Node-wide pool of shared-segment chunk slots."""

    def __init__(self, sim: "Simulator", params: "ModelParams", nslots: int):
        self.sim = sim
        self.params = params
        self.nslots = nslots
        self._sem = Semaphore(sim, nslots, name="shm-segment")
        #: slots held by collapsed eager trains
        self.trains = 0

    def reset(self) -> None:
        """Restore full slot capacity and drop waiter statistics."""
        self._sem.reset()
        self.trains = 0

    @property
    def slots_in_use(self) -> int:
        return self._sem.in_use

    @property
    def peak_waiters(self) -> int:
        """How deep the exhaustion queue ever got (0 = never exhausted)."""
        return self._sem.max_waiters

    @property
    def bytes_capacity(self) -> int:
        return self.nslots * self.params.shm_chunk

    def acquire_slot(self) -> Acquire:
        """Command: claim one chunk slot (blocks on exhaustion)."""
        if self.trains and not self._sem.available:
            self._refuse("a slot acquire would wait")
        return Acquire(self._sem)

    def release_slot(self) -> Release:
        """Command: return one chunk slot (typically the receiver's side)."""
        return Release(self._sem)

    def begin_train(self) -> None:
        """Mark the slot just acquired as held by a collapsed train."""
        if self._sem._waiters:
            self._refuse("a train starts with acquires waiting")
        self.trains += 1

    def end_train(self) -> Release:
        """Command: return a collapsed train's slot."""
        self.trains -= 1
        return Release(self._sem)

    def _refuse(self, what: str) -> None:
        raise SimError(
            f"shm-segment: {what} while a collapsed eager train holds a "
            "slot; collapsing is exact only if no slot acquire ever waits"
        )
