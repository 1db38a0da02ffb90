"""Cross Memory Attach: ``process_vm_readv`` / ``process_vm_writev``.

The simulated syscalls follow the real kernel's ``process_vm_rw`` path:

1. **syscall entry** — fixed cost, charged always (Table III row 1);
2. **permission / access check** on the remote pid — charged whenever a
   remote iovec is present (Table III row 2);
3. **lock + pin** — per batch of remote pages, via the remote process's
   :class:`~repro.kernel.pagelock.MMLock` (Table III row 3).  This is where
   contention lives;
4. **copy** — bytes actually moved, ``min(local_total, remote_total)``
   (Table III row 4).  The buffers' provenance runs move unless the
   kernel was built with ``verify=False`` (timing-only mode for big
   sweeps).

Setting ``liovcnt = 0`` pins the remote pages but copies nothing, and a
zero-length remote iovec skips pinning — exactly the partial-step trigger
trick the paper uses to isolate T1..T4 (Table III); ``step_timings`` in
:mod:`repro.core.fitting` drives it.

The time charged to each step is summed as it is scheduled, on every run
(:meth:`CMAKernel.phase_times`); that is the breakdown the paper reads
from ftrace (Fig. 4).

Step 3's batch plan — each batch's page count and pro-rata copy time —
depends only on the transfer's shape ``(npages, ncopy, beta)`` and the
kernel's fixed ``pin_batch``.  Each kernel builds it once per shape and
keeps it until :meth:`CMAKernel.reset`: within one run every rank usually
moves the same block size, so nearly every call reuses a plan, and the
calls that share it share its exact floats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Sequence

from repro.kernel.address_space import (
    AddressSpaceManager,
    copy_iov_bytes,
    iov_pages,
)
from repro.kernel.errors import CMAError, EINVAL, EPERM
from repro.kernel.pagelock import MMLock
from repro.sim.engine import (
    Acquire,
    Delay,
    DelayChain,
    HoldRelease,
    PinConvoy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.params import ModelParams
    from repro.sim.engine import SimProcess, Simulator

__all__ = ["CMAKernel", "iovec_total", "IOV_MAX"]

#: Linux UIO_MAXIOV
IOV_MAX = 1024

Iovec = Sequence[tuple[int, int]]


def iovec_total(iov: Iovec) -> int:
    """Sum of iovec lengths (validates non-negative lengths)."""
    total = 0
    for _, ln in iov:
        if ln < 0:
            raise CMAError(EINVAL, f"negative iovec length {ln}")
        total += ln
    return total


def _pin_plan(
    npages: int, ncopy: int, beta: float, pin_batch: int
) -> tuple[tuple[tuple[int, float], ...], float]:
    """The pin loop's batch plan: ``((pages, copy_dt), ...)`` and its sum.

    Batches hold ``pin_batch`` pages (the last one the rest); each copies
    its pro-rata share of ``ncopy`` bytes, cut by integer arithmetic, at
    ``beta`` µs per byte.  The total is the float sum of the shares in
    batch order.
    """
    batches = []
    copy = 0.0
    done_pages = 0
    done_bytes = 0
    while done_pages < npages:
        b = min(pin_batch, npages - done_pages)
        done_pages += b
        batch_bytes = ncopy * done_pages // npages - done_bytes
        done_bytes += batch_bytes
        dt = batch_bytes * beta
        copy += dt
        batches.append((b, dt))
    return tuple(batches), copy


class CMAKernel:
    """Node-wide CMA engine: one mm lock per process.

    Simulated time is kept per phase, always on: ``syscall_us``,
    ``check_us`` and ``copy_us`` sum the delays charged for syscall entry,
    the access check and the copy; the mm locks' ``total_wait_us`` and
    ``total_hold_us`` hold the rest (see :meth:`phase_times`).
    """

    def __init__(
        self,
        sim: "Simulator",
        manager: AddressSpaceManager,
        params: "ModelParams",
        verify: bool = True,
    ):
        self.sim = sim
        self.manager = manager
        self.params = params
        self.verify = verify
        self._mm_locks: dict[int, MMLock] = {}
        self._sockets: dict[int, int] = {}
        #: pids the permission check rejects (tests ptrace-style denial)
        self.denied_pids: set[int] = set()
        self.reads = 0
        self.writes = 0
        self.syscall_us = 0.0
        self.check_us = 0.0
        self.copy_us = 0.0
        #: pin-batch plans by ``(npages, ncopy, beta)`` (see
        #: :func:`_pin_plan`); cleared on reset, so it holds one run's shapes
        self._plans: dict = {}
        #: the syscall-entry + access-check record; the engine never
        #: mutates a command, so every call yields this one
        self._entry = DelayChain(params.alpha_syscall, params.alpha_check)

    def register(self, pid: int, socket: int = 0) -> None:
        """Create the address space + mm lock for a new process.

        ``socket`` is where the process is pinned: copies that cross
        sockets pay the ``inter_socket_beta`` bandwidth penalty.
        """
        self.manager.create(pid)
        self._mm_locks[pid] = MMLock(self.sim, pid, self.params)
        self._sockets[pid] = socket

    def reset(self) -> None:
        """Reset per-run state while keeping pid registrations.

        A warm node re-registers the same pids in the same order, so the
        address spaces and mm locks survive (their *contents* are reset);
        only counters and the denial set go back to zero.
        """
        self.denied_pids.clear()
        self.reads = 0
        self.writes = 0
        self.syscall_us = 0.0
        self.check_us = 0.0
        self.copy_us = 0.0
        self._plans.clear()
        for mm in self._mm_locks.values():
            mm.reset()
        self.manager.reset_spaces()

    def copy_beta(self, caller: "SimProcess", pid: int) -> float:
        """Per-byte copy time between ``caller`` and process ``pid``."""
        beta = self.params.beta
        if self._sockets.get(pid, 0) != caller.socket:
            beta *= self.params.inter_socket_beta
        return beta

    def mm_lock(self, pid: int) -> MMLock:
        self.manager.get(pid)  # ESRCH if unknown
        return self._mm_locks[pid]

    def phase_times(self) -> dict[str, float]:
        """Simulated µs per phase since the last reset, over all callers.

        ``lock`` sums the mm locks' wait times and ``pin`` their hold
        times.  A lock whose every pinned page was a mapped-window
        fault-in (:mod:`repro.kernel.xpmem`) reports its holds as
        ``fault`` instead; one that served both keeps them all in
        ``pin``.
        """
        lock = pin = fault = 0.0
        for mm in self._mm_locks.values():
            mutex = mm.mutex
            lock += mutex.total_wait_us
            if mm.pages_pinned and mm.pages_faulted == mm.pages_pinned:
                fault += mutex.total_hold_us
            else:
                pin += mutex.total_hold_us
        return {
            "syscall": self.syscall_us,
            "check": self.check_us,
            "lock": lock,
            "pin": pin,
            "fault": fault,
            "copy": self.copy_us,
        }

    # -- the syscalls ---------------------------------------------------------

    def process_vm_readv(
        self,
        caller: "SimProcess",
        pid: int,
        local_iov: Iovec,
        remote_iov: Iovec,
        flags: int = 0,
    ) -> Generator:
        """Read from ``pid``'s memory into the caller's.  Returns bytes copied."""
        return self._process_vm_rw(
            caller, pid, local_iov, remote_iov, flags, write=False
        )

    def process_vm_writev(
        self,
        caller: "SimProcess",
        pid: int,
        local_iov: Iovec,
        remote_iov: Iovec,
        flags: int = 0,
    ) -> Generator:
        """Write the caller's memory into ``pid``'s.  Returns bytes copied."""
        return self._process_vm_rw(
            caller, pid, local_iov, remote_iov, flags, write=True
        )

    def _process_vm_rw(
        self,
        caller: "SimProcess",
        pid: int,
        local_iov: Iovec,
        remote_iov: Iovec,
        flags: int,
        write: bool,
    ) -> Generator:
        """The one ``process_vm_rw`` path, with fused engine records.

        Nothing is observable between the syscall-entry and access-check
        delays, or inside a batch's delay/release/copy triplet, so those
        ride fused :class:`~repro.sim.engine.DelayChain` /
        :class:`~repro.sim.engine.HoldRelease` records (by default the
        whole pin loop rides one :class:`~repro.sim.engine.PinConvoy`).
        An ESRCH/EPERM therefore surfaces after the whole entry+check
        time, ``alpha_syscall + alpha_check``.  Each phase's charged time
        is added to its counter as it is scheduled.

        What never changes between calls is built once per kernel: every
        call yields the kernel's one entry+check record, and the batch
        plan comes from the per-kernel memo keyed by the transfer's shape
        ``(npages, ncopy, beta)``.  Both pin loops read the same plan
        tuple.
        """
        p = self.params

        if flags != 0:
            raise CMAError(EINVAL, "flags must be 0")
        if len(local_iov) > IOV_MAX or len(remote_iov) > IOV_MAX:
            raise CMAError(EINVAL, "iovcnt exceeds IOV_MAX")
        local_total = iovec_total(local_iov)
        remote_total = iovec_total(remote_iov)

        # --- 1+2. syscall entry, then permission check if a remote iovec
        # is present (one fused record) ---
        self.syscall_us += p.alpha_syscall
        if not remote_iov:
            yield Delay(p.alpha_syscall)
            return 0
        self.check_us += p.alpha_check
        yield self._entry
        remote_space = self.manager.get(pid)  # raises ESRCH
        if pid in self.denied_pids:
            raise CMAError(EPERM, f"ptrace access to pid {pid} denied")

        if remote_total == 0:
            return 0

        # --- 3+4. pin a batch, copy it, pin the next ... ---
        # The real process_vm_rw pins at most PVM_MAX_PP_ARRAY_COUNT pages
        # per get_user_pages call and copies them before pinning the next
        # batch, so the mm lock is released (and re-fought) throughout the
        # transfer; copy bytes are apportioned to batches pro rata.  A
        # batch's pin hold, release and copy share ride one HoldRelease
        # record — or, by default, the whole loop rides one PinConvoy.
        npages = iov_pages(remote_iov, remote_space.page_size)
        ncopy = min(local_total, remote_total)
        beta = self.copy_beta(caller, pid)
        mm = self._mm_locks[pid]
        # The batch plan, shared by every call of the same shape (both pin
        # loops below read the same tuple); hold_time is evaluated at each
        # grant, where the contender set is live.
        key = (npages, ncopy, beta)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _pin_plan(npages, ncopy, beta, p.pin_batch)
        batches, copy = plan
        self.copy_us += copy
        if self.sim.use_pin_convoy:
            yield PinConvoy(
                mm.mutex, mm.hold_time, batches, mm=mm, npages=npages,
                memo=mm._hold_memo,
            )
        else:
            # Unfused reference path for the convoy differential battery.
            mutex = mm.mutex
            for b, dt in batches:
                yield Acquire(mutex)
                yield HoldRelease(mutex, mm.hold_time(b, caller), dt)
                mm.pages_pinned += b

        if ncopy > 0 and self.verify:
            caller_space = self.manager.get(caller.pid)
            if write:
                copy_iov_bytes(
                    caller_space, local_iov, remote_space, remote_iov, ncopy
                )
            else:
                copy_iov_bytes(
                    remote_space, remote_iov, caller_space, local_iov, ncopy
                )
        if write:
            self.writes += 1
        else:
            self.reads += 1
        return ncopy

    # -- convenience ----------------------------------------------------------

    def read_simple(
        self,
        caller: "SimProcess",
        pid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Single-iovec read: the common case in collectives."""
        return self.process_vm_readv(caller, pid, [local], [remote])

    def write_simple(
        self,
        caller: "SimProcess",
        pid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Single-iovec write."""
        return self.process_vm_writev(caller, pid, [local], [remote])
