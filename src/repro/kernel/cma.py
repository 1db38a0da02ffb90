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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.kernel.address_space import AddressSpaceManager, copy_iov_bytes
from repro.kernel.errors import CMAError, EFAULT, EINTR, EINVAL, EPERM, ESRCH
from repro.kernel.pagelock import MMLock
from repro.sim.engine import (
    Acquire,
    Delay,
    DelayChain,
    HoldRelease,
    PinConvoy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultState
    from repro.machine.params import ModelParams
    from repro.sim.engine import SimProcess, Simulator
    from repro.sim.trace import Tracer

__all__ = ["CMAKernel", "iovec_total", "IOV_MAX"]

#: Linux UIO_MAXIOV
IOV_MAX = 1024

Iovec = Sequence[tuple[int, int]]

#: errno raised per injected errno-kind fault (mirrors faults.KIND_ERRNO;
#: kept local so the kernel layer never imports repro.faults, which would
#: be circular through the package __init__).
_INJECT_ERRNO = {"eperm": EPERM, "esrch": ESRCH, "efault": EFAULT, "eintr": EINTR}


def iovec_total(iov: Iovec) -> int:
    """Sum of iovec lengths (validates non-negative lengths)."""
    total = 0
    for _, ln in iov:
        if ln < 0:
            raise CMAError(EINVAL, f"negative iovec length {ln}")
        total += ln
    return total


def _iov_pages(iov: Iovec, page_size: int) -> int:
    """Pages spanned by an iovec (per-entry rounding, like total_pages)."""
    total = 0
    for addr, ln in iov:
        if ln == 0:
            continue
        total += (addr + ln - 1) // page_size - addr // page_size + 1
    return total


def _page_prefix_bytes(iov: Iovec, page_size: int, max_pages: int) -> int:
    """Bytes of ``iov`` covered by its first ``max_pages`` pages."""
    pages = 0
    nbytes = 0
    for addr, ln in iov:
        if ln == 0:
            continue
        first = addr // page_size
        span = (addr + ln - 1) // page_size - first + 1
        if pages + span <= max_pages:
            pages += span
            nbytes += ln
            if pages == max_pages:
                break
            continue
        # the budget runs out inside this entry: cut at the page boundary
        take = max_pages - pages
        nbytes += (first + take) * page_size - addr
        break
    return nbytes


def _truncate_at_page_boundary(
    remote_iov: Iovec, page_size: int, npages: int, ncopy: int, frac: float
) -> tuple[int, int]:
    """Short-transfer point: keep a whole-page prefix of the remote iovec.

    Mirrors the real ``process_vm_rw``: when pinning faults midway, the
    bytes already copied — whole pages at the front of the remote iovec —
    are returned as a short count, never an error.  Returns the truncated
    ``(npages, ncopy)``; a no-op when the local side already bounds the
    copy short of the chosen boundary.
    """
    keep = max(1, min(npages - 1, int(npages * frac)))
    prefix = _page_prefix_bytes(remote_iov, page_size, keep)
    if 0 < prefix < ncopy:
        return keep, prefix
    return npages, ncopy


class CMAKernel:
    """Node-wide CMA engine: one mm lock per process, shared tracer."""

    def __init__(
        self,
        sim: "Simulator",
        manager: AddressSpaceManager,
        params: "ModelParams",
        tracer: "Tracer",
        verify: bool = True,
    ):
        self.sim = sim
        self.manager = manager
        self.params = params
        self.tracer = tracer
        self.verify = verify
        self._mm_locks: dict[int, MMLock] = {}
        self._sockets: dict[int, int] = {}
        #: pids the permission check rejects (tests ptrace-style denial)
        self.denied_pids: set[int] = set()
        #: armed fault-injection state, or None (the default: no faults,
        #: bit-identical to the pre-fault kernel) — see :meth:`set_faults`
        self.faults: Optional["FaultState"] = None
        self.reads = 0
        self.writes = 0

    def register(self, pid: int, socket: int = 0) -> None:
        """Create the address space + mm lock for a new process.

        ``socket`` is where the process is pinned: copies that cross
        sockets pay the ``inter_socket_beta`` bandwidth penalty.
        """
        self.manager.create(pid)
        mm = MMLock(self.sim, pid, self.params, self.tracer)
        if self.faults is not None:
            mm.hold_scale = self.faults.scale(pid)
        self._mm_locks[pid] = mm
        self._sockets[pid] = socket

    def set_faults(self, state: Optional["FaultState"]) -> None:
        """Arm (or disarm) fault injection for this kernel.

        Straggler slowdowns apply to a pid's mm-lock hold time too (its
        page operations are slow from every contender's point of view),
        so the per-lock scale is pushed down here; it stays constant for
        the run, which keeps ``hold_time`` pure in (pages, contention
        profile) and the PinConvoy memo contract intact.
        """
        self.faults = state
        for pid, mm in self._mm_locks.items():
            mm.hold_scale = 1.0 if state is None else state.scale(pid)

    def reset(self) -> None:
        """Reset per-run state while keeping pid registrations.

        A warm node re-registers the same pids in the same order, so the
        address spaces and mm locks survive (their *contents* are reset);
        only counters and the denial set go back to zero.  Fault state is
        disarmed (mm hold scales return to 1.0): a plan is per-run state,
        so the owner must re-arm via :meth:`set_faults` after the reset
        (``Node.reset`` does).
        """
        self.denied_pids.clear()
        self.faults = None
        self.reads = 0
        self.writes = 0
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
        rw = self._process_vm_rw if self.tracer.enabled else self._process_vm_rw_fast
        return rw(caller, pid, local_iov, remote_iov, flags, write=False)

    def process_vm_writev(
        self,
        caller: "SimProcess",
        pid: int,
        local_iov: Iovec,
        remote_iov: Iovec,
        flags: int = 0,
    ) -> Generator:
        """Write the caller's memory into ``pid``'s.  Returns bytes copied."""
        rw = self._process_vm_rw if self.tracer.enabled else self._process_vm_rw_fast
        return rw(caller, pid, local_iov, remote_iov, flags, write=True)

    def _process_vm_rw(
        self,
        caller: "SimProcess",
        pid: int,
        local_iov: Iovec,
        remote_iov: Iovec,
        flags: int,
        write: bool,
    ) -> Generator:
        p = self.params
        tracer = self.tracer

        # --- validation (before any cost, like the real syscall) ---
        if flags != 0:
            raise CMAError(EINVAL, "flags must be 0")
        if len(local_iov) > IOV_MAX or len(remote_iov) > IOV_MAX:
            raise CMAError(EINVAL, "iovcnt exceeds IOV_MAX")
        local_total = iovec_total(local_iov)
        remote_total = iovec_total(remote_iov)

        # --- fault-injection draw (fs is None on the default path: no
        # draw, scale 1.0, and every guarded branch below compiles away
        # to the exact pre-fault delay expressions) ---
        fault = None
        scale = 1.0
        fs = self.faults
        if fs is not None:
            if remote_iov:
                fault = fs.draw(
                    "writev" if write else "readv",
                    pid,
                    caller.pid,
                    pages=_iov_pages(remote_iov, p.page_size),
                )
            scale = fs.scale(caller.pid)

        # --- 1. syscall entry ---
        t0 = self.sim.now
        yield Delay(p.alpha_syscall if scale == 1.0 else p.alpha_syscall * scale)
        if tracer.enabled:
            tracer.record(caller.name, "syscall", t0, self.sim.now)

        if not remote_iov:
            return 0

        # --- 2. permission / access check on the remote task ---
        t1 = self.sim.now
        remote_space = self.manager.get(pid)  # raises ESRCH
        if pid in self.denied_pids:
            raise CMAError(EPERM, f"ptrace access to pid {pid} denied")
        if fault is not None and fault.kind in _INJECT_ERRNO:
            raise CMAError(
                _INJECT_ERRNO[fault.kind],
                f"injected {fault.kind} at "
                f"{'writev' if write else 'readv'}(pid={pid})",
            )
        yield Delay(p.alpha_check if scale == 1.0 else p.alpha_check * scale)
        if tracer.enabled:
            tracer.record(caller.name, "check", t1, self.sim.now)

        if remote_total == 0:
            return 0

        # --- 3+4. pin a batch, copy it, pin the next ... ---
        # The real process_vm_rw pins at most PVM_MAX_PP_ARRAY_COUNT pages
        # per get_user_pages call and copies them before pinning the next
        # batch, so the mm lock is released (and re-fought) throughout the
        # transfer.  Copy bytes are apportioned to batches pro rata.
        npages = remote_space.total_pages(remote_iov)
        ncopy = min(local_total, remote_total)
        if fault is not None and fault.kind == "partial":
            npages, ncopy = _truncate_at_page_boundary(
                remote_iov, p.page_size, npages, ncopy, fault.resolved_factor
            )
        beta = self.copy_beta(caller, pid)
        if scale != 1.0:
            beta *= scale
        mm = self.mm_lock(pid)
        done_pages = 0
        done_bytes = 0
        while done_pages < npages:
            b = min(self.params.pin_batch, npages - done_pages)
            yield from mm.lock_and_pin(caller, b)
            done_pages += b
            batch_bytes = ncopy * done_pages // npages - done_bytes
            if batch_bytes > 0:
                t3 = self.sim.now
                yield Delay(batch_bytes * beta)
                if tracer.enabled:
                    tracer.record(
                        caller.name, "copy", t3, self.sim.now, meta=batch_bytes
                    )
                done_bytes += batch_bytes

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

    def _process_vm_rw_fast(
        self,
        caller: "SimProcess",
        pid: int,
        local_iov: Iovec,
        remote_iov: Iovec,
        flags: int,
        write: bool,
    ) -> Generator:
        """Untraced ``_process_vm_rw``: same simulated timeline, fused events.

        With no trace spans to record there is nothing observable between
        the syscall-entry and access-check delays, or inside a batch's
        delay/release/copy triplet, so those ride fused
        :class:`~repro.sim.engine.DelayChain` /
        :class:`~repro.sim.engine.HoldRelease` records (by default the
        whole pin loop rides one :class:`~repro.sim.engine.PinConvoy`):
        identical timestamps and FIFO lock-grant order with roughly half the
        generator resumptions, and no more events — far fewer when an
        uncontended convoy collapses.
        One deliberate divergence: ESRCH/EPERM surface after the combined
        entry+check time rather than between the two delays — the *error*
        path costs ``alpha_check`` more simulated time than the traced
        engine charges it.
        """
        p = self.params

        if flags != 0:
            raise CMAError(EINVAL, "flags must be 0")
        if len(local_iov) > IOV_MAX or len(remote_iov) > IOV_MAX:
            raise CMAError(EINVAL, "iovcnt exceeds IOV_MAX")
        local_total = iovec_total(local_iov)
        remote_total = iovec_total(remote_iov)

        # --- fault-injection draw (fs None ⇒ zero-cost, bit-identical) ---
        fault = None
        scale = 1.0
        fs = self.faults
        if fs is not None:
            if remote_iov:
                fault = fs.draw(
                    "writev" if write else "readv",
                    pid,
                    caller.pid,
                    pages=_iov_pages(remote_iov, p.page_size),
                )
            scale = fs.scale(caller.pid)

        # --- 1+2. syscall entry, then permission check if a remote iovec
        # is present (one fused record) ---
        if not remote_iov:
            yield Delay(p.alpha_syscall if scale == 1.0 else p.alpha_syscall * scale)
            return 0
        if scale == 1.0:
            yield DelayChain(p.alpha_syscall, p.alpha_check)
        else:
            yield DelayChain(p.alpha_syscall * scale, p.alpha_check * scale)
        remote_space = self.manager.get(pid)  # raises ESRCH
        if pid in self.denied_pids:
            raise CMAError(EPERM, f"ptrace access to pid {pid} denied")
        if fault is not None and fault.kind in _INJECT_ERRNO:
            # Same position as the natural ESRCH/EPERM above: after the
            # fused entry+check time (the documented fast-path divergence).
            raise CMAError(
                _INJECT_ERRNO[fault.kind],
                f"injected {fault.kind} at "
                f"{'writev' if write else 'readv'}(pid={pid})",
            )

        if remote_total == 0:
            return 0

        # --- 3+4. pin a batch, copy it, pin the next ... ---
        # Same batching as the traced path; the pin hold, the release, and
        # the batch's pro-rata copy share ride one HoldRelease record —
        # or, by default, the whole loop rides one PinConvoy command.
        npages = remote_space.total_pages(remote_iov)
        ncopy = min(local_total, remote_total)
        if fault is not None and fault.kind == "partial":
            npages, ncopy = _truncate_at_page_boundary(
                remote_iov, p.page_size, npages, ncopy, fault.resolved_factor
            )
        beta = self.copy_beta(caller, pid)
        if scale != 1.0:
            beta *= scale
        mm = self._mm_locks[pid]
        pin_batch = p.pin_batch
        if self.sim.use_pin_convoy:
            # Precompute the batch plan: batch sizes and pro-rata copy
            # shares are pure integer arithmetic with no dependence on
            # simulation state, and ``batch_bytes * beta`` is the same
            # single multiplication the unfused loop performs, so the
            # extra_dt floats are bit-identical — only computed up front.
            # hold_time stays inside the engine's grant handler, where
            # the contender set is live.
            batches = []
            done_pages = 0
            done_bytes = 0
            while done_pages < npages:
                b = min(pin_batch, npages - done_pages)
                done_pages += b
                batch_bytes = ncopy * done_pages // npages - done_bytes
                done_bytes += batch_bytes
                batches.append((b, batch_bytes * beta))
            yield PinConvoy(
                mm.mutex, mm.hold_time, batches, mm=mm, npages=npages,
                memo=mm._hold_memo,
            )
        else:
            # Unfused reference path for the convoy differential battery.
            mutex = mm.mutex
            done_pages = 0
            done_bytes = 0
            while done_pages < npages:
                b = min(pin_batch, npages - done_pages)
                yield Acquire(mutex)
                hold = mm.hold_time(b, caller)
                done_pages += b
                batch_bytes = ncopy * done_pages // npages - done_bytes
                done_bytes += batch_bytes
                yield HoldRelease(mutex, hold, batch_bytes * beta)
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
