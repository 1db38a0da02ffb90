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
    FoldBump,
    HoldRelease,
    PhaseCommand,
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
        #: the shared non-verify completion callbacks the fused builder
        #: attaches: single identity-stable objects so the batch drain can
        #: recognize and fold them (see :class:`FoldBump`)
        self._bump_reads = FoldBump(self, "reads")
        self._bump_writes = FoldBump(self, "writes")
        #: single-entry (npages, ncopy, beta) -> batches template cache for
        #: the fused-phase builder: symmetric collective phases repeat the
        #: same transfer geometry per step, and batch plans are pure in the
        #: key, so the (read-only) list is shared across segments
        self._batch_cache: Optional[tuple[tuple[int, int, float], list]] = None
        #: (caller_pid, peer_pid, local, remote, write) -> segment list for
        #: :meth:`rw_segments`: warm collective rounds re-emit the exact
        #: same transfers, and the segments are pure in the key given the
        #: registration state (spaces, placement, params), so re-deriving
        #: them every round is pure emission overhead.  Invalidated on
        #: :meth:`reset`/:meth:`register` (spaces and sockets may change);
        #: the live gates (faults/denied/pin-convoy) stay in front.
        self._seg_cache: dict = {}
        #: segment-emission epoch: bumped on every invalidation of
        #: :attr:`_seg_cache`, so value-keyed caches layered above (the
        #: whole-phase cache in :class:`~repro.mpi.communicator.Comm`)
        #: can tell when a cached phase may no longer match what the
        #: per-stage builders would emit
        self.seg_epoch = 0

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
        self._seg_cache.clear()
        self.seg_epoch += 1

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
        self._seg_cache.clear()  # cbs close over the old address spaces
        self.seg_epoch += 1
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
        :class:`~repro.sim.engine.HoldRelease` records: identical event
        stream (timestamps, FIFO lock-grant order, tie-breaker sequence
        numbers, event counts) with roughly half the generator resumptions.
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

    # -- fused-phase segment builder ------------------------------------------

    def rw_segments(
        self,
        caller: "SimProcess",
        pid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
        write: bool,
    ) -> Optional[list]:
        """Phase segments replaying one ``_process_vm_rw_fast`` transfer.

        Returns the segment list a :class:`~repro.sim.engine.PhaseCommand`
        needs to fast-forward a single untraced single-iovec transfer
        bit-exactly: the fused entry+check chain, then the pin convoy —
        same batch plan, same ``extra_dt`` float products — with the
        verify copy and syscall-counter bump as the completion callback
        (the exact point the unfused generator resumption runs them).

        Returns ``None`` whenever the transfer cannot be mirrored —
        faults armed, pin convoys disabled, unknown or denied pid,
        negative lengths — and the caller must fall back to the unfused
        emitter, which reproduces the failure semantics *and timing*
        (e.g. EPERM surfacing after the fused entry+check delay).
        """
        if (
            self.faults is not None
            or not self.sim.use_pin_convoy
            or pid in self.denied_pids
            or local[1] < 0
            or remote[1] < 0
        ):
            return None
        ckey = (caller.pid, pid, local, remote, write)
        segs = self._seg_cache.get(ckey)
        if segs is not None:
            return segs
        try:
            remote_space = self.manager.get(pid)
        except CMAError:
            return None
        p = self.params
        head = PhaseCommand.chain(p.alpha_syscall, p.alpha_check)
        if remote[1] == 0:
            self._seg_cache[ckey] = segs = [head]
            return segs
        remote_iov = [remote]
        npages = remote_space.total_pages(remote_iov)
        ncopy = min(local[1], remote[1])
        beta = self.copy_beta(caller, pid)
        key = (npages, ncopy, beta)
        cached = self._batch_cache
        if cached is not None and cached[0] == key:
            batches = cached[1]
        else:
            pin_batch = p.pin_batch
            batches = []
            done_pages = 0
            done_bytes = 0
            while done_pages < npages:
                b = min(pin_batch, npages - done_pages)
                done_pages += b
                batch_bytes = ncopy * done_pages // npages - done_bytes
                done_bytes += batch_bytes
                batches.append((b, batch_bytes * beta))
            self._batch_cache = (key, batches)
        if ncopy > 0 and self.verify:
            caller_space = self.manager.get(caller.pid)
            local_iov = [local]
            if write:
                def cb() -> None:
                    copy_iov_bytes(
                        caller_space, local_iov, remote_space, remote_iov, ncopy
                    )
                    self.writes += 1
            else:
                def cb() -> None:
                    copy_iov_bytes(
                        remote_space, remote_iov, caller_space, local_iov, ncopy
                    )
                    self.reads += 1
        else:
            cb = self._bump_writes if write else self._bump_reads
        mm = self._mm_locks[pid]
        self._seg_cache[ckey] = segs = [
            head,
            PhaseCommand.pin(
                mm.mutex,
                mm.hold_time,
                batches,
                mm=mm,
                npages=npages,
                memo=mm._hold_memo,
                cb=cb,
            ),
        ]
        return segs

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
