"""XPMEM-style mapped windows: pay the map once, then copy pin-free.

The fourth kernel mechanism, and the first whose *steady state* avoids the
owner's mm lock entirely.  An owner exports a region (``make_segid``), a
peer attaches it once per ``(owner, attacher)`` pair — paying a map cost
proportional to the region's pages — and every copy through the mapped
window after the pages are faulted in is a plain memcpy-speed transfer
with **no** ``get_user_pages`` call, hence no γ(c) contention.  The cost
moves, it does not vanish:

1. **make** — the owner's export (``t_xpmem_make``), once per region;
2. **attach** — page-table setup proportional to the window
   (``t_xpmem_attach + npages * t_xpmem_page``), charged once per
   (owner, attacher) pair; re-attaching an already-mapped window costs
   only the fixed ``t_xpmem_attach`` lookup;
3. **fault-in** — the first touch of each window page takes the *owner's*
   mm lock briefly (one-page hold) to populate the attacher's page table.
   A cold One-to-all therefore still convoys on the root's mm lock — just
   once per page per attacher instead of once per batch per call;
4. **copy** — ``t_xpmem_copy + nbytes * beta``, mm-lock-free.

This is exactly the regime split Huang et al. exploit (PAPERS.md,
arXiv 2305.10612): mapped windows beat throttled CMA once the map+fault
cost amortises over enough traffic, and lose at small sizes where the
per-call CMA syscall is cheaper than the attach.  ``core.tuning`` picks
the winner per (arch, collective, size, procs).

Differential contract (mirrors :mod:`repro.kernel.cma`): the traced path
emits per-page lock/fault spans; the untraced unfused path replays the
same Acquire/HoldRelease timeline; the untraced fused path rides one
:class:`~repro.sim.engine.FaultConvoy` — the cold fault-in convoy with
the pin-free copy fused on as its ``tail_dt`` — and all three agree on
timestamps and lock statistics.  The fused path never processes more
events than the unfused one; a fault-in storm no other process contends
collapses to one or a few engine records (see
:meth:`repro.sim.engine.Simulator._convoy_collapse`).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from repro.kernel.address_space import copy_iov_bytes
from repro.kernel.errors import (
    CMAError,
    EFAULT,
    EINTR,
    EINVAL,
    ENOENT,
    EPERM,
    ESRCH,
)
from repro.sim.engine import (
    Acquire,
    Delay,
    DelayChain,
    FaultConvoy,
    HoldRelease,
    Release,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cma import CMAKernel
    from repro.sim.engine import SimProcess

__all__ = ["XpmemSegment", "XpmemKernel"]

#: errno raised per injected errno-kind fault (mirrors faults.KIND_ERRNO;
#: kept local so the kernel layer never imports repro.faults — circular
#: through the package __init__ — same idiom as cma._INJECT_ERRNO).
_INJECT_ERRNO = {
    "eperm": EPERM,
    "enoent": ENOENT,
    "esrch": ESRCH,
    "efault": EFAULT,
    "eintr": EINTR,
}

#: first segid handed out (recognisably XPMEM-ish in hex dumps)
_SEGID_BASE = 0x5E60_0000


class XpmemSegment:
    """An exported region, addressable by segid."""

    __slots__ = ("segid", "owner_pid", "addr", "nbytes", "npages")

    def __init__(self, segid: int, owner_pid: int, addr: int, nbytes: int,
                 npages: int):
        self.segid = segid
        self.owner_pid = owner_pid
        self.addr = addr
        self.nbytes = nbytes
        self.npages = npages


class XpmemKernel:
    """Node-wide mapped-window engine layered on the shared CMA machinery.

    Unlike :class:`~repro.kernel.knem.KnemKernel` it does **not** delegate
    its data path to ``process_vm_rw`` — the whole point is a different
    steady-state cost model — but it shares the CMA kernel's address
    spaces, mm locks, sockets, permission set and fault state, so the two
    lanes see one consistent node.
    """

    def __init__(self, cma: "CMAKernel"):
        self.cma = cma
        self._segids: dict[int, XpmemSegment] = {}
        #: (owner_pid, addr, nbytes) -> segid: make_segid is idempotent,
        #: re-exporting an identical region returns the existing segid free
        self._by_region: dict[tuple[int, int, int], int] = {}
        self._segid_counter = itertools.count(_SEGID_BASE)
        #: (owner_pid, attacher_pid) pairs whose map cost has been charged
        self._mapped: set[tuple[int, int]] = set()
        #: per mapped pair, the set of global page indices faulted in
        self._faulted: dict[tuple[int, int], set[int]] = {}
        self.attaches = 0
        self.maps_charged = 0
        self.page_faults = 0
        self.reads = 0
        self.writes = 0

    def reset(self) -> None:
        """Forget every segment, mapping and fault-in (address-space reset).

        A warm node's buffers come back at the same virtual addresses but
        they are *new* mappings — stale segids must dangle (ENOENT) and
        attach caches above must repopulate — so everything goes, and the
        segid counter restarts so a warm run mints the same ids a fresh
        node would (segids flow into control messages: bit-exactness).
        """
        self._segids.clear()
        self._by_region.clear()
        self._segid_counter = itertools.count(_SEGID_BASE)
        self._mapped.clear()
        self._faulted.clear()
        self.attaches = 0
        self.maps_charged = 0
        self.page_faults = 0
        self.reads = 0
        self.writes = 0

    # -- export / attach ------------------------------------------------------

    def make_segid(
        self, owner: "SimProcess", addr: int, nbytes: int
    ) -> Generator:
        """Owner exports [addr, addr+nbytes); returns the segid.

        Idempotent per exact region: a repeat export returns the existing
        segid at zero cost (the real xpmem_make of an already-exported
        range is a refcount bump).  Costs ``t_xpmem_make`` on creation.
        """
        if nbytes <= 0:
            raise CMAError(EINVAL, f"segment size must be positive, got {nbytes}")
        existing = self._by_region.get((owner.pid, addr, nbytes))
        if existing is not None:
            return existing
        # validate the region resolves in the owner's space (EFAULT)
        self.cma.manager.get(owner.pid).resolve(addr, nbytes)
        fs = self.cma.faults
        scale = 1.0
        if fs is not None:
            fs.raise_if("make", owner.pid, owner.pid)
            scale = fs.scale(owner.pid)
        p = self.cma.params
        tracer = self.cma.tracer
        t0 = self.cma.sim.now
        yield Delay(p.t_xpmem_make if scale == 1.0 else p.t_xpmem_make * scale)
        if tracer.enabled:
            tracer.record(owner.name, "xmake", t0, self.cma.sim.now, meta=nbytes)
        ps = p.page_size
        npages = (addr + nbytes - 1) // ps - addr // ps + 1
        segid = next(self._segid_counter)
        self._segids[segid] = XpmemSegment(segid, owner.pid, addr, nbytes, npages)
        self._by_region[(owner.pid, addr, nbytes)] = segid
        return segid

    def attach(self, caller: "SimProcess", segid: int) -> Generator:
        """Map an exported segment into the caller; returns the segment.

        The first attach of a pair charges the proportional map cost
        ``t_xpmem_attach + npages * t_xpmem_page``; later attaches of the
        same (owner, attacher) pair cost the fixed lookup only.  All
        checks (stale segid, dead owner, denial, injected errnos) precede
        any charged time, identically in traced and untraced runs.
        """
        seg = self._segids.get(segid)
        if seg is None:
            raise CMAError(ENOENT, f"stale segid {segid:#x}")
        self.cma.manager.get(seg.owner_pid)  # raises ESRCH
        if seg.owner_pid in self.cma.denied_pids:
            raise CMAError(EPERM, f"xpmem access to pid {seg.owner_pid} denied")
        fs = self.cma.faults
        scale = 1.0
        if fs is not None:
            fault = fs.draw("attach", seg.owner_pid, caller.pid)
            if fault is not None and fault.kind in _INJECT_ERRNO:
                raise CMAError(
                    _INJECT_ERRNO[fault.kind],
                    f"injected {fault.kind} at attach(segid={segid:#x})",
                )
            scale = fs.scale(caller.pid)
        p = self.cma.params
        tracer = self.cma.tracer
        pair = (seg.owner_pid, caller.pid)
        cold = pair not in self._mapped
        t_fix = p.t_xpmem_attach if scale == 1.0 else p.t_xpmem_attach * scale
        if cold:
            t_map = seg.npages * p.t_xpmem_page
            if scale != 1.0:
                t_map *= scale
            if tracer.enabled:
                t0 = self.cma.sim.now
                yield Delay(t_fix)
                tracer.record(caller.name, "xattach", t0, self.cma.sim.now,
                              meta=seg.owner_pid)
                t1 = self.cma.sim.now
                yield Delay(t_map)
                tracer.record(caller.name, "xmap", t1, self.cma.sim.now,
                              meta=seg.npages)
            else:
                # Fused: same two heap events/timestamps as the traced pair
                # of Delays, one generator resumption.
                yield DelayChain(t_fix, t_map)
            self._mapped.add(pair)
            self._faulted[pair] = set()
            self.maps_charged += 1
        else:
            t0 = self.cma.sim.now
            yield Delay(t_fix)
            if tracer.enabled:
                tracer.record(caller.name, "xattach", t0, self.cma.sim.now,
                              meta=seg.owner_pid)
        self.attaches += 1
        return seg

    # -- the data path --------------------------------------------------------

    def copy_from(
        self,
        caller: "SimProcess",
        segid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Read through a mapped window into the caller.  Returns bytes."""
        return self._copy(caller, segid, local, remote, write=False)

    def copy_to(
        self,
        caller: "SimProcess",
        segid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Write the caller's memory through a mapped window.  Returns bytes."""
        return self._copy(caller, segid, local, remote, write=True)

    def _copy(
        self,
        caller: "SimProcess",
        segid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
        write: bool,
    ) -> Generator:
        """One mapped-window transfer: fault in new pages, then copy.

        ``remote`` addresses live in the *owner's* address space (the
        window is a shared mapping, so no translation is modelled).  The
        copy itself never touches the owner's mm lock; only first-touch
        pages do, one one-page hold each — so a cold window still convoys,
        a warm one is a pure delay.  All checks precede any charged time,
        identically in both paths (``partial`` faults cannot fire here:
        a mapped-window memcpy has no short-count failure mode).
        """
        if local[1] < 0 or remote[1] < 0:
            raise CMAError(EINVAL, "negative transfer length")
        seg = self._segids.get(segid)
        if seg is None:
            raise CMAError(ENOENT, f"stale segid {segid:#x}")
        pair = (seg.owner_pid, caller.pid)
        if pair not in self._mapped:
            raise CMAError(EINVAL, f"segid {segid:#x} not attached")
        owner_space = self.cma.manager.get(seg.owner_pid)  # raises ESRCH
        fs = self.cma.faults
        scale = 1.0
        if fs is not None:
            fault = fs.draw("xcopy", seg.owner_pid, caller.pid)
            if fault is not None and fault.kind in _INJECT_ERRNO:
                raise CMAError(
                    _INJECT_ERRNO[fault.kind],
                    f"injected {fault.kind} at xcopy(segid={segid:#x})",
                )
            scale = fs.scale(caller.pid)
        ncopy = min(local[1], remote[1])
        if ncopy == 0:
            return 0
        if not (seg.addr <= remote[0] and remote[0] + ncopy <= seg.addr + seg.nbytes):
            raise CMAError(
                EFAULT,
                f"[{remote[0]:#x}, {remote[0] + ncopy:#x}) outside "
                f"segid {segid:#x}",
            )

        p = self.cma.params
        ps = p.page_size
        first = remote[0] // ps
        last = (remote[0] + ncopy - 1) // ps
        fset = self._faulted[pair]
        newp = [pg for pg in range(first, last + 1) if pg not in fset]
        beta = self.cma.copy_beta(caller, seg.owner_pid)
        copy_time = p.t_xpmem_copy + ncopy * beta
        if scale != 1.0:
            copy_time *= scale
        mm = self.cma.mm_lock(seg.owner_pid)
        tracer = self.cma.tracer

        if tracer.enabled:
            # Traced: per-page lock/fault spans (the cold-attach storm is
            # visible in the ftrace-style breakdown), then the pin-free copy.
            for _pg in newp:
                t_req = self.cma.sim.now
                yield Acquire(mm.mutex)
                t_got = self.cma.sim.now
                hold = mm.hold_time(1, caller)
                yield Delay(hold)
                yield Release(mm.mutex)
                tracer.record(caller.name, "lock", t_req, t_got, meta=seg.owner_pid)
                tracer.record(caller.name, "fault", t_got, t_got + hold, meta=1)
                mm.pages_pinned += 1
            t3 = self.cma.sim.now
            yield Delay(copy_time)
            tracer.record(caller.name, "copy", t3, self.cma.sim.now, meta=ncopy)
        elif newp and self.cma.sim.use_pin_convoy:
            # Fused cold-copy fast path: the per-page fault-in convoy with
            # the pin-free copy riding as the convoy's tail — one command,
            # same timeline as the unfused loop + trailing Delay
            # (copy_time > 0 always: t_xpmem_copy is a positive constant).
            yield FaultConvoy(
                mm.mutex, mm.hold_time, [(1, 0.0)] * len(newp),
                mm=mm, npages=len(newp), memo=mm._hold_memo,
                tail_dt=copy_time,
            )
        else:
            # Unfused untraced reference path (and the warm steady state,
            # where there is nothing to fault and the copy is one Delay —
            # the mm lock is never touched).
            for _pg in newp:
                yield Acquire(mm.mutex)
                hold = mm.hold_time(1, caller)
                yield HoldRelease(mm.mutex, hold)
                mm.pages_pinned += 1
            yield Delay(copy_time)

        if newp:
            fset.update(newp)
            self.page_faults += len(newp)
        if self.cma.verify:
            caller_space = self.cma.manager.get(caller.pid)
            if write:
                copy_iov_bytes(caller_space, [local], owner_space,
                               [(remote[0], ncopy)], ncopy)
            else:
                copy_iov_bytes(owner_space, [(remote[0], ncopy)], caller_space,
                               [local], ncopy)
        if write:
            self.writes += 1
        else:
            self.reads += 1
        return ncopy
