"""Node and communicator: the runtime the collective algorithms execute on.

A :class:`Node` is one simulated machine.  A :class:`Comm` pins ``p`` ranks
onto it, creates their address spaces, and — exactly like the paper's
design — exchanges the local-rank-to-PID mapping once at initialisation so
CMA calls can be issued without per-operation PID discovery.

Per-rank state during a collective lives in a :class:`RankCtx`, which is
what algorithm generators receive: rank ids, buffers, the CMA kernel, the
shm transport, and a per-rank collective sequence number (all ranks call
collectives in the same order, so equal counters identify one operation).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.kernel import (
    AddressSpaceManager,
    Buffer,
    CMAKernel,
    XpmemKernel,
    iovec_total,
)
from repro.kernel.address_space import _iov_pieces, _iov_skip
from repro.kernel.errors import CMAError, EFAULT, EINTR, ENOENT, EPERM, ESRCH
from repro.machine.arch import Architecture
from repro.shm import ShmTransport
from repro.shm import collectives as smc
from repro.sim import Simulator
from repro.sim.engine import Join, SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan, FaultState

__all__ = ["Node", "Comm", "RankCtx"]


class Node:
    """One simulated machine: engine + kernel + transports.

    Pass an existing ``sim`` to place several nodes on one shared clock
    (the multi-node cluster does this); by default each node gets its own.
    """

    def __init__(
        self,
        arch: Architecture,
        verify: bool = True,
        sim: Optional[Simulator] = None,
        faults: Optional["FaultPlan"] = None,
    ):
        self.arch = arch
        self.verify = verify
        self.sim = sim if sim is not None else Simulator()
        self.manager = AddressSpaceManager(arch.params.page_size)
        self.cma = CMAKernel(self.sim, self.manager, arch.params, verify=verify)
        #: mapped-window lane, sharing the CMA kernel's spaces/locks/faults
        self.xpmem = XpmemKernel(self.cma)
        #: immutable fault plan (None = faults off, the default) and its
        #: per-run armed state; re-armed on every reset so a warm node
        #: replays identical injections.
        self.fault_plan = faults
        self.fault_state: Optional["FaultState"] = None
        if faults is not None:
            self.fault_state = faults.arm()
            self.cma.set_faults(self.fault_state)

    def reset(self) -> None:
        """Return the node to fresh-construction state, keeping structure.

        The engine restarts its clock/sequence stream, and the kernel
        resets counters (phase times included), mm locks and address-space
        contents (every buffer is unmapped and its bytes dropped; an
        unverified run's buffers are address ranges only and never had
        any) — but registered pids survive, which is the whole point of
        warm reuse.  A fault plan is re-armed from scratch: call counters
        and RNG streams restart, so a reset node injects the exact same
        faults a fresh one would.
        """
        self.sim.reset()
        self.cma.reset()
        # Address spaces were just reset, so every exported segment and
        # mapped window dangles: drop them all (stale segids must ENOENT).
        self.xpmem.reset()
        if self.fault_plan is not None:
            self.fault_state = self.fault_plan.arm()
            self.cma.set_faults(self.fault_state)

    @property
    def params(self):
        return self.arch.params

    def phase_times(self) -> dict[str, float]:
        """Simulated µs per kernel phase since the last reset, summed over
        every rank; phases that took no time are left out.

        The CMA phases of Fig. 4 (``syscall``, ``check``, ``lock``,
        ``pin``, ``copy``) and the mapped-window ones (``fault``,
        ``xmake``, ``xattach``, ``xmap``; their copies add to ``copy``)
        come from counters the kernels keep on every run.
        """
        times = self.cma.phase_times()
        xp = self.xpmem
        times["copy"] += xp.copy_us
        times["xmake"] = xp.make_us
        times["xattach"] = xp.attach_us
        times["xmap"] = xp.map_us
        return {phase: t for phase, t in times.items() if t}


class Comm:
    """``p`` ranks on one node, with the PID table pre-exchanged.

    ``pid_base``/``name_prefix`` keep ranks distinguishable when several
    nodes share one simulator (multi-node clusters).
    """

    def __init__(
        self,
        node: Node,
        size: int,
        pid_base: int = 20_000,
        name_prefix: str = "rank",
    ):
        if size < 1:
            raise ValueError("communicator needs at least 1 rank")
        self.node = node
        self.size = size
        self.name_prefix = name_prefix
        self.shm = ShmTransport(
            node.sim, node.params, size, verify=node.verify
        )
        self._pids: list[int] = []
        self._placements = []
        for rank in range(size):
            pid = pid_base + rank  # deterministic, mirrors MPI_Init exchange
            place = node.arch.placement(rank)
            node.cma.register(pid, socket=place.socket)
            self._pids.append(pid)
            self._placements.append(place)
        self._op_counters = [itertools.count() for _ in range(size)]
        #: per-(caller_rank, target_rank) CMA capability verdicts.  The
        #: first CMA attempt doubles as the probe: a permission-class
        #: failure (EPERM/ESRCH) caches False and every later transfer on
        #: that pair goes straight to the shm fallback — mirroring how MPI
        #: libraries probe CMA once per peer and remember the answer.
        self.cma_verdicts: dict[tuple[int, int], bool] = {}
        #: per-(caller_rank, target_rank) xpmem verdicts, same contract
        self.xpmem_verdicts: dict[tuple[int, int], bool] = {}
        #: (caller_rank, segid) pairs already attached — the MPI-layer
        #: attach cache: mapped windows are reused across collective calls
        #: on this communicator, and invalidated wholesale on reset (the
        #: address-space reset dangles every segid).
        self._xpmem_attached: dict[tuple[int, int], bool] = {}
        #: degraded-mode counters, surfaced on CollectiveResult
        self.fallbacks = 0
        self.retries = 0
        self._fb_seq = itertools.count()

    def reset(self) -> None:
        """Reset per-run transport state and the op-sequence counters.

        Must be paired with :meth:`Node.reset` — the shm mailboxes hold
        engine-scheduled state, and op counters feed message tags.
        """
        self.shm.reset()
        self._op_counters = [itertools.count() for _ in range(self.size)]
        self.cma_verdicts.clear()
        self.xpmem_verdicts.clear()
        self._xpmem_attached.clear()
        self.fallbacks = 0
        self.retries = 0
        self._fb_seq = itertools.count()

    @property
    def resilient(self) -> bool:
        """True when a fault plan is armed: CMA ops route through the
        retry/fallback ladder instead of the raw syscalls."""
        return self.node.fault_state is not None

    # -- identity ------------------------------------------------------------

    def pid_of(self, rank: int) -> int:
        """The PID table entry — known to every rank since init."""
        return self._pids[rank]

    def space_of(self, rank: int):
        return self.node.manager.get(self._pids[rank])

    def placement_of(self, rank: int):
        return self._placements[rank]

    # -- memory ----------------------------------------------------------------

    def allocate(self, rank: int, nbytes: int, name: str = "buf") -> Buffer:
        """Allocate in one rank's address space."""
        return self.space_of(rank).allocate(nbytes, name=f"r{rank}:{name}")

    # -- execution ---------------------------------------------------------------

    def spawn_rank(
        self, rank: int, fn: Callable[["RankCtx"], Generator], **ctx_kw
    ) -> SimProcess:
        """Run ``fn(ctx)`` as rank ``rank`` (correct pid + placement)."""
        ctx = RankCtx(self, rank, **ctx_kw)
        place = self._placements[rank]
        proc = self.node.sim.spawn(
            fn(ctx),
            name=f"{self.name_prefix}{rank}",
            pid=self._pids[rank],
            socket=place.socket,
            core=place.core,
        )
        ctx.proc = proc
        return proc

    def run_ranks(
        self, fn: Callable[["RankCtx"], Generator], **ctx_kw
    ) -> list[SimProcess]:
        """Spawn ``fn`` on every rank and run the node to completion."""
        procs = [self.spawn_rank(r, fn, **ctx_kw) for r in range(self.size)]
        self.node.sim.run_all(procs)
        return procs

    # -- degraded mode: CMA retry ladder + shm fallback -----------------------

    def robust_rw(
        self,
        ctx: "RankCtx",
        peer: int,
        local: list[tuple[int, int]],
        remote: list[tuple[int, int]],
        write: bool,
    ) -> Generator:
        """One resilient CMA transfer: probe/retry, then shm fallback.

        ``local``/``remote`` are iovec lists, read as two byte streams
        (a single range is the one-element case).  The MPI-style error
        ladder (only active when a fault plan is armed; the fault-free
        path never enters this function):

        * ``EINTR`` — re-issue the call (bounded by the plan's
          ``max_attempts``);
        * a *short* count — resume at the iovec and offset where the copy
          stopped, again bounded by ``max_attempts``;
        * ``EPERM``/``ESRCH`` — permission-class: cache a False verdict
          for this (caller, target) pair and fall back;
        * ``EFAULT`` — fall back for this operation only (the pair's
          verdict survives: another buffer may be fine);
        * anything else (``EINVAL``...) — a programming error, re-raised.

        The fallback moves the remaining bytes over the two-copy shm
        transport, so the collective always completes with correct
        buffers; no kernel exception escapes to the simulator.
        """
        state = self.node.fault_state
        max_attempts = state.plan.max_attempts if state is not None else 1
        pid = self._pids[peer]
        cma = self.node.cma
        fn = cma.process_vm_writev if write else cma.process_vm_readv
        want = min(iovec_total(local), iovec_total(remote))
        if want <= 0:
            return (yield from fn(ctx.proc, pid, local, remote))
        pair = (ctx.rank, peer)
        done = 0
        if self.cma_verdicts.get(pair, True):
            attempts = 0
            while attempts < max_attempts:
                attempts += 1
                try:
                    got = yield from fn(
                        ctx.proc, pid, _iov_skip(local, done),
                        _iov_skip(remote, done),
                    )
                except CMAError as exc:
                    if exc.errno == EINTR:
                        self.retries += 1
                        continue
                    if exc.errno in (EPERM, ESRCH):
                        self.cma_verdicts[pair] = False
                        break
                    if exc.errno == EFAULT:
                        break
                    raise
                done += got
                if done >= want:
                    return want
                self.retries += 1  # short transfer: resume from offset
        if done < want:
            self.fallbacks += 1
            for lo, ro, n in _iov_pieces(local, remote, done, want - done):
                yield from self._fallback_transfer(
                    ctx, peer, (lo, n), (ro, n), write
                )
        return want

    def robust_expose(self, ctx: "RankCtx", local: tuple[int, int]) -> Generator:
        """Resilient ``xpmem_make``: EINTR retries, then give up with None.

        Injections are per-call draws, so retrying a failed export can
        genuinely succeed.  A None segid tells the peers' transfers to go
        straight to the shm fallback — the collective still completes.
        """
        state = self.node.fault_state
        max_attempts = state.plan.max_attempts if state is not None else 1
        attempts = 0
        while attempts < max_attempts:
            attempts += 1
            try:
                segid = yield from self.node.xpmem.make_segid(
                    ctx.proc, local[0], local[1]
                )
                return segid
            except CMAError as exc:
                if exc.errno == EINTR:
                    self.retries += 1
                    continue
                if exc.errno in (EPERM, ESRCH, EFAULT, ENOENT):
                    break
                raise
        return None

    def robust_xpmem(
        self,
        ctx: "RankCtx",
        peer: int,
        segid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
        write: bool,
    ) -> Generator:
        """One resilient mapped-window transfer: attach + copy, then fallback.

        The degrade ladder, mirroring :meth:`robust_rw`:

        * ``EINTR`` — re-issue (bounded by the plan's ``max_attempts``);
        * ``ENOENT`` — stale segid: invalidate the attach-cache entry and
          retry, so the next attempt re-attaches before copying;
        * ``EPERM``/``ESRCH`` — permission-class: cache a False xpmem
          verdict for the pair and fall back;
        * ``EFAULT`` — fall back for this operation only;
        * anything else — a programming error, re-raised.

        No short counts here: a mapped-window copy is a memcpy, it either
        completes or raises, so there is no resume-from-offset arm.
        """
        state = self.node.fault_state
        max_attempts = state.plan.max_attempts if state is not None else 1
        want = min(local[1], remote[1])
        pair = (ctx.rank, peer)
        key = (ctx.rank, segid)
        cache = self._xpmem_attached
        xp = self.node.xpmem
        if self.xpmem_verdicts.get(pair, True):
            attempts = 0
            while attempts < max_attempts:
                attempts += 1
                try:
                    if key not in cache:
                        yield from xp.attach(ctx.proc, segid)
                        cache[key] = True
                    fn = xp.copy_to if write else xp.copy_from
                    yield from fn(ctx.proc, segid, local, remote)
                    return want
                except CMAError as exc:
                    if exc.errno == EINTR:
                        self.retries += 1
                        continue
                    if exc.errno == ENOENT:
                        cache.pop(key, None)
                        self.retries += 1
                        continue
                    if exc.errno in (EPERM, ESRCH):
                        self.xpmem_verdicts[pair] = False
                        break
                    if exc.errno == EFAULT:
                        break
                    raise
        self.fallbacks += 1
        yield from self._fallback_transfer(
            ctx, peer, (local[0], want), (remote[0], want), write
        )
        return want

    def _fallback_transfer(
        self,
        ctx: "RankCtx",
        peer: int,
        local: tuple[int, int],
        remote: tuple[int, int],
        write: bool,
    ) -> Generator:
        """Move ``local``/``remote`` bytes via the two-copy shm path.

        CMA is one-sided — the peer is passive — so the fallback spawns a
        helper process with the *peer's* identity (pid/socket/core) to
        drive its side of the chunked transfer, then joins it.  Tags are
        sequence-numbered so concurrent fallbacks never cross-match.
        """
        n = min(local[1], remote[1])
        me = ctx.rank
        tag = ("cma-fb", me, peer, next(self._fb_seq))
        mine = theirs = None
        if self.node.verify:
            mine = self.space_of(me).resolve(local[0], n)
            theirs = self.space_of(peer).resolve(remote[0], n)
        place = self._placements[peer]
        shm = self.shm
        peer_gen = (
            shm.recv_data(peer, me, tag, theirs, n)
            if write
            else shm.send_data(peer, me, tag, theirs, n)
        )
        helper = self.node.sim.spawn(
            peer_gen,
            name=f"{self.name_prefix}{peer}:cma-fb",
            pid=self._pids[peer],
            socket=place.socket,
            core=place.core,
        )
        if write:
            yield from shm.send_data(me, peer, tag, mine, n)
        else:
            yield from shm.recv_data(me, peer, tag, mine, n)
        yield Join(helper)
        return n


class RankCtx:
    """Everything one rank sees while executing a collective."""

    def __init__(self, comm: Comm, rank: int, **extras: Any):
        self.comm = comm
        self.rank = rank
        self.size = comm.size
        self.node = comm.node
        self.sim = comm.node.sim
        self.cma = comm.node.cma
        self.xpmem = comm.node.xpmem
        self.shm = comm.shm
        self.params = comm.node.params
        self.topology = comm.node.arch.topology
        self.proc: Optional[SimProcess] = None
        # collective arguments, filled by the runner:
        self.root: int = extras.pop("root", 0)
        self.eta: int = extras.pop("eta", 0)
        self.sendbuf: Optional[Buffer] = extras.pop("sendbuf", None)
        self.recvbuf: Optional[Buffer] = extras.pop("recvbuf", None)
        self.in_place: bool = extras.pop("in_place", False)
        self.extras = extras

    # -- identity helpers ------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return self.rank == self.root

    def pid_of(self, rank: int) -> int:
        return self.comm.pid_of(rank)

    def next_op(self) -> int:
        """Per-rank collective sequence number (identical across ranks
        because ranks invoke collectives in the same order)."""
        return next(self.comm._op_counters[self.rank])

    # -- shm control-plane shortcuts -----------------------------------------------

    def sm_bcast(self, op: Any, payload: Any = None, root: int = 0) -> Generator:
        return smc.sm_bcast(self.shm, self.rank, self.size, op, payload, root)

    def sm_gather(self, op: Any, value: Any = None, root: int = 0) -> Generator:
        return smc.sm_gather(self.shm, self.rank, self.size, op, value, root)

    def sm_allgather(self, op: Any, value: Any = None) -> Generator:
        return smc.sm_allgather(self.shm, self.rank, self.size, op, value)

    def sm_barrier(self, op: Any) -> Generator:
        return smc.sm_barrier(self.shm, self.rank, self.size, op)

    def ctrl_send(self, dst: int, tag: Any, payload: Any = None):
        return self.shm.ctrl_send(self.rank, dst, tag, payload)

    def ctrl_recv(self, src: Any, tag: Any):
        return self.shm.ctrl_recv(self.rank, src, tag)

    def spawn_helper(self, gen: Generator, name: str) -> SimProcess:
        """Run a sub-operation concurrently *as this rank* (same pid/socket).

        For flows one generator cannot interleave, such as the eager
        halves of :func:`~repro.mpi.pt2pt.p2p_sendrecv` (a rendezvous
        exchange runs in the rank's own generator).  The helper process
        shares the rank's identity so CMA contention accounting and
        address-space resolution stay correct.  Wait on it with ``Join``.
        """
        place = self.comm.placement_of(self.rank)
        return self.sim.spawn(
            gen,
            name=f"{self.comm.name_prefix}{self.rank}:{name}",
            pid=self.comm.pid_of(self.rank),
            socket=place.socket,
            core=place.core,
        )

    # -- CMA shortcuts ------------------------------------------------------------

    def cma_read(
        self, src_rank: int, local: tuple[int, int], remote: tuple[int, int]
    ) -> Generator:
        """Read ``remote`` of ``src_rank`` into my ``local``.

        With a fault plan armed this routes through the resilient ladder
        (:meth:`Comm.robust_rw`): EINTR retry, resume-from-offset on short
        counts, per-pair verdict caching, and shm fallback.  Fault-free
        runs return the raw syscall generator unchanged (bit-identical).
        """
        if self.comm.resilient:
            return self.comm.robust_rw(
                self, src_rank, [local], [remote], write=False
            )
        return self.cma.read_simple(self.proc, self.pid_of(src_rank), local, remote)

    def cma_readv(
        self,
        src_rank: int,
        local: list[tuple[int, int]],
        remote: list[tuple[int, int]],
    ) -> Generator:
        """Multi-iovec :meth:`cma_read`: one ``process_vm_readv`` of the
        ``remote`` iovec list into the ``local`` one (resilient under an
        armed fault plan, the raw syscall generator otherwise)."""
        if self.comm.resilient:
            return self.comm.robust_rw(self, src_rank, local, remote, write=False)
        return self.cma.process_vm_readv(
            self.proc, self.pid_of(src_rank), local, remote
        )

    def cma_write(
        self, dst_rank: int, local: tuple[int, int], remote: tuple[int, int]
    ) -> Generator:
        """Write my ``local`` into ``remote`` of ``dst_rank`` (resilient
        under an armed fault plan, exactly like :meth:`cma_read`)."""
        if self.comm.resilient:
            return self.comm.robust_rw(
                self, dst_rank, [local], [remote], write=True
            )
        return self.cma.write_simple(self.proc, self.pid_of(dst_rank), local, remote)

    # -- mapped-window (xpmem) shortcuts ---------------------------------------

    def xpmem_expose(self, local: tuple[int, int]) -> Generator:
        """Export my ``(addr, nbytes)`` range; returns the segid.

        Resilient mode retries EINTR and returns None when the export
        cannot be made — peers then route their transfers through the shm
        fallback (see :meth:`xpmem_read`).
        """
        if self.comm.resilient:
            return self.comm.robust_expose(self, local)
        return self.xpmem.make_segid(self.proc, local[0], local[1])

    def xpmem_read(
        self,
        src_rank: int,
        segid: Optional[int],
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Read ``remote`` of ``src_rank`` through its mapped window.

        Attaches on first use per (rank, segid) — the communicator-level
        attach cache makes later collectives on this comm reuse the
        window.  With a fault plan armed this routes through the
        resilient ladder (:meth:`Comm.robust_xpmem`); a None segid (a
        failed resilient export) goes straight to the shm fallback.
        """
        return self._xpmem_rw(src_rank, segid, local, remote, write=False)

    def xpmem_write(
        self,
        dst_rank: int,
        segid: Optional[int],
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Write my ``local`` through ``dst_rank``'s mapped window."""
        return self._xpmem_rw(dst_rank, segid, local, remote, write=True)

    def _xpmem_rw(
        self,
        peer: int,
        segid: Optional[int],
        local: tuple[int, int],
        remote: tuple[int, int],
        write: bool,
    ) -> Generator:
        if segid is None:
            # only reachable in resilient mode: the owner's export failed
            # after retries, so move the bytes over the two-copy shm path.
            return self._xpmem_fallback(peer, local, remote, write)
        if self.comm.resilient:
            return self.comm.robust_xpmem(self, peer, segid, local, remote, write)
        return self._xpmem_plain(peer, segid, local, remote, write)

    def _xpmem_plain(
        self,
        peer: int,
        segid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
        write: bool,
    ) -> Generator:
        cache = self.comm._xpmem_attached
        key = (self.rank, segid)
        if key not in cache:
            yield from self.xpmem.attach(self.proc, segid)
            cache[key] = True
        fn = self.xpmem.copy_to if write else self.xpmem.copy_from
        return (yield from fn(self.proc, segid, local, remote))

    def _xpmem_fallback(
        self,
        peer: int,
        local: tuple[int, int],
        remote: tuple[int, int],
        write: bool,
    ) -> Generator:
        self.comm.fallbacks += 1
        want = min(local[1], remote[1])
        yield from self.comm._fallback_transfer(
            self, peer, (local[0], want), (remote[0], want), write
        )
        return want

    def combine(
        self,
        dst: Buffer,
        dst_off: int,
        src: Buffer,
        src_off: int,
        nbytes: int,
    ) -> Generator:
        """Elementwise combine (modular uint8 sum): n * reduce_beta.

        The reduction operator used throughout the Reduce/Allreduce
        extension is addition mod 256 — commutative, associative, and
        exactly representable, so verification is bit-precise regardless
        of the combine order an algorithm uses.
        """
        from repro.sim import Delay

        yield Delay(nbytes * self.params.reduce_beta)
        if self.node.verify:
            dst.add(dst_off, src.read(src_off, nbytes))
        return nbytes

    # -- local memcpy ----------------------------------------------------------------

    def memcpy(
        self,
        dst: Buffer,
        dst_off: int,
        src: Buffer,
        src_off: int,
        nbytes: int,
    ) -> Generator:
        """Local copy (root copying its own block): n * memcpy_beta."""
        from repro.sim import Delay

        yield Delay(nbytes * self.params.memcpy_beta)
        if self.node.verify:
            dst.write(dst_off, src.read(src_off, nbytes))
        return nbytes
