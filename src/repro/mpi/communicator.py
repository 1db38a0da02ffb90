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
from typing import Any, Callable, Generator, Optional

from repro.kernel import AddressSpaceManager, Buffer, CMAKernel, XpmemKernel
from repro.machine.arch import Architecture
from repro.shm import ShmTransport
from repro.shm import collectives as smc
from repro.sim import Simulator
from repro.sim.engine import SimProcess

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
    ):
        self.arch = arch
        self.verify = verify
        self.sim = sim if sim is not None else Simulator()
        self.manager = AddressSpaceManager(arch.params.page_size)
        self.cma = CMAKernel(self.sim, self.manager, arch.params, verify=verify)
        #: mapped-window lane, sharing the CMA kernel's spaces and locks
        self.xpmem = XpmemKernel(self.cma)

    def reset(self) -> None:
        """Return the node to fresh-construction state, keeping structure.

        The engine restarts its clock/sequence stream, and the kernel
        resets counters (phase times included), mm locks and address-space
        contents (every buffer is unmapped and its bytes dropped; an
        unverified run's buffers are address ranges only and never had
        any) — but registered pids survive, which is the whole point of
        warm reuse.
        """
        self.sim.reset()
        self.cma.reset()
        # Address spaces were just reset, so every exported segment and
        # mapped window dangles: drop them all (stale segids must ENOENT).
        self.xpmem.reset()

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
        #: (caller_rank, segid) pairs already attached — the MPI-layer
        #: attach cache: mapped windows are reused across collective calls
        #: on this communicator, and invalidated wholesale on reset (the
        #: address-space reset dangles every segid).
        self._xpmem_attached: dict[tuple[int, int], bool] = {}

    def reset(self) -> None:
        """Reset per-run transport state and the op-sequence counters.

        Must be paired with :meth:`Node.reset` — the shm mailboxes hold
        engine-scheduled state, and op counters feed message tags.
        """
        self.shm.reset()
        self._op_counters = [itertools.count() for _ in range(self.size)]
        self._xpmem_attached.clear()

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
        """Read ``remote`` of ``src_rank`` into my ``local``."""
        return self.cma.read_simple(self.proc, self.pid_of(src_rank), local, remote)

    def cma_readv(
        self,
        src_rank: int,
        local: list[tuple[int, int]],
        remote: list[tuple[int, int]],
    ) -> Generator:
        """Multi-iovec :meth:`cma_read`: one ``process_vm_readv`` of the
        ``remote`` iovec list into the ``local`` one."""
        return self.cma.process_vm_readv(
            self.proc, self.pid_of(src_rank), local, remote
        )

    def cma_write(
        self, dst_rank: int, local: tuple[int, int], remote: tuple[int, int]
    ) -> Generator:
        """Write my ``local`` into ``remote`` of ``dst_rank``."""
        return self.cma.write_simple(self.proc, self.pid_of(dst_rank), local, remote)

    # -- mapped-window (xpmem) shortcuts ---------------------------------------

    def xpmem_expose(self, local: tuple[int, int]) -> Generator:
        """Export my ``(addr, nbytes)`` range; returns the segid."""
        return self.xpmem.make_segid(self.proc, local[0], local[1])

    def xpmem_read(
        self,
        src_rank: int,
        segid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Read ``remote`` of ``src_rank`` through its mapped window.

        Attaches on first use per (rank, segid) — the communicator-level
        attach cache makes later collectives on this comm reuse the
        window.
        """
        return self._xpmem_rw(segid, local, remote, write=False)

    def xpmem_write(
        self,
        dst_rank: int,
        segid: int,
        local: tuple[int, int],
        remote: tuple[int, int],
    ) -> Generator:
        """Write my ``local`` through ``dst_rank``'s mapped window."""
        return self._xpmem_rw(segid, local, remote, write=True)

    def _xpmem_rw(
        self,
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
