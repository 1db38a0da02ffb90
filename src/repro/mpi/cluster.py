"""Multi-node cluster: several simulated nodes on one clock plus a fabric.

Used by the simulation-backed version of the paper's Section VII-G
experiment (Fig. 17): the analytic :mod:`repro.core.multinode` model is
validated against actual discrete-event runs of flat vs. two-level Gather
on a :class:`Cluster`.

Fabric model (EDR IB / Omni-Path class, alpha-beta with endpoint
serialization):

* **TX**: a sender serializes on its node's NIC (a mutex) for
  ``alpha_net + nbytes * net_beta`` of wire time.
* **RX**: messages land in the destination rank's network mailbox; the
  receiver pays a per-message *matching* cost proportional to how many
  messages are queued when it posts the receive (the unexpected-queue
  traversal every real MPI pays), plus the copy-out of the payload.

Within a node everything is the usual machinery: each node owns its own
address spaces, CMA kernel and shm transport; only the fabric is shared.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.machine.arch import Architecture
from repro.mpi.communicator import Comm, Node, RankCtx
from repro.sim import Mailbox, Recv, Send, Simulator
from repro.sim.engine import Acquire, Delay, Release
from repro.sim.resources import Mutex

__all__ = ["Cluster", "net_send", "net_recv"]


class Cluster:
    """``nodes`` identical machines sharing one virtual clock and a fabric."""

    def __init__(
        self,
        arch_factory,
        nodes: int,
        ppn: int,
        verify: bool = True,
    ):
        if nodes < 1 or ppn < 1:
            raise ValueError("need at least one node and one rank per node")
        self.sim = Simulator()
        self.nodes_count = nodes
        self.ppn = ppn
        self.verify = verify
        self.nodes: list[Node] = []
        self.comms: list[Comm] = []
        for n in range(nodes):
            node = Node(arch_factory(), verify=verify, sim=self.sim)
            comm = Comm(
                node, ppn, pid_base=20_000 + n * 1000, name_prefix=f"n{n}r"
            )
            self.nodes.append(node)
            self.comms.append(comm)
        # fabric: one TX NIC lock per node, one network mailbox per rank
        self._nics = [Mutex(self.sim, name=f"nic[{n}]") for n in range(nodes)]
        self._net_boxes = {
            g: Mailbox(self.sim, owner=g) for g in range(nodes * ppn)
        }
        self.net_messages = 0

    # -- rank addressing --------------------------------------------------------

    @property
    def world_size(self) -> int:
        return self.nodes_count * self.ppn

    def node_of(self, global_rank: int) -> int:
        return global_rank // self.ppn

    def local_of(self, global_rank: int) -> int:
        return global_rank % self.ppn

    def global_rank(self, node: int, local: int) -> int:
        return node * self.ppn + local

    def leader_of(self, node: int) -> int:
        """Node leaders are local rank 0 (the paper's two-level design)."""
        return self.global_rank(node, 0)

    def comm_of(self, global_rank: int) -> Comm:
        return self.comms[self.node_of(global_rank)]

    def net_box(self, global_rank: int) -> Mailbox:
        return self._net_boxes[global_rank]

    def nic(self, node: int) -> Mutex:
        return self._nics[node]

    # -- execution ----------------------------------------------------------------

    def spawn_global(self, global_rank: int, fn, **ctx_kw):
        """Spawn ``fn(ctx)`` as a global rank on its home node's comm.

        The RankCtx is the node-local one (local rank ids); the cluster and
        global rank ride along in ``ctx.extras``.
        """
        comm = self.comm_of(global_rank)
        return comm.spawn_rank(
            self.local_of(global_rank),
            fn,
            cluster=self,
            grank=global_rank,
            **ctx_kw,
        )

    def run_world(self, fn, **ctx_kw):
        procs = [
            self.spawn_global(g, fn, **ctx_kw) for g in range(self.world_size)
        ]
        self.sim.run_all(procs)
        return procs


# ---------------------------------------------------------------------------
# fabric primitives (generators, driven by rank processes)
# ---------------------------------------------------------------------------


def net_send(
    ctx: RankCtx,
    dst_grank: int,
    tag: Any,
    buf,
    offset: int = 0,
    nbytes: Optional[int] = None,
) -> Generator:
    """Push ``nbytes`` over the wire to a global rank (TX-serialized)."""
    cluster: Cluster = ctx.extras["cluster"]
    me: int = ctx.extras["grank"]
    if nbytes is None:
        nbytes = buf.nbytes - offset
    p = ctx.params
    nic = cluster.nic(cluster.node_of(me))
    yield Acquire(nic)
    yield Delay(p.alpha_net + nbytes * p.net_beta)
    yield Release(nic)
    payload = None
    if cluster.verify and buf is not None:
        payload = buf.read(offset, nbytes)
    cluster.net_messages += 1
    yield Send(
        cluster.net_box(dst_grank),
        src=me,
        tag=tag,
        payload=(payload, nbytes),
        latency=0.0,
    )
    return nbytes


def net_recv(
    ctx: RankCtx,
    src_grank: int,
    tag: Any,
    buf,
    offset: int = 0,
    nbytes: Optional[int] = None,
) -> Generator:
    """Receive a fabric message: matching cost scales with the queue depth
    at post time (the unexpected-message traversal), then copy out."""
    cluster: Cluster = ctx.extras["cluster"]
    me: int = ctx.extras["grank"]
    if nbytes is None:
        nbytes = buf.nbytes - offset
    box = cluster.net_box(me)
    backlog = box.pending
    p = ctx.params
    if backlog:
        yield Delay(p.t_match * backlog)
    msg = yield Recv(box, src=src_grank, tag=tag)
    payload, n = msg.payload
    n = min(n, nbytes)
    yield Delay(n * p.net_beta)  # RX copy-out, serialized at the receiver
    if cluster.verify and buf is not None and payload is not None:
        buf.write(offset, payload, n)
    return n
