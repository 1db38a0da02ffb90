"""Simulation-backed multi-node Gather: flat vs two-level (Section VII-G).

This module runs the Fig. 17 experiment on a real :class:`~repro.mpi.cluster.Cluster`
— every byte crosses the simulated fabric and intra-node CMA, and the
gathered result is verified on the global root — validating the analytic
:mod:`repro.core.multinode` model's story with discrete-event dynamics.

* ``flat_gather`` — the traditional single-level design: every remote rank
  fires its block at the global root over the fabric (the root's NIC and
  matching queue serialize all of it); root-node ranks use a node-local
  gather.
* ``two_level_gather`` — the paper's design: node leaders run the
  contention-aware intra-node Gather *in parallel across nodes*, then the
  nodes-1 leaders push one aggregated message each.

Both return the completion time and, with ``verify=True``, check that the
root holds every global rank's block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import gather as _gather
from repro.core.patterns import expect_runs, pattern_runs
from repro.mpi.cluster import Cluster, net_recv, net_send

__all__ = ["MultiNodeGatherResult", "flat_gather", "two_level_gather"]


@dataclass
class MultiNodeGatherResult:
    latency_us: float
    nodes: int
    ppn: int
    eta: int
    net_messages: int


def _fill_sendbufs(cluster: Cluster, eta: int) -> list:
    """Per-global-rank operand buffers carrying the verification pattern."""
    bufs = []
    for g in range(cluster.world_size):
        comm = cluster.comm_of(g)
        buf = comm.allocate(cluster.local_of(g), eta, "mn-send")
        if cluster.verify:
            buf.write(0, pattern_runs(g, 0, eta))
        bufs.append(buf)
    return bufs


def _verify_root(rootbuf, world: int, eta: int) -> None:
    for g in range(world):
        expect_runs(
            rootbuf, g * eta, pattern_runs(g, 0, eta),
            "multi-node gather: root's block from global rank {}", g,
        )


def flat_gather(
    cluster: Cluster, eta: int, throttle_k: Optional[int] = None
) -> MultiNodeGatherResult:
    """Single-level gather: all remote ranks send straight to global rank 0.

    Root-node ranks contribute through a node-local throttled gather (so
    the intra-node part is not the bottleneck being measured); every
    remote rank's block is a separate fabric message.
    """
    world = cluster.world_size
    ppn = cluster.ppn
    k = throttle_k or min(8, max(ppn - 1, 1))
    sendbufs = _fill_sendbufs(cluster, eta)
    root_comm = cluster.comms[0]
    rootbuf = root_comm.allocate(0, world * eta, "mn-recv")
    local_part = root_comm.allocate(0, ppn * eta, "mn-local")

    def rank_fn(ctx):
        g = ctx.extras["grank"]
        node = cluster.node_of(g)
        if node == 0:
            # node-local gather into a staging area of the root
            ctx.sendbuf = sendbufs[g]
            ctx.recvbuf = local_part if ctx.rank == 0 else None
            ctx.root, ctx.eta = 0, eta
            if ppn > 1:
                yield from _gather.throttled_write(ctx, k=min(k, ppn - 1))
            else:
                yield from ctx.memcpy(local_part, 0, sendbufs[g], 0, eta)
            if ctx.rank == 0:
                yield from ctx.memcpy(rootbuf, 0, local_part, 0, ppn * eta)
                # drain (nodes-1)*ppn remote blocks, in arrival order by rank
                for src in range(ppn, world):
                    yield from net_recv(
                        ctx, src, ("flat", src), rootbuf,
                        offset=src * eta, nbytes=eta,
                    )
        else:
            yield from net_send(ctx, 0, ("flat", g), sendbufs[g], nbytes=eta)

    procs = cluster.run_world(rank_fn)
    if cluster.verify:
        _verify_root(rootbuf, world, eta)
    return MultiNodeGatherResult(
        latency_us=max(p.finish_time for p in procs),
        nodes=cluster.nodes_count,
        ppn=ppn,
        eta=eta,
        net_messages=cluster.net_messages,
    )


def two_level_gather(
    cluster: Cluster, eta: int, throttle_k: Optional[int] = None
) -> MultiNodeGatherResult:
    """The paper's hierarchical design: leader gathers run in parallel on
    every node, then one aggregated message per remote node."""
    world = cluster.world_size
    ppn = cluster.ppn
    k = throttle_k or min(8, max(ppn - 1, 1))
    sendbufs = _fill_sendbufs(cluster, eta)
    root_comm = cluster.comms[0]
    rootbuf = root_comm.allocate(0, world * eta, "mn-recv")
    leader_bufs = {
        n: cluster.comms[n].allocate(0, ppn * eta, "mn-lead")
        for n in range(cluster.nodes_count)
    }

    def rank_fn(ctx):
        g = ctx.extras["grank"]
        node = cluster.node_of(g)
        ctx.sendbuf = sendbufs[g]
        ctx.recvbuf = leader_bufs[node] if ctx.rank == 0 else None
        ctx.root, ctx.eta = 0, eta
        if ppn > 1:
            yield from _gather.throttled_write(ctx, k=min(k, ppn - 1))
        else:
            yield from ctx.memcpy(leader_bufs[node], 0, sendbufs[g], 0, eta)
        if ctx.rank != 0:
            return
        if node == 0:
            yield from ctx.memcpy(rootbuf, 0, leader_bufs[0], 0, ppn * eta)
            for n in range(1, cluster.nodes_count):
                yield from net_recv(
                    ctx, cluster.leader_of(n), ("2lvl", n), rootbuf,
                    offset=n * ppn * eta, nbytes=ppn * eta,
                )
        else:
            yield from net_send(
                ctx, 0, ("2lvl", node), leader_bufs[node], nbytes=ppn * eta
            )

    procs = cluster.run_world(rank_fn)
    if cluster.verify:
        _verify_root(rootbuf, world, eta)
    return MultiNodeGatherResult(
        latency_us=max(p.finish_time for p in procs),
        nodes=cluster.nodes_count,
        ppn=ppn,
        eta=eta,
        net_messages=cluster.net_messages,
    )
