"""All-to-all personalized: MPI_Alltoall (paper Section IV-C).

The pairwise exchange is contention-free by construction (each process is
read by exactly one peer per step), so the interesting comparison —
Figure 9 — is between three *implementations* of the same schedule:

* ``pairwise``        — native CMA collective: one address allgather up
  front, then p-1 direct reads.  No per-transfer RTS/CTS.
* ``pairwise_pt2pt``  — the same schedule over rendezvous point-to-point
  (3 control messages per transfer): how a library without native CMA
  collectives does it.
* ``pairwise_shm``    — the same schedule over the two-copy shared-memory
  path.

``bruck`` (lg p steps, extra copies) is included for completeness: the
paper notes it loses for the medium/large messages where CMA applies.

Buffer contract: ``sendbuf`` and ``recvbuf`` both pack p blocks densely in
rank order; on return ``recvbuf[i]`` is rank i's block for me (i.e. block
``rank`` of rank i's sendbuf).  Blocks are ``eta`` bytes each.  For
Alltoallv, ``pairwise`` takes a p x p ``counts`` matrix instead, from the
point's :class:`~repro.core.common.Blocks` layout: ``counts[s][d]`` is the
bytes rank s sends rank d, so rank r's sendbuf packs row r and its recvbuf
packs column r.  Zero-length blocks are never moved.  Skewed rows make
pairwise steps straggle, the V form's signature cost; the steps still
pair distinct ranks, so the mm locks never contend.
"""

from __future__ import annotations

from typing import Generator

from repro.core.common import blocks_of, is_power_of_two
from repro.mpi.communicator import RankCtx
from repro.mpi.pt2pt import p2p_sendrecv

__all__ = ["pairwise", "pairwise_pt2pt", "pairwise_shm", "bruck"]


def _self_copy(ctx: RankCtx) -> Generator:
    """recvbuf[rank] <- sendbuf[rank] (each process keeps its own block)."""
    yield from ctx.memcpy(
        ctx.recvbuf, ctx.rank * ctx.eta, ctx.sendbuf, ctx.rank * ctx.eta, ctx.eta
    )


def pairwise(ctx: RankCtx) -> Generator:
    """Native CMA pairwise exchange: T = T_allgather^sm + (p-1)(a + nB + l*n/s)."""
    blocks = blocks_of(ctx)
    p, rank = ctx.size, ctx.rank
    op = ctx.next_op()
    addrs = yield from ctx.sm_allgather(("a2a", op), ctx.sendbuf.addr)
    n, send_off, recv_off = blocks.pair(rank, rank)
    if n > 0:
        yield from ctx.memcpy(ctx.recvbuf, recv_off, ctx.sendbuf, send_off, n)
    pow2 = is_power_of_two(p)
    for step in range(1, p):
        # XOR pairs powers of two perfectly; otherwise (rank - step) mod p
        peer = rank ^ step if pow2 else (rank - step) % p
        # my block inside peer's sendbuf, and where it lands in mine
        n, send_off, recv_off = blocks.pair(peer, rank)
        if n > 0:
            yield from ctx.cma_read(
                peer, ctx.recvbuf.iov(recv_off, n), (addrs[peer] + send_off, n)
            )
    # nobody may reuse its sendbuf until every peer has read from it
    yield from ctx.sm_barrier(("a2a-fin", op))


def _pairwise_over_p2p(ctx: RankCtx, threshold: int) -> Generator:
    """The pairwise schedule expressed as sendrecv pairs over pt2pt."""
    op = ctx.next_op()
    yield from _self_copy(ctx)
    eta = ctx.eta
    pow2 = is_power_of_two(ctx.size)
    for step in range(1, ctx.size):
        if pow2:
            to = frm = ctx.rank ^ step
        else:
            to = (ctx.rank + step) % ctx.size
            frm = (ctx.rank - step) % ctx.size
        yield from p2p_sendrecv(
            ctx,
            to,
            ("a2a", op, step, ctx.rank),
            ctx.sendbuf,
            to * eta,
            frm,
            ("a2a", op, step, frm),
            ctx.recvbuf,
            frm * eta,
            eta,
            threshold,
        )


def pairwise_pt2pt(ctx: RankCtx) -> Generator:
    """Pairwise over rendezvous pt2pt: pays RTS/CTS/FIN per transfer."""
    yield from _pairwise_over_p2p(ctx, threshold=0)


def pairwise_shm(ctx: RankCtx) -> Generator:
    """Pairwise over the two-copy shared-memory path (the SHMEM baseline)."""
    yield from _pairwise_over_p2p(ctx, threshold=1 << 62)


def bruck(ctx: RankCtx) -> Generator:
    """Bruck's alltoall: ceil(lg p) steps moving ~p/2 blocks each.

    Staged in two ping-pong buffers; each step is a single multi-iovec CMA
    read of every block whose index has the step bit set, pulled from
    ``(rank - 2^step) mod p``.  Extra local copies (initial rotation, final
    inverse rotation) are why it loses for large messages.
    """
    op = ctx.next_op()
    p, eta, rank = ctx.size, ctx.eta, ctx.rank
    stage = [
        ctx.comm.allocate(rank, max(p * eta, 1), name=f"bruck{op}a"),
        ctx.comm.allocate(rank, max(p * eta, 1), name=f"bruck{op}b"),
    ]
    # phase 1: local rotation, tmp[i] = sendbuf[(rank + i) % p]
    for i in range(p):
        yield from ctx.memcpy(
            stage[0], i * eta, ctx.sendbuf, ((rank + i) % p) * eta, eta
        )
    addrs = yield from ctx.sm_allgather(("brk", op), (stage[0].addr, stage[1].addr))
    cur = 0
    k = 1
    step = 0
    while k < p:
        # everyone's `cur` stage must be stable before anyone reads it
        yield from ctx.sm_barrier(("brk-s", op, step))
        idx = [i for i in range(1, p) if i & k]
        src = (rank - k) % p
        src_base = addrs[src][cur]
        nxt = cur ^ 1
        remote = [(src_base + i * eta, eta) for i in idx]
        local = [(stage[nxt].addr + i * eta, eta) for i in idx]
        if remote and eta > 0:
            yield from ctx.cma_readv(src, local, remote)
        # blocks whose bit is clear stay local
        keep = [i for i in range(p) if not (i & k) or i >= p]
        for i in range(p):
            if not (i & k):
                yield from ctx.memcpy(stage[nxt], i * eta, stage[cur], i * eta, eta)
        del keep
        cur = nxt
        k <<= 1
        step += 1
    # last readers may still be pulling from our final stage
    yield from ctx.sm_barrier(("brk-fin", op))
    # phase 3: inverse rotation, recvbuf[src] = tmp[(rank - src) % p]
    for src in range(p):
        yield from ctx.memcpy(
            ctx.recvbuf, src * eta, stage[cur], ((rank - src) % p) * eta, eta
        )
