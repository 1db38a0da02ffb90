"""All-to-all non-personalized: MPI_Allgather (paper Section V-A).

* ``ring_source_read`` / ``ring_source_write`` — in step i every process
  transfers directly with ``(rank -/+ i) mod p``'s *original* buffer:
  always valid, no per-step synchronization, contention-free up to skew.
* ``ring_neighbor(j)`` — the classic ring generalized to stride ``j``
  (valid iff gcd(j, p) == 1): each process reads the block its neighbour
  ``rank - j`` obtained in the previous step, so per-step ready tokens are
  required.  ``j`` controls socket locality: on Broadwell, j=1 keeps most
  reads intra-socket while j=5 crosses sockets (Fig. 10(b)).
* ``recursive_doubling`` — lg p steps for powers of two; for other p a
  fold-in pre-phase and a final pull keep it correct but cost an extra
  full-buffer transfer (the paper: "the advantage ... is lost").
* ``bruck`` — lg p steps for any p, but an initial shift into staging and
  a final p-block rotation add ~2x copies for large messages.

Buffer contract: ``sendbuf`` one ``eta``-byte block, ``recvbuf`` p blocks;
on return every rank's ``recvbuf[r]`` equals rank r's sendbuf.
"""

from __future__ import annotations

import math
from typing import Generator

from repro.core.common import is_power_of_two, rd_held_blocks
from repro.mpi.communicator import RankCtx

__all__ = [
    "ring_source_read",
    "ring_source_write",
    "ring_neighbor",
    "recursive_doubling",
    "bruck",
]


def _self_copy(ctx: RankCtx) -> Generator:
    """recvbuf[rank] <- sendbuf (skipped for MPI_IN_PLACE)."""
    if not ctx.in_place:
        yield from ctx.memcpy(ctx.recvbuf, ctx.rank * ctx.eta, ctx.sendbuf, 0, ctx.eta)


def ring_source_read(ctx: RankCtx) -> Generator:
    """Step i: read block (rank-i) straight from its owner's sendbuf."""
    op = ctx.next_op()
    addrs = yield from ctx.sm_allgather(("agr", op), ctx.sendbuf.addr)
    yield from _self_copy(ctx)
    eta = ctx.eta
    for i in range(1, ctx.size):
        src = (ctx.rank - i) % ctx.size
        yield from ctx.cma_read(
            src, ctx.recvbuf.iov(src * eta, eta), (addrs[src], eta)
        )
    # sendbufs are being read until the very end: completion barrier
    yield from ctx.sm_barrier(("agr-fin", op))


def ring_source_write(ctx: RankCtx) -> Generator:
    """Step i: write my block into (rank+i)'s recvbuf."""
    op = ctx.next_op()
    addrs = yield from ctx.sm_allgather(("agw", op), ctx.recvbuf.addr)
    yield from _self_copy(ctx)
    eta = ctx.eta
    for i in range(1, ctx.size):
        dst = (ctx.rank + i) % ctx.size
        yield from ctx.cma_write(
            dst, ctx.sendbuf.iov(0, eta), (addrs[dst] + ctx.rank * eta, eta)
        )
    # my recvbuf keeps receiving until the last writer is done
    yield from ctx.sm_barrier(("agw-fin", op))


def ring_neighbor(ctx: RankCtx, j: int = 1) -> Generator:
    """Read from the fixed neighbour rank-j the block it got last step.

    Correct only when gcd(j, p) == 1 (otherwise the walk revisits blocks
    before covering them all) — validated here and asserted by tests.
    """
    p = ctx.size
    if math.gcd(j, p) != 1:
        raise ValueError(f"ring stride j={j} invalid for p={p}: gcd != 1")
    op = ctx.next_op()
    addrs = yield from ctx.sm_allgather(("agn", op), ctx.recvbuf.addr)
    yield from _self_copy(ctx)
    eta = ctx.eta
    left = (ctx.rank - j) % p
    right = (ctx.rank + j) % p
    # token s = "my recvbuf contains everything up to my step s"
    yield ctx.ctrl_send(right, ("agn-tok", op, 0))
    for s in range(1, p):
        yield ctx.ctrl_recv(left, ("agn-tok", op, s - 1))
        block = (ctx.rank - s * j) % p
        yield from ctx.cma_read(
            left, ctx.recvbuf.iov(block * eta, eta), (addrs[left] + block * eta, eta)
        )
        if s < p - 1:
            yield ctx.ctrl_send(right, ("agn-tok", op, s))


def recursive_doubling(ctx: RankCtx) -> Generator:
    """Pairwise doubling; non-powers-of-two fold in and pull out.

    Power-of-two core: in step i, exchange ready tokens with rank^2^i and
    read its accumulated 2^i blocks (one multi-iovec CMA read).  For
    p = m + rem (m the largest power of two): ranks >= m first push their
    block onto rank - m; ranks >= m finally pull the complete result —
    the extra full-size transfer that erases the lg p advantage.
    """
    op = ctx.next_op()
    p, eta, rank = ctx.size, ctx.eta, ctx.rank
    m = 1 << (p.bit_length() - 1)
    if m > p:
        m >>= 1
    rem = p - m
    addrs = yield from ctx.sm_allgather(("agrd", op), ctx.recvbuf.addr)
    yield from _self_copy(ctx)

    if rank >= m:
        # fold my block into my proxy (rank - m), then wait for the result
        proxy = rank - m
        yield from ctx.cma_write(
            proxy, ctx.sendbuf.iov(0, eta), (addrs[proxy] + rank * eta, eta)
        )
        yield ctx.ctrl_send(proxy, ("agrd-fold", op))
        yield ctx.ctrl_recv(proxy, ("agrd-done", op))
        # pull everything except my own block (already in place)
        remote, local = [], []
        for b in range(p):
            if b != rank:
                remote.append((addrs[proxy] + b * eta, eta))
                local.append((ctx.recvbuf.addr + b * eta, eta))
        if eta > 0:
            yield from ctx.cma_readv(proxy, local, remote)
        yield ctx.ctrl_send(proxy, ("agrd-pulled", op))
        return

    if rank < rem:
        yield ctx.ctrl_recv(rank + m, ("agrd-fold", op))

    steps = m.bit_length() - 1
    for i in range(steps):
        partner = rank ^ (1 << i)
        # partner entered step i <=> it completed step i-1
        yield ctx.ctrl_send(partner, ("agrd-tok", op, i))
        yield ctx.ctrl_recv(partner, ("agrd-tok", op, i))
        blocks = rd_held_blocks(partner, i, m, rem)
        remote = [(addrs[partner] + b * eta, eta) for b in blocks]
        local = [(ctx.recvbuf.addr + b * eta, eta) for b in blocks]
        if eta > 0:
            yield from ctx.cma_readv(partner, local, remote)

    if rank < rem:
        yield ctx.ctrl_send(rank + m, ("agrd-done", op))
        yield ctx.ctrl_recv(rank + m, ("agrd-pulled", op))


def bruck(ctx: RankCtx) -> Generator:
    """Bruck allgather: ceil(lg p) doubling appends, then a p-block shift."""
    op = ctx.next_op()
    p, eta, rank = ctx.size, ctx.eta, ctx.rank
    tmp = ctx.comm.allocate(rank, max(p * eta, 1), name=f"agbk{op}")
    addrs = yield from ctx.sm_allgather(("agbk", op), tmp.addr)
    yield from ctx.memcpy(tmp, 0, ctx.sendbuf, 0, eta)
    held = 1
    step = 0
    while held < p:
        take = min(held, p - held)
        src = (rank + held) % p
        dst = (rank - held) % p
        # src enters step `step` => its tmp[0:held] is final
        yield ctx.ctrl_send(dst, ("agbk-tok", op, step))
        yield ctx.ctrl_recv(src, ("agbk-tok", op, step))
        yield from ctx.cma_read(
            src, tmp.iov(held * eta, take * eta), (addrs[src], take * eta)
        )
        held += take
        step += 1
    # tmp[i] holds block (rank + i) % p: rotate into rank order
    for i in range(p):
        yield from ctx.memcpy(ctx.recvbuf, ((rank + i) % p) * eta, tmp, i * eta, eta)
    # peers keep reading our tmp until their last step completes
    yield from ctx.sm_barrier(("agbk-fin", op))
