"""Point-to-point-based collectives: how 2017-era libraries did it.

These are the *baseline* designs the paper compares against (Section VII).
They compose the eager/rendezvous pt2pt layer instead of issuing native
CMA calls, so they pay per-message control traffic — and the rendezvous
fan-out variants hit the mm-lock contention wall because nothing bounds
reader concurrency.

``threshold`` selects the transport: 0 forces rendezvous (single-copy CMA
with RTS/CTS), a huge value forces eager (two-copy shared memory) — the
same switch the libraries' tuning tables flip per message size.

All buffer contracts match the native algorithms in
``scatter``/``gather``/``bcast``/``allgather``.
"""

from __future__ import annotations

from typing import Generator

from repro.core.common import nonroot_order
from repro.mpi.communicator import RankCtx
from repro.mpi.pt2pt import p2p_recv, p2p_send, p2p_sendrecv

__all__ = [
    "bcast_binomial_p2p",
    "scatter_binomial_p2p",
    "gather_binomial_p2p",
    "scatter_fanout_rndv",
    "gather_fanin_rndv",
    "allgather_ring_p2p",
]

FORCE_EAGER = 1 << 62
FORCE_RNDV = 0


def _binomial_parent_children(relrank: int, size: int) -> tuple[int | None, list[int]]:
    """Binomial-tree parent and children (children high-mask first)."""
    parent = None
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = relrank ^ mask
            break
        mask <<= 1
    if parent is None:
        mask = 1
        while mask < size:
            mask <<= 1
    children = []
    mask >>= 1
    while mask > 0:
        if relrank + mask < size:
            children.append(relrank + mask)
        mask >>= 1
    return parent, children


def bcast_binomial_p2p(ctx: RankCtx, threshold: int) -> Generator:
    """Binomial-tree broadcast over pt2pt (data flows down the tree)."""
    op = ctx.next_op()
    relrank = (ctx.rank - ctx.root) % ctx.size
    parent, children = _binomial_parent_children(relrank, ctx.size)
    if parent is not None:
        src = (parent + ctx.root) % ctx.size
        yield from p2p_recv(
            ctx, src, ("bbc", op), ctx.recvbuf, threshold=threshold
        )
    for child in children:
        dst = (child + ctx.root) % ctx.size
        yield from p2p_send(
            ctx, dst, ("bbc", op), ctx.recvbuf, threshold=threshold
        )


def _subtree_size(relrank: int, size: int) -> int:
    """Number of ranks in relrank's binomial subtree (itself included)."""
    mask = 1
    while mask < size:
        if relrank & mask:
            break
        mask <<= 1
    return min(mask, size - relrank)


def scatter_binomial_p2p(ctx: RankCtx, threshold: int) -> Generator:
    """Binomial scatter: subtree payloads staged and forwarded.

    Interior nodes receive their whole subtree's blocks into a staging
    buffer and relay sub-slices down — the classic MPICH design.  Total
    bytes leaving the root are (p-1)*eta, but interior store-and-forward
    adds copies, and every hop pays pt2pt protocol costs.
    """
    op = ctx.next_op()
    p, eta = ctx.size, ctx.eta
    relrank = (ctx.rank - ctx.root) % p
    parent, children = _binomial_parent_children(relrank, p)
    sub = _subtree_size(relrank, p)

    if ctx.is_root:
        staging = ctx.comm.allocate(ctx.rank, p * eta, f"scb{op}")
        # reorder into relrank order so subtree slices are contiguous
        for rel in range(p):
            yield from ctx.memcpy(
                staging, rel * eta, ctx.sendbuf, ((rel + ctx.root) % p) * eta, eta
            )
    elif sub > 1:
        staging = ctx.comm.allocate(ctx.rank, sub * eta, f"scb{op}")
        src = (parent + ctx.root) % p
        yield from p2p_recv(
            ctx, src, ("scb", op, relrank), staging, nbytes=sub * eta,
            threshold=threshold,
        )
    else:
        src = (parent + ctx.root) % p
        yield from p2p_recv(
            ctx, src, ("scb", op, relrank), ctx.recvbuf, nbytes=eta,
            threshold=threshold,
        )
        return

    for child in children:  # high mask first: biggest subtree first
        child_sub = _subtree_size(child, p)
        dst = (child + ctx.root) % p
        yield from p2p_send(
            ctx,
            dst,
            ("scb", op, child),
            staging,
            offset=(child - relrank) * eta,
            nbytes=child_sub * eta,
            threshold=threshold,
        )
    if not (ctx.is_root and ctx.in_place):
        if ctx.recvbuf is not None:
            yield from ctx.memcpy(ctx.recvbuf, 0, staging, 0, eta)


def gather_binomial_p2p(ctx: RankCtx, threshold: int) -> Generator:
    """Binomial gather: subtrees aggregate upward through staging buffers."""
    op = ctx.next_op()
    p, eta = ctx.size, ctx.eta
    relrank = (ctx.rank - ctx.root) % p
    parent, children = _binomial_parent_children(relrank, p)
    sub = _subtree_size(relrank, p)

    if sub > 1 or ctx.is_root:
        staging = ctx.comm.allocate(ctx.rank, sub * eta, f"gab{op}")
        if ctx.is_root and ctx.in_place:
            yield from ctx.memcpy(staging, 0, ctx.recvbuf, ctx.root * eta, eta)
        else:
            yield from ctx.memcpy(staging, 0, ctx.sendbuf, 0, eta)
        # children deliver in reverse mask order (smallest subtree first
        # finishes soonest, but protocol order is fixed: as posted below)
        for child in children:
            child_sub = _subtree_size(child, p)
            src = (child + ctx.root) % p
            yield from p2p_recv(
                ctx,
                src,
                ("gab", op, child),
                staging,
                offset=(child - relrank) * eta,
                nbytes=child_sub * eta,
                threshold=threshold,
            )
    else:
        staging = None

    if not ctx.is_root:
        dst = (parent + ctx.root) % p
        if staging is not None:
            yield from p2p_send(
                ctx, dst, ("gab", op, relrank), staging, nbytes=sub * eta,
                threshold=threshold,
            )
        else:
            yield from p2p_send(
                ctx, dst, ("gab", op, relrank), ctx.sendbuf, nbytes=eta,
                threshold=threshold,
            )
        return

    # root: staging is in relrank order; rotate into absolute rank order
    for rel in range(p):
        yield from ctx.memcpy(
            ctx.recvbuf, ((rel + ctx.root) % p) * eta, staging, rel * eta, eta
        )


def scatter_fanout_rndv(ctx: RankCtx) -> Generator:
    """Root RTSes every receiver at once; p-1 rendezvous reads proceed
    concurrently — the contention-*unaware* design that motivates the
    paper (identical to parallel-read plus per-message handshakes)."""
    op = ctx.next_op()
    if ctx.is_root:
        for dst in nonroot_order(ctx.size, ctx.root):
            yield ctx.ctrl_send(
                dst,
                ("sfr-rts", op),
                payload=(
                    ctx.pid_of(ctx.rank),
                    ctx.sendbuf.addr + dst * ctx.eta,
                    ctx.eta,
                ),
            )
        if not ctx.in_place:
            yield from ctx.memcpy(
                ctx.recvbuf, 0, ctx.sendbuf, ctx.root * ctx.eta, ctx.eta
            )
        for dst in nonroot_order(ctx.size, ctx.root):
            yield ctx.ctrl_recv(dst, ("sfr-fin", op))
    else:
        msg = yield ctx.ctrl_recv(ctx.root, ("sfr-rts", op))
        _, addr, n = msg.payload
        yield from ctx.cma_read(ctx.root, ctx.recvbuf.iov(0, n), (addr, n))
        yield ctx.ctrl_send(ctx.root, ("sfr-fin", op))


def gather_fanin_rndv(ctx: RankCtx) -> Generator:
    """Senders RTS; the root drains p-1 rendezvous receives back to back
    (its single core serializes the copies — no contention, but every
    message pays handshakes and the root is the bottleneck)."""
    op = ctx.next_op()
    if ctx.is_root:
        for src in nonroot_order(ctx.size, ctx.root):
            msg = yield ctx.ctrl_recv(src, ("gfr-rts", op))
            _, addr, n = msg.payload
            yield from ctx.cma_read(
                src, ctx.recvbuf.iov(src * ctx.eta, n), (addr, n)
            )
            yield ctx.ctrl_send(src, ("gfr-fin", op))
        if not ctx.in_place:
            yield from ctx.memcpy(
                ctx.recvbuf, ctx.root * ctx.eta, ctx.sendbuf, 0, ctx.eta
            )
    else:
        yield ctx.ctrl_send(
            ctx.root,
            ("gfr-rts", op),
            payload=(ctx.pid_of(ctx.rank), ctx.sendbuf.addr, ctx.eta),
        )
        yield ctx.ctrl_recv(ctx.root, ("gfr-fin", op))


def allgather_ring_p2p(ctx: RankCtx, threshold: int) -> Generator:
    """Classic ring allgather over pt2pt: p-1 steps of sendrecv."""
    op = ctx.next_op()
    p, eta = ctx.size, ctx.eta
    if not ctx.in_place:
        yield from ctx.memcpy(ctx.recvbuf, ctx.rank * eta, ctx.sendbuf, 0, eta)
    left = (ctx.rank - 1) % p
    right = (ctx.rank + 1) % p
    for s in range(p - 1):
        send_block = (ctx.rank - s) % p
        recv_block = (ctx.rank - s - 1) % p
        yield from p2p_sendrecv(
            ctx, right, ("agp", op, s), ctx.recvbuf, send_block * eta,
            left, ("agp", op, s), ctx.recvbuf, recv_block * eta, eta,
            threshold,
        )
