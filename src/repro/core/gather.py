"""All-to-one personalized: MPI_Gather and MPI_Gatherv (paper Section IV-B).

Mirror images of the Scatter designs with the CMA direction reversed —
writers now contend on the *root's* mm lock:

* ``parallel_write``   — every non-root writes its block into the root's
  receive buffer concurrently (gamma(p-1) contention).
* ``sequential_read``  — the root reads each non-root's block in turn
  (p-1 steps, no contention).
* ``throttled_write(k)`` — at most ``k`` concurrent writers, chained with
  pt2pt tokens exactly like throttled-read Scatter.

Buffer contract: every rank's ``sendbuf`` holds its own block; the root's
``recvbuf`` packs the p blocks densely in rank order.  Blocks are ``eta``
bytes each, or — for Gatherv — ``counts[r]`` bytes for rank r, from the
point's :class:`~repro.core.common.Blocks` layout.  A zero-length block is
never moved, and its rank has no ``sendbuf``.  ``in_place`` means the
root's block is already sitting at its place in ``recvbuf``.
"""

from __future__ import annotations

from typing import Generator

from repro.core.common import Blocks, blocks_of, nonroot_order, throttled_chain
from repro.mpi.communicator import RankCtx

__all__ = ["parallel_write", "sequential_read", "throttled_write"]


def _root_self_copy(ctx: RankCtx, blocks: Blocks) -> Generator:
    """Root moves its own block sendbuf -> recvbuf[root] (skipped in-place)."""
    n, off = blocks(ctx.root)
    if not ctx.in_place and n > 0:
        yield from ctx.memcpy(ctx.recvbuf, off, ctx.sendbuf, 0, n)


def _write_own(ctx: RankCtx, blocks: Blocks, dst_addr: int) -> Generator:
    """A non-root writes its block into the root's recvbuf at ``dst_addr``."""
    n, off = blocks(ctx.rank)
    if n > 0:
        yield from ctx.cma_write(ctx.root, ctx.sendbuf.iov(0, n), (dst_addr + off, n))


def parallel_write(ctx: RankCtx) -> Generator:
    """All non-roots write concurrently: T = T_bcast^sm + a + nB + l*g(p)*n/s + T_gather^sm."""
    blocks = blocks_of(ctx)
    op = ctx.next_op()
    payload = ctx.recvbuf.addr if ctx.is_root else None
    dst_addr = yield from ctx.sm_bcast(("ga-pw", op), payload, root=ctx.root)
    if ctx.is_root:
        yield from _root_self_copy(ctx, blocks)
    else:
        yield from _write_own(ctx, blocks, dst_addr)
    # completion: root may not touch recvbuf until every block has landed
    yield from ctx.sm_gather(("ga-pw-fin", op), value=True, root=ctx.root)


def sequential_read(ctx: RankCtx) -> Generator:
    """Root reads one block at a time: p-1 uncontended transfers."""
    blocks = blocks_of(ctx)
    op = ctx.next_op()
    value = None if ctx.is_root or ctx.sendbuf is None else ctx.sendbuf.addr
    addrs = yield from ctx.sm_gather(("ga-sr", op), value, root=ctx.root)
    if ctx.is_root:
        for src in nonroot_order(ctx.size, ctx.root):
            n, off = blocks(src)
            if n > 0:
                yield from ctx.cma_read(
                    src, ctx.recvbuf.iov(off, n), (addrs[src], n)
                )
        yield from _root_self_copy(ctx, blocks)
    # completion: non-roots learn their sendbuf is reusable
    yield from ctx.sm_bcast(("ga-sr-fin", op), True, root=ctx.root)


def throttled_write(ctx: RankCtx, k: int) -> Generator:
    """At most ``k`` concurrent writers into the root's receive buffer
    (:func:`~repro.core.common.throttled_chain`)."""
    if k < 1:
        raise ValueError("throttle factor must be >= 1")
    blocks = blocks_of(ctx)
    op = ctx.next_op()
    payload = ctx.recvbuf.addr if ctx.is_root else None
    dst_addr = yield from ctx.sm_bcast(("ga-tw", op), payload, root=ctx.root)
    if ctx.is_root:
        yield from _root_self_copy(ctx, blocks)
    yield from throttled_chain(
        ctx, k, "ga-tw", op, lambda pos: _write_own(ctx, blocks, dst_addr)
    )
