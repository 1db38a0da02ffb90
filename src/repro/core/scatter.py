"""One-to-all personalized: MPI_Scatter and MPI_Scatterv (paper Section IV-A).

Three algorithm families, all *native* CMA designs (addresses exchanged
through shared-memory control collectives, then direct syscalls — no
RTS/CTS per transfer):

* ``parallel_read``   — every non-root reads its block concurrently from
  the root's send buffer.  One step, but the full contention factor
  gamma(p-1) on the root's mm lock.
* ``sequential_write`` — the root writes each block in turn.  p-1 steps,
  zero contention, root is never idle.
* ``throttled_read(k)`` — the paper's contribution: at most ``k``
  concurrent readers, chained with point-to-point tokens (no barriers):
  reader ``i`` starts when reader ``i - k`` finishes, so there are
  ceil((p-1)/k) waves with contention gamma(k).  ``parallel_read`` and
  ``sequential_write`` are the k = p-1 and k = 1 special cases.

Buffer contract: the root's ``sendbuf`` packs the p blocks densely in rank
order; every rank's ``recvbuf`` holds its own block.  Blocks are ``eta``
bytes each, or — for Scatterv — ``counts[r]`` bytes for rank r, from the
point's :class:`~repro.core.common.Blocks` layout.  A zero-length block is
never moved, and its rank has no ``recvbuf``.  Unequal blocks make a
throttled wave finish with its largest block: the chain keeps the paper's
position order, so the imbalance shows as wave straggling.  With
``in_place`` the root keeps its block in ``sendbuf`` (no self-copy),
matching MPI_IN_PLACE semantics.
"""

from __future__ import annotations

from typing import Generator

from repro.core.common import Blocks, blocks_of, nonroot_order, throttled_chain
from repro.mpi.communicator import RankCtx

__all__ = ["parallel_read", "sequential_write", "throttled_read"]


def _root_self_copy(ctx: RankCtx, blocks: Blocks) -> Generator:
    """Root moves its own block sendbuf[root] -> recvbuf (skipped in-place)."""
    n, off = blocks(ctx.root)
    if not ctx.in_place and n > 0:
        yield from ctx.memcpy(ctx.recvbuf, 0, ctx.sendbuf, off, n)


def _read_own(ctx: RankCtx, blocks: Blocks, src_addr: int) -> Generator:
    """A non-root reads its block out of the root's sendbuf at ``src_addr``."""
    n, off = blocks(ctx.rank)
    if n > 0:
        yield from ctx.cma_read(ctx.root, ctx.recvbuf.iov(0, n), (src_addr + off, n))


def parallel_read(ctx: RankCtx) -> Generator:
    """All non-roots read concurrently: T = T_bcast^sm + a + nB + l*g(p)*n/s + T_gather^sm."""
    blocks = blocks_of(ctx)
    op = ctx.next_op()
    payload = ctx.sendbuf.addr if ctx.is_root else None
    src_addr = yield from ctx.sm_bcast(("sc-pr", op), payload, root=ctx.root)
    if ctx.is_root:
        yield from _root_self_copy(ctx, blocks)
    else:
        yield from _read_own(ctx, blocks, src_addr)
    # completion: root learns every block has been read (sendbuf reusable)
    yield from ctx.sm_gather(("sc-pr-fin", op), value=True, root=ctx.root)


def sequential_write(ctx: RankCtx) -> Generator:
    """Root writes one block at a time: p-1 uncontended transfers."""
    blocks = blocks_of(ctx)
    op = ctx.next_op()
    value = None if ctx.is_root or ctx.recvbuf is None else ctx.recvbuf.addr
    addrs = yield from ctx.sm_gather(("sc-sw", op), value, root=ctx.root)
    if ctx.is_root:
        for dst in nonroot_order(ctx.size, ctx.root):
            n, off = blocks(dst)
            if n > 0:
                yield from ctx.cma_write(
                    dst, ctx.sendbuf.iov(off, n), (addrs[dst], n)
                )
        yield from _root_self_copy(ctx, blocks)
    # completion: non-roots learn their block has landed
    yield from ctx.sm_bcast(("sc-sw-fin", op), True, root=ctx.root)


def throttled_read(ctx: RankCtx, k: int) -> Generator:
    """At most ``k`` concurrent readers, chained by pt2pt tokens
    (:func:`~repro.core.common.throttled_chain`)."""
    if k < 1:
        raise ValueError("throttle factor must be >= 1")
    blocks = blocks_of(ctx)
    op = ctx.next_op()
    payload = ctx.sendbuf.addr if ctx.is_root else None
    src_addr = yield from ctx.sm_bcast(("sc-tr", op), payload, root=ctx.root)
    if ctx.is_root:
        yield from _root_self_copy(ctx, blocks)
    yield from throttled_chain(
        ctx, k, "sc-tr", op, lambda pos: _read_own(ctx, blocks, src_addr)
    )
