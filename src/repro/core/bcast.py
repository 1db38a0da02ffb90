"""One-to-all non-personalized: MPI_Bcast (paper Section V-B).

Everyone receives the *same* message, which opens designs Scatter cannot
use:

* ``direct_read`` / ``direct_write`` — the parallel-read / sequential-write
  analogues (full contention / full serialization).
* ``knomial(k)`` — the throttled analogue: a k-nomial tree where at most
  ``k - 1`` children read one parent's buffer concurrently, level by level
  (levels are ack-gated so concurrency per source stays bounded, matching
  the model's log_k p * gamma_k structure).  Unlike Scatter, interior
  nodes keep forwarding down the tree.
* ``scatter_allgather`` — Van de Geijn: sequential-write scatter of
  eta/p chunks, then a contention-free ring allgather of the chunks
  (every chunk is read from its *original* owner).  Wins for large
  messages by trading contention for an extra round of small transfers.

Buffer contract: every rank passes ``recvbuf`` (eta bytes); the root's
holds the payload.
"""

from __future__ import annotations

from typing import Generator

from repro.core.common import chunk_partition, knomial_parent_children, nonroot_order
from repro.mpi.communicator import RankCtx
from repro.sim.engine import Delay

__all__ = [
    "direct_read",
    "direct_write",
    "knomial",
    "scatter_allgather",
    "shm_slab",
    "chain",
]


def direct_read(ctx: RankCtx) -> Generator:
    """Every non-root reads the root's buffer at once: gamma(p-1) contention."""
    op = ctx.next_op()
    payload = ctx.recvbuf.addr if ctx.is_root else None
    src_addr = yield from ctx.sm_bcast(("bc-dr", op), payload, root=ctx.root)
    if not ctx.is_root:
        yield from ctx.cma_read(
            ctx.root, ctx.recvbuf.iov(0, ctx.eta), (src_addr, ctx.eta)
        )
    yield from ctx.sm_gather(("bc-dr-fin", op), value=True, root=ctx.root)


def direct_write(ctx: RankCtx) -> Generator:
    """Root writes everyone in turn: p-1 uncontended transfers."""
    op = ctx.next_op()
    value = None if ctx.is_root else ctx.recvbuf.addr
    addrs = yield from ctx.sm_gather(("bc-dw", op), value, root=ctx.root)
    if ctx.is_root:
        for dst in nonroot_order(ctx.size, ctx.root):
            yield from ctx.cma_write(
                dst, ctx.recvbuf.iov(0, ctx.eta), (addrs[dst], ctx.eta)
            )
    yield from ctx.sm_bcast(("bc-dw-fin", op), True, root=ctx.root)


def knomial(ctx: RankCtx, k: int = 4) -> Generator:
    """k-nomial tree of reads, level-synchronized to bound concurrency.

    A parent signals one level's children, which read its recvbuf
    concurrently (<= k-1 readers) and ack; only then is the next level
    signalled.  Cost ~ log_k p * (a + nB + l*gamma(k)*n/s).
    """
    if k < 2:
        raise ValueError("k-nomial radix must be >= 2")
    op = ctx.next_op()
    addrs = yield from ctx.sm_allgather(("bc-kn", op), ctx.recvbuf.addr)
    relrank = (ctx.rank - ctx.root) % ctx.size
    parent_rel, levels = knomial_parent_children(relrank, ctx.size, k)
    if parent_rel is not None:
        parent = (parent_rel + ctx.root) % ctx.size
        yield ctx.ctrl_recv(parent, ("bc-kn-go", op))
        yield from ctx.cma_read(
            parent, ctx.recvbuf.iov(0, ctx.eta), (addrs[parent], ctx.eta)
        )
        yield ctx.ctrl_send(parent, ("bc-kn-ack", op))
    for group in levels:
        children = [(c + ctx.root) % ctx.size for c in group]
        for child in children:
            yield ctx.ctrl_send(child, ("bc-kn-go", op))
        for child in children:
            yield ctx.ctrl_recv(child, ("bc-kn-ack", op))


def chain(ctx: RankCtx, segsize: int = 128 * 1024) -> Generator:
    """Segmented pipeline (chain) broadcast — an extension algorithm.

    Ranks form a chain in relative-rank order; the payload is cut into
    ``segsize`` pieces and each rank reads segment s from its predecessor
    as soon as the predecessor has it.  Fully pipelined and contention-free
    (exactly one reader per source), the chain costs roughly
    ``eta*beta + (p-2)*segsize*beta`` — asymptotically as good as
    scatter-allgather for very large payloads, with far fewer syscalls
    when ``segsize`` is large.  The segment size trades pipeline depth
    (small segments fill the chain faster) against per-segment syscall
    overhead.
    """
    if segsize < 1:
        raise ValueError("segment size must be >= 1 byte")
    op = ctx.next_op()
    p, eta = ctx.size, ctx.eta
    addrs = yield from ctx.sm_allgather(("bc-ch", op), ctx.recvbuf.addr)
    relrank = (ctx.rank - ctx.root) % p
    nseg = -(-eta // segsize)
    succ = ((relrank + 1) % p + ctx.root) % p if relrank + 1 < p else None
    pred = ((relrank - 1) + ctx.root) % p if relrank > 0 else None
    for s in range(nseg):
        off = s * segsize
        ln = min(segsize, eta - off)
        if pred is not None:
            yield ctx.ctrl_recv(pred, ("bc-ch-tok", op, s))
            yield from ctx.cma_read(
                pred, ctx.recvbuf.iov(off, ln), (addrs[pred] + off, ln)
            )
        if succ is not None:
            yield ctx.ctrl_send(succ, ("bc-ch-tok", op, s))
    # the successor keeps reading our buffer until its last segment; only
    # the chain tail finishing means everyone is done
    yield from ctx.sm_barrier(("bc-ch-fin", op))


def shm_slab(ctx: RankCtx) -> Generator:
    """Classic shared-memory slab broadcast: the two-copy baseline design.

    The root streams the payload into a shared slab chunk by chunk,
    flagging each chunk's availability (a release-counter store — readers
    poll, so flagging costs the root nothing per reader); all readers copy
    out concurrently.  No syscall, no mm lock — which is why this wins for
    small/medium payloads on Broadwell (Section VII-F) — but every byte is
    copied twice, and once the payload stops fitting in the shared cache
    (``shm_cache_bytes``) both copies run at DRAM cost
    (``shm_large_factor``), which is where kernel-assisted single-copy
    takes over.
    """
    op = ctx.next_op()
    p = ctx.params
    eta = ctx.eta
    beta = p.shm_beta * (p.shm_large_factor if eta > p.shm_cache_bytes else 1.0)
    chunk = p.shm_chunk
    nchunks = -(-eta // chunk)
    others = [r for r in range(ctx.size) if r != ctx.root]
    if ctx.is_root:
        sent = 0
        for c in range(nchunks):
            n = min(chunk, eta - sent)
            yield Delay(n * beta + p.shm_chunk_overhead)
            sent += n
            payload = ctx.recvbuf if c == nchunks - 1 else None
            for dst in others:
                yield ctx.shm.ctrl_send_flag(
                    ctx.rank, dst, ("bc-slab", op, c), payload
                )
    else:
        got = 0
        root_buf = None
        for c in range(nchunks):
            msg = yield ctx.ctrl_recv(ctx.root, ("bc-slab", op, c))
            if msg.payload is not None:
                root_buf = msg.payload
            n = min(chunk, eta - got)
            yield Delay(n * beta + p.shm_chunk_overhead)
            got += n
        if ctx.node.verify and root_buf is not None:
            ctx.recvbuf.write(0, root_buf.read(0, eta))


def scatter_allgather(ctx: RankCtx) -> Generator:
    """Van de Geijn: scatter eta/p chunks, ring-allgather them back.

    The scatter step (sequential writes from the root) has no contention;
    the allgather step reads every chunk from its original owner, so no
    two readers ever target the same source in the same step.  Chunks are
    equal +/- 1 byte — not page aligned for non-power-of-two p, which the
    paper flags as POWER8 overhead.
    """
    op = ctx.next_op()
    p, rank = ctx.size, ctx.rank
    chunks = chunk_partition(ctx.eta, p)
    addrs = yield from ctx.sm_allgather(("bc-sa", op), ctx.recvbuf.addr)
    if ctx.is_root:
        # scatter: chunk r -> rank r's recvbuf (root keeps the whole buffer)
        for dst in nonroot_order(p, ctx.root):
            off, ln = chunks[dst]
            if ln == 0:
                continue
            yield from ctx.cma_write(
                dst, ctx.recvbuf.iov(off, ln), (addrs[dst] + off, ln)
            )
    # chunks must be in place before anyone starts pulling them
    yield from ctx.sm_barrier(("bc-sa-mid", op))
    if not ctx.is_root:
        for i in range(1, p):
            owner = (rank - i) % p
            off, ln = chunks[owner]
            if ln == 0:
                continue
            src = ctx.root if owner == ctx.root else owner
            yield from ctx.cma_read(
                src, ctx.recvbuf.iov(off, ln), (addrs[src] + off, ln)
            )
    # owners' buffers are being read until the last step
    yield from ctx.sm_barrier(("bc-sa-fin", op))
