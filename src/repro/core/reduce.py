"""Extension: contention-aware Reduce and Allreduce.

The paper's future work ("we plan to extend these designs to other
collectives") applied to the reduction family.  The same mm-lock analysis
carries over — a reduction is a personalized fan-in plus computation — so
the design space mirrors Gather's, with one new trade-off: *where* the
combines execute.

Reduce algorithms
-----------------

* ``gather_throttled(k)`` — non-roots write their operands into a root
  staging area with the throttled Gather design; the root combines
  locally.  Bounded contention, but the root performs all p-1 combines
  serially: fine for small p or cheap operators.
* ``binomial`` — classic binomial-tree reduction: each interior node reads
  its child's accumulated vector (one reader per source: contention-free)
  and combines; lg p levels, combines parallelize across the tree.
* ``ring_rs`` — ring reduce-scatter (bandwidth-optimal: each rank combines
  1/p of the vector per step over p-1 steps) followed by the root
  sequentially collecting the p fully-reduced chunks.

Allreduce algorithms
--------------------

* ``reduce_bcast`` — binomial reduce to the root + k-nomial broadcast.
* ``ring`` — ring reduce-scatter + ring-source allgather of the reduced
  chunks: the classic bandwidth-optimal ring allreduce, contention-free.
* ``recursive_doubling`` — lg p pairwise exchange-and-combine rounds
  (double-buffered so a partner never reads a vector being overwritten);
  latency-optimal for small vectors; non-powers-of-two fold in/out like
  the Allgather variant.

The operator is elementwise uint8 addition mod 256 (exact, commutative,
associative), so every algorithm's result verifies bit-for-bit regardless
of combine order.

Buffer contract: every rank's ``sendbuf`` holds the eta-byte operand;
``recvbuf`` (root-only for Reduce, everyone for Allreduce) receives the
elementwise sum.  ``in_place`` at the Reduce root means the operand
already sits in ``recvbuf``.
"""

from __future__ import annotations

from typing import Generator

from repro.core.common import chunk_partition, throttled_chain
from repro.mpi.communicator import RankCtx

__all__ = [
    "reduce_gather_throttled",
    "reduce_binomial",
    "reduce_ring_rs",
    "allreduce_reduce_bcast",
    "allreduce_ring",
    "allreduce_recursive_doubling",
]


# ---------------------------------------------------------------------------
# Reduce
# ---------------------------------------------------------------------------


def reduce_gather_throttled(ctx: RankCtx, k: int = 8) -> Generator:
    """Throttled fan-in to a root staging area + serial local combines."""
    if k < 1:
        raise ValueError("throttle factor must be >= 1")
    op = ctx.next_op()
    eta = ctx.eta
    nstage = ctx.size - 1
    payload = None
    if ctx.is_root:
        staging = ctx.comm.allocate(ctx.rank, max(nstage, 1) * eta, f"red{op}")
        payload = staging.addr
    staging_addr = yield from ctx.sm_bcast(("red-gt", op), payload, root=ctx.root)
    if ctx.is_root and not ctx.in_place:
        yield from ctx.memcpy(ctx.recvbuf, 0, ctx.sendbuf, 0, eta)
    # chain position i writes staging slot i
    yield from throttled_chain(
        ctx, k, "red-gt", op,
        lambda pos: ctx.cma_write(
            ctx.root, ctx.sendbuf.iov(0, eta), (staging_addr + pos * eta, eta)
        ),
    )
    if ctx.is_root:
        for i in range(nstage):
            yield from ctx.combine(ctx.recvbuf, 0, staging, i * eta, eta)


def reduce_binomial(ctx: RankCtx) -> Generator:
    """Binomial-tree reduction: one reader per source, combines in parallel."""
    op = ctx.next_op()
    p, eta = ctx.size, ctx.eta
    relrank = (ctx.rank - ctx.root) % p
    if ctx.is_root:
        acc = ctx.recvbuf
        if not ctx.in_place:
            yield from ctx.memcpy(acc, 0, ctx.sendbuf, 0, eta)
    else:
        acc = ctx.comm.allocate(ctx.rank, eta, f"redb{op}")
        yield from ctx.memcpy(acc, 0, ctx.sendbuf, 0, eta)
    scratch = ctx.comm.allocate(ctx.rank, eta, f"redbs{op}")
    addrs = yield from ctx.sm_allgather(("red-bn", op), acc.addr)

    mask = 1
    while mask < p:
        if relrank & mask:
            # my subtree is fully folded into acc: hand it to the parent
            parent = ((relrank ^ mask) + ctx.root) % p
            yield ctx.ctrl_send(parent, ("red-bn-rdy", op, ctx.rank))
            yield ctx.ctrl_recv(parent, ("red-bn-done", op))
            return
        child_rel = relrank | mask
        if child_rel < p and child_rel != relrank:
            child = (child_rel + ctx.root) % p
            yield ctx.ctrl_recv(child, ("red-bn-rdy", op, child))
            yield from ctx.cma_read(child, scratch.iov(0, eta), (addrs[child], eta))
            yield ctx.ctrl_send(child, ("red-bn-done", op))
            yield from ctx.combine(acc, 0, scratch, 0, eta)
        mask <<= 1


def reduce_ring_rs(ctx: RankCtx) -> Generator:
    """Ring reduce-scatter, then the root collects the reduced chunks."""
    op = ctx.next_op()
    acc, addrs = yield from _ring_reduce_scatter(ctx, op)
    p, eta = ctx.size, ctx.eta
    chunks = chunk_partition(eta, p)
    own = (ctx.rank + 2) % p  # the chunk _ring_reduce_scatter leaves final here
    own_len = chunks[own][1]
    if ctx.is_root:
        off, ln = chunks[own]
        if ln:
            yield from ctx.memcpy(ctx.recvbuf, off, acc, off, ln)
        for c in range(p):
            off, ln = chunks[c]
            if c == own or ln == 0:
                continue
            owner = (c - 2) % p
            yield ctx.ctrl_recv(owner, ("red-rs-rdy", op, c))
            yield from ctx.cma_read(
                owner, ctx.recvbuf.iov(off, ln), (addrs[owner] + off, ln)
            )
            yield ctx.ctrl_send(owner, ("red-rs-done", op))
    elif own_len > 0:
        yield ctx.ctrl_send(ctx.root, ("red-rs-rdy", op, own))
        yield ctx.ctrl_recv(ctx.root, ("red-rs-done", op))


# ---------------------------------------------------------------------------
# Allreduce
# ---------------------------------------------------------------------------


def allreduce_reduce_bcast(ctx: RankCtx, k: int = 4) -> Generator:
    """Binomial reduce to the root + k-nomial broadcast of the result."""
    from repro.core import bcast as _bcast

    yield from reduce_binomial(ctx)
    yield from _bcast.knomial(ctx, k=k)


def allreduce_ring(ctx: RankCtx) -> Generator:
    """Ring reduce-scatter + ring-source allgather of the reduced chunks."""
    op = ctx.next_op()
    acc, addrs = yield from _ring_reduce_scatter(ctx, op)
    p, eta = ctx.size, ctx.eta
    chunks = chunk_partition(eta, p)
    own = (ctx.rank + 2) % p  # the chunk _ring_reduce_scatter leaves final here
    off, ln = chunks[own]
    if ln:
        yield from ctx.memcpy(ctx.recvbuf, off, acc, off, ln)
    # every chunk is final once everyone finishes the reduce-scatter
    yield from ctx.sm_barrier(("ar-rg-mid", op))
    for i in range(1, p):
        c = (own + i) % p
        owner = (c - 2) % p
        coff, cln = chunks[c]
        if cln == 0:
            continue
        yield from ctx.cma_read(
            owner, ctx.recvbuf.iov(coff, cln), (addrs[owner] + coff, cln)
        )
    # accumulators are being read until the last step completes
    yield from ctx.sm_barrier(("ar-rg-fin", op))


def allreduce_recursive_doubling(ctx: RankCtx) -> Generator:
    """lg p pairwise exchange-and-combine rounds (double-buffered)."""
    op = ctx.next_op()
    p, eta, rank = ctx.size, ctx.eta, ctx.rank
    m = 1 << (p.bit_length() - 1)
    if m > p:
        m >>= 1
    rem = p - m
    # two accumulator generations so a partner never reads a vector that
    # is being overwritten, plus a scratch for the incoming operand
    stages = [
        ctx.comm.allocate(rank, eta, f"ard{op}a"),
        ctx.comm.allocate(rank, eta, f"ard{op}b"),
    ]
    scratch = ctx.comm.allocate(rank, eta, f"ard{op}s")
    yield from ctx.memcpy(stages[0], 0, ctx.sendbuf, 0, eta)
    addrs = yield from ctx.sm_allgather(
        ("ard", op), (stages[0].addr, stages[1].addr)
    )

    if rank >= m:
        # fold my operand into my proxy, then copy the final result out
        proxy = rank - m
        yield ctx.ctrl_send(proxy, ("ard-folded", op))
        msg = yield ctx.ctrl_recv(proxy, ("ard-result", op))
        final_idx = msg.payload
        yield from ctx.cma_read(
            proxy, ctx.recvbuf.iov(0, eta), (addrs[proxy][final_idx], eta)
        )
        yield ctx.ctrl_send(proxy, ("ard-copied", op))
        return

    cur = 0
    if rank < rem:
        extra = rank + m
        yield ctx.ctrl_recv(extra, ("ard-folded", op))
        yield from ctx.cma_read(extra, scratch.iov(0, eta), (addrs[extra][0], eta))
        nxt = cur ^ 1
        yield from ctx.memcpy(stages[nxt], 0, stages[cur], 0, eta)
        yield from ctx.combine(stages[nxt], 0, scratch, 0, eta)
        cur = nxt

    steps = m.bit_length() - 1
    for i in range(steps):
        partner = rank ^ (1 << i)
        # tell each other which stage holds the current accumulator
        yield ctx.ctrl_send(partner, ("ard-tok", op, i), payload=cur)
        msg = yield ctx.ctrl_recv(partner, ("ard-tok", op, i))
        partner_cur = msg.payload
        yield from ctx.cma_read(
            partner, scratch.iov(0, eta), (addrs[partner][partner_cur], eta)
        )
        nxt = cur ^ 1
        yield from ctx.memcpy(stages[nxt], 0, stages[cur], 0, eta)
        yield from ctx.combine(stages[nxt], 0, scratch, 0, eta)
        # the partner may still be reading stages[cur]; sync before the
        # next round could overwrite it
        yield ctx.ctrl_send(partner, ("ard-ack", op, i))
        yield ctx.ctrl_recv(partner, ("ard-ack", op, i))
        cur = nxt

    yield from ctx.memcpy(ctx.recvbuf, 0, stages[cur], 0, eta)
    if rank < rem:
        extra = rank + m
        yield ctx.ctrl_send(extra, ("ard-result", op), payload=cur)
        yield ctx.ctrl_recv(extra, ("ard-copied", op))


# ---------------------------------------------------------------------------
# shared ring reduce-scatter phase
# ---------------------------------------------------------------------------


def _ring_reduce_scatter(ctx: RankCtx, op) -> Generator:
    """After this, rank r's accumulator chunk (r+2)%p is fully reduced.

    Read-based ring: in step s, read the chunk your left neighbour has
    been accumulating for s-1 hops and fold it into yours; ready tokens
    chain exactly like Ring-Neighbor Allgather.  Returns ``(acc, addrs)``
    for the collection phase.
    """
    p, eta, rank = ctx.size, ctx.eta, ctx.rank
    chunks = chunk_partition(eta, p)
    acc = ctx.comm.allocate(rank, eta, f"rs{op}")
    scratch = ctx.comm.allocate(rank, max(chunks[0][1], 1), f"rss{op}")
    yield from ctx.memcpy(acc, 0, ctx.sendbuf, 0, eta)
    addrs = yield from ctx.sm_allgather(("rs", op), acc.addr)
    left = (rank - 1) % p
    right = (rank + 1) % p
    yield ctx.ctrl_send(right, ("rs-tok", op, 0))
    for s in range(1, p):
        # chunk that is s-1 hops accumulated at my left neighbour
        c = (rank - s + 1) % p
        off, ln = chunks[c]
        yield ctx.ctrl_recv(left, ("rs-tok", op, s - 1))
        if ln > 0:
            yield from ctx.cma_read(left, scratch.iov(0, ln), (addrs[left] + off, ln))
            yield from ctx.combine(acc, off, scratch, 0, ln)
        if s < p - 1:
            yield ctx.ctrl_send(right, ("rs-tok", op, s))
    return acc, addrs
