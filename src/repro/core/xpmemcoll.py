"""Native collectives over the XPMEM-style mapped-window lane.

Same schedules as their CMA counterparts — the point of the lane is the
*kernel* cost model, not a new communication structure — with one change
to the control plane: ranks exchange ``(segid, addr)`` pairs instead of
bare addresses, because a window must be exported by its owner and
attached by each peer before it can be copied through.

Cost structure versus CMA (why the tuner has a real decision to make):

* first use of a window pays the attach (``t_xpmem_attach + pages *
  t_xpmem_page``) and per-page fault-in under the owner's mm lock — a
  cold One-to-all convoys on the root's lock exactly like parallel-read
  CMA, once per page per attacher;
* every copy after that is pin-free (``t_xpmem_copy + n*beta``) — no
  syscall alpha, no lock, no γ(c) — so warm windows win whenever the
  saved ``alpha + l*γ(c)*ceil(n/s)`` exceeds the amortised map cost.

The attach cache lives on the communicator, so repeated collectives on
one ``Comm`` (the steady state the paper measures) hit warm windows.
"""

from __future__ import annotations

from typing import Generator

from repro.core.common import nonroot_order
from repro.mpi.communicator import RankCtx

__all__ = [
    "scatter_xpmem_read",
    "gather_xpmem_write",
    "bcast_xpmem_read",
    "allgather_xpmem_ring",
    "alltoall_xpmem_pairwise",
]


def scatter_xpmem_read(ctx: RankCtx) -> Generator:
    """Every non-root reads its block through the root's mapped sendbuf."""
    op = ctx.next_op()
    payload = None
    if ctx.is_root:
        iov = ctx.sendbuf.iov(0, ctx.size * ctx.eta)
        segid = yield from ctx.xpmem_expose(iov)
        payload = (segid, iov[0])
    segid, src_addr = yield from ctx.sm_bcast(("sc-xr", op), payload, root=ctx.root)
    if ctx.is_root:
        if not ctx.in_place:
            yield from ctx.memcpy(
                ctx.recvbuf, 0, ctx.sendbuf, ctx.root * ctx.eta, ctx.eta
            )
    else:
        yield from ctx.xpmem_read(
            ctx.root,
            segid,
            ctx.recvbuf.iov(0, ctx.eta),
            (src_addr + ctx.rank * ctx.eta, ctx.eta),
        )
    # completion: root learns every block has been read (sendbuf reusable)
    yield from ctx.sm_gather(("sc-xr-fin", op), value=True, root=ctx.root)


def gather_xpmem_write(ctx: RankCtx) -> Generator:
    """Every non-root writes its block through the root's mapped recvbuf."""
    op = ctx.next_op()
    payload = None
    if ctx.is_root:
        iov = ctx.recvbuf.iov(0, ctx.size * ctx.eta)
        segid = yield from ctx.xpmem_expose(iov)
        payload = (segid, iov[0])
    segid, dst_addr = yield from ctx.sm_bcast(("ga-xw", op), payload, root=ctx.root)
    if ctx.is_root:
        if not ctx.in_place:
            yield from ctx.memcpy(
                ctx.recvbuf, ctx.root * ctx.eta, ctx.sendbuf, 0, ctx.eta
            )
    else:
        yield from ctx.xpmem_write(
            ctx.root,
            segid,
            ctx.sendbuf.iov(0, ctx.eta),
            (dst_addr + ctx.rank * ctx.eta, ctx.eta),
        )
    # completion: root may not touch recvbuf until every block has landed
    yield from ctx.sm_gather(("ga-xw-fin", op), value=True, root=ctx.root)


def bcast_xpmem_read(ctx: RankCtx) -> Generator:
    """Every non-root reads the root's mapped buffer — one shared window,
    so the page fault-in storm hits the root's mm lock exactly once per
    page per attacher, then re-broadcasts are pure copies."""
    op = ctx.next_op()
    payload = None
    if ctx.is_root:
        iov = ctx.recvbuf.iov(0, ctx.eta)
        segid = yield from ctx.xpmem_expose(iov)
        payload = (segid, iov[0])
    segid, src_addr = yield from ctx.sm_bcast(("bc-xr", op), payload, root=ctx.root)
    if not ctx.is_root:
        yield from ctx.xpmem_read(
            ctx.root, segid, ctx.recvbuf.iov(0, ctx.eta), (src_addr, ctx.eta)
        )
    yield from ctx.sm_gather(("bc-xr-fin", op), value=True, root=ctx.root)


def allgather_xpmem_ring(ctx: RankCtx) -> Generator:
    """Ring-source-read over mapped windows: step i reads block (rank-i)
    through its owner's window.  Each pair attaches once, then the p-1
    steady-state reads are all pin-free."""
    op = ctx.next_op()
    iov = ctx.sendbuf.iov(0, ctx.eta)
    segid = yield from ctx.xpmem_expose(iov)
    wins = yield from ctx.sm_allgather(("agx", op), (segid, iov[0]))
    if not ctx.in_place:
        yield from ctx.memcpy(ctx.recvbuf, ctx.rank * ctx.eta, ctx.sendbuf, 0, ctx.eta)
    eta = ctx.eta
    for i in range(1, ctx.size):
        src = (ctx.rank - i) % ctx.size
        src_segid, src_addr = wins[src]
        yield from ctx.xpmem_read(
            src, src_segid, ctx.recvbuf.iov(src * eta, eta), (src_addr, eta)
        )
    # sendbufs are being read until the very end: completion barrier
    yield from ctx.sm_barrier(("agx-fin", op))


def alltoall_xpmem_pairwise(ctx: RankCtx) -> Generator:
    """Pairwise exchange over mapped windows (contention-free schedule,
    so this isolates the per-transfer mechanism cost: alpha + pin vs
    attach-amortised pin-free copies)."""
    op = ctx.next_op()
    iov = ctx.sendbuf.iov(0, ctx.size * ctx.eta)
    segid = yield from ctx.xpmem_expose(iov)
    wins = yield from ctx.sm_allgather(("a2x", op), (segid, iov[0]))
    yield from ctx.memcpy(
        ctx.recvbuf, ctx.rank * ctx.eta, ctx.sendbuf, ctx.rank * ctx.eta, ctx.eta
    )
    eta = ctx.eta
    pow2 = ctx.size & (ctx.size - 1) == 0
    for step in range(1, ctx.size):
        peer = ctx.rank ^ step if pow2 else (ctx.rank - step) % ctx.size
        peer_segid, peer_addr = wins[peer]
        # my block inside peer's sendbuf sits at offset rank*eta
        yield from ctx.xpmem_read(
            peer,
            peer_segid,
            ctx.recvbuf.iov(peer * eta, eta),
            (peer_addr + ctx.rank * eta, eta),
        )
    # nobody may reuse its sendbuf until every peer has read from it
    yield from ctx.sm_barrier(("a2x-fin", op))
