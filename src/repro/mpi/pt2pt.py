"""Point-to-point transfers: eager shared memory and CMA rendezvous.

This is how state-of-the-art libraries move intra-node messages, and what
the paper's *native* collectives improve on:

* **eager** (small messages): the payload rides shared memory; two copies,
  no handshake.
* **rendezvous** (>= ``RNDV_THRESHOLD``): the classic RTS/CTS protocol.
  The sender posts an RTS carrying its PID + buffer address, the receiver
  answers CTS, performs a single CMA read, then posts FIN.  Three control
  messages per transfer — exactly the overhead the native CMA collectives
  amortise by exchanging addresses once per collective (Fig. 9's CMA-coll
  vs CMA-pt2pt gap).

``p2p_send``/``p2p_recv`` are the two halves of one transfer, each a
generator driven by its own rank.  ``p2p_sendrecv`` is one rank's
combined send-to-one, receive-from-another step (the exchange of ring and
pairwise schedules).  For a rendezvous-size exchange it runs both halves
in the caller's own generator, in the order RTS, receive half, FIN wait,
and elides the CTS:

* the RTS is posted with no sender overhead: the send half's 0.5·t_ctrl
  never shows, because that half then waits at least t_ctrl for its CTS;
* the receive half pays the CTS's 0.5·t_ctrl sender overhead and counts
  the message, but nothing is delivered: the send half's only other wait
  ends at FIN, which its peer posts after the CTS over the same latency,
  so the CTS never bounds when the send half finishes.

Every simulated time, control-message count and CMA read is the same as
for a spawned ``p2p_send``/``p2p_recv`` pair joined by the caller; only
the engine's record count falls (``tests/test_p2p_sendrecv.py``).  That
holds for runs whose mm locks only exchanges take: a rank's buffer is
read again only after the FIN of its previous read, so no lock is ever
contended and the fewer same-time records cannot reorder a grant.  A
foreign reader tying with an exchange on one lock may be granted in a
different order.  An eager-size exchange still spawns the two halves as
helpers, because the shm train interleaves copy delays with credit waits
on both sides.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.mpi.communicator import RankCtx
from repro.sim.engine import Delay, Join

__all__ = ["p2p_send", "p2p_recv", "p2p_sendrecv", "RNDV_THRESHOLD"]

#: switchover from eager (2-copy shm) to rendezvous (1-copy CMA), bytes.
#: The paper cites ~16 KiB as the point where kernel-assisted wins.
RNDV_THRESHOLD = 16 * 1024


def p2p_send(
    ctx: RankCtx,
    dst: int,
    tag: Any,
    buf,
    offset: int = 0,
    nbytes: Optional[int] = None,
    threshold: int = RNDV_THRESHOLD,
) -> Generator:
    """Send ``nbytes`` at ``buf[offset:]`` to rank ``dst``."""
    if nbytes is None:
        nbytes = buf.nbytes - offset
    if nbytes < threshold:
        # eager: data goes through the shared segment
        yield ctx.ctrl_send(dst, ("eager-hdr", tag), payload=nbytes)
        data = (buf, offset) if ctx.node.verify else None
        yield from ctx.shm.send_data(ctx.rank, dst, ("eager", tag), data, nbytes)
        return nbytes
    # rendezvous: RTS carries (pid, addr, len); receiver reads via CMA
    yield ctx.ctrl_send(
        dst,
        ("rts", tag),
        payload=(ctx.pid_of(ctx.rank), buf.addr + offset, nbytes),
    )
    yield ctx.ctrl_recv(dst, ("cts", tag))
    yield ctx.ctrl_recv(dst, ("fin", tag))
    return nbytes


def p2p_recv(
    ctx: RankCtx,
    src: int,
    tag: Any,
    buf,
    offset: int = 0,
    nbytes: Optional[int] = None,
    threshold: int = RNDV_THRESHOLD,
) -> Generator:
    """Receive into ``buf[offset:]`` from rank ``src``."""
    if nbytes is None:
        nbytes = buf.nbytes - offset
    if nbytes < threshold:
        yield ctx.ctrl_recv(src, ("eager-hdr", tag))
        out = (buf, offset) if ctx.node.verify else None
        yield from ctx.shm.recv_data(ctx.rank, src, ("eager", tag), out, nbytes)
        return nbytes
    msg = yield ctx.ctrl_recv(src, ("rts", tag))
    _, src_addr, src_len = msg.payload
    ncopy = min(nbytes, src_len)
    yield ctx.ctrl_send(src, ("cts", tag))
    got = yield from ctx.cma_read(
        src, (buf.addr + offset, ncopy), (src_addr, ncopy)
    )
    yield ctx.ctrl_send(src, ("fin", tag))
    return got


def p2p_sendrecv(
    ctx: RankCtx,
    to: int,
    stag: Any,
    sbuf,
    soff: int,
    frm: int,
    rtag: Any,
    rbuf,
    roff: int,
    nbytes: int,
    threshold: int = RNDV_THRESHOLD,
) -> Generator:
    """Send ``sbuf[soff:soff+nbytes]`` to ``to`` while receiving
    ``nbytes`` from ``frm`` into ``rbuf[roff:]``; ends when both halves do.

    Timed exactly like ``p2p_send`` and ``p2p_recv`` spawned as helpers
    and joined (module docstring).  ``to`` may equal ``frm``, and
    ``stag`` may equal ``rtag``: the two directions meet in different
    mailboxes.
    """
    if nbytes < threshold:
        send = ctx.spawn_helper(
            p2p_send(ctx, to, stag, sbuf, soff, nbytes, threshold), "send"
        )
        recv = ctx.spawn_helper(
            p2p_recv(ctx, frm, rtag, rbuf, roff, nbytes, threshold), "recv"
        )
        yield Join(send)
        yield Join(recv)
        return
    shm = ctx.shm
    me = ctx.rank
    yield shm.ctrl_post(
        me, to, ("rts", stag), (ctx.pid_of(me), sbuf.addr + soff, nbytes)
    )
    msg = yield shm.ctrl_recv(me, frm, ("rts", rtag))
    _, src_addr, src_len = msg.payload
    ncopy = min(nbytes, src_len)
    # the CTS: its sender overhead, counted, never delivered
    shm.ctrl_messages += 1
    yield Delay(ctx.params.t_ctrl * 0.5)
    yield from ctx.cma_read(frm, (rbuf.addr + roff, ncopy), (src_addr, ncopy))
    yield shm.ctrl_send(me, frm, ("fin", rtag))
    yield shm.ctrl_recv(me, to, ("fin", stag))
