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

Both sides are generators; ``p2p_send``/``p2p_recv`` must be driven by the
two ranks involved.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.mpi.communicator import RankCtx

__all__ = ["p2p_send", "p2p_recv", "RNDV_THRESHOLD"]

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
