"""Shared-memory transport: control messages and pipelined two-copy data.

Control messages model the tiny (pointer-sized) packets collectives use to
exchange buffer addresses and notifications: fixed ``t_ctrl`` delivery
latency, roughly half of it spent as sender-side software overhead.

Data messages model the classic chunked copy through a shared segment:
the sender copies ``shm_chunk``-byte pieces in (cost ``chunk*shm_beta``
plus per-chunk bookkeeping) and the receiver copies them out at the same
rate.  The chunk ring is a single slot: copy-in and copy-out of one message
do *not* overlap.  That is deliberate — in practice the two copies fight
over the shared segment's cache lines, so pipelining buys little, and the
well-known "two-copy" cost of shared memory (the reason kernel-assisted
single-copy wins for large messages, paper Section I) is paid in full.
No kernel involvement, hence no mm-lock contention: this is why
shared-memory Bcast stays competitive below ~2 MB on Broadwell
(Section VII-F).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.shm.segment import SegmentPool
from repro.sim.channels import Mailbox, Recv, Send
from repro.sim.engine import Delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.address_space import Buffer
    from repro.machine.params import ModelParams
    from repro.sim.engine import Simulator

__all__ = ["ShmTransport", "CHUNK_TAGS"]

#: chunk slots per transfer: 1 == copy-in/copy-out fully serialized (see
#: module docstring for why two-copy cost is charged without overlap)
_RING_SLOTS = 1

#: tag namespaces so data chunks never collide with user control tags
CHUNK_TAGS = ("shm-chunk", "shm-credit")


class ShmTransport:
    """Node-wide shared-memory channel between local ranks."""

    def __init__(
        self,
        sim: "Simulator",
        params: "ModelParams",
        nranks: int,
        verify: bool = True,
    ):
        self.sim = sim
        self.params = params
        self.verify = verify
        self.mailboxes = [Mailbox(sim, owner=r) for r in range(nranks)]
        self.segment = SegmentPool(sim, params, params.shm_segment_slots)
        self.ctrl_messages = 0

    def reset(self) -> None:
        """Empty all mailboxes, restore segment slots, zero the ctrl count."""
        for mb in self.mailboxes:
            mb.reset()
        self.segment.reset()
        self.ctrl_messages = 0

    def mailbox(self, rank: int) -> Mailbox:
        return self.mailboxes[rank]

    # -- control plane ---------------------------------------------------------

    def ctrl_send(
        self, src: int, dst: int, tag: Any, payload: Any = None
    ) -> Send:
        """Command: post one small control message (addresses, ready, fin)."""
        self.ctrl_messages += 1
        t = self.params.t_ctrl
        return Send(
            self.mailboxes[dst],
            src=src,
            tag=tag,
            payload=payload,
            latency=t,
            overhead=t * 0.5,
        )

    def ctrl_send_flag(
        self, src: int, dst: int, tag: Any, payload: Any = None
    ) -> Send:
        """Command: a flag-store notification (release counter in the
        segment).  The writer pays nothing per watcher — readers poll —
        so unlike :meth:`ctrl_send` there is no sender-side overhead."""
        return Send(
            self.mailboxes[dst],
            src=src,
            tag=tag,
            payload=payload,
            latency=self.params.t_ctrl * 0.5,
            overhead=0.0,
        )

    def ctrl_recv(self, me: int, src: Any, tag: Any) -> Recv:
        """Command: block for a matching control message."""
        return Recv(self.mailboxes[me], src=src, tag=tag)

    # -- two-copy data plane ---------------------------------------------------

    def send_data(
        self,
        src: int,
        dst: int,
        tag: Any,
        data: Optional[tuple["Buffer", int]],
        nbytes: int,
    ) -> Generator:
        """Copy ``nbytes`` into the segment chunk by chunk (sender side).

        ``data`` is the ``(buffer, offset)`` the message starts at; each
        chunk carries the run list of its bytes, read when the chunk is
        copied in.  It may be None in timing-only mode (``verify=False``).
        Flow control: at most ``_RING_SLOTS`` chunks in flight; the receiver
        returns credits as it drains them.
        """
        p = self.params
        chunk = p.shm_chunk
        sent = 0
        seq = 0
        in_flight = 0
        while sent < nbytes:
            n = min(chunk, nbytes - sent)
            if in_flight >= _RING_SLOTS:
                yield Recv(self.mailboxes[src], src=dst, tag=("shm-credit", tag))
                in_flight -= 1
            # claim a slot in the node's eager pool (blocks on exhaustion)
            yield self.segment.acquire_slot()
            # copy-in: one pass over the chunk at shm bandwidth
            yield Delay(n * p.shm_beta + p.shm_chunk_overhead)
            payload = None
            if self.verify and data is not None:
                buf, off = data
                payload = buf.read(off + sent, n)
            yield Send(
                self.mailboxes[dst],
                src=src,
                tag=("shm-chunk", tag, seq),
                payload=(payload, n),
                latency=0.0,
            )
            in_flight += 1
            sent += n
            seq += 1
        while in_flight > 0:
            yield Recv(self.mailboxes[src], src=dst, tag=("shm-credit", tag))
            in_flight -= 1
        return sent

    def recv_data(
        self,
        me: int,
        src: int,
        tag: Any,
        out: Optional[tuple["Buffer", int]],
        nbytes: int,
    ) -> Generator:
        """Receive a chunked shm transfer (receiver side); returns bytes.

        ``out`` is the ``(buffer, offset)`` the chunks' runs are written
        to as each is copied out, or None in timing-only mode.
        """
        p = self.params
        got = 0
        seq = 0
        while got < nbytes:
            msg = yield Recv(self.mailboxes[me], src=src, tag=("shm-chunk", tag, seq))
            payload, n = msg.payload
            # copy-out: second pass over the chunk
            yield Delay(n * p.shm_beta + p.shm_chunk_overhead)
            if self.verify and out is not None and payload is not None:
                buf, off = out
                buf.write(off + got, payload)
            # chunk drained: return the segment slot, credit the sender
            yield self.segment.release_slot()
            yield Send(
                self.mailboxes[src],
                src=me,
                tag=("shm-credit", tag),
                latency=0.0,
            )
            got += n
            seq += 1
        return got
