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

Each transfer owns its ring; there is no node-wide eager pool.  That is
how the baseline libraries lay out their eager buffers too (MVAPICH2 and
Intel MPI give each pair of ranks its own queue), so a dense two-copy
Alltoall pays its two copies per message but never queues on another
pair's slots.

With one slot a multi-chunk transfer is a strict ping-pong: after chunk 0
the sender and the receiver take turns adding ``n*shm_beta +
shm_chunk_overhead`` to the clock, and they share no state with any
other flow (chunks and credits match on the transfer's own tag).  So the
train is *collapsed*: chunk 0 goes exactly as in the per-chunk protocol
but carries the whole message's runs, the receiver folds the remaining
turns into one absolute wake-up (:class:`~repro.sim.engine.WakeAt`) and
then runs the same end cascade (write, final credit).  It is exact
because the fold is the same float additions in the same order as the
per-chunk delays, the end cascade is unchanged, and with no shared slot
state nothing outside the pair can observe or delay the turns in
between.  The per-chunk loop stays as the test oracle
(:attr:`ShmTransport.collapse`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.channels import Mailbox, Recv, Send
from repro.sim.engine import Delay, WakeAt

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
        self.ctrl_messages = 0
        #: collapse multi-chunk trains (module docstring); tests switch it
        #: off to run the per-chunk loop as the oracle
        self.collapse = True

    def reset(self) -> None:
        """Empty all mailboxes and zero the ctrl count."""
        for mb in self.mailboxes:
            mb.reset()
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
            self.mailboxes[dst], src, tag, payload, latency=t, overhead=t * 0.5
        )

    def ctrl_post(
        self, src: int, dst: int, tag: Any, payload: Any = None
    ) -> Send:
        """Command: a counted control message whose sender goes on at once.

        Delivered like :meth:`ctrl_send`, but the sender-side overhead is
        not charged: for a caller that next waits at least ``t_ctrl`` for
        a reply, it would end before that wait does."""
        self.ctrl_messages += 1
        return Send(
            self.mailboxes[dst], src, tag, payload, latency=self.params.t_ctrl
        )

    def ctrl_send_flag(
        self, src: int, dst: int, tag: Any, payload: Any = None
    ) -> Send:
        """Command: a flag-store notification (release counter in the
        segment).  The writer pays nothing per watcher — readers poll —
        so unlike :meth:`ctrl_send` there is no sender-side overhead."""
        return Send(
            self.mailboxes[dst],
            src,
            tag,
            payload,
            latency=self.params.t_ctrl * 0.5,
            overhead=0.0,
        )

    def ctrl_recv(self, me: int, src: Any, tag: Any) -> Recv:
        """Command: block for a matching control message."""
        return Recv(self.mailboxes[me], src, tag)

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
        returns credits as it drains them.  A collapsed train is one
        chunk-0 message carrying all ``nbytes``, timed as chunk 0.
        """
        p = self.params
        chunk = p.shm_chunk
        train = self.collapse and nbytes > chunk
        sent = 0
        seq = 0
        in_flight = 0
        while sent < nbytes:
            n = nbytes if train else min(chunk, nbytes - sent)
            if in_flight >= _RING_SLOTS:
                yield Recv(self.mailboxes[src], src=dst, tag=("shm-credit", tag))
                in_flight -= 1
            # copy-in: one pass over the chunk at shm bandwidth
            yield Delay(min(n, chunk) * p.shm_beta + p.shm_chunk_overhead)
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
        to as each is copied out, or None in timing-only mode.  A chunk
        longer than ``shm_chunk`` is a collapsed train: the receiver wakes
        where the per-chunk ping-pong would have ended.
        """
        p = self.params
        chunk = p.shm_chunk
        got = 0
        seq = 0
        while got < nbytes:
            msg = yield Recv(self.mailboxes[me], src=src, tag=("shm-chunk", tag, seq))
            payload, n = msg.payload
            if n <= chunk:
                # copy-out: second pass over the chunk
                yield Delay(n * p.shm_beta + p.shm_chunk_overhead)
            else:
                # chunk 0's copy-out, then copy-in and copy-out of each
                # later chunk: the per-chunk delays' additions, in order
                beta = p.shm_beta
                ovh = p.shm_chunk_overhead
                full = chunk * beta + ovh
                t = self.sim.now + full
                for _ in range(n // chunk - 1):
                    t += full
                    t += full
                rem = n % chunk
                if rem:
                    c = rem * beta + ovh
                    t += c
                    t += c
                yield WakeAt(t)
            if self.verify and out is not None and payload is not None:
                buf, off = out
                buf.write(off + got, payload)
            # chunk drained: credit the sender
            yield Send(
                self.mailboxes[src],
                src=me,
                tag=("shm-credit", tag),
                latency=0.0,
            )
            got += n
            seq += 1
        return got
