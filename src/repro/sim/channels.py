"""Tagged mailboxes for inter-process messages.

These carry *control* traffic (buffer addresses, ready/fin notifications,
RTS/CTS rendezvous packets).  Transfer cost is whatever latency the caller
passes to ``Send``; the shared-memory transport layer decides that number.
Matching follows MPI semantics: a receive selects the oldest message whose
(source, tag) match, with ``ANY`` wildcards.

``Send`` and ``Recv`` carry data only: :meth:`Simulator.run
<repro.sim.engine.Simulator.run>` dispatches them itself (and
``Simulator._dispatch`` for a process resumed by an exception).  A send
becomes a ``_K_DELIVER`` record that calls :meth:`Mailbox.deliver`; a
receive scans the queue like :meth:`Mailbox._post`, which the out-of-line
path calls and the run loop open-codes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.engine import Command, SimError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimProcess, Simulator

__all__ = ["ANY", "Message", "Mailbox", "Send", "Recv"]


class _Any:
    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()


class Message:
    """An in-flight or queued control message."""

    __slots__ = ("src", "tag", "payload", "sent_at")

    def __init__(self, src: int, tag: Any, payload: Any, sent_at: float):
        self.src = src
        self.tag = tag
        self.payload = payload
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Message(src={self.src}, tag={self.tag!r}, payload={self.payload!r})"


def _matches(msg: Message, src: Any, tag: Any) -> bool:
    return (src is ANY or msg.src == src) and (tag is ANY or msg.tag == tag)


class Mailbox:
    """Per-process queue of unexpected messages plus posted receives."""

    __slots__ = ("sim", "owner", "_queue", "_posted", "delivered")

    def __init__(self, sim: "Simulator", owner: int):
        self.sim = sim
        self.owner = owner
        self._queue: deque[Message] = deque()
        # posted receives: (proc, src, tag)
        self._posted: deque[tuple["SimProcess", Any, Any]] = deque()
        self.delivered = 0

    def deliver(self, msg: Message) -> None:
        """Called by the engine when a message arrives at this mailbox."""
        self.delivered += 1
        for i, (proc, src, tag) in enumerate(self._posted):
            if _matches(msg, src, tag):
                del self._posted[i]
                self.sim._schedule_resume(0.0, proc, msg)
                return
        self._queue.append(msg)

    def _post(self, proc: "SimProcess", src: Any, tag: Any) -> None:
        """Post a receive: resume ``proc`` with the oldest queued match, or
        wait for :meth:`deliver`.  ``Simulator.run`` open-codes this scan;
        keep both in sync."""
        for i, msg in enumerate(self._queue):
            if _matches(msg, src, tag):
                del self._queue[i]
                self.sim._schedule_resume(0.0, proc, msg)
                return
        self._posted.append((proc, src, tag))

    def reset(self) -> None:
        """Drop queued/posted messages and the delivery counter."""
        self._queue.clear()
        self._posted.clear()
        self.delivered = 0

    @property
    def pending(self) -> int:
        return len(self._queue)


class Send(Command):
    """Deliver ``payload`` to ``mailbox`` after ``latency`` microseconds.

    The sender also burns ``overhead`` microseconds of its own time (the
    software cost of posting the message) before continuing.
    """

    __slots__ = ("mailbox", "src", "tag", "payload", "latency", "overhead")

    def __init__(
        self,
        mailbox: Mailbox,
        src: int,
        tag: Any,
        payload: Any = None,
        latency: float = 0.0,
        overhead: float = 0.0,
    ):
        if latency < 0 or overhead < 0:
            raise SimError("negative message latency/overhead")
        self.mailbox = mailbox
        self.src = src
        self.tag = tag
        self.payload = payload
        self.latency = latency
        self.overhead = overhead


class Recv(Command):
    """Block until a matching message is available; evaluates to it."""

    __slots__ = ("mailbox", "src", "tag")

    def __init__(self, mailbox: Mailbox, src: Any = ANY, tag: Any = ANY):
        self.mailbox = mailbox
        self.src = src
        self.tag = tag
