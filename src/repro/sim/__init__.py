"""Discrete-event simulation substrate.

Processes are Python generators scheduled on a single global virtual clock
measured in microseconds.  A process *yields* command objects (``Delay``,
``Acquire``, ``Release``, ``Send``, ``Recv``, ``Join``) and is resumed by the
:class:`~repro.sim.engine.Simulator` when the command completes.  Nested
protocol layers (kernel syscalls, shared-memory transports, collective
algorithms) compose with ``yield from``.

The substrate is deliberately small: an event heap, a FIFO mutex whose
*contenders* are visible to hold-time models (this is how mm-lock cache-line
bouncing is expressed), tagged mailboxes, and a phase tracer that plays the
role ftrace plays in the paper.
"""

from repro.sim.engine import (
    Simulator,
    SimProcess,
    SimError,
    DeadlockError,
    Delay,
    WakeAt,
    DelayChain,
    Acquire,
    Release,
    HoldRelease,
    PinConvoy,
    FaultConvoy,
    Join,
)
from repro.sim.resources import Mutex, Semaphore
from repro.sim.channels import Mailbox, Message, Send, Recv, ANY
from repro.sim.trace import Tracer, Span

__all__ = [
    "Simulator",
    "SimProcess",
    "SimError",
    "DeadlockError",
    "Delay",
    "WakeAt",
    "DelayChain",
    "Acquire",
    "Release",
    "HoldRelease",
    "PinConvoy",
    "FaultConvoy",
    "Join",
    "Mutex",
    "Semaphore",
    "Mailbox",
    "Message",
    "Send",
    "Recv",
    "ANY",
    "Tracer",
    "Span",
]
