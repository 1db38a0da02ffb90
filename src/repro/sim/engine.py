"""Event loop and process model for the discrete-event simulator.

The design follows the classic process-interaction style (SimPy-like) but is
purpose-built and dependency-free:

* Time is a ``float`` in **microseconds** — the unit used throughout the
  paper's tables and our model parameters.
* A :class:`SimProcess` wraps a generator.  Each ``yield`` hands a *command*
  to the engine; the engine schedules the resumption.  ``return value`` from
  the generator becomes the process result (retrievable via ``Join``).
* Every resumption is still an *event* — there is no re-entrancy and no
  unbounded recursion when locks are released — but zero-delay resumptions
  (spawns, lock grants, release continuations, join wakeups, message
  notifications) ride a FIFO **ready deque** instead of the time heap, and
  events are closure-free ``(time, seq, kind, a, b)`` dispatch records
  rather than lambda allocations.

Ordering is *identical* to a pure-heap engine: a global monotonic sequence
number is allocated at the moment an event is scheduled (exactly where the
old heap push happened), and the run loop merges the deque and the heap by
``(time, seq)``.  Since every ready entry carries the current timestamp and
sequence numbers are allocated in order, the deque is always seq-sorted and
the merge reproduces heap order bit-for-bit — the engine's event
interleaving (and therefore every simulated microsecond downstream, via
FIFO lock queues) is unchanged.  ``Simulator(use_ready_queue=False)`` routes
zero-delay records through the heap instead, which
``tests/test_engine_ordering.py`` uses to assert the equivalence on random
workloads.

The engine knows nothing about machines, kernels, or MPI — those layers are
implemented as generators that run *on* it.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

import numpy as np

__all__ = [
    "SimError",
    "DeadlockError",
    "Delay",
    "WakeAt",
    "DelayChain",
    "HoldRelease",
    "Acquire",
    "Release",
    "Join",
    "PinConvoy",
    "FaultConvoy",
    "PhaseCommand",
    "RingStage",
    "TreeRound",
    "PairwiseExchange",
    "SimProcess",
    "Simulator",
]


class SimError(RuntimeError):
    """Base class for simulation protocol errors."""


class DeadlockError(SimError):
    """Raised when the event heap drains while processes are still blocked."""


# --------------------------------------------------------------------------
# Commands.  Plain slotted classes: created in hot loops.
# --------------------------------------------------------------------------


class Command:
    """Marker base class for values a process may yield to the engine."""

    __slots__ = ()


class Delay(Command):
    """Suspend the yielding process for ``dt`` microseconds of virtual time."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise SimError(f"negative delay {dt!r}")
        self.dt = dt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay({self.dt})"


class WakeAt(Command):
    """Suspend the yielding process until absolute virtual time ``t``.

    For a process that folded a run of delays itself: ``t`` is the exact
    float the chain of ``now + dt`` additions would reach, which
    ``Delay(t - now)`` would not reproduce.  Dispatched through
    :meth:`Simulator._dispatch`; not a hot command.
    """

    __slots__ = ("t",)

    def __init__(self, t: float):
        self.t = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WakeAt({self.t})"


class DelayChain(Command):
    """Two back-to-back delays in one engine round-trip.

    With ``d2 > 0`` this produces the *same* event stream as
    ``yield Delay(d1); yield Delay(d2)`` — same timestamps, same tie-breaker
    sequence numbers, same event count — minus one generator resumption:
    the intermediate event is a chain record, not a ``send``.  With
    ``d2 == 0`` the second hop is skipped entirely (the continuation runs
    inside the first event), making it equivalent to ``Delay(d1)`` alone.
    The kernel fast path uses this for the syscall-entry + access-check
    pair, which brackets no observable state.
    """

    __slots__ = ("d1", "d2")

    def __init__(self, d1: float, d2: float):
        if d1 < 0 or d2 < 0:
            raise SimError(f"negative delay in chain ({d1!r}, {d2!r})")
        self.d1 = d1
        self.d2 = d2

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DelayChain({self.d1}, {self.d2})"


class HoldRelease(Command):
    """Hold ``lock`` for ``dt`` more microseconds, release it, then resume
    after a further ``extra_dt``.

    Event-stream-identical to ``yield Delay(dt); yield Release(lock)``
    (followed by ``yield Delay(extra_dt)`` when ``extra_dt > 0``), but the
    delay-then-release hop is a dispatch record instead of a generator
    resumption: the release (and the FIFO grant to the next waiter) happens
    at exactly the same timestamp and sequence position as before.  The
    kernel uses this for the pin critical section so an uncontended batch
    costs two generator resumptions instead of four.
    """

    __slots__ = ("lock", "dt", "extra_dt")

    def __init__(self, lock, dt: float, extra_dt: float = 0.0):
        if dt < 0 or extra_dt < 0:
            raise SimError(f"negative delay in hold ({dt!r}, {extra_dt!r})")
        self.lock = lock
        self.dt = dt
        self.extra_dt = extra_dt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HoldRelease({self.lock!r}, {self.dt}, {self.extra_dt})"


class Acquire(Command):
    """Block until the given :class:`~repro.sim.resources.Mutex` is granted."""

    __slots__ = ("lock",)

    def __init__(self, lock):
        self.lock = lock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Acquire({self.lock!r})"


class Release(Command):
    """Release a held mutex (the engine resumes the next waiter, FIFO)."""

    __slots__ = ("lock",)

    def __init__(self, lock):
        self.lock = lock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Release({self.lock!r})"


class PinConvoy(Command):
    """Run a whole ``Acquire -> HoldRelease`` pin loop as engine records.

    Yielded once per pin loop (by :meth:`repro.kernel.pagelock.MMLock.
    lock_and_pin` and the untraced CMA data path) instead of one
    ``Acquire`` + ``HoldRelease`` pair per batch.  ``batches`` is the
    precomputed plan — a sequence of ``(pages, extra_dt)`` with the batch
    size and the post-release continuation delay (the batch's pro-rata
    copy share; ``extra_dt`` must be non-negative) — and ``hold_fn(pages,
    proc)`` computes the critical-section length *at grant time*, against
    live mutex state, exactly where the unfused generator computed it.

    The event stream is bit-identical to the unfused loop — same
    timestamps, FIFO grant order, tie-breaker sequence numbers, and event
    counts — but every per-batch hop is a dispatch record instead of a
    generator resumption, and while the lock's contender set consists
    only of convoy members the engine fast-forwards whole epochs in a
    local loop (see :meth:`Simulator._convoy_burst`).  The command
    evaluates to ``npages``.  ``mm`` (optional) is a counter object whose
    ``pages_pinned`` attribute is bumped by ``pages`` at each batch's
    rejoin point, mirroring the unfused bookkeeping position.

    ``memo`` (optional) is a hold-time memo dict owned by the caller.
    Passing it asserts that ``hold_fn(pages, proc)`` is a *pure* function
    of ``(pages, lock.contention_profile(proc.socket))`` — true for the
    mm-lock bounce model, whose only inputs are the batch size and the
    per-socket contender split.  The engine then caches hold values
    under that key: in a steady convoy the contender profile repeats
    every round, so the Python-level ``hold_fn`` call collapses to a
    dict hit returning the exact float it would have computed.

    ``pure`` (derived) is True when every ``extra_dt`` is ``0.0`` — a
    *pure pin loop* (no interleaved copies).  For pure convoys nothing
    is ever in flight except the current holder's release, so the epoch
    fast-forward can run rounds as straight-line code with no heap at
    all (the closed form of the steady state).
    """

    __slots__ = ("lock", "hold_fn", "batches", "mm", "npages", "memo", "pure")

    def __init__(self, lock, hold_fn, batches, mm=None, npages: int = 0,
                 memo=None):
        if not batches:
            raise SimError("PinConvoy needs at least one batch")
        self.lock = lock
        self.hold_fn = hold_fn
        self.batches = batches
        self.mm = mm
        self.npages = npages
        self.memo = memo
        pure = True
        for _, extra in batches:
            if extra != 0.0:
                pure = False
                break
        self.pure = pure

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PinConvoy({self.lock!r}, {len(self.batches)} batches)"


class FaultConvoy(PinConvoy):
    """A pin convoy fused with a trailing pin-free delay (``tail_dt``).

    The mapped-window kernel's cold-copy fast path: per-page fault-ins
    contend on the owner's mm lock exactly like a :class:`PinConvoy`
    (``batches`` is one single-page batch per faulted page), and the
    steady-state copy that follows never touches the lock — it is a plain
    delay after the last rejoin.  Yielding ``FaultConvoy(..., tail_dt=t)``
    is event-stream-identical to ``yield PinConvoy(...)`` followed by
    ``yield Delay(t)`` — the resume record is allocated at the exact
    causal point the unfused ``Delay`` push happened, with the same
    timestamp arithmetic — minus one generator resumption.  The command
    evaluates to ``npages``.  ``tail_dt == 0.0`` degenerates to plain
    :class:`PinConvoy` behaviour (inline resume at the last rejoin).
    """

    __slots__ = ("tail_dt",)

    def __init__(self, lock, hold_fn, batches, mm=None, npages: int = 0,
                 memo=None, tail_dt: float = 0.0):
        super().__init__(lock, hold_fn, batches, mm=mm, npages=npages,
                         memo=memo)
        if tail_dt < 0:
            raise SimError(f"negative tail delay {tail_dt!r}")
        self.tail_dt = tail_dt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultConvoy({self.lock!r}, {len(self.batches)} batches, "
            f"tail={self.tail_dt})"
        )


class PhaseCommand(Command):
    """A whole uncontended collective phase, fused into one dispatch.

    Emitters yield one of the shape subclasses — :class:`RingStage`,
    :class:`TreeRound`, :class:`PairwiseExchange` — carrying the phase's
    straight-line schedule as a list of *segments*, each the fused image
    of exactly one command the per-step path would have yielded:

    * ``PhaseCommand.chain(d1, d2, cb)`` — one :class:`DelayChain` (or, with
      ``d2 == 0``, one :class:`Delay`);
    * ``PhaseCommand.pin(lock, hold_fn, batches, ...)`` — one
      :class:`PinConvoy`.

    ``cb`` (optional, zero-argument) runs at the segment's completion —
    the exact causal point the unfused generator resumption would have run
    the same Python side effects (verify copies, kernel counters).  A
    ``cb`` must not schedule events or touch engine state; it is pure
    bookkeeping lifted out of the generator.

    The engine replays the segment list record-for-record: sequence
    numbers are allocated at the same causal points, the float additions
    (``now + d1``, ``now + hold``) happen in the same order on the same
    operands, and lock traffic goes through the same mutex transitions —
    so timestamps, FIFO grant order, lock statistics and event counts are
    bit-identical to the per-step path (the four-mode differential
    battery in ``tests/test_phases.py`` enforces this).  Only the
    generator stays parked until the last segment; the command then
    evaluates to ``value``.

    Phases are only *emitted* for untraced, fault-free schedules (see
    ``RankCtx.phase_fusible``): tracing wants a span per step and an armed
    fault plan can rewrite any step, so both force the per-step path.

    ``delay_only`` (derived) is True when every segment is a chain with
    ``d2 == 0`` — a pure delay run, the shape the opt-in vectorized batch
    executor (``REPRO_ENGINE_BATCH``) can drain with one cumulative sum.
    """

    __slots__ = ("segments", "value", "delay_only")

    def __init__(self, segments, value: Any = None):
        if not segments:
            raise SimError(f"{type(self).__name__} needs at least one segment")
        delay_only = True
        for seg in segments:
            tag = seg[0]
            if tag == "c":
                if seg[1] < 0 or seg[2] < 0:
                    raise SimError(f"negative delay in phase segment {seg!r}")
                if seg[2] != 0.0:
                    delay_only = False
            elif tag == "p":
                if not seg[3]:
                    raise SimError("phase pin segment needs at least one batch")
                delay_only = False
            else:
                raise SimError(f"unknown phase segment tag {tag!r}")
        self.segments = segments
        self.value = value
        self.delay_only = delay_only

    @staticmethod
    def chain(d1: float, d2: float = 0.0, cb=None) -> tuple:
        """Segment equal to ``yield DelayChain(d1, d2)`` (``Delay`` if d2==0)."""
        return ("c", d1, d2, cb)

    @staticmethod
    def pin(lock, hold_fn, batches, mm=None, npages: int = 0, memo=None,
            cb=None) -> tuple:
        """Segment equal to ``yield PinConvoy(lock, hold_fn, batches, ...)``."""
        pure = True
        for _, extra in batches:
            if extra != 0.0:
                pure = False
                break
        return ("p", lock, hold_fn, batches, mm, npages, memo, pure, cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({len(self.segments)} segments)"


class RingStage(PhaseCommand):
    """Fused ring/pipeline stage: one rank's p-1 neighbour transfers."""

    __slots__ = ()


class TreeRound(PhaseCommand):
    """Fused tree round: one rank's fan-out (or fan-in) transfer burst."""

    __slots__ = ()


class PairwiseExchange(PhaseCommand):
    """Fused pairwise-exchange schedule: one rank's p-1 peer exchanges."""

    __slots__ = ()


class Join(Command):
    """Block until another process finishes; evaluates to its return value."""

    __slots__ = ("proc",)

    def __init__(self, proc: "SimProcess"):
        self.proc = proc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Join({self.proc!r})"


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"
_FAILED = "failed"

# Dispatch-record kinds.  An event is (time, seq, kind, a, b) on the heap or
# (seq, kind, a, b) on the ready deque; ``a``/``b`` are kind-specific:
_K_RESUME = 0   # a=proc,    b=value      -> gen.send(value)
_K_THROW = 1    # a=proc,    b=exc        -> gen.throw(exc)
_K_CALL = 2     # a=fn,      b=None       -> fn()           (public schedule())
_K_DELIVER = 3  # a=mailbox, b=msg        -> mailbox.deliver(msg)
_K_CHAIN = 4    # a=proc,    b=d2         -> resume now (d2==0) or in d2
_K_RELEASE = 5  # a=proc,    b=(lock, d2) -> release lock, then chain d2
# Convoy records (a=_Convoy, b=None): the four hops of one pin batch.  They
# shadow the unfused stream record-for-record — grant (_K_RESUME there),
# release (_K_RELEASE), chain (_K_CHAIN), rejoin (_K_RESUME) — so counts
# and sequence-number allocation points are identical; only the generator
# stays parked until the last batch.
_K_CGRANT = 6    # lock granted: compute hold_time, schedule the release
_K_CRELEASE = 7  # hold elapsed: release the lock, chain to the rejoin
_K_CCHAIN = 8    # post-release: rejoin now (extra==0) or after extra
_K_CREJOIN = 9   # batch done: count pages, next acquire or resume the proc
# Phase records (a=_Phase): one chain segment of a fused PhaseCommand.  They
# shadow the unfused stream exactly like the convoy records do — _K_PCHAIN
# is the fused image of _K_CHAIN, _K_PSTEP of the trailing _K_RESUME — so
# counts and sequence-number allocation points are identical.
_K_PCHAIN = 10  # a=phase, b=d2 -> advance now (d2==0) or step in d2
_K_PSTEP = 11   # a=phase, b=None -> segment done: run cb, schedule the next


class FoldBump:
    """Counter-bump completion callback the batch drain may fold.

    Phase completion callbacks are opaque to the drain, which must run
    each one at its exact merge position (interleaving the bulk
    sequence draws, in case one raises or observes mid-drain state).
    Kernels use this class for the common untraced/unverified callback
    — a bare syscall-counter bump — to declare it pure arithmetic:
    calling it ``n`` times equals one ``bump(n)``, it cannot raise, and
    it reads nothing, so the drain may defer and batch every call after
    the window commits wholesale.
    """

    __slots__ = ("obj", "attr")

    drain_fold = True

    def __init__(self, obj, attr: str) -> None:
        self.obj = obj
        self.attr = attr

    def __call__(self) -> None:
        obj = self.obj
        setattr(obj, self.attr, getattr(obj, self.attr) + 1)

    def bump(self, n: int) -> None:
        obj = self.obj
        setattr(obj, self.attr, getattr(obj, self.attr) + n)


class _Convoy:
    """Engine-side state of one process's in-flight :class:`PinConvoy`.

    ``phase`` is non-None when the convoy is a pin *segment* of an
    in-flight :class:`PhaseCommand`: the mutex grant routing is identical
    (grants look at ``proc.convoy``), but the last rejoin advances the
    phase instead of resuming the generator.  Phase convoys never carry a
    tail (the cold mapped-window path is not fused).
    """

    __slots__ = ("proc", "lock", "hold_fn", "batches", "idx", "mm", "npages",
                 "memo", "pure", "tail", "phase")

    def __init__(self, proc: "SimProcess", cmd: PinConvoy):
        self.proc = proc
        self.lock = cmd.lock
        self.hold_fn = cmd.hold_fn
        self.batches = cmd.batches
        self.idx = 0
        self.mm = cmd.mm
        self.npages = cmd.npages
        self.memo = cmd.memo
        self.pure = cmd.pure
        self.tail = getattr(cmd, "tail_dt", 0.0)
        self.phase = None

    @classmethod
    def _for_phase(cls, proc: "SimProcess", seg: tuple, phase: "_Phase"):
        """Build the convoy for a phase pin segment (see PhaseCommand.pin)."""
        c = cls.__new__(cls)
        c.proc = proc
        c.lock = seg[1]
        c.hold_fn = seg[2]
        c.batches = seg[3]
        c.idx = 0
        c.mm = seg[4]
        c.npages = seg[5]
        c.memo = seg[6]
        c.pure = seg[7]
        c.tail = 0.0
        c.phase = phase
        return c


class _Phase:
    """Engine-side state of one process's in-flight :class:`PhaseCommand`."""

    __slots__ = ("proc", "segments", "idx", "value", "delay_only")

    def __init__(self, proc: "SimProcess", cmd: PhaseCommand):
        self.proc = proc
        self.segments = cmd.segments
        self.idx = 0
        self.value = cmd.value
        self.delay_only = cmd.delay_only


def _drain_seq_before(ea, eb) -> bool:
    """Scalar draw order of two drain records parked at the same time.

    A parked successor's seq is drawn when its predecessor is processed,
    so the heap tie between two same-time parked records resolves by the
    processing order of the predecessors: the earlier-timestamped one
    first, and at equal timestamps the question recurses to *their*
    predecessors — i.e. the reversed per-phase drained-time histories
    compare lexicographically.  When one history is a suffix of the
    other, the shorter phase's chain bottomed out at its pre-drain entry
    record, whose seq predates every drain draw; two entries compare by
    their real heap seqs.
    """
    pa, na = ea[5], ea[6]
    pb, nb = eb[5], eb[6]
    m = na if na < nb else nb
    if m:
        ca = pa["times"][na - m:na]
        cb = pb["times"][nb - m:nb]
        neq = ca != cb
        if neq.any():
            k = int(m - 1 - neq[::-1].argmax())
            return bool(ca[k] < cb[k])
    if na != nb:
        return na < nb
    return pa["rec"][1] < pb["rec"][1]


class _HistKey:
    """Sort key adapter over :func:`_drain_seq_before`."""

    __slots__ = ("e",)

    def __init__(self, e):
        self.e = e

    def __lt__(self, other) -> bool:
        return _drain_seq_before(self.e, other.e)


class SimProcess:
    """A schedulable coroutine plus the placement metadata layers hang off it.

    ``socket``/``core`` are assigned by the machine layer when the process is
    pinned; the mm-lock bounce model reads them straight off contenders, so
    they live here rather than in a side table.
    """

    __slots__ = (
        "sim",
        "gen",
        "name",
        "pid",
        "socket",
        "core",
        "state",
        "result",
        "error",
        "finish_time",
        "convoy",
        "_joiners",
        "_send",
        "_gthrow",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str, pid: int):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.pid = pid
        self.socket: int = 0
        self.core: int = 0
        self.state = _READY
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finish_time: Optional[float] = None
        #: in-flight PinConvoy state; mutexes route grants on it
        self.convoy: Optional[_Convoy] = None
        self._joiners: list[SimProcess] = []
        # Bound once: every resumption would otherwise pay two attribute
        # lookups (proc.gen.send) in the hottest line of the simulator.
        self._send = gen.send
        self._gthrow = gen.throw

    @property
    def done(self) -> bool:
        return self.state in (_DONE, _FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimProcess {self.name} pid={self.pid} {self.state}>"


class Simulator:
    """Single-clock event engine.

    Typical use::

        sim = Simulator()
        p = sim.spawn(worker(), name="w0")
        sim.run()
        assert p.done

    ``use_ready_queue=False`` disables the zero-delay fast path (every
    record goes through the heap); results are identical, only slower —
    the differential stress test relies on this.  ``use_pin_convoy=False``
    tells the kernel layers to keep their per-batch ``Acquire``/
    ``HoldRelease`` loops instead of yielding :class:`PinConvoy`, and
    ``use_convoy_burst=False`` keeps PinConvoy in record-at-a-time mode
    (no epoch fast-forward); all four combinations are bit-identical —
    the convoy differential battery relies on this.

    The phase layer has the same three-way split: ``use_phase_fusion=False``
    tells the schedule emitters to keep their per-step loops instead of
    yielding :class:`RingStage`/:class:`TreeRound`/:class:`PairwiseExchange`,
    ``use_phase_burst=False`` keeps phase records in record-at-a-time mode
    (no local fast-forward loop), and ``use_batch_executor`` opts into the
    numpy-vectorized drain of delay-only phase runs and same-timestamp
    step cohorts (default: the ``REPRO_ENGINE_BATCH`` environment
    variable).  All combinations are bit-identical — the phase
    differential battery relies on this.
    """

    def __init__(
        self,
        max_events: int = 200_000_000,
        use_ready_queue: bool = True,
        use_pin_convoy: bool = True,
        use_convoy_burst: bool = True,
        use_phase_fusion: bool = True,
        use_phase_burst: bool = True,
        use_batch_executor: Optional[bool] = None,
    ):
        self.now: float = 0.0
        self.max_events = max_events
        self.events_processed = 0
        self._heap: list[tuple] = []
        self._ready: deque[tuple] = deque()
        self._use_ready = use_ready_queue
        self.use_pin_convoy = use_pin_convoy
        self._use_burst = use_convoy_burst
        self.use_phase_fusion = use_phase_fusion
        self._use_pburst = use_phase_burst
        if use_batch_executor is None:
            use_batch_executor = os.environ.get(
                "REPRO_ENGINE_BATCH", ""
            ) not in ("", "0")
        self._np = np if use_batch_executor else None
        #: per-(entry shape, segment identities) reusable drain plans: warm
        #: collective rounds re-enter :meth:`_phase_drain` with the exact
        #: same (kernel-cached, hence id-stable) segment objects, so the
        #: expensive stream walk amortizes to one build per shape.  Values
        #: hold strong references to every object their keys name by id,
        #: so a key match implies identity (ids cannot be recycled while
        #: the plan pins them).
        self._drain_plans: dict = {}
        self._seq = itertools.count()
        self._pid_counter = itertools.count(1000)  # PIDs look like real PIDs
        self._procs: list[SimProcess] = []

    def reset(self) -> None:
        """Return the engine to its freshly-constructed state.

        Restarting ``_seq`` at zero is the load-bearing part: sequence
        numbers are the same-timestamp tie-breaker, so a warm engine must
        hand out the exact sequence stream a fresh engine would or event
        ordering (and every simulated microsecond downstream) diverges.
        """
        self.now = 0.0
        self.events_processed = 0
        self._heap.clear()
        self._ready.clear()
        self._seq = itertools.count()
        self._pid_counter = itertools.count(1000)
        self._procs.clear()

    # -- scheduling --------------------------------------------------------

    def _push(self, dt: float, kind: int, a: Any, b: Any) -> None:
        """Schedule one dispatch record at ``now + dt``.

        The sequence number is allocated *here*, at the exact program point
        the old engine pushed its heap entry, so same-timestamp tie-breaking
        is unchanged.  Zero-delay records go to the FIFO ready deque, whose
        entries all carry the current timestamp; the run loop merges deque
        and heap by (time, seq).
        """
        if dt == 0.0 and self._use_ready:
            self._ready.append((next(self._seq), kind, a, b))
        else:
            heapq.heappush(self._heap, (self.now + dt, next(self._seq), kind, a, b))

    def _schedule_resume(self, dt: float, proc: "SimProcess", value: Any) -> None:
        """Resume ``proc`` with ``value`` after ``dt`` (resources/channels).

        Open-codes :meth:`_push`: this is the lock-grant / message-wakeup
        path, hot enough that the extra method call shows up in profiles.
        """
        if dt == 0.0 and self._use_ready:
            self._ready.append((next(self._seq), _K_RESUME, proc, value))
        else:
            heapq.heappush(
                self._heap, (self.now + dt, next(self._seq), _K_RESUME, proc, value)
            )

    def _schedule_throw(self, dt: float, proc: "SimProcess", exc: BaseException) -> None:
        """Resume ``proc`` by raising ``exc`` inside it after ``dt``."""
        self._push(dt, _K_THROW, proc, exc)

    def _schedule_deliver(self, dt: float, mailbox, msg) -> None:
        """Deliver ``msg`` to ``mailbox`` after ``dt`` (channel transit)."""
        self._push(dt, _K_DELIVER, mailbox, msg)

    def schedule(self, dt: float, fn: Callable[[], None]) -> None:
        """Run callback ``fn`` at ``now + dt``."""
        if dt < 0:
            raise SimError(f"cannot schedule in the past (dt={dt})")
        self._push(dt, _K_CALL, fn, None)

    def spawn(
        self,
        gen: Generator,
        name: Optional[str] = None,
        pid: Optional[int] = None,
        socket: int = 0,
        core: int = 0,
    ) -> SimProcess:
        """Register a generator as a process; it starts at the current time.

        ``pid``/``socket``/``core`` let the MPI layer spawn work *as* an
        existing logical rank (same address space, same placement).
        """
        if pid is None:
            pid = next(self._pid_counter)
        proc = SimProcess(self, gen, name or f"proc{pid}", pid)
        proc.socket = socket
        proc.core = core
        self._procs.append(proc)
        self._push(0.0, _K_RESUME, proc, None)
        return proc

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queues; returns the final clock value.

        Events scheduled at exactly ``until`` still run (including any
        zero-delay cascade they trigger); the clock parks at ``until`` when
        the next pending event lies beyond it.  Raises
        :class:`DeadlockError` if processes remain blocked with no pending
        events, which in this codebase always indicates a protocol bug
        (e.g. a collective waiting for a notification nobody sends).
        """
        heap = self._heap
        ready = self._ready
        ready_append = ready.append
        ready_pop = ready.popleft
        heappop = heapq.heappop
        heappush = heapq.heappush
        next_seq = self._seq.__next__
        use_ready = self._use_ready
        use_burst = self._use_burst
        use_pburst = self._use_pburst
        max_events = self.max_events
        throw = self._throw
        push = self._push
        finish = self._finish
        dispatch = self._dispatch
        n = self.events_processed
        now = self.now
        if until is not None and now > until and (heap or ready):
            # Clock already past the horizon (a previous run() parked it
            # later): nothing to do, pending work stays pending.
            self.now = until
            return until
        try:
            while heap or ready:
                if ready and (
                    not heap or heap[0][0] > now or heap[0][1] > ready[0][0]
                ):
                    _, kind, a, b = ready_pop()
                else:
                    entry = heap[0]
                    t = entry[0]
                    if until is not None and t > until:
                        self.now = until
                        return until
                    heappop(heap)
                    self.now = now = t
                    kind = entry[2]
                    a = entry[3]
                    b = entry[4]
                n += 1
                if n > max_events:
                    raise SimError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                # Kind dispatch.  The resume path (and the commands a resumed
                # process most often yields) is open-coded below instead of
                # calling _resume/_dispatch/_push: three method calls per
                # event is the difference between ~1.0M and ~1.5M events/sec.
                # The scheduling effects are line-for-line those of
                # _dispatch — keep both in sync.
                if kind == _K_RESUME:
                    proc = a
                    value = b
                elif kind == _K_CHAIN:
                    # Continuation of a fused record: with no second delay
                    # the process resumes inside this very event (exactly
                    # where the unfused engine ran its send); otherwise the
                    # next hop is scheduled just like a yielded Delay.
                    if b == 0.0:
                        proc = a
                        value = None
                    else:
                        push(b, _K_RESUME, a, None)
                        continue
                elif kind == _K_RELEASE:
                    lock, extra = b
                    try:
                        lock._release(a)
                    except BaseException as exc:
                        finish(a, None, exc)
                    else:
                        push(0.0, _K_CHAIN, a, extra)
                    continue
                elif kind == _K_CRELEASE:
                    conv = a
                    lock = conv.lock
                    if (
                        use_burst
                        and not ready
                        and (lock._convoy_gen == lock.generation
                             or lock._convoy_closed())
                    ):
                        # Closed epoch, no pending same-time work: fast-
                        # forward the convoy until something external is
                        # due (or a member finishes and must be resumed).
                        delta, proc, value = self._convoy_burst(
                            kind, conv, until, n
                        )
                        n += delta
                        now = self.now
                        if proc is None:
                            continue
                        # fall through: resume the finished member
                    else:
                        try:
                            lock._release(conv.proc)
                        except BaseException as exc:
                            conv.proc.convoy = None
                            finish(conv.proc, None, exc)
                            continue
                        if use_ready:
                            ready_append((next_seq(), _K_CCHAIN, conv, None))
                        else:
                            heappush(
                                heap, (now, next_seq(), _K_CCHAIN, conv, None)
                            )
                        continue
                elif kind == _K_CCHAIN or kind == _K_CREJOIN:
                    conv = a
                    if kind == _K_CREJOIN and (
                        use_burst
                        and not ready
                        and (conv.lock._convoy_gen == conv.lock.generation
                             or conv.lock._convoy_closed())
                    ):
                        delta, proc, value = self._convoy_burst(
                            kind, conv, until, n
                        )
                        n += delta
                        now = self.now
                        if proc is None:
                            continue
                        # fall through: resume the finished member
                    else:
                        if kind == _K_CCHAIN:
                            extra = conv.batches[conv.idx][1]
                            if extra != 0.0:
                                heappush(
                                    heap,
                                    (now + extra, next_seq(),
                                     _K_CREJOIN, conv, None),
                                )
                                continue
                            # extra == 0: the rejoin runs inside this very
                            # event, exactly where the unfused engine ran
                            # its send.
                        mm = conv.mm
                        if mm is not None:
                            mm.pages_pinned += conv.batches[conv.idx][0]
                        conv.idx += 1
                        if conv.idx < len(conv.batches):
                            try:
                                conv.lock._acquire(conv.proc)
                            except BaseException as exc:
                                conv.proc.convoy = None
                                finish(conv.proc, None, exc)
                            continue
                        proc = conv.proc
                        proc.convoy = None
                        if conv.tail != 0.0:
                            # FaultConvoy: the pin-free copy tail replaces
                            # the unfused ``yield Delay(tail)`` — same seq
                            # allocation point, same timestamp sum.
                            heappush(
                                heap,
                                (now + conv.tail, next_seq(),
                                 _K_RESUME, proc, conv.npages),
                            )
                            continue
                        if conv.phase is not None:
                            # Pin segment of a fused phase: advance the
                            # phase at the exact point the unfused path
                            # resumed the generator.
                            self._phase_advance(conv.phase)
                            continue
                        value = conv.npages
                        # fall through: resume with the pin-loop result
                elif kind == _K_CGRANT:
                    conv = a
                    hmemo = conv.memo
                    hold = None
                    if hmemo is not None:
                        # hold_fn declared pure in (pages, contention
                        # profile): a hit returns the exact float the
                        # call would have computed.
                        lk = conv.lock
                        hsame = lk._socket_counts.get(conv.proc.socket, 0)
                        hkey = (
                            conv.batches[conv.idx][0],
                            hsame,
                            (1 if lk.holder is not None else 0)
                            + len(lk._waiters) - hsame,
                        )
                        hold = hmemo.get(hkey)
                    if hold is None:
                        try:
                            hold = conv.hold_fn(
                                conv.batches[conv.idx][0], conv.proc
                            )
                            if hold < 0:
                                raise SimError(
                                    f"negative delay in hold ({hold!r})"
                                )
                        except BaseException as exc:
                            conv.proc.convoy = None
                            finish(conv.proc, None, exc)
                            continue
                        if hmemo is not None:
                            hmemo[hkey] = hold
                    if hold == 0.0 and use_ready:
                        ready_append((next_seq(), _K_CRELEASE, conv, None))
                    else:
                        heappush(
                            heap,
                            (now + hold, next_seq(), _K_CRELEASE, conv, None),
                        )
                    continue
                elif kind == _K_PCHAIN or kind == _K_PSTEP:
                    if kind == _K_PCHAIN and b != 0.0:
                        # Second hop of a fused chain segment: scheduled
                        # exactly like the unfused _K_CHAIN's second delay.
                        push(b, _K_PSTEP, a, None)
                        continue
                    if use_pburst and not ready:
                        # No pending same-time work: fast-forward phase
                        # step records in a local loop until something
                        # external is due.
                        delta = self._phase_burst(a, until, n)
                        n += delta
                        now = self.now
                        continue
                    self._phase_advance(a)
                    continue
                elif kind == _K_CALL:
                    a()
                    continue
                elif kind == _K_DELIVER:
                    a.deliver(b)
                    continue
                else:  # _K_THROW
                    throw(a, b)
                    continue
                # -- inline _resume(proc, value) --
                state = proc.state
                if state is _DONE or state is _FAILED:  # pragma: no cover
                    continue
                proc.state = _READY
                try:
                    cmd = proc._send(value)
                except StopIteration as stop:
                    finish(proc, stop.value, None)
                    continue
                except BaseException as exc:
                    finish(proc, None, exc)
                    continue
                # -- inline _dispatch(proc, cmd) for the hot commands --
                tc = cmd.__class__
                try:
                    if tc is Delay:
                        proc.state = _BLOCKED
                        dt = cmd.dt
                        if dt == 0.0 and use_ready:
                            ready_append((next_seq(), _K_RESUME, proc, None))
                        else:
                            heappush(
                                heap, (now + dt, next_seq(), _K_RESUME, proc, None)
                            )
                    elif tc is Acquire:
                        proc.state = _BLOCKED
                        cmd.lock._acquire(proc)
                    elif tc is HoldRelease:
                        proc.state = _BLOCKED
                        dt = cmd.dt
                        rec = (cmd.lock, cmd.extra_dt)
                        if dt == 0.0 and use_ready:
                            ready_append((next_seq(), _K_RELEASE, proc, rec))
                        else:
                            heappush(
                                heap, (now + dt, next_seq(), _K_RELEASE, proc, rec)
                            )
                    elif tc is Release:
                        cmd.lock._release(proc)
                        proc.state = _BLOCKED
                        if use_ready:
                            ready_append((next_seq(), _K_RESUME, proc, None))
                        else:
                            heappush(heap, (now, next_seq(), _K_RESUME, proc, None))
                    elif tc is DelayChain:
                        proc.state = _BLOCKED
                        dt = cmd.d1
                        if dt == 0.0 and use_ready:
                            ready_append((next_seq(), _K_CHAIN, proc, cmd.d2))
                        else:
                            heappush(
                                heap, (now + dt, next_seq(), _K_CHAIN, proc, cmd.d2)
                            )
                    elif tc is PinConvoy or tc is FaultConvoy:
                        proc.state = _BLOCKED
                        proc.convoy = _Convoy(proc, cmd)
                        cmd.lock._acquire(proc)
                    else:
                        dispatch(proc, cmd)
                except BaseException as exc:
                    finish(proc, None, exc)
        finally:
            self.events_processed = n
        blocked = [p for p in self._procs if p.state == _BLOCKED]
        if blocked:
            names = ", ".join(p.name for p in blocked[:8])
            raise DeadlockError(
                f"simulation deadlock at t={self.now:.3f}us: "
                f"{len(blocked)} blocked process(es): {names}"
            )
        return self.now

    def run_all(self, procs: Iterable[SimProcess]) -> float:
        """Run to completion and re-raise the first process failure, if any.

        A process dying mid-protocol usually strands its peers, so a
        resulting deadlock is reported as the *root-cause* failure (with
        the deadlock chained as context) rather than as DeadlockError.
        """
        procs = list(procs)
        try:
            self.run()
        except DeadlockError as dead:
            for p in procs:
                if p.state == _FAILED:
                    raise p.error from dead  # type: ignore[misc]
            raise
        for p in procs:
            if p.state == _FAILED:
                raise p.error  # type: ignore[misc]
            if not p.done:
                raise SimError(f"process {p.name} never completed")
        return self.now

    # -- convoy fast-forward -------------------------------------------------

    def _convoy_burst(self, kind: int, conv: _Convoy, until, n: int):
        """Fast-forward a closed convoy epoch without the run-loop machinery.

        Precondition (checked by the caller): the ready deque is empty and
        every contender of ``conv.lock`` is a convoy member of that lock,
        so until the next *real* heap record is due, the only runnable
        events are this record and the convoy records it causally
        produces.  Those are processed here in (time, seq) order: sequence
        numbers still come off the global counter at the same causal
        points, hold times are still computed against live mutex state at
        grant time, the clock still advances per event, and the float
        additions (``now + hold``, ``now + extra``) happen in the same
        order on the same values — so timestamps, lock statistics, FIFO
        grant order and event counts are bit-identical to record-at-a-time
        execution.  The loop just never touches the big heap or the kind
        dispatch, and nothing else can run meanwhile: no real record is
        due, and convoy processing schedules nothing external.

        The loop merges two sources in (time, seq) order: its local heap
        of records it created, and — because earlier bursts/record-mode
        stretches park convoy records in the real heap — same-epoch
        convoy records sitting at the top of the real heap, which it
        consumes directly.  Everything pre-burst carries a smaller
        sequence number than anything burst-allocated, so at time ties
        the real record correctly runs first, exactly as the run loop's
        merge rule would order it.

        Stops — materialising pending convoy records into the real heap
        verbatim (they already have real-record format and causally
        ordered sequence numbers) — when the real heap's next event is
        *not* a record of this convoy and is due at or before the next
        convoy record, when ``until`` would be crossed, or when a member
        finishes its last batch.  Returns ``(extra_events, proc, value)``;
        ``proc`` is non-None in the finished-member case and must be
        resumed with ``value`` by the caller.
        """
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        next_seq = self._seq.__next__
        max_events = self.max_events
        lock = conv.lock
        now = self.now
        cnt = 0
        vheap: list[tuple] = []

        while True:
            if kind == _K_CRELEASE:
                nxt = conv.lock._release_core(conv.proc)
                if nxt is not None:
                    heappush(
                        vheap, (now, next_seq(), _K_CGRANT, nxt.convoy, None)
                    )
                heappush(vheap, (now, next_seq(), _K_CCHAIN, conv, None))
            elif kind == _K_CGRANT:
                proc = conv.proc
                pages = conv.batches[conv.idx][0]
                hmemo = conv.memo
                hold = None
                if hmemo is not None:
                    hsame = lock._socket_counts.get(proc.socket, 0)
                    hkey = (
                        pages,
                        hsame,
                        (1 if lock.holder is not None else 0)
                        + len(lock._waiters) - hsame,
                    )
                    hold = hmemo.get(hkey)
                if hold is None:
                    try:
                        hold = conv.hold_fn(pages, proc)
                        if hold < 0:
                            raise SimError(f"negative delay in hold ({hold!r})")
                    except BaseException as exc:
                        proc.convoy = None
                        for rec in vheap:
                            heappush(heap, rec)
                        self._finish(proc, None, exc)
                        return cnt, None, None
                    if hmemo is not None:
                        hmemo[hkey] = hold
                if not conv.pure or vheap:
                    heappush(
                        vheap, (now + hold, next_seq(), _K_CRELEASE, conv, None)
                    )
                else:
                    cnt, done, fproc, fconv = self._convoy_steady(
                        now + hold, next_seq(), conv, vheap, until, cnt,
                        max_events - n,
                    )
                    now = self.now
                    if done:
                        if fproc is None:
                            return cnt, None, None
                        if fconv.phase is not None:
                            # Advance after steady's deferred lock stats
                            # are written back (its finally ran), so a
                            # same-lock re-pin sees live state.
                            self._phase_advance(fconv.phase)
                            return cnt, None, None
                        return cnt, fproc, fconv.npages
            else:  # _K_CCHAIN / _K_CREJOIN
                rejoin = True
                if kind == _K_CCHAIN:
                    extra = conv.batches[conv.idx][1]
                    if extra != 0.0:
                        heappush(
                            vheap,
                            (now + extra, next_seq(), _K_CREJOIN, conv, None),
                        )
                        rejoin = False
                if rejoin:
                    mm = conv.mm
                    if mm is not None:
                        mm.pages_pinned += conv.batches[conv.idx][0]
                    conv.idx += 1
                    if conv.idx < len(conv.batches):
                        if conv.lock._acquire_core(conv.proc):
                            heappush(
                                vheap, (now, next_seq(), _K_CGRANT, conv, None)
                            )
                    else:
                        conv.proc.convoy = None
                        for rec in vheap:
                            heappush(heap, rec)
                        if conv.tail != 0.0:
                            # Tail resume seq comes after the parked
                            # records' (all allocated earlier), exactly as
                            # record-mode ordering has it.
                            heappush(
                                heap,
                                (now + conv.tail, next_seq(),
                                 _K_RESUME, conv.proc, conv.npages),
                            )
                            return cnt, None, None
                        if conv.phase is not None:
                            # Pin segment of a fused phase: the advance
                            # (cb + next-segment push) replaces the
                            # generator resumption record-for-record.
                            self._phase_advance(conv.phase)
                            return cnt, None, None
                        return cnt, conv.proc, conv.npages
                # Steady-state entry: a round just closed and the only
                # pending virtual record is a pure convoy's release —
                # from here the epoch runs as straight-line rounds.
                if len(vheap) == 1:
                    rec = vheap[0]
                    if rec[2] == _K_CRELEASE and rec[3].pure:
                        del vheap[0]
                        cnt, done, fproc, fconv = self._convoy_steady(
                            rec[0], rec[1], rec[3], vheap, until, cnt,
                            max_events - n,
                        )
                        now = self.now
                        if done:
                            if fproc is None:
                                return cnt, None, None
                            if fconv.phase is not None:
                                self._phase_advance(fconv.phase)
                                return cnt, None, None
                            return cnt, fproc, fconv.npages
            # -- advance to the next convoy record, or stop --
            head = vheap[0] if vheap else None
            from_real = False
            if heap:
                h = heap[0]
                if head is None or h[0] <= head[0]:
                    hk = h[2]
                    if _K_CGRANT <= hk <= _K_CREJOIN and h[3].lock is lock:
                        # Same-epoch record parked in the real heap (by an
                        # earlier burst or record-mode stretch): consume it
                        # here instead of stopping on it.
                        head = h
                        from_real = True
                    else:
                        for rec in vheap:
                            heappush(heap, rec)
                        return cnt, None, None
            if head is None:
                return cnt, None, None
            if until is not None and head[0] > until:
                for rec in vheap:
                    heappush(heap, rec)
                return cnt, None, None
            if from_real:
                heappop(heap)
            else:
                heappop(vheap)
            self.now = now = head[0]
            cnt += 1
            if n + cnt > max_events:
                raise SimError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            kind = head[2]
            conv = head[3]

    def _convoy_steady(self, t_rel, seq_r, rconv, vheap, until, cnt, limit):
        """Closed form of the steady state: pure pin convoy rounds.

        Called by :meth:`_convoy_burst` when the *only* pending virtual
        record is a pure convoy's release at ``(t_rel, seq_r)``.  In a
        pure convoy (every ``extra_dt == 0.0``) nothing is ever in
        flight except the current holder's release — the releaser's
        grant, chain and re-enqueue all happen at the release timestamp
        — so the event order is fully determined and each round is
        three records of straight-line code: one float add for the
        clock (``t_rel + hold``, the same operands the merge would
        add), the same mutex state transitions, and sequence numbers
        drawn off the global counter at the same causal points, with no
        heap traffic at all.  Timestamps, lock statistics, FIFO grant
        order and event counts stay bit-identical to the
        record-at-a-time merge.

        The mutex transitions are ``Mutex._release_core`` /
        ``_acquire_core`` inlined (kept in lockstep with those methods):
        the holder-identity guards drop out — the releaser *is* the
        holder and the re-enqueuer is not, by construction — and the
        scalar bookkeeping (generation, acquisitions, total_wait_us,
        max_contenders) runs on locals, written back on every exit.
        Deferring those writes is unobservable: no other process runs
        mid-steady-state, and the hold-model purity contract (see
        :class:`PinConvoy`) means ``hold_fn`` reads only the contender
        profile, which *is* maintained live (counts/holder/waiters).
        The float accumulation into ``total_wait_us`` happens in the
        same order on the same running value, so it is bit-exact.
        Within the loop every acquire/release is by a member of the
        closed epoch, so ``_convoy_gen`` tracks ``generation`` — both
        are written back as one value.

        Returns ``(cnt, done, proc, conv)``.  ``done=False`` means the
        loop bailed back to the general merge — the pending record(s)
        were re-parked in ``vheap`` — because a real-heap record is
        due, ``until`` would be crossed, the event budget (``limit``,
        relative to the burst's base count) nears, or a non-pure convoy
        was granted.  ``done=True`` means the burst must end: a member
        finished (``proc`` plus its ``conv``, handed back *after* the
        deferred lock statistics are written back so the caller can
        resume the generator — or advance the owning phase — against
        live lock state) or its hold_fn raised (``proc=None``, process
        already failed).
        """
        heap = self._heap
        heappush = heapq.heappush
        next_seq = self._seq.__next__
        lock = rconv.lock
        counts = lock._socket_counts
        waiters = lock._waiters
        gen = lock.generation
        acq = lock.acquisitions
        wait_us = lock.total_wait_us
        mc = lock.max_contenders
        try:
            while True:
                if (
                    (heap and heap[0][0] <= t_rel)
                    or (until is not None and t_rel > until)
                    or cnt + 3 > limit
                ):
                    heappush(vheap, (t_rel, seq_r, _K_CRELEASE, rconv, None))
                    return cnt, False, None, None
                conv = rconv
                proc = conv.proc
                self.now = t_rel
                cnt += 1  # release record
                # release: holder (proc) leaves the contender set
                psock = proc.socket
                left = counts[psock] - 1
                if left:
                    counts[psock] = left
                else:
                    del counts[psock]
                gen += 1
                if waiters:
                    nxt, since = waiters.popleft()
                    lock.holder = nxt
                    acq += 1
                    wait_us += t_rel - since
                    seq_g = next_seq()
                    seq_c = next_seq()
                    gconv = nxt.convoy
                    if not gconv.pure:
                        # Mixed epoch: hand grant + chain to the merge.
                        heappush(
                            vheap, (t_rel, seq_g, _K_CGRANT, gconv, None)
                        )
                        heappush(
                            vheap, (t_rel, seq_c, _K_CCHAIN, conv, None)
                        )
                        return cnt, False, None, None
                    cnt += 1  # grant record for nxt, at t_rel
                    grantee = nxt
                else:
                    # Lone member: release -> chain (inline rejoin) ->
                    # re-acquire of the free lock -> grant, all at t_rel.
                    nxt = None
                    next_seq()  # the chain record's seq
                    cnt += 1    # chain record
                    mm = conv.mm
                    if mm is not None:
                        mm.pages_pinned += conv.batches[conv.idx][0]
                    conv.idx += 1
                    if conv.idx >= len(conv.batches):
                        proc.convoy = None
                        lock.holder = None
                        if conv.tail != 0.0:
                            heappush(
                                heap,
                                (t_rel + conv.tail, next_seq(),
                                 _K_RESUME, proc, conv.npages),
                            )
                            return cnt, True, None, None
                        return cnt, True, proc, conv
                    # re-acquire of the free lock: immediate grant (the
                    # holder write cancels out, proc -> None -> proc)
                    counts[psock] = left + 1
                    gen += 1
                    acq += 1
                    if mc < 1:
                        mc = 1
                    next_seq()  # the grant record's seq
                    cnt += 1    # grant record
                    grantee = proc
                    gconv = conv
                # Hold for the newly granted member, computed before the
                # releaser rejoins the queue — the same state the
                # record-mode grant handler sees.
                pages = gconv.batches[gconv.idx][0]
                hmemo = gconv.memo
                hold = None
                if hmemo is not None:
                    hsame = counts.get(grantee.socket, 0)
                    hkey = (pages, hsame, 1 + len(waiters) - hsame)
                    hold = hmemo.get(hkey)
                if hold is None:
                    try:
                        hold = gconv.hold_fn(pages, grantee)
                        if hold < 0:
                            raise SimError(f"negative delay in hold ({hold!r})")
                    except BaseException as exc:
                        grantee.convoy = None
                        if nxt is not None:
                            # the releaser's chain is still due
                            heappush(
                                heap, (t_rel, seq_c, _K_CCHAIN, conv, None)
                            )
                        self._finish(grantee, None, exc)
                        return cnt, True, None, None
                    if hmemo is not None:
                        hmemo[hkey] = hold
                seq_r = next_seq()  # the next release record's seq
                t_rel = t_rel + hold
                if nxt is not None:
                    # chain record: the releaser rejoins
                    cnt += 1
                    mm = conv.mm
                    if mm is not None:
                        mm.pages_pinned += conv.batches[conv.idx][0]
                    conv.idx += 1
                    if conv.idx < len(conv.batches):
                        # re-enqueue behind nxt
                        counts[psock] = counts.get(psock, 0) + 1
                        gen += 1
                        waiters.append((proc, self.now))
                        nw = 1 + len(waiters)
                        if nw > mc:
                            mc = nw
                    else:
                        # Releaser finished mid-epoch: park the new
                        # holder's release and hand the member back for
                        # its generator resumption.
                        proc.convoy = None
                        heappush(
                            heap, (t_rel, seq_r, _K_CRELEASE, gconv, None)
                        )
                        if conv.tail != 0.0:
                            # self.now is still the release/chain timestamp
                            # (t_rel was advanced to the new holder's
                            # release time above); the tail runs from the
                            # rejoin, and its seq follows seq_r — the
                            # order record-mode allocates them in.
                            heappush(
                                heap,
                                (self.now + conv.tail, next_seq(),
                                 _K_RESUME, proc, conv.npages),
                            )
                            return cnt, True, None, None
                        return cnt, True, proc, conv
                rconv = gconv
        finally:
            lock.generation = gen
            lock._convoy_gen = gen
            lock.acquisitions = acq
            lock.total_wait_us = wait_us
            lock.max_contenders = mc

    # -- phase fast-forward --------------------------------------------------

    def _phase_sched(self, phase: _Phase) -> None:
        """Schedule the first record of the phase's current segment.

        The sequence number is allocated exactly where the unfused path
        pushed the record of the corresponding ``DelayChain``/``PinConvoy``
        yield, so same-timestamp tie-breaking is unchanged.
        """
        seg = phase.segments[phase.idx]
        if seg[0] == "c":
            self._push(seg[1], _K_PCHAIN, phase, seg[2])
        else:
            proc = phase.proc
            proc.convoy = _Convoy._for_phase(proc, seg, phase)
            seg[1]._acquire(proc)

    def _phase_advance(self, phase: _Phase) -> None:
        """Complete the phase's current segment; start the next or resume.

        Runs the segment's ``cb`` at the exact causal point the unfused
        generator resumption ran the same side effects, then either
        schedules the next segment or resumes the generator with the
        phase's value.  A raising ``cb`` (or a failing pin acquire) fails
        the process, exactly like a raise at the unfused step.
        """
        seg = phase.segments[phase.idx]
        cb = seg[-1]
        if cb is not None:
            try:
                cb()
            except BaseException as exc:
                self._finish(phase.proc, None, exc)
                return
        phase.idx += 1
        if phase.idx < len(phase.segments):
            try:
                self._phase_sched(phase)
            except BaseException as exc:
                phase.proc.convoy = None
                self._finish(phase.proc, None, exc)
        else:
            self._resume(phase.proc, phase.value)

    def _phase_burst(self, phase: _Phase, until, n: int) -> int:
        """Fast-forward fused-phase records without the run-loop machinery.

        Entered from the run loop when a phase step record fired with an
        empty ready deque.  The advance for that record happens here;
        successor records — chain steps, and the convoy records of phase
        pin segments — go to a local heap, merged with the real heap in
        exact ``(time, seq)`` order.  Sequence numbers still come off the
        global counter at the same causal points, hold times are computed
        against live mutex state at grant time, and the float additions
        (``now + d``, ``now + hold``, ``now + extra``) happen in the same
        order on the same operands — so timestamps, FIFO grant order,
        lock statistics and event counts are bit-identical to
        record-at-a-time execution.

        Unlike :meth:`_convoy_burst` this loop is not scoped to one lock
        or one closed epoch: it drains the step records of *every*
        in-flight phase (and their pin convoys, via the general mutex
        transitions, so open epochs and outside contenders are handled),
        which is what keeps a whole multi-rank collective phase inside
        one local loop.  It hands control back — parking pending local
        records into the real heap verbatim — whenever the ready deque
        becomes non-empty (a generator resumed, a process finished, or a
        non-convoy waiter was granted), when the real heap's next record
        is not phase-owned and is due first, when ``until`` would be
        crossed, or when the event budget nears.

        With the batch executor armed, three vectorized drains run
        inside this loop, each guarded so it cannot change the record
        stream: a cumulative-sum drain of a delay-only phase's remaining
        segments (:meth:`_phase_batch`), a whole-system multi-phase
        fast-forward when the real heap is empty (:meth:`_phase_drain`),
        and a same-timestamp cohort sweep (:meth:`_phase_cohort`).

        Returns the number of extra events processed (the entry record
        was already counted by the caller).
        """
        heap = self._heap
        ready = self._ready
        heappush = heapq.heappush
        heappop = heapq.heappop
        next_seq = self._seq.__next__
        finish = self._finish
        max_events = self.max_events
        np_mod = self._np
        now = self.now
        cnt = 0
        drain_veto = False
        vheap: list[tuple] = []
        kind = _K_PSTEP  # the caller popped this phase's step record
        b = None
        conv = None
        while True:
            advance = False
            if kind == _K_PCHAIN or kind == _K_PSTEP:
                if kind == _K_PCHAIN and b != 0.0:
                    # second hop of a chain segment, like _K_CHAIN's d2
                    heappush(
                        vheap, (now + b, next_seq(), _K_PSTEP, phase, None)
                    )
                else:
                    advance = True
            elif kind == _K_CGRANT:
                proc = conv.proc
                lock = conv.lock
                pages = conv.batches[conv.idx][0]
                hmemo = conv.memo
                hold = None
                if hmemo is not None:
                    hsame = lock._socket_counts.get(proc.socket, 0)
                    hkey = (
                        pages,
                        hsame,
                        (1 if lock.holder is not None else 0)
                        + len(lock._waiters) - hsame,
                    )
                    hold = hmemo.get(hkey)
                if hold is None:
                    try:
                        hold = conv.hold_fn(pages, proc)
                        if hold < 0:
                            raise SimError(f"negative delay in hold ({hold!r})")
                    except BaseException as exc:
                        proc.convoy = None
                        for rec in vheap:
                            heappush(heap, rec)
                        finish(proc, None, exc)
                        return cnt
                    if hmemo is not None:
                        hmemo[hkey] = hold
                heappush(
                    vheap, (now + hold, next_seq(), _K_CRELEASE, conv, None)
                )
            elif kind == _K_CRELEASE:
                lock = conv.lock
                try:
                    nxt = lock._release_core(conv.proc)
                except BaseException as exc:
                    conv.proc.convoy = None
                    for rec in vheap:
                        heappush(heap, rec)
                    finish(conv.proc, None, exc)
                    return cnt
                if nxt is not None:
                    nc = nxt.convoy
                    if nc is not None and nc.lock is lock:
                        heappush(
                            vheap, (now, next_seq(), _K_CGRANT, nc, None)
                        )
                    else:
                        # A plain Acquire waiter was granted: its resume
                        # rides the normal scheduler, so the burst winds
                        # down right after this record.
                        self._schedule_resume(0.0, nxt, None)
                heappush(vheap, (now, next_seq(), _K_CCHAIN, conv, None))
                if ready:
                    for rec in vheap:
                        heappush(heap, rec)
                    return cnt
            else:  # _K_CCHAIN / _K_CREJOIN
                rejoin = True
                if kind == _K_CCHAIN:
                    extra = conv.batches[conv.idx][1]
                    if extra != 0.0:
                        heappush(
                            vheap,
                            (now + extra, next_seq(), _K_CREJOIN, conv, None),
                        )
                        rejoin = False
                if rejoin:
                    mm = conv.mm
                    if mm is not None:
                        mm.pages_pinned += conv.batches[conv.idx][0]
                    conv.idx += 1
                    if conv.idx < len(conv.batches):
                        try:
                            if conv.lock._acquire_core(conv.proc):
                                heappush(
                                    vheap,
                                    (now, next_seq(), _K_CGRANT, conv, None),
                                )
                        except BaseException as exc:
                            conv.proc.convoy = None
                            for rec in vheap:
                                heappush(heap, rec)
                            finish(conv.proc, None, exc)
                            return cnt
                    else:
                        proc = conv.proc
                        proc.convoy = None
                        if conv.tail != 0.0:
                            heappush(
                                heap,
                                (now + conv.tail, next_seq(),
                                 _K_RESUME, proc, conv.npages),
                            )
                        elif conv.phase is not None:
                            phase = conv.phase
                            advance = True
                        else:
                            self._resume(proc, conv.npages)
                            if ready:
                                for rec in vheap:
                                    heappush(heap, rec)
                                return cnt
            if advance:
                segs = phase.segments
                seg = segs[phase.idx]
                cb = seg[-1]
                if cb is not None:
                    try:
                        cb()
                    except BaseException as exc:
                        for rec in vheap:
                            heappush(heap, rec)
                        finish(phase.proc, None, exc)
                        return cnt
                idx = phase.idx + 1
                phase.idx = idx
                if idx < len(segs):
                    nseg = segs[idx]
                    if nseg[0] == "c":
                        drained = 0
                        if (
                            np_mod is not None
                            and phase.delay_only
                            and not vheap
                            and len(segs) - idx > 1
                        ):
                            drained = self._phase_batch(phase, until, n + cnt)
                        if drained:
                            cnt += drained
                            now = self.now
                            if ready:
                                return cnt  # vheap empty by the drain guard
                        else:
                            heappush(
                                vheap,
                                (now + nseg[1], next_seq(),
                                 _K_PCHAIN, phase, nseg[2]),
                            )
                    else:
                        proc = phase.proc
                        try:
                            pconv = _Convoy._for_phase(proc, nseg, phase)
                            proc.convoy = pconv
                            if nseg[1]._acquire_core(proc):
                                heappush(
                                    vheap,
                                    (now, next_seq(), _K_CGRANT, pconv, None),
                                )
                        except BaseException as exc:
                            proc.convoy = None
                            for rec in vheap:
                                heappush(heap, rec)
                            finish(proc, None, exc)
                            return cnt
                else:
                    self._resume(phase.proc, phase.value)
                    if ready:
                        for rec in vheap:
                            heappush(heap, rec)
                        return cnt
            # -- select the next record, or stop --
            if np_mod is not None:
                if vheap and not heap and not drain_veto:
                    drained = self._phase_drain(vheap, until, n + cnt)
                    if drained:
                        cnt += drained
                        now = self.now
                        if ready:
                            for rec in vheap:
                                heappush(heap, rec)
                            return cnt
                    else:
                        drain_veto = True
                while len(vheap) > 1 and (not heap or heap[0][0] > vheap[0][0]):
                    swept = self._phase_cohort(vheap, until, n + cnt)
                    if not swept:
                        break
                    cnt += swept
                    now = self.now
                    if ready:
                        for rec in vheap:
                            heappush(heap, rec)
                        return cnt
            head = vheap[0] if vheap else None
            take_real = False
            if heap:
                h = heap[0]
                if head is None or h[0] < head[0] or (
                    h[0] == head[0] and h[1] < head[1]
                ):
                    hk = h[2]
                    if hk == _K_PCHAIN or hk == _K_PSTEP or (
                        _K_CGRANT <= hk <= _K_CREJOIN
                        and h[3].phase is not None
                    ):
                        # Phase-owned record parked in the real heap by an
                        # earlier burst: consume it here.  The comparison
                        # is exact (time, seq) — records dispatched during
                        # this burst may carry later seqs than vheap ones.
                        head = h
                        take_real = True
                    else:
                        for rec in vheap:
                            heappush(heap, rec)
                        return cnt
            if head is None:
                return cnt
            if until is not None and head[0] > until:
                for rec in vheap:
                    heappush(heap, rec)
                return cnt
            if take_real:
                heappop(heap)
                drain_veto = False  # new material: the drain may apply now
            else:
                heappop(vheap)
            self.now = now = head[0]
            cnt += 1
            if n + cnt > max_events:
                raise SimError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            kind = head[2]
            if kind == _K_PCHAIN or kind == _K_PSTEP:
                phase = head[3]
                b = head[4]
            else:
                conv = head[3]

    def _phase_batch(self, phase: _Phase, until, n: int) -> int:
        """Vectorized drain of a delay-only phase's remaining segments.

        Part of the opt-in batch executor: when nothing else in the
        system can fire before the phase's last segment completes, the
        per-record scheduling collapses — each step's absolute time is a
        prefix sum of the step delays (``numpy.cumsum`` accumulates
        float64 sequentially, so each element is bit-identical to the
        scalar ``now + d`` chain), the k sequence numbers the scalar path
        would allocate are drawn in one run, and the step callbacks run
        in order at their step times.  Declines (returns 0) whenever the
        guard cannot prove non-interference — a real-heap record due at
        or before the phase's end, an ``until`` horizon, or the event
        budget — leaving the scalar path to handle it.

        Returns the number of events drained (k on success; the partial
        count when a callback raises, with the process failed exactly as
        at the unfused step).
        """
        heap = self._heap
        now = self.now
        if heap and heap[0][0] <= now:
            return 0
        np_mod = self._np
        segs = phase.segments
        idx = phase.idx
        k = len(segs) - idx
        arr = np_mod.empty(k + 1)
        arr[0] = now
        for j in range(k):
            arr[j + 1] = segs[idx + j][1]
        times = np_mod.cumsum(arr)
        end = times[k]
        if heap and heap[0][0] <= end:
            return 0
        if until is not None and end > until:
            return 0
        if n + k > self.max_events:
            return 0
        next_seq = self._seq.__next__
        proc = phase.proc
        j = 0
        try:
            for j in range(k):
                next_seq()
                cb = segs[idx + j][3]
                if cb is not None:
                    self.now = float(times[j + 1])
                    cb()
        except BaseException as exc:
            self.now = float(times[j + 1])
            phase.idx = idx + j
            self._finish(proc, None, exc)
            return j + 1
        phase.idx = idx + k
        self.now = float(end)
        self._resume(proc, phase.value)
        return k

    def _phase_cohort(self, vheap: list, until, n: int) -> int:
        """Batch-executor sweep of one same-timestamp phase-record cohort.

        In symmetric phases every rank's record lands on the same
        timestamp; this retires the whole tie in one pass instead of one
        heappop-compare-advance round per record.  Any mix of phase
        records is eligible — chain hops, segment advances (into chains
        *or* uncontended pins), and the four convoy hops of pin segments
        — as long as processing cannot interact with anything outside
        the tie: convoy records must sit on distinct waiter-free locks,
        and no record may resume a generator (phase completions are
        excluded).  Each record's processing is exactly the scalar
        loop's — same mutex transitions, same float additions, sequence
        numbers drawn at the same causal points — the successors are
        collected in seq order and, for a homogeneous cohort (equal
        delays/holds), form the next tie pre-sorted, so no heap
        operations happen at all in steady state.  The caller has
        already checked that the real heap cannot fire at or before the
        tie's timestamp.

        A cohort that is uniformly pin *grants* on a shared batch plan
        is first offered to :meth:`_phase_pin_run`, which collapses all
        but the last batch round to closed form.

        Returns the number of records retired (0 when the tie is not
        uniformly eligible).
        """
        T = vheap[0][0]
        if until is not None and T > until:
            return 0
        grants_only = True
        locks: set = set()
        k = 0
        for rec in vheap:
            if rec[0] != T:
                return 0
            kd = rec[2]
            if kd == _K_PCHAIN or kd == _K_PSTEP:
                grants_only = False
                if kd == _K_PCHAIN and rec[4] != 0.0:
                    k += 1
                    continue
                ph = rec[3]
                nidx = ph.idx + 1
                segs = ph.segments
                if nidx >= len(segs):
                    return 0  # completion would resume the generator
                nseg = segs[nidx]
                if nseg[0] != "c":
                    lock = nseg[1]
                    if lock.holder is not None or lock._waiters or lock in locks:
                        return 0
                    locks.add(lock)
                k += 1
                continue
            conv = rec[3]
            lock = conv.lock
            if lock in locks or lock._waiters:
                return 0
            locks.add(lock)
            if kd != _K_CGRANT:
                grants_only = False
                if kd != _K_CRELEASE:
                    # _K_CCHAIN / _K_CREJOIN: a finishing rejoin advances
                    # the owning phase — guard its next segment too.
                    if not (
                        kd == _K_CCHAIN and conv.batches[conv.idx][1] != 0.0
                    ) and conv.idx + 1 >= len(conv.batches):
                        ph = conv.phase
                        nidx = ph.idx + 1
                        segs = ph.segments
                        if nidx >= len(segs):
                            return 0
                        nseg = segs[nidx]
                        if nseg[0] != "c":
                            l2 = nseg[1]
                            if l2 is not lock and (
                                l2.holder is not None
                                or l2._waiters
                                or l2 in locks
                            ):
                                return 0
                            locks.add(l2)
            k += 1
        if n + k > self.max_events:
            return 0
        recs = sorted(vheap)  # all times equal: (time, seq) merge order
        vheap.clear()
        if grants_only:
            drained = self._phase_pin_run(recs, vheap, T, until, n)
            if drained:
                return drained
        self.now = T
        next_seq = self._seq.__next__
        out = []
        done = 0
        cur = None
        try:
            for rec in recs:
                done += 1
                kd = rec[2]
                if kd == _K_PCHAIN and rec[4] != 0.0:
                    out.append((T + rec[4], next_seq(), _K_PSTEP, rec[3], None))
                    continue
                if kd == _K_PCHAIN or kd == _K_PSTEP:
                    ph = rec[3]
                    cur = ph.proc
                    seg = ph.segments[ph.idx]
                    cb = seg[-1]
                    if cb is not None:
                        cb()
                    nidx = ph.idx + 1
                    ph.idx = nidx
                    nseg = ph.segments[nidx]
                    if nseg[0] == "c":
                        out.append(
                            (T + nseg[1], next_seq(), _K_PCHAIN, ph, nseg[2])
                        )
                    else:
                        pconv = _Convoy._for_phase(cur, nseg, ph)
                        cur.convoy = pconv
                        nseg[1]._acquire_core(cur)  # free by eligibility
                        out.append((T, next_seq(), _K_CGRANT, pconv, None))
                    continue
                conv = rec[3]
                cur = conv.proc
                if kd == _K_CGRANT:
                    lock = conv.lock
                    pages = conv.batches[conv.idx][0]
                    hmemo = conv.memo
                    hold = None
                    if hmemo is not None:
                        hsame = lock._socket_counts.get(cur.socket, 0)
                        hkey = (
                            pages,
                            hsame,
                            (1 if lock.holder is not None else 0)
                            + len(lock._waiters) - hsame,
                        )
                        hold = hmemo.get(hkey)
                    if hold is None:
                        hold = conv.hold_fn(pages, cur)
                        if hold < 0:
                            raise SimError(
                                f"negative delay in hold ({hold!r})"
                            )
                        if hmemo is not None:
                            hmemo[hkey] = hold
                    out.append((T + hold, next_seq(), _K_CRELEASE, conv, None))
                    continue
                if kd == _K_CRELEASE:
                    conv.lock._release_core(cur)  # no waiters by eligibility
                    out.append((T, next_seq(), _K_CCHAIN, conv, None))
                    continue
                # _K_CCHAIN / _K_CREJOIN
                if kd == _K_CCHAIN:
                    extra = conv.batches[conv.idx][1]
                    if extra != 0.0:
                        out.append(
                            (T + extra, next_seq(), _K_CREJOIN, conv, None)
                        )
                        continue
                mm = conv.mm
                if mm is not None:
                    mm.pages_pinned += conv.batches[conv.idx][0]
                conv.idx += 1
                if conv.idx < len(conv.batches):
                    conv.lock._acquire_core(cur)  # lock is free: re-grant
                    out.append((T, next_seq(), _K_CGRANT, conv, None))
                else:
                    cur.convoy = None
                    ph = conv.phase
                    seg = ph.segments[ph.idx]
                    cb = seg[-1]
                    if cb is not None:
                        cb()
                    nidx = ph.idx + 1
                    ph.idx = nidx
                    nseg = ph.segments[nidx]
                    if nseg[0] == "c":
                        out.append(
                            (T + nseg[1], next_seq(), _K_PCHAIN, ph, nseg[2])
                        )
                    else:
                        pconv = _Convoy._for_phase(cur, nseg, ph)
                        cur.convoy = pconv
                        nseg[1]._acquire_core(cur)
                        out.append((T, next_seq(), _K_CGRANT, pconv, None))
        except BaseException as exc:
            # The stepped process dies exactly as at the unfused step;
            # the unprocessed tie members stay pending.  _Phase and
            # _Convoy both carry .proc, and the raising paths that left
            # a convoy in flight clear it, as the scalar handlers do.
            out.extend(recs[done:])
            cur = rec[3].proc
            cur.convoy = None
            self._finish(cur, None, exc)
        srt = True
        for i in range(1, len(out)):
            if out[i - 1][0] > out[i][0]:
                srt = False
                break
        vheap.extend(out)
        if not srt:
            heapq.heapify(vheap)
        return done

    def _phase_pin_run(self, recs: list, vheap: list, T: float, until,
                       n: int) -> int:
        """Closed form of a homogeneous uncontended pin-grant cohort.

        ``recs`` is a same-timestamp tie of ``_K_CGRANT`` records whose
        convoys sit on distinct waiter-free locks (the cohort scan
        checked).  When every convoy runs the *same* remaining batch
        plan and every rank's hold comes out bit-equal per round, the
        ranks stay tied round for round — grants, releases, chains and
        rejoins each form one cohort after the next — so all but the
        last round collapse: per round, sequence numbers are drawn in
        the exact scalar order (releases, chains, rejoins, next grants
        — each rank in seq order), the clock advances by one
        ``t + hold`` / ``t + extra`` per cohort (the same operands every
        rank's scalar path adds), and the per-lock statistics are
        written back in closed form (release + re-acquire per round is
        ``generation += 2``, ``acquisitions += 1``, contender counts
        net zero — the same deferred-write argument as
        :meth:`_convoy_steady`).  The last round's grant cohort is
        materialised for the generic sweep, which owns the finishing
        rejoin's phase advance (callback + next-segment scheduling)
        with its per-record failure semantics.

        Declines (returns 0, no state mutated beyond memo fills, which
        are pure caches) whenever the batch plans or holds diverge, a
        real-heap record or ``until`` falls inside the collapsed span,
        or the event budget would be crossed — the generic sweep then
        proceeds record for record.
        """
        first = recs[0][3]
        fb = first.batches
        fidx = first.idx
        R = len(fb) - fidx
        if R < 2:
            return 0
        convs = []
        for rec in recs:
            conv = rec[3]
            if conv is not first and not (
                (conv.batches is fb and conv.idx == fidx)
                or conv.batches[conv.idx:] == fb[fidx:]
            ):
                return 0
            ph = conv.phase
            nidx = ph.idx + 1
            segs = ph.segments
            if nidx >= len(segs) or segs[nidx][0] != "c":
                return 0
            convs.append(conv)
        p = len(convs)
        holds = []
        try:
            for r in range(R):
                pages = fb[fidx + r][0]
                h0 = None
                for conv in convs:
                    proc = conv.proc
                    lock = conv.lock
                    hmemo = conv.memo
                    hold = None
                    if hmemo is not None:
                        hsame = lock._socket_counts.get(proc.socket, 0)
                        hkey = (
                            pages,
                            hsame,
                            (1 if lock.holder is not None else 0)
                            + len(lock._waiters) - hsame,
                        )
                        hold = hmemo.get(hkey)
                    if hold is None:
                        # The purity contract (see PinConvoy) makes the
                        # early call invisible; the profile it reads is
                        # the round-r profile (single member, no
                        # waiters, so the lock state never changes).
                        hold = conv.hold_fn(pages, proc)
                        if hold < 0:
                            return 0  # the scalar grant raises instead
                        if hmemo is not None:
                            hmemo[hkey] = hold
                    if h0 is None:
                        h0 = hold
                    elif hold != h0:
                        return 0
                holds.append(h0)
        except BaseException:
            return 0  # pure hold_fn: the scalar grant re-raises it
        # Collapsed span: rounds 0..R-2 retire fully; the round R-1
        # grants materialise at t_last.  Nothing external may fire at or
        # before t_last (equal-time real records carry smaller seqs and
        # would run first in the scalar merge).
        t = T
        total = 0
        for r in range(R - 1):
            extra = fb[fidx + r][1]
            t = t + holds[r]
            if extra != 0.0:
                t = t + extra
                total += 4 * p
            else:
                total += 3 * p
        heap = self._heap
        if heap and heap[0][0] <= t:
            return 0
        if until is not None and t > until:
            return 0
        if n + total > self.max_events:
            return 0
        next_seq = self._seq.__next__
        t = T
        pages_done = 0
        for r in range(R - 1):
            pages, extra = fb[fidx + r]
            for _ in range(p):  # the grants push their releases
                next_seq()
            t = t + holds[r]
            for _ in range(p):  # the releases push their chains
                next_seq()
            if extra != 0.0:
                for _ in range(p):  # the chains push their rejoins
                    next_seq()
                t = t + extra
            pages_done += pages
            if r < R - 2:
                for _ in range(p):  # the rejoins push the next grants
                    next_seq()
        # round R-2's rejoins push round R-1's grants: materialise them
        for conv in convs:
            vheap.append((t, next_seq(), _K_CGRANT, conv, None))
        rounds = R - 1
        dgen = 2 * rounds
        for conv in convs:
            lock = conv.lock
            g = lock.generation + dgen
            if lock._convoy_gen == lock.generation:
                lock._convoy_gen = g
            lock.generation = g
            lock.acquisitions += rounds
            if lock.max_contenders < 1:
                lock.max_contenders = 1
            mm = conv.mm
            if mm is not None:
                mm.pages_pinned += pages_done
            conv.idx += rounds
        self.now = t
        return total

    def _drain_plan_build(self, rec, ph, conv0, pcache):
        """Build one phase's reusable drain plan, or ``None`` to decline.

        The plan captures everything about the phase's remaining record
        stream that does not depend on the entry record's timestamp: the
        per-record delay vector (``dl``, with slot 0 zeroed for the
        already-scheduled entry record), the segment descriptors, the
        milestone positions (pin completions and callbacks), and the
        per-lock held-window index ranges used by the drain's safety
        check.  Warm collective rounds re-enter the drain with the exact
        same segment objects (the kernels cache emission per address
        pair), so the plan is keyed on segment identity and amortizes to
        one build per phase shape; the plan holds strong references to
        every keyed object, so a key match implies identity.

        Hold durations are baked in: ``hold_fn`` is asserted pure in
        ``(pages, profile)`` and is evaluated here under the exact
        single-holder profile the future grant will see, which is the
        profile every reuse sees too — the drain's runtime lock checks
        (waiter-free, held only by the entry convoy) guarantee it.
        Declines are never cached: they depend on live lock state.
        """
        proc = ph.proc
        segs = ph.segments
        k0 = rec[2]
        np_mod = self._np

        def _hold(lock, memo, hold_fn, pages, prc):
            # The bit-exact hold the scalar single-member grant would
            # compute, or None when that cannot be established purely.
            if memo is not None:
                h = memo.get((pages, 1, 0))
                if h is not None:
                    return h
            if lock._waiters:
                return None
            holder = lock.holder
            counts = lock._socket_counts
            if holder is None:
                if counts:  # pragma: no cover - invariant guard
                    return None
                # stage the single-holder profile the grant will see
                counts[prc.socket] = 1
                lock.holder = prc
                try:
                    h = hold_fn(pages, prc)
                except BaseException:
                    return None
                finally:
                    lock.holder = None
                    del counts[prc.socket]
            elif holder is prc:
                h = None
                try:
                    h = hold_fn(pages, prc)
                except BaseException:
                    return None
            else:
                return None
            if not h >= 0.0:
                return None  # negative (or NaN): the scalar grant raises
            if memo is not None:
                memo[(pages, 1, 0)] = h
            return h

        def _pin_pat(batches, r0, holds, entry_off, opened):
            # Record pattern of rounds r0.. of a pin segment, optionally
            # sliced ``entry_off`` records into round r0 (the in-flight
            # record, whose delta is forced to 0: already scheduled).
            dl = []
            pat = []
            nb = len(batches)
            for j in range(nb - r0):
                r = r0 + j
                extra = batches[r][1]
                if extra < 0.0:
                    return None
                dl.append(0.0)
                pat.append((_K_CGRANT, r))
                dl.append(holds[j])
                pat.append((_K_CRELEASE, r))
                dl.append(0.0)
                pat.append((_K_CCHAIN, r))
                if extra != 0.0:
                    dl.append(extra)
                    pat.append((_K_CREJOIN, r))
            if entry_off:
                dl = dl[entry_off:]
                pat = pat[entry_off:]
            dl[0] = 0.0
            acq = 1 if opened else 0
            rel = 0
            pages = 0
            for k2, r in pat:
                if k2 == _K_CRELEASE:
                    rel += 1
                elif k2 == _K_CREJOIN or (
                    k2 == _K_CCHAIN and batches[r][1] == 0.0
                ):
                    pages += batches[r][0]
                    if r + 1 < nb:
                        acq += 1
            return tuple(dl), tuple(pat), acq, rel, pages

        # -- walk the phase's remaining stream ------------------------------
        # Descriptor: (base, pat, seg_i, lock, seg, acq, rel, pages,
        #              held-at-entry, None) — slot 9 was the entry convoy
        #              in plan-free days; the runtime substitutes the live
        #              entry convoy, since plans outlive any one round's.
        descs = []
        dlist = []
        if conv0 is None:
            seg = segs[ph.idx]
            if k0 == _K_PCHAIN and rec[4] != 0.0:
                pat = ((_K_PCHAIN, -1), (_K_PSTEP, -1))
                dl = (0.0, rec[4])
            else:
                pat = ((k0, -1),)
                dl = (0.0,)
            descs.append((0, pat, ph.idx, None, seg, 0, 0, 0,
                          False, None))
            dlist.extend(dl)
        else:
            lock = conv0.lock
            batches = conv0.batches
            r0 = conv0.idx
            holds = []
            for r in range(r0, len(batches)):
                h = _hold(lock, conv0.memo, conv0.hold_fn,
                          batches[r][0], proc)
                if h is None:
                    return None
                holds.append(h)
            if k0 == _K_CGRANT:
                off = 0
            elif k0 == _K_CRELEASE:
                off = 1
            elif k0 == _K_CCHAIN:
                off = 2
            else:  # _K_CREJOIN (exists only when extra != 0)
                off = 3
            built = _pin_pat(batches, r0, holds, off, False)
            if built is None:
                return None
            dl, pat, acq, rel, pages = built
            descs.append((0, pat, ph.idx, lock, segs[ph.idx], acq,
                          rel, pages,
                          k0 == _K_CGRANT or k0 == _K_CRELEASE,
                          None))
            dlist.extend(dl)
        for si in range(ph.idx + 1, len(segs)):
            seg = segs[si]
            if seg[0] == "c":
                key = ("c", seg[1], seg[2])
                ent = pcache.get(key)
                if ent is None:
                    if seg[1] < 0.0 or seg[2] < 0.0:
                        return None
                    if seg[2] != 0.0:
                        ent = ((seg[1], seg[2]),
                               ((_K_PCHAIN, -1), (_K_PSTEP, -1)))
                    else:
                        ent = ((seg[1],), ((_K_PCHAIN, -1),))
                    pcache[key] = ent
                dl, pat = ent
                descs.append((len(dlist), pat, si, None, seg,
                              0, 0, 0, False, None))
                dlist.extend(dl)
            else:
                lock = seg[1]
                batches = seg[3]
                holds = []
                for b in batches:
                    h = _hold(lock, seg[6], seg[2], b[0], proc)
                    if h is None:
                        return None
                    holds.append(h)
                key = (id(batches), tuple(holds))
                ent = pcache.get(key)
                if ent is None:
                    ent = _pin_pat(batches, 0, holds, 0, True)
                    if ent is None:
                        return None
                    pcache[key] = ent
                dl, pat, acq, rel, pages = ent
                descs.append((len(dlist), pat, si, lock, seg, acq,
                              rel, pages, False, None))
                dlist.extend(dl)
        m = len(dlist)

        # -- derived tables: milestones and per-lock held windows -----------
        # Milestones: descs with closed-form lock writebacks or callbacks,
        # by last-record index (ascending, so the runtime can cut early).
        # ``mil_fold`` marks a plan whose every callback is a FoldBump:
        # such a window needs no merge-ordered milestone walk at all —
        # the runtime applies writebacks per phase (``wb``) and batches
        # the callback counts (``fcb``) after one bulk draw.
        mil = tuple(
            (di, desc[0] + len(desc[1]) - 1)
            for di, desc in enumerate(descs)
            if desc[3] is not None or desc[4][-1] is not None
        )
        mil_fold = True
        wb = []
        fcb = []
        for di, desc in enumerate(descs):
            last = desc[0] + len(desc[1]) - 1
            if desc[3] is not None:
                wb.append((di, last))
            cb = desc[4][-1]
            if cb is not None:
                if getattr(cb, "drain_fold", False):
                    fcb.append((last, cb))
                else:
                    mil_fold = False
        # Held windows as dlist index pairs, in stream order (both arrays
        # ascending).  Grant index -1 marks the held-at-entry window (the
        # acquire predates the drain); release index ``m`` marks a window
        # still held at end-of-stream.  ``wbase`` carries the owning
        # descriptor's base so the runtime can reproduce the scalar scan's
        # cut rule exactly: a window counts iff its descriptor starts
        # before the cut and its grant index is <= the cut.
        held0lock = None
        wg = []
        wr = []
        wbase = []
        wlocks = []
        ulocks = []
        useen = set()
        for desc in descs:
            lock = desc[3]
            if lock is None:
                continue
            base = desc[0]
            if id(lock) not in useen:
                useen.add(id(lock))
                ulocks.append((base, lock))
            start = None
            if desc[8]:
                start = -1
                held0lock = lock
            for j, (k2, _r2) in enumerate(desc[1]):
                li = base + j
                if k2 == _K_CGRANT:
                    if start is None:
                        start = li
                elif k2 == _K_CRELEASE and start is not None:
                    wg.append(start)
                    wr.append(li)
                    wbase.append(base)
                    wlocks.append(lock)
                    start = None
            if start is not None:  # still held at end-of-stream
                wg.append(start)
                wr.append(m)
                wbase.append(base)
                wlocks.append(lock)
        nw = len(wg)
        return {
            "m": m,
            "dl": np_mod.array(dlist),
            "descs": descs,
            "mil": mil,
            "mil_fold": mil_fold,
            "wb": tuple(wb),
            "fcb": tuple(fcb),
            "wg": np_mod.array(wg, dtype=np_mod.int64),
            "wr": np_mod.array(wr, dtype=np_mod.int64),
            "wbase": np_mod.array(wbase, dtype=np_mod.int64),
            "codes": np_mod.fromiter(
                (id(lk) for lk in wlocks), dtype=np_mod.int64, count=nw
            ),
            "ulocks": tuple(ulocks),
            "held0lock": held0lock,
        }

    def _phase_drain(self, vheap: list, until, n: int) -> int:
        """Deterministic multi-phase fast-forward of the whole vheap.

        The heavy end of the batch executor: when the real heap is empty,
        every pending record in the system belongs to an in-flight fused
        phase, and an uncontended phase's future is a straight line —
        each record pushes exactly one successor at a delay known in
        advance (chain delays, memoized or profile-pure pin holds, batch
        copy shares).  This routine builds each phase's remaining record
        stream up front (a per-phase ``cumsum`` over the same float
        operands the scalar loop would add, with the entry time as
        element zero, so every timestamp is bit-identical) and retires
        them wholesale: one bulk sequence-number draw per drained record
        (the counter is advanced with ``islice``, never replaced),
        per-lock statistics written back in closed form at each pin
        segment's completion point, and segment callbacks run at their
        exact causal positions.

        Commit order across phases is *relaxed*, and exactly that far:
        over the drained horizon every phase's records touch only its
        own process, its own locks' disjoint windows, and commutative
        sums, so any per-phase-monotonic commit order leaves bit-
        identical state — the per-record global ``(time, seq)``
        interleaving need not be materialized.  The one observable it
        does leak into is the parked records' sequence numbers: each
        phase's park draws its seq at the bulk position its predecessor
        count dictates, and same-timestamp parks are ordered by the
        reversed per-phase drained-time history (lexicographic; a
        history that is a suffix of another's orders first), which is
        precisely the order the scalar heap would have granted the
        draws.  The stream walk itself (patterns, delta vectors,
        milestone/window/callback tables) is memoized in
        ``_drain_plans`` keyed on the entry shape and segment
        identities — warm rounds re-enter with the kernel's cached
        segment objects, so the walk amortizes to one build per shape.
        When every milestone callback is a fold-aware counter bump
        (:class:`FoldBump`: pure arithmetic, cannot raise, reads
        nothing), the commit collapses further: one bulk consume, one
        closed-form writeback sweep per phase, one ``bump(n)`` per
        distinct counter.

        Holds are resolved without perturbing the stream: a memo hit
        under the steady single-member key, or an early ``hold_fn`` call
        evaluated under the exact single-holder contention profile the
        future grant will see (the lock is briefly staged when free —
        legal because ``memo``/phase emission assert purity in
        ``(pages, profile)``; see :class:`PinConvoy`).

        Declines (return 0, nothing mutated — memo fills excepted, which
        are pure caches) whenever the stream cannot be proven straight:
        an unresolvable hold, a waiter already queued, a lock held by
        anything but a drained phase's own entry convoy, two phases'
        pin windows touching on one lock (a wait could form), a failed
        order verification, or an event-budget crossing.  Records at or
        beyond the earliest *completion* record (which must resume its
        generator in the scalar loop) or past ``until`` are left for
        later: each phase parks its first undrained record back into
        the vheap bearing the sequence number its predecessor's bulk
        draw assigned, with lock state for a partially-drained pin
        segment replayed op-for-op through the real mutex cores — so
        the scalar loop resumes mid-stream bit-exactly.

        A raising segment callback truncates at exactly the scalar
        failure point: draws, clock, per-lock state and every other
        phase's parked record roll forward only to the raising record's
        merge position, and the raising process fails there.
        """
        np_mod = self._np
        # -- classify the in-flight records ---------------------------------
        plan = []        # (record, phase, entry convoy or None)
        parked = []      # records the scalar loop must process itself
        e_x = None       # earliest parked record: hard (strict) horizon
        for rec in vheap:
            k = rec[2]
            conv0 = None
            if k >= _K_PCHAIN:
                ph = rec[3]
            else:
                conv0 = rec[3]
                ph = conv0.phase
                if ph is None:
                    return 0  # an outside convoy is braided in: scalar
            done = False
            if k == _K_PSTEP or (k == _K_PCHAIN and rec[4] == 0.0):
                done = ph.idx + 1 >= len(ph.segments)
            elif k == _K_CREJOIN or k == _K_CCHAIN:
                b0 = conv0.batches
                if k == _K_CREJOIN or b0[conv0.idx][1] == 0.0:
                    done = (conv0.idx + 1 >= len(b0)
                            and ph.idx + 1 >= len(ph.segments))
            if done:
                parked.append(rec)
                if e_x is None or rec[0] < e_x:
                    e_x = rec[0]
            else:
                plan.append((rec, ph, conv0))
        if not plan:
            return 0
        plan.sort(key=lambda e: e[0][1])

        # -- fetch or build each phase's drain plan -------------------------
        # Warm rounds re-enter with identical segment objects (kernel
        # emission caches), so the expensive stream walk amortizes to one
        # :meth:`_drain_plan_build` per phase shape.  Plans hold strong
        # references to every object their key names by id, so a key
        # match implies identity.
        inf = float("inf")
        pes = []
        pcache = {}
        plans = self._drain_plans
        for rec, ph, conv0 in plan:
            k0 = rec[2]
            pkey = (ph.idx, k0,
                    conv0.idx if conv0 is not None else rec[4],
                    tuple(map(id, ph.segments[ph.idx:])))
            pln = plans.get(pkey)
            if pln is None:
                pln = self._drain_plan_build(rec, ph, conv0, pcache)
                if pln is None:
                    return 0
                if len(plans) >= 512:  # runaway-shape backstop
                    plans.clear()
                plans[pkey] = pln
            m = pln["m"]
            if m < 2:  # pragma: no cover - completion pre-scan covers this
                parked.append(rec)
                if e_x is None or rec[0] < e_x:
                    e_x = rec[0]
                continue
            buf = pln["dl"].copy()
            buf[0] = rec[0]
            pes.append({"rec": rec, "ph": ph, "proc": ph.proc,
                        "conv0": conv0, "pln": pln, "descs": pln["descs"],
                        "times": np_mod.cumsum(buf), "m": m})

        # -- horizon: strictly before the earliest parked record, at most
        #    ``until``, never a phase's completion record ---------------------
        drained_pes = []
        N = 0
        for pe in pes:
            times = pe["times"]
            hi = pe["m"] - 1
            if e_x is not None:
                s = int(np_mod.searchsorted(times, e_x, side="left"))
                if s < hi:
                    hi = s
            if until is not None:
                s = int(np_mod.searchsorted(times, until, side="right"))
                if s < hi:
                    hi = s
            if hi > 0:
                pe["ni"] = hi
                N += hi
                drained_pes.append(pe)
            else:
                # at/after the horizon already: stays put (and cannot
                # precede anything drained, which is strictly below it)
                parked.append(pe["rec"])
        if not drained_pes or n + N > self.max_events:
            return 0

        # -- propose and verify the global processing order -----------------
        # Any per-phase-monotonic commit order yields the same state:
        # over the drained window the phases are fully independent (the
        # locks are uncontended and the per-round held-windows strictly
        # disjoint — checked below), the closed-form lock writebacks
        # commute, and the stats are additive.  A stable time sort is
        # therefore exact for everything the scalar path can observe
        # EXCEPT the relative seq order of parked records sharing one
        # park timestamp; the park loop resolves exactly those few pairs
        # against the scalar draw rule (see :func:`_drain_seq_before`).
        T = np_mod.concatenate(
            [pe["times"][:pe["ni"]] for pe in drained_pes]
        )
        order = np_mod.argsort(T, kind="stable")
        ar = np_mod.arange(N, dtype=order.dtype)
        pos = np_mod.empty(N, dtype=order.dtype)
        pos[order] = ar
        gb = 0
        for pe in drained_pes:
            ni = pe["ni"]
            pe["pos"] = pos[gb:gb + ni]
            gb += ni

        # -- lock safety: waiter-free, held only by entry convoys, and
        #    per-round held-windows [acquire, release] strictly disjoint
        #    per lock (phases legitimately pipeline through each other's
        #    free gaps between rounds: the copy tails) ----------------------
        # Windows come precomputed as dlist index pairs in each phase's
        # plan; per phase, the scalar scan's cut rule selects the prefix
        # of windows whose descriptor starts before the cut AND whose
        # grant index is <= the cut (a grant record's acquire happened
        # one record earlier — the ADV or the previous rejoin, at the
        # same time).  Index -1 maps to -inf (held at entry), a release
        # index at/after the cut to +inf (still held at the cut).
        lockchk = {}
        held_by = {}
        sl = []
        el = []
        cl = []
        for pe in drained_pes:
            pln = pe["pln"]
            ni = pe["ni"]
            for base, lk in pln["ulocks"]:
                if base >= ni:
                    break
                lockchk.setdefault(id(lk), lk)
            h0 = pln["held0lock"]
            if h0 is not None:
                held_by[id(h0)] = pe["proc"]
            wg = pln["wg"]
            nw = int(np_mod.searchsorted(wg, ni, side="right"))
            nb = int(np_mod.searchsorted(pln["wbase"], ni, side="left"))
            if nb < nw:
                nw = nb
            if not nw:
                continue
            g = wg[:nw]
            r = pln["wr"][:nw]
            times = pe["times"]
            sl.append(np_mod.where(
                g >= 0, times[np_mod.maximum(g, 0)], -inf
            ))
            el.append(np_mod.where(
                r < ni, times[np_mod.minimum(r, pe["m"] - 1)], inf
            ))
            cl.append(pln["codes"][:nw])
        for lid, lock in lockchk.items():
            if lock._waiters:
                return 0
            if lock.holder is not None and (
                lock.holder is not held_by.get(lid)
            ):
                return 0
        if len(sl) > 1 or (sl and len(sl[0]) > 1):
            starts = np_mod.concatenate(sl)
            ends = np_mod.concatenate(el)
            codes = np_mod.concatenate(cl)
            o2 = np_mod.lexsort((starts, codes))
            starts = starts[o2]
            ends = ends[o2]
            codes = codes[o2]
            if bool(np_mod.any(
                (codes[1:] == codes[:-1]) & (starts[1:] <= ends[:-1])
            )):
                return 0

        # -- commit: bulk draws, closed-form lock writebacks, callbacks -----
        seq_iter = self._seq
        islice_ = itertools.islice
        sink = deque(maxlen=0).extend
        state = [None, 0]  # [first drawn seq, records consumed]

        def _consume(k):
            if k <= 0:
                return
            if state[0] is None:
                state[0] = next(seq_iter)
                state[1] += 1
                k -= 1
                if not k:
                    return
            sink(islice_(seq_iter, k))
            state[1] += k

        miles = []
        if all(pe["pln"]["mil_fold"] for pe in drained_pes):
            # Every callback in the window is a FoldBump: nothing can
            # raise or observe mid-drain state, so the merge-ordered
            # milestone walk collapses into one bulk draw, per-phase
            # closed-form lock writebacks (they commute: the locks are
            # uncontended, the windows disjoint, the sums additive) and
            # one batched bump per callback object.
            _consume(N)
            folds = {}
            for pe in drained_pes:
                ni = pe["ni"]
                descs = pe["descs"]
                pln = pe["pln"]
                proc = pe["proc"]
                for di, last in pln["wb"]:
                    if last >= ni:
                        break
                    desc = descs[di]
                    lock = desc[3]
                    acq = desc[5]
                    d = acq + desc[6]
                    if d:
                        g0 = lock.generation
                        if lock._convoy_gen == g0:
                            lock._convoy_gen = g0 + d
                        lock.generation = g0 + d
                    if acq:
                        lock.acquisitions += acq
                        if lock.max_contenders < 1:
                            lock.max_contenders = 1
                    if desc[8]:
                        # the entry convoy held this lock across drain
                        # start
                        counts = lock._socket_counts
                        left = counts[proc.socket] - 1
                        if left:
                            counts[proc.socket] = left
                        else:
                            del counts[proc.socket]
                        lock.holder = None
                    mm = desc[4][4]
                    if mm is not None:
                        mm.pages_pinned += desc[7]
                    proc.convoy = None
                for last, cb in pln["fcb"]:
                    if last >= ni:
                        break
                    ent = folds.get(id(cb))
                    if ent is None:
                        folds[id(cb)] = [cb, 1]
                    else:
                        ent[1] += 1
            for cb, cnt in folds.values():
                cb.bump(cnt)
        else:
            for pe in drained_pes:
                ni = pe["ni"]
                ppos = pe["pos"]
                descs = pe["descs"]
                for di, last in pe["pln"]["mil"]:
                    if last >= ni:
                        break
                    miles.append((int(ppos[last]), pe, descs[di], last))
            miles.sort(key=lambda e: e[0])
        exc_pe = exc_desc = exc_ = None
        cut = N
        for gp, pe, desc, last in miles:
            _consume(gp - state[1])
            lock = desc[3]
            seg = desc[4]
            if lock is not None:
                acq = desc[5]
                d = acq + desc[6]
                if d:
                    g0 = lock.generation
                    if lock._convoy_gen == g0:
                        lock._convoy_gen = g0 + d
                    lock.generation = g0 + d
                if acq:
                    lock.acquisitions += acq
                    if lock.max_contenders < 1:
                        lock.max_contenders = 1
                if desc[8]:
                    # the entry convoy held this lock across drain start
                    proc = pe["proc"]
                    counts = lock._socket_counts
                    left = counts[proc.socket] - 1
                    if left:
                        counts[proc.socket] = left
                    else:
                        del counts[proc.socket]
                    lock.holder = None
                mm = seg[4]
                if mm is not None:
                    mm.pages_pinned += desc[7]
                pe["proc"].convoy = None
            cb = seg[-1]
            if cb is not None:
                self.now = float(pe["times"][last])
                try:
                    cb()
                except BaseException as exc:
                    exc_pe, exc_desc, exc_ = pe, desc, exc
                    cut = gp
                    break
        if exc_pe is None:
            _consume(N - state[1])
            self.now = float(T[order[N - 1]])
        else:
            self.now = float(T[order[cut]])
        S0 = state[0]

        # -- park each phase's first undrained record -----------------------
        fresh = []  # [t, sq, kind, obj, aux, pe, ni] — seq-fixed below
        for pe in drained_pes:
            if pe is exc_pe:
                continue
            ni = pe["ni"]
            if cut < N:
                ni = int(np_mod.searchsorted(pe["pos"], cut))
                if ni == 0:
                    parked.append(pe["rec"])
                    continue
            ph = pe["ph"]
            proc = pe["proc"]
            desc = None
            for dsc in pe["descs"]:
                if ni < dsc[0] + len(dsc[1]):
                    desc = dsc
                    break
            off = ni - desc[0]
            kind, r = desc[1][off]
            t = float(pe["times"][ni])
            sq = S0 + int(pe["pos"][ni - 1])
            seg = desc[4]
            ph.idx = desc[2]
            if desc[3] is None:
                proc.convoy = None
                aux = seg[2] if kind == _K_PCHAIN else None
                fresh.append([t, sq, kind, ph, aux, pe, ni])
            else:
                lock = desc[3]
                # Cached descriptors carry no convoy (plans outlive any
                # one round's); the live entry convoy rides on the pe.
                conv = pe["conv0"] if desc[0] == 0 else None
                if conv is None:
                    conv = _Convoy._for_phase(proc, seg, ph)
                    proc.convoy = conv
                    lock._acquire_core(proc)
                else:
                    proc.convoy = conv
                batches = conv.batches
                mm = conv.mm
                # replay this partial segment's drained hops op-for-op
                # through the real mutex cores (they push no records)
                for k2, r2 in desc[1][:off]:
                    if k2 == _K_CRELEASE:
                        lock._release_core(proc)
                    elif k2 == _K_CREJOIN or (
                        k2 == _K_CCHAIN and batches[r2][1] == 0.0
                    ):
                        if mm is not None:
                            mm.pages_pinned += batches[r2][0]
                        conv.idx = r2 + 1
                        lock._acquire_core(proc)
                fresh.append([t, sq, kind, conv, None, pe, ni])
        # Freshly drawn parked seqs must tie-break against each other
        # exactly as the scalar heap would: a successor's seq is drawn
        # when its predecessor is processed, so same-park-time records
        # order by predecessor processing order, not by the stable-sort
        # rank the values above came from.  Re-deal each same-time
        # group's seq values in scalar draw order.  (Against everything
        # else — pre-drain in-flight records below S0, future draws at
        # S0 + N and up — the values already order correctly.)
        if len(fresh) > 1:
            fresh.sort(key=lambda e: e[0])
            i2 = 0
            nf = len(fresh)
            while i2 < nf:
                j2 = i2 + 1
                while j2 < nf and fresh[j2][0] == fresh[i2][0]:
                    j2 += 1
                if j2 - i2 > 1:
                    grp = fresh[i2:j2]
                    seqs = sorted(e[1] for e in grp)
                    grp.sort(key=_HistKey)
                    for sv, e in zip(seqs, grp):
                        e[1] = sv
                i2 = j2
        for t, sq, kind, obj, aux, pe, ni in fresh:
            parked.append((t, sq, kind, obj, aux))
        vheap.clear()
        vheap.extend(parked)
        heapq.heapify(vheap)
        if exc_pe is not None:
            exc_pe["ph"].idx = exc_desc[2]
            proc = exc_pe["proc"]
            proc.convoy = None
            self._finish(proc, None, exc_)
            return cut + 1
        return N

    # -- process stepping ---------------------------------------------------

    def _resume(self, proc: SimProcess, value: Any) -> None:
        if proc.state in (_DONE, _FAILED):  # pragma: no cover - defensive
            return
        proc.state = _READY
        try:
            cmd = proc._send(value)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as exc:  # process raised: record and propagate
            self._finish(proc, None, exc)
            return
        self._dispatch(proc, cmd)

    def _throw(self, proc: SimProcess, exc: BaseException) -> None:
        """Resume a process by raising ``exc`` inside it (used by channels)."""
        if proc.state in (_DONE, _FAILED):  # pragma: no cover - defensive
            return
        proc.state = _READY
        try:
            cmd = proc._gthrow(exc)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as err:
            self._finish(proc, None, err)
            return
        self._dispatch(proc, cmd)

    def _dispatch(self, proc: SimProcess, cmd: Any) -> None:
        # Protocol errors (double release, bad iovec, ...) fail the process
        # that issued the command, like a raise at the yield.
        try:
            tc = type(cmd)
            if tc is Delay:
                proc.state = _BLOCKED
                self._push(cmd.dt, _K_RESUME, proc, None)
            elif tc is Acquire:
                proc.state = _BLOCKED
                cmd.lock._acquire(proc)
            elif tc is HoldRelease:
                proc.state = _BLOCKED
                self._push(cmd.dt, _K_RELEASE, proc, (cmd.lock, cmd.extra_dt))
            elif tc is DelayChain:
                proc.state = _BLOCKED
                self._push(cmd.d1, _K_CHAIN, proc, cmd.d2)
            elif tc is PinConvoy or tc is FaultConvoy:
                proc.state = _BLOCKED
                proc.convoy = _Convoy(proc, cmd)
                cmd.lock._acquire(proc)
            elif isinstance(cmd, PhaseCommand):
                # RingStage / TreeRound / PairwiseExchange: one dispatch
                # for the whole phase.  Rare (once per phase), so it stays
                # out of the run loop's inlined hot commands.
                proc.state = _BLOCKED
                self._phase_sched(_Phase(proc, cmd))
            elif tc is Release:
                cmd.lock._release(proc)
                # Releasing never blocks; continue the releaser via a fresh
                # record so the granted waiter (scheduled first) runs at the
                # same timestamp.
                proc.state = _BLOCKED
                self._push(0.0, _K_RESUME, proc, None)
            elif tc is WakeAt:
                if cmd.t < self.now:
                    raise SimError(f"cannot wake in the past (t={cmd.t!r})")
                proc.state = _BLOCKED
                heapq.heappush(
                    self._heap, (cmd.t, next(self._seq), _K_RESUME, proc, None)
                )
            elif tc is Join:
                target = cmd.proc
                proc.state = _BLOCKED
                if target.state == _DONE:
                    self._push(0.0, _K_RESUME, proc, target.result)
                elif target.state == _FAILED:
                    self._push(0.0, _K_THROW, proc, target.error)
                else:
                    target._joiners.append(proc)
            elif isinstance(cmd, Command):
                # Channel commands (Send/Recv) know how to dispatch themselves
                # to avoid a circular import; see repro.sim.channels.
                proc.state = _BLOCKED
                cmd._dispatch(self, proc)  # type: ignore[attr-defined]
            else:
                self._finish(
                    proc,
                    None,
                    SimError(f"process {proc.name} yielded non-command {cmd!r}"),
                )
        except BaseException as exc:
            self._finish(proc, None, exc)

    def _finish(
        self, proc: SimProcess, result: Any, error: Optional[BaseException]
    ) -> None:
        proc.result = result
        proc.error = error
        proc.state = _FAILED if error is not None else _DONE
        proc.finish_time = self.now
        joiners, proc._joiners = proc._joiners, []
        if error is not None:
            for j in joiners:
                self._push(0.0, _K_THROW, j, error)
        else:
            for j in joiners:
                self._push(0.0, _K_RESUME, j, result)
