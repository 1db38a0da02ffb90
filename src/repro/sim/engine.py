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

``Simulator(use_pin_convoy=False)`` selects the reference path of the
convoy fast path: the kernel keeps its per-batch ``Acquire``/
``HoldRelease`` loops instead of yielding :class:`PinConvoy`.  Both flags
change speed, never results.

A convoy granted a lock nobody else waits on or convoys on is
*collapsed*: its remaining batches fold into a list of exact float due
times plus one record at the end time (:meth:`Simulator._convoy_collapse`).
The run loop crosses the folded records in ``(time, seq)`` order with
every other record instead of dispatching them
(:meth:`Simulator._convoy_cross`), so each keeps the tie-break position
its per-batch record would have had, and a foreign acquire of that lock
expands the convoy back into per-batch records first
(:meth:`Simulator._convoy_expand`).  Results stay identical, ties at one
float time included; the engine processes fewer events, so
``events_processed`` counts engine work, not simulated operations.

The engine knows nothing about machines, kernels, or MPI — those layers are
implemented as generators that run *on* it.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

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

    The timeline is bit-identical to the unfused loop — same timestamps,
    FIFO grant order and lock statistics — but every per-batch hop is a
    dispatch record instead of a generator resumption, and with ``memo``
    set an uncontended remainder folds into a schedule the run loop
    crosses without dispatching (see :meth:`Simulator._convoy_collapse`),
    so the event count can only fall.  The command evaluates to
    ``npages``.  ``mm`` (optional) is a counter object whose
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
    """

    __slots__ = ("lock", "hold_fn", "batches", "mm", "npages", "memo")

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PinConvoy({self.lock!r}, {len(self.batches)} batches)"


class FaultConvoy(PinConvoy):
    """A pin convoy fused with a trailing pin-free delay (``tail_dt``).

    The mapped-window kernel's cold-copy fast path: per-page fault-ins
    contend on the owner's mm lock exactly like a :class:`PinConvoy`
    (``batches`` is one single-page batch per faulted page), and the
    steady-state copy that follows never touches the lock — it is a plain
    delay after the last rejoin.  Yielding ``FaultConvoy(..., tail_dt=t)``
    has the timeline of ``yield PinConvoy(...)`` followed by
    ``yield Delay(t)`` — the resume record is allocated at the exact
    causal point the unfused ``Delay`` push happened (the last rejoin, or
    the collapsed convoy's done record), with the same timestamp
    arithmetic — minus one generator resumption.  The command
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
# release (_K_RELEASE), chain (_K_CHAIN), rejoin (_K_RESUME) — so
# sequence-number allocation points are identical; only the generator
# stays parked until the last batch.
_K_CGRANT = 6    # lock granted: compute hold_time, schedule the release
_K_CRELEASE = 7  # hold elapsed: release the lock, chain to the rejoin
_K_CCHAIN = 8    # post-release: rejoin now (extra==0) or after extra
_K_CREJOIN = 9   # batch done: count pages, next acquire or resume the proc
# A collapsed convoy (see Simulator._convoy_collapse) replaces all of the
# above for its remaining batches with one record due at the end time.
_K_CDONE = 10    # collapsed convoy due: take its turn, or finish and resume

_INF = float("inf")


class _Convoy:
    """Engine-side state of one process's in-flight :class:`PinConvoy`."""

    __slots__ = ("proc", "lock", "hold_fn", "batches", "idx", "mm", "npages",
                 "memo", "tail", "times", "p", "vs", "done", "pinned",
                 "held")

    def __init__(self, proc: "SimProcess", cmd: PinConvoy):
        self.proc = proc
        self.lock = cmd.lock
        self.hold_fn = cmd.hold_fn
        self.batches = cmd.batches
        self.idx = 0
        self.mm = cmd.mm
        self.npages = cmd.npages
        self.memo = cmd.memo
        self.tail = getattr(cmd, "tail_dt", 0.0)
        #: while collapsed: the due time of every per-batch record left,
        #: in order (``None`` otherwise); ``p`` indexes the next one and
        #: ``vs`` is the sequence number it holds; ``done`` is the pending
        #: ``_K_CDONE`` heap entry; ``pinned`` the folded batches' pages
        #: and ``held`` the lock's ``total_hold_us`` once they all released
        self.times: Optional[list] = None
        self.p = 0
        self.vs = 0
        self.done: Optional[tuple] = None
        self.pinned = 0
        self.held = 0.0


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
    ``HoldRelease`` loops instead of yielding :class:`PinConvoy`; all
    four combinations give bit-identical results — the convoy
    differential battery relies on this — and the convoy modes process
    no more events than the per-batch ones.
    """

    def __init__(
        self,
        max_events: int = 200_000_000,
        use_ready_queue: bool = True,
        use_pin_convoy: bool = True,
    ):
        self.now: float = 0.0
        self.max_events = max_events
        self.events_processed = 0
        self._heap: list[tuple] = []
        self._ready: deque[tuple] = deque()
        self._use_ready = use_ready_queue
        self.use_pin_convoy = use_pin_convoy
        self._seq = itertools.count()
        self._pid_counter = itertools.count(1000)  # PIDs look like real PIDs
        self._procs: list[SimProcess] = []
        #: convoys folded into one record / expanded again by a foreign
        #: acquire (see :meth:`_convoy_collapse`)
        self.convoys_collapsed = 0
        self.convoys_expanded = 0
        #: ``(due time, seq, convoy)`` of each collapsed convoy's next
        #: record before its end time, a heap (see :meth:`_convoy_cross`)
        self._vq: list[tuple] = []

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
        self.convoys_collapsed = 0
        self.convoys_expanded = 0
        self._vq.clear()

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
        max_events = self.max_events
        throw = self._throw
        push = self._push
        finish = self._finish
        dispatch = self._dispatch
        # A horizon may stop the loop inside a convoy, which must then be
        # in per-batch record state: no collapsing under ``until``.
        collapse = self._convoy_collapse if until is None else None
        # Collapsed convoys' records are crossed, not dispatched: before
        # any record at or past ``vmin`` runs, every such record due
        # before it takes its turn (see _convoy_cross).
        vq = self._vq
        cross = self._convoy_cross
        vmin = vq[0][0] if vq else _INF
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
                    s, kind, a, b = ready_pop()
                    if now >= vmin:
                        vmin = cross(now, s)
                else:
                    entry = heap[0]
                    t = entry[0]
                    if until is not None and t > until:
                        self.now = until
                        return until
                    heappop(heap)
                    self.now = now = t
                    if t >= vmin:
                        vmin = cross(t, entry[1])
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
                    try:
                        conv.lock._release(conv.proc)
                    except BaseException as exc:
                        finish(conv.proc, None, exc)
                        continue
                    if use_ready:
                        ready_append((next_seq(), _K_CCHAIN, conv, None))
                    else:
                        heappush(heap, (now, next_seq(), _K_CCHAIN, conv, None))
                    continue
                elif kind == _K_CCHAIN or kind == _K_CREJOIN:
                    conv = a
                    if kind == _K_CCHAIN:
                        extra = conv.batches[conv.idx][1]
                        if extra != 0.0:
                            heappush(
                                heap,
                                (now + extra, next_seq(), _K_CREJOIN, conv, None),
                            )
                            continue
                        # extra == 0: the rejoin runs inside this very
                        # event, exactly where the unfused engine ran its
                        # send.
                    mm = conv.mm
                    if mm is not None:
                        mm.pages_pinned += conv.batches[conv.idx][0]
                    conv.idx += 1
                    if conv.idx < len(conv.batches):
                        try:
                            conv.lock._acquire(conv.proc)
                        except BaseException as exc:
                            finish(conv.proc, None, exc)
                        continue
                    proc = conv.proc
                    proc.convoy = None
                    conv.lock._members -= 1
                    if conv.tail != 0.0:
                        # FaultConvoy: the pin-free copy tail replaces the
                        # unfused ``yield Delay(tail)`` — same seq
                        # allocation point, same timestamp sum.
                        heappush(
                            heap,
                            (now + conv.tail, next_seq(), _K_RESUME, proc,
                             conv.npages),
                        )
                        continue
                    value = conv.npages
                    # fall through: resume with the pin-loop result
                elif kind == _K_CGRANT:
                    conv = a
                    hmemo = conv.memo
                    hold = None
                    if hmemo is not None:
                        lk = conv.lock
                        # the lock's lone convoy and nobody waiting: fold
                        # the remaining batches into one record
                        if (
                            lk._members == 1
                            and collapse is not None
                            and not lk._waiters
                            and collapse(conv)
                        ):
                            if vq:
                                vmin = vq[0][0]
                            continue
                        # hold_fn declared pure in (pages, contention
                        # profile): a hit returns the exact float the
                        # call would have computed.
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
                elif kind == _K_CDONE:
                    conv = a
                    fin = self._convoy_turn(conv, b)
                    vmin = vq[0][0] if vq else _INF
                    if not fin:
                        continue
                    # finished exactly like the last rejoin
                    proc = conv.proc
                    if conv.tail != 0.0:
                        heappush(
                            heap,
                            (now + conv.tail, next_seq(), _K_RESUME, proc,
                             conv.npages),
                        )
                        continue
                    value = conv.npages
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
                        cmd.lock._members += 1
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
                cmd.lock._members += 1
                cmd.lock._acquire(proc)
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

    # -- convoy collapse ------------------------------------------------------
    #
    # A collapsed convoy keeps the per-batch schedule as a list of due
    # times, one per record the per-batch path would dispatch: release,
    # chain and (with a copy gap) rejoin of the granted batch, then grant,
    # release, chain, rejoin of every later one.  Those records are not
    # dispatched; the run loop *crosses* them.  Before it dispatches a
    # record at (t, seq) it lets every collapsed record due before that
    # position take its turn, which in an uncontended convoy does nothing
    # but schedule the next record: so crossing only moves the convoy's
    # index and hands the record now next the sequence number the
    # per-batch path would have allocated at that moment (relative to
    # every other record, which is all a sequence number encodes).  Ties
    # at one float time thus resolve exactly as in the per-batch path.
    # The records sharing the end time are left to ``_K_CDONE``.

    def _convoy_collapse(self, conv: _Convoy) -> bool:
        """Fold the rest of a just-granted, uncontended convoy into a
        crossing schedule and one ``_K_CDONE`` record at its end time;
        returns False (nothing changed) if it cannot.

        Called at the grant of batch ``conv.idx`` when the lock has no
        waiters and this convoy is its only in-flight member.  Until some
        other process acquires the lock, every remaining batch then runs
        uncontended: each hold is ``hold_fn`` at the lone-holder profile
        ``(1, 0)`` (a memo hit or the same call the grant record would
        make — the memo asserts purity in that key), and the due times
        are the per-batch records' own float fold, ``t = t + hold`` then
        ``t = t + extra`` when ``extra != 0``.  The release record of
        the granted batch takes its sequence number here, where the grant
        record would have scheduled it.  Nobody else can release the lock
        before the convoy settles, so the loop also adds each batch's
        release time minus grant time to the lock's ``total_hold_us``, in
        batch order as the releases would, into ``conv.held``.  The lock
        stays marked as held by the convoy; ``_K_CDONE`` settles its
        statistics, and a foreign :meth:`Mutex._acquire` calls
        :meth:`_convoy_expand` first.

        A hold model that raises or returns a negative hold for a later
        batch size leaves the convoy in per-batch state, so the failure
        surfaces at that batch's grant as before.
        """
        memo = conv.memo
        proc = conv.proc
        t = self.now
        times: list = []
        add = times.append
        pinned = 0
        last = None
        hold = 0.0
        held = conv.lock.total_hold_us
        for pages, extra in itertools.islice(conv.batches, conv.idx, None):
            if pages != last:
                key = (pages, 1, 0)
                hold = memo.get(key)
                if hold is None:
                    try:
                        hold = conv.hold_fn(pages, proc)
                    except Exception:
                        return False
                    if hold < 0:
                        return False
                    memo[key] = hold
                last = pages
            if pinned:
                add(t)  # grant
            granted = t
            t = t + hold
            held += t - granted
            add(t)  # release
            add(t)  # chain
            if extra != 0.0:
                t = t + extra
                add(t)  # rejoin
            pinned += pages
        seq = next(self._seq)
        conv.times = times
        conv.p = 0
        conv.vs = seq
        conv.pinned = pinned
        conv.held = held
        conv.done = (t, seq, _K_CDONE, conv, seq)
        heapq.heappush(self._heap, conv.done)
        if times[0] < t:
            heapq.heappush(self._vq, (times[0], seq, conv))
        conv.lock._collapsed = conv
        self.convoys_collapsed += 1
        return True

    def _convoy_cross(self, t: float, seq: int) -> float:
        """Cross every collapsed record due before position ``(t, seq)``;
        returns the earliest due time left in the crossing queue.

        Each convoy jumps to its first record due at ``t`` or later (a
        record scheduled during this crossing is due after ``seq``, so one
        due exactly at ``t`` stays), which then takes a fresh sequence
        number.  Several convoys take theirs in the order the per-batch
        path would have scheduled those records: by due time, then by
        the order of the records that scheduled them, back to the record
        each convoy started from, whose sequence number is known.  A
        convoy whose next record is due at its end time leaves the queue.
        """
        vq = self._vq
        moved = []
        while vq:
            vt, vs, conv = vq[0]
            if vt > t or (vt == t and vs > seq):
                break
            heapq.heappop(vq)
            # skip entries left by an expansion or a later crossing
            if conv.vs == vs and conv.times is not None:
                times = conv.times
                p0 = conv.p
                moved.append((conv, p0, vs, bisect_left(times, t, p0 + 1)))
        if len(moved) > 1:
            # reversed due times of the crossed records, then the start
            # record's (time, -1, seq): times are >= 0, so at equal times
            # a known sequence number sorts before a fresh one
            def order(item):
                conv, p0, vs, p = item
                times = conv.times
                key = times[p:p0:-1]
                key += (times[p0], -1, vs)
                return key
            moved.sort(key=order)
        for conv, _, _, p in moved:
            vs = next(self._seq)
            conv.p = p
            conv.vs = vs
            vt = conv.times[p]
            if vt < conv.done[0]:
                heapq.heappush(vq, (vt, vs, conv))
        return vq[0][0] if vq else _INF

    def _convoy_turn(self, conv: _Convoy, seq: int) -> bool:
        """Run a collapsed convoy's ``_K_CDONE`` record, due at its end
        time with sequence number ``seq``; True when the convoy finished
        (settled, its process to be resumed like at the last rejoin).

        The records sharing the end time still run one by one in
        sequence order: whenever one of them is next behind a queued
        record, ``_K_CDONE`` is pushed again with its sequence number.
        """
        heap = self._heap
        ready = self._ready
        now = self.now
        vq = self._vq
        vs = conv.vs
        if vs != seq:
            if (heap and heap[0][0] == now and heap[0][1] < vs) or (
                ready and ready[0][0] < vs
            ):
                conv.done = (now, vs, _K_CDONE, conv, vs)
                heapq.heappush(heap, conv.done)
                return False
            self._convoy_cross(now, vs)
        times = conv.times
        p = conv.p
        last = len(times) - 1
        while p < last:
            # the record after p is scheduled now, behind anything queued
            p += 1
            if (
                (heap and heap[0][0] == now) or ready
                or (vq and vq[0][0] == now)
            ):
                conv.p = p
                conv.vs = vs = next(self._seq)
                conv.done = (now, vs, _K_CDONE, conv, vs)
                heapq.heappush(heap, conv.done)
                return False
        # the convoy ran uncontended to its end: settle the lock as the
        # folded batches' records would have left it (one acquire and one
        # release per batch, all uncontended)
        lk = conv.lock
        lk._collapsed = None
        conv.times = None
        conv.done = None  # break the conv -> record -> conv cycle
        k = len(conv.batches) - conv.idx - 1
        lk.acquisitions += k
        lk.generation += 2 * k
        lk._release(conv.proc)
        lk.total_hold_us = conv.held  # every folded hold, added in order
        if conv.mm is not None:
            conv.mm.pages_pinned += conv.pinned
        conv.proc.convoy = None
        lk._members -= 1
        return True

    def _convoy_expand(self, conv: _Convoy) -> None:
        """Turn a collapsed convoy back into per-batch records.

        Called by a foreign :meth:`Mutex._acquire`, so every collapsed
        record due before the current one has been crossed.  The convoy's
        next record becomes a real dispatch record with its due time and
        sequence number, and the lock, the pinned pages and ``conv.idx``
        are settled to the state the per-batch records leave just before
        it: held while that record is a grant or release, free after a
        release.  From there the ordinary contended records take over.
        """
        lock = conv.lock
        lock._collapsed = None
        self.convoys_expanded += 1
        heap = self._heap
        heap.remove(conv.done)
        heapq.heapify(heap)
        conv.done = None
        times = conv.times
        conv.times = None
        p = conv.p
        batches = conv.batches
        i0 = j = conv.idx
        rec = 0
        pinned = 0
        # the holds of the released batches, added in batch order as
        # their releases would have
        held = lock.total_hold_us
        granted = lock._granted_at
        while True:
            pages, extra = batches[j]
            kinds = [_K_CRELEASE, _K_CCHAIN]
            if j > i0:
                kinds.insert(0, _K_CGRANT)
                granted = times[rec]
            hold = times[rec + (j > i0)] - granted  # release - grant
            if extra != 0.0:
                kinds.append(_K_CREJOIN)
            if p < rec + len(kinds):
                kind = kinds[p - rec]
                break
            held += hold
            rec += len(kinds)
            pinned += pages
            j += 1
        # batches i0..j-1 released and rejoined, i0+1..j acquired
        lock.acquisitions += j - i0
        lock.generation += 2 * (j - i0)
        if kind == _K_CCHAIN or kind == _K_CREJOIN:
            held += hold
            lock._release(conv.proc)
        else:
            lock._granted_at = granted
        lock.total_hold_us = held
        if conv.mm is not None:
            conv.mm.pages_pinned += pinned
        conv.idx = j
        heapq.heappush(heap, (times[p], conv.vs, kind, conv, None))

    def _finish(
        self, proc: SimProcess, result: Any, error: Optional[BaseException]
    ) -> None:
        conv = proc.convoy
        if conv is not None:
            # failed inside a convoy (its first acquire included): drop
            # the convoy and its lock membership with it
            proc.convoy = None
            conv.lock._members -= 1
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
