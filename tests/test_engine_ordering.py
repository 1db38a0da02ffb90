"""Ordering invariants of the event engine's fast paths.

The zero-delay ready queue, the fused ``DelayChain``/``HoldRelease``
commands, and the inlined run loop are pure optimisations: they must not
change *which* process runs *when*.  These tests pin the observable
contract — ``run(until=)`` boundary semantics, FIFO fairness at equal
timestamps, fused-command equivalence — and a randomized stress test
asserts that the fast path and the heap-only path
(``Simulator(use_ready_queue=False)``) produce identical resume traces.
The channel commands (``Send``/``Recv``/``Join``) are open-coded in the
run loop and again in the out-of-line ``Simulator._dispatch``, which a
process reaches only after being woken by an exception; both copies must
schedule the same records in the same order.
"""

import random

import pytest

from repro.sim import (
    ANY,
    Acquire,
    Delay,
    DelayChain,
    HoldRelease,
    Join,
    Mailbox,
    Message,
    Mutex,
    Recv,
    Release,
    Send,
    SimError,
    Simulator,
)


# -- run(until=) boundary semantics ------------------------------------------


def test_until_runs_events_at_exactly_until():
    sim = Simulator()
    fired = []

    def proc(dt):
        yield Delay(dt)
        fired.append(dt)

    sim.spawn(proc(5.0))
    sim.spawn(proc(10.0))
    sim.spawn(proc(15.0))
    sim.run(until=10.0)
    # the event AT the boundary runs; the one past it does not
    assert fired == [5.0, 10.0]
    assert sim.now == pytest.approx(10.0)


def test_until_drains_zero_delay_cascade_at_boundary():
    sim = Simulator()
    steps = []

    def proc():
        yield Delay(10.0)
        for i in range(5):
            steps.append(i)
            yield Delay(0.0)

    sim.spawn(proc())
    sim.run(until=10.0)
    # every zero-delay continuation at t == until runs before the stop
    assert steps == [0, 1, 2, 3, 4]
    assert sim.now == pytest.approx(10.0)


def test_until_leaves_future_events_pending_and_resumable():
    sim = Simulator()

    def proc():
        yield Delay(100.0)
        return "late"

    p = sim.spawn(proc())
    assert sim.run(until=10.0) == pytest.approx(10.0)
    assert not p.done
    # a second run picks the pending event back up
    sim.run()
    assert p.result == "late"
    assert sim.now == pytest.approx(100.0)


def test_until_parks_clock_without_firing_events():
    sim = Simulator()

    def proc():
        yield Delay(50.0)

    sim.spawn(proc())
    sim.run(until=10.0)
    sim.run(until=20.0)
    assert sim.now == pytest.approx(20.0)
    # Seed-compatible quirk: run(until=) always parks the clock at the
    # horizon while work is pending — even one earlier than now — without
    # firing anything.  The pending event is untouched.
    sim.run(until=5.0)
    assert sim.now == pytest.approx(5.0)
    sim.run()
    assert sim.now == pytest.approx(50.0)


def test_until_counts_no_events_when_none_fire():
    sim = Simulator()

    def proc():
        yield Delay(100.0)

    sim.spawn(proc())
    sim.run(until=1.0)
    before = sim.events_processed
    sim.run(until=2.0)
    assert sim.events_processed == before


# -- FIFO fairness under the ready queue --------------------------------------


def test_same_timestamp_events_fifo_across_processes():
    sim = Simulator()
    order = []

    def proc(tag):
        for step in range(3):
            order.append((tag, step))
            yield Delay(0.0)

    for tag in range(4):
        sim.spawn(proc(tag))
    sim.run()
    # zero-delay yields round-robin: nobody monopolises the ready queue
    assert order[:8] == [
        (0, 0), (1, 0), (2, 0), (3, 0),
        (0, 1), (1, 1), (2, 1), (3, 1),
    ]


def test_spawn_during_cascade_queues_behind_existing_ready_work():
    sim = Simulator()
    order = []

    def late():
        order.append("late")
        yield Delay(0.0)

    def early(tag):
        order.append(tag)
        if tag == "a":
            sim.spawn(late())
        yield Delay(0.0)
        order.append(tag + "2")

    sim.spawn(early("a"))
    sim.spawn(early("b"))
    sim.run()
    # the mid-cascade spawn lands after b's first step but before round two
    assert order == ["a", "b", "late", "a2", "b2"]


def test_delay_zero_and_timer_at_same_time_stay_seq_ordered():
    sim = Simulator()
    order = []

    def timer():
        yield Delay(1.0)
        order.append("timer")

    def chaser():
        yield Delay(1.0)
        order.append("chaser")
        yield Delay(0.0)
        order.append("chaser2")

    sim.spawn(timer())
    sim.spawn(chaser())
    sim.run()
    # chaser's zero-delay continuation is seq-younger than nothing else at
    # t=1.0, so it runs last — the ready queue must not let it jump ahead
    assert order == ["timer", "chaser", "chaser2"]


# -- fused commands ≡ unfused sequences ---------------------------------------


def _trace_run(build):
    """Run ``build(sim, trace)`` processes to completion, return the trace."""
    sim = Simulator()
    trace = []
    build(sim, trace)
    sim.run()
    return trace, sim.now, sim.events_processed


def test_delaychain_equivalent_to_two_delays():
    def fused(sim, trace):
        def proc():
            yield DelayChain(1.5, 2.5)
            trace.append(sim.now)
        sim.spawn(proc())

    def unfused(sim, trace):
        def proc():
            yield Delay(1.5)
            yield Delay(2.5)
            trace.append(sim.now)
        sim.spawn(proc())

    t1, now1, ev1 = _trace_run(fused)
    t2, now2, ev2 = _trace_run(unfused)
    assert t1 == t2 == [4.0]
    assert now1 == now2
    assert ev1 == ev2  # same event count: fusion saves sends, not events


def test_holdrelease_equivalent_to_delay_then_release():
    def fused(sim, trace):
        lock = Mutex(sim, "l")

        def proc(tag):
            yield Acquire(lock)
            yield HoldRelease(lock, 2.0, 1.0)
            trace.append((tag, sim.now))
        for tag in range(3):
            sim.spawn(proc(tag))

    def unfused(sim, trace):
        lock = Mutex(sim, "l")

        def proc(tag):
            yield Acquire(lock)
            yield Delay(2.0)
            yield Release(lock)
            yield Delay(1.0)
            trace.append((tag, sim.now))
        for tag in range(3):
            sim.spawn(proc(tag))

    t1, now1, ev1 = _trace_run(fused)
    t2, now2, ev2 = _trace_run(unfused)
    assert t1 == t2
    assert now1 == now2
    assert ev1 == ev2


def test_holdrelease_zero_extra_matches_plain_release():
    def fused(sim, trace):
        lock = Mutex(sim, "l")

        def proc(tag):
            yield Acquire(lock)
            yield HoldRelease(lock, 1.0)
            trace.append((tag, sim.now))
        sim.spawn(proc("a"))
        sim.spawn(proc("b"))

    def unfused(sim, trace):
        lock = Mutex(sim, "l")

        def proc(tag):
            yield Acquire(lock)
            yield Delay(1.0)
            yield Release(lock)
            trace.append((tag, sim.now))
        sim.spawn(proc("a"))
        sim.spawn(proc("b"))

    t1, now1, ev1 = _trace_run(fused)
    t2, now2, ev2 = _trace_run(unfused)
    assert t1 == t2
    assert now1 == now2
    assert ev1 == ev2


def test_fused_commands_validate_negative_durations():
    sim = Simulator()
    lock = Mutex(sim, "l")
    with pytest.raises(SimError):
        DelayChain(-1.0, 0.0)
    with pytest.raises(SimError):
        DelayChain(0.0, -1.0)
    with pytest.raises(SimError):
        HoldRelease(lock, -1.0)
    with pytest.raises(SimError):
        HoldRelease(lock, 0.0, -1.0)


def test_holdrelease_by_non_holder_fails_the_process():
    sim = Simulator()
    lock = Mutex(sim, "l")

    def proc():
        yield HoldRelease(lock, 1.0)

    p = sim.spawn(proc())
    sim.run()
    assert p.state == "failed"
    assert isinstance(p.error, SimError)


# -- differential stress: ready queue vs pure heap ----------------------------


def _mixed_workload(sim, trace, seed):
    """A randomized tangle of delays, zero-delays, locks, fused commands,
    messages, spawns, and joins.  Appends (pid-tag, step, sim.now) on
    every resume, and each received message's payload.

    A worker's own mailbox carries messages to itself, matched on (src,
    tag); a latency above the send overhead makes the receive post before
    the delivery, the other way round the message queues first, behind
    decoys that are never received.  The
    shared mailbox carries messages between workers, received with ``ANY``
    wildcards; a worker receives there only when more messages have been
    sent to it than received, so no receive waits forever."""
    rng = random.Random(seed)
    locks = [Mutex(sim, f"l{i}") for i in range(3)]
    own = {}
    shared = Mailbox(sim, owner=-1)
    unclaimed = [0]

    def worker(tag, depth):
        box = own[tag] = Mailbox(sim, owner=len(own))
        for step in range(rng.randint(3, 10)):
            trace.append((tag, step, sim.now))
            roll = rng.random()
            if roll < 0.20:
                yield Delay(0.0)
            elif roll < 0.35:
                yield Delay(rng.choice([0.5, 1.0, 1.0, 2.5]))
            elif roll < 0.45:
                if rng.random() < 0.5:
                    # never received: later receives scan past it
                    yield Send(box, src=box.owner, tag=("decoy", step))
                yield Send(box, src=box.owner, tag=step, payload=(tag, step),
                           latency=rng.choice([0.0, 0.5, 1.0]),
                           overhead=rng.choice([0.0, 0.5]))
                msg = yield Recv(box, src=box.owner, tag=step)
                trace.append((tag, "own", msg.payload, msg.sent_at))
            elif roll < 0.55:
                if unclaimed[0] and rng.random() < 0.6:
                    unclaimed[0] -= 1
                    msg = yield Recv(shared, src=ANY, tag=ANY)
                    trace.append((tag, "shared", msg.payload, msg.sent_at))
                else:
                    unclaimed[0] += 1
                    yield Send(shared, src=box.owner, tag=tag,
                               payload=(tag, step),
                               latency=rng.choice([0.0, 0.0, 1.0, 1.5]),
                               overhead=rng.choice([0.0, 0.5]))
            elif roll < 0.65:
                lock = rng.choice(locks)
                yield Acquire(lock)
                if rng.random() < 0.5:
                    yield HoldRelease(lock, rng.choice([0.0, 1.0]),
                                      rng.choice([0.0, 0.5]))
                else:
                    yield Delay(rng.choice([0.0, 1.0]))
                    yield Release(lock)
            elif roll < 0.85:
                yield DelayChain(rng.choice([0.0, 1.0]), rng.choice([0.0, 2.0]))
            elif depth < 2:
                kid = sim.spawn(worker(f"{tag}.{step}", depth + 1))
                yield Join(kid)
            else:
                yield Delay(0.0)
        return tag

    for i in range(6):
        p = sim.spawn(worker(str(i), 0))
        p.socket = i % 2


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_ready_queue_trace_identical_to_heap_only(seed):
    """The fast path is a scheduling optimisation, not a semantic change:
    resume order, timestamps, and event counts must match the pure-heap
    engine exactly on a randomized mixed workload."""
    fast = Simulator(use_ready_queue=True)
    slow = Simulator(use_ready_queue=False)
    trace_fast, trace_slow = [], []
    _mixed_workload(fast, trace_fast, seed)
    _mixed_workload(slow, trace_slow, seed)
    fast.run()
    slow.run()
    assert trace_fast == trace_slow
    assert fast.now == slow.now
    assert fast.events_processed == slow.events_processed


# -- the out-of-line dispatch path ≡ the inlined run loop ---------------------


class _Boom(Exception):
    pass


class _CountingSimulator(Simulator):
    """Records the command types that reach the out-of-line dispatch."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.out_of_line = []

    def _dispatch(self, proc, cmd):
        self.out_of_line.append(type(cmd).__name__)
        super()._dispatch(proc, cmd)


def _channel_program(sim, trace, woken_by_throw):
    """Before each of ``Send``, ``Recv(ANY, ANY)`` and ``Join`` the main
    process joins a target that finishes at the same time; with
    ``woken_by_throw`` the target fails and the joiner catches the error,
    so the next command it yields is dispatched by ``Simulator._throw``
    instead of the run loop.  A peer, whose receive is posted first,
    records when the message wakes it.  The delivery record of a
    zero-latency message is scheduled before the sender's continuation,
    so the peer's wakeup runs before anything the sender schedules next."""
    mb_main = Mailbox(sim, owner=0)
    mb_peer = Mailbox(sim, owner=1)

    def target(k):
        yield Delay(1.0)
        if woken_by_throw:
            raise _Boom(k)
        return k

    def peer():
        msg = yield Recv(mb_peer, src=0, tag="ping")
        trace.append(("peer", "got", msg.payload, sim.now))
        yield Send(mb_main, src=1, tag="pong", payload="p", latency=0.5)
        trace.append(("peer", "sent", sim.now))
        return "peer-done"

    def main():
        peer_proc = sim.spawn(peer())
        cmds = [
            lambda: Send(mb_peer, src=0, tag="ping", payload="m"),
            lambda: Recv(mb_main, src=ANY, tag=ANY),
            lambda: Join(peer_proc),
        ]
        for k, make in enumerate(cmds):
            try:
                got = yield Join(sim.spawn(target(k)))
            except _Boom as exc:
                got = exc.args[0]
            trace.append(("main", "woken", got, sim.now))
            value = yield make()
            if isinstance(value, Message):
                value = (value.src, value.tag, value.payload)
            trace.append(("main", k, value, sim.now))
            yield Delay(0.0)
            trace.append(("main", k, "settled", sim.now))

    sim.spawn(main())


@pytest.mark.parametrize("use_ready", [True, False])
def test_out_of_line_channel_dispatch_matches_run_loop(use_ready):
    traces = {}
    for woken_by_throw in (False, True):
        sim = _CountingSimulator(use_ready_queue=use_ready)
        trace = []
        _channel_program(sim, trace, woken_by_throw)
        sim.run()
        traces[woken_by_throw] = (trace, sim.now, sim.events_processed)
        if woken_by_throw:
            assert sim.out_of_line == ["Send", "Recv", "Join"]
        else:
            assert sim.out_of_line == []
    assert traces[True] == traces[False]
    trace = traces[False][0]
    # the ping's delivery runs before the sender's continuation, whose
    # zero delay then queues behind the peer's wakeup
    assert trace.index(("peer", "got", "m", 1.0)) < trace.index(
        ("main", 0, "settled", 1.0)
    )
