"""Unit tests for the discrete-event engine: time, processes, joins, errors."""

import pytest

from repro.sim import (
    DeadlockError,
    Delay,
    DelayChain,
    Join,
    Mutex,
    Acquire,
    Release,
    SimError,
    Simulator,
    WakeAt,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_single_delay_advances_clock():
    sim = Simulator()

    def proc():
        yield Delay(5.0)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.done
    assert p.result == pytest.approx(5.0)
    assert sim.now == pytest.approx(5.0)


def test_sequential_delays_accumulate():
    sim = Simulator()
    times = []

    def proc():
        for dt in (1.0, 2.5, 0.5):
            yield Delay(dt)
            times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == pytest.approx([1.0, 3.5, 4.0])


def test_parallel_processes_interleave():
    sim = Simulator()
    order = []

    def proc(name, dt):
        yield Delay(dt)
        order.append((name, sim.now))

    sim.spawn(proc("slow", 10.0))
    sim.spawn(proc("fast", 1.0))
    sim.run()
    assert order == [("fast", pytest.approx(1.0)), ("slow", pytest.approx(10.0))]


def test_zero_delay_is_legal():
    sim = Simulator()

    def proc():
        yield Delay(0.0)
        return "ok"

    p = sim.spawn(proc())
    sim.run()
    assert p.result == "ok"


def test_negative_delay_rejected():
    with pytest.raises(SimError):
        Delay(-1.0)


def test_return_value_through_join():
    sim = Simulator()

    def worker():
        yield Delay(3.0)
        return 42

    def waiter(w):
        result = yield Join(w)
        return (result, sim.now)

    w = sim.spawn(worker())
    j = sim.spawn(waiter(w))
    sim.run()
    assert j.result == (42, pytest.approx(3.0))


def test_join_on_already_finished_process():
    sim = Simulator()

    def worker():
        yield Delay(1.0)
        return "done"

    def late_waiter(w):
        yield Delay(5.0)
        result = yield Join(w)
        return result

    w = sim.spawn(worker())
    j = sim.spawn(late_waiter(w))
    sim.run()
    assert j.result == "done"
    assert sim.now == pytest.approx(5.0)


def test_exception_propagates_to_joiner():
    sim = Simulator()

    def bad():
        yield Delay(1.0)
        raise ValueError("boom")

    def waiter(w):
        with pytest.raises(ValueError, match="boom"):
            yield Join(w)
        return "caught"

    w = sim.spawn(bad())
    j = sim.spawn(waiter(w))
    sim.run()
    assert j.result == "caught"
    assert w.state == "failed"


def test_run_all_reraises_failure():
    sim = Simulator()

    def bad():
        yield Delay(1.0)
        raise RuntimeError("kaput")

    p = sim.spawn(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run_all([p])


def test_yield_from_subgenerator():
    sim = Simulator()

    def inner():
        yield Delay(2.0)
        return 7

    def outer():
        x = yield from inner()
        yield Delay(1.0)
        return x * 2

    p = sim.spawn(outer())
    sim.run()
    assert p.result == 14
    assert sim.now == pytest.approx(3.0)


def test_yielding_garbage_fails_the_process():
    sim = Simulator()

    def proc():
        yield "not a command"

    p = sim.spawn(proc())
    sim.run()
    assert p.state == "failed"
    assert isinstance(p.error, SimError)


def test_run_until_stops_early():
    sim = Simulator()

    def proc():
        yield Delay(100.0)

    p = sim.spawn(proc())
    sim.run(until=10.0)
    assert sim.now == pytest.approx(10.0)
    assert not p.done


def test_deadlock_detection():
    sim = Simulator()
    lock = Mutex(sim, "l")

    def hog():
        yield Acquire(lock)
        # never releases, never finishes: second process deadlocks

    def victim():
        yield Delay(1.0)
        yield Acquire(lock)

    sim.spawn(hog())
    sim.spawn(victim())
    with pytest.raises(DeadlockError):
        sim.run()


def test_max_events_guard():
    sim = Simulator(max_events=100)

    def spinner():
        while True:
            yield Delay(0.001)

    sim.spawn(spinner())
    with pytest.raises(SimError, match="max_events"):
        sim.run()


def test_fifo_event_order_at_same_timestamp():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Delay(1.0)
        order.append(tag)

    for i in range(5):
        sim.spawn(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_pids_are_unique():
    sim = Simulator()

    def noop():
        yield Delay(0.0)

    procs = [sim.spawn(noop()) for _ in range(10)]
    assert len({p.pid for p in procs}) == 10


def test_wake_at_lands_on_the_exact_float():
    """WakeAt reaches the float a chain of Delays reaches, which a single
    Delay(t - now) does not: here 0.2 + ((0.2 + 0.1 + 0.4) - 0.2) != t."""
    sim = Simulator()
    t = 0.2 + 0.1 + 0.4

    def proc():
        yield Delay(0.2)
        yield WakeAt(t)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.result == t
    assert 0.2 + (t - 0.2) != t


def test_wake_at_now_and_in_the_past():
    sim = Simulator()

    def proc(t):
        yield Delay(1.0)
        yield WakeAt(t)
        return sim.now

    now = sim.spawn(proc(1.0))
    past = sim.spawn(proc(0.5))
    sim.run()
    assert now.result == 1.0
    assert past.state == "failed" and isinstance(past.error, SimError)


@pytest.mark.parametrize("use_ready_queue", [True, False])
def test_shared_commands_match_fresh_ones(use_ready_queue):
    """The engine never mutates a command: processes that yield one shared
    DelayChain/Delay instance, with ties at equal times, run exactly like
    processes that build a fresh instance per yield."""
    shapes = {
        "chain": (DelayChain, (0.7, 0.3)),
        "chain0": (DelayChain, (0.0, 0.5)),
        "tail0": (DelayChain, (0.5, 0.0)),
        "delay": (Delay, (1.0,)),
        "zero": (Delay, (0.0,)),
    }
    patterns = [
        ["chain", "delay", "zero", "chain0", "tail0"] * 3,
        ["delay", "chain", "tail0", "zero", "chain0"] * 3,
        ["chain0", "chain", "delay", "delay", "zero"] * 3,
        ["chain", "delay", "zero", "chain0", "tail0"] * 3,
    ]

    def run(share):
        sim = Simulator(use_ready_queue=use_ready_queue)
        shared = {k: cls(*args) for k, (cls, args) in shapes.items()}
        trace = []

        def proc(name, pattern):
            for i, k in enumerate(pattern):
                if share:
                    cmd = shared[k]
                else:
                    cls, args = shapes[k]
                    cmd = cls(*args)
                yield cmd
                trace.append((name, i, sim.now))

        for n, pattern in enumerate(patterns):
            sim.spawn(proc(f"p{n}", pattern))
        end = sim.run()
        return trace, end, sim.events_processed

    shared, fresh = run(True), run(False)
    assert shared == fresh
    # the identical first and last patterns tie at every step
    ties = {}
    for name, i, t in shared[0]:
        ties.setdefault((i, t), set()).add(name)
    assert any(len(names) > 1 for names in ties.values())
