"""Unit tests for the FIFO mutex: exclusion, ordering, contender visibility."""

import pytest

from repro.sim import (
    Acquire, Delay, HoldRelease, Mutex, Release, SimError, Simulator,
)


def test_uncontended_acquire_is_instant():
    sim = Simulator()
    lock = Mutex(sim, "l")

    def proc():
        yield Acquire(lock)
        t = sim.now
        yield Release(lock)
        return t

    p = sim.spawn(proc())
    sim.run()
    assert p.result == pytest.approx(0.0)


def test_mutual_exclusion():
    sim = Simulator()
    lock = Mutex(sim, "l")
    in_cs = []

    def proc(name):
        yield Acquire(lock)
        in_cs.append(name)
        assert len(in_cs) == 1, "two holders inside the critical section"
        yield Delay(1.0)
        in_cs.remove(name)
        yield Release(lock)

    for i in range(4):
        sim.spawn(proc(i))
    sim.run()
    assert sim.now == pytest.approx(4.0)


def test_fifo_grant_order():
    sim = Simulator()
    lock = Mutex(sim, "l")
    grants = []

    def proc(name, arrival):
        yield Delay(arrival)
        yield Acquire(lock)
        grants.append(name)
        yield Delay(10.0)
        yield Release(lock)

    sim.spawn(proc("a", 0.0))
    sim.spawn(proc("b", 1.0))
    sim.spawn(proc("c", 2.0))
    sim.run()
    assert grants == ["a", "b", "c"]


def test_contender_count_visible_to_holder():
    sim = Simulator()
    lock = Mutex(sim, "l")
    seen = []

    def proc():
        yield Acquire(lock)
        seen.append(lock.n_contenders)
        yield Delay(1.0)
        yield Release(lock)

    for _ in range(5):
        sim.spawn(proc())
    sim.run()
    # first holder sees all 5 (itself + 4 waiters), last sees only itself
    assert seen[0] == 5
    assert seen[-1] == 1
    assert seen == sorted(seen, reverse=True)


def test_contention_profile_by_socket():
    sim = Simulator()
    lock = Mutex(sim, "l")
    profile = {}

    def proc(socket, delay, record):
        yield Delay(delay)
        yield Acquire(lock)
        if record:
            # hold long enough for every other contender to queue up
            yield Delay(1.0)
            profile["p"] = lock.contention_profile(socket)
            yield Delay(4.0)
        yield Release(lock)

    # holder on socket 0; two waiters on socket 0, one on socket 1
    for i, sock in enumerate([0, 0, 0, 1]):
        p = sim.spawn(proc(sock, i * 0.1, record=(i == 0)))
        p.socket = sock
    sim.run()
    same, other = profile["p"]
    assert (same, other) == (3, 1)


def test_release_by_non_holder_fails():
    sim = Simulator()
    lock = Mutex(sim, "l")

    def a():
        yield Acquire(lock)
        yield Delay(10.0)
        yield Release(lock)

    def b():
        yield Delay(1.0)
        yield Release(lock)

    sim.spawn(a())
    pb = sim.spawn(b())
    sim.run()
    assert pb.state == "failed"
    assert isinstance(pb.error, SimError)


def test_reacquire_while_holding_fails():
    sim = Simulator()
    lock = Mutex(sim, "l")

    def proc():
        yield Acquire(lock)
        yield Acquire(lock)

    p = sim.spawn(proc())
    sim.run()
    assert p.state == "failed"


def test_wait_statistics():
    sim = Simulator()
    lock = Mutex(sim, "l")

    def proc():
        yield Acquire(lock)
        yield Delay(2.0)
        yield Release(lock)

    for _ in range(3):
        sim.spawn(proc())
    sim.run()
    assert lock.acquisitions == 3
    # second waits 2, third waits 4
    assert lock.total_wait_us == pytest.approx(6.0)
    assert lock.max_contenders == 3


def test_hold_statistics_sum_contended_holds_exactly():
    """``total_hold_us`` adds (release time - grant time) per hold, in
    release order, on the Release and the fused HoldRelease paths alike;
    ``Mutex.reset`` clears it."""
    sim = Simulator()
    lock = Mutex(sim, "l")
    holds = [0.1, 0.7, 0.3, 1e-3]

    def proc(k, hold):
        yield Delay(0.3 * k)
        yield Acquire(lock)
        if k % 2:
            yield HoldRelease(lock, hold)
        else:
            yield Delay(hold)
            yield Release(lock)

    for k, hold in enumerate(holds):
        sim.spawn(proc(k, hold))
    sim.run()
    # FIFO: each process is granted at its arrival or the previous release
    wait = hold_sum = released = 0.0
    for k, hold in enumerate(holds):
        arrival = 0.3 * k
        granted = max(arrival, released)
        released = granted + hold
        wait += granted - arrival
        hold_sum += released - granted
    assert lock.acquisitions == len(holds)
    assert lock.total_wait_us > 0.0  # the holds really were contended
    assert lock.total_wait_us == wait
    assert lock.total_hold_us == hold_sum

    lock.reset()
    assert lock.total_hold_us == 0.0
    assert lock.total_wait_us == 0.0


def test_no_wait_state_leak_after_deadlock():
    """Waiters that are never granted must not corrupt the lock's books:
    the (proc, since) queue entries carry the wait-start time, so a
    deadlocked teardown leaves total_wait_us untouched and the contender
    accounting consistent."""
    from repro.sim import DeadlockError

    sim = Simulator()
    lock = Mutex(sim, "l")

    def hog():
        yield Acquire(lock)
        # never releases

    def victim():
        yield Delay(1.0)
        yield Acquire(lock)

    sim.spawn(hog())
    victims = [sim.spawn(victim()) for _ in range(3)]
    with pytest.raises(DeadlockError):
        sim.run()
    assert lock.total_wait_us == 0.0  # nobody was ever granted
    assert lock.acquisitions == 1
    assert lock.n_contenders == 4
    assert lock.contention_profile(0) == (4, 0)
    assert all(not v.done for v in victims)


def test_contention_profile_decrements_on_release():
    sim = Simulator()
    lock = Mutex(sim, "l")
    snapshots = []

    def proc(sock, arrival):
        yield Delay(arrival)
        yield Acquire(lock)
        yield Delay(5.0)  # let later arrivals queue before snapshotting
        snapshots.append(lock.contention_profile(0))
        yield Delay(5.0)
        yield Release(lock)

    for i, sock in enumerate([0, 0, 1]):
        p = sim.spawn(proc(sock, i * 1.0))
        p.socket = sock
    sim.run()
    # holder 0 sees (2 same, 1 other); after it departs the next same-socket
    # holder sees (1, 1); the socket-1 holder alone sees (0, 1) rel. socket 0
    assert snapshots == [(2, 1), (1, 1), (0, 1)]
    assert lock.contention_profile(0) == (0, 0)
    assert lock._socket_counts == {}

