"""Convoy fast-path differential battery.

The fused :class:`~repro.sim.engine.PinConvoy` path must be
*bit-identical* to the unfused Acquire/HoldRelease reference: same
timestamps, same FIFO grant order, same mutex statistics.  Event counts
may only fall: an uncontended convoy collapses into one record (see
``tests/test_convoy_collapse.py``).  Every test here runs one workload
under both engine modes and asserts exact equality of everything but the
event count, which must not exceed the reference's:

* ``unfused``  — ``Simulator(use_pin_convoy=False)``, the reference;
* ``fused``    — ``Simulator()``, the default: each pin loop is one
  command whose per-batch hops are engine records.

Coverage: collective specs on all three preset architectures (with their
per-phase time counters), mid-convoy interlopers that join and leave,
hold-time errors, and a hypothesis-randomized workload mix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import CollectiveSpec, _execute, _validated_algorithm
from repro.machine import get_arch
from repro.machine.arch import ARCH_NAMES
from repro.mpi.communicator import Comm, Node
from repro.sim import (
    Acquire,
    DeadlockError,
    Delay,
    HoldRelease,
    Mutex,
    PinConvoy,
    SimError,
    Simulator,
)

MODES = {
    "unfused": {"use_pin_convoy": False},
    "fused": {},
}


def _lock_stats(node):
    """Exact per-mm-lock statistics, in pid order."""
    out = []
    for pid in sorted(node.cma._mm_locks):
        mm = node.cma._mm_locks[pid]
        m = mm.mutex
        out.append(
            (
                pid,
                mm.pages_pinned,
                m.acquisitions,
                m.total_wait_us,
                m.total_hold_us,
                m.max_contenders,
                m.generation,
                m.holder is None,
                len(m._waiters),
            )
        )
    return out


def _run_spec(spec: CollectiveSpec, sim_kw: dict):
    fn = _validated_algorithm(spec)
    node = Node(spec.arch, verify=spec.verify, sim=Simulator(**sim_kw))
    comm = Comm(node, spec.procs)
    res = _execute(spec, fn, node, comm)
    return res.sim_events, (
        res.latency_us,
        tuple(res.per_rank_us),
        res.cma_reads,
        res.cma_writes,
        _lock_stats(node),
        res.trace_by_phase,
    )


def _assert_modes_agree(run_one):
    """``run_one(sim_kw)`` -> ``(events, comparable snapshot)``; the
    snapshots must match and the fused run may not process more events.
    Returns the reference snapshot."""
    ref_events, ref = run_one(MODES["unfused"])
    got_events, got = run_one(MODES["fused"])
    assert got == ref, "fused diverged from unfused reference"
    assert got_events <= ref_events
    return ref


# -- collective battery ------------------------------------------------------

_BATTERY = [
    ("scatter", "parallel_read", {}),
    ("scatter", "throttled_read", {"k": 2}),
    ("bcast", "direct_read", {}),
    ("allgather", "ring_source_read", {}),
]


@pytest.mark.parametrize("archname", ARCH_NAMES)
@pytest.mark.parametrize("coll,alg,params", _BATTERY)
def test_collectives_bit_exact_across_modes(archname, coll, alg, params):
    spec_kw = dict(
        collective=coll,
        algorithm=alg,
        arch=get_arch(archname),
        procs=6,
        eta=180_000,
        params=params,
        verify=False,
    )
    _assert_modes_agree(
        lambda kw: _run_spec(CollectiveSpec(**spec_kw), kw)
    )


@pytest.mark.parametrize("archname", ARCH_NAMES)
def test_traced_run_identical_across_modes(archname):
    """Fig. 4's phase breakdown of a contended read, from the always-on
    counters: bit-identical in both modes, with every phase present, and
    the mm locks' wait and hold totals are exactly its lock and pin."""
    spec_kw = dict(
        collective="scatter",
        algorithm="parallel_read",
        arch=get_arch(archname),
        procs=6,
        eta=120_000,
        verify=False,
    )
    ref = _assert_modes_agree(
        lambda kw: _run_spec(CollectiveSpec(**spec_kw), kw)
    )
    phases = ref[5]
    assert set(phases) == {"syscall", "check", "lock", "pin", "copy"}
    locks = ref[4]
    assert phases["lock"] == sum(s[3] for s in locks)
    assert phases["pin"] == sum(s[4] for s in locks)


# -- convoy workloads built directly on a node -------------------------------

_MIB = 1 << 20


def _reader_workload(node, comm, jobs):
    """Spawn one reader per job; job = (src_rank, nbytes, pure, rounds)."""
    srcs = [comm.allocate(0, _MIB, name=f"s{i}") for i in range(len(jobs))]
    procs = []
    for i, (nbytes, pure, rounds) in enumerate(jobs):
        def reader(ctx, i=i, nbytes=nbytes, pure=pure, rounds=rounds):
            local = (0, 0) if pure else srcs[i].iov(0, nbytes)
            for _ in range(rounds):
                yield from ctx.cma_read(0, local, srcs[i].iov(0, nbytes))
        procs.append(comm.spawn_rank(i + 1, reader))
    return procs


def _snapshot(node, procs):
    return node.sim.events_processed, (
        node.sim.now,
        tuple(p.finish_time for p in procs),
        _lock_stats(node),
    )


def test_pure_convoy_fast_forward_bit_exact():
    """Many pin-only readers on one mm lock: a long contended convoy."""
    jobs = [(900_000, True, 3)] * 16

    def run_one(kw):
        node = Node(get_arch("knl"), verify=False,
                    sim=Simulator(**kw))
        comm = Comm(node, len(jobs) + 1)
        procs = _reader_workload(node, comm, jobs)
        node.sim.run_all(procs)
        return _snapshot(node, procs)

    _assert_modes_agree(run_one)


def test_interloper_joins_mid_convoy():
    """An outside process grabbing the mm lock mid-convoy queues among the
    members; its timestamps — and everyone else's — must match unfused."""
    jobs = [(500_000, True, 2)] * 6

    def run_one(kw):
        node = Node(get_arch("knl"), verify=False,
                    sim=Simulator(**kw))
        comm = Comm(node, len(jobs) + 1)
        procs = _reader_workload(node, comm, jobs)
        mutex = node.cma._mm_locks[comm.pid_of(0)].mutex

        def interloper(start, hold):
            yield Delay(start)
            yield Acquire(mutex)
            yield HoldRelease(mutex, hold)

        # one lands mid-convoy, one after the convoys have drained
        procs.append(node.sim.spawn(interloper(40.0, 9.0), name="intr0",
                                    pid=99_000, socket=0))
        procs.append(node.sim.spawn(interloper(90.0, 2.5), name="intr1",
                                    pid=99_001, socket=1))
        node.sim.run_all(procs)
        return _snapshot(node, procs)

    _assert_modes_agree(run_one)


def test_interloper_leaves_and_epoch_recovers():
    """An outsider that takes the lock first and then leaves for good: the
    convoy that runs on after it must match the reference."""
    jobs = [(700_000, True, 4)] * 4

    def run_one(kw):
        node = Node(get_arch("knl"), verify=False,
                    sim=Simulator(**kw))
        comm = Comm(node, len(jobs) + 1)
        procs = _reader_workload(node, comm, jobs)
        mutex = node.cma._mm_locks[comm.pid_of(0)].mutex

        def early_interloper():
            yield Acquire(mutex)
            yield HoldRelease(mutex, 3.0)
            # leaves for good: the convoy owns the lock from here on

        procs.append(node.sim.spawn(early_interloper(), name="intr",
                                    pid=99_000, socket=0))
        node.sim.run_all(procs)
        return _snapshot(node, procs)

    _assert_modes_agree(run_one)


def test_mixed_pure_and_copy_convoys():
    """Copy readers (extra_dt > 0) interleave their copy delays with the
    pin-only readers' batches on one lock."""
    jobs = [
        (800_000, True, 2),
        (650_000, False, 2),
        (420_000, True, 3),
        (900_000, False, 1),
        (150_000, True, 2),
    ]

    def run_one(kw):
        node = Node(get_arch("broadwell"), verify=False,
                    sim=Simulator(**kw))
        comm = Comm(node, len(jobs) + 1)
        procs = _reader_workload(node, comm, jobs)
        node.sim.run_all(procs)
        return _snapshot(node, procs)

    _assert_modes_agree(run_one)


def test_hold_error_mid_convoy_fails_identically():
    """A hold model raising mid-convoy must fail the same process at the
    same simulated time in every mode.

    Drives :class:`PinConvoy` directly (no memo — an impure, call-counting
    hold model violates the memo purity contract by design here) against a
    hand-rolled unfused loop doing exactly what the kernel's unfused path
    does.
    """

    def run_one(kw):
        sim = Simulator(**kw)
        m = Mutex(sim)
        calls = {"n": 0}

        def hold_fn(pages, proc):
            calls["n"] += 1
            if calls["n"] == 7:
                raise SimError("injected hold failure")
            return pages * 0.5

        plans = [[(4, 0.0)] * 3, [(2, 0.0)] * 4, [(4, 0.0)] * 3,
                 [(3, 0.0)] * 3]

        def fused(batches):
            got = yield PinConvoy(m, hold_fn, batches)
            return got

        def unfused(batches):
            for b, _extra in batches:
                yield Acquire(m)
                yield HoldRelease(m, hold_fn(b, None))
            return sum(b for b, _ in batches)

        worker = fused if kw.get("use_pin_convoy", True) else unfused
        procs = [sim.spawn(worker(plan), name=f"w{i}", socket=i % 2)
                 for i, plan in enumerate(plans)]
        # the failed worker dies holding the lock, stranding its peers —
        # identically in every mode
        deadlocked = False
        try:
            sim.run()
        except DeadlockError:
            deadlocked = True
        return sim.events_processed, (
            deadlocked,
            sim.now,
            tuple(p.finish_time if p.error is None else None for p in procs),
            tuple(type(p.error).__name__ if p.error is not None else None
                  for p in procs),
            (m.acquisitions, m.total_wait_us, m.max_contenders),
        )

    _assert_modes_agree(run_one)


# -- lock bookkeeping unit tests ---------------------------------------------


def test_generation_counts_every_acquire_release():
    sim = Simulator()
    m = Mutex(sim)

    def worker():
        yield Acquire(m)
        yield HoldRelease(m, 1.0)

    sim.spawn(worker())
    sim.spawn(worker())
    sim.run()
    # 2 acquires + 2 releases
    assert m.generation == 4
    assert m.acquisitions == 2


def test_hold_memo_cleared_on_reset():
    node = Node(get_arch("knl"), verify=False)
    comm = Comm(node, 3)
    src = comm.allocate(0, _MIB, name="s")

    def reader(ctx):
        yield from ctx.cma_read(0, (0, 0), src.iov(0, 300_000))

    p1 = comm.spawn_rank(1, reader)
    p2 = comm.spawn_rank(2, reader)
    node.sim.run_all([p1, p2])
    mm = node.cma._mm_locks[comm.pid_of(0)]
    assert mm._hold_memo  # populated by the convoy path
    node.reset()
    assert not mm._hold_memo


# -- randomized battery ------------------------------------------------------


@settings(deadline=None, max_examples=20)
@given(
    archname=st.sampled_from(ARCH_NAMES),
    jobs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=500_000),  # nbytes
            st.booleans(),                                # pure (pin-only)
            st.integers(min_value=1, max_value=3),        # rounds
        ),
        min_size=2,
        max_size=8,
    ),
    interlopers=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=120.0,
                      allow_nan=False, allow_infinity=False),  # start
            st.floats(min_value=0.0, max_value=15.0,
                      allow_nan=False, allow_infinity=False),  # hold
            st.integers(min_value=0, max_value=1),             # socket
        ),
        max_size=3,
    ),
)
def test_randomized_workloads_bit_exact(archname, jobs, interlopers):
    arch = get_arch(archname)

    def run_one(kw):
        node = Node(arch, verify=False, sim=Simulator(**kw))
        comm = Comm(node, len(jobs) + 1)
        procs = _reader_workload(node, comm, jobs)
        mutex = node.cma._mm_locks[comm.pid_of(0)].mutex

        def interloper(start, hold):
            yield Delay(start)
            yield Acquire(mutex)
            yield HoldRelease(mutex, hold)

        for k, (start, hold, socket) in enumerate(interlopers):
            procs.append(
                node.sim.spawn(interloper(start, hold), name=f"intr{k}",
                               pid=99_000 + k, socket=socket)
            )
        node.sim.run_all(procs)
        return _snapshot(node, procs)

    _assert_modes_agree(run_one)
