"""Collapsed uncontended mm-lock convoys against the per-batch oracle.

When a :class:`~repro.sim.engine.PinConvoy` is granted a lock that has no
waiters and no other in-flight convoy member, the engine folds every
remaining batch into one ``_K_CDONE`` record at the exact float end time
and settles the lock statistics when it fires.  A foreign ``Acquire`` that
lands while the convoy is collapsed *expands* it back into the per-batch
record state at that instant.

``Simulator(use_pin_convoy=False)`` — the kernels' per-batch
``Acquire``/``HoldRelease`` loops — is the oracle.  Every test here runs a
workload both ways and requires exact equality of every output the
end-to-end digest covers, the per-mm-lock statistics and the final clock.
Event counts may only fall.

Ties are pinned too.  A collapsed convoy still takes, for the per-batch
record that is due next, the sequence number that record would have had:
the run loop crosses the convoy's folded records in (time, sequence)
order with every other record, lazily, so a foreign record landing on the
exact float time of a grant, release or rejoin runs before or after it
exactly as in the oracle, whenever it was scheduled.  The tie cases below
schedule their interlopers both before the collapse and between the
convoy's records.
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import CollectiveSpec, _execute, _validated_algorithm
from repro.machine import get_arch
from repro.mpi.communicator import Comm, Node
from repro.sim import (
    Acquire,
    Delay,
    FaultConvoy,
    HoldRelease,
    Join,
    Mutex,
    PinConvoy,
    SimError,
    Simulator,
)
from repro.sim.engine import WakeAt

#: CollectiveResult fields the end-to-end digest compares
OUTPUT_FIELDS = (
    "latency_us", "per_rank_us", "ctrl_messages", "cma_reads", "cma_writes",
    "fallbacks", "retries", "faults_injected", "xpmem_reads", "xpmem_writes",
    "xpmem_attaches", "xpmem_page_faults",
)

ORACLE = {"use_pin_convoy": False}

# -- figure battery ------------------------------------------------------------

#: quick-mode process counts of the algorithm figures
PROCS = {"knl": 32, "broadwell": 28, "power8": 40}
#: quick-mode size axes
SIZES = {
    "fig07": (16 * 1024, 256 * 1024, 4 << 20),
    "fig08": (16 * 1024, 256 * 1024, 4 << 20),
    "fig10": (16 * 1024, 256 * 1024, 512 * 1024),
}


def _variants(fig, arch, p):
    """Every (collective, algorithm, params) the figure plots on ``arch``."""
    ks = [k for k in get_arch(arch).throttle_candidates if k < p]
    if fig == "fig07":
        return (
            [("scatter", "parallel_read", {}),
             ("scatter", "sequential_write", {})]
            + [("scatter", "throttled_read", {"k": k}) for k in ks]
            + [("scatter", "xpmem_read", {})]
        )
    if fig == "fig08":
        return (
            [("gather", "parallel_write", {}),
             ("gather", "sequential_read", {})]
            + [("gather", "throttled_write", {"k": k}) for k in ks]
            + [("gather", "xpmem_write", {})]
        )
    out = [
        ("allgather", "ring_source_read", {}),
        ("allgather", "ring_source_write", {}),
        ("allgather", "recursive_doubling", {}),
        ("allgather", "bruck", {}),
        ("allgather", "ring_neighbor", {"j": 1}),
    ]
    if arch == "broadwell":
        out.append(("allgather", "ring_neighbor", {"j": 5}))
    out.append(("allgather", "xpmem_ring", {}))
    return out


def _lock_stats(node):
    """Exact per-mm-lock statistics, in pid order."""
    out = []
    for pid in sorted(node.cma._mm_locks):
        mm = node.cma._mm_locks[pid]
        m = mm.mutex
        out.append((
            pid, mm.pages_pinned, m.acquisitions, m.total_wait_us,
            m.total_hold_us, m.max_contenders, m.generation, m.holder is None,
            len(m._waiters), m._members,
        ))
    return out


def _run_spec(spec, sim_kw):
    node = Node(spec.arch, verify=spec.verify, sim=Simulator(**sim_kw))
    comm = Comm(node, spec.procs)
    res = _execute(spec, _validated_algorithm(spec), node, comm)
    outputs = tuple(getattr(res, f) for f in OUTPUT_FIELDS)
    return (outputs, _lock_stats(node), node.sim.now), node.sim


@pytest.mark.parametrize("arch", sorted(PROCS))
@pytest.mark.parametrize("fig", sorted(SIZES))
def test_figure_algorithms_match_oracle(fig, arch):
    p = PROCS[arch]
    collapsed = 0
    for (coll, alg, params), eta in itertools.product(
        _variants(fig, arch, p), SIZES[fig]
    ):
        spec = CollectiveSpec(coll, alg, get_arch(arch), procs=p, eta=eta,
                              params=params, verify=False)
        got, sim = _run_spec(spec, {})
        ref, ref_sim = _run_spec(spec, ORACLE)
        assert got == ref, f"{alg} {params} eta={eta} diverged from the oracle"
        assert sim.events_processed <= ref_sim.events_processed
        assert ref_sim.convoys_collapsed == 0
        collapsed += sim.convoys_collapsed
    assert collapsed > 0, "no convoy collapsed on a whole figure"


# -- interlopers on one convoy -------------------------------------------------

#: mm-lock-shaped hold model: pure in (pages, contender profile)
L_PAGE = 0.0417
KAPPA_INTRA = 1.3
KAPPA_INTER = 3.1


def _hold_model(lock):
    def hold(pages, proc):
        same, other = lock.contention_profile(proc.socket)
        return (pages + KAPPA_INTRA * max(same - 1, 0)
                + KAPPA_INTER * other) * L_PAGE
    return hold


#: batch plan mixing back-to-back batches with copy gaps
PLAN = [(4, 0.0), (4, 0.7), (2, 0.0), (4, 1.3), (3, 0.0), (1, 0.0)]
GAP_PLAN = PLAN[:-2] + [(1, 0.9)]


#: what the oracle loops pass as the caller: the hold model reads only
#: the socket, and every oracle caller here sits on socket 0
SOCKET0 = SimpleNamespace(socket=0)


def _timeline(plan):
    """Uncontended (grant, release, rejoin) times of each batch of a convoy
    granted at 0.0, by the same float additions the engine makes."""
    t = 0.0
    out = []
    for pages, extra in plan:
        g = t
        t = t + pages * L_PAGE
        r = t
        if extra != 0.0:
            t = t + extra
        out.append((g, r, t))
    return out


def _run_convoy(sim_kw, plan=PLAN, interlopers=(), tail=0.0, until=None):
    """One convoy member (socket 0) on a fresh lock, plus interloper
    processes; each interloper is a callable building its generator from
    the lock.  Returns a comparable snapshot and the simulator."""
    sim = Simulator(**sim_kw)
    m = Mutex(sim, "mm")
    hold = _hold_model(m)
    pins = SimpleNamespace(pages_pinned=0)  # stands in for the mm
    npages = sum(b for b, _ in plan)

    def member():
        if sim.use_pin_convoy:
            cls = FaultConvoy if tail else PinConvoy
            kw = {"tail_dt": tail} if tail else {}
            got = yield cls(m, hold, plan, mm=pins, npages=npages, memo={},
                            **kw)
            return got
        for pages, extra in plan:
            yield Acquire(m)
            yield HoldRelease(m, hold(pages, SOCKET0), extra)
            pins.pages_pinned += pages
        if tail:
            yield Delay(tail)
        return npages

    procs = [sim.spawn(member(), name="member", socket=0)]
    for k, script in enumerate(interlopers):
        procs.append(sim.spawn(script(m), name=f"intr{k}", socket=k % 2))

    def lock_stats():
        return (m.acquisitions, m.total_wait_us, m.total_hold_us,
                m.max_contenders, m.generation, m.holder is None,
                len(m._waiters))

    horizon = None
    if until is not None:
        # what an observer between the two runs sees must match too
        sim.run(until=until)
        horizon = (sim.now, pins.pages_pinned, lock_stats())
    sim.run()
    snap = (
        sim.now,
        tuple(p.finish_time for p in procs),
        tuple(p.result for p in procs),
        pins.pages_pinned,
        lock_stats(),
        horizon,
        m._members,
    )
    return snap, sim


def _assert_matches_oracle(**kw):
    got, sim = _run_convoy({}, **kw)
    ref, ref_sim = _run_convoy(ORACLE, **kw)
    assert got == ref
    assert sim.events_processed <= ref_sim.events_processed
    return sim


def _interloper(at, hold=0.9, after=None):
    """Acquire the lock at absolute time ``at``.  With ``after``, the wake
    record is only scheduled at time ``after`` (so it takes its sequence
    number after every convoy record allocated before then)."""
    def script(m):
        def gen():
            if after is not None:
                yield WakeAt(after)
            yield WakeAt(at)
            yield Acquire(m)
            yield HoldRelease(m, hold)
        return gen()
    return script


def test_solo_convoy_collapses_to_one_record():
    sim = _assert_matches_oracle()
    assert (sim.convoys_collapsed, sim.convoys_expanded) == (1, 0)
    # spawn + grant + done: every batch after the first grant is folded
    assert sim.events_processed == 3


def test_fault_convoy_tail_rides_the_done_record():
    sim = _assert_matches_oracle(tail=2.25)
    assert (sim.convoys_collapsed, sim.convoys_expanded) == (1, 0)


@pytest.mark.parametrize("batch", range(len(PLAN)))
def test_interloper_mid_hold(batch):
    g, r, _ = _timeline(PLAN)[batch]
    sim = _assert_matches_oracle(interlopers=[_interloper(g + (r - g) / 3)])
    assert sim.convoys_expanded == 1


@pytest.mark.parametrize("batch", [1, 3])
def test_interloper_in_copy_gap(batch):
    _, r, q = _timeline(PLAN)[batch]
    sim = _assert_matches_oracle(interlopers=[_interloper(r + (q - r) / 2)])
    assert sim.convoys_expanded == 1


#: when a tied interloper's wake record is scheduled: before the
#: collapse, at the instant the oracle schedules the tied record, or
#: between that instant and the tie
SCHEDULED = ["early", "with", "between"]


@pytest.mark.parametrize("when", SCHEDULED)
@pytest.mark.parametrize("batch", [1, 3, 4])
def test_interloper_at_gap_end(batch, when):
    """Lands exactly at a rejoin time.  The oracle's rejoin record is
    scheduled at the release: an interloper scheduled before it runs
    first and takes the lock; one scheduled after it runs after the
    rejoin and waits for the next batch (or, after the last batch, finds
    the convoy gone).  Scheduled at the release instant itself, the order
    of the two scheduling records decides."""
    _, r, q = _timeline(GAP_PLAN)[batch]
    after = {"early": None, "with": r, "between": r + (q - r) / 2}[when]
    sim = _assert_matches_oracle(
        plan=GAP_PLAN, interlopers=[_interloper(q, after=after)]
    )
    if batch < len(GAP_PLAN) - 1:
        assert sim.convoys_expanded == 1


@pytest.mark.parametrize("when", SCHEDULED)
@pytest.mark.parametrize(
    "plan,batch",
    [pytest.param(PLAN, b, id=f"no-gap-{b}") for b in range(len(PLAN))]
    + [pytest.param(GAP_PLAN, b, id=f"gap-{b}") for b in (1, 3, 4)],
)
def test_interloper_on_release(plan, batch, when):
    """Lands exactly at a release time.  The oracle's release record is
    scheduled at the grant: an interloper scheduled before it queues
    behind the holder (two contenders) and is granted at the release;
    one scheduled after it finds the lock free, before the convoy's
    rejoin (back to back or after a copy gap, or its last record)."""
    g, r, _ = _timeline(plan)[batch]
    after = {"early": None, "with": g, "between": g + (r - g) / 2}[when]
    sim = _assert_matches_oracle(
        plan=plan, interlopers=[_interloper(r, after=after)]
    )
    assert sim.convoys_expanded == 1


def test_interloper_at_collapse_time():
    """Acquires at the grant instant, after the collapse: lands strictly
    inside the first hold."""
    sim = _assert_matches_oracle(interlopers=[_interloper(0.0)])
    assert sim.convoys_expanded == 1


def test_interloper_after_convoy_finished():
    end = _timeline(PLAN)[-1][2]
    sim = _assert_matches_oracle(interlopers=[_interloper(end + 1.0)])
    assert (sim.convoys_collapsed, sim.convoys_expanded) == (1, 0)


def test_two_interlopers_and_a_recollapse():
    """The first interloper expands the convoy; once it has left, the
    convoy's next uncontended grant collapses again."""
    g, r, _ = _timeline(PLAN)[1]
    sim = _assert_matches_oracle(interlopers=[
        _interloper(g + (r - g) / 2, hold=0.05),
        _interloper(_timeline(PLAN)[-1][1] + 5.0),
    ])
    assert sim.convoys_collapsed >= 2
    assert sim.convoys_expanded >= 1


def test_run_until_horizon_mid_convoy():
    """A horizon inside the convoy: the run parks there with the convoy in
    per-batch state (lock statistics and pinned pages exact at the
    horizon), and the next run finishes it exactly."""
    _, r, _ = _timeline(PLAN)[2]
    for until in (r / 2, r, r + 0.01):
        sim = _assert_matches_oracle(until=until,
                                     interlopers=[_interloper(r + 0.5)])
        assert sim.convoys_expanded <= 1


def test_second_member_blocks_collapse():
    """Two convoys in flight on one lock never collapse while both are."""
    rival_plan = [(2, 0.3)] * 5

    def rival(m):
        def gen():
            yield PinConvoy(m, _hold_model(m), rival_plan, memo={})
        return gen()

    def rival_oracle(m):
        hold = _hold_model(m)

        def gen():
            for pages, extra in rival_plan:
                yield Acquire(m)
                yield HoldRelease(m, hold(pages, SOCKET0), extra)
        return gen()

    got, sim = _run_convoy({}, interlopers=[rival])
    ref, ref_sim = _run_convoy(ORACLE, interlopers=[rival_oracle])
    assert got == ref
    assert sim.events_processed <= ref_sim.events_processed


def test_hold_failure_during_fold_falls_back_to_per_batch():
    """A hold model that raises for a later batch size: the collapse is
    abandoned and the failure surfaces at that batch's grant, exactly as
    in the oracle."""
    def run_one(kw):
        sim = Simulator(**kw)
        m = Mutex(sim, "mm")

        def hold(pages, proc):
            if pages == 3:
                raise SimError("injected hold failure")
            return pages * L_PAGE

        plan = [(4, 0.0), (4, 0.5), (3, 0.0)]

        def member():
            if sim.use_pin_convoy:
                yield PinConvoy(m, hold, plan, memo={})
                return
            for pages, extra in plan:
                yield Acquire(m)
                yield HoldRelease(m, hold(pages, None), extra)

        p = sim.spawn(member(), name="member")
        sim.run()
        return (sim.now, p.finish_time, type(p.error).__name__,
                m.acquisitions, m.generation, m.holder is p, m._members,
                p.convoy is None), sim

    got, sim = run_one({})
    ref, _ = run_one(ORACLE)
    assert got == ref
    assert sim.convoys_collapsed == 0


# -- member accounting -----------------------------------------------------------


def test_failed_first_acquire_clears_convoy_and_member_count():
    """A PinConvoy on a lock its process already holds fails at dispatch;
    the process must not keep a dangling convoy and the lock must not
    keep a phantom member (which would disable collapse for good)."""
    sim = Simulator()
    m = Mutex(sim, "mm")
    hold = _hold_model(m)

    def bad():
        yield Acquire(m)
        yield PinConvoy(m, hold, [(1, 0.0)], memo={})

    p = sim.spawn(bad(), name="bad")
    sim.run()
    assert isinstance(p.error, SimError)
    assert p.convoy is None
    assert m._members == 0


def test_failed_first_acquire_via_throw_path():
    """Same failure, reached through the throw/_dispatch path (the convoy
    is yielded right after a failed Join is thrown into the process)."""
    sim = Simulator()
    m = Mutex(sim, "mm")
    hold = _hold_model(m)

    def doomed():
        yield Delay(1.0)
        raise RuntimeError("boom")

    def bad(target):
        yield Acquire(m)
        try:
            yield Join(target)
        except RuntimeError:
            yield PinConvoy(m, hold, [(1, 0.0)], memo={})

    t = sim.spawn(doomed(), name="doomed")
    p = sim.spawn(bad(t), name="bad")
    sim.run()
    assert isinstance(p.error, SimError)
    assert p.convoy is None
    assert m._members == 0


def test_reset_clears_collapse_state():
    """A run aborted while a convoy is collapsed leaves the lock marked;
    resetting engine and lock clears the marks and the counters."""
    sim = Simulator(max_events=2)
    m = Mutex(sim, "mm")
    hold = _hold_model(m)

    def member():
        yield PinConvoy(m, hold, [(4, 0.0)] * 8, memo={})

    sim.spawn(member(), name="member")
    with pytest.raises(SimError, match="max_events"):
        sim.run()
    assert sim.convoys_collapsed == 1
    assert m._collapsed is not None and m._members == 1
    sim.reset()
    m.reset()
    assert (sim.convoys_collapsed, sim.convoys_expanded) == (0, 0)
    assert m._members == 0 and m._collapsed is None


# -- randomized battery --------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),
            st.sampled_from([0.0, 0.0, 0.35, 1.1]),
        ),
        min_size=1, max_size=10,
    ),
    interlopers=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=6.0,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=3,
    ),
    tail=st.sampled_from([0.0, 0.8]),
)
def test_randomized_interloper_times(plan, interlopers, tail):
    def script(start, hold):
        def make(m):
            def gen():
                yield Delay(start)
                yield Acquire(m)
                yield HoldRelease(m, hold)
            return gen()
        return make

    _assert_matches_oracle(
        plan=plan, tail=tail,
        interlopers=[script(s, h) for s, h in interlopers],
    )


#: where a tied interloper lands / is scheduled, relative to one batch's
#: uncontended (grant, release, rejoin) times
_AT = {"g": 0, "r": 1, "q": 2}


def _tied_interloper(timeline, batch, at, after, hold):
    """An interloper due exactly at a boundary of ``batch``, scheduled at
    t=0 (``after`` None), at an earlier boundary of the same batch, or
    halfway to it."""
    row = timeline[batch % len(timeline)]
    due = row[_AT[at]]
    if after == "mid":
        when = row[0] + (due - row[0]) / 2
    elif after is not None:
        when = row[_AT[after]]
    else:
        when = None
    if when is not None and when > due:
        when = None
    return _interloper(due, hold=hold, after=when)


@settings(deadline=None, max_examples=80)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),
            st.sampled_from([0.0, 0.0, 0.35, 1.1]),
        ),
        min_size=1, max_size=8,
    ),
    ties=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sampled_from(sorted(_AT)),
            st.sampled_from([None, "g", "r", "mid"]),
            st.sampled_from([0.05, 0.9]),
        ),
        min_size=1, max_size=3,
    ),
    tail=st.sampled_from([0.0, 0.8]),
)
def test_randomized_tied_interlopers(plan, ties, tail):
    """Interlopers due exactly on a grant, release or rejoin time, each
    scheduled before the collapse or between the convoy's records."""
    timeline = _timeline(plan)
    _assert_matches_oracle(
        plan=plan, tail=tail,
        interlopers=[_tied_interloper(timeline, *t) for t in ties],
    )


# -- several convoys ----------------------------------------------------------


def _run_members(sim_kw, members, interlopers=()):
    """Convoy members, each ``(lock, plan, start, tail)``, on their own or
    shared locks, plus interlopers ``(lock, script)``.  After its convoy
    every member takes one turn on the next member lock (interloping on
    whatever convoy runs there) and then on a common lock, so the order in
    which same-time convoys finish shows in the finish times.  Returns a
    comparable snapshot and the simulator."""
    sim = Simulator(**sim_kw)
    nlocks = 1 + max(
        [lk for lk, *_ in members] + [lk for lk, _ in interlopers]
    )
    locks = [Mutex(sim, f"mm{i}") for i in range(nlocks)]
    common = Mutex(sim, "common")
    log = []

    def member(name, lk, plan, start, tail):
        m = locks[lk]
        hold = _hold_model(m)
        npages = sum(b for b, _ in plan)
        if start:
            yield Delay(start)
        if sim.use_pin_convoy:
            cls = FaultConvoy if tail else PinConvoy
            kw = {"tail_dt": tail} if tail else {}
            yield cls(m, hold, plan, npages=npages, memo={}, **kw)
        else:
            for pages, extra in plan:
                yield Acquire(m)
                yield HoldRelease(m, hold(pages, SOCKET0), extra)
            if tail:
                yield Delay(tail)
        log.append((name, sim.now))
        nxt = locks[(lk + 1) % nlocks]
        yield Acquire(nxt)
        # read at the grant, like a pin batch: sees who else queued by then
        yield HoldRelease(nxt, _hold_model(nxt)(5, SOCKET0))
        log.append((name, sim.now))
        yield Acquire(common)
        log.append((name, sim.now))
        yield HoldRelease(common, 0.125)

    procs = [
        sim.spawn(member(f"m{k}", *spec), name=f"m{k}", socket=0)
        for k, spec in enumerate(members)
    ]
    for k, (lk, script) in enumerate(interlopers):
        procs.append(sim.spawn(script(locks[lk]), name=f"i{k}", socket=k % 2))
    sim.run()
    snap = (
        sim.now,
        tuple(p.finish_time for p in procs),
        tuple(log),
        tuple(
            (m.acquisitions, m.total_wait_us, m.total_hold_us,
             m.max_contenders, m.generation, m.holder is None,
             len(m._waiters), m._members)
            for m in locks + [common]
        ),
    )
    return snap, sim


def _assert_members_match_oracle(members, interlopers=()):
    got, sim = _run_members({}, members, interlopers)
    ref, ref_sim = _run_members(ORACLE, members, interlopers)
    assert got == ref
    assert sim.events_processed <= ref_sim.events_processed
    return sim


@pytest.mark.parametrize("plan", [PLAN, GAP_PLAN], ids=["no-gap", "gap"])
def test_lockstep_convoys_finish_in_oracle_order(plan):
    """Three identical convoys on three locks, started together: their
    records tie at every boundary and must keep the oracle's order."""
    sim = _assert_members_match_oracle(
        [(k, plan, 0.0, 0.0) for k in range(3)]
    )
    assert sim.convoys_collapsed == 3


@pytest.mark.parametrize("extra", [0.0, 0.35])
def test_convoy_finishing_on_a_release_of_another(extra):
    """Two convoys in lockstep, the second one batch longer: the first
    ends exactly on the second's release of the same batch and then
    acquires the second's lock.  Its last record runs after that release
    record, so it finds the lock free."""
    sim = _assert_members_match_oracle(
        [(0, PLAN, 0.0, 0.0), (1, PLAN + [(2, extra)], 0.0, 0.0)]
    )
    assert sim.convoys_expanded == 1


@pytest.mark.parametrize("batch", range(len(GAP_PLAN)))
@pytest.mark.parametrize("at", sorted(_AT))
def test_lockstep_convoys_with_a_tied_interloper(batch, at):
    """Lockstep convoys, one of which an interloper expands exactly on a
    boundary it shares with the other two."""
    timeline = _timeline(GAP_PLAN)
    script = _tied_interloper(timeline, batch, at, "mid", 0.9)
    sim = _assert_members_match_oracle(
        [(k, GAP_PLAN, 0.0, 0.0) for k in range(3)], [(1, script)]
    )
    assert sim.convoys_collapsed >= 3


@settings(deadline=None, max_examples=60)
@given(
    members=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.sampled_from(range(4)),
            st.sampled_from([0.0, 0.0, 0.5, 4 * L_PAGE]),
            st.sampled_from([0.0, 0.8]),
        ),
        min_size=1, max_size=4,
    ),
    ties=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=5),
            st.sampled_from(sorted(_AT)),
            st.sampled_from([None, "g", "r", "mid"]),
            st.sampled_from([0.05, 0.9]),
        ),
        max_size=2,
    ),
)
def test_randomized_convoys_on_several_locks(members, ties):
    """Convoys on up to three locks (shared locks keep them per-batch),
    partly in lockstep, with interlopers tied to boundaries."""
    plans = [PLAN, GAP_PLAN, PLAN + [(2, 0.0)], [(1, 0.35)] * 4]
    specs = [(lk, plans[i], start, tail) for lk, i, start, tail in members]
    timeline = _timeline(plans[members[0][1]])
    interlopers = [
        (lk, _tied_interloper(timeline, batch, at, after, hold))
        for lk, batch, at, after, hold in ties
    ]
    _assert_members_match_oracle(specs, interlopers)
