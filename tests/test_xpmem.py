"""Mapped-window (XPMEM-style) lane differential battery.

The fourth kernel mechanism must honour the same two-mode contract as
the CMA convoy machinery (``tests/test_convoy.py``): every workload runs
under

* ``unfused``  — ``Simulator(use_pin_convoy=False)``, the reference;
* ``fused``    — ``Simulator()``, the default fast path (the cold
  fault-in storm rides a :class:`~repro.sim.engine.FaultConvoy` with the
  pin-free copy fused on as its tail);

and both must agree bit-exactly: timestamps, FIFO grant order, mutex
statistics and the xpmem accounting counters.  The fused run may only
process fewer events (an uncontended fault-in convoy collapses into one
record, see ``tests/test_convoy_collapse.py``).  Tracing is
the third mode: it shares one code path across engines, and its
timestamps must equal the untraced runs'.

Coverage: the five native xpmem collectives x three architectures, cold
versus warm attach, a mid-run attacher joining a drained window, and a
hypothesis-randomized attach/copy interleaving whose property is exact
map/fault accounting — map cost charged once per (owner, attacher) pair,
each window page faulted exactly once per pair, however the copies
interleave.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import CollectiveSpec, _execute, _validated_algorithm
from repro.machine import get_arch
from repro.machine.arch import ARCH_NAMES
from repro.mpi.communicator import Comm, Node
from repro.sim import Delay, Simulator

MODES = {
    "unfused": {"use_pin_convoy": False},
    "fused": {},
}

_MIB = 1 << 20


def _lock_stats(node):
    """Exact per-mm-lock statistics, in pid order (as in test_convoy)."""
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


def _xpmem_stats(node):
    x = node.xpmem
    return (x.attaches, x.maps_charged, x.page_faults, x.reads, x.writes)


def _run_spec(spec: CollectiveSpec, sim_kw: dict):
    fn = _validated_algorithm(spec)
    node = Node(spec.arch, verify=spec.verify, trace=spec.trace,
                sim=Simulator(**sim_kw))
    comm = Comm(node, spec.procs)
    res = _execute(spec, fn, node, comm)
    return res.sim_events, (
        res.latency_us,
        tuple(res.per_rank_us),
        res.ctrl_messages,
        _xpmem_stats(node),
        _lock_stats(node),
        tuple(sorted(res.trace_by_phase.items())) if spec.trace else None,
    )


def _assert_modes_agree(run_one):
    """``run_one(sim_kw)`` -> ``(events, snapshot)``; returns the
    reference snapshot once the fused one matches it."""
    ref_events, ref = run_one(MODES["unfused"])
    got_events, got = run_one(MODES["fused"])
    assert got == ref, "fused diverged from unfused reference"
    assert got_events <= ref_events
    return ref


# -- collective battery ------------------------------------------------------

_BATTERY = [
    ("scatter", "xpmem_read", {}),
    ("gather", "xpmem_write", {}),
    ("bcast", "xpmem_read", {}),
    ("allgather", "xpmem_ring", {}),
    ("alltoall", "xpmem_pairwise", {}),
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
    ref = _assert_modes_agree(
        lambda kw: _run_spec(CollectiveSpec(**spec_kw), kw)
    )
    attaches, maps, faults, reads, writes = ref[3]
    assert maps > 0 and attaches >= maps  # the lane actually ran cold
    assert faults > 0
    assert (reads + writes) > 0


@pytest.mark.parametrize("archname", ARCH_NAMES)
@pytest.mark.parametrize("coll,alg", [("scatter", "xpmem_read"),
                                      ("bcast", "xpmem_read")])
def test_traced_run_identical_across_modes(archname, coll, alg):
    """Tracing pins the kernel to its unfused path in every engine mode, so
    traced runs must agree on *everything* — and their timestamps must
    equal the untraced fused run's (tracing never changes simulated time).
    """
    spec_kw = dict(
        collective=coll,
        algorithm=alg,
        arch=get_arch(archname),
        procs=6,
        eta=120_000,
        verify=False,
    )
    _, untraced = _run_spec(CollectiveSpec(**spec_kw), MODES["fused"])

    def run_traced(kw):
        return _run_spec(CollectiveSpec(**spec_kw, trace=True), kw)

    ref = run_traced(MODES["unfused"])
    assert run_traced(MODES["fused"]) == ref
    ref = ref[1]
    assert ref[0] == untraced[0]  # latency
    assert ref[1] == untraced[1]  # per-rank timestamps
    assert ref[3] == untraced[3]  # xpmem accounting
    spans = dict(ref[5])
    for phase in ("xmake", "xattach", "xmap", "fault", "copy"):
        assert phase in spans, f"traced run recorded no {phase!r} span"


# -- window workloads built directly on a node -------------------------------


def _window_workload(node, comm, n_owners, window_bytes, scripts):
    """Owners export one window each; reader scripts attach and copy.

    ``scripts[i]`` drives reader rank ``n_owners + i``: a list of
    ``(owner, delay, offset, nbytes, rounds)`` entries — attach to
    ``owner``'s window (every entry re-attaches: the map cost must still
    be charged only once per pair), then copy ``rounds`` times from
    ``[offset, offset + nbytes)``.

    Returns (procs, windows) where ``windows[o]`` is owner ``o``'s buffer.
    """
    windows = [
        comm.allocate(o, max(window_bytes, 1), name=f"win{o}")
        for o in range(n_owners)
    ]
    box = {}

    def owner(ctx):
        segid = yield from node.xpmem.make_segid(
            ctx.proc, windows[ctx.rank].addr, window_bytes
        )
        box[ctx.rank] = segid
        yield from ctx.sm_barrier("xw-ready")

    def reader(ctx, script):
        yield from ctx.sm_barrier("xw-ready")
        for owner_idx, delay, offset, nbytes, rounds in script:
            if delay:
                yield Delay(delay)
            segid = box[owner_idx]
            yield from node.xpmem.attach(ctx.proc, segid)
            base = windows[owner_idx].addr
            for _ in range(rounds):
                yield from node.xpmem.copy_from(
                    ctx.proc, segid, (0, nbytes), (base + offset, nbytes)
                )

    procs = [comm.spawn_rank(o, owner) for o in range(n_owners)]
    for i, script in enumerate(scripts):
        procs.append(
            comm.spawn_rank(
                n_owners + i,
                lambda ctx, s=script: reader(ctx, s),
            )
        )
    return procs, windows


def _snapshot(node, procs):
    return node.sim.events_processed, (
        node.sim.now,
        tuple(p.finish_time for p in procs),
        _xpmem_stats(node),
        _lock_stats(node),
    )


def _expected_accounting(node, comm, n_owners, windows, scripts):
    """(distinct pairs, exact per-pair faulted page sets) from the scripts."""
    ps = node.arch.params.page_size
    expected: dict[tuple[int, int], set[int]] = {}
    for i, script in enumerate(scripts):
        reader_pid = comm.pid_of(n_owners + i)
        for owner_idx, _delay, offset, nbytes, _rounds in script:
            pair = (comm.pid_of(owner_idx), reader_pid)
            base = windows[owner_idx].addr
            lo = (base + offset) // ps
            hi = (base + offset + nbytes - 1) // ps
            expected.setdefault(pair, set()).update(range(lo, hi + 1))
    return expected


def test_cold_then_warm_attach_bit_exact():
    """Round 1 is the cold storm (map + fault-in under the owner's lock);
    rounds 2..n are warm, pin-free copies.  Bit-exact in every mode, map
    cost charged once per pair despite one attach call per entry."""
    window = 12 * 4096
    scripts = [[(0, 0.0, 0, window, 1), (0, 0.0, 0, window, 3)]
               for _ in range(5)]

    def run_one(kw):
        node = Node(get_arch("knl"), verify=False, trace=False,
                    sim=Simulator(**kw))
        comm = Comm(node, 6)
        procs, _ = _window_workload(node, comm, 1, window, scripts)
        node.sim.run_all(procs)
        return _snapshot(node, procs)

    snap = _assert_modes_agree(run_one)
    attaches, maps, faults, reads, _w = snap[2]
    assert attaches == 10  # two attach calls per reader
    assert maps == 5  # ...but one map charge per (owner, reader) pair
    assert faults == 5 * 12  # every window page faulted once per pair
    assert reads == 5 * 4


def test_warm_copies_never_touch_the_mm_lock():
    """After the cold round, further copies must not acquire the owner's
    mm lock at all: acquisitions == pages faulted, regardless of rounds."""
    window = 8 * 4096
    node = Node(get_arch("knl"), verify=False, trace=False)
    comm = Comm(node, 4)
    scripts = [[(0, 0.0, 0, window, 6)] for _ in range(3)]
    procs, _ = _window_workload(node, comm, 1, window, scripts)
    node.sim.run_all(procs)
    mm = node.cma._mm_locks[comm.pid_of(0)]
    assert node.xpmem.page_faults == 3 * 8
    assert mm.mutex.acquisitions == 3 * 8  # cold faults only, no warm locks
    assert node.xpmem.reads == 3 * 6


def test_mid_run_attacher_join_bit_exact():
    """A late attacher joining after the early readers' windows are warm
    pays its own full map + fault-in — and the join must not disturb the
    steady-state readers' timestamps in any mode."""
    window = 10 * 4096
    scripts = [[(0, 0.0, 0, window, 4)] for _ in range(4)]
    scripts.append([(0, 150.0, 0, window, 2)])  # the latecomer

    def run_one(kw):
        node = Node(get_arch("broadwell"), verify=False, trace=False,
                    sim=Simulator(**kw))
        comm = Comm(node, 6)
        procs, _ = _window_workload(node, comm, 1, window, scripts)
        node.sim.run_all(procs)
        return _snapshot(node, procs)

    snap = _assert_modes_agree(run_one)
    _attaches, maps, faults, _r, _w = snap[2]
    assert maps == 5  # the latecomer's map is charged like anyone's
    assert faults == 5 * 10


def test_reset_dangles_segids_and_restarts_the_counter():
    node = Node(get_arch("knl"), verify=False, trace=False)
    comm = Comm(node, 3)
    window = 4 * 4096
    scripts = [[(0, 0.0, 0, window, 1)] for _ in range(2)]
    procs, _ = _window_workload(node, comm, 1, window, scripts)
    node.sim.run_all(procs)
    stale = next(iter(node.xpmem._segids))
    node.reset()
    comm.reset()
    # the old segid dangles: attaching it must fail with ENOENT
    from repro.kernel.errors import CMAError, ENOENT

    def attacher(ctx):
        yield from node.xpmem.attach(ctx.proc, stale)

    p = comm.spawn_rank(1, attacher)
    with pytest.raises(CMAError) as err:
        node.sim.run_all([p])
    assert err.value.errno == ENOENT
    # ...and a fresh export mints the same first segid a fresh node would
    node.reset()
    comm.reset()
    procs, _ = _window_workload(node, comm, 1, window, scripts)
    node.sim.run_all(procs)
    assert stale in node.xpmem._segids


def test_make_segid_idempotent_per_region():
    node = Node(get_arch("knl"), verify=False, trace=False)
    comm = Comm(node, 2)
    win = comm.allocate(0, 8 * 4096, name="w")
    got = {}

    def owner(ctx):
        a = yield from node.xpmem.make_segid(ctx.proc, win.addr, 4096)
        t_mid = ctx.sim.now
        b = yield from node.xpmem.make_segid(ctx.proc, win.addr, 4096)
        got["free_repeat"] = ctx.sim.now == t_mid  # repeat export is free
        c = yield from node.xpmem.make_segid(ctx.proc, win.addr, 2 * 4096)
        got["ids"] = (a, b, c)

    node.sim.run_all([comm.spawn_rank(0, owner)])
    a, b, c = got["ids"]
    assert a == b and c != a  # same region -> same segid; new size -> new id
    assert got["free_repeat"]


# -- randomized interleavings (the accounting property) ----------------------


@settings(deadline=None, max_examples=25)
@given(
    n_owners=st.integers(min_value=1, max_value=2),
    window_pages=st.integers(min_value=2, max_value=5),
    scripts=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),      # owner (mod n)
                st.floats(min_value=0.0, max_value=40.0,
                          allow_nan=False, allow_infinity=False),  # delay
                st.integers(min_value=0, max_value=4 * 4096 - 1),  # offset
                st.integers(min_value=1, max_value=3 * 4096),      # nbytes
                st.integers(min_value=1, max_value=2),      # rounds
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=2,
        max_size=4,
    ),
)
def test_random_interleavings_charge_once_and_fault_once(
    n_owners, window_pages, scripts
):
    """However attaches and copies interleave across processes: the map
    cost lands exactly once per (owner, attacher) pair, and every touched
    page faults exactly once per pair — total faulted == distinct touched.
    And the whole interleaving is bit-exact across engine modes."""
    ps = 4096  # knl page size
    window = window_pages * ps
    # clamp script entries into the window and onto real owners
    scripts = [
        [
            (o % n_owners, d, off % window, min(n, window - off % window), r)
            for o, d, off, n, r in script
        ]
        for script in scripts
    ]

    def run_one(kw):
        node = Node(get_arch("knl"), verify=False, trace=False,
                    sim=Simulator(**kw))
        comm = Comm(node, n_owners + len(scripts))
        procs, windows = _window_workload(node, comm, n_owners, window, scripts)
        node.sim.run_all(procs)
        return _snapshot(node, procs), node, comm, windows

    (ref_events, ref), node, comm, windows = run_one(MODES["unfused"])
    got_events, got = run_one(MODES["fused"])[0]
    assert got == ref, "fused diverged from unfused reference"
    assert got_events <= ref_events

    expected = _expected_accounting(node, comm, n_owners, windows, scripts)
    assert node.xpmem.maps_charged == len(expected)
    assert node.xpmem.page_faults == sum(len(s) for s in expected.values())
    assert {
        pair: pages for pair, pages in node.xpmem._faulted.items()
    } == expected
    assert node.xpmem.attaches == sum(len(s) for s in scripts)
