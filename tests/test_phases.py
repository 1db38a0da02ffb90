"""Differential battery for the data-phase shapes across engine modes.

The ring, pairwise, fan-out and mapped-window data phases of the native
designs run as per-step loops of CMA/xpmem transfers.  Their pin loops
ride the engine's convoy fast path, which promises *bit-identity* with
the reference paths: same timestamps, same FIFO grant order, same lock
statistics.  Event counts may only fall (an uncontended convoy collapses
into one record), so they are compared as "convoy modes <= per-batch
modes".  Every test here runs the same workload through all four
combinations of the engine's two flags and compares full result
snapshots:

* ``convoy``       — the default: pin loops as convoy commands, zero-delay
  records on the ready deque;
* ``unfused``      — ``use_pin_convoy=False``, the per-batch lock loops;
* ``heap``         — ``use_ready_queue=False``, every record on the heap;
* ``heap-unfused`` — both flags off.

``tests/test_phase_shapes_golden.py`` pins the default mode's numbers.
"""

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the test image
    HAVE_HYPOTHESIS = False

from repro.core.runner import CollectiveSpec, _execute, _validated_algorithm
from repro.faults import FaultPlan
from repro.machine import get_arch
from repro.mpi.communicator import Comm, Node
from repro.sim import Simulator
from repro.sim.engine import Acquire, Delay, Release

MODES = {
    "convoy": {},
    "unfused": {"use_pin_convoy": False},
    "heap": {"use_ready_queue": False},
    "heap-unfused": {"use_ready_queue": False, "use_pin_convoy": False},
}

#: (collective, algorithm, warm repeats) — every data-phase shape.
#: CMA shapes repeat 3x so later rounds run on a warm node; xpmem shapes
#: run twice so round two rides the warm attach cache.
SHAPES = [
    ("allgather", "ring_source_read", 3),
    ("allgather", "ring_source_write", 3),
    ("alltoall", "pairwise", 3),
    ("bcast", "direct_write", 3),
    ("allgather", "xpmem_ring", 2),
    ("alltoall", "xpmem_pairwise", 2),
]

ARCHS = ["generic", "broadwell", "knl"]


def _lock_stats(node):
    """Full per-mm lock statistics."""
    out = []
    for pid in sorted(node.cma._mm_locks):
        mm = node.cma._mm_locks[pid]
        m = mm.mutex
        out.append((
            pid, mm.pages_pinned, m.acquisitions, m.total_wait_us,
            m.max_contenders, m.generation, m.holder is None,
            len(m._waiters),
        ))
    return tuple(out)


def _snapshot(res):
    return (
        res.latency_us, tuple(res.per_rank_us), res.sim_events,
        res.ctrl_messages, res.cma_reads, res.cma_writes,
        res.xpmem_reads, res.xpmem_writes, res.xpmem_attaches,
        res.xpmem_page_faults, res.fallbacks, res.retries,
    )


def _run_workload(spec_args, sim_kw, repeats, interloper=None):
    """Run ``repeats`` rounds of one collective on a single warm node and
    return every round's snapshot plus the final engine/lock state."""
    spec = CollectiveSpec(**spec_args)
    fn = _validated_algorithm(spec)
    node = Node(spec.arch, verify=spec.verify, trace=spec.trace,
                faults=spec.faults, sim=Simulator(**sim_kw))
    comm = Comm(node, spec.procs)
    snaps = []
    for rep in range(repeats):
        if interloper is not None:
            node.sim.spawn(interloper(node), name=f"interloper{rep}")
        res = _execute(spec, fn, node, comm)
        snaps.append(_snapshot(res))
    return (tuple(snaps), _lock_stats(node),
            node.sim.events_processed, node.sim.now)


def _split_events(run):
    """``(snapshots, lock stats, events, now)`` -> (every event count, the
    rest): per-round ``sim_events`` plus the final ``events_processed``."""
    snaps, locks, events, now = run
    counts = tuple(s[2] for s in snaps) + (events,)
    return counts, (tuple(s[:2] + s[3:] for s in snaps), locks, now)


def _assert_runs_agree(runs):
    """``runs`` maps mode -> ``_run_workload`` result.  Everything but the
    event counts must equal the per-batch reference's; the event counts
    may only fall."""
    ref_events, ref = _split_events(runs["unfused"])
    for mode, run in runs.items():
        events, got = _split_events(run)
        assert got == ref, f"{mode} diverged from unfused"
        assert all(e <= r for e, r in zip(events, ref_events)), (
            f"{mode} processed more events than unfused"
        )


def _assert_modes_identical(spec_args, repeats, interloper=None):
    _assert_runs_agree({
        mode: _run_workload(spec_args, kw, repeats, interloper)
        for mode, kw in MODES.items()
    })


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize(
    "collective,algorithm,repeats",
    SHAPES, ids=[f"{c}-{a}" for c, a, _ in SHAPES],
)
def test_four_mode_battery(arch, trace, collective, algorithm, repeats):
    """Warm-repeat workloads across archs and trace settings: all four
    modes bit-identical on every round (traced runs take the per-span
    kernel path in every mode)."""
    _assert_modes_identical(
        dict(collective=collective, algorithm=algorithm,
             arch=get_arch(arch), procs=6, eta=180_000, trace=trace),
        repeats,
    )


def test_armed_but_empty_fault_plan_forces_fallback():
    """An armed plan — even one injecting nothing — routes every transfer
    through the resilient retry/fallback ladder; all modes must agree."""
    _assert_modes_identical(
        dict(collective="allgather", algorithm="ring_source_read",
             arch=get_arch("generic"), procs=6, eta=180_000,
             faults=FaultPlan(seed=7)),
        2,
    )


@pytest.mark.parametrize("start_us", [0.0, 37.5, 900.0])
def test_mid_phase_interloper(start_us):
    """A foreign process grabbing an mm mutex mid-collective must push
    every mode down the identical contended path."""
    def interloper(node):
        mutex = node.cma._mm_locks[min(node.cma._mm_locks)].mutex

        def gen():
            yield Delay(start_us)
            yield Acquire(mutex)
            yield Delay(53.0)
            yield Release(mutex)

        return gen()

    _assert_modes_identical(
        dict(collective="allgather", algorithm="ring_source_read",
             arch=get_arch("generic"), procs=6, eta=180_000),
        2,
        interloper=interloper,
    )


if HAVE_HYPOTHESIS:

    _shape_ix = st.integers(min_value=0, max_value=len(SHAPES) - 1)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        mix=st.lists(
            st.tuples(_shape_ix, st.sampled_from([96_000, 180_000])),
            min_size=1, max_size=4,
        ),
        procs=st.sampled_from([4, 6]),
    )
    def test_randomized_schedule_mixes(mix, procs):
        """Randomized back-to-back collective mixes on one warm node: all
        modes stay bit-identical however shapes and sizes interleave
        (cross-collective warm state — hold memos, xpmem attach maps —
        must never leak drift)."""
        arch = get_arch("generic")

        def run_mix(sim_kw):
            node = Node(arch, verify=False, trace=False,
                        sim=Simulator(**sim_kw))
            comm = Comm(node, procs)
            snaps = []
            for six, eta in mix:
                collective, algorithm, _ = SHAPES[six]
                spec = CollectiveSpec(
                    collective=collective, algorithm=algorithm, arch=arch,
                    procs=procs, eta=eta, verify=False,
                )
                fn = _validated_algorithm(spec)
                snaps.append(_snapshot(_execute(spec, fn, node, comm)))
            return (tuple(snaps), _lock_stats(node),
                    node.sim.events_processed, node.sim.now)

        _assert_runs_agree({mode: run_mix(kw) for mode, kw in MODES.items()})
