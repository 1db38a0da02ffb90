"""Differential battery for fused phase-shape commands and the batch drain.

The fused engine commands (:class:`RingStage`, :class:`TreeRound`,
:class:`PairwiseExchange`) and the opt-in vectorized batch executor
promise *bit-identity* with the unfused per-step path: same timestamps,
same FIFO grant order, same lock statistics, same event counts, same
global sequence-number allocation points.  Every test here runs the same
workload through four engine modes and compares full result snapshots:

* ``unfused`` — fusion off, the per-step reference path;
* ``record``  — fused commands, per-record stepping (burst off);
* ``burst``   — fused commands with the uncontended burst fast path;
* ``batch``   — everything above plus the numpy multi-phase drain.

The batch mode is skipped (with the other three still compared) when
numpy is unavailable: the executor is opt-in sugar, not a dependency.
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
from repro.sim.engine import (
    Acquire,
    Delay,
    PhaseCommand,
    Release,
    RingStage,
    SimError,
)

MODES = {
    "unfused": {"use_phase_fusion": False},
    "record": {"use_phase_burst": False},
    "burst": {},
    "batch": {"use_batch_executor": True},
}

#: (collective, algorithm, warm repeats) — every fused shape builder.
#: CMA shapes repeat 3x so the drain sees warm (plan-cached) rounds;
#: xpmem shapes run twice so round two rides the warm attach cache.
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
    """Full per-mm lock statistics: the observables the drain's
    closed-form writebacks must reproduce exactly."""
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


def _assert_modes_identical(spec_args, repeats, interloper=None):
    ref = ref_mode = None
    for mode, kw in MODES.items():
        got = _run_workload(spec_args, kw, repeats, interloper)
        if ref is None:
            ref, ref_mode = got, mode
        else:
            assert got == ref, f"{mode} diverged from {ref_mode}"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize(
    "collective,algorithm,repeats",
    SHAPES, ids=[f"{c}-{a}" for c, a, _ in SHAPES],
)
def test_four_mode_battery(arch, trace, collective, algorithm, repeats):
    """Warm-repeat workloads across archs and trace settings: all four
    modes bit-identical on every round (traced runs exercise the fusion
    refusal path — emitters must fall back without drift)."""
    _assert_modes_identical(
        dict(collective=collective, algorithm=algorithm,
             arch=get_arch(arch), procs=6, eta=180_000, trace=trace),
        repeats,
    )


def test_armed_but_empty_fault_plan_forces_fallback():
    """An armed plan — even one injecting nothing — routes through the
    resilient ladder, which refuses fusion; all modes must agree."""
    _assert_modes_identical(
        dict(collective="allgather", algorithm="ring_source_read",
             arch=get_arch("generic"), procs=6, eta=180_000,
             faults=FaultPlan(seed=7)),
        2,
    )


@pytest.mark.parametrize("start_us", [0.0, 37.5, 900.0])
def test_mid_phase_interloper(start_us):
    """A foreign process grabbing an mm mutex mid-collective must push
    every mode down the identical contended path (the drain declines,
    scalar grants queue) — no mode may fast-forward past the contention."""
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
        """Randomized back-to-back collective mixes on one warm node:
        fused-vs-unfused and batch-vs-scalar stay bit-identical however
        shapes and sizes interleave (cross-collective warm state — seg
        caches, drain plans, xpmem attach maps — must never leak drift)."""
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

        ref = ref_mode = None
        for mode, kw in MODES.items():
            got = run_mix(kw)
            if ref is None:
                ref, ref_mode = got, mode
            else:
                assert got == ref, f"{mode} diverged from {ref_mode}"


def test_raising_callback_truncates_batch_drain_exactly():
    """A segment callback raising mid-drain must fail at the scalar
    failure point: same callback order across processes, same clock,
    same event count, same draw position — the victim's schedule is cut
    at the raising record while independent processes run to completion.
    """
    class Boom(RuntimeError):
        pass

    def build(sim_kw):
        sim = Simulator(**sim_kw)
        calls = []

        def seg(d, tag=None):
            cb = (lambda: calls.append(tag)) if tag else None
            return PhaseCommand.chain(d, 0.0, cb)

        def boom():
            calls.append("boom")
            raise Boom("cb failed")

        def victim():
            yield RingStage([seg(10.0, "a"), ("c", 7.0, 0.0, boom),
                             seg(5.0, "z")])

        def bystander():
            yield RingStage([seg(4.0, "b1"), seg(4.0, "b2"),
                             seg(4.0, "b3"), seg(50.0, "b4")])
            yield Delay(1.0)

        pv = sim.spawn(victim(), name="victim")
        pb = sim.spawn(bystander(), name="bystander")
        with pytest.raises(Boom):
            sim.run_all([pv, pb])
        return (tuple(calls), sim.now, sim.events_processed,
                next(sim._seq))

    scalar = build({})
    batch = build({"use_batch_executor": True})
    assert batch == scalar
    # The failure is per-process: the victim's trailing segment is cut,
    # while the bystander — independent of the failed phase — completes.
    assert "z" not in scalar[0] and "b4" in scalar[0]
    assert scalar[0].index("boom") == scalar[0].index("b3") + 1


def test_phase_command_rejects_malformed_segments():
    with pytest.raises(SimError):
        RingStage([])
    with pytest.raises(SimError):
        RingStage([PhaseCommand.chain(-1.0)])
    with pytest.raises(SimError):
        RingStage([("p", None, None, [], None, 0, None, True, None)])
