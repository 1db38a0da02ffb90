"""Deterministic fault injection: the stack degrades, never breaks.

Covers the PR-5 acceptance battery: faults-off bit-identity, scheduled
single-fault behaviour of the retry/fallback ladder, seeded probabilistic
plans completing every core collective with verified buffers and
reproducible counters, straggler slowdowns, and the exec-layer plumbing
(cache keys, warm-pool bypass, sweep counter transport).
"""

import pytest

from repro.core.runner import (
    CollectiveSpec,
    NodePool,
    run_collective,
    run_collective_pooled,
)
from repro.faults import (
    ENV_FAULTS,
    FaultPlan,
    FaultSpec,
    parse_plan,
    plan_from_env,
)
from repro.machine import make_generic

#: the five core collectives the issue's acceptance battery names
CORE = [
    ("scatter", "parallel_read"),
    ("gather", "parallel_write"),
    ("bcast", "direct_read"),
    ("allgather", "ring_source_read"),
    ("alltoall", "pairwise"),
]

#: a plan exercising every fault kind at once
FULL_PLAN = parse_plan(
    "11:partial@0.3,eperm@0.1,esrch@0.05,efault@0.05,eintr@0.15,straggler@2.0"
)


def arch8():
    return make_generic(sockets=1, cores_per_socket=8)


def spec_for(coll, alg, faults=None, **kw):
    kw.setdefault("procs", 8)
    kw.setdefault("eta", 16384)
    return CollectiveSpec(
        collective=coll, algorithm=alg, arch=arch8(), faults=faults, **kw
    )


def fingerprint(r):
    return (r.latency_us, tuple(r.per_rank_us), r.sim_events, r.ctrl_messages)


class TestPlanConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("ebadf")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("eperm", op="mmap")

    def test_straggler_takes_no_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec("straggler", prob=0.5)
        with pytest.raises(ValueError):
            FaultSpec("straggler", calls=(0,))

    def test_prob_range_enforced(self):
        with pytest.raises(ValueError):
            FaultSpec("eperm", prob=1.5)

    def test_spec_requires_faultplan_type(self):
        with pytest.raises(ValueError):
            spec_for("scatter", "parallel_read", faults="7:eperm")

    def test_parse_plan(self):
        plan = parse_plan("7:partial@0.4,eperm,straggler@2.5")
        assert plan.seed == 7
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["partial", "eperm", "straggler"]
        assert plan.specs[0].prob == 0.4
        assert plan.specs[1].prob == 0.1  # per-kind default
        assert plan.specs[2].resolved_factor == 2.5

    def test_parse_plan_rejects_garbage(self):
        for bad in ("", "7:", "x:eperm", "7:ebadf", "7:eperm@zero"):
            with pytest.raises(ValueError):
                parse_plan(bad)

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv(ENV_FAULTS, "3:eintr@0.2")
        plan = plan_from_env()
        assert plan.seed == 3 and plan.specs[0].kind == "eintr"


class TestDrawMechanics:
    def test_call_index_advances_once_per_draw(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("eperm", calls=(1,)),))
        st = plan.arm()
        assert st.draw("readv", 5, 9, pages=4) is None  # idx 0
        assert st.draw("readv", 5, 9, pages=4).kind == "eperm"  # idx 1
        assert st.draw("readv", 5, 9, pages=4) is None  # idx 2
        assert st.injected == {"eperm": 1}

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec("eintr", calls=(0,)), FaultSpec("eperm", calls=(0,))),
        )
        st = plan.arm()
        assert st.draw("readv", 5, 9, pages=4).kind == "eintr"

    def test_partial_needs_two_pages(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("partial", calls=(0, 1)),))
        st = plan.arm()
        assert st.draw("readv", 5, 9, pages=1) is None
        assert st.draw("readv", 5, 9, pages=2).kind == "partial"

    def test_op_and_pid_filters(self):
        plan = FaultPlan(
            seed=0, specs=(FaultSpec("eperm", op="writev", pid=7, calls=(0,)),)
        )
        st = plan.arm()
        assert st.draw("readv", 7, 9) is None  # wrong op (idx 0 consumed)
        assert st.draw("writev", 8, 9) is None  # wrong pid
        assert st.draw("writev", 7, 9).kind == "eperm"

    def test_straggler_scale_is_a_product(self):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec("straggler", factor=2.0), FaultSpec("straggler", pid=7)),
        )
        st = plan.arm()
        assert st.scale(7) == 4.0  # 2.0 * default 2.0
        assert st.scale(8) == 2.0
        assert st.total_injected == 0  # stragglers never "fire"

    def test_rearm_restarts_streams(self):
        plan = FaultPlan(seed=42, specs=(FaultSpec("eperm", prob=0.5),))
        a = [plan.arm().draw("readv", 5, 9) is not None for _ in range(3)]
        b = [plan.arm().draw("readv", 5, 9) is not None for _ in range(3)]
        assert a == b


class TestBitIdentityWhenOff:
    """Faults off (or vacuously armed) must not perturb the simulation."""

    @pytest.mark.parametrize("coll,alg", [CORE[0], CORE[4]])
    def test_empty_armed_plan_matches_no_plan(self, coll, alg):
        with_plan = run_collective(spec_for(coll, alg, faults=FaultPlan(seed=3)))
        without = run_collective(spec_for(coll, alg))
        assert fingerprint(with_plan) == fingerprint(without)
        assert with_plan.fallbacks == 0
        assert with_plan.retries == 0
        assert with_plan.faults_injected == 0

    def test_unit_straggler_matches_no_plan(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("straggler", factor=1.0),))
        a = run_collective(spec_for("scatter", "parallel_read", faults=plan))
        b = run_collective(spec_for("scatter", "parallel_read"))
        assert fingerprint(a) == fingerprint(b)


class TestScheduledFaults:
    """One exact fault, one exact consequence on the ladder."""

    def test_eperm_first_call_falls_back(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("eperm", calls=(0,)),))
        r = run_collective(spec_for("scatter", "parallel_read", faults=plan))
        assert r.faults_injected == 1
        assert r.fallbacks == 1  # verdict cached False, shm path used
        assert r.retries == 0

    def test_eintr_first_call_retries(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("eintr", calls=(0,)),))
        r = run_collective(spec_for("scatter", "parallel_read", faults=plan))
        assert r.faults_injected == 1
        assert r.retries == 1
        assert r.fallbacks == 0  # the re-issued call succeeds

    def test_partial_first_call_resumes_from_offset(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("partial", calls=(0,)),))
        r = run_collective(spec_for("scatter", "parallel_read", faults=plan))
        assert r.faults_injected == 1
        assert r.retries == 1  # resume-from-offset is a retry
        assert r.fallbacks == 0

    @pytest.mark.parametrize(
        "coll,alg", [("allgather", "recursive_doubling"), ("alltoall", "bruck")]
    )
    def test_partial_multi_iovec_read_resumes_mid_list(self, coll, alg):
        plan = FaultPlan(seed=0, specs=(FaultSpec("partial", calls=(0,)),))
        r = run_collective(spec_for(coll, alg, faults=plan, verify=True))
        assert r.faults_injected >= 1
        assert r.retries == r.faults_injected  # each short count resumed
        assert r.fallbacks == 0

    def test_iovec_resume_and_fallback_pieces(self):
        from repro.kernel.address_space import _iov_pieces, _iov_skip

        local = [(100, 10), (200, 0), (300, 5)]
        remote = [(1000, 4), (2000, 11)]
        assert _iov_skip(local, 0) is local
        assert _iov_skip(local, 12) == [(302, 3)]
        assert _iov_skip(remote, 4) == [(2000, 11)]
        # unequal segmentations split at every boundary of either side
        assert list(_iov_pieces(local, remote, 2, 13)) == [
            (102, 1002, 2), (104, 2000, 6), (300, 2006, 5),
        ]

    def test_esrch_mid_collective_falls_back(self):
        # call indices are per (op, target-pid): pin the spec to rank 0's
        # pid (20000, the deterministic pid_base) so exactly one of the
        # eight read streams hits index 2.
        plan = FaultPlan(
            seed=0, specs=(FaultSpec("esrch", calls=(2,), pid=20_000),)
        )
        r = run_collective(spec_for("alltoall", "pairwise", faults=plan))
        assert r.faults_injected == 1
        assert r.fallbacks == 1

    def test_efault_falls_back_without_verdict(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("efault", calls=(0,)),))
        r = run_collective(spec_for("scatter", "parallel_read", faults=plan))
        assert r.faults_injected == 1
        assert r.fallbacks == 1

    def test_traced_path_injects_too(self):
        """The phase counters account for the injected call: its
        entry+check time is charged, and the shm fallback moves its bytes
        instead of a CMA copy."""
        plan = FaultPlan(seed=0, specs=(FaultSpec("eperm", calls=(0,)),))
        spec = spec_for("scatter", "parallel_read", faults=plan)
        r = run_collective(spec)
        clean = run_collective(spec_for("scatter", "parallel_read"))
        assert r.fallbacks == 1
        ph, ref = r.trace_by_phase, clean.trace_by_phase
        assert ph["syscall"] == pytest.approx(ref["syscall"])
        assert ph["check"] == pytest.approx(ref["check"])
        assert ph["copy"] < ref["copy"]


class TestSeededBattery:
    """Every core collective completes, verified, under the full matrix."""

    @pytest.mark.parametrize("coll,alg", CORE)
    def test_completes_with_nonzero_counters(self, coll, alg):
        r = run_collective(spec_for(coll, alg, faults=FULL_PLAN))
        # verify=True (the default) already checked MPI semantics on the
        # buffers; the counters prove the degraded path actually ran.
        assert r.faults_injected > 0
        assert r.fallbacks + r.retries > 0

    @pytest.mark.parametrize("coll,alg", CORE)
    def test_same_seed_reproduces_exactly(self, coll, alg):
        a = run_collective(spec_for(coll, alg, faults=FULL_PLAN))
        b = run_collective(spec_for(coll, alg, faults=FULL_PLAN))
        assert fingerprint(a) == fingerprint(b)
        assert (a.fallbacks, a.retries, a.faults_injected) == (
            b.fallbacks,
            b.retries,
            b.faults_injected,
        )

    def test_different_seed_differs_somewhere(self):
        other = FaultPlan(seed=12345, specs=FULL_PLAN.specs)
        diffs = 0
        for coll, alg in CORE:
            a = run_collective(spec_for(coll, alg, faults=FULL_PLAN))
            b = run_collective(spec_for(coll, alg, faults=other))
            diffs += fingerprint(a) != fingerprint(b)
        assert diffs > 0

    def test_aggressive_eperm_routes_everything_through_shm(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec("eperm", prob=1.0),))
        clean = run_collective(spec_for("allgather", "ring_source_read"))
        r = run_collective(spec_for("allgather", "ring_source_read", faults=plan))
        assert r.fallbacks > 0
        assert r.cma_reads == 0 and r.cma_writes == 0  # no CMA call succeeded
        assert r.latency_us > clean.latency_us  # two-copy path costs more

    def test_straggler_slows_the_collective(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec("straggler", factor=3.0),))
        clean = run_collective(spec_for("scatter", "parallel_read"))
        slow = run_collective(spec_for("scatter", "parallel_read", faults=plan))
        assert slow.latency_us > 1.5 * clean.latency_us
        assert slow.faults_injected == 0  # stragglers are ambient, not events

    def test_env_plan_battery(self, monkeypatch):
        """REPRO_FAULTS drives a full plan with observable counters."""
        monkeypatch.setenv(ENV_FAULTS, "5:partial@0.4,eintr@0.2")
        plan = plan_from_env()
        for coll, alg in CORE:
            a = run_collective(spec_for(coll, alg, faults=plan))
            b = run_collective(spec_for(coll, alg, faults=plan))
            assert fingerprint(a) == fingerprint(b)

    def test_live_env_plan_battery(self):
        """The CI fault-matrix job's hook: arm whatever REPRO_FAULTS says
        (falling back to a default when unset) and require completion +
        exact reproducibility.  No counter assertions: straggler-only
        plans legitimately produce zero fallbacks/retries."""
        plan = plan_from_env() or parse_plan("5:partial@0.4,eintr@0.2")
        for coll, alg in CORE:
            a = run_collective(spec_for(coll, alg, faults=plan))
            b = run_collective(spec_for(coll, alg, faults=plan))
            assert fingerprint(a) == fingerprint(b)
            assert (a.fallbacks, a.retries, a.faults_injected) == (
                b.fallbacks,
                b.retries,
                b.faults_injected,
            )


class TestExecPlumbing:
    def test_plan_changes_cache_key(self, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path)
        clean = spec_for("scatter", "parallel_read")
        faulted = spec_for("scatter", "parallel_read", faults=FULL_PLAN)
        reseeded = spec_for(
            "scatter",
            "parallel_read",
            faults=FaultPlan(seed=99, specs=FULL_PLAN.specs),
        )
        keys = {
            cache.key_for("collective", s) for s in (clean, faulted, reseeded)
        }
        assert len(keys) == 3

    def test_pooled_runner_bypasses_warm_pool(self):
        pool = NodePool()
        faulted = run_collective_pooled(
            spec_for("scatter", "parallel_read", faults=FULL_PLAN), pool=pool
        )
        assert faulted.faults_injected > 0
        assert pool.leases == 0  # faulted spec never touched the pool
        # and a clean pooled run afterwards is still bit-identical to fresh
        a = run_collective_pooled(spec_for("scatter", "parallel_read"), pool=pool)
        b = run_collective(spec_for("scatter", "parallel_read"))
        assert fingerprint(a) == fingerprint(b)

    def test_sweep_transports_counters_and_caches(self, tmp_path):
        from repro.exec import context as exec_context
        from repro.exec.sweep import run_specs

        specs = lambda: [  # noqa: E731 - rebuilt per call, specs are mutable
            spec_for("scatter", "parallel_read", faults=FULL_PLAN),
            spec_for("scatter", "parallel_read"),
        ]
        with exec_context.use_context(
            exec_context.ExecContext(workers=1, cache=tmp_path)
        ):
            first = run_specs(specs())
        with exec_context.use_context(
            exec_context.ExecContext(workers=1, cache=tmp_path)
        ) as ctx:
            second = run_specs(specs())
            assert ctx.stats.cache_hits == 2
        for a, b in zip(first, second):
            assert fingerprint(a) == fingerprint(b)
            assert (a.fallbacks, a.retries, a.faults_injected) == (
                b.fallbacks,
                b.retries,
                b.faults_injected,
            )
        assert first[0].faults_injected > 0
        assert first[1].faults_injected == 0


class TestSetupOpInjection:
    """KNEM declare / LiMIC tx ride the same draw machinery."""

    def _node_comm(self, plan):
        from repro.mpi import Comm, Node

        node = Node(arch8(), faults=plan)
        comm = Comm(node, 2)
        return node, comm

    def test_knem_declare_eperm(self):
        from repro.kernel.errors import CMAError
        from repro.kernel.knem import KnemKernel

        plan = FaultPlan(
            seed=0, specs=(FaultSpec("eperm", op="declare", calls=(0,)),)
        )
        node, comm = self._node_comm(plan)
        knem = KnemKernel(node.cma)
        buf = comm.allocate(0, 4096)

        def rank0(ctx):
            with pytest.raises(CMAError) as exc:
                yield from knem.declare_region(ctx.proc, buf.addr, 4096)
            assert exc.value.errno == 1  # EPERM
            # the very next declare succeeds (calls=(0,) fired once)
            cookie = yield from knem.declare_region(ctx.proc, buf.addr, 4096)
            assert cookie is not None

        proc = comm.spawn_rank(0, rank0)
        node.sim.run_all([proc])

    def test_limic_tx_eintr(self):
        from repro.kernel.errors import CMAError
        from repro.kernel.limic import LimicKernel

        plan = FaultPlan(seed=0, specs=(FaultSpec("eintr", op="tx", calls=(0,)),))
        node, comm = self._node_comm(plan)
        limic = LimicKernel(node.cma)
        buf = comm.allocate(0, 4096)

        def rank0(ctx):
            with pytest.raises(CMAError) as exc:
                yield from limic.tx_init(ctx.proc, buf.addr, 4096)
            assert exc.value.errno == 4  # EINTR
            txid = yield from limic.tx_init(ctx.proc, buf.addr, 4096)
            assert txid is not None

        proc = comm.spawn_rank(0, rank0)
        node.sim.run_all([proc])
