"""Warm-node reuse must be invisible: pooled == fresh, bit for bit.

The tentpole claim of the warm-node fast path is that
:func:`repro.core.runner.run_collective_pooled` returns *bit-identical*
results to :func:`repro.core.runner.run_collective` — exact float equality
on every latency, identical event/message counters, identical per-phase
times — while reusing one simulated node across points.  The battery
here randomises over every collective family, in-place, the v-variants,
and verify on/off, interleaving keys so the pool is genuinely exercised
(reuse, eviction, and rebuilds all happen).

Below the battery sit unit tests for the reset contract itself: the
engine's sequence stream, the address spaces (reset restarts addresses
and keeps no bytes; an unverified run's buffers are address ranges only),
and the pool's discard-on-failure policy.
"""

import random

import pytest

from repro.core.registry import get_algorithm
from repro.core.runner import (
    CollectiveSpec,
    NodePool,
    run_collective,
    run_collective_pooled,
)
from repro.kernel.errors import CMAError
from repro.machine import get_arch

# (collective, algorithm, params, supports_in_place, takes_counts)
_CANDIDATES = [
    ("scatter", "parallel_read", {}, True, False),
    ("scatter", "sequential_write", {}, True, False),
    ("scatter", "throttled_read", {"k": 2}, True, False),
    ("scatter", "binomial_p2p", {}, True, False),
    ("scatter", "fanout_rndv", {}, True, False),
    ("gather", "parallel_write", {}, True, False),
    ("gather", "sequential_read", {}, True, False),
    ("gather", "throttled_write", {"k": 2}, True, False),
    ("gather", "binomial_p2p", {}, True, False),
    ("gather", "fanin_rndv", {}, True, False),
    ("alltoall", "pairwise", {}, False, False),
    ("alltoall", "pairwise_pt2pt", {}, False, False),
    ("alltoall", "pairwise_shm", {}, False, False),
    ("alltoall", "bruck", {}, False, False),
    ("allgather", "ring_source_read", {}, False, False),
    ("allgather", "ring_source_write", {}, False, False),
    ("allgather", "ring_neighbor", {"j": 1}, False, False),
    ("allgather", "recursive_doubling", {}, False, False),
    ("allgather", "bruck", {}, False, False),
    ("allgather", "ring_p2p", {}, False, False),
    ("bcast", "direct_read", {}, False, False),
    ("bcast", "direct_write", {}, False, False),
    ("bcast", "knomial", {"k": 2}, False, False),
    ("bcast", "scatter_allgather", {}, False, False),
    ("bcast", "binomial_p2p", {}, False, False),
    ("bcast", "shm_slab", {}, False, False),
    ("bcast", "chain", {"segsize": 4096}, False, False),
    ("scatterv", "parallel_read", {}, True, True),
    ("scatterv", "sequential_write", {}, True, True),
    ("gatherv", "parallel_write", {}, True, True),
    ("gatherv", "sequential_read", {}, True, True),
    ("alltoallv", "pairwise", {}, False, True),
    ("reduce", "gather_throttled", {"k": 2}, True, False),
    ("reduce", "binomial", {}, True, False),
    ("reduce", "ring_rs", {}, False, False),
    ("allreduce", "reduce_bcast", {"k": 2}, False, False),
    ("allreduce", "ring", {}, False, False),
    ("allreduce", "recursive_doubling", {}, False, False),
    ("scatter", "xpmem_read", {}, True, False),
    ("gather", "xpmem_write", {}, True, False),
    ("bcast", "xpmem_read", {}, False, False),
    ("allgather", "xpmem_ring", {}, False, False),
    ("alltoall", "xpmem_pairwise", {}, False, False),
]


def _battery(seed: int, n: int):
    """Randomised specs spanning the whole algorithm registry."""
    rng = random.Random(seed)
    archs = {name: get_arch(name) for name in ("knl", "broadwell")}
    specs = []
    while len(specs) < n:
        coll, alg, params, can_inplace, takes_counts = rng.choice(_CANDIDATES)
        procs = rng.choice([4, 6, 8])
        if get_algorithm(coll, alg).check(procs, params):
            continue  # invalid for this p (e.g. power-of-two constraints)
        eta = rng.choice([512, 1024, 4096])
        kwargs = dict(
            collective=coll,
            algorithm=alg,
            arch=archs[rng.choice(list(archs))],
            procs=procs,
            eta=eta,
            params=params,
            in_place=can_inplace and rng.random() < 0.3,
            verify=rng.random() >= 0.25,
        )
        if coll in ("scatter", "gather", "bcast", "scatterv", "gatherv", "reduce"):
            kwargs["root"] = rng.randrange(procs)
        if takes_counts:
            if coll == "alltoallv":
                kwargs["counts"] = [
                    [rng.choice([0, 256, eta]) for _ in range(procs)]
                    for _ in range(procs)
                ]
            else:
                kwargs["counts"] = [
                    rng.choice([0, 256, eta]) for _ in range(procs)
                ]
        try:
            specs.append(CollectiveSpec(**kwargs))
        except ValueError:
            continue
    return specs


def _fields(res):
    return (
        res.latency_us,
        tuple(res.per_rank_us),
        res.ctrl_messages,
        res.cma_reads,
        res.cma_writes,
        res.xpmem_reads,
        res.xpmem_writes,
        res.xpmem_attaches,
        res.xpmem_page_faults,
        res.sim_events,
        tuple(sorted(res.trace_by_phase.items())),
    )


def test_pooled_battery_bit_identical_to_fresh():
    specs = _battery(seed=20170905, n=60)
    # sanity: the battery must genuinely span the families and the toggles
    assert len({s.collective for s in specs}) >= 8
    assert any(s.in_place for s in specs)
    assert any(not s.verify for s in specs)
    assert any(s.counts is not None for s in specs)
    assert any(s.lane == "xpmem" for s in specs)

    pool = NodePool()
    for spec in specs:
        fresh = run_collective(spec)
        pooled = run_collective_pooled(spec, pool)
        assert _fields(pooled) == _fields(fresh), spec
    assert pool.reuses > 0, "battery never hit a warm node; pool untested"


def test_pooled_battery_survives_interleaved_key_churn():
    """Same battery, re-sorted so consecutive points alternate between a
    handful of keys — exercising reuse *and* LRU eviction on a tiny pool."""
    specs = _battery(seed=42, n=30)
    pool = NodePool(max_entries=2)
    for spec in specs:
        fresh = run_collective(spec)
        pooled = run_collective_pooled(spec, pool)
        assert _fields(pooled) == _fields(fresh), spec
    assert len(pool._entries) <= 2


def test_repeated_pooled_runs_of_one_spec_are_stable():
    spec = CollectiveSpec(
        "scatter", "throttled_read", get_arch("knl"), procs=8, eta=4096,
        params={"k": 2},
    )
    pool = NodePool()
    first = run_collective_pooled(spec, pool)
    for _ in range(3):
        again = run_collective_pooled(spec, pool)
        assert _fields(again) == _fields(first)
    assert pool.reuses == 3


def test_pooled_xpmem_bit_identical_and_warm():
    """Mapped-window runs on a warm node must match fresh runs bit for bit,
    verified or not: segid minting restarts at the base, so any drift in
    the attach caches or the fault bookkeeping shows up as a control-plane
    or latency mismatch."""
    pool = NodePool()
    cases = [
        ("scatter", "xpmem_read"),
        ("gather", "xpmem_write"),
        ("bcast", "xpmem_read"),
        ("allgather", "xpmem_ring"),
        ("alltoall", "xpmem_pairwise"),
    ]
    for verify in (False, True):
        for coll, alg in cases:
            spec = CollectiveSpec(
                coll, alg, get_arch("broadwell"), procs=6, eta=8192,
                verify=verify,
            )
            warmup = run_collective_pooled(spec, pool)  # may build the node
            pooled = run_collective_pooled(spec, pool)  # guaranteed warm
            fresh = run_collective(spec)
            assert _fields(warmup) == _fields(fresh), (coll, alg, verify)
            assert _fields(pooled) == _fields(fresh), (coll, alg, verify)
            assert pooled.xpmem_attaches > 0, (coll, alg, verify)
            assert pooled.xpmem_page_faults > 0, (coll, alg, verify)
    assert pool.reuses >= len(cases) * 2 - 1


def test_pool_release_clears_mapped_window_state():
    """After an xpmem run, the node handed back by the pool must carry no
    exports, no attachments, and a restarted segid counter — and the
    communicator's per-(rank, segid) attach cache must be empty, else a
    warm rank would skip the attach its fresh twin pays for."""
    spec = CollectiveSpec(
        "scatter", "xpmem_read", get_arch("knl"), procs=4, eta=4096
    )
    pool = NodePool()
    run_collective_pooled(spec, pool)

    node, comm = pool.node_for(spec.arch, spec.procs, spec.verify)
    try:
        xp = node.xpmem
        assert not xp._segids and not xp._by_region
        assert not xp._mapped and not xp._faulted
        assert (xp.attaches, xp.maps_charged, xp.page_faults) == (0, 0, 0)
        assert (xp.reads, xp.writes) == (0, 0)
        from repro.kernel.xpmem import _SEGID_BASE

        assert next(xp._segid_counter) == _SEGID_BASE
        assert not comm._xpmem_attached
    finally:
        pool.release(spec.arch, node, comm)


# -- reset contract units ----------------------------------------------------


def test_simulator_reset_restarts_sequence_stream():
    from repro.sim.engine import Delay, Simulator

    def worker():
        yield Delay(1.0)
        yield Delay(0.0)

    sim = Simulator()
    sim.spawn(worker(), name="w")
    sim.run()
    events_first = sim.events_processed
    seq_first = next(sim._seq)

    sim.reset()
    assert sim.now == 0.0 and sim.events_processed == 0
    assert not sim._heap and not sim._ready and not sim._procs
    sim.spawn(worker(), name="w")
    sim.run()
    assert sim.events_processed == events_first
    assert next(sim._seq) == seq_first


def test_address_space_reset_allocates_zeroed_at_va_base():
    from repro.kernel.address_space import AddressSpaceManager

    mgr = AddressSpaceManager(page_size=4096)
    space = mgr.create(pid=1)
    buf = space.allocate(8192, "a")
    buf.fill(7)  # dirty it, like a finished collective would

    space.reset()
    again = space.allocate(8192, "b")
    assert again.addr == buf.addr == space.va_base, (
        "addresses must restart at va_base"
    )
    assert again.runs() == [(0, 8192, ())], "a fresh allocation is one zero run"
    assert again.data.shape == (8192,) and not again.data.any()
    assert (buf.data == 7).all(), "the old buffer is not recycled"


def test_address_space_reset_keeps_no_backing_arrays():
    import gc
    import weakref

    from repro.kernel.address_space import AddressSpaceManager

    mgr = AddressSpaceManager(page_size=4096)
    space = mgr.create(pid=1)
    bufs = [space.allocate(n) for n in (4096, 8192, 4096)]
    for buf in bufs:
        buf.fill(3)
    backing = [weakref.ref(buf) for buf in bufs]  # and the runs they own
    first_addr = bufs[0].addr
    del buf, bufs

    space.reset()
    gc.collect()
    assert all(ref() is None for ref in backing), (
        "reset must not keep buffers or their runs alive"
    )
    with pytest.raises(CMAError):
        space.resolve(first_addr, 1)


def test_node_pool_discards_failed_runs():
    spec = CollectiveSpec(
        "scatter", "parallel_read", get_arch("knl"), procs=4, eta=1024
    )
    pool = NodePool()
    run_collective_pooled(spec, pool)  # seed the pool with a warm node

    node, comm = pool.node_for(spec.arch, spec.procs, spec.verify)
    # sabotage the next run: denied pid makes every CMA access raise EPERM
    node.cma.denied_pids.add(comm.pid_of(0))
    pool.release(spec.arch, node, comm)  # reset clears the sabotage...
    bad = run_collective_pooled(spec, pool)
    assert bad.latency_us > 0

    # ...and a genuinely failing run never goes back into the pool
    from repro.core import runner as runner_mod

    real_execute = runner_mod._execute

    def failing(spec_, fn, node_, comm_):
        raise RuntimeError("boom")

    runner_mod._execute = failing
    try:
        with pytest.raises(RuntimeError):
            run_collective_pooled(spec, pool)
    finally:
        runner_mod._execute = real_execute
    assert not pool._entries, "a failed run's node must be discarded"
    # the next pooled run rebuilds and still matches fresh
    assert _fields(run_collective_pooled(spec, pool)) == _fields(
        run_collective(spec)
    )


def test_node_pool_rebuilds_on_arch_value_change():
    import dataclasses

    arch = get_arch("knl")
    spec = CollectiveSpec("scatter", "parallel_read", arch, procs=4, eta=1024)
    pool = NodePool()
    run_collective_pooled(spec, pool)

    # same name, different parameters: must NOT reuse the pooled node
    params2 = dataclasses.replace(arch.params, l_page=arch.params.l_page * 2)
    arch2 = dataclasses.replace(arch, params=params2)
    spec2 = CollectiveSpec("scatter", "parallel_read", arch2, procs=4, eta=1024)
    pooled = run_collective_pooled(spec2, pool)
    fresh = run_collective(spec2)
    assert _fields(pooled) == _fields(fresh)
    assert pooled.latency_us != run_collective(spec).latency_us


def test_recycled_buffers_cannot_fake_verification():
    """A stale correct answer left in a recycled recvbuf must not satisfy
    verification: buffer storage is created zeroed on first access."""
    from repro.core import patterns

    spec = CollectiveSpec(
        "scatter", "parallel_read", get_arch("knl"), procs=4, eta=1024
    )
    pool = NodePool()
    run_collective_pooled(spec, pool)  # leaves correct bytes in the arena

    # Re-run the same spec on the warm node with a broken "algorithm" that
    # moves nothing: if recycled buffers kept their bytes, verification
    # would wrongly pass.
    node, comm = pool.node_for(spec.arch, spec.procs, spec.verify)

    def lazy_rank(ctx):
        from repro.sim import Delay

        yield Delay(1.0)

    sendbufs, recvbufs = patterns.setup_buffers(comm, spec)
    procs = [
        comm.spawn_rank(r, lambda ctx: lazy_rank(ctx), root=0, eta=spec.eta,
                        sendbuf=sendbufs[r], recvbuf=recvbufs[r])
        for r in range(spec.procs)
    ]
    node.sim.run_all(procs)
    with pytest.raises(patterns.VerificationError):
        patterns.verify_buffers(comm, spec, sendbufs, recvbufs)
