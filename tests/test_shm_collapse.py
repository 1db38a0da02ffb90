"""Collapsed eager shm trains against the per-chunk oracle.

With a pool that cannot run out, :class:`~repro.shm.ShmTransport` moves a
multi-chunk eager message as one timed transfer: chunk 0 carries every
run and the receiver folds the rest of the ping-pong into one absolute
wake-up.  The per-chunk loop stays in the code as the oracle: these tests
reach it by switching ``collapse`` off on one transport instance and
require every output field the end-to-end digest covers to be identical.
They also pin the guard: which transports collapse, and that a collapse
the pool could not honour fails loudly instead of timing differently.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.p2p_colls import FORCE_EAGER
from repro.core.runner import CollectiveSpec, _execute, _validated_algorithm
from repro.faults import FaultPlan
from repro.kernel import AddressSpaceManager
from repro.machine import get_arch, make_generic
from repro.mpi import Comm, Node, p2p_recv, p2p_send
from repro.shm import ShmTransport
from repro.sim import Delay, SimError, Simulator

#: CollectiveResult fields the end-to-end digest compares
OUTPUT_FIELDS = (
    "latency_us", "per_rank_us", "ctrl_messages", "cma_reads", "cma_writes",
    "fallbacks", "retries", "faults_injected", "xpmem_reads", "xpmem_writes",
    "xpmem_attaches", "xpmem_page_faults",
)

ALGORITHMS = [
    ("scatter", "binomial_p2p", {"threshold": FORCE_EAGER}, True),
    ("gather", "binomial_p2p", {"threshold": FORCE_EAGER}, True),
    ("bcast", "binomial_p2p", {"threshold": FORCE_EAGER}, True),
    ("allgather", "ring_p2p", {"threshold": FORCE_EAGER}, False),
    ("alltoall", "pairwise_shm", {}, False),
]
ARCHS = ["knl", "broadwell", "power8"]
PROCS = [2, 3, 7, 28, 32, 40]
#: one chunk, one byte over, a non-multiple of the chunk, 1 MiB
ETAS = [8192, 8193, 20_000, 1 << 20]


def run(spec, collapse):
    """Run ``spec`` on a fresh node with the transport's guard overridden."""
    fn = _validated_algorithm(spec)
    node = Node(spec.arch, verify=spec.verify, faults=spec.faults)
    comm = Comm(node, spec.procs)
    comm.shm.collapse = collapse
    return _execute(spec, fn, node, comm), comm


def dense_and_large(alg, p, eta):
    """The O(p^2)-message 1 MiB cases at p >= 28: the per-chunk oracle
    alone takes seconds each, so they run on one architecture at p=28."""
    return alg in ("ring_p2p", "pairwise_shm") and eta == 1 << 20 and p >= 28


CASES = [
    pytest.param(coll, alg, params, rooted, arch, p, id=f"{coll}-{alg}-{arch}-p{p}")
    for (coll, alg, params, rooted), arch, p in itertools.product(
        ALGORITHMS, ARCHS, PROCS
    )
]


@pytest.mark.parametrize("coll,alg,params,rooted,arch,p", CASES)
def test_collapsed_matches_per_chunk(coll, alg, params, rooted, arch, p):
    for eta, verify in itertools.product(ETAS, (False, True)):
        if dense_and_large(alg, p, eta) and (arch != "knl" or p != 28):
            continue
        for root in (0, p - 1) if rooted else (0,):
            spec = CollectiveSpec(
                coll, alg, get_arch(arch), procs=p, eta=eta, root=root,
                verify=verify, params=params,
            )
            fast, comm = run(spec, collapse=True)
            slow, _ = run(spec, collapse=False)
            where = f"eta={eta} root={root} verify={verify}"
            for f in OUTPUT_FIELDS:
                assert getattr(fast, f) == getattr(slow, f), f"{f} at {where}"
            assert fast.sim_events <= slow.sim_events, where
            seg = comm.shm.segment
            assert (seg.peak_waiters, seg.slots_in_use, seg.trains) == (0, 0, 0)


def test_collapse_cuts_events():
    spec = CollectiveSpec(
        "scatter", "binomial_p2p", get_arch("knl"), procs=8, eta=1 << 16,
        params={"threshold": FORCE_EAGER},
    )
    fast, _ = run(spec, collapse=True)
    slow, _ = run(spec, collapse=False)
    assert fast.latency_us == slow.latency_us
    assert fast.sim_events * 5 < slow.sim_events


# -- the guard -----------------------------------------------------------------


def test_guard_collapses_only_when_the_pool_cannot_run_out():
    arch = make_generic(sockets=1, cores_per_socket=8, shm_segment_slots=4)
    assert Comm(Node(arch), 4).shm.collapse
    assert not Comm(Node(arch), 5).shm.collapse


def test_guard_keeps_per_chunk_trains_under_a_fault_plan():
    arch = get_arch("knl")
    assert Comm(Node(arch), 4).shm.collapse
    assert not Comm(Node(arch, faults=FaultPlan(seed=1)), 4).shm.collapse


def test_small_pool_takes_the_per_chunk_path():
    """A pool smaller than the rank count may run out, so it keeps the
    per-chunk loop and serializes; collapsing it anyway is refused."""
    arch = make_generic(sockets=1, cores_per_socket=8, shm_segment_slots=2)
    n = 3 * 8192

    def run_pairs(collapse):
        comm = Comm(Node(arch, verify=False), 8)
        assert comm.shm.collapse is False
        comm.shm.collapse = collapse
        bufs = {r: comm.allocate(r, n) for r in range(8)}

        def rank(ctx):
            if ctx.rank % 2 == 0:
                yield from p2p_send(ctx, ctx.rank + 1, "d", bufs[ctx.rank],
                                    threshold=1 << 30)
            else:
                yield from p2p_recv(ctx, ctx.rank - 1, "d", bufs[ctx.rank],
                                    threshold=1 << 30)

        comm.run_ranks(rank)
        return comm.shm.segment

    seg = run_pairs(False)
    assert seg.peak_waiters > 0 and seg.slots_in_use == 0
    with pytest.raises(SimError, match="collapsed eager train holds a slot"):
        run_pairs(True)


# -- a collapse the pool cannot honour fails loudly ----------------------------


def make_pool(nranks, slots):
    sim = Simulator()
    params = make_generic(
        sockets=1, cores_per_socket=max(nranks, 2), shm_segment_slots=slots
    ).params
    return sim, ShmTransport(sim, params, nranks, verify=False)


def transfer(shm, src, dst, tag, nbytes, start=0.0):
    def sender():
        if start:
            yield Delay(start)
        return (yield from shm.send_data(src, dst, tag, None, nbytes))

    def receiver():
        return (yield from shm.recv_data(dst, src, tag, None, nbytes))

    return [sender(), receiver()]


def test_acquire_that_would_wait_on_a_train_raises():
    sim, shm = make_pool(4, slots=1)
    shm.collapse = True  # overridden: the pool can run out
    gens = transfer(shm, 0, 1, "a", 4 * 8192) + transfer(shm, 2, 3, "b", 100, 1.0)
    procs = [sim.spawn(g) for g in gens]
    with pytest.raises(SimError, match="collapsed eager train holds a slot"):
        sim.run_all(procs)


def test_train_starting_with_waiters_raises():
    sim, shm = make_pool(6, slots=1)
    shm.collapse = True
    gens = (
        transfer(shm, 0, 1, "a", 100)
        + transfer(shm, 2, 3, "b", 4 * 8192)
        + transfer(shm, 4, 5, "c", 100)
    )
    procs = [sim.spawn(g) for g in gens]
    with pytest.raises(SimError, match="train starts with acquires waiting"):
        sim.run_all(procs)


@settings(max_examples=60, deadline=None)
@given(
    slots=st.integers(1, 3),
    flows=st.lists(
        st.tuples(st.integers(1, 5 * 8192), st.sampled_from([0.0, 0.5, 2.0, 9.0])),
        min_size=1,
        max_size=4,
    ),
)
def test_forced_collapse_raises_or_matches_the_oracle(slots, flows):
    """Concurrent transfers through a pool that may run out, collapse
    forced on: either the pool refuses (SimError) or every process ends
    at the per-chunk oracle's time with the same result."""

    def simulate(collapse):
        sim, shm = make_pool(2 * len(flows), slots)
        shm.collapse = collapse
        gens = []
        for i, (nbytes, start) in enumerate(flows):
            gens += transfer(shm, 2 * i, 2 * i + 1, i, nbytes, start)
        procs = [sim.spawn(g) for g in gens]
        sim.run_all(procs)
        seg = shm.segment
        assert (seg.slots_in_use, seg.trains) == (0, 0)
        return [(p.finish_time, p.result) for p in procs]

    oracle = simulate(False)
    try:
        fast = simulate(True)
    except SimError as exc:
        assert "collapsed eager train" in str(exc)
        return
    assert fast == oracle


def test_collapsed_runs_arrive_whole():
    sim, shm = make_pool(2, slots=4)
    assert shm.collapse
    shm.verify = True
    space = AddressSpaceManager(page_size=4096).create(pid=1)
    n = 5 * 8192 + 17
    src, dst = space.allocate(n), space.allocate(n)
    src.fill(3)
    src.write_bytes(8190, np.arange(40, dtype=np.uint8))
    procs = [
        sim.spawn(shm.send_data(0, 1, "d", (src, 0), n)),
        sim.spawn(shm.recv_data(1, 0, "d", (dst, 0), n)),
    ]
    sim.run_all(procs)
    assert [p.result for p in procs] == [n, n]
    assert bytes(dst.view()) == bytes(src.view())
    assert shm.mailboxes[1].delivered == 1  # one chunk message, not six
