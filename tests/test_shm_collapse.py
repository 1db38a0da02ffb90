"""Collapsed eager shm trains against the per-chunk oracle.

Every shm transfer owns a one-slot ring, so :class:`~repro.shm.ShmTransport`
moves a multi-chunk eager message as one timed transfer: chunk 0 carries
every run and the receiver folds the rest of the ping-pong into one
absolute wake-up.  The per-chunk loop stays in the code as the oracle:
these tests reach it by switching ``collapse`` off on one transport
instance and require every output field the end-to-end digest covers to
be identical, on whole collectives and for concurrent flows driven
straight at the transport.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.p2p_colls import FORCE_EAGER
from repro.core.runner import CollectiveSpec, _execute, _validated_algorithm
from repro.kernel import AddressSpaceManager
from repro.machine import get_arch
from repro.mpi import Comm, Node
from repro.shm import ShmTransport
from repro.sim import Delay, Simulator

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
    """Run ``spec`` on a fresh node, collapsed or on the per-chunk oracle."""
    fn = _validated_algorithm(spec)
    node = Node(spec.arch, verify=spec.verify)
    comm = Comm(node, spec.procs)
    comm.shm.collapse = collapse
    return _execute(spec, fn, node, comm), comm


def assert_matches_oracle(spec, where):
    """Collapsed and per-chunk runs of ``spec`` agree on every digest
    field, and the collapsed run leaves no chunk or credit unmatched."""
    fast, comm = run(spec, collapse=True)
    slow, _ = run(spec, collapse=False)
    for f in OUTPUT_FIELDS:
        assert getattr(fast, f) == getattr(slow, f), f"{f} at {where}"
    assert fast.sim_events <= slow.sim_events, where
    assert len(fast.per_rank_us) == spec.procs, where
    for mb in comm.shm.mailboxes:
        assert not mb._queue and not mb._posted, where
    return fast


def dense_and_large(alg, p, eta):
    """The O(p^2)-message 1 MiB cases at p >= 28: the per-chunk oracle
    alone takes seconds each, so they run on one architecture at p=28."""
    return (
        alg in ("ring_p2p", "pairwise_shm")
        and eta == 1 << 20 and p >= 28
    )


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
            assert_matches_oracle(spec, f"eta={eta} root={root} verify={verify}")


def test_collapsed_matches_per_chunk_at_160_ranks():
    """POWER8's full axes: 160 ranks of two-copy alltoall at 16 KiB, the
    case a node-wide eager pool of 64 slots used to queue."""
    spec = CollectiveSpec(
        "alltoall", "pairwise_shm", get_arch("power8"), procs=160,
        eta=16384, verify=False,
    )
    assert_matches_oracle(spec, "power8 p=160")


def test_collapse_cuts_events():
    spec = CollectiveSpec(
        "scatter", "binomial_p2p", get_arch("knl"), procs=8, eta=1 << 16,
        params={"threshold": FORCE_EAGER},
    )
    fast, _ = run(spec, collapse=True)
    slow, _ = run(spec, collapse=False)
    assert fast.latency_us == slow.latency_us
    assert fast.sim_events * 5 < slow.sim_events


# -- concurrent flows straight at the transport --------------------------------


def make_transport(nranks):
    sim = Simulator()
    return sim, ShmTransport(sim, get_arch("knl").params, nranks, verify=False)


def transfer(shm, src, dst, tag, nbytes, start=0.0):
    def sender():
        if start:
            yield Delay(start)
        return (yield from shm.send_data(src, dst, tag, None, nbytes))

    def receiver():
        return (yield from shm.recv_data(dst, src, tag, None, nbytes))

    return [sender(), receiver()]


@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(1, 3),
            st.integers(1, 5 * 8192),
            st.sampled_from([0.0, 0.5, 2.0, 9.0]),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_concurrent_collapsed_flows_match_the_oracle(flows):
    """Concurrent transfers, several sharing a sender or a receiver: every
    process ends at the per-chunk oracle's time with the same result."""

    def simulate(collapse):
        sim, shm = make_transport(4)
        shm.collapse = collapse
        gens = []
        for i, (src, hop, nbytes, start) in enumerate(flows):
            gens += transfer(shm, src, (src + hop) % 4, i, nbytes, start)
        procs = [sim.spawn(g) for g in gens]
        sim.run_all(procs)
        return [(p.finish_time, p.result) for p in procs]

    assert simulate(True) == simulate(False)


def test_collapsed_runs_arrive_whole():
    sim, shm = make_transport(2)
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
