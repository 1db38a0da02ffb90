"""Differential battery for :func:`repro.mpi.pt2pt.p2p_sendrecv`.

The oracle is the exchange as the pt2pt baselines used to express it: a
``p2p_send`` and a ``p2p_recv`` spawned as helpers of the calling rank,
then joined.  ``p2p_sendrecv`` runs a rendezvous exchange inside the
rank's own generator and never delivers the CTS, so it must reproduce
every rank's finish time, the final clock, the control-message and CMA
read counts and every received byte exactly; it may only process fewer engine records.

Covered: pairwise schedules at power-of-two and other ``p`` (``to ==
frm`` and ``to != frm``), rings (at ``p = 2`` left == right and both tags
are equal), random per-step permutations, sizes around
``RNDV_THRESHOLD``, seeded per-step skews whose values are sums of the
control latency's halves (so arrivals tie at exactly equal floats) or
zero-length delays (which reorder same-time records only), and verify
on and off.

Why exact equality holds: a rank's send buffer is read again only after
the FIN of its previous read, so no two readers ever meet on one mm lock
(every run below asserts zero lock wait), every message matches a unique
source and tag, and with no contended resource the order of same-time
records cannot move a time.  The equality is
therefore claimed for runs whose mm locks only exchanges take, which is
how the pt2pt baselines use it.  Outside that scope it can fail: a
foreign helper that reads rank 1 after ``Delay(t_ctrl)``,
``Delay(0.0)``, ``Delay(t_ctrl / 2)`` ties with rank 0's exchange read
on rank 1's lock at ``p = 2``, and the spawned pair and
``p2p_sendrecv`` grant that tie in different orders.
"""

import random

import numpy as np
import pytest

from repro.machine import get_arch, make_generic
from repro.mpi import Comm, Node, RNDV_THRESHOLD
from repro.mpi.pt2pt import p2p_recv, p2p_send, p2p_sendrecv
from repro.sim.engine import Delay, Join


def spawned_sendrecv(
    ctx, to, stag, sbuf, soff, frm, rtag, rbuf, roff, nbytes, threshold
):
    """The oracle: both halves as helper processes, joined in order."""
    send = ctx.spawn_helper(
        p2p_send(ctx, to, stag, sbuf, soff, nbytes, threshold), "send"
    )
    recv = ctx.spawn_helper(
        p2p_recv(ctx, frm, rtag, rbuf, roff, nbytes, threshold), "recv"
    )
    yield Join(send)
    yield Join(recv)


def pairwise(p):
    """``_pairwise_over_p2p``'s schedule: ``step -> [(to, frm)] by rank``."""
    pow2 = p & (p - 1) == 0
    return [
        [
            (r ^ s, r ^ s) if pow2 else ((r + s) % p, (r - s) % p)
            for r in range(p)
        ]
        for s in range(1, p)
    ]


def ring(p):
    """``allgather_ring_p2p``'s schedule: always right, always from left."""
    return [[((r + 1) % p, (r - 1) % p) for r in range(p)] for _ in range(p - 1)]


def permutations(p, steps, rng):
    """Random per-step permutations: rank r sends to perm[r]."""
    out = []
    for _ in range(steps):
        perm = list(range(p))
        rng.shuffle(perm)
        inv = [0] * p
        for r, t in enumerate(perm):
            inv[t] = r
        out.append([(perm[r], inv[r]) for r in range(p)])
    return out


def run(
    exchange,
    schedule,
    nbytes,
    *,
    arch=None,
    verify=True,
    threshold=RNDV_THRESHOLD,
    skews=None,
    ring_tags=False,
):
    """Run one schedule of exchanges; return everything the oracle pins."""
    p = len(schedule[0])
    arch = arch or get_arch("broadwell")
    node = Node(arch, verify=verify)
    comm = Comm(node, p)
    steps = len(schedule)
    sbufs = [comm.allocate(r, max(p * nbytes, 1), "s") for r in range(p)]
    rbufs = [comm.allocate(r, max(steps * nbytes, 1), "r") for r in range(p)]
    if verify:
        for r, buf in enumerate(sbufs):
            buf.fill((np.arange(buf.nbytes) * 7 + r * 31) % 251)

    def rank(ctx):
        me = ctx.rank
        for s, pairs in enumerate(schedule):
            skew = skews[me][s] if skews is not None else None
            if skew is not None:
                yield Delay(skew)
            to, frm = pairs[me]
            stag = ("x", s) if ring_tags else ("x", s, me)
            rtag = ("x", s) if ring_tags else ("x", s, frm)
            yield from exchange(
                ctx, to, stag, sbufs[me], to * nbytes,
                frm, rtag, rbufs[me], s * nbytes, nbytes, threshold,
            )

    procs = comm.run_ranks(rank)
    sim = node.sim
    assert sim.now == max(pr.finish_time for pr in procs)
    assert node.cma.phase_times()["lock"] == 0.0
    return {
        "finish": [pr.finish_time for pr in procs],
        "now": sim.now,
        "ctrl_messages": comm.shm.ctrl_messages,
        "cma_reads": node.cma.reads,
        "bytes": [buf.data.tobytes() for buf in rbufs] if verify else None,
        "events": sim.events_processed,
    }


def assert_same(schedule, nbytes, **kw):
    want = run(spawned_sendrecv, schedule, nbytes, **kw)
    got = run(p2p_sendrecv, schedule, nbytes, **kw)
    events = got.pop("events"), want.pop("events")
    assert got == want
    assert events[0] <= events[1]
    return want, events


SIZES = [1, RNDV_THRESHOLD - 1, RNDV_THRESHOLD, RNDV_THRESHOLD + 1, 70_000]


@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize("nbytes", SIZES)
@pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 8])
def test_pairwise_matches_spawned_pair(p, nbytes, verify):
    want, (got_ev, want_ev) = assert_same(pairwise(p), nbytes, verify=verify)
    if nbytes >= RNDV_THRESHOLD:
        # RTS, CTS and FIN per message; one read each; fewer records
        assert want["ctrl_messages"] == 3 * p * (p - 1)
        assert want["cma_reads"] == p * (p - 1)
        assert got_ev < want_ev
    else:
        assert want["cma_reads"] == 0
        assert got_ev == want_ev


@pytest.mark.parametrize("nbytes", SIZES)
@pytest.mark.parametrize("p", [2, 3, 6])
def test_ring_with_equal_tags_matches_spawned_pair(p, nbytes):
    assert_same(ring(p), nbytes, ring_tags=True)


@pytest.mark.parametrize("threshold", [0, RNDV_THRESHOLD])
def test_forced_rendezvous_of_one_byte(threshold):
    want, _ = assert_same(pairwise(5), 1, threshold=threshold)
    assert want["cma_reads"] == (20 if threshold == 0 else 0)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_skews_match_spawned_pair(seed):
    rng = random.Random(seed)
    arch = get_arch(("broadwell", "knl")[seed % 2])
    p = rng.randint(2, 7)
    steps = rng.randint(2, 6)
    half = arch.params.t_ctrl * 0.5
    menu = [None, None, 0.0, half, half + half, half + half + half]
    skews = [[rng.choice(menu) for _ in range(steps)] for _ in range(p)]
    schedule = (
        permutations(p, steps, rng) if seed % 3 else pairwise(p)[:steps]
    )
    nbytes = rng.choice([4096, RNDV_THRESHOLD, 5 * 4096 + 5, 200_000])
    assert_same(
        schedule, nbytes, arch=arch, skews=skews, verify=bool(seed % 4)
    )


def test_two_socket_generic_machine_matches_spawned_pair():
    arch = make_generic(sockets=2, cores_per_socket=3, t_ctrl=1.0)
    skews = [[0.5 * (r % 3) for _ in range(5)] for r in range(6)]
    assert_same(pairwise(6), 40_000, arch=arch, skews=skews)
