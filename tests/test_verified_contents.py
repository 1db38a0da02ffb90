"""Every verified collective leaves exactly the closed-form bytes.

Verification now compares canonical runs (:mod:`repro.core.patterns`), so
this battery checks the result the old way, independently of it: after
every registered (collective, algorithm) runs verified on every preset
architecture, at block sizes below, across and above a page, in place
where the algorithm supports it and under a partial-transfer fault plan,
each send and receive buffer is materialized in full and compared with
the closed-form ``uint32`` pattern expression (the oracle
``tests/test_patterns.py`` keeps), MPI semantics applied by hand.
"""

import numpy as np
import pytest

from repro.core import patterns
from repro.core.registry import ALGORITHMS
from repro.core.runner import CollectiveSpec, run_collective
from repro.faults import parse_plan
from repro.machine import ARCH_NAMES, get_arch

P = 4
ETAS = (1024, 4097, 65536)
_TUNABLES = {"k": 2, "j": 1, "segsize": 4096}

#: algorithms whose in-place variant is defined (the root's, or for
#: allgather every rank's, own block already sits in its receive buffer)
IN_PLACE = {
    "scatter": {"parallel_read", "sequential_write", "throttled_read",
                "binomial_p2p", "fanout_rndv", "xpmem_read"},
    "gather": {"parallel_write", "sequential_read", "throttled_write",
               "binomial_p2p", "fanin_rndv", "xpmem_write"},
    "allgather": {"recursive_doubling", "ring_neighbor", "ring_p2p"},
    "scatterv": {"parallel_read", "sequential_write", "throttled_read"},
    "gatherv": {"parallel_write", "sequential_read", "throttled_write"},
    "reduce": {"binomial", "gather_throttled"},
}


def oracle(a: int, b: int, n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.uint32)
    return ((idx * 31 + a * 7 + b * 13 + 5) % 251).astype(np.uint8)


def _counts(coll, eta):
    if coll in ("scatterv", "gatherv"):
        return [eta, 0, eta // 3 + 1, 2 * eta - 1]
    if coll == "alltoallv":
        return [[(s + 2 * d) % 3 * eta // 2 for d in range(P)] for s in range(P)]
    return None


def _cat(blocks, size):
    """Blocks back to back, zero-padded to ``size`` bytes."""
    out = np.zeros(size, dtype=np.uint8)
    pos = 0
    for blk in blocks:
        out[pos : pos + len(blk)] = blk
        pos += len(blk)
    return out


def expected(spec):
    """(send, recv): per-rank expected bytes of each buffer, or None."""
    coll, eta, root, ip = spec.collective, spec.eta, spec.root, spec.in_place
    counts = spec.counts
    send, recv = [None] * P, [None] * P
    if coll == "scatter":
        send[root] = _cat([oracle(root, d, eta) for d in range(P)], P * eta)
        for r in range(P):
            if not (r == root and ip):
                recv[r] = oracle(root, r, eta)
    elif coll == "gather":
        recv[root] = _cat([oracle(r, 0, eta) for r in range(P)], P * eta)
        for r in range(P):
            if not (r == root and ip):
                send[r] = oracle(r, 0, eta)
    elif coll == "bcast":
        recv = [oracle(root, 0, eta) for _ in range(P)]
    elif coll == "allgather":
        recv = [_cat([oracle(b, 0, eta) for b in range(P)], P * eta)] * P
        if not ip:
            send = [oracle(r, 0, eta) for r in range(P)]
    elif coll == "alltoall":
        send = [_cat([oracle(r, d, eta) for d in range(P)], P * eta) for r in range(P)]
        recv = [_cat([oracle(s, r, eta) for s in range(P)], P * eta) for r in range(P)]
    elif coll == "scatterv":
        send[root] = _cat([oracle(root, d, counts[d]) for d in range(P)],
                          max(sum(counts), 1))
        for r in range(P):
            if counts[r] and not (r == root and ip):
                recv[r] = oracle(root, r, counts[r])
    elif coll == "gatherv":
        recv[root] = _cat([oracle(r, 0, counts[r]) for r in range(P)],
                          max(sum(counts), 1))
        for r in range(P):
            if counts[r] and not (r == root and ip):
                send[r] = oracle(r, 0, counts[r])
    elif coll == "alltoallv":
        for r in range(P):
            send[r] = _cat([oracle(r, d, counts[r][d]) for d in range(P)],
                           max(sum(counts[r]), 1))
            col = [counts[s][r] for s in range(P)]
            recv[r] = _cat([oracle(s, r, col[s]) for s in range(P)], max(sum(col), 1))
    else:
        total = np.zeros(eta, dtype=np.uint32)
        for r in range(P):
            total += oracle(r, 0, eta)
        reduced = (total % 256).astype(np.uint8)
        for r in range(P):
            if coll == "allreduce" or r == root:
                recv[r] = reduced
            if not (coll == "reduce" and r == root and ip):
                send[r] = oracle(r, 0, eta)
    return send, recv


#: algorithms that drop a short CMA count instead of resuming from it, so
#: a partial-transfer fault leaves bytes missing (an open bug, see ROADMAP):
#: their multi-iovec reads bypass the resume-from-offset ladder
PARTIAL_UNSAFE = {
    ("allgather", "recursive_doubling"), ("alltoall", "bruck"),
}


def _cases():
    for coll, algs in sorted(ALGORITHMS.items()):
        for name, info in sorted(algs.items()):
            params = {t: _TUNABLES[t] for t in info.tunable if t in _TUNABLES}
            assert info.check(P, params) is None, (coll, name)
            yield coll, name, params, False
            if name in IN_PLACE.get(coll, ()):
                yield coll, name, params, True


CASES = list(_cases())


@pytest.fixture
def captured(monkeypatch):
    """The (sendbufs, recvbufs) of every verified run, as verify sees them."""
    seen = []
    real = patterns.verify_buffers

    def capture(comm, spec, sendbufs, recvbufs):
        seen.append((spec, sendbufs, recvbufs))
        real(comm, spec, sendbufs, recvbufs)

    monkeypatch.setattr(patterns, "verify_buffers", capture)
    return seen


def _check(spec, captured):
    captured.clear()
    result = run_collective(spec)
    ((spec, sendbufs, recvbufs),) = captured
    send, recv = expected(spec)
    for kind, bufs, want in (("send", sendbufs, send), ("recv", recvbufs, recv)):
        for r in range(P):
            assert (bufs[r] is None) == (want[r] is None), (kind, r)
            if want[r] is not None:
                got = bufs[r].data
                assert np.array_equal(got, want[r]), (
                    f"{kind}buf of rank {r}: first difference at byte "
                    f"{int(np.argmax(got != want[r]))}"
                )
    return result


@pytest.mark.parametrize("arch_name", ARCH_NAMES)
@pytest.mark.parametrize("eta", ETAS)
def test_buffers_equal_closed_form(arch_name, eta, captured):
    arch = get_arch(arch_name)
    for coll, name, params, in_place in CASES:
        spec = CollectiveSpec(
            coll, name, arch, procs=P, eta=eta, root=1, in_place=in_place,
            params=params, counts=_counts(coll, eta),
        )
        _check(spec, captured)


def test_buffers_equal_closed_form_under_partial_transfers(captured):
    """Short CMA counts resume from the returned offset; the bytes that
    arrive must still be exactly right."""
    arch = get_arch("knl")
    injected = []
    for coll, name, params, in_place in CASES:
        if (coll, name) in PARTIAL_UNSAFE:
            continue
        spec = CollectiveSpec(
            coll, name, arch, procs=P, eta=65536, root=1, in_place=in_place,
            params=params, counts=_counts(coll, 65536),
            faults=parse_plan("11:partial@0.5"),
        )
        injected.append(_check(spec, captured).faults_injected)
    assert sum(injected) > len(injected), "the plan must actually truncate"
