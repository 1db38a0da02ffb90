"""Verification patterns are slices of one 251-periodic table.

:func:`repro.core.patterns.pattern` returns read-only views of the shared
table ``31 * j % 251`` instead of computing each block.  The closed form
the patterns are defined by is kept here, in the test, as the oracle: every
view must equal it byte for byte, no caller may be able to write through a
view, and the table's size is bounded by the largest block ever asked for.

The negative battery below proves verification still checks every byte:
for each collective family it runs a verified collective, flips one byte
of a receive buffer and requires :func:`verify_buffers` to name that block
and that byte offset.  Descriptor-level faults follow: a block copied from
the wrong source, a reduction that misses a rank or counts one twice, and
a send buffer the collective modified; each must name the block, the byte
offset and the got/want values.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import patterns
from repro.core.patterns import (
    VerificationError,
    _fill_blocks,
    _reduce_expected,
    pattern,
    verify_buffers,
)
from repro.core.runner import CollectiveSpec, run_collective
from repro.core.vcollectives import displacements
from repro.machine import get_arch, make_generic
from repro.mpi import Comm, Node

#: the largest per-block size on any figure axis
LARGEST_ETA = 4 << 20


def oracle(a: int, b: int, eta: int) -> np.ndarray:
    """The closed-form definition, computed directly in uint32 (exact for
    eta < 2**32 / 31)."""
    idx = np.arange(eta, dtype=np.uint32)
    return ((idx * 31 + a * 7 + b * 13 + 5) % 251).astype(np.uint8)


def table_is_intact() -> bool:
    table = patterns._table
    want = (np.arange(len(table), dtype=np.uint64) * 31 % 251).astype(np.uint8)
    return not table.flags.writeable and np.array_equal(table, want)


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=300),
    b=st.integers(min_value=0, max_value=300),
    eta=st.integers(min_value=0, max_value=20_000),
)
@example(a=0, b=0, eta=LARGEST_ETA)
@example(a=300, b=299, eta=LARGEST_ETA + 1)
def test_pattern_equals_closed_form(a, b, eta):
    got = pattern(a, b, eta)
    assert got.dtype == np.uint8
    assert got.shape == (eta,)
    assert np.array_equal(got, oracle(a, b, eta))


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=300),
    b=st.integers(min_value=0, max_value=300),
    eta=st.integers(min_value=1, max_value=20_000),
)
def test_pattern_views_are_read_only(a, b, eta):
    blk = pattern(a, b, eta)
    assert not blk.flags.writeable
    with pytest.raises(ValueError):
        blk[0] = 0
    with pytest.raises(ValueError):
        blk.flags.writeable = True  # a view of a read-only base stays so


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=300),
    eta=st.one_of(
        st.integers(min_value=1, max_value=250),
        st.just(251),
        st.integers(min_value=252, max_value=3_000),
    ),
)
def test_reduce_expected_matches_elementwise_sum(p, eta):
    total = np.zeros(eta, dtype=np.uint32)
    for r in range(p):
        total += oracle(r, 0, eta)
    assert np.array_equal(_reduce_expected(p, eta), (total % 256).astype(np.uint8))


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=1,
        max_size=12,
    ),
    eta=st.integers(min_value=1, max_value=5_000),
)
def test_fill_blocks_matches_closed_form(pairs, eta):
    comm = Comm(Node(make_generic(sockets=1, cores_per_socket=2)), 2)
    buf = comm.allocate(0, len(pairs) * eta)
    _fill_blocks(buf, tuple(pairs), eta)
    want = np.concatenate([oracle(a, b, eta) for a, b in pairs])
    assert np.array_equal(buf.view(0, len(want)), want)


def test_collectives_leave_the_table_bit_identical():
    """Running verified collectives (which fill and check every buffer)
    must leave the shared table exactly ``31 * j % 251``: no fill or verify
    site writes through a view."""
    arch = get_arch("knl")
    for coll, alg, params in (
        ("scatter", "throttled_read", {"k": 2}),
        ("gather", "parallel_write", {}),
        ("alltoall", "pairwise", {}),
        ("allgather", "ring_source_read", {}),
        ("allreduce", "ring", {}),
    ):
        run_collective(
            CollectiveSpec(coll, alg, arch, procs=6, eta=2048, params=params)
        )
        assert table_is_intact(), coll


def test_table_is_bounded_by_largest_eta(monkeypatch):
    monkeypatch.setattr(patterns, "_table", np.zeros(0, dtype=np.uint8))
    assert np.array_equal(pattern(0, 0, LARGEST_ETA), oracle(0, 0, LARGEST_ETA))
    grown = patterns._table
    assert grown.nbytes <= 2 * (LARGEST_ETA + 251)
    # smaller requests are served from the same table, never a new one
    pattern(7, 3, 1000)
    pattern(250, 250, LARGEST_ETA)
    assert patterns._table is grown
    assert table_is_intact()


# -- negative-verification battery -------------------------------------------

P, ETA = 4, 1000
V_COUNTS = [300, 0, 1000, 57]
A_COUNTS = [[100, 0, 30, 7], [64, 128, 0, 1], [0, 5, 200, 90], [11, 12, 13, 14]]

#: (collective, algorithm, in_place, params) — every family, in place
#: where the family supports it
CASES = [
    ("scatter", "parallel_read", False, {}),
    ("scatter", "throttled_read", True, {"k": 2}),
    ("gather", "parallel_write", False, {}),
    ("gather", "sequential_read", True, {}),
    ("bcast", "knomial", False, {"k": 2}),
    ("allgather", "ring_source_write", False, {}),
    ("allgather", "recursive_doubling", True, {}),
    ("alltoall", "pairwise", False, {}),
    ("scatterv", "parallel_read", False, {}),
    ("scatterv", "throttled_read", True, {"k": 1}),
    ("gatherv", "parallel_write", False, {}),
    ("gatherv", "sequential_read", True, {}),
    ("alltoallv", "pairwise", False, {}),
    ("reduce", "binomial", False, {}),
    ("reduce", "binomial", True, {}),
    ("allreduce", "ring", False, {}),
]


def _blocks(spec, sendbufs, recvbufs):
    """Every checked block of ``spec`` as (buffer, start, length, label)."""
    coll, root = spec.collective, spec.root
    out = []
    for r in range(P):
        if coll in ("scatter", "scatterv"):
            n = ETA if coll == "scatter" else spec.counts[r]
            if n == 0:
                continue
            if r == root and spec.in_place:
                start = displacements(spec.counts or [ETA] * P)[root]
                out.append((sendbufs[root], start, n, "root in-place block clobbered"))
            else:
                out.append((recvbufs[r], 0, n, f"rank {r} block"))
        elif coll in ("gather", "gatherv"):
            if coll == "gather":
                start, n = r * ETA, ETA
            else:
                start, n = displacements(spec.counts)[r], spec.counts[r]
            if n:
                out.append((recvbufs[root], start, n, f"root's block from rank {r}"))
        elif coll == "bcast":
            out.append((recvbufs[r], 0, ETA, f"rank {r} payload"))
        elif coll == "allgather":
            for b in range(P):
                out.append((recvbufs[r], b * ETA, ETA, f"rank {r} block {b}"))
        elif coll == "alltoall":
            for s in range(P):
                out.append((recvbufs[r], s * ETA, ETA, f"rank {r} block from {s}"))
        elif coll == "alltoallv":
            col = [spec.counts[s][r] for s in range(P)]
            displs = displacements(col)
            out += [
                (recvbufs[r], displs[s], col[s], f"rank {r} block from {s}")
                for s in range(P)
                if col[s]
            ]
        elif r == root or coll == "allreduce":
            out.append((recvbufs[r], 0, ETA, f"rank {r} reduction"))
    return out


@pytest.mark.parametrize(
    "coll,alg,in_place,params",
    CASES,
    ids=[f"{c[0]}-{c[1]}{'-inplace' if c[2] else ''}" for c in CASES],
)
def test_verify_names_the_flipped_byte(monkeypatch, coll, alg, in_place, params):
    seen = []
    real_verify = patterns.verify_buffers

    def capture(comm, spec, sendbufs, recvbufs):
        seen.append((comm, spec, sendbufs, recvbufs))
        real_verify(comm, spec, sendbufs, recvbufs)

    monkeypatch.setattr(patterns, "verify_buffers", capture)
    counts = {"scatterv": V_COUNTS, "gatherv": V_COUNTS, "alltoallv": A_COUNTS}
    spec = CollectiveSpec(
        coll, alg, make_generic(sockets=1, cores_per_socket=P), procs=P,
        eta=ETA, root=1, in_place=in_place, params=params,
        counts=counts.get(coll),
    )
    run_collective(spec)  # the untouched result verifies
    ((comm, spec, sendbufs, recvbufs),) = seen

    blocks = _blocks(spec, sendbufs, recvbufs)
    assert blocks
    rng = random.Random(f"{coll}/{alg}/{in_place}")
    targets = [(0, 0), (len(blocks) - 1, blocks[-1][2] - 1)]
    for _ in range(4):
        i = rng.randrange(len(blocks))
        targets.append((i, rng.randrange(blocks[i][2])))
    for i, off in targets:
        buf, start, _, label = blocks[i]
        at = start + off
        before = buf.read(at, 1)
        buf.write_bytes(at, [buf.view(at, 1)[0] ^ 0x5A])
        with pytest.raises(
            VerificationError,
            match=rf"{re.escape(label)}: first mismatch at byte {off} \(got ",
        ):
            verify_buffers(comm, spec, sendbufs, recvbufs)
        buf.write(at, before)
        verify_buffers(comm, spec, sendbufs, recvbufs)  # restored


def _captured_run(monkeypatch, spec):
    seen = []
    real_verify = patterns.verify_buffers

    def capture(comm, spec, sendbufs, recvbufs):
        seen.append((comm, spec, sendbufs, recvbufs))
        real_verify(comm, spec, sendbufs, recvbufs)

    monkeypatch.setattr(patterns, "verify_buffers", capture)
    run_collective(spec)
    ((comm, spec, sendbufs, recvbufs),) = seen
    return comm, sendbufs, recvbufs


def _raises_naming(label, got, want, verify):
    """``verify()`` must raise naming ``label`` and the first byte where
    the byte arrays ``got`` and ``want`` differ, with both values."""
    bad = int(np.argmax(got != want))
    assert got[bad] != want[bad]
    with pytest.raises(VerificationError) as err:
        verify()
    assert str(err.value).endswith(
        f"{label}: first mismatch at byte {bad} (got {got[bad]}, want {want[bad]})"
    )


@pytest.mark.parametrize("coll,alg", [
    ("alltoall", "pairwise"), ("gather", "parallel_write"), ("allgather", "ring_source_read"),
])
def test_verify_names_a_block_from_the_wrong_source(monkeypatch, coll, alg):
    """A same-length block copied from another source's slot: every run
    is a valid pattern, just the wrong one."""
    spec = CollectiveSpec(coll, alg, get_arch("knl"), procs=P, eta=ETA)
    comm, sendbufs, recvbufs = _captured_run(monkeypatch, spec)
    r = 0 if coll == "gather" else 2
    buf = recvbufs[r]
    # slot 1 now holds the block that belongs in slot 3
    buf.write(1 * ETA, buf.read(3 * ETA, ETA))
    label = {
        "alltoall": f"rank {r} block from 1",
        "gather": "root's block from rank 1",
        "allgather": f"rank {r} block 1",
    }[coll]
    b = r if coll == "alltoall" else 0
    _raises_naming(
        label, oracle(3, b, ETA), oracle(1, b, ETA),
        lambda: verify_buffers(comm, spec, sendbufs, recvbufs),
    )


@pytest.mark.parametrize("ranks,what", [
    ([0, 1, 3], "misses rank 2"),
    ([0, 1, 2, 2, 3], "counts rank 2 twice"),
])
def test_verify_names_a_wrong_reduction(monkeypatch, ranks, what):
    spec = CollectiveSpec("allreduce", "ring", get_arch("knl"), procs=P, eta=ETA)
    comm, sendbufs, recvbufs = _captured_run(monkeypatch, spec)
    buf = recvbufs[3]
    buf.fill(0)
    for s in ranks:
        buf.add(0, sendbufs[s].read())
    got = np.zeros(ETA, dtype=np.uint32)
    for s in ranks:
        got += oracle(s, 0, ETA)
    want = np.zeros(ETA, dtype=np.uint32)
    for s in range(P):
        want += oracle(s, 0, ETA)
    _raises_naming(
        "rank 3 reduction", (got % 256).astype(np.uint8), (want % 256).astype(np.uint8),
        lambda: verify_buffers(comm, spec, sendbufs, recvbufs),
    )


def test_verify_names_a_modified_send_buffer(monkeypatch):
    """MPI send buffers are read-only to the collective."""
    spec = CollectiveSpec("scatter", "parallel_read", get_arch("knl"), procs=P, eta=ETA)
    comm, sendbufs, recvbufs = _captured_run(monkeypatch, spec)
    buf = sendbufs[spec.root]
    buf.write_bytes(2 * ETA + 17, [buf.view(2 * ETA + 17, 1)[0] ^ 1])
    want = oracle(spec.root, 2, ETA)
    got = want.copy()
    got[17] ^= 1
    _raises_naming(
        f"rank {spec.root} sendbuf block 2 modified", got, want,
        lambda: verify_buffers(comm, spec, sendbufs, recvbufs),
    )
