"""Differential battery: buffer runs against plain byte arrays.

Buffers hold canonical provenance runs (:mod:`repro.kernel.address_space`)
instead of bytes.  The byte semantics they replace are kept here, in the
test, as the oracle: every operation sequence is applied both to runs and
to plain numpy arrays, and the materialized runs must equal the arrays
byte for byte.  Operations cover pattern fills, raw writes, integer fills,
``copy_iov_bytes`` with multi-entry, partial and self-aliasing iovecs
(among them shifted windows over one buffer, several ranges a side), and
the read-then-write / read-then-add pairs ``Comm.memcpy`` and
``Comm.combine`` perform.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    VerificationError,
    _fill_blocks,
    expect_runs,
    pattern_runs,
)
from repro.kernel.address_space import AddressSpaceManager, copy_iov_bytes

#: buffers per space, sizes chosen to straddle the 251-byte period
SIZES = ((700, 260, 31), (513, 251))


def oracle(a: int, b: int, n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.uint32)
    return ((idx * 31 + a * 7 + b * 13 + 5) % 251).astype(np.uint8)


def _ranges(draw, sizes, max_entries=3):
    """1..max_entries (buffer index, offset, length) ranges, length >= 0."""
    out = []
    for _ in range(draw(st.integers(1, max_entries))):
        i = draw(st.integers(0, len(sizes) - 1))
        n = sizes[i]
        off = draw(st.integers(0, n - 1))
        ln = draw(st.integers(0, n - off))
        out.append((i, off, ln))
    return out


def _tiles(draw, i, off, ln):
    """2..4 (buffer index, offset, length) ranges tiling ``[off, off + ln)``
    of buffer ``i``, ``ln >= 2``."""
    cuts = draw(st.lists(st.integers(1, ln - 1), min_size=1, max_size=3, unique=True))
    bounds = [0, *sorted(cuts), ln]
    return [(i, off + lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def programs(draw):
    """A list of operations over the buffers built from ``SIZES``."""
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(
            ["pattern", "blocks", "raw", "fill", "copy", "memcpy", "combine"]
        ))
        s = draw(st.integers(0, 1))
        i = draw(st.integers(0, len(SIZES[s]) - 1))
        n = SIZES[s][i]
        off = draw(st.integers(0, n - 1))
        ln = draw(st.integers(0, n - off))
        if kind == "pattern":
            ops.append((kind, s, i, off, ln, draw(st.integers(0, 300)),
                        draw(st.integers(0, 300))))
        elif kind == "blocks":
            eta = draw(st.integers(1, 300))
            pairs = draw(st.lists(
                st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=max(1, n // eta),
            ))
            ops.append((kind, s, i, eta, pairs[: n // eta] or None))
        elif kind == "raw":
            ops.append((kind, s, i, off, draw(st.binary(min_size=0, max_size=n - off))))
        elif kind == "fill":
            ops.append((kind, s, i, draw(st.integers(0, 255))))
        elif kind == "copy" and draw(st.booleans()):
            # a shifted window over one buffer: the copy overlaps itself
            # across several pieces, so it must read them all first
            ln = draw(st.integers(2, n))
            soff = draw(st.integers(0, n - ln))
            doff = draw(st.integers(max(0, soff - ln + 1), min(n - ln, soff + ln - 1)))
            src = _tiles(draw, i, soff, ln)
            dst = _tiles(draw, i, doff, ln)
            ops.append((kind, s, src, s, dst, draw(st.integers(0, ln))))
        elif kind == "copy":
            t = draw(st.integers(0, 1))
            src = _ranges(draw, SIZES[s])
            dst = _ranges(draw, SIZES[t])
            total = sum(r[2] for r in src)
            ops.append((kind, s, src, t, dst, draw(st.integers(0, total))))
        else:  # memcpy / combine: a same-length block, maybe self-aliasing
            t = draw(st.integers(0, 1))
            j = draw(st.integers(0, len(SIZES[t]) - 1))
            m = SIZES[t][j]
            ln = draw(st.integers(0, min(n, m)))
            soff = draw(st.integers(0, n - ln))
            doff = draw(st.integers(0, m - ln))
            ops.append((kind, s, i, soff, t, j, doff, ln))
    return ops


def _apply(ops):
    """Run ``ops`` on buffers and on arrays; return (spaces, bufs, arrays)."""
    mgr = AddressSpaceManager(page_size=4096)
    spaces = [mgr.create(pid) for pid in (1, 2)]
    bufs = [[sp.allocate(n) for n in sizes] for sp, sizes in zip(spaces, SIZES)]
    arrs = [[np.zeros(n, dtype=np.uint8) for n in sizes] for sizes in SIZES]
    for op in ops:
        kind = op[0]
        if kind == "pattern":
            _, s, i, off, ln, a, b = op
            bufs[s][i].write(off, pattern_runs(a, b, ln))
            arrs[s][i][off : off + ln] = oracle(a, b, ln)
        elif kind == "blocks":
            _, s, i, eta, pairs = op
            if pairs is None:
                continue
            _fill_blocks(bufs[s][i], pairs, eta)
            for k, (a, b) in enumerate(pairs):
                arrs[s][i][k * eta : (k + 1) * eta] = oracle(a, b, eta)
        elif kind == "raw":
            _, s, i, off, data = op
            raw = np.frombuffer(data, dtype=np.uint8)
            bufs[s][i].write_bytes(off, raw)
            arrs[s][i][off : off + len(raw)] = raw
        elif kind == "fill":
            _, s, i, value = op
            bufs[s][i].fill(value)
            arrs[s][i][:] = value
        elif kind == "copy":
            _, s, src, t, dst, nbytes = op
            src_iov = [bufs[s][i].iov(off, ln) for i, off, ln in src]
            dst_iov = [bufs[t][i].iov(off, ln) for i, off, ln in dst]
            got = copy_iov_bytes(spaces[s], src_iov, spaces[t], dst_iov, nbytes)
            data = np.concatenate(
                [arrs[s][i][off : off + ln] for i, off, ln in src]
            )[:nbytes].copy()
            pos = 0
            for i, off, ln in dst:
                take = min(ln, len(data) - pos)
                arrs[t][i][off : off + take] = data[pos : pos + take]
                pos += take
            assert got == pos
        else:
            _, s, i, soff, t, j, doff, ln = op
            runs = bufs[s][i].read(soff, ln)
            block = arrs[s][i][soff : soff + ln].copy()
            if kind == "memcpy":
                bufs[t][j].write(doff, runs)
                arrs[t][j][doff : doff + ln] = block
            else:
                bufs[t][j].add(doff, runs)
                arrs[t][j][doff : doff + ln] += block
    return spaces, bufs, arrs


def _assert_canonical(buf):
    runs = buf.runs()
    assert runs[0][0] == 0 and runs[-1][1] == buf.nbytes
    for (s0, e0, v0), (s1, e1, v1) in zip(runs, runs[1:]):
        assert s0 < e0 == s1 < e1
        both = type(v0) is tuple and type(v1) is tuple
        assert not (both and v0 == v1), "equal neighbours must be merged"
    for s, e, v in runs:
        if type(v) is tuple:
            assert list(v) == sorted(v) and all(0 <= f < 251 for f in v)
        else:
            assert len(v) == e - s and not v.flags.writeable


@settings(max_examples=300, deadline=None)
@given(ops=programs())
def test_runs_match_byte_arrays(ops):
    _, bufs, arrs = _apply(ops)
    for row_b, row_a in zip(bufs, arrs):
        for buf, arr in zip(row_b, row_a):
            assert np.array_equal(buf.data, arr)
            _assert_canonical(buf)


@settings(max_examples=150, deadline=None)
@given(
    ops=programs(),
    s=st.integers(0, 1),
    a=st.integers(0, 40),
    b=st.integers(0, 40),
    start=st.integers(0, 200),
    lay=st.booleans(),
)
def test_expect_runs_passes_exactly_when_bytes_match(ops, s, a, b, start, lay):
    """Canonical compare first, bytes on a miss: the verdict is the byte
    compare's, and a failure names the first differing byte."""
    if lay:  # make the probed window hold the pattern
        ops = ops + [("pattern", s, 0, start, 300, a, b)]
    _, bufs, arrs = _apply(ops)
    got, want = arrs[s][0][start : start + 300], oracle(a, b, 300)
    match = np.array_equal(got, want)
    assert match or not lay
    try:
        expect_runs(bufs[s][0], start, pattern_runs(a, b, 300), "probe")
    except VerificationError as err:
        assert not match
        bad = int(np.argmax(got != want))
        assert str(err) == (
            f"probe: first mismatch at byte {bad} (got {got[bad]}, want {want[bad]})"
        )
    else:
        assert match


def test_raw_bytes_equal_to_a_pattern_still_verify():
    """A raw run that spells a pattern is not canonically equal to it,
    but verification falls back to bytes and passes."""
    space = AddressSpaceManager(page_size=4096).create(1)
    buf = space.allocate(1000)
    buf.write_bytes(100, oracle(3, 4, 600))
    assert not buf.holds(100, pattern_runs(3, 4, 600))
    expect_runs(buf, 100, pattern_runs(3, 4, 600), "raw")


def test_reduction_order_does_not_matter():
    """Adding operands in any order yields the same canonical run."""
    space = AddressSpaceManager(page_size=4096).create(1)
    ops = [space.allocate(777) for _ in range(5)]
    for r, buf in enumerate(ops):
        buf.write(0, pattern_runs(r, 0, 777))
    x, y = space.allocate(777), space.allocate(777)
    for r in range(5):
        x.add(0, ops[r].read())
        y.add(0, ops[4 - r].read())
    assert x.runs() == y.runs()
    assert len(x.runs()) == 1
