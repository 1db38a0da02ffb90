"""Unit + property tests for paged address spaces and iovec resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import AddressSpace, AddressSpaceManager, CMAError
from repro.kernel.address_space import iov_pages
from repro.kernel.errors import EFAULT, ESRCH


@pytest.fixture
def mgr():
    return AddressSpaceManager(page_size=4096)


@pytest.fixture
def space(mgr):
    return mgr.create(pid=100)


class TestAllocation:
    def test_buffers_are_page_aligned(self, space):
        for n in (1, 100, 4096, 5000):
            buf = space.allocate(n)
            assert buf.addr % 4096 == 0

    def test_buffers_do_not_overlap(self, space):
        bufs = [space.allocate(3000) for _ in range(10)]
        spans = sorted((b.addr, b.end) for b in bufs)
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_zero_size_rejected(self, space):
        with pytest.raises(ValueError):
            space.allocate(0)

    def test_data_starts_zeroed(self, space):
        buf = space.allocate(64)
        assert not buf.data.any()

    def test_fill_and_view(self, space):
        buf = space.allocate(16)
        buf.fill(np.arange(16, dtype=np.uint8))
        assert list(buf.view(4, 4)) == [4, 5, 6, 7]

    def test_view_is_read_only(self, space):
        buf = space.allocate(8)
        with pytest.raises(ValueError):
            buf.view(0, 8)[:] = 9
        buf.write_bytes(2, np.full(4, 9))
        assert list(buf.view(0, 8)) == [0, 0, 9, 9, 9, 9, 0, 0]
        assert not buf.data.flags.writeable

    def test_view_out_of_bounds(self, space):
        buf = space.allocate(8)
        with pytest.raises(CMAError):
            buf.view(4, 8)

    def test_iov_helper(self, space):
        buf = space.allocate(100)
        addr, ln = buf.iov(10, 20)
        assert addr == buf.addr + 10
        assert ln == 20


class TestResolution:
    def test_resolve_within_buffer(self, space):
        buf = space.allocate(8192)
        got, off = space.resolve(buf.addr + 5000, 100)
        assert got is buf
        assert off == 5000

    def test_resolve_unmapped_faults(self, space):
        space.allocate(4096)
        with pytest.raises(CMAError) as e:
            space.resolve(0xDEAD0000, 1)
        assert e.value.errno == EFAULT

    def test_resolve_past_end_faults(self, space):
        buf = space.allocate(4096)
        with pytest.raises(CMAError):
            space.resolve(buf.addr + 4000, 200)

    def test_guard_page_between_allocations(self, space):
        a = space.allocate(4096)
        space.allocate(4096)
        # one byte past buffer a must fault, even though b exists
        with pytest.raises(CMAError):
            space.resolve(a.end, 1)

    def test_unknown_pid_is_esrch(self, mgr):
        with pytest.raises(CMAError) as e:
            mgr.get(999)
        assert e.value.errno == ESRCH

    def test_duplicate_pid_rejected(self, mgr):
        mgr.create(1)
        with pytest.raises(ValueError):
            mgr.create(1)

    def test_contains(self, mgr):
        mgr.create(5)
        assert 5 in mgr
        assert 6 not in mgr


class TestGatherScatter:
    def test_gather_concatenates(self, space):
        a = space.allocate(4)
        b = space.allocate(4)
        a.fill(1)
        b.fill(2)
        got = space.gather_bytes([a.iov(), b.iov()])
        assert list(got) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_scatter_fills_in_order(self, space):
        a = space.allocate(4)
        b = space.allocate(4)
        n = space.scatter_bytes([a.iov(), b.iov()], np.arange(8, dtype=np.uint8))
        assert n == 8
        assert list(a.data) == [0, 1, 2, 3]
        assert list(b.data) == [4, 5, 6, 7]

    def test_scatter_partial_data(self, space):
        a = space.allocate(4)
        b = space.allocate(4)
        n = space.scatter_bytes([a.iov(), b.iov()], np.arange(6, dtype=np.uint8))
        assert n == 6
        assert list(b.data) == [4, 5, 0, 0]

    def test_empty_iovs(self, space):
        assert space.gather_bytes([]).size == 0
        assert space.scatter_bytes([], np.zeros(4, dtype=np.uint8)) == 0

    def test_zero_length_entries_skipped(self, space):
        a = space.allocate(4)
        got = space.gather_bytes([(a.addr, 0), a.iov()])
        assert got.size == 4


class TestPageCounting:
    def test_single_entry_page_count(self, space):
        buf = space.allocate(3 * 4096)
        assert iov_pages([buf.iov(0, 1)], space.page_size) == 1
        assert iov_pages([buf.iov(0, 4096)], space.page_size) == 1
        assert iov_pages([buf.iov(0, 4097)], space.page_size) == 2
        # crossing a page boundary counts both pages
        assert iov_pages([buf.iov(4090, 10)], space.page_size) == 2

    def test_multiple_entries_counted_separately(self, space):
        buf = space.allocate(8192)
        iov = [buf.iov(0, 100), buf.iov(4096, 100)]
        assert iov_pages(iov, space.page_size) == 2

    def test_zero_length_costs_nothing(self, space):
        buf = space.allocate(4096)
        assert iov_pages([(buf.addr, 0)], space.page_size) == 0


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_property_gather_scatter_roundtrip(sizes, seed):
    """scatter(gather(iov)) across fresh buffers preserves the bytes."""
    mgr = AddressSpaceManager(page_size=4096)
    src_space = mgr.create(1)
    dst_space = mgr.create(2)
    rng = np.random.default_rng(seed)
    src_bufs = []
    for n in sizes:
        b = src_space.allocate(n)
        b.fill(rng.integers(0, 256, size=n, dtype=np.uint8))
        src_bufs.append(b)
    dst_bufs = [dst_space.allocate(n) for n in sizes]
    data = src_space.gather_bytes([b.iov() for b in src_bufs])
    n = dst_space.scatter_bytes([b.iov() for b in dst_bufs], data)
    assert n == sum(sizes)
    for sb, db in zip(src_bufs, dst_bufs):
        assert np.array_equal(sb.data, db.data)


@settings(max_examples=60, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=20_000),
    nbytes=st.integers(min_value=1, max_value=20_000),
)
def test_property_page_count_matches_formula(offset, nbytes):
    """iov_pages == pages spanned by [offset, offset+nbytes)."""
    mgr = AddressSpaceManager(page_size=4096)
    space = mgr.create(1)
    buf = space.allocate(40_000)
    first = (buf.addr + offset) // 4096
    last = (buf.addr + offset + nbytes - 1) // 4096
    npages = last - first + 1
    assert iov_pages([buf.iov(offset, nbytes)], space.page_size) == npages


class TestNegativeLengths:
    def test_view_negative_nbytes_faults(self, space):
        buf = space.allocate(8)
        with pytest.raises(CMAError) as e:
            buf.view(0, -1)
        assert e.value.errno == EFAULT

    def test_view_negative_offset_faults(self, space):
        buf = space.allocate(8)
        with pytest.raises(CMAError) as e:
            buf.view(-4, 4)
        assert e.value.errno == EFAULT

    def test_iov_negative_nbytes_faults(self, space):
        buf = space.allocate(8)
        with pytest.raises(CMAError) as e:
            buf.iov(0, -1)
        assert e.value.errno == EFAULT

    def test_negative_does_not_wrap_via_python_indexing(self, space):
        # offset=-4, nbytes=4 would "fit" under Python slice semantics;
        # the kernel contract is EFAULT, not a silent wraparound read.
        buf = space.allocate(8)
        with pytest.raises(CMAError):
            buf.iov(-4, 4)


class TestCopyIovBytes:
    def _filled(self, space, n, start=0):
        buf = space.allocate(n)
        buf.fill(np.arange(start, start + n, dtype=np.uint8))
        return buf

    def test_single_entry_copy(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        src = self._filled(src_space, 16)
        dst = dst_space.allocate(16)
        n = copy_iov_bytes(src_space, [src.iov()], dst_space, [dst.iov()], 16)
        assert n == 16
        assert np.array_equal(dst.data, src.data)

    def test_truncated_copy_stops_at_nbytes(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        src = self._filled(src_space, 16, start=1)
        dst = dst_space.allocate(16)
        n = copy_iov_bytes(src_space, [src.iov()], dst_space, [dst.iov()], 6)
        assert n == 6
        assert list(dst.data[:6]) == [1, 2, 3, 4, 5, 6]
        assert not dst.data[6:].any()

    def test_multi_entry_gather_scatter(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        a = self._filled(src_space, 4, start=0)
        b = self._filled(src_space, 4, start=4)
        c = dst_space.allocate(5)
        d = dst_space.allocate(3)
        n = copy_iov_bytes(
            src_space, [a.iov(), b.iov()], dst_space, [c.iov(), d.iov()], 8
        )
        assert n == 8
        assert list(c.data) == [0, 1, 2, 3, 4]
        assert list(d.data) == [5, 6, 7]

    def test_single_src_scattered_dst_fast_path(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        src = self._filled(src_space, 8)
        c = dst_space.allocate(3)
        d = dst_space.allocate(5)
        n = copy_iov_bytes(src_space, [src.iov()], dst_space, [c.iov(), d.iov()], 8)
        assert n == 8
        assert list(c.data) == [0, 1, 2]
        assert list(d.data) == [3, 4, 5, 6, 7]

    def test_same_space_overlapping_copy_is_safe(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        space = mgr.create(1)
        buf = self._filled(space, 8)
        # dst overlaps src within the SAME backing buffer: the copy must
        # behave like memmove (source snapshot), not clobber as it goes
        n = copy_iov_bytes(
            space, [(buf.addr, 6)], space, [(buf.addr + 2, 6)], 6
        )
        assert n == 6
        assert list(buf.data) == [0, 1, 0, 1, 2, 3, 4, 5]

    def test_multi_piece_self_aliasing_copy_reads_before_writing(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        space = mgr.create(1)
        buf = self._filled(space, 16)
        # two source pieces; the first one's destination overlaps the
        # second one's source, so every piece must be read before any
        # is written
        n = copy_iov_bytes(
            space, [(buf.addr, 4), (buf.addr + 4, 4)],
            space, [(buf.addr + 2, 8)], 8,
        )
        assert n == 8
        assert list(buf.data[:10]) == [0, 1, 0, 1, 2, 3, 4, 5, 6, 7]
        assert list(buf.data[10:]) == list(range(10, 16))

    def test_source_range_past_nbytes_still_faults(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        src = self._filled(src_space, 8, start=1)
        dst = dst_space.allocate(8)
        # the second source range is unmapped (past src's end, in the
        # guard page); nbytes covers only the first, yet it resolves
        with pytest.raises(CMAError) as exc:
            copy_iov_bytes(
                src_space, [src.iov(), (src.end, 4)], dst_space, [dst.iov()], 8
            )
        assert exc.value.errno == EFAULT
        assert not dst.data.any()  # nothing was written

    def test_destination_range_past_data_does_not_fault(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        src = self._filled(src_space, 8, start=1)
        dst = dst_space.allocate(16)
        # the data ends inside the first destination range: the rest of
        # it and the unmapped second range are never resolved
        n = copy_iov_bytes(
            src_space, [src.iov()], dst_space,
            [(dst.addr + 8, 16), (dst.end + 64, 8)], 8,
        )
        assert n == 8
        assert list(dst.data[8:]) == list(range(1, 9))
        assert not dst.data[:8].any()

    def test_matches_gather_then_scatter(self, mgr):
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        rng = np.random.default_rng(7)
        srcs = []
        for nbytes in (5, 1, 9):
            b = src_space.allocate(nbytes)
            b.fill(rng.integers(0, 256, size=nbytes, dtype=np.uint8))
            srcs.append(b)
        dsts = [dst_space.allocate(n) for n in (7, 8)]
        src_iov = [b.iov() for b in srcs]
        dst_iov = [b.iov() for b in dsts]
        expect = src_space.gather_bytes(src_iov)[:15].copy()

        n = copy_iov_bytes(src_space, src_iov, dst_space, dst_iov, 15)
        assert n == 15
        assert np.array_equal(
            np.concatenate([d.data for d in dsts]), expect
        )

    def test_gather_single_entry_returns_copy_not_alias(self, space):
        buf = space.allocate(4)
        buf.fill(np.array([9, 9, 9, 9], dtype=np.uint8))
        got = space.gather_bytes([buf.iov()])
        got[:] = 0
        assert list(buf.data) == [9, 9, 9, 9]


class TestRuns:
    """Buffers hold canonical runs; bytes exist only when materialized."""

    def test_fresh_buffer_is_one_zero_run(self, space):
        buf = space.allocate(5000)
        assert buf.runs() == [(0, 5000, ())]

    def test_copy_moves_runs_not_bytes(self, mgr):
        from repro.core.patterns import pattern, pattern_runs, phase
        from repro.kernel.address_space import copy_iov_bytes

        src_space, dst_space = mgr.create(1), mgr.create(2)
        src = src_space.allocate(3000)
        dst = dst_space.allocate(3000)
        src.write(0, pattern_runs(4, 5, 3000))
        copy_iov_bytes(src_space, [src.iov(100, 1000)], dst_space, [dst.iov(7, 1000)], 1000)
        # the copied bytes are one run: the pattern, re-phased to its new offset
        assert dst.runs() == [
            (0, 7, ()),
            (7, 1007, ((phase(4, 5) + 100 - 7) % 251,)),
            (1007, 3000, ()),
        ]
        assert np.array_equal(dst.view(7, 1000), pattern(4, 5, 1100)[100:])

    def test_adjacent_equal_runs_merge(self, space):
        from repro.core.patterns import pattern_runs

        buf = space.allocate(1000)
        whole = pattern_runs(1, 2, 1000)
        buf.write(0, whole)
        for off in (0, 250, 700):  # rewrite pieces of the same pattern
            buf.write(off, buf.read(off, 100))
        assert len(buf.runs()) == 1
        assert buf.holds(0, whole)

    def test_add_sums_phases(self, space):
        from repro.core.patterns import pattern, pattern_runs, phase

        a, b = space.allocate(600), space.allocate(600)
        a.write(0, pattern_runs(0, 0, 600))
        b.write(0, pattern_runs(1, 0, 600))
        a.add(0, b.read())
        ((start, end, value),) = a.runs()
        assert value == tuple(sorted((phase(0, 0), phase(1, 0))))
        want = pattern(0, 0, 600).astype(np.uint16) + pattern(1, 0, 600)
        assert np.array_equal(a.data, (want % 256).astype(np.uint8))

    def test_raw_bytes_are_a_read_only_run(self, space):
        buf = space.allocate(10)
        src = np.arange(4, dtype=np.uint8)
        buf.write_bytes(3, src)
        src[:] = 99  # the buffer took a copy
        (_, _, zeros), (s, e, raw), _ = buf.runs()
        assert (s, e) == (3, 7) and list(raw) == [0, 1, 2, 3]
        assert not raw.flags.writeable
        assert list(buf.data) == [0, 0, 0, 0, 1, 2, 3, 0, 0, 0]
