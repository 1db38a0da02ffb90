"""Tests for the shared-memory transport and control-plane collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import AddressSpaceManager
from repro.machine import make_generic
from repro.shm import ShmTransport, sm_allgather, sm_barrier, sm_bcast, sm_gather
from repro.sim import Simulator


def make_shm(nranks, verify=True):
    sim = Simulator()
    params = make_generic(sockets=1, cores_per_socket=max(nranks, 2)).params
    return sim, ShmTransport(sim, params, nranks, verify=verify)


def buffers(*contents):
    """One buffer per array, holding its bytes; returned as (buffer, 0)
    pairs, the shape the data plane reads and writes."""
    space = AddressSpaceManager(page_size=4096).create(pid=1)
    out = []
    for data in contents:
        buf = space.allocate(len(data))
        buf.write_bytes(0, data)
        out.append((buf, 0))
    return out


def run_ranks(sim, gens):
    procs = [sim.spawn(g, name=f"r{i}") for i, g in enumerate(gens)]
    sim.run_all(procs)
    return [p.result for p in procs]


class TestCtrl:
    def test_ctrl_roundtrip(self):
        sim, shm = make_shm(2)

        def sender():
            yield shm.ctrl_send(0, 1, "addr", payload=0xBEEF)

        def receiver():
            msg = yield shm.ctrl_recv(1, src=0, tag="addr")
            return msg.payload

        results = run_ranks(sim, [sender(), receiver()])
        assert results[1] == 0xBEEF
        assert shm.ctrl_messages == 1

    def test_ctrl_latency_accounted(self):
        sim, shm = make_shm(2)

        def sender():
            yield shm.ctrl_send(0, 1, "t")

        def receiver():
            yield shm.ctrl_recv(1, src=0, tag="t")
            return sim.now

        results = run_ranks(sim, [sender(), receiver()])
        assert results[1] == pytest.approx(shm.params.t_ctrl)


class TestDataPath:
    def test_data_bytes_arrive(self):
        sim, shm = make_shm(2)
        n = 50_000
        data = (np.arange(n) % 251).astype(np.uint8)
        src, dst = buffers(data, np.zeros(n, dtype=np.uint8))

        def sender():
            return (yield from shm.send_data(0, 1, "d", src, n))

        def receiver():
            return (yield from shm.recv_data(1, 0, "d", dst, n))

        sent, got = run_ranks(sim, [sender(), receiver()])
        assert sent == got == n
        assert np.array_equal(dst[0].data, data)

    def test_small_message_single_chunk(self):
        sim, shm = make_shm(2)
        src, dst = buffers(np.full(100, 3), np.zeros(100))

        def sender():
            yield from shm.send_data(0, 1, "d", src, 100)

        def receiver():
            yield from shm.recv_data(1, 0, "d", dst, 100)
            return sim.now

        _, t = run_ranks(sim, [sender(), receiver()])
        p = shm.params
        # two copies of 100 bytes plus two chunk overheads
        assert t == pytest.approx(2 * (100 * p.shm_beta + p.shm_chunk_overhead))

    def test_two_copy_cost_is_paid_in_full(self):
        """Large shm transfers cost ~2x one copy (no copy-in/out overlap)."""
        sim, shm = make_shm(2)
        n = 1 << 20

        def sender():
            yield from shm.send_data(0, 1, "d", None, n)

        def receiver():
            yield from shm.recv_data(1, 0, "d", None, n)
            return sim.now

        _, t = run_ranks(sim, [sender(), receiver()])
        p = shm.params
        nchunks = n / p.shm_chunk
        two_full_copies = 2 * (n * p.shm_beta + nchunks * p.shm_chunk_overhead)
        assert t == pytest.approx(two_full_copies, rel=0.02)

    def test_timing_only_mode_moves_no_bytes(self):
        sim, shm = make_shm(2, verify=False)
        src, dst = buffers(np.full(100, 9), np.zeros(100))

        def sender():
            yield from shm.send_data(0, 1, "d", src, 100)

        def receiver():
            yield from shm.recv_data(1, 0, "d", dst, 100)

        run_ranks(sim, [sender(), receiver()])
        assert not dst[0].data.any()

    def test_concurrent_transfers_distinct_tags(self):
        sim, shm = make_shm(3)
        n = 20_000
        a, b, da, db = buffers(
            np.full(n, 1), np.full(n, 2), np.zeros(n), np.zeros(n)
        )

        def s0():
            yield from shm.send_data(0, 2, "a", a, n)

        def s1():
            yield from shm.send_data(1, 2, "b", b, n)

        def r():
            yield from shm.recv_data(2, 0, "a", da, n)
            yield from shm.recv_data(2, 1, "b", db, n)

        run_ranks(sim, [s0(), s1(), r()])
        assert (da[0].data == 1).all() and (db[0].data == 2).all()


class TestSmCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 13, 16])
    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast_delivers_to_all(self, size, root):
        if root >= size:
            pytest.skip("root out of range")
        sim, shm = make_shm(size)

        def rank(r):
            val = "addr-table" if r == root else None
            got = yield from sm_bcast(shm, r, size, op=1, payload=val, root=root)
            return got

        results = run_ranks(sim, [rank(r) for r in range(size)])
        assert all(v == "addr-table" for v in results)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 12, 16])
    @pytest.mark.parametrize("root", [0, 2])
    def test_gather_collects_everything(self, size, root):
        if root >= size:
            pytest.skip("root out of range")
        sim, shm = make_shm(size)

        def rank(r):
            return (
                yield from sm_gather(shm, r, size, op=2, value=r * 10, root=root)
            )

        results = run_ranks(sim, [rank(r) for r in range(size)])
        assert results[root] == {r: r * 10 for r in range(size)}
        assert all(results[r] is None for r in range(size) if r != root)

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 9, 16])
    def test_allgather(self, size):
        sim, shm = make_shm(size)

        def rank(r):
            return (yield from sm_allgather(shm, r, size, op=3, value=r))

        results = run_ranks(sim, [rank(r) for r in range(size)])
        expected = {r: r for r in range(size)}
        assert all(res == expected for res in results)

    @pytest.mark.parametrize("size", [2, 3, 5, 8, 16])
    def test_barrier_synchronizes(self, size):
        sim, shm = make_shm(size)
        from repro.sim import Delay

        after = []

        def rank(r):
            yield Delay(float(r))  # skewed arrival
            yield from sm_barrier(shm, r, size, op=4)
            after.append(sim.now)

        run_ranks(sim, [rank(r) for r in range(size)])
        # nobody exits the barrier before the last arrival
        assert min(after) >= size - 1

    def test_consecutive_ops_do_not_collide(self):
        size = 4
        sim, shm = make_shm(size)

        def rank(r):
            a = yield from sm_bcast(shm, r, size, op=10, payload="A" if r == 0 else None)
            b = yield from sm_bcast(shm, r, size, op=11, payload="B" if r == 0 else None)
            return (a, b)

        results = run_ranks(sim, [rank(r) for r in range(size)])
        assert all(res == ("A", "B") for res in results)

    def test_bcast_cost_is_logarithmic(self):
        def bcast_time(size):
            sim, shm = make_shm(size)

            def rank(r):
                yield from sm_bcast(shm, r, size, op=1, payload=0 if r == 0 else None)
                return sim.now

            return max(run_ranks(sim, [rank(r) for r in range(size)]))

        t8, t64 = bcast_time(8), bcast_time(64)
        # doubling rounds (3 -> 6), not 8x cost
        assert t64 < 3 * t8


@settings(max_examples=30, deadline=None)
@given(size=st.integers(min_value=1, max_value=24), root=st.integers(min_value=0, max_value=23))
def test_property_bcast_any_size_any_root(size, root):
    root %= size
    sim, shm = make_shm(size)

    def rank(r):
        return (
            yield from sm_bcast(
                shm, r, size, op=9, payload=("x", root) if r == root else None, root=root
            )
        )

    results = run_ranks(sim, [rank(r) for r in range(size)])
    assert all(v == ("x", root) for v in results)


@settings(max_examples=30, deadline=None)
@given(size=st.integers(min_value=1, max_value=24), root=st.integers(min_value=0, max_value=23))
def test_property_gather_any_size_any_root(size, root):
    root %= size
    sim, shm = make_shm(size)

    def rank(r):
        return (yield from sm_gather(shm, r, size, op=9, value=r ** 2, root=root))

    results = run_ranks(sim, [rank(r) for r in range(size)])
    assert results[root] == {r: r ** 2 for r in range(size)}
