"""Tests for the simulated CMA syscalls: semantics, cost, and contention.

The contention tests are the heart of the reproduction: they assert that the
paper's Figure 2 phenomenology *emerges* from the mm-lock model (one-to-all
degrades super-linearly, all-to-all doesn't degrade at all).
"""

import numpy as np
import pytest

from repro.kernel import (
    AddressSpaceManager,
    CMAError,
    CMAKernel,
)
from repro.kernel.cma import IOV_MAX
from repro.kernel.errors import EINVAL, EPERM, ESRCH
from repro.machine import make_generic
from repro.sim import PinConvoy, Simulator


def make_node(nprocs=4, arch=None, verify=True, **sim_kw):
    """Minimal kernel-level test node: sim + spaces + pinned processes."""
    arch = arch or make_generic(sockets=1, cores_per_socket=max(nprocs, 2))
    sim = Simulator(**sim_kw)
    mgr = AddressSpaceManager(arch.params.page_size)
    cma = CMAKernel(sim, mgr, arch.params, verify=verify)
    procs = []

    def idle():
        return
        yield  # pragma: no cover

    for rank in range(nprocs):
        p = sim.spawn(idle(), name=f"rank{rank}")
        place = arch.placement(rank)
        p.socket, p.core = place.socket, place.core
        cma.register(p.pid)
        procs.append(p)
    sim.run()  # drain the idle spawns; now spawn real work as needed
    return sim, cma, procs, arch


def run_proc(sim, gen, proc_template):
    """Spawn a generator as a process inheriting a template's placement."""
    p = sim.spawn(gen, name=proc_template.name)
    p.pid = proc_template.pid
    p.socket = proc_template.socket
    p.core = proc_template.core
    return p


class TestSemantics:
    def test_read_moves_bytes(self):
        sim, cma, procs, arch = make_node(2)
        src = cma.manager.get(procs[0].pid).allocate(1000)
        dst = cma.manager.get(procs[1].pid).allocate(1000)
        src.fill(np.arange(1000, dtype=np.uint8) % 251)

        def reader():
            n = yield from cma.read_simple(procs[1], procs[0].pid, dst.iov(), src.iov())
            return n

        p = run_proc(sim, reader(), procs[1])
        sim.run_all([p])
        assert p.result == 1000
        assert np.array_equal(dst.data, src.data)

    def test_write_moves_bytes(self):
        sim, cma, procs, arch = make_node(2)
        local = cma.manager.get(procs[0].pid).allocate(512)
        remote = cma.manager.get(procs[1].pid).allocate(512)
        local.fill(7)

        def writer():
            n = yield from cma.write_simple(
                procs[0], procs[1].pid, local.iov(), remote.iov()
            )
            return n

        p = run_proc(sim, writer(), procs[0])
        sim.run_all([p])
        assert p.result == 512
        assert (remote.data == 7).all()

    def test_copy_is_min_of_local_and_remote(self):
        sim, cma, procs, _ = make_node(2)
        src = cma.manager.get(procs[0].pid).allocate(100)
        dst = cma.manager.get(procs[1].pid).allocate(40)
        src.fill(3)

        def reader():
            return (
                yield from cma.read_simple(procs[1], procs[0].pid, dst.iov(), src.iov())
            )

        p = run_proc(sim, reader(), procs[1])
        sim.run_all([p])
        assert p.result == 40
        assert (dst.data == 3).all()

    def test_multi_iovec_scatter_gather(self):
        sim, cma, procs, _ = make_node(2)
        sspace = cma.manager.get(procs[0].pid)
        dspace = cma.manager.get(procs[1].pid)
        s1, s2 = sspace.allocate(4), sspace.allocate(4)
        d = dspace.allocate(8)
        s1.fill(1)
        s2.fill(2)

        def reader():
            return (
                yield from cma.process_vm_readv(
                    procs[1], procs[0].pid, [d.iov()], [s1.iov(), s2.iov()]
                )
            )

        p = run_proc(sim, reader(), procs[1])
        sim.run_all([p])
        assert list(d.data) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_esrch_for_unknown_pid(self):
        sim, cma, procs, _ = make_node(2)
        d = cma.manager.get(procs[1].pid).allocate(8)

        def reader():
            yield from cma.read_simple(procs[1], 424242, d.iov(), (0x1000, 8))

        p = run_proc(sim, reader(), procs[1])
        sim.run()
        assert isinstance(p.error, CMAError) and p.error.errno == ESRCH

    def test_eperm_for_denied_pid(self):
        sim, cma, procs, _ = make_node(2)
        src = cma.manager.get(procs[0].pid).allocate(8)
        dst = cma.manager.get(procs[1].pid).allocate(8)
        cma.denied_pids.add(procs[0].pid)

        def reader():
            yield from cma.read_simple(procs[1], procs[0].pid, dst.iov(), src.iov())

        p = run_proc(sim, reader(), procs[1])
        sim.run()
        assert isinstance(p.error, CMAError) and p.error.errno == EPERM

    def test_einval_for_flags(self):
        sim, cma, procs, _ = make_node(2)
        src = cma.manager.get(procs[0].pid).allocate(8)
        dst = cma.manager.get(procs[1].pid).allocate(8)

        def reader():
            yield from cma.process_vm_readv(
                procs[1], procs[0].pid, [dst.iov()], [src.iov()], flags=1
            )

        p = run_proc(sim, reader(), procs[1])
        sim.run()
        assert isinstance(p.error, CMAError) and p.error.errno == EINVAL

    def test_einval_for_too_many_iovecs(self):
        sim, cma, procs, _ = make_node(2)
        src = cma.manager.get(procs[0].pid).allocate(8)
        dst = cma.manager.get(procs[1].pid).allocate(8)
        huge = [(src.addr, 0)] * (IOV_MAX + 1)

        def reader():
            yield from cma.process_vm_readv(procs[1], procs[0].pid, [dst.iov()], huge)

        p = run_proc(sim, reader(), procs[1])
        sim.run()
        assert isinstance(p.error, CMAError) and p.error.errno == EINVAL

    def test_fault_on_unmapped_remote(self):
        sim, cma, procs, _ = make_node(2)
        dst = cma.manager.get(procs[1].pid).allocate(8)

        def reader():
            yield from cma.read_simple(
                procs[1], procs[0].pid, dst.iov(), (0xBAD000, 8)
            )

        p = run_proc(sim, reader(), procs[1])
        sim.run()
        assert isinstance(p.error, CMAError)


class TestStepTriggering:
    """The Table III liovcnt/riovcnt games used to isolate T1..T4."""

    def _timed(self, local_iov, remote_iov, nbytes=4 * 4096):
        sim, cma, procs, arch = make_node(2)
        src = cma.manager.get(procs[0].pid).allocate(nbytes)
        dst = cma.manager.get(procs[1].pid).allocate(nbytes)
        liov = local_iov(dst)
        riov = remote_iov(src)

        def caller():
            t0 = sim.now
            yield from cma.process_vm_readv(procs[1], procs[0].pid, liov, riov)
            return sim.now - t0

        p = run_proc(sim, caller(), procs[1])
        sim.run_all([p])
        return p.result, arch.params

    def test_t1_syscall_only(self):
        t, p = self._timed(lambda d: [], lambda s: [])
        assert t == pytest.approx(p.alpha_syscall)

    def test_t2_adds_access_check(self):
        t, p = self._timed(lambda d: [], lambda s: [(s.addr, 0)])
        assert t == pytest.approx(p.alpha_syscall + p.alpha_check)

    def test_t3_adds_lock_pin_no_copy(self):
        n = 4 * 4096
        t, p = self._timed(lambda d: [], lambda s: [s.iov()], nbytes=n)
        assert t == pytest.approx(p.alpha + 4 * p.l_page)

    def test_t4_full_transfer(self):
        n = 4 * 4096
        t, p = self._timed(lambda d: [d.iov()], lambda s: [s.iov()], nbytes=n)
        assert t == pytest.approx(p.alpha + 4 * p.l_page + n * p.beta)

    def test_times_are_ordered(self):
        n = 4 * 4096
        t1, _ = self._timed(lambda d: [], lambda s: [])
        t2, _ = self._timed(lambda d: [], lambda s: [(s.addr, 0)])
        t3, _ = self._timed(lambda d: [], lambda s: [s.iov()], nbytes=n)
        t4, _ = self._timed(lambda d: [d.iov()], lambda s: [s.iov()], nbytes=n)
        assert t1 < t2 < t3 < t4


def _loop_plan(npages, ncopy, beta, pin_batch):
    """The pin loop's batch plan, built the way every call once built it."""
    batches = []
    copy = 0.0
    done_pages = 0
    done_bytes = 0
    while done_pages < npages:
        b = min(pin_batch, npages - done_pages)
        done_pages += b
        batch_bytes = ncopy * done_pages // npages - done_bytes
        done_bytes += batch_bytes
        dt = batch_bytes * beta
        copy += dt
        batches.append((b, dt))
    return batches, copy


def _tap(gen, seen):
    """Forward a syscall generator, recording every PinConvoy it yields."""
    value = None
    try:
        while True:
            cmd = gen.send(value)
            if isinstance(cmd, PinConvoy):
                seen.append(cmd)
            value = yield cmd
    except StopIteration as stop:
        return stop.value


class TestPinPlanMemo:
    """Each kernel builds a transfer shape's batch plan once and reuses it;
    the memoized plan is exactly what the per-call loop built."""

    @pytest.mark.parametrize("pin_batch", [4, 16])
    def test_memo_matches_loop(self, pin_batch):
        arch = make_generic(sockets=2, cores_per_socket=2, pin_batch=pin_batch)
        params = arch.params
        ps = params.page_size
        sim, cma, procs, _ = make_node(4, arch=arch, verify=False)
        owner = procs[0]
        same = next(p for p in procs[1:] if p.socket == owner.socket)
        other = next(p for p in procs if p.socket != owner.socket)
        space = cma.manager.get(owner.pid)
        for caller in (same, other):
            beta = params.beta
            if caller.socket != owner.socket:
                beta *= params.inter_socket_beta
            for npages in (1, 15, 16, 17, 100, 257):
                span = npages * ps
                remote = space.allocate(span)
                spans = {0, 1, ps + 1, span // 2, span - 1, span}
                for ncopy in sorted(n for n in spans if n <= span):
                    local = []
                    if ncopy:
                        buf = cma.manager.get(caller.pid).allocate(ncopy)
                        local = [buf.iov()]
                    before = cma.copy_us

                    def reader():
                        return (yield from cma.process_vm_readv(
                            caller, owner.pid, local, [remote.iov()]
                        ))

                    p = run_proc(sim, reader(), caller)
                    sim.run_all([p])
                    assert p.result == ncopy
                    want, want_copy = _loop_plan(npages, ncopy, beta, pin_batch)
                    batches, copy = cma._plans[(npages, ncopy, beta)]
                    assert type(batches) is tuple
                    assert list(batches) == want  # floats compared with ==
                    assert copy == want_copy
                    assert cma.copy_us == before + want_copy
        cma.reset()
        assert cma._plans == {}

    def test_concurrent_readers_share_one_plan(self):
        sim, cma, procs, _ = make_node(6, verify=False)
        nbytes = 40 * 4096
        bufs = {p.pid: cma.manager.get(p.pid).allocate(nbytes) for p in procs}
        seen = []
        # three readers on rank 0's mm lock, two on rank 1's
        pairs = [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1)]

        def reader(me, owner):
            return (yield from _tap(
                cma.read_simple(me, owner.pid, bufs[me.pid].iov(),
                                bufs[owner.pid].iov()),
                seen,
            ))

        ps = [run_proc(sim, reader(procs[r], procs[o]), procs[r])
              for r, o in pairs]
        sim.run_all(ps)
        assert [p.result for p in ps] == [nbytes] * len(pairs)
        assert len(seen) == len(pairs)
        assert len(cma._plans) == 1
        (plan,) = cma._plans.values()
        assert all(cmd.batches is plan[0] for cmd in seen)


def one_to_all_latency(readers, nbytes, arch=None, same_buffer=True):
    """All `readers` concurrently read `nbytes` from rank 0 (Fig 2(b)/(c))."""
    arch = arch or make_generic(sockets=1, cores_per_socket=max(readers + 1, 2))
    sim, cma, procs, _ = make_node(readers + 1, arch=arch, verify=False)
    src_space = cma.manager.get(procs[0].pid)
    if same_buffer:
        shared = src_space.allocate(nbytes)
        srcs = [shared] * readers
    else:
        srcs = [src_space.allocate(nbytes) for _ in range(readers)]
    workers = []
    for i in range(readers):
        dst = cma.manager.get(procs[i + 1].pid).allocate(nbytes)

        def reader(i=i, dst=dst):
            t0 = sim.now
            yield from cma.read_simple(
                procs[i + 1], procs[0].pid, dst.iov(), srcs[i].iov()
            )
            return sim.now - t0

        workers.append(run_proc(sim, reader(), procs[i + 1]))
    sim.run_all(workers)
    return max(w.result for w in workers)


def all_to_all_latency(pairs, nbytes):
    """Disjoint reader->source pairs (Fig 2(a)): no shared lock."""
    arch = make_generic(sockets=1, cores_per_socket=max(2 * pairs, 2))
    sim, cma, procs, _ = make_node(2 * pairs, arch=arch, verify=False)
    workers = []
    for i in range(pairs):
        src = cma.manager.get(procs[i].pid).allocate(nbytes)
        dst = cma.manager.get(procs[pairs + i].pid).allocate(nbytes)

        def reader(i=i, src=src, dst=dst):
            t0 = sim.now
            yield from cma.read_simple(
                procs[pairs + i], procs[i].pid, dst.iov(), src.iov()
            )
            return sim.now - t0

        workers.append(run_proc(sim, reader(), procs[pairs + i]))
    sim.run_all(workers)
    return max(w.result for w in workers)


class TestContention:
    def test_one_to_all_degrades_with_readers(self):
        n = 64 * 1024
        t1 = one_to_all_latency(1, n)
        t8 = one_to_all_latency(8, n)
        t32 = one_to_all_latency(32, n)
        assert t8 > 2 * t1
        assert t32 > 2 * t8

    def test_degradation_is_superlinear(self):
        """Emergent gamma: per-reader lock+pin cost grows *faster* than c
        (queueing alone would give exactly c; cache bouncing pushes past it)."""
        n = 256 * 1024

        def per_reader_lock_pin(readers):
            arch = make_generic(sockets=1, cores_per_socket=max(readers + 1, 2))
            sim, cma, procs, _ = make_node(readers + 1, arch=arch, verify=False)
            src = cma.manager.get(procs[0].pid).allocate(n)
            workers = []
            for i in range(readers):
                dst = cma.manager.get(procs[i + 1].pid).allocate(n)

                def reader(i=i, dst=dst):
                    yield from cma.read_simple(
                        procs[i + 1], procs[0].pid, dst.iov(), src.iov()
                    )

                workers.append(run_proc(sim, reader(), procs[i + 1]))
            sim.run_all(workers)
            ph = cma.phase_times()
            return (ph["lock"] + ph["pin"]) / readers

        r1 = per_reader_lock_pin(1)
        r16 = per_reader_lock_pin(16)
        assert r16 > 10 * r1  # strictly worse than linear-in-c queueing

    def test_same_vs_different_buffer_both_degrade(self):
        """Fig 2(b) vs 2(c): the bottleneck is the source *process*, not the
        buffer — different target buffers contend just the same."""
        n = 128 * 1024
        same = one_to_all_latency(16, n, same_buffer=True)
        diff = one_to_all_latency(16, n, same_buffer=False)
        assert diff == pytest.approx(same, rel=0.05)

    def test_all_to_all_does_not_degrade(self):
        """Fig 2(a): disjoint pairs scale flat."""
        n = 128 * 1024
        t1 = all_to_all_latency(1, n)
        t8 = all_to_all_latency(8, n)
        assert t8 == pytest.approx(t1, rel=0.05)

    def test_inter_socket_contention_worse(self):
        n = 128 * 1024
        one_socket = make_generic(sockets=1, cores_per_socket=16)
        two_socket = make_generic(sockets=2, cores_per_socket=8)
        t_intra = one_to_all_latency(12, n, arch=one_socket)
        t_inter = one_to_all_latency(12, n, arch=two_socket)
        assert t_inter > t_intra


class TestTracing:
    def test_breakdown_phases_recorded(self):
        arch = make_generic(sockets=1, cores_per_socket=4)
        sim, cma, procs, _ = make_node(2, arch=arch)
        src = cma.manager.get(procs[0].pid).allocate(8 * 4096)
        dst = cma.manager.get(procs[1].pid).allocate(8 * 4096)

        def reader():
            yield from cma.read_simple(procs[1], procs[0].pid, dst.iov(), src.iov())

        p = run_proc(sim, reader(), procs[1])
        sim.run_all([p])
        phases = cma.phase_times()
        assert phases["syscall"] == arch.params.alpha_syscall
        assert phases["check"] == arch.params.alpha_check
        assert phases["copy"] == pytest.approx(8 * 4096 * arch.params.beta)
        assert phases["pin"] == pytest.approx(8 * arch.params.l_page)
        assert phases["lock"] == 0.0  # uncontended: no waiting
        assert phases["fault"] == 0.0  # no mapped-window fault-ins

    def test_lock_phase_grows_with_contention(self):
        arch = make_generic(sockets=1, cores_per_socket=16)
        n = 32 * 4096
        times = {}
        for readers in (1, 8):
            sim, cma, procs, _ = make_node(readers + 1, arch=arch, verify=False)
            src = cma.manager.get(procs[0].pid).allocate(n)
            workers = []
            for i in range(readers):
                dst = cma.manager.get(procs[i + 1].pid).allocate(n)

                def reader(i=i, dst=dst):
                    yield from cma.read_simple(
                        procs[i + 1], procs[0].pid, dst.iov(), src.iov()
                    )

                workers.append(run_proc(sim, reader(), procs[i + 1]))
            sim.run_all(workers)
            times[readers] = cma.phase_times()["lock"] / readers
        assert times[8] > 5 * max(times[1], 1e-9)


class TestKnemLimic:
    def test_knem_cookie_roundtrip(self):
        from repro.kernel.knem import KnemKernel

        sim, cma, procs, _ = make_node(2)
        knem = KnemKernel(cma)
        src = cma.manager.get(procs[0].pid).allocate(64)
        dst = cma.manager.get(procs[1].pid).allocate(64)
        src.fill(5)
        state = {}

        def owner():
            state["cookie"] = yield from knem.declare_region(
                procs[0], src.addr, src.nbytes
            )

        def peer():
            while "cookie" not in state:
                from repro.sim import Delay

                yield Delay(0.5)
            n = yield from knem.inline_copy_from(procs[1], state["cookie"], dst.iov())
            return n

        po = run_proc(sim, owner(), procs[0])
        pp = run_proc(sim, peer(), procs[1])
        sim.run_all([po, pp])
        assert pp.result == 64
        assert (dst.data == 5).all()

    def test_knem_unknown_cookie(self):
        from repro.kernel.knem import KnemKernel

        sim, cma, procs, _ = make_node(2)
        knem = KnemKernel(cma)
        dst = cma.manager.get(procs[1].pid).allocate(8)

        def peer():
            yield from knem.inline_copy_from(procs[1], 0xFFFF, dst.iov())

        p = run_proc(sim, peer(), procs[1])
        sim.run()
        assert isinstance(p.error, CMAError) and p.error.errno == EINVAL

    def test_limic_descriptor_roundtrip(self):
        from repro.kernel.limic import LimicKernel

        sim, cma, procs, _ = make_node(2)
        limic = LimicKernel(cma)
        src = cma.manager.get(procs[0].pid).allocate(32)
        dst = cma.manager.get(procs[1].pid).allocate(32)
        src.fill(9)
        state = {}

        def owner():
            state["tx"] = yield from limic.tx_init(procs[0], src.addr, src.nbytes)

        def peer():
            from repro.sim import Delay

            while "tx" not in state:
                yield Delay(0.5)
            return (yield from limic.tx_copy_from(procs[1], state["tx"], dst.iov()))

        po = run_proc(sim, owner(), procs[0])
        pp = run_proc(sim, peer(), procs[1])
        sim.run_all([po, pp])
        assert pp.result == 32
        assert (dst.data == 9).all()

    def test_limic_window_bounds(self):
        from repro.kernel.limic import LimicKernel

        sim, cma, procs, _ = make_node(2)
        limic = LimicKernel(cma)
        src = cma.manager.get(procs[0].pid).allocate(16)
        dst = cma.manager.get(procs[1].pid).allocate(32)
        state = {}

        def owner():
            state["tx"] = yield from limic.tx_init(procs[0], src.addr, 16)

        def peer():
            from repro.sim import Delay

            while "tx" not in state:
                yield Delay(0.5)
            yield from limic.tx_copy_from(procs[1], state["tx"], dst.iov())

        po = run_proc(sim, owner(), procs[0])
        pp = run_proc(sim, peer(), procs[1])
        sim.run()
        assert isinstance(pp.error, CMAError)
