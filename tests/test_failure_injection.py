"""Failure injection: the machinery must fail loudly, never silently.

Covers: permission denial mid-collective, protocol bugs surfacing as
deadlocks, data corruption surfacing as verification errors, and runaway
simulations hitting the event guard.
"""

import pytest

from repro.core.patterns import VerificationError, pattern
from repro.core.runner import CollectiveSpec, run_collective
from repro.kernel import CMAError
from repro.machine import make_generic
from repro.mpi import Comm, Node
from repro.sim import DeadlockError, Delay


def small_arch(p=6):
    return make_generic(sockets=1, cores_per_socket=max(p, 2))


class TestPermissionDenial:
    def test_denied_pid_fails_the_collective(self):
        """A rank whose memory cannot be attached (ptrace denial) aborts
        the whole operation with EPERM, like a real job would."""
        arch = small_arch()
        node = Node(arch)
        comm = Comm(node, 4)
        node.cma.denied_pids.add(comm.pid_of(0))  # root unreadable
        from repro.core import patterns as pat

        class FakeSpec:
            collective, algorithm = "scatter", "parallel_read"
            procs, eta, root, in_place = 4, 4096, 0, False

        sendbufs, recvbufs = pat.setup_buffers(comm, FakeSpec)
        from repro.core.registry import get_algorithm

        fn = get_algorithm("scatter", "parallel_read").make()
        procs = [
            comm.spawn_rank(
                r, fn, root=0, eta=4096,
                sendbuf=sendbufs[r], recvbuf=recvbufs[r], in_place=False,
            )
            for r in range(4)
        ]
        with pytest.raises(CMAError):
            node.sim.run_all(procs)


class TestProtocolBugs:
    def test_missing_notification_is_a_deadlock(self):
        """A collective that waits for a token nobody sends must surface as
        DeadlockError, not hang or silently pass."""
        arch = small_arch()
        node = Node(arch)
        comm = Comm(node, 2)

        def broken(ctx):
            if ctx.rank == 0:
                yield ctx.ctrl_recv(1, "never-sent")
            else:
                yield Delay(1.0)

        procs = [comm.spawn_rank(r, broken) for r in range(2)]
        with pytest.raises(DeadlockError):
            node.sim.run_all(procs)

    def test_mismatched_collective_order_deadlocks(self):
        """Ranks calling control collectives in different orders deadlock
        (the op-counter discipline these algorithms rely on)."""
        arch = small_arch()
        node = Node(arch)
        comm = Comm(node, 2)

        def skewed(ctx):
            if ctx.rank == 0:
                yield from ctx.sm_bcast(("op", 1), payload="x", root=0)
            else:
                yield from ctx.sm_bcast(("op", 2), payload=None, root=0)

        procs = [comm.spawn_rank(r, skewed) for r in range(2)]
        with pytest.raises(DeadlockError):
            node.sim.run_all(procs)


class TestVerificationCatchesCorruption:
    def test_wrong_offset_detected(self):
        """An algorithm that reads the wrong block fails verification."""
        arch = small_arch()
        node = Node(arch)
        comm = Comm(node, 3)
        from repro.core import patterns as pat

        class Spec:
            collective, algorithm = "scatter", "buggy"
            procs, eta, root, in_place = 3, 1000, 0, False

        sendbufs, recvbufs = pat.setup_buffers(comm, Spec)

        def buggy(ctx):
            # everyone reads block 0 instead of their own block
            op = ctx.next_op()
            payload = ctx.sendbuf.addr if ctx.is_root else None
            addr = yield from ctx.sm_bcast(("b", op), payload, root=0)
            if not ctx.is_root:
                yield from ctx.cma_read(0, ctx.recvbuf.iov(0, 1000), (addr, 1000))
            yield from ctx.sm_gather(("bf", op), value=True, root=0)
            if ctx.is_root:
                yield from ctx.memcpy(ctx.recvbuf, 0, ctx.sendbuf, 0, 1000)

        procs = [
            comm.spawn_rank(
                r, buggy, root=0, eta=1000,
                sendbuf=sendbufs[r], recvbuf=recvbufs[r],
            )
            for r in range(3)
        ]
        node.sim.run_all(procs)
        with pytest.raises(VerificationError):
            pat.verify_buffers(comm, Spec, sendbufs, recvbufs)

    def test_verification_error_is_specific(self):
        arch = small_arch()
        node = Node(arch)
        comm = Comm(node, 2)
        buf = comm.allocate(0, 16)
        buf.fill(pattern(0, 0, 16))
        buf.write_bytes(3, [buf.view(3, 1)[0] + 1])  # flip one byte
        from repro.core import patterns as pat

        class Spec:
            collective, algorithm = "bcast", "x"
            procs, eta, root, in_place = 2, 16, 0, False

        with pytest.raises(VerificationError, match="byte 3"):
            pat.verify_buffers(comm, Spec, [None, None], [buf, buf])


class TestRunawayGuard:
    def test_spec_runs_have_bounded_events(self):
        """Normal collectives stay far under the runaway guard."""
        res = run_collective(
            CollectiveSpec("bcast", "knomial", small_arch(), procs=6, eta=4096,
                           params={"k": 2})
        )
        assert res.sim_events < 100_000
