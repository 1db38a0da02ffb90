"""Every errno in the simulated kernel is real, raisable, and named right.

The simulated ``process_vm_readv``/``writev`` must fail with the same
errno values (and spellings) the real kernel uses.  The ``traced`` cases also check that the node's phase
counters account for every simulated microsecond the failing call (and
any set-up before it) charged.
"""

import errno as std_errno

import pytest

from repro.kernel.errors import (
    CMAError,
    EFAULT,
    EINVAL,
    ENOENT,
    EPERM,
    ESRCH,
)
from repro.machine import make_generic
from repro.mpi import Comm, Node

ALL_ERRNOS = {
    "EPERM": EPERM,
    "ENOENT": ENOENT,
    "ESRCH": ESRCH,
    "EFAULT": EFAULT,
    "EINVAL": EINVAL,
}


def test_errnos_match_the_stdlib():
    for name, value in ALL_ERRNOS.items():
        assert value == getattr(std_errno, name), name


def test_cmaerror_message_carries_the_name():
    for name, value in ALL_ERRNOS.items():
        assert f"[{name}]" in str(CMAError(value, "x")), name


def _node():
    node = Node(make_generic(sockets=1, cores_per_socket=4))
    comm = Comm(node, 2)
    return node, comm


def _run_expecting(node, comm, body, want_errno, counted=False):
    """Run ``body`` as rank 0 and assert it raises CMAError(want_errno).

    Every call in these tests runs alone, so with ``counted`` the phase
    times must add up to the clock."""

    def rank0(ctx):
        with pytest.raises(CMAError) as exc:
            yield from body(ctx)
        assert exc.value.errno == want_errno
        assert ALL_ERRNOS_BY_VALUE[want_errno] in str(exc.value)

    proc = comm.spawn_rank(0, rank0)
    node.sim.run_all([proc])
    if counted:
        charged = sum(node.phase_times().values())
        assert charged == pytest.approx(node.sim.now, rel=1e-12, abs=0.0)


ALL_ERRNOS_BY_VALUE = {v: k for k, v in ALL_ERRNOS.items()}


@pytest.mark.parametrize("counted", [False, True], ids=["fast", "traced"])
class TestSyscallErrnos:
    def test_einval_nonzero_flags(self, counted):
        node, comm = _node()
        a = comm.allocate(0, 4096)
        b = comm.allocate(1, 4096)

        def body(ctx):
            yield from node.cma.process_vm_readv(
                ctx.proc, comm.pid_of(1), [a.iov()], [b.iov()], flags=1
            )

        _run_expecting(node, comm, body, EINVAL, counted)

    def test_einval_negative_length(self, counted):
        node, comm = _node()
        a = comm.allocate(0, 4096)

        def body(ctx):
            yield from node.cma.process_vm_readv(
                ctx.proc, comm.pid_of(1), [a.iov()], [(a.addr, -8)]
            )

        _run_expecting(node, comm, body, EINVAL, counted)

    def test_einval_iov_max_exceeded(self, counted):
        from repro.kernel.cma import IOV_MAX

        node, comm = _node()
        a = comm.allocate(0, 4096)

        def body(ctx):
            yield from node.cma.process_vm_readv(
                ctx.proc, comm.pid_of(1), [a.iov()], [(a.addr, 1)] * (IOV_MAX + 1)
            )

        _run_expecting(node, comm, body, EINVAL, counted)

    def test_esrch_unknown_pid(self, counted):
        node, comm = _node()
        a = comm.allocate(0, 4096)

        def body(ctx):
            yield from node.cma.process_vm_readv(
                ctx.proc, 99_999, [a.iov()], [(a.addr, 8)]
            )

        _run_expecting(node, comm, body, ESRCH, counted)

    def test_eperm_denied_pid(self, counted):
        node, comm = _node()
        a = comm.allocate(0, 4096)
        b = comm.allocate(1, 4096)
        node.cma.denied_pids.add(comm.pid_of(1))

        def body(ctx):
            yield from node.cma.process_vm_readv(
                ctx.proc, comm.pid_of(1), [a.iov()], [b.iov()]
            )

        _run_expecting(node, comm, body, EPERM, counted)

    def test_efault_unmapped_remote(self, counted):
        node, comm = _node()
        a = comm.allocate(0, 4096)
        b = comm.allocate(1, 4096)

        def body(ctx):
            # read past the end of the peer's only buffer
            yield from node.cma.process_vm_readv(
                ctx.proc, comm.pid_of(1), [a.iov()], [(b.end + 4096, 64)]
            )

        _run_expecting(node, comm, body, EFAULT, counted)


@pytest.mark.parametrize("counted", [False, True], ids=["fast", "traced"])
class TestXpmemErrnos:
    """The mapped-window lane's errnos, from their natural triggers
    (xpmem validates *before* charging any time)."""

    def test_einval_nonpositive_segment(self, counted):
        node, comm = _node()
        a = comm.allocate(0, 4096)

        def body(ctx):
            yield from node.xpmem.make_segid(ctx.proc, a.addr, 0)

        _run_expecting(node, comm, body, EINVAL, counted)

    def test_efault_unmapped_export(self, counted):
        node, comm = _node()
        a = comm.allocate(0, 4096)

        def body(ctx):
            yield from node.xpmem.make_segid(ctx.proc, a.end + 4096, 64)

        _run_expecting(node, comm, body, EFAULT, counted)

    def test_enoent_stale_segid_on_attach(self, counted):
        node, comm = _node()

        def body(ctx):
            yield from node.xpmem.attach(ctx.proc, 0x5E60_0000)

        _run_expecting(node, comm, body, ENOENT, counted)

    def test_esrch_dead_owner_on_attach(self, counted):
        from repro.kernel.xpmem import XpmemSegment

        node, comm = _node()
        # an export whose owner's address space no longer exists
        node.xpmem._segids[0x5E60_0042] = XpmemSegment(
            0x5E60_0042, 99_999, 0x1000, 4096, 1
        )

        def body(ctx):
            yield from node.xpmem.attach(ctx.proc, 0x5E60_0042)

        _run_expecting(node, comm, body, ESRCH, counted)

    def test_eperm_denied_owner_on_attach(self, counted):
        node, comm = _node()
        b = comm.allocate(1, 4096)
        got = {}

        def owner(ctx):
            got["segid"] = yield from node.xpmem.make_segid(
                ctx.proc, b.addr, 4096
            )

        node.sim.run_all([comm.spawn_rank(1, owner)])
        node.cma.denied_pids.add(comm.pid_of(1))

        def body(ctx):
            yield from node.xpmem.attach(ctx.proc, got["segid"])

        _run_expecting(node, comm, body, EPERM, counted)

    def _exported(self, node, comm, nbytes=4 * 4096):
        """Rank 0 exports its own buffer; returns (buffer, segid)."""
        a = comm.allocate(0, nbytes)
        got = {}

        def owner(ctx):
            got["segid"] = yield from node.xpmem.make_segid(
                ctx.proc, a.addr, nbytes
            )

        node.sim.run_all([comm.spawn_rank(0, owner)])
        return a, got["segid"]

    def test_einval_copy_before_attach(self, counted):
        node, comm = _node()
        a, segid = self._exported(node, comm)

        def body(ctx):
            yield from node.xpmem.copy_from(
                ctx.proc, segid, (0, 64), (a.addr, 64)
            )

        # rank 1 never attached: the window is not mapped in its space
        def rank1(ctx):
            with pytest.raises(CMAError) as exc:
                yield from body(ctx)
            assert exc.value.errno == EINVAL

        node.sim.run_all([comm.spawn_rank(1, rank1)])

    def test_einval_negative_copy_length(self, counted):
        node, comm = _node()
        a, segid = self._exported(node, comm)

        def body(ctx):
            yield from node.xpmem.attach(ctx.proc, segid)
            yield from node.xpmem.copy_from(
                ctx.proc, segid, (0, 64), (a.addr, -8)
            )

        _run_expecting(node, comm, body, EINVAL, counted)

    def test_efault_copy_outside_window(self, counted):
        node, comm = _node()
        a, segid = self._exported(node, comm)

        def body(ctx):
            yield from node.xpmem.attach(ctx.proc, segid)
            yield from node.xpmem.copy_from(
                ctx.proc, segid, (0, 128), (a.end - 32, 128)
            )

        _run_expecting(node, comm, body, EFAULT, counted)


@pytest.mark.parametrize("cause", ["esrch", "eperm"])
def test_errno_surfaces_after_entry_and_check(cause):
    """The one error timing of ``process_vm_readv``: ESRCH and EPERM
    raise once the syscall entry and the access check have both been
    charged, at ``t0 + alpha_syscall + alpha_check``."""
    node, comm = _node()
    a = comm.allocate(0, 4096)
    b = comm.allocate(1, 4096)
    pid = comm.pid_of(1)
    if cause == "esrch":
        pid = 99_999
    elif cause == "eperm":
        node.cma.denied_pids.add(pid)
    seen = {}

    def rank0(ctx):
        seen["t0"] = node.sim.now
        try:
            yield from node.cma.process_vm_readv(
                ctx.proc, pid, [a.iov()], [b.iov()]
            )
        except CMAError as exc:
            seen["errno"] = exc.errno
            seen["t"] = node.sim.now

    node.sim.run_all([comm.spawn_rank(0, rank0)])
    p = node.params
    assert seen["errno"] == ALL_ERRNOS[cause.upper()]
    assert seen["t"] == seen["t0"] + p.alpha_syscall + p.alpha_check
    assert node.phase_times() == {
        "syscall": p.alpha_syscall, "check": p.alpha_check,
    }
