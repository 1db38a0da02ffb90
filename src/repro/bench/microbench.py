"""Kernel-level microbenchmarks: the paper's Section I/II measurements.

These run raw CMA syscalls on a simulated node (no collective algorithms)
and feed Figures 2, 3, 4, 6, Table III and — through
:mod:`repro.core.fitting` — Figure 5 and Table IV.  All of them run on the
engine's fast paths; the phase times of Fig. 4 and Fig. 5 come from the
kernel's always-on counters.
"""

from __future__ import annotations

import functools
from typing import Literal

from repro.machine.arch import Architecture
from repro.mpi.communicator import Comm, Node

__all__ = [
    "one_to_all_latency",
    "all_to_all_latency",
    "step_timing",
    "lock_pin_per_page",
    "phase_breakdown",
    "relative_throughput",
]

Pattern = Literal["same-buffer", "different-buffers"]


def _sweepable(fn):
    """Route a microbench point through the active exec context's cache.

    With no active :mod:`repro.exec` context this is a plain call; sweep
    fan-outs reach the undecorated function via ``__wrapped__``, so pool
    workers never double-consult the cache.
    """

    @functools.wraps(fn)
    def wrapper(arch, *args, **kwargs):
        from repro.exec import sweep as _sweep

        point = _sweep.microbench_point(fn.__name__, arch, args, kwargs)
        return _sweep.cached_call(
            f"microbench.{fn.__name__}", point, lambda: fn(arch, *args, **kwargs)
        )

    return wrapper


def _build(arch: Architecture, nranks: int) -> Comm:
    return Comm(Node(arch, verify=False), nranks)


@_sweepable
def one_to_all_latency(
    arch: Architecture,
    readers: int,
    nbytes: int,
    pattern: Pattern = "different-buffers",
    iters: int = 3,
) -> float:
    """Mean per-read latency with ``readers`` concurrent readers of rank 0.

    ``same-buffer`` has every reader target one region of the source
    (Fig. 2(b)); ``different-buffers`` gives each reader its own region
    (Fig. 2(c)).  The paper's point: both degrade identically, because the
    bottleneck is the source *process's* mm lock.  ``iters`` back-to-back
    reads per reader reach the steady contention state.
    """
    comm = _build(arch, readers + 1)
    if pattern == "same-buffer":
        shared = comm.allocate(0, nbytes, "src")
        srcs = [shared] * readers
    else:
        srcs = [comm.allocate(0, nbytes, f"src{i}") for i in range(readers)]
    dsts = [comm.allocate(r + 1, nbytes, "dst") for r in range(readers)]

    def reader(ctx):
        if ctx.rank == 0:
            return
        i = ctx.rank - 1
        t0 = ctx.sim.now
        for _ in range(iters):
            yield from ctx.cma_read(0, dsts[i].iov(), srcs[i].iov())
        return (ctx.sim.now - t0) / iters

    procs = comm.run_ranks(reader)
    times = [p.result for p in procs[1:]]
    return sum(times) / len(times)


@_sweepable
def all_to_all_latency(arch: Architecture, pairs: int, nbytes: int) -> float:
    """Mean read latency over ``pairs`` disjoint reader->source pairs
    (Fig. 2(a)): no lock is shared, so this should stay flat."""
    comm = _build(arch, 2 * pairs)
    srcs = [comm.allocate(i, nbytes, "src") for i in range(pairs)]
    dsts = [comm.allocate(pairs + i, nbytes, "dst") for i in range(pairs)]

    def worker(ctx):
        if ctx.rank < pairs:
            return
        i = ctx.rank - pairs
        t0 = ctx.sim.now
        yield from ctx.cma_read(i, dsts[i].iov(), srcs[i].iov())
        return ctx.sim.now - t0

    procs = comm.run_ranks(worker)
    times = [p.result for p in procs[pairs:]]
    return sum(times) / len(times)


@_sweepable
def step_timing(arch: Architecture, step: str, pages: int = 4) -> float:
    """Table III: trigger individual steps of a CMA read via iovec games.

    ``step`` is one of ``syscall`` (T1), ``check`` (T2), ``lock_pin`` (T3),
    ``copy`` (T4); each measured time includes the previous steps.
    """
    comm = _build(arch, 2)
    n = pages * arch.params.page_size
    src = comm.allocate(0, n, "src")
    dst = comm.allocate(1, n, "dst")
    configs = {
        "syscall": ([], []),
        "check": ([], [(src.addr, 0)]),
        "lock_pin": ([], [src.iov()]),
        "copy": ([dst.iov()], [src.iov()]),
    }
    try:
        liov, riov = configs[step]
    except KeyError:
        raise KeyError(f"unknown step {step!r}; known: {sorted(configs)}") from None

    def caller(ctx):
        if ctx.rank == 0:
            return
        t0 = ctx.sim.now
        yield from ctx.cma.process_vm_readv(ctx.proc, ctx.pid_of(0), liov, riov)
        return ctx.sim.now - t0

    procs = comm.run_ranks(caller)
    return procs[1].result


@_sweepable
def lock_pin_per_page(
    arch: Architecture, readers: int, pages: int, iters: int = 3
) -> float:
    """Mean lock+pin time per page with ``readers`` concurrent readers.

    This is the quantity whose ratio to the single-reader value is the
    paper's contention factor gamma (Fig. 5), the time ftrace isolates in
    ``get_user_pages``: rank 0's mm lock's ``total_wait_us +
    total_hold_us`` (see :class:`repro.sim.resources.Mutex`).
    """
    comm = _build(arch, readers + 1)
    n = pages * arch.params.page_size
    srcs = [comm.allocate(0, n, f"src{i}") for i in range(readers)]
    dsts = [comm.allocate(r + 1, n, "dst") for r in range(readers)]

    def reader(ctx):
        if ctx.rank == 0:
            return
        i = ctx.rank - 1
        for _ in range(iters):
            yield from ctx.cma_read(0, dsts[i].iov(), srcs[i].iov())

    comm.run_ranks(reader)
    mutex = comm.node.cma.mm_lock(comm.pid_of(0)).mutex
    total = mutex.total_wait_us + mutex.total_hold_us
    return total / (readers * iters * pages)


@_sweepable
def phase_breakdown(
    arch: Architecture, readers: int, pages: int
) -> dict[str, float]:
    """Fig. 4: per-phase time of one reader's CMA read under contention.

    Returns mean microseconds per call for syscall / check / lock / pin /
    copy, averaged across readers, from the node's phase counters
    (:meth:`repro.mpi.communicator.Node.phase_times`; a phase that took
    no time is absent).
    """
    comm = _build(arch, readers + 1)
    n = pages * arch.params.page_size
    srcs = [comm.allocate(0, n, f"src{i}") for i in range(readers)]
    dsts = [comm.allocate(r + 1, n, "dst") for r in range(readers)]

    def reader(ctx):
        if ctx.rank == 0:
            return
        i = ctx.rank - 1
        yield from ctx.cma_read(0, dsts[i].iov(), srcs[i].iov())

    comm.run_ranks(reader)
    totals = comm.node.phase_times()
    return {k: v / readers for k, v in totals.items()}


@_sweepable
def relative_throughput(
    arch: Architecture, readers: int, nbytes: int, iters: int = 3
) -> float:
    """Fig. 6: aggregate throughput of ``readers`` concurrent readers
    relative to a single reader: c * T(1) / T(c)."""
    t1 = one_to_all_latency(arch, 1, nbytes, iters=iters)
    tc = one_to_all_latency(arch, readers, nbytes, iters=iters)
    return readers * t1 / tc
