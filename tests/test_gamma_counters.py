"""gamma is calibrated from always-on mm-lock counters, not trace spans.

``microbench.lock_pin_per_page`` reads ``total_wait_us + total_hold_us``
off rank 0's mm lock on an untraced node, where the readers' pin loops
ride the convoy fast path (collapsed convoys included).  The paper's
measurement is the traced 'lock' + 'pin' span total, as ftrace isolates
``get_user_pages`` time.  These tests hold the two equal with ``==`` on
every grid the artifacts measure, and the whole Table-IV fit equal field
for field.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench import microbench
from repro.core import fitting
from repro.machine.arch import get_arch
from repro.mpi.communicator import Comm, Node

ARCHS = ("knl", "broadwell", "power8")


def _lock_pin(arch, readers, pages, iters=3, trace=False, hold_scale=1.0):
    """The lock_pin_per_page workload; traced, it sums the span total
    (the measurement as it was before the counters existed)."""
    comm = Comm(Node(arch, verify=False, trace=trace), readers + 1)
    mm = comm.node.cma.mm_lock(comm.pid_of(0))
    mm.hold_scale = hold_scale
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
    if trace:
        ph = comm.node.tracer.total_by_phase()
        total = ph.get("lock", 0.0) + ph.get("pin", 0.0)
    else:
        total = mm.mutex.total_wait_us + mm.mutex.total_hold_us
    return total / (readers * iters * pages), comm.node.sim


def _traced_lock_pin_per_page(arch, readers, pages, iters=3):
    return _lock_pin(arch, readers, pages, iters, trace=True)[0]


def _default_readers(arch):
    # measure_gamma's default reader axis
    top = min(arch.default_procs - 1, 64)
    return sorted(
        {1, 2, 4} | {c for c in (8, 12, 16, 24, 32, 48, 64) if c <= top} | {top}
    )


def _assert_counter_equals_spans(arch, points):
    for readers, pages in points:
        got = microbench.lock_pin_per_page.__wrapped__(arch, readers, pages)
        ref = _traced_lock_pin_per_page(arch, readers, pages)
        assert got == ref, (arch.name, readers, pages, got, ref)


@pytest.mark.parametrize("name", ARCHS)
def test_default_calibration_grid_matches_spans(name):
    arch = get_arch(name)
    points = [(c, p) for p in (10, 50, 100) for c in _default_readers(arch)]
    _assert_counter_equals_spans(arch, points)


@pytest.mark.parametrize("name", ARCHS)
def test_tab04_grid_matches_spans(name):
    arch = get_arch(name)
    top = min(arch.default_procs - 1, 32)
    readers = sorted({1, 2, 4, 8, 16, top})  # tab04's quick reader axis
    _assert_counter_equals_spans(arch, [(c, p) for p in (10, 50) for c in readers])


@pytest.mark.parametrize("bounce", [True, False], ids=["bounce", "no-bounce"])
def test_ablation_bounce_points_match_spans(bounce):
    arch = get_arch("knl")
    if not bounce:
        arch = replace(
            arch,
            params=arch.params.with_updates(kappa_intra=0.0, kappa_inter=0.0),
        )
    _assert_counter_equals_spans(arch, [(c, 32) for c in (1, 4, 16, 32, 63)])


@pytest.mark.parametrize("pin_batch", [1, 4, 16, 64])
def test_pin_batch_sweep_matches_spans(pin_batch):
    """ablation_batch's batch sizes: one-page batches make every read a
    long convoy of single-page holds."""
    base = get_arch("knl")
    arch = replace(base, params=base.params.with_updates(pin_batch=pin_batch))
    _assert_counter_equals_spans(arch, [(1, 64), (16, 64)])


def test_straggler_owner_matches_spans():
    """A slow owner scales every hold (``MMLock.hold_scale``)."""
    arch = get_arch("broadwell")
    for readers in (1, 6):
        got, sim = _lock_pin(arch, readers, 50, hold_scale=1.7)
        ref, _ = _lock_pin(arch, readers, 50, trace=True, hold_scale=1.7)
        assert got == ref
        plain, _ = _lock_pin(arch, readers, 50)
        assert got != plain


def test_counter_path_runs_untraced_and_collapses():
    """The speed claim: one reader's pin loops collapse into folded
    convoys instead of running the traced per-batch loop."""
    _, sim = _lock_pin(get_arch("knl"), 1, 100)
    assert sim.convoys_collapsed == 3


@pytest.mark.parametrize("name", ARCHS)
def test_fit_architecture_matches_traced_fit(name, monkeypatch):
    arch = get_arch(name)
    monkeypatch.setattr(fitting, "_FITS", {})
    got = fitting.fit_architecture(arch)
    calls = []

    def traced(arch, readers, pages, iters=3):
        calls.append((readers, pages))
        return _traced_lock_pin_per_page(arch, readers, pages, iters)

    monkeypatch.setattr(fitting, "_FITS", {})
    monkeypatch.setattr(microbench, "lock_pin_per_page", traced)
    ref = fitting.fit_architecture(arch)
    assert len(calls) == 3 * len(_default_readers(arch))
    assert got.arch_name == ref.arch_name
    assert got.base == ref.base
    assert got.samples == ref.samples
    assert got.gamma == ref.gamma
