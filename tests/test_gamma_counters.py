"""gamma is calibrated from always-on mm-lock counters.

``microbench.lock_pin_per_page`` reads ``total_wait_us + total_hold_us``
off rank 0's mm lock, where the readers' pin loops ride the convoy fast
path (collapsed convoys included).  These tests hold that number equal
with ``==``, on every grid the artifacts measure, to

* the unfused reference path's counters (``Simulator(use_pin_convoy=
  False)``, one Acquire/HoldRelease pair per batch), and
* the traced 'lock' + 'pin' span total recorded before the span tracer was
  removed (``lock_pin_spans`` in ``tests/golden/phase_counters.json``),
  the paper's measurement as ftrace isolates ``get_user_pages``;

and the whole Table-IV fit equal, field for field, to the fit of the
recorded span totals.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import microbench
from repro.core import fitting
from repro.machine.arch import get_arch
from repro.mpi.communicator import Comm, Node
from repro.sim import Simulator

ARCHS = ("knl", "broadwell", "power8")

#: traced lock+pin per page, keyed ``variant/readers/pages``
SPANS = json.loads(
    (Path(__file__).parent / "golden" / "phase_counters.json").read_text()
)["lock_pin_spans"]


def _lock_pin(arch, readers, pages, iters=3, sim_kw=None):
    """The lock_pin_per_page workload, on the engine mode ``sim_kw``."""
    node = Node(arch, verify=False, sim=Simulator(**(sim_kw or {})))
    comm = Comm(node, readers + 1)
    mm = node.cma.mm_lock(comm.pid_of(0))
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
    total = mm.mutex.total_wait_us + mm.mutex.total_hold_us
    return total / (readers * iters * pages), node.sim


def _unfused_lock_pin_per_page(arch, readers, pages):
    return _lock_pin(arch, readers, pages, sim_kw={"use_pin_convoy": False})[0]


def _default_readers(arch):
    # measure_gamma's default reader axis
    top = min(arch.default_procs - 1, 64)
    return sorted(
        {1, 2, 4} | {c for c in (8, 12, 16, 24, 32, 48, 64) if c <= top} | {top}
    )


def _assert_counter_equals_spans(arch, points, variant=None):
    variant = variant or arch.name
    for readers, pages in points:
        got = microbench.lock_pin_per_page.__wrapped__(arch, readers, pages)
        ref = _unfused_lock_pin_per_page(arch, readers, pages)
        span = SPANS[f"{variant}/{readers}/{pages}"]
        assert got == ref == span, (variant, readers, pages, got, ref, span)


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
    _assert_counter_equals_spans(
        arch, [(c, 32) for c in (1, 4, 16, 32, 63)],
        "knl" if bounce else "knl-nobounce",
    )


@pytest.mark.parametrize("pin_batch", [1, 4, 16, 64])
def test_pin_batch_sweep_matches_spans(pin_batch):
    """ablation_batch's batch sizes: one-page batches make every read a
    long convoy of single-page holds."""
    base = get_arch("knl")
    arch = replace(base, params=base.params.with_updates(pin_batch=pin_batch))
    _assert_counter_equals_spans(
        arch, [(1, 64), (16, 64)], f"knl-batch{pin_batch}"
    )


def test_counter_path_runs_untraced_and_collapses():
    """The speed claim: one reader's pin loops collapse into folded
    convoys instead of running the per-batch loop."""
    _, sim = _lock_pin(get_arch("knl"), 1, 100)
    assert sim.convoys_collapsed == 3


@pytest.mark.parametrize("name", ARCHS)
def test_fit_architecture_matches_traced_fit(name, monkeypatch):
    """The Table-IV fit from the counters equals the fit of the recorded
    span totals."""
    arch = get_arch(name)
    monkeypatch.setattr(fitting, "_FITS", {})
    got = fitting.fit_architecture(arch)
    calls = []

    def traced(arch, readers, pages, iters=3):
        assert iters == 3
        calls.append((readers, pages))
        return SPANS[f"{arch.name}/{readers}/{pages}"]

    monkeypatch.setattr(fitting, "_FITS", {})
    monkeypatch.setattr(microbench, "lock_pin_per_page", traced)
    ref = fitting.fit_architecture(arch)
    assert len(calls) == 3 * len(_default_readers(arch))
    assert got.arch_name == ref.arch_name
    assert got.base == ref.base
    assert got.samples == ref.samples
    assert got.gamma == ref.gamma
