"""Scheduler-pool lifecycle: no leaked workers, graceful mid-flight breakage.

Two failure paths through a pooled :func:`repro.exec.sweep.sweep` must
neither leak worker processes nor lose results:

* ``fn`` raising — the error reaches the caller, and the context's pool
  is still shut down on exit (workers reaped, not orphaned);
* workers dying mid-sweep until the respawn budget runs out — the broken
  pool is torn down and the missing points are recomputed inline, so the
  sweep returns exactly what a serial run would, in order.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.exec import ExecContext, use_context
from repro.exec.sched import StickyPool
from repro.exec.sweep import sweep

_PARENT_ENV = "_REPRO_TEST_PARENT_PID"


def _double(x):
    return x * 2


def _ignore_sigterm_and_sleep(x):
    """Make the hosting worker unkillable by SIGTERM, then park it, so
    only StickyPool.close()'s SIGKILL escalation can reap it."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)
    return x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom at 3")
    return x


def _die_in_worker(x):
    # Only the pool's worker processes self-destruct; the inline salvage
    # runs this in the parent (whose pid matches the env marker) and
    # computes normally.
    if os.getpid() != int(os.environ.get(_PARENT_ENV, "-1")):
        os._exit(1)
    return x * 10


def _assert_no_new_children(before, deadline_s=10.0):
    """Workers from a shut-down pool must be reaped, not orphaned."""
    deadline = time.monotonic() + deadline_s
    while True:
        leftover = [p for p in multiprocessing.active_children()
                    if p.pid not in before]
        if not leftover:
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"stray pool workers survived: {leftover}")
        time.sleep(0.05)


def _live_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _pooled_context(**pool_kwargs):
    """A two-worker context on an explicit pool (a one-usable-CPU host
    would otherwise run the scheduler inline and start no workers)."""
    try:
        pool = StickyPool(2, **pool_kwargs)
    except Exception as exc:  # pragma: no cover - fork-restricted hosts
        pytest.skip(f"cannot start scheduler workers: {exc}")
    ctx = ExecContext(workers=2)
    ctx.adopt_sched_pool(pool)
    return ctx


def test_successful_sweep_leaves_no_stray_workers():
    before = _live_pids()
    with use_context(_pooled_context()) as ctx:
        got = sweep("lifecycle.ok", _double, list(range(16)))
    assert got == [x * 2 for x in range(16)]
    assert ctx.stats.sched_chunks >= 1
    _assert_no_new_children(before)


def test_failed_sweep_raises_and_leaves_no_stray_workers():
    before = _live_pids()
    with pytest.raises(ValueError, match="boom at 3"):
        with use_context(_pooled_context()):
            sweep("lifecycle.raise", _raise_on_three, list(range(8)))
    _assert_no_new_children(before)


def test_broken_pool_mid_sweep_falls_back_to_serial_results(monkeypatch):
    monkeypatch.setenv(_PARENT_ENV, str(os.getpid()))
    before = _live_pids()
    points = list(range(12))
    with use_context(
        _pooled_context(max_respawns=1, poison_strikes=99)
    ) as ctx:
        got = sweep("lifecycle.broken", _die_in_worker, points)
    assert got == [x * 10 for x in points], (
        "fallback must return the exact serial results, in input order"
    )
    assert ctx.stats.sched_fallbacks >= 1
    assert ctx.stats.poisoned == 0
    _assert_no_new_children(before)


def test_sticky_pool_close_kills_sigterm_ignoring_stragglers():
    """close() must escalate join → terminate → SIGKILL, so even a worker
    that ignores SIGTERM cannot outlive the pool (no stray PIDs after a
    failing sweep)."""
    before = _live_pids()
    try:
        pool = StickyPool(2)
    except Exception as exc:  # pragma: no cover - fork-restricted hosts
        pytest.skip(f"cannot start scheduler workers: {exc}")
    try:
        # Park both workers in an unkillable-by-SIGTERM sleep; the None
        # close sentinel queues behind the sleeping get-loop iteration.
        for wid, inbox in enumerate(pool._inboxes):
            inbox.put((pool._epoch + 1, wid, _ignore_sigterm_and_sleep,
                       [wid], [wid]))
        time.sleep(0.5)  # let the workers enter the sleep
    finally:
        t0 = time.monotonic()
        pool.close()
        wall = time.monotonic() - t0
    assert wall < 15.0, f"close() hung on unkillable workers ({wall:.1f}s)"
    _assert_no_new_children(before)
