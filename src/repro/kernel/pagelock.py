"""The per-process mm lock — the contention bottleneck the paper is about.

``get_user_pages`` takes the *target* process's page-table lock once per
page batch.  Two effects compound under concurrency:

1. **Serialization** — the lock is exclusive, so ``c`` concurrent readers
   queue and each waits ~``c`` hold times per batch (FIFO here).
2. **Cache-line bouncing** — the lock word and the page-table cache lines
   migrate between the contenders' cores.  The migration cost is paid per
   *acquisition* (pulling the bounced lines back), so the hold time for a
   batch of ``b`` pages is::

       b * l_page  +  l_page * (kappa_intra*(c_same-1) + kappa_inter*c_other)

   where ``c_same``/``c_other`` count contenders on the holder's socket and
   the remote socket(s) at grant time.  Charging the bounce per acquisition
   (not per page) is what makes the kernel's internal page batching matter:
   pinning one page at a time pays the full storm for every page (the
   ``ablation_batch`` bench quantifies this).

Queueing x inflation yields an *emergent* contention factor
``gamma(c) ~ c * (1 + kappa*c/batch)`` — super-linear, exactly the family
the paper fits with NLLS in Fig. 5.  Nothing in this file hard-codes gamma.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.engine import Acquire, Delay, HoldRelease, PinConvoy, Release
from repro.sim.resources import Mutex

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.params import ModelParams
    from repro.sim.engine import SimProcess, Simulator
    from repro.sim.trace import Tracer

__all__ = ["MMLock"]


class MMLock:
    """mm (page-table) lock of one simulated process."""

    __slots__ = ("sim", "pid", "params", "mutex", "tracer", "pages_pinned",
                 "hold_scale", "_hold_memo")

    def __init__(
        self,
        sim: "Simulator",
        pid: int,
        params: "ModelParams",
        tracer: "Tracer",
    ):
        self.sim = sim
        self.pid = pid
        self.params = params
        self.mutex = Mutex(sim, name=f"mm[{pid}]")
        self.tracer = tracer
        self.pages_pinned = 0
        #: straggler slowdown of this mm's owner (fault injection): page
        #: operations on a slow core take longer for *every* contender.
        #: Constant for a whole run (set when a FaultPlan is armed, reset
        #: to 1.0 by :meth:`reset`), so :meth:`hold_time` stays pure in
        #: (batch_pages, contention profile) and the memo contract holds.
        self.hold_scale = 1.0
        #: engine-side hold-time memo, keyed (batch_pages, c_same, c_other).
        #: Valid because :meth:`hold_time` is a pure function of exactly
        #: that triple (``params`` are fixed at construction and
        #: ``hold_scale`` per run); passed to
        #: :class:`~repro.sim.engine.PinConvoy` so steady convoys replace
        #: the Python call with a dict hit returning the identical float.
        self._hold_memo: dict = {}

    def reset(self) -> None:
        """Fresh-construction state: unheld mutex, zero pin counter."""
        self.mutex.reset()
        self.pages_pinned = 0
        self.hold_scale = 1.0
        self._hold_memo.clear()

    def hold_time(self, batch_pages: int, caller: "SimProcess") -> float:
        """Critical-section duration for pinning one batch, right now.

        Pure in ``(batch_pages, mutex.contention_profile(caller.socket))``
        — the contract ``_hold_memo`` asserts to the engine.
        """
        p = self.params
        c_same, c_other = self.mutex.contention_profile(caller.socket)
        # the caller itself is a contender (it holds the lock); exclude it
        c_same = max(c_same - 1, 0)
        bounce = p.kappa_intra * c_same + p.kappa_inter * c_other
        hold = (batch_pages + bounce) * p.l_page
        if self.hold_scale != 1.0:  # straggler-owner fault injection
            hold *= self.hold_scale
        return hold

    def lock_and_pin(
        self, caller: "SimProcess", npages: int
    ) -> Generator:
        """Pin ``npages`` pages of this mm, batch by batch.

        Records 'lock' (queueing) and 'pin' (critical section) trace spans,
        mirroring the paper's ftrace breakdown (Fig. 4).
        """
        if npages <= 0:
            return 0
        batch = self.params.pin_batch
        remaining = npages
        tracer = self.tracer
        if not tracer.enabled:
            if self.sim.use_pin_convoy:
                # Fast path: the whole pin loop rides one fused PinConvoy
                # command — the engine replays the per-batch
                # grant/release/chain/rejoin records (same timestamps and
                # FIFO grant order; hold_time is still evaluated at grant
                # time against live contender state) with no generator
                # resumption per batch, and folds an uncontended remainder
                # into one record.
                batches = []
                while remaining > 0:
                    b = min(batch, remaining)
                    batches.append((b, 0.0))
                    remaining -= b
                return (
                    yield PinConvoy(
                        self.mutex, self.hold_time, batches,
                        mm=self, npages=npages, memo=self._hold_memo,
                    )
                )
            # Unfused untraced path (Simulator(use_pin_convoy=False)):
            # kept as the differential reference the convoy battery
            # compares against.
            mutex = self.mutex
            while remaining > 0:
                b = min(batch, remaining)
                yield Acquire(mutex)
                yield HoldRelease(mutex, self.hold_time(b, caller))
                self.pages_pinned += b
                remaining -= b
            return npages
        # Traced path: stays unfused — the 'lock'/'pin' spans need the
        # per-batch wakeup timestamps (t_req/t_got) that fusing folds away,
        # so tracing disables both HoldRelease fusion and PinConvoy.
        while remaining > 0:
            b = min(batch, remaining)
            t_req = self.sim.now
            yield Acquire(self.mutex)
            t_got = self.sim.now
            hold = self.hold_time(b, caller)
            yield Delay(hold)
            yield Release(self.mutex)
            tracer.record(caller.name, "lock", t_req, t_got, meta=self.pid)
            tracer.record(caller.name, "pin", t_got, t_got + hold, meta=b)
            self.pages_pinned += b
            remaining -= b
        return npages
