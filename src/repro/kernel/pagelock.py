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

from typing import TYPE_CHECKING

from repro.sim.resources import Mutex

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.params import ModelParams
    from repro.sim.engine import SimProcess, Simulator

__all__ = ["MMLock"]


class MMLock:
    """mm (page-table) lock of one simulated process."""

    __slots__ = ("pid", "params", "mutex", "pages_pinned", "pages_faulted",
                 "_hold_memo")

    def __init__(
        self,
        sim: "Simulator",
        pid: int,
        params: "ModelParams",
    ):
        self.pid = pid
        self.params = params
        self.mutex = Mutex(sim, name=f"mm[{pid}]")
        #: pages pinned under this lock, and how many of them were
        #: mapped-window fault-ins (which pin one page each)
        self.pages_pinned = 0
        self.pages_faulted = 0
        #: engine-side hold-time memo, keyed (batch_pages, c_same, c_other).
        #: Valid because :meth:`hold_time` is a pure function of exactly
        #: that triple (``params`` are fixed at construction); passed to
        #: :class:`~repro.sim.engine.PinConvoy` so steady convoys replace
        #: the Python call with a dict hit returning the identical float.
        self._hold_memo: dict = {}

    def reset(self) -> None:
        """Fresh-construction state: unheld mutex, zero pin counters."""
        self.mutex.reset()
        self.pages_pinned = 0
        self.pages_faulted = 0
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
        return (batch_pages + bounce) * p.l_page
