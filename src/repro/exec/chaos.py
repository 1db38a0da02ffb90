"""Seeded, deterministic chaos injection for the *harness* itself.

This module attacks the execution harness — the worker pool and the
result cache's atomic publications — so the resilience layer
(supervision, respawn, poison accounting, CRC quarantine) can prove
that every sweep still completes with results bit-identical to a clean
serial run.  The simulated kernel has no fault model; only the harness
is attacked.

Design contract:

* **Off by default, zero-cost when off.**  Nothing draws unless
  ``REPRO_CHAOS`` is set (or a plan is armed explicitly); default runs
  never touch this module's state.
* **Deterministic.**  Draws come from per-``(spec, op, role)``
  string-seeded :class:`random.Random` streams keyed by a per-``(op,
  role)`` call index — the same plan replays the same injection pattern
  for the same process role (worker slot ``w0..wN`` / ``main``).  The
  *schedule* of which worker runs which chunk is still timing-dependent;
  what the soak battery verifies is schedule-independent: completion,
  bit-identity, and zero leaks.
* **Injection sites are role-scoped.**  ``kill`` and ``stall`` fire only
  inside scheduler worker processes (:mod:`repro.exec.sched` draws them
  around each point) — never in the parent, which computes poison-struck
  points and salvages a broken pool's, so chaos can always be out-survived.
  Cache attacks fire wherever :meth:`~repro.exec.cache.ResultCache.put`
  runs.

The ``op`` namespace and kinds:

=========  ===============================================================
``point``  per point executed in a scheduler worker:
           ``kill`` — SIGKILL the worker mid-chunk;
           ``stall`` — hang the point for ``factor`` seconds (default 30;
           trips hung-chunk supervision long before it returns)
``cache``  per :meth:`ResultCache.put`:
           ``corrupt`` — flip a byte of the just-published entry;
           ``truncate`` — cut the entry in half (torn write at rest);
           ``tear`` — abandon the swap mid-rename: the temp file is
           written and fsync'd but never renamed over the target, exactly
           the state a kill between write and ``os.replace`` leaves
=========  ===============================================================

Plan grammar (``REPRO_CHAOS`` / ``parse_chaos``)::

    "<seed>:<kind>[@prob[@factor]][,<kind>...]"
    parse_chaos("7:kill@0.05,stall@0.02@30,corrupt@0.2")

``calls``-scheduled specs (exact per-``(op, role)`` call indices) are
available programmatically for unit tests that need one injection at one
exact point.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "ENV_CHAOS",
    "CHAOS_KINDS",
    "CHAOS_OPS",
    "ChaosSpec",
    "ChaosPlan",
    "ChaosState",
    "parse_chaos",
    "plan_from_env",
    "state",
    "set_role",
    "reset_state",
]

#: environment knob consumed by the chaos soak battery and the
#: ``python -m repro.bench chaos`` CLI (never by default runs).
ENV_CHAOS = "REPRO_CHAOS"

CHAOS_KINDS = ("kill", "stall", "corrupt", "truncate", "tear")
CHAOS_OPS = ("any", "point", "cache")

#: which ops each kind is allowed to fire at (role scoping is enforced by
#: the draw sites, op scoping here)
KIND_OPS = {
    "kill": "point",
    "stall": "point",
    "corrupt": "cache",
    "truncate": "cache",
    "tear": "cache",
}

_DEFAULT_FACTOR = {"stall": 30.0}
_DEFAULT_PROB = {
    "kill": 0.05,
    "stall": 0.02,
    "corrupt": 0.2,
    "truncate": 0.2,
    "tear": 0.2,
}


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos rule: what to break and when.

    ``calls`` schedules exact injections by per-``(op, role)`` call index
    (0-based); otherwise the spec is probabilistic with per-call
    probability ``prob``.  ``factor`` is the stall duration in seconds.
    """

    kind: str
    calls: Optional[Tuple[int, ...]] = None
    prob: float = 0.0
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r} (not in {CHAOS_KINDS})"
            )
        if self.calls is not None:
            object.__setattr__(self, "calls", tuple(int(c) for c in self.calls))
            if any(c < 0 for c in self.calls):
                raise ValueError("call indices must be >= 0")
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.factor is not None and self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor}")

    @property
    def op(self) -> str:
        return KIND_OPS[self.kind]

    @property
    def resolved_factor(self) -> float:
        if self.factor is not None:
            return self.factor
        return _DEFAULT_FACTOR.get(self.kind, 1.0)


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable set of chaos rules plus the seed that arms them."""

    seed: int = 0
    specs: Tuple[ChaosSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for s in self.specs:
            if not isinstance(s, ChaosSpec):
                raise ValueError(f"specs must be ChaosSpec instances, got {s!r}")

    def arm(self, role: str = "main") -> "ChaosState":
        return ChaosState(self, role=role)


class ChaosState:
    """Per-process mutable draw state of an armed :class:`ChaosPlan`.

    ``role`` names the process slot (``main``, ``w0``..``wN``, set by the
    scheduler worker on startup) and keys the RNG streams, so worker slot
    k draws the same pattern every run under the same plan.
    """

    __slots__ = ("plan", "role", "_calls", "_rngs", "injected")

    def __init__(self, plan: ChaosPlan, role: str = "main"):
        self.plan = plan
        self.role = role
        #: per-op call counter within this process
        self._calls: Dict[str, int] = {}
        self._rngs: Dict[Tuple[int, str], random.Random] = {}
        #: injections actually fired, by kind
        self.injected: Dict[str, int] = {}

    def _rng(self, i: int, op: str) -> random.Random:
        key = (i, op)
        rng = self._rngs.get(key)
        if rng is None:
            # String seeding goes through SHA-512 — deterministic across
            # processes and PYTHONHASHSEED values (tuples would not be).
            rng = random.Random(f"{self.plan.seed}/{i}/{op}/{self.role}")
            self._rngs[key] = rng
        return rng

    def draw(self, op: str) -> Optional[ChaosSpec]:
        """One injection decision for one call at site ``op``.

        Advances the op's call index exactly once per call; specs are
        evaluated in plan order and the first firing one wins.
        """
        idx = self._calls.get(op, 0)
        self._calls[op] = idx + 1
        for i, spec in enumerate(self.plan.specs):
            if spec.op != op:
                continue
            if spec.calls is not None:
                fired = idx in spec.calls
            else:
                fired = spec.prob > 0.0 and self._rng(i, op).random() < spec.prob
            if fired:
                self.injected[spec.kind] = self.injected.get(spec.kind, 0) + 1
                return spec
        return None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def counts(self) -> dict:
        return dict(self.injected)


# -- textual plans (REPRO_CHAOS / --chaos) -----------------------------------


def parse_chaos(text: str) -> ChaosPlan:
    """Parse ``"<seed>:<kind>[@prob[@factor]],..."`` into a plan."""
    text = text.strip()
    head, sep, body = text.partition(":")
    if not sep or not body.strip():
        raise ValueError(
            f"invalid chaos plan {text!r}: expected '<seed>:<kind>[@prob],...'"
        )
    try:
        seed = int(head.strip())
    except ValueError:
        raise ValueError(f"invalid chaos-plan seed {head!r}") from None
    specs = []
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split("@")
        kind = parts[0].strip()
        if kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {kind!r} (not in {CHAOS_KINDS})")
        if len(parts) > 3:
            raise ValueError(f"too many '@' values in {item!r}")
        prob = _DEFAULT_PROB[kind]
        factor = None
        try:
            if len(parts) >= 2 and parts[1].strip():
                prob = float(parts[1].strip())
            if len(parts) == 3 and parts[2].strip():
                factor = float(parts[2].strip())
        except ValueError:
            raise ValueError(f"invalid chaos value in {item!r}") from None
        specs.append(ChaosSpec(kind, prob=prob, factor=factor))
    if not specs:
        raise ValueError(f"chaos plan {text!r} names no injections")
    return ChaosPlan(seed=seed, specs=tuple(specs))


def plan_from_env() -> Optional[ChaosPlan]:
    """The :data:`ENV_CHAOS` plan, or None when unset/empty."""
    raw = os.environ.get(ENV_CHAOS, "").strip()
    if not raw:
        return None
    return parse_chaos(raw)


# -- per-process armed state -------------------------------------------------

#: (pid, role, raw-env) -> armed state.  Keyed on pid so a fork child
#: (a scheduler worker) never inherits the parent's call
#: counters; keyed on the raw env string so tests flipping REPRO_CHAOS
#: re-arm immediately.
_ARMED: Optional[Tuple[int, str, str, Optional[ChaosState]]] = None
_ROLE = "main"


def set_role(role: str) -> None:
    """Name this process's chaos role (scheduler workers call this with
    ``w<wid>`` on startup); drops any state armed under the old role."""
    global _ROLE, _ARMED
    _ROLE = role
    _ARMED = None


def reset_state() -> None:
    """Forget the armed state (tests; also re-reads the env next draw)."""
    global _ARMED
    _ARMED = None


def state() -> Optional[ChaosState]:
    """This process's armed chaos state, or None when chaos is off.

    Lazily parsed from :data:`ENV_CHAOS`; re-armed after a fork (pid
    change) so every process draws from its own fresh counters.
    """
    global _ARMED
    raw = os.environ.get(ENV_CHAOS, "").strip()
    pid = os.getpid()
    if _ARMED is not None:
        apid, arole, araw, astate = _ARMED
        if apid == pid and arole == _ROLE and araw == raw:
            return astate
    st = parse_chaos(raw).arm(role=_ROLE) if raw else None
    _ARMED = (pid, _ROLE, raw, st)
    return st
