"""Per-phase times from the kernel's always-on counters equal the span totals
of the tracer they replaced.

``tests/golden/phase_counters.json`` was recorded with the span tracer
(``CollectiveSpec(trace=True)``, ``Node(trace=True)``) just before it was
removed, so it cannot be regenerated.  It holds:

* ``fig04``: :func:`repro.bench.microbench.phase_breakdown` over Fig. 4's
  full grid (its quick grid is a subset), keyed ``pages/readers``;
* ``collectives``: latency and ``trace_by_phase`` of CMA scatter, gather
  and allgather designs on all three presets (12 ranks, unverified) and
  of the two xpmem golden specs (``tests/golden/capture.py``);
* ``lock_pin_spans``: the traced 'lock' + 'pin' total per page of the
  gamma calibration grids (``tests/test_gamma_counters.py``).

The comparison rule is :func:`phase_mismatches` in ``capture.py``: 'lock',
'pin' and 'fault' bit-exact where one mm lock carries every pin (Fig. 4,
scatter, gather, xpmem), everything else within 1e-9 relative.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import microbench
from repro.core.runner import CollectiveSpec, run_collective
from repro.machine import get_arch

_GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "engine_parity_capture", _GOLDEN / "capture.py"
)
_capture_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_capture_mod)
phase_mismatches = _capture_mod.phase_mismatches

FIXTURE = json.loads((_GOLDEN / "phase_counters.json").read_text())

#: phases summed from one mm lock's counters in the tracer's order
ONE_LOCK = ("lock", "pin", "fault")


@pytest.mark.parametrize("key", sorted(FIXTURE["fig04"]))
def test_fig04_breakdown_matches_spans(key):
    pages, readers = map(int, key.split("/"))
    got = microbench.phase_breakdown.__wrapped__(
        get_arch("broadwell"), readers, pages
    )
    assert not phase_mismatches(FIXTURE["fig04"][key], got, exact=ONE_LOCK)


@pytest.mark.parametrize("key", sorted(FIXTURE["collectives"]))
def test_collective_phases_match_spans(key):
    arch, coll, alg, eta = key.split("/")
    kw = {}
    if alg.startswith("throttled"):
        kw["params"] = {"k": 4}
    if not alg.startswith("xpmem"):
        kw["verify"] = False
    res = run_collective(
        CollectiveSpec(coll, alg, get_arch(arch), procs=12, eta=int(eta), **kw)
    )
    want = FIXTURE["collectives"][key]
    assert res.latency_us == want["latency_us"]
    # allgather reads every rank's mm lock: their totals add in pid order,
    # not in the tracer's time order
    exact = () if coll == "allgather" else ONE_LOCK
    assert not phase_mismatches(want["trace_by_phase"], res.trace_by_phase, exact)


def test_fixture_covers_every_phase():
    seen = set(FIXTURE["fig04"]["100/27"])
    for entry in FIXTURE["collectives"].values():
        seen |= set(entry["trace_by_phase"])
    assert seen == {
        "syscall", "check", "lock", "pin", "copy",
        "fault", "xmake", "xattach", "xmap",
    }
