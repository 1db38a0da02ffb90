"""Golden-parity replay: the engine's simulated results are pinned.

``tests/golden/engine_parity.json`` records simulated-microsecond outputs
for Fig. 3 / Fig. 7 / Table IV slices.  This test recomputes them and
compares with *exact* float equality — no tolerance.  Engine, resource,
and kernel optimisations must be bit-preserving; if this fails, either a
fast path diverged from the reference semantics (a bug) or the model
genuinely changed, in which case regenerate the fixture AND bump
``repro.exec.cache.CACHE_VERSION`` (see ``tests/golden/capture.py``).
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "engine_parity_capture", Path(__file__).parent / "golden" / "capture.py"
)
_capture_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_capture_mod)
GOLDEN_PATH = _capture_mod.GOLDEN_PATH
capture = _capture_mod.capture
phase_mismatches = _capture_mod.phase_mismatches


@pytest.fixture(scope="module")
def recomputed():
    return capture()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fig03_latencies_bit_exact(recomputed, golden):
    assert recomputed["fig03"] == golden["fig03"]


def test_fig07_collectives_bit_exact(recomputed, golden):
    assert recomputed["fig07"] == golden["fig07"]


def test_tab04_fit_bit_exact(recomputed, golden):
    assert recomputed["tab04"] == golden["tab04"]


def test_xpmem_traces_bit_exact(recomputed, golden):
    """The mapped-window lane's runs — attach/map charging, the per-page
    fault-in convoy, and the steady-state copies — are pinned down to the
    per-phase time aggregates.  The committed entries were recorded by the
    span tracer (see ``tests/golden/capture.py``): ``sim_events`` counted
    its unfused run and is left out, and the phase counters must match the
    span totals, the one mm lock's wait and hold bit for bit."""
    assert recomputed["xpmem"].keys() == golden["xpmem"].keys()
    for key, want in golden["xpmem"].items():
        want = dict(want)
        del want["sim_events"]
        spans = want.pop("trace_by_phase")
        assert recomputed["xpmem"][key] == want, key
        got = recomputed["xpmem_phases"][key]
        assert not phase_mismatches(spans, got, exact=("lock", "fault")), key


def test_fixture_survives_json_roundtrip(recomputed):
    """The fixture stores floats via json; the comparison above is only
    bit-exact if serialisation is lossless for every captured value."""
    assert json.loads(json.dumps(recomputed)) == recomputed
