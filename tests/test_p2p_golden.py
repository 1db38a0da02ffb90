"""Golden fixture for the library point-to-point baselines.

``tests/golden/p2p_parity.json`` pins latency, per-rank times, control
messages, CMA reads and ``sim_events`` for the pt2pt designs the library
models run (rendezvous RTS/CTS/FIN transfers and eager two-copy shm
trains, including trains whose last chunk is short) on a KNL and a
Broadwell slice.  The pairwise and ring designs step through
``p2p_sendrecv``, whose rendezvous exchanges run in the rank's own
generator with the CTS counted but not delivered; their eager exchanges
still spawn two helpers.  Every channel ``Send``/``Recv`` of these runs
goes through the engine's message path, so any change to it must
reproduce these numbers bit for bit, record count included.  The
comparison is exact equality; see ``tests/golden/capture.py`` to
regenerate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "p2p_parity_capture", Path(__file__).parent / "golden" / "capture.py"
)
_capture_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_capture_mod)


@pytest.fixture(scope="module")
def recomputed():
    return _capture_mod.capture_p2p()


@pytest.fixture(scope="module")
def golden():
    return json.loads(_capture_mod.P2P_PATH.read_text())


def test_p2p_points_cover_the_fixture(recomputed, golden):
    assert recomputed.keys() == golden.keys()


DESIGNS = [
    f"{coll}/{alg}/{json.dumps(params)}"
    for coll, alg, params in _capture_mod.P2P_DESIGNS
]


@pytest.mark.parametrize("design", DESIGNS)
def test_p2p_design_bit_exact(recomputed, golden, design):
    keys = [k for k in golden if f"/{design}/" in k]
    assert keys
    for key in keys:
        assert recomputed[key] == golden[key], key
