"""Golden fixture for the Scatter/Gather/Alltoall designs and their V forms.

``tests/golden/vcoll_parity.json`` pins every output field of
:class:`~repro.core.runner.CollectiveResult` (latency, per-rank times,
every counter, ``sim_events`` and ``trace_by_phase``) for:

* every CMA scatter and gather design, with k in {1, 3, p-1} for the
  throttled ones, and the pairwise alltoall;
* the reduce ``gather_throttled`` design (same k) and allreduce
  ``reduce_bcast``;
* scatterv/gatherv/alltoallv on the same generators, with equal counts,
  skewed counts and counts that hold zero-length blocks;

on three presets, under a pairwise cover of root in {0, 3}, in-place on/off
(where the collective has an in-place form) and ``verify`` on/off.  The comparison is exact equality.

The fixture was recorded while the V forms were still separate copies of
the plain designs, so it pins that the one-generator-per-design layout
reproduces them bit for bit.  It cannot be regenerated from a tree that no
longer has those copies; rewriting it from the merged code would only
check the code against itself::

    PYTHONPATH=src python tests/test_vcoll_golden.py   # rewrites the fixture
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.runner import CollectiveResult, CollectiveSpec, run_collective
from repro.machine import get_arch

GOLDEN_PATH = Path(__file__).parent / "golden" / "vcoll_parity.json"

P = 5
ETA = 12 * 1024
PRESETS = ["knl", "broadwell", "power8"]
THROTTLES = [1, 3, P - 1]

#: (root, in_place, verify): every pair of values of two factors appears
COVER = [(0, False, True), (0, True, False), (3, False, False), (3, True, True)]
#: collectives without an in-place form run the cover's other two factors
NO_IN_PLACE = {"alltoall", "alltoallv", "allreduce"}

COUNTS = {
    "equal": [ETA] * P,
    "skewed": [100, 40_000, 4096, 12_289, 70_000],
    "zeros": [0, 8192, 0, 5000, 0],
}

MATRICES = {
    "equal": [[ETA] * P for _ in range(P)],
    "skewed": [[(s * 7 + d * 13) % 9 * 3001 + 1 for d in range(P)] for s in range(P)],
    "zeros": [[0 if (s + d) % 3 == 0 else 2048 * (d + 1) for d in range(P)] for s in range(P)],
}


def _designs(collective, plain, throttled):
    out = [(collective, alg, {}) for alg in plain]
    out += [(collective, throttled, {"k": k}) for k in THROTTLES]
    return out


_SCATTER = _designs("scatter", ["parallel_read", "sequential_write"], "throttled_read")
_GATHER = _designs("gather", ["parallel_write", "sequential_read"], "throttled_write")

#: group key -> (preset, collective, algorithm, params, counts or None)
GROUPS = {}
for _preset in PRESETS:
    _plain = _SCATTER + _GATHER + [("alltoall", "pairwise", {})]
    _plain += [("reduce", "gather_throttled", {"k": k}) for k in THROTTLES]
    _plain.append(("allreduce", "reduce_bcast", {"k": 4}))
    for _coll, _alg, _params in _plain:
        GROUPS[f"{_preset}/{_coll}/{_alg}/{json.dumps(_params)}"] = (
            _preset, _coll, _alg, _params, None,
        )
    for _coll, _alg, _params in _SCATTER + _GATHER:
        for _name, _counts in COUNTS.items():
            GROUPS[f"{_preset}/{_coll}v/{_alg}/{json.dumps(_params)}/{_name}"] = (
                _preset, _coll + "v", _alg, _params, _counts,
            )
    for _name, _matrix in MATRICES.items():
        GROUPS[f"{_preset}/alltoallv/pairwise/{{}}/{_name}"] = (
            _preset, "alltoallv", "pairwise", {}, _matrix,
        )

_FIELDS = [f.name for f in fields(CollectiveResult) if f.name != "spec"]


def _run_group(preset, collective, algorithm, params, counts) -> dict:
    out = {}
    cover = COVER
    if collective in NO_IN_PLACE:
        cover = [(root, False, verify) for root, _, verify in COVER]
    for root, in_place, verify in cover:
        res = run_collective(
            CollectiveSpec(
                collective, algorithm, get_arch(preset), procs=P, eta=ETA,
                root=root, in_place=in_place, params=dict(params),
                verify=verify, counts=counts,
            )
        )
        out[f"root{root}/inplace{int(in_place)}/verify{int(verify)}"] = {
            name: getattr(res, name) for name in _FIELDS
        }
    return out


def capture() -> dict:
    return {key: _run_group(*args) for key, args in GROUPS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_group(golden):
    assert sorted(golden) == sorted(GROUPS)


@pytest.mark.parametrize("key", sorted(GROUPS))
def test_vcoll_bit_exact(key, golden):
    # A json round trip turns tuples into lists; floats survive exactly.
    assert json.loads(json.dumps(_run_group(*GROUPS[key]))) == golden[key]


def main() -> None:
    lines = [
        f"{json.dumps(key)}: {json.dumps(val, sort_keys=True, separators=(',', ':'))}"
        for key, val in sorted(capture().items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
