"""Golden fixture for the data-phase shapes of the CMA and xpmem designs.

``tests/golden/phase_shapes.json`` pins, for every shape below, each warm
round's result snapshot plus the node's final mm-lock statistics, event
count and clock.  The comparison is exact float equality: the per-step
emitter loops are the only schedule for these phases, and any change to
their timing or grant order shows here.  Event counts are an upper bound
only: the engine may do the same work in fewer records (an uncontended
mm-lock convoy collapses into one).

Cases cover ring reads/writes, the pairwise exchange, the direct-write
bcast fan-out and both mapped-window shapes, on three architectures with
buffer verification on and off, plus one run where a foreign process
grabs an mm mutex mid-collective.

Regenerate only when a change is *supposed* to alter simulated results
(and bump ``repro.exec.cache.CACHE_VERSION`` with it)::

    PYTHONPATH=src python tests/test_phase_shapes_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.runner import CollectiveSpec, _execute, _validated_algorithm
from repro.machine import get_arch
from repro.mpi.communicator import Comm, Node
from repro.sim import Simulator
from repro.sim.engine import Acquire, Delay, Release

GOLDEN_PATH = Path(__file__).parent / "golden" / "phase_shapes.json"

#: (collective, algorithm, warm repeats).  CMA shapes repeat 3x so later
#: rounds run on a warm node; xpmem shapes run twice so round two rides
#: the warm attach cache.
SHAPES = [
    ("allgather", "ring_source_read", 3),
    ("allgather", "ring_source_write", 3),
    ("alltoall", "pairwise", 3),
    ("bcast", "direct_write", 3),
    ("allgather", "xpmem_ring", 2),
    ("alltoall", "xpmem_pairwise", 2),
]

ARCHS = ["generic", "broadwell", "knl"]

#: The mid-collective interloper starts this many simulated microseconds
#: into the run.
INTERLOPER_START_US = 37.5


def _lock_stats(node):
    out = []
    for pid in sorted(node.cma._mm_locks):
        mm = node.cma._mm_locks[pid]
        m = mm.mutex
        out.append((
            pid, mm.pages_pinned, m.acquisitions, m.total_wait_us,
            m.max_contenders, m.generation, m.holder is None,
            len(m._waiters),
        ))
    return out


def _snapshot(res):
    return (
        res.latency_us, tuple(res.per_rank_us), res.sim_events,
        res.ctrl_messages, res.cma_reads, res.cma_writes,
        res.xpmem_reads, res.xpmem_writes, res.xpmem_attaches,
        res.xpmem_page_faults, res.fallbacks, res.retries,
    )


def _interloper(node):
    mutex = node.cma._mm_locks[min(node.cma._mm_locks)].mutex

    def gen():
        yield Delay(INTERLOPER_START_US)
        yield Acquire(mutex)
        yield Delay(53.0)
        yield Release(mutex)

    return gen()


def _run_workload(collective, algorithm, arch, verify, repeats,
                  interloper=None):
    """Run ``repeats`` rounds of one collective on a single warm node."""
    spec = CollectiveSpec(collective=collective, algorithm=algorithm,
                          arch=get_arch(arch), procs=6, eta=180_000,
                          verify=verify)
    fn = _validated_algorithm(spec)
    node = Node(spec.arch, verify=spec.verify, trace=spec.trace,
                faults=spec.faults, sim=Simulator())
    comm = Comm(node, spec.procs)
    snaps = []
    for rep in range(repeats):
        if interloper is not None:
            node.sim.spawn(interloper(node), name=f"interloper{rep}")
        snaps.append(_snapshot(_execute(spec, fn, node, comm)))
    return {
        "rounds": snaps,
        "lock_stats": _lock_stats(node),
        "events_processed": node.sim.events_processed,
        "now": node.sim.now,
    }


def _cases():
    for collective, algorithm, repeats in SHAPES:
        for arch in ARCHS:
            for verify in (False, True):
                key = f"{collective}/{algorithm}/{arch}/verify{int(verify)}"
                yield key, (collective, algorithm, arch, verify, repeats, None)
    yield ("interloper/allgather/ring_source_read/generic/verify1",
           ("allgather", "ring_source_read", "generic", True, 2, _interloper))


CASES = dict(_cases())


def capture() -> dict:
    return {key: _run_workload(*args) for key, args in CASES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def _split_events(case):
    """One json-form case -> (its event counts, everything else)."""
    counts = [r[2] for r in case["rounds"]] + [case["events_processed"]]
    rest = {k: v for k, v in case.items() if k != "events_processed"}
    rest["rounds"] = [r[:2] + r[3:] for r in case["rounds"]]
    return counts, rest


@pytest.mark.parametrize("key", sorted(CASES))
def test_phase_shape_bit_exact(key, golden):
    # A json round trip turns tuples into lists; floats survive exactly.
    got_events, got = _split_events(
        json.loads(json.dumps(_run_workload(*CASES[key])))
    )
    ref_events, ref = _split_events(golden[key])
    assert got == ref
    assert all(g <= r for g, r in zip(got_events, ref_events))


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
