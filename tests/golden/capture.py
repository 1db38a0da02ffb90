"""Capture the engine-parity golden fixture.

Records simulated-microsecond results for slices of Fig. 3 (one-to-all CMA
microbenchmarks), Fig. 7 (scatter collectives, verified bytes), Table IV
(the NLLS fitting pipeline), and two mapped-window (xpmem lane)
collectives into ``engine_parity.json``.  The
fixture pins the engine's *simulated-time* behaviour: any optimisation of
the event loop, the resources, or the kernel fast paths must reproduce
these numbers bit-for-bit (``tests/test_engine_golden.py``).

The committed ``xpmem`` entries were recorded by a span-tracing kernel path
that no longer exists: their ``trace_by_phase`` holds span totals and their
``sim_events`` counted that path's unfused run.  So the test leaves
``sim_events`` out of those entries and compares ``trace_by_phase``, which
now comes from the kernels' phase counters, with :func:`phase_mismatches`;
:func:`capture` records neither field for them.

:func:`capture_p2p` records the library point-to-point paths (the
baselines' eager shm trains and rendezvous RTS/CTS/FIN traffic) into
``p2p_parity.json`` (``tests/test_p2p_golden.py``), including
``sim_events``: any change to the channel message path must keep the
engine's record count as well as its simulated times.  The pairwise and
ring designs' rendezvous entries count the exchanges of
:func:`repro.mpi.pt2pt.p2p_sendrecv`, which run in the rank's own
generator and deliver no CTS: six records fewer per message than the
spawned send/receive helpers that were recorded before, at the same
times and counts.

Regenerate only when a change is *supposed* to alter simulated results —
which also means bumping ``repro.exec.cache.CACHE_VERSION`` — or, for
``p2p_parity.json``, when a change only lowers ``sim_events``: then diff
the two files and check that no other field moved::

    PYTHONPATH=src python tests/golden/capture.py         # engine_parity.json
    PYTHONPATH=src python tests/golden/capture.py --p2p   # p2p_parity.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("engine_parity.json")
P2P_PATH = Path(__file__).with_name("p2p_parity.json")

FIG03_POINTS = [
    (arch, readers, nbytes)
    for arch in ("knl", "broadwell", "power8")
    for readers in (1, 4, 8)
    for nbytes in (16 * 1024, 256 * 1024, 1 << 20)
] + [("knl", 32, 256 * 1024)]

FIG07_SPECS = [
    (alg, params, eta)
    for eta in (16 * 1024, 256 * 1024)
    for alg, params in (
        ("parallel_read", {}),
        ("sequential_write", {}),
        ("throttled_read", {"k": 4}),
    )
]

#: Mapped-window lane runs: the per-phase aggregates pin the fault-in
#: convoy, the attach/map charging, and the pin-free steady-state copies.
XPMEM_SPECS = [
    ("scatter", "xpmem_read", 64 * 1024),
    ("bcast", "xpmem_read", 256 * 1024),
]


#: force-eager threshold of ``repro.core.p2p_colls`` (two-copy shm trains)
_EAGER = 1 << 62

#: library pt2pt designs: rendezvous (threshold 0) and eager variants
P2P_DESIGNS = [
    ("alltoall", "pairwise_pt2pt", {}),
    ("alltoall", "pairwise_shm", {}),
    ("scatter", "fanout_rndv", {}),
    ("gather", "fanin_rndv", {}),
] + [
    (coll, alg, {"threshold": th})
    for coll, alg in (
        ("scatter", "binomial_p2p"),
        ("gather", "binomial_p2p"),
        ("bcast", "binomial_p2p"),
        ("allgather", "ring_p2p"),
    )
    for th in (0, _EAGER)
]

#: (arch, procs, verify) slices; 20,000 B is two 8 KiB shm chunks plus a
#: remainder, so the eager trains collapse with a short last chunk
P2P_SLICES = [("knl", 16, False), ("knl", 7, True), ("broadwell", 12, True)]
P2P_ETAS = (4096, 20_000, 64 * 1024)


def capture_p2p() -> dict:
    from repro.core.runner import CollectiveSpec, run_collective
    from repro.machine import get_arch

    out = {}
    for arch, procs, verify in P2P_SLICES:
        for coll, alg, params in P2P_DESIGNS:
            for eta in P2P_ETAS:
                spec = CollectiveSpec(
                    coll, alg, get_arch(arch), procs=procs, eta=eta,
                    params=params, verify=verify,
                )
                res = run_collective(spec)
                key = f"{arch}/{procs}/{coll}/{alg}/{json.dumps(params)}/{eta}"
                out[key] = {
                    "latency_us": res.latency_us,
                    "per_rank_us": res.per_rank_us,
                    "ctrl_messages": res.ctrl_messages,
                    "cma_reads": res.cma_reads,
                    "sim_events": res.sim_events,
                }
    return out


def capture() -> dict:
    from repro.bench.microbench import one_to_all_latency
    from repro.core.fitting import fit_architecture
    from repro.core.runner import CollectiveSpec, run_collective
    from repro.machine import get_arch

    fig03 = {}
    for arch, readers, nbytes in FIG03_POINTS:
        lat = one_to_all_latency(get_arch(arch), readers, nbytes)
        fig03[f"{arch}/{readers}r/{nbytes}"] = lat

    fig07 = {}
    for alg, params, eta in FIG07_SPECS:
        spec = CollectiveSpec(
            "scatter", alg, get_arch("knl"), procs=12, eta=eta, params=params
        )
        res = run_collective(spec)
        fig07[f"{alg}/{eta}"] = {
            "latency_us": res.latency_us,
            "per_rank_us": res.per_rank_us,
            "ctrl_messages": res.ctrl_messages,
            "cma_reads": res.cma_reads,
            "cma_writes": res.cma_writes,
        }

    xpmem = {}
    phases = {}
    for coll, alg, eta in XPMEM_SPECS:
        spec = CollectiveSpec(coll, alg, get_arch("knl"), procs=12, eta=eta)
        res = run_collective(spec)
        xpmem[f"{coll}/{alg}/{eta}"] = {
            "latency_us": res.latency_us,
            "per_rank_us": res.per_rank_us,
            "ctrl_messages": res.ctrl_messages,
            "xpmem_reads": res.xpmem_reads,
            "xpmem_writes": res.xpmem_writes,
            "xpmem_attaches": res.xpmem_attaches,
            "xpmem_page_faults": res.xpmem_page_faults,
        }
        phases[f"{coll}/{alg}/{eta}"] = res.trace_by_phase

    fit = fit_architecture(
        get_arch("broadwell"), page_counts=(10, 20), reader_counts=[1, 2, 4, 8]
    )
    tab04 = {
        "alpha": fit.base.alpha,
        "beta": fit.base.beta,
        "l_page": fit.base.l_page,
        "page_size": fit.base.page_size,
        "g1": fit.gamma.g1,
        "g2": fit.gamma.g2,
        "spill": fit.gamma.spill,
        "knee": fit.gamma.knee,
        "residual": fit.gamma.residual,
        "samples": [
            [s.pages, s.readers, s.gamma] for s in fit.samples
        ],
    }

    return {
        "fig03": fig03, "fig07": fig07, "tab04": tab04, "xpmem": xpmem,
        "xpmem_phases": phases,
    }


#: relative tolerance for phase totals summed in a different order (or
#: from differently rounded terms) than the span totals they replace
PHASE_RTOL = 1e-9


def phase_mismatches(ref: dict, got: dict, exact=()) -> list:
    """``(phase, ref, got)`` for each phase of span totals ``ref`` that the
    phase counters ``got`` do not reproduce.  A phase absent on one side
    must be 0.0 on the other.  Phases in ``exact`` must be bit-exact: they
    sum the same terms in the same order (one mm lock's waits or holds).
    The rest sum the same charged delays, but a span's duration is ``(t +
    d) - t`` rather than ``d``, and several locks' totals add in another
    order, so they must agree within :data:`PHASE_RTOL`."""
    out = []
    for phase in sorted(set(ref) | set(got)):
        r, g = ref.get(phase, 0.0), got.get(phase, 0.0)
        if r == g:
            continue
        if phase in exact or abs(g - r) > PHASE_RTOL * abs(r):
            out.append((phase, r, g))
    return out


def main() -> None:
    if "--p2p" in sys.argv[1:]:
        P2P_PATH.write_text(json.dumps(capture_p2p(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {P2P_PATH}")
        return
    data = capture()
    del data["xpmem_phases"]
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
