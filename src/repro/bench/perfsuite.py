"""Wall-clock performance suite for the simulator (``python -m repro.bench perf``).

Unlike everything else under :mod:`repro.bench`, this module measures
*host* wall-clock time, not simulated microseconds.  It exists so that
engine optimisations are measured rather than asserted: the suite emits
``BENCH_engine.json`` with events/sec for a set of engine microbenches,
per-point wall time for representative Fig 3 / Fig 7 slices, and scalar +
batched selection rates for the compiled serve-layer decision tables, and
CI replays it (``--smoke --check BENCH_engine.json``) to catch gross
regressions.

The benches use only the public simulator API (``Simulator``, ``Delay``,
``Acquire``/``Release``, ``Join``, ``Mutex``), so the same file runs
unchanged against any engine revision — that is how before/after numbers
in README's Performance section were produced.

Usage::

    python -m repro.bench perf                  # full suite -> BENCH_engine.json
    python -m repro.bench perf --smoke          # CI-sized run
    python -m repro.bench perf --smoke --check BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "run_suite",
    "main",
    "compare_trajectory",
    "SCHEMA",
    "GATED_SECTIONS",
    "GATE_FACTOR",
]

SCHEMA = "bench-engine-v1"

#: Sections whose regressions fail ``--check`` (CI).  The remaining
#: sections (``engine``, ``sweep``) are reported but non-gating: they are
#: dominated by host noise on shared CI runners, while ``convoy``,
#: ``fig07``, and ``xpmem`` directly cover the convoy and mapped-window
#: steady-state fast paths, ``serve`` covers the compiled-decision-table
#: query engine (scalar and batched selection rates), and ``sched``
#: covers the work-stealing sweep scheduler end to end (mixed
#: fig07+fig13 slice through ``run_specs``, cache-off and cache-warm) —
#: losing one shows up as a >3x events/sec drop.
GATED_SECTIONS = ("convoy", "fig07", "xpmem", "serve", "sched")

#: Regression factor for the gated sections.
GATE_FACTOR = 3.0

#: Convoy bench: contended pure pin convoys at these reader counts.
CONVOY_READERS = (2, 8, 32, 64)
#: pin batches per reader: (full, smoke).  The smoke size stays large
#: enough that per-run setup doesn't dominate the events/sec rate — the
#: CI gate compares a smoke run against the committed full-size baseline.
CONVOY_ROUNDS = (500, 250)

#: xpmem bench: warm mapped-window copy loops at these attacher counts.
XPMEM_READERS = (2, 8, 32)
#: warm copies per attacher: (full, smoke).
XPMEM_ROUNDS = (400, 100)
#: exported window size in pages; each round re-reads a 4-page slice, so
#: after the first round every touched page is faulted and the loop sits
#: on the pin-free steady-state path the gate is meant to protect.
XPMEM_WINDOW_PAGES = 64

# Engine-bench workload sizes: (full, smoke).
_SIZES = {
    "zero_delay": ((128, 1_000), (16, 100)),     # (procs, yields per proc)
    "timer_heap": ((128, 1_000), (16, 100)),
    "mutex_uncontended": ((1, 80_000), (1, 4_000)),
    "mutex_contended": ((64, 400), (8, 60)),
    "spawn_join": ((10_000, 1), (400, 1)),       # (children, -)
}

FIG03_SLICE = [
    ("knl", 8, 256 * 1024),
    ("broadwell", 8, 1 << 20),
    ("knl", 32, 256 * 1024),
]
FIG03_SLICE_SMOKE = [("knl", 8, 256 * 1024)]

FIG07_SLICE = [("parallel_read", {}, 256 * 1024), ("throttled_read", {"k": 4}, 256 * 1024)]
FIG07_SLICE_SMOKE = [("parallel_read", {}, 256 * 1024)]

# End-to-end sweep slices: many points at fixed (arch, p) — the shape every
# figure sweep has, and exactly what warm-node reuse amortises.  Points are
# (collective, algorithm, params, eta).
SWEEP_SLICES = {
    # Fig 7: the scatter algorithm family on the KNL model.
    "fig07_scatter_knl": {
        "arch": "knl",
        "procs": 12,
        "points": [
            ("scatter", alg, params, eta)
            for eta in (16 * 1024, 64 * 1024, 256 * 1024)
            for alg, params in (
                ("parallel_read", {}),
                ("sequential_write", {}),
                ("throttled_read", {"k": 4}),
            )
        ],
    },
    # Fig 13 style: scatter via the algorithms the library models lower to
    # (binomial pt2pt trees, rendezvous fan-out) on the Broadwell model.
    "fig13_scatter_bdw": {
        "arch": "broadwell",
        "procs": 12,
        "points": [
            ("scatter", alg, params, eta)
            for eta in (16 * 1024, 128 * 1024)
            for alg, params in (
                ("parallel_read", {}),
                ("binomial_p2p", {}),
                ("fanout_rndv", {}),
            )
        ],
    },
}
SWEEP_SLICES_SMOKE = {
    "fig07_scatter_knl": {
        "arch": "knl",
        "procs": 8,
        "points": [
            ("scatter", "parallel_read", {}, 16 * 1024),
            ("scatter", "parallel_read", {}, 64 * 1024),
            ("scatter", "throttled_read", {"k": 4}, 16 * 1024),
            ("scatter", "throttled_read", {"k": 4}, 64 * 1024),
        ],
    },
}

#: Serve bench: compile one decision table on this preset, then hammer
#: the query engine.  The architecture's full size axis is the paper's
#: headline (16 MiB on KNL); the smoke axis stops at 1 MiB so CI compiles
#: in seconds — per-query cost is size-independent, so the smoke rates
#: land in the same regime as the committed full baseline and the 3x gate
#: stays meaningful.
SERVE_ARCH = "knl"
#: largest compiled message size: (full, smoke)
SERVE_ETA_MAX = (16 << 20, 1 << 20)
#: scalar lookups per timed repeat: (full, smoke)
SERVE_SCALAR_QUERIES = (200_000, 20_000)
#: batched lookups per timed repeat: (full, smoke)
SERVE_BATCH_QUERIES = (1_000_000, 100_000)


def _bestof(walls: list[float]) -> dict:
    """Best-of-N wall summary with spread.

    Every wall in the suite keeps all N raw repeats (``wall_s_all``) plus
    the min and the min-relative spread, so a baseline reader can tell a
    tight measurement from one where the best repeat was a fluke — a 5%
    spread means the rate is trustworthy, a 60% spread means rerun before
    arguing about regressions.
    """
    best = min(walls)
    return {
        "wall_s": round(best, 6),
        "repeats": len(walls),
        "wall_s_all": [round(w, 6) for w in walls],
        "spread_pct": round((max(walls) - best) / best * 100.0, 1)
        if best else None,
    }


# --------------------------------------------------------------------------
# Engine microbenches.  Each builds a Simulator, runs a workload dominated by
# one kind of event traffic, and returns the Simulator (for events_processed).
# --------------------------------------------------------------------------


def _bench_zero_delay(procs: int, yields: int):
    """Zero-delay resumptions: the spawn/grant/continuation fast-path traffic."""
    from repro.sim.engine import Delay, Simulator

    sim = Simulator()

    def worker():
        for _ in range(yields):
            yield Delay(0.0)

    for i in range(procs):
        sim.spawn(worker(), name=f"z{i}")
    sim.run()
    return sim


def _bench_timer_heap(procs: int, yields: int):
    """Distinct-timestamp delays: pure heap scheduling, no fast path."""
    from repro.sim.engine import Delay, Simulator

    sim = Simulator()

    def worker(i: int):
        for j in range(yields):
            yield Delay(0.1 + (i * 7 + j) % 13 * 0.01)

    for i in range(procs):
        sim.spawn(worker(i), name=f"t{i}")
    sim.run()
    return sim


def _bench_mutex_uncontended(_procs: int, rounds: int):
    """Lone process acquiring/releasing a mutex: the uncontended-grant path."""
    from repro.sim.engine import Acquire, Release, Simulator
    from repro.sim.resources import Mutex

    sim = Simulator()
    lock = Mutex(sim, "m")

    def worker():
        for _ in range(rounds):
            yield Acquire(lock)
            yield Release(lock)

    sim.spawn(worker(), name="solo")
    sim.run()
    return sim


def _bench_mutex_contended(procs: int, rounds: int):
    """Many processes hammering one mutex: grant + contention-profile traffic."""
    from repro.sim.engine import Acquire, Delay, Release, Simulator
    from repro.sim.resources import Mutex

    sim = Simulator()
    lock = Mutex(sim, "m")

    def worker(i: int):
        for _ in range(rounds):
            yield Acquire(lock)
            lock.contention_profile(i % 2)
            yield Delay(0.01)
            yield Release(lock)

    for i in range(procs):
        p = sim.spawn(worker(i), name=f"c{i}")
        p.socket = i % 2
    sim.run()
    return sim


def _bench_spawn_join(children: int, _rounds: int):
    """Spawn/finish/join wakeup churn."""
    from repro.sim.engine import Delay, Join, Simulator

    sim = Simulator()

    def child():
        yield Delay(0.0)
        return 1

    def parent():
        kids = [sim.spawn(child(), name=f"k{i}") for i in range(children)]
        total = 0
        for k in kids:
            total += yield Join(k)
        return total

    sim.spawn(parent(), name="parent")
    sim.run()
    return sim


_ENGINE_BENCHES: dict[str, Callable] = {
    "zero_delay": _bench_zero_delay,
    "timer_heap": _bench_timer_heap,
    "mutex_uncontended": _bench_mutex_uncontended,
    "mutex_contended": _bench_mutex_contended,
    "spawn_join": _bench_spawn_join,
}


def _time_engine_bench(name: str, smoke: bool, repeats: int) -> dict:
    a, b = _SIZES[name][1 if smoke else 0]
    fn = _ENGINE_BENCHES[name]
    best = float("inf")
    events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        sim = fn(a, b)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        events = sim.events_processed
    return {
        "events": events,
        "wall_s": round(best, 6),
        "events_per_sec": round(events / best, 1),
    }


def _bench_convoy(readers: int, rounds: int):
    """Contended pure pin convoys: the convoy-record workload.

    Every contender is a :class:`~repro.sim.engine.PinConvoy` member with
    no copy time between batches, so every hop is a convoy record and
    every hold a memo hit.  The hold model mirrors the mm-lock bounce
    shape (pure in the contender profile, hence memoisable).
    """
    from repro.sim.engine import PinConvoy, Simulator
    from repro.sim.resources import Mutex

    sim = Simulator()
    lock = Mutex(sim, "mm")
    memo: dict = {}

    def hold(pages, proc):
        same, other = lock.contention_profile(proc.socket)
        return pages * 0.05 + 0.8 * max(same - 1, 0) + 2.4 * other

    def worker():
        yield PinConvoy(lock, hold, [(16, 0.0)] * rounds, memo=memo)

    for i in range(readers):
        sim.spawn(worker(), name=f"r{i}", socket=i % 2)
    sim.run()
    return sim


def _run_convoy_bench(smoke: bool, repeats: int) -> dict:
    rounds = CONVOY_ROUNDS[1 if smoke else 0]
    out = {}
    for readers in CONVOY_READERS:
        best = float("inf")
        events = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            sim = _bench_convoy(readers, rounds)
            best = min(best, time.perf_counter() - t0)
            events = sim.events_processed
        out[f"c{readers}"] = {
            "events": events,
            "wall_s": round(best, 6),
            "events_per_sec": round(events / best, 1),
        }
    return out


def _bench_xpmem_steady(readers: int, rounds: int):
    """Warm mapped-window copies: the pin-free steady-state workload.

    One owner exports a window; ``readers`` attachers map it once, fault
    its pages on the first round, then spend ``rounds - 1`` rounds on the
    steady-state path — no mm-lock traffic at all, just priced ``Delay``
    events.  This is the regime the xpmem lane exists for; regressing it
    (say, by re-acquiring the owner's mm lock per warm copy) multiplies
    the event count and trips the events/sec gate.
    """
    from repro.machine import make_generic
    from repro.mpi import Comm, Node

    node = Node(make_generic(sockets=2, cores_per_socket=readers // 2 + 1))
    comm = Comm(node, readers + 1)
    ps = node.arch.params.page_size
    window = comm.allocate(0, XPMEM_WINDOW_PAGES * ps)
    box = {}

    def owner(ctx):
        box["segid"] = yield from node.xpmem.make_segid(
            ctx.proc, window.addr, XPMEM_WINDOW_PAGES * ps
        )

    node.sim.run_all([comm.spawn_rank(0, owner)])

    bufs = {r: comm.allocate(r, 4 * ps) for r in range(1, readers + 1)}

    def reader(ctx):
        segid = box["segid"]
        local = bufs[ctx.rank]
        yield from node.xpmem.attach(ctx.proc, segid)
        for j in range(rounds):
            off = (j % (XPMEM_WINDOW_PAGES // 4)) * 4 * ps
            yield from node.xpmem.copy_from(
                ctx.proc, segid, (local.addr, 4 * ps),
                (window.addr + off, 4 * ps),
            )

    procs = [comm.spawn_rank(r, reader) for r in range(1, readers + 1)]
    node.sim.run_all(procs)
    return node.sim


def _single_reader_cost(arch_name: str, mech: str, rounds: int) -> float:
    """Simulated us for one reader pulling ``rounds`` 4-page slices from a
    peer, either via CMA (pins every round) or via a mapped window (maps
    and faults once, then copies pin-free)."""
    from repro.machine import get_arch
    from repro.mpi import Comm, Node

    node = Node(get_arch(arch_name))
    comm = Comm(node, 2)
    ps = node.arch.params.page_size
    nbytes = 4 * ps
    window = comm.allocate(0, nbytes)
    local = comm.allocate(1, nbytes)
    box = {}

    def owner(ctx):
        box["segid"] = yield from node.xpmem.make_segid(
            ctx.proc, window.addr, nbytes
        )

    node.sim.run_all([comm.spawn_rank(0, owner)])

    def reader(ctx):
        if mech == "xpmem":
            yield from node.xpmem.attach(ctx.proc, box["segid"])
            for _ in range(rounds):
                yield from node.xpmem.copy_from(
                    ctx.proc, box["segid"], (local.addr, nbytes),
                    (window.addr, nbytes),
                )
        else:
            for _ in range(rounds):
                yield from node.cma.process_vm_readv(
                    ctx.proc, comm.pid_of(0), [local.iov()], [window.iov()]
                )

    t0 = node.sim.now
    node.sim.run_all([comm.spawn_rank(1, reader)])
    return node.sim.now - t0


def _xpmem_crossover(arch_name: str) -> dict:
    """Map-amortisation crossover, from two simulated points per mechanism.

    Both costs are affine in the round count r — CMA pays a per-round pin,
    xpmem a one-time map+fault — so two runs each pin slope and intercept
    exactly, and the crossover is where the lines meet: the number of
    re-reads after which the mapped window has paid for itself.  Purely
    simulated time; deterministic, so it doubles as a sanity artifact in
    the committed baseline.
    """
    r1, r2 = 1, 33
    c1 = _single_reader_cost(arch_name, "cma", r1)
    c2 = _single_reader_cost(arch_name, "cma", r2)
    x1 = _single_reader_cost(arch_name, "xpmem", r1)
    x2 = _single_reader_cost(arch_name, "xpmem", r2)
    slope_c = (c2 - c1) / (r2 - r1)
    slope_x = (x2 - x1) / (r2 - r1)
    map_cost = (x1 - slope_x) - (c1 - slope_c)
    saving = slope_c - slope_x
    rounds = None
    if saving > 0:
        import math

        rounds = max(1, math.ceil(map_cost / saving))
    return {
        "map_cost_us": round(map_cost, 4),
        "per_copy_saving_us": round(saving, 4),
        "crossover_rounds": rounds,
    }


def _run_xpmem_bench(smoke: bool, repeats: int) -> dict:
    rounds = XPMEM_ROUNDS[1 if smoke else 0]
    out = {}
    for readers in XPMEM_READERS:
        best = float("inf")
        events = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            sim = _bench_xpmem_steady(readers, rounds)
            best = min(best, time.perf_counter() - t0)
            events = sim.events_processed
        out[f"w{readers}"] = {
            "events": events,
            "wall_s": round(best, 6),
            "events_per_sec": round(events / best, 1),
        }
    # no events_per_sec key: reported in the baseline, skipped by the gate
    out["crossover"] = {
        arch: _xpmem_crossover(arch)
        for arch in ("knl", "broadwell", "power8")
    }
    return out


def _run_serve_bench(smoke: bool, repeats: int) -> dict:
    """Compile a decision table, then price the serve-layer query paths.

    ``compile`` reports the one-time table build (wall, rows, breakpoints,
    verification probes, the tuner's bounded-memo hit/miss split) but
    carries no ``events_per_sec`` key, so the regression gate skips it —
    compile cost is a build-time concern, not a serving-path one.  The
    ``scalar`` and ``batch`` points *are* gated: each stores its
    queries/sec under ``events_per_sec`` (a query is the serve engine's
    event), so the generic >3x check covers selection throughput with no
    special-casing.  Queries draw random sizes over the whole compiled
    axis — mostly LRU-front misses, i.e. the rate prices the bisect path,
    not the cache.
    """
    import random as _random

    from repro.machine import get_arch
    from repro.serve import CompileStats, QueryEngine, compile_table
    from repro.serve.query import HAVE_NUMPY

    idx = 1 if smoke else 0
    arch = get_arch(SERVE_ARCH)
    eta_max = SERVE_ETA_MAX[idx]
    stats = CompileStats()
    t0 = time.perf_counter()
    table = compile_table(arch, eta_max=eta_max, stats=stats)
    compile_wall = time.perf_counter() - t0
    engine = QueryEngine(table)
    p = arch.default_procs
    colls = table.collectives
    rng = _random.Random("serve-bench")

    n_scalar = SERVE_SCALAR_QUERIES[idx]
    queries = [
        (colls[i % len(colls)], rng.randint(1, eta_max), p)
        for i in range(n_scalar)
    ]
    lookup = engine.lookup
    scalar_walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for coll, eta, pp in queries:
            lookup(coll, eta, pp)
        scalar_walls.append(time.perf_counter() - t0)

    n_batch = SERVE_BATCH_QUERIES[idx]
    cids = [engine.collective_id(c) for c in colls]
    coll_ids = [cids[i % len(cids)] for i in range(n_batch)]
    etas = [rng.randint(1, eta_max) for _ in range(n_batch)]
    procs = [p] * n_batch
    if HAVE_NUMPY:
        import numpy as np

        coll_ids = np.asarray(coll_ids, dtype=np.int64)
        etas = np.asarray(etas, dtype=np.int64)
        procs = np.asarray(procs, dtype=np.int64)
    batch_walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.lookup_batch(coll_ids, etas, procs)
        batch_walls.append(time.perf_counter() - t0)

    front = engine.stats()["front"]
    scalar_best = _bestof(scalar_walls)
    batch_best = _bestof(batch_walls)
    return {
        # no events_per_sec key: reported in the baseline, skipped by the gate
        "compile": {
            "wall_s": round(compile_wall, 6),
            "rows": len(table.rows),
            "breakpoints": table.breakpoints_total,
            "decisions": len(table.decisions),
            "probes": stats.probes,
            "tuner_hits": stats.tuner_hits,
            "tuner_misses": stats.tuner_misses,
            "eta_max": eta_max,
        },
        "scalar": {
            "queries": n_scalar,
            "events_per_sec": round(n_scalar / scalar_best["wall_s"], 1),
            "queries_per_sec": round(n_scalar / scalar_best["wall_s"], 1),
            "front_hits": front["hits"],
            "front_misses": front["misses"],
            **scalar_best,
        },
        "batch": {
            "queries": n_batch,
            "backend": "numpy" if HAVE_NUMPY else "scalar",
            "events_per_sec": round(n_batch / batch_best["wall_s"], 1),
            "queries_per_sec": round(n_batch / batch_best["wall_s"], 1),
            **batch_best,
        },
    }


# --------------------------------------------------------------------------
# End-to-end slices (uncached, serial: no exec context is active here, so
# the @_sweepable microbenches run as plain calls).
# --------------------------------------------------------------------------


def _run_fig03_slice(points, repeats: int) -> dict:
    from repro.bench.microbench import one_to_all_latency
    from repro.machine import get_arch

    out = {}
    for arch, readers, nbytes in points:
        walls = []
        lat = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            lat = one_to_all_latency(get_arch(arch), readers, nbytes)
            walls.append(time.perf_counter() - t0)
        out[f"{arch}/{readers}r/{nbytes}"] = {
            "latency_us": lat,
            **_bestof(walls),
        }
    return out


def _run_fig07_slice(specs, repeats: int) -> dict:
    """Best-of-``repeats`` wall time per point (latencies are identical
    across repeats — the simulator is deterministic).  A single cold run
    would fold interpreter/import warm-up into the first point's rate and
    make the events/sec gate meaningless across revisions."""
    from repro.core.runner import CollectiveSpec, run_collective
    from repro.machine import get_arch

    out = {}
    for alg, params, eta in specs:
        spec = CollectiveSpec(
            "scatter", alg, get_arch("knl"), procs=12, eta=eta, params=params
        )
        walls = []
        res = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = run_collective(spec)
            walls.append(time.perf_counter() - t0)
        summary = _bestof(walls)
        best = summary["wall_s"]
        out[f"{alg}/{eta}"] = {
            "latency_us": res.latency_us,
            "sim_events": res.sim_events,
            "events_per_sec": round(res.sim_events / best, 1) if best else None,
            **summary,
        }
    return out


def _sweep_specs(slice_def: dict):
    from repro.core.runner import CollectiveSpec
    from repro.machine import get_arch

    arch = get_arch(slice_def["arch"])
    return [
        CollectiveSpec(
            coll, alg, arch, procs=slice_def["procs"], eta=eta, params=params
        )
        for coll, alg, params, eta in slice_def["points"]
    ]


def _run_sweep_bench(slice_def: dict, repeats: int) -> dict:
    """Points/sec over one slice, fresh-node vs warm-node (best-of-N).

    The fresh pass is the pre-warm-pool behaviour (a new Node/Comm per
    point); the warm pass reuses one :class:`~repro.core.runner.NodePool`
    across the slice, pool misses included.  Both produce bit-identical
    latencies — the differential suite enforces that; this bench only
    times them.
    """
    from repro.core.runner import NodePool, run_collective, run_collective_pooled

    specs = _sweep_specs(slice_def)
    n = len(specs)
    fresh_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for s in specs:
            run_collective(s)
        fresh_best = min(fresh_best, time.perf_counter() - t0)
    warm_best = float("inf")
    for _ in range(repeats):
        pool = NodePool()
        t0 = time.perf_counter()
        for s in specs:
            run_collective_pooled(s, pool)
        warm_best = min(warm_best, time.perf_counter() - t0)
    return {
        "points": n,
        "fresh": {
            "wall_s": round(fresh_best, 6),
            "points_per_sec": round(n / fresh_best, 2),
        },
        "warm": {
            "wall_s": round(warm_best, 6),
            "points_per_sec": round(n / warm_best, 2),
        },
        "warm_speedup": round(fresh_best / warm_best, 3),
    }


#: The scheduler bench always runs the *full* mixed slice (15 points over
#: two architectures), smoke included: the section is gated, and shrinking
#: the point set in smoke would move the points/sec regime away from the
#: committed full-size baseline the 3x gate compares against.  At ~150 ms
#: of simulation total it is CI-cheap anyway.
SCHED_SLICE_NAMES = ("fig07_scatter_knl", "fig13_scatter_bdw")


def _run_sched_bench(smoke: bool, repeats: int) -> dict:
    """End-to-end work-stealing scheduler walls over the mixed slice.

    Three legs, all over the same fig07+fig13 scatter mix:

    - ``serial_warm`` — the pre-scheduler reference: one warm
      :class:`~repro.core.runner.NodePool`, points run in a plain loop.
    - ``sched`` — the same points through :func:`repro.exec.sweep.run_specs`
      under ``ExecContext(sched="steal")``, cache off: prices chunking,
      routing, and (on multi-CPU hosts) the sticky pool fan-out.  Chunk,
      steal, and cost-model-error counters ride along as plain fields.
    - ``sched_cached`` — an untimed cold pass fills a throwaway sharded
      :class:`~repro.exec.ResultCache`, then timed warm passes reopen the
      directory fresh: the rate prices the batched ``get_many`` read path
      end to end (the acceptance leg — results served, not recomputed).

    Every leg stores events/sec (sim events the returned results
    represent), so the generic >3x gate covers all three; the
    ``speedup_vs_serial_warm`` fields are reported, not gated.
    """
    import shutil
    import tempfile

    from repro.core.runner import NodePool, run_collective_pooled
    from repro.exec import ExecContext, ResultCache, use_context
    from repro.exec.sweep import run_specs

    specs = [
        s for name in SCHED_SLICE_NAMES
        for s in _sweep_specs(SWEEP_SLICES[name])
    ]
    n = len(specs)

    def leg(events: int, walls: list, extra: Optional[dict] = None) -> dict:
        summary = _bestof(walls)
        best = summary["wall_s"]
        out = {
            "points": n,
            "events": events,
            "points_per_sec": round(n / best, 2),
            "events_per_sec": round(events / best, 1),
            **summary,
        }
        if extra:
            out.update(extra)
        return out

    events = 0
    serial_walls = []
    for _ in range(repeats):
        pool = NodePool()
        ev = 0
        t0 = time.perf_counter()
        for s in specs:
            ev += run_collective_pooled(s, pool).sim_events
        serial_walls.append(time.perf_counter() - t0)
        events = ev

    sched_walls = []
    sched_info: dict = {}
    for _ in range(repeats):
        with use_context(ExecContext(workers="auto", sched="steal")) as ctx:
            t0 = time.perf_counter()
            run_specs(specs)
            sched_walls.append(time.perf_counter() - t0)
        err = ctx.stats.sched_cost_err_pct
        sched_info = {
            "workers": ctx.stats.workers,
            "chunks": ctx.stats.sched_chunks,
            "steals": ctx.stats.sched_steals,
            "cost_err_pct": round(err, 1) if err is not None else None,
        }

    cache_dir = tempfile.mkdtemp(prefix="repro-sched-bench-")
    try:
        with use_context(
            ExecContext(workers="auto", sched="steal", cache=ResultCache(cache_dir))
        ):
            run_specs(specs)  # cold fill, untimed
        cached_walls = []
        hits = 0
        for _ in range(repeats):
            # A fresh ResultCache handle each repeat: the timed path is the
            # sharded batched on-disk read, not a warmed in-process object.
            with use_context(
                ExecContext(
                    workers="auto", sched="steal", cache=ResultCache(cache_dir)
                )
            ) as ctx:
                t0 = time.perf_counter()
                run_specs(specs)
                cached_walls.append(time.perf_counter() - t0)
            hits = ctx.stats.cache_hits
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    out = {
        "serial_warm": leg(events, serial_walls),
        "sched": leg(events, sched_walls, sched_info),
        "sched_cached": leg(events, cached_walls, {"cache_hits": hits}),
    }
    out["sched"]["speedup_vs_serial_warm"] = round(
        min(serial_walls) / min(sched_walls), 2
    )
    out["sched_cached"]["speedup_vs_serial_warm"] = round(
        min(serial_walls) / min(cached_walls), 2
    )
    return out


def run_suite(smoke: bool = False, repeats: Optional[int] = None) -> dict:
    """Run every bench; returns the ``BENCH_engine.json`` payload."""
    if repeats is None:
        repeats = 2 if smoke else 3
    engine = {}
    total_events = 0
    total_wall = 0.0
    for name in _ENGINE_BENCHES:
        r = _time_engine_bench(name, smoke, repeats)
        engine[name] = r
        total_events += r["events"]
        total_wall += r["wall_s"]
    engine["overall_events_per_sec"] = round(total_events / total_wall, 1)
    slices = SWEEP_SLICES_SMOKE if smoke else SWEEP_SLICES
    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "engine": engine,
        "convoy": _run_convoy_bench(smoke, repeats),
        "xpmem": _run_xpmem_bench(smoke, repeats),
        "fig03": _run_fig03_slice(
            FIG03_SLICE_SMOKE if smoke else FIG03_SLICE, repeats
        ),
        "fig07": _run_fig07_slice(
            FIG07_SLICE_SMOKE if smoke else FIG07_SLICE, repeats
        ),
        "serve": _run_serve_bench(smoke, repeats),
        "sched": _run_sched_bench(smoke, repeats),
        "sweep": {
            name: _run_sweep_bench(sl, repeats) for name, sl in slices.items()
        },
    }


# --------------------------------------------------------------------------
# Regression check + CLI
# --------------------------------------------------------------------------


def check_sections(
    result: dict, baseline: dict, factor: float = 2.0,
    gate_factor: float = GATE_FACTOR,
) -> dict[str, list[str]]:
    """Per-section regression failures vs ``baseline``.

    Wall-clock comparisons across heterogeneous CI hosts are noisy, hence
    deliberately loose factors: they catch "the fast path fell off", not
    single-digit-percent drift.  Every section in :data:`GATED_SECTIONS`
    compares events/sec per point at ``gate_factor``
    (:data:`GATE_FACTOR`, 3x) and only those sections fail CI.  The
    advisory ``engine`` (events/sec per microbench) and ``sweep`` (warm
    points/sec per slice) sections are reported at ``factor`` (2x).
    Sections missing from either side are skipped.
    """
    sections: dict[str, list[str]] = {}
    failures: list[str] = []
    base = baseline.get("engine", {})
    for name, r in result.get("engine", {}).items():
        if name == "overall_events_per_sec":
            continue
        ref = base.get(name)
        if not isinstance(ref, dict):
            continue
        if r["events_per_sec"] * factor < ref["events_per_sec"]:
            failures.append(
                f"{name}: {r['events_per_sec']:.0f} ev/s vs baseline "
                f"{ref['events_per_sec']:.0f} ev/s (>{factor:g}x regression)"
            )
    sections["engine"] = failures
    for sec in GATED_SECTIONS:
        if sec not in result:
            continue
        failures = []
        base = baseline.get(sec, {})
        for name, r in result[sec].items():
            ref = base.get(name)
            if not isinstance(ref, dict):
                continue
            cur = r.get("events_per_sec")
            refv = ref.get("events_per_sec")
            if cur is None or refv is None:
                continue
            if cur * gate_factor < refv:
                failures.append(
                    f"{name}: {cur:.0f} ev/s vs baseline {refv:.0f} ev/s "
                    f"(>{gate_factor:g}x regression)"
                )
        sections[sec] = failures
    if "sweep" in result:
        failures = []
        base = baseline.get("sweep", {})
        for name, r in result["sweep"].items():
            ref = base.get(name)
            if not isinstance(ref, dict):
                continue
            cur = r["warm"]["points_per_sec"]
            refv = ref["warm"]["points_per_sec"]
            if cur * factor < refv:
                failures.append(
                    f"{name}: {cur:.1f} warm points/s vs baseline "
                    f"{refv:.1f} points/s (>{factor:g}x regression)"
                )
        sections["sweep"] = failures
    return sections


def check_regression(result: dict, baseline: dict, factor: float = 2.0) -> list[str]:
    """All regression failures vs ``baseline`` (see :func:`check_sections`)."""
    return [
        f for fails in check_sections(result, baseline, factor).values()
        for f in fails
    ]


def _delta_table(fresh: dict, baseline: dict) -> list[str]:
    """Markdown per-section delta table: fresh vs committed events/sec.

    Pure dict walk over the two payloads — every section whose points
    carry an ``events_per_sec`` on both sides gets a row per point, with
    the percentage delta and a gating marker.  Points missing from either
    side are listed as ``new``/``gone`` rather than silently skipped, so
    a section rename can't masquerade as a clean run.
    """
    rows = [
        "| section | point | baseline ev/s | fresh ev/s | delta | gated |",
        "|---|---|---:|---:|---:|---|",
    ]
    secs = [
        s for s in fresh
        if isinstance(fresh.get(s), dict) and s not in ("sweep",)
    ]
    for sec in secs:
        base_sec = baseline.get(sec)
        if not isinstance(base_sec, dict):
            base_sec = {}
        gated = "yes" if sec in GATED_SECTIONS else ""
        names = sorted(set(fresh[sec]) | set(base_sec))
        for name in names:
            cur = fresh[sec].get(name)
            ref = base_sec.get(name)
            cur_v = cur.get("events_per_sec") if isinstance(cur, dict) else None
            ref_v = ref.get("events_per_sec") if isinstance(ref, dict) else None
            if cur_v is None and ref_v is None:
                continue
            if cur_v is None:
                rows.append(f"| {sec} | {name} | {ref_v:,.0f} | gone | — | {gated} |")
            elif ref_v is None:
                rows.append(f"| {sec} | {name} | new | {cur_v:,.0f} | — | {gated} |")
            else:
                delta = (cur_v - ref_v) / ref_v * 100.0
                rows.append(
                    f"| {sec} | {name} | {ref_v:,.0f} | {cur_v:,.0f} | "
                    f"{delta:+.1f}% | {gated} |"
                )
    return rows


def compare_trajectory(fresh_path: Path, baseline_path: Path) -> int:
    """CI bench-trajectory step: diff a fresh run against the committed
    baseline, post the per-section delta table to ``GITHUB_STEP_SUMMARY``,
    and fail (exit 1) only on gated-section regressions — advisory
    sections drift with runner hardware and must never block a merge."""
    fresh = json.loads(Path(fresh_path).read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    table = _delta_table(fresh, baseline)
    sections = check_sections(fresh, baseline)
    lines = _summary_lines(fresh, sections)
    for row in table:
        print(row)
    for line in lines:
        print(line)
    _write_step_summary(
        ["### Bench trajectory", ""] + table + [""]
        + [f"- {ln}" for ln in lines],
        bullet=False,
    )
    gating = [f for sec in GATED_SECTIONS for f in sections.get(sec, [])]
    if gating:
        print("PERF REGRESSION vs committed baseline:")
        for f in gating:
            print(f"  {f}")
        return 1
    print(
        f"bench trajectory clean: no >{GATE_FACTOR:g}x regression in gated "
        f"sections ({', '.join(GATED_SECTIONS)})"
    )
    return 0


def _summary_lines(result: dict, sections: dict[str, list[str]]) -> list[str]:
    """One pass/fail line per checked section (CI-readable without the
    artifact; also written to ``$GITHUB_STEP_SUMMARY`` when set)."""
    lines = []
    for sec, fails in sections.items():
        status = "FAIL" if fails else "PASS"
        if sec == "engine":
            metric = f"{result['engine']['overall_events_per_sec']:,.0f} events/sec overall"
        elif sec in GATED_SECTIONS:
            metric = ", ".join(
                f"{name} {r['events_per_sec']:,.0f} ev/s"
                for name, r in result[sec].items()
                if r.get("events_per_sec")
            ) or "no points"
        else:
            pps = ", ".join(
                f"{name} {r['warm']['points_per_sec']:.1f} pts/s "
                f"({r['warm_speedup']:.2f}x warm)"
                for name, r in result["sweep"].items()
            )
            metric = pps or "no slices"
        gate = "" if sec in GATED_SECTIONS else " [non-gating]"
        detail = f"; {len(fails)} regression(s)" if fails else ""
        lines.append(f"perf {sec}: {status}{gate} — {metric}{detail}")
    return lines


def _write_step_summary(lines: list[str], bullet: bool = True) -> None:
    import os

    path = os.environ.get("GITHUB_STEP_SUMMARY", "").strip()
    if not path:
        return
    prefix = "- " if bullet else ""
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for line in lines:
                fh.write(f"{prefix}{line}\n")
    except OSError:  # pragma: no cover - CI filesystem hiccup is non-fatal
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Wall-clock perf suite for the simulator engine.",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized workloads (seconds, not minutes)"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per bench (best-of)"
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="output path (default: ./BENCH_engine.json)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help=(
            "compare against a baseline JSON; exit 1 on a "
            f">{GATE_FACTOR:g}x regression in a gated section"
        ),
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("FRESH", "BASELINE"),
        default=None,
        help="diff two existing result files (no benches run): per-section "
        "delta table to stdout/GITHUB_STEP_SUMMARY, exit 1 only on gated "
        "regressions",
    )
    args = parser.parse_args(argv)

    if args.compare:
        return compare_trajectory(Path(args.compare[0]), Path(args.compare[1]))

    result = run_suite(smoke=args.smoke, repeats=args.repeats)

    for name, r in result["engine"].items():
        if name == "overall_events_per_sec":
            print(f"engine overall: {r:,.0f} events/sec")
        else:
            print(
                f"engine {name:<18} {r['events']:>7} events  "
                f"{r['wall_s']*1e3:8.1f} ms  {r['events_per_sec']:>12,.0f} ev/s"
            )
    for name, r in result["convoy"].items():
        print(
            f"convoy {name:<18} {r['events']:>7} events  "
            f"{r['wall_s']*1e3:8.1f} ms  {r['events_per_sec']:>12,.0f} ev/s"
        )
    for name, r in result["xpmem"].items():
        if "events_per_sec" in r:
            print(
                f"xpmem  {name:<18} {r['events']:>7} events  "
                f"{r['wall_s']*1e3:8.1f} ms  {r['events_per_sec']:>12,.0f} ev/s"
            )
    for arch, r in result["xpmem"]["crossover"].items():
        print(
            f"xpmem  crossover {arch:<9} map {r['map_cost_us']:8.2f} us  "
            f"saves {r['per_copy_saving_us']:7.3f} us/copy  "
            f"pays off after {r['crossover_rounds']} re-reads"
        )
    for section in ("fig03", "fig07"):
        for key, r in result[section].items():
            print(f"{section} {key:<24} {r['wall_s']*1e3:8.1f} ms  "
                  f"(sim {r['latency_us']:.1f} us)")
    sc = result["serve"]
    print(
        f"serve compile  {sc['compile']['rows']} rows  "
        f"{sc['compile']['breakpoints']} breakpoints  "
        f"{sc['compile']['wall_s']*1e3:8.1f} ms"
    )
    for key in ("scalar", "batch"):
        r = sc[key]
        print(
            f"serve {key:<8} {r['queries']:>9} queries  "
            f"{r['wall_s']*1e3:8.1f} ms  {r['queries_per_sec']:>12,.0f} q/s"
        )
    for name, r in result["sched"].items():
        line = (
            f"sched {name:<13} {r['points']:>3} pts  "
            f"{r['wall_s']*1e3:8.1f} ms  {r['points_per_sec']:8.1f} pts/s  "
            f"{r['events_per_sec']:>12,.0f} ev/s"
        )
        if "chunks" in r:
            line += f"  ({r['chunks']} chunks, {r['steals']} steals)"
        if "speedup_vs_serial_warm" in r:
            line += f"  {r['speedup_vs_serial_warm']:.2f}x vs serial"
        print(line)
    for name, r in result["sweep"].items():
        print(
            f"sweep {name:<20} {r['points']:>3} pts  "
            f"fresh {r['fresh']['points_per_sec']:7.1f} pts/s  "
            f"warm {r['warm']['points_per_sec']:7.1f} pts/s  "
            f"({r['warm_speedup']:.2f}x)"
        )

    out_path = Path(args.out)
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        sections = check_sections(result, baseline)
        lines = _summary_lines(result, sections)
        for line in lines:
            print(line)
        _write_step_summary(lines)
        gating = [
            f for sec in GATED_SECTIONS for f in sections.get(sec, [])
        ]
        advisory = [
            f for sec, fails in sections.items()
            if sec not in GATED_SECTIONS for f in fails
        ]
        for f in advisory:
            print(f"  (non-gating) {f}")
        if gating:
            print("PERF REGRESSION vs baseline:")
            for f in gating:
                print(f"  {f}")
            return 1
        print(
            f"no >{GATE_FACTOR:g}x regression in gated sections "
            f"({', '.join(GATED_SECTIONS)}) vs {args.check}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.bench
    import sys

    sys.exit(main())
