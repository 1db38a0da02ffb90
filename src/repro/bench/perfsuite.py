"""Counter-gated perf probes for the simulator (``python -m repro.bench perf``).

Three probes, each of one layer the paper's claims rest on, record
deterministic work counters:

* ``convoy`` — contended mm-lock pin convoys at 2–64 readers, plus a
  ``solo`` reader whose 100,000 uncontended batches collapse into one
  timed hold (3 engine events);
* ``xpmem`` — warm mapped-window copy loops at 2–32 attachers (the
  pin-free steady state), plus each preset architecture's
  map-amortisation crossover in simulated microseconds;
* ``sched`` — the mixed fig07+fig13 slice of :mod:`repro.bench.schedprof`
  through pooled sweep dispatch (points, simulator events), then
  served again from a warm result cache (``cache_hits``).

``--check BASELINE`` compares every counter with the committed
``BENCH_engine.json`` for exact equality and exits 1 naming each one that
differs or is missing on either side: a fast path that falls off shows up
as more events, however fast or loaded the host is.  Walls are printed,
never written or gated; wall time is judged end to end by e2ebench
(``e2ebench/run.py``).

Usage::

    python -m repro.bench perf                          # -> BENCH_engine.json
    python -m repro.bench perf --out BENCH_fresh.json --check BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from repro.sim.engine import Acquire, HoldRelease, PinConvoy, Simulator
from repro.sim.resources import Mutex

__all__ = ["SCHEMA", "SECTIONS", "run_suite", "check", "main"]

SCHEMA = "bench-engine-v2"

#: the probes, in run order: one top-level payload section each
SECTIONS = ("convoy", "xpmem", "sched")

#: convoy points: name -> (readers, 16-page pin batches per reader)
CONVOY_POINTS = {
    **{f"c{r}": (r, 500) for r in (2, 8, 32, 64)},
    "solo": (1, 100_000),
}

#: xpmem points: name -> attachers; each makes XPMEM_ROUNDS warm copies
XPMEM_POINTS = {f"w{r}": r for r in (2, 8, 32)}
XPMEM_ROUNDS = 400
#: exported window size in pages; each round re-reads a 4-page slice, so
#: after the first pass over the window every copy is on the pin-free
#: steady-state path the probe guards.
XPMEM_WINDOW_PAGES = 64
CROSSOVER_ARCHS = ("knl", "broadwell", "power8")


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _say(section: str, name: str, events: int, wall: float) -> None:
    print(f"{section:<6} {name:<6} {events:>8} events  {wall * 1e3:8.1f} ms")


# --------------------------------------------------------------------------
# convoy: the mm-lock convoy fast path
# --------------------------------------------------------------------------


def _convoy(readers: int, rounds: int) -> Simulator:
    """Pure pin convoys on one mm lock, readers on alternating sockets.

    Every reader pins ``rounds`` 16-page batches with no copy time between
    them, through one :class:`~repro.sim.engine.PinConvoy`; the hold model
    has the mm-lock bounce shape (pure in the contender profile, hence
    memoisable).  Under ``Simulator(use_pin_convoy=False)`` each reader
    runs the per-batch ``Acquire``/``HoldRelease`` loop the kernel keeps
    as its reference path instead.
    """
    sim = Simulator()
    lock = Mutex(sim, "mm")
    memo: dict = {}

    def hold(pages, proc):
        same, other = lock.contention_profile(proc.socket)
        return pages * 0.05 + 0.8 * max(same - 1, 0) + 2.4 * other

    def reader(me):
        if sim.use_pin_convoy:
            yield PinConvoy(lock, hold, [(16, 0.0)] * rounds, memo=memo)
            return
        for _ in range(rounds):
            yield Acquire(lock)
            yield HoldRelease(lock, hold(16, me))

    for i in range(readers):
        sim.spawn(reader(SimpleNamespace(socket=i % 2)), name=f"r{i}", socket=i % 2)
    sim.run()
    return sim


def probe_convoy() -> dict:
    out = {}
    for name, (readers, rounds) in CONVOY_POINTS.items():
        sim, wall = _timed(_convoy, readers, rounds)
        out[name] = {"events": sim.events_processed}
        _say("convoy", name, sim.events_processed, wall)
    return out


# --------------------------------------------------------------------------
# xpmem: the pin-free mapped-window steady state
# --------------------------------------------------------------------------


def _xpmem_steady(readers: int, rounds: int) -> Simulator:
    """Warm mapped-window copies.

    One owner exports a window; ``readers`` attachers map it once, fault
    its pages on the first pass, then stay on the steady-state path: no
    mm-lock traffic at all, just priced ``Delay`` events.  Re-acquiring
    the owner's mm lock per warm copy would multiply the event count.
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
    nbytes = 4 * node.arch.params.page_size
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


def _crossover(arch_name: str) -> dict:
    """Map-amortisation crossover, from two simulated points per mechanism.

    Both costs are affine in the round count r — CMA pays a per-round pin,
    xpmem a one-time map+fault — so two runs each pin slope and intercept
    exactly, and the crossover is where the lines meet: the number of
    re-reads after which the mapped window has paid for itself.
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
    return {
        "map_cost_us": round(map_cost, 4),
        "per_copy_saving_us": round(saving, 4),
        "crossover_rounds": (
            max(1, math.ceil(map_cost / saving)) if saving > 0 else None
        ),
    }


def probe_xpmem() -> dict:
    out = {}
    for name, readers in XPMEM_POINTS.items():
        sim, wall = _timed(_xpmem_steady, readers, XPMEM_ROUNDS)
        out[name] = {"events": sim.events_processed}
        _say("xpmem", name, sim.events_processed, wall)
    out["crossover"] = {arch: _crossover(arch) for arch in CROSSOVER_ARCHS}
    for arch, r in out["crossover"].items():
        print(
            f"xpmem  crossover {arch:<9} map {r['map_cost_us']:8.2f} us  "
            f"saves {r['per_copy_saving_us']:7.3f} us/copy  "
            f"pays off after {r['crossover_rounds']} re-reads"
        )
    return out


# --------------------------------------------------------------------------
# sched: the sweep scheduler and the result cache behind it
# --------------------------------------------------------------------------


def probe_sched() -> dict:
    """The mixed slice through pooled dispatch, then from a warm cache.

    Gated: the point count, the simulator events the results represent,
    and the warm pass's cache hits (every point must be served).  Workers
    and chunks depend on the host's CPU count, so they are printed only.
    """
    from repro.bench.schedprof import run_slice, slice_specs
    from repro.exec import ExecContext, ResultCache, use_context
    from repro.exec.sweep import run_specs

    results, stats, wall = run_slice("mixed")
    events = sum(r.sim_events for r in results)
    _say("sched", "mixed", events, wall)
    print(
        f"sched  mixed  {stats.points} points on {stats.workers} worker(s): "
        f"{stats.chunks} chunks"
    )
    specs = slice_specs("mixed")
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as cache_dir:
        for _ in range(2):  # fill the cache, then the warm pass
            with use_context(
                ExecContext(workers=1, cache=ResultCache(cache_dir))
            ) as ctx:
                run_specs(specs)
    hits = ctx.stats.cache_hits
    print(f"sched  warm   {hits} of {len(specs)} points from the cache")
    return {"points": len(results), "sim_events": events, "cache_hits": hits}


def run_suite() -> dict:
    """Run the three probes; returns the ``BENCH_engine.json`` payload."""
    return {
        "schema": SCHEMA,
        "convoy": probe_convoy(),
        "xpmem": probe_xpmem(),
        "sched": probe_sched(),
    }


# --------------------------------------------------------------------------
# Counter check + CLI
# --------------------------------------------------------------------------


class _Missing:
    def __repr__(self) -> str:
        return "missing"


_MISSING = _Missing()


def _counters(payload: dict, prefix: str = "") -> dict:
    """Flatten a payload into ``{"section.point.counter": value}``."""
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(_counters(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def check(fresh: dict, baseline: dict) -> dict[str, list[str]]:
    """Counters that differ between ``fresh`` and ``baseline``, by section.

    Every counter is compared for exact equality.  One present on only
    one side is a mismatch too, so a dropped or renamed point never
    passes silently.
    """
    new, old = _counters(fresh), _counters(baseline)
    sections: dict[str, list[str]] = {sec: [] for sec in SECTIONS}
    for path in sorted(old.keys() | new.keys()):
        was, now = old.get(path, _MISSING), new.get(path, _MISSING)
        if was != now:
            sections.setdefault(path.split(".")[0], []).append(
                f"{path}: {was!r} → {now!r}"
            )
    return sections


def _summary_lines(sections: dict[str, list[str]]) -> list[str]:
    """One pass/fail line per section (also written to
    ``$GITHUB_STEP_SUMMARY`` when set)."""
    return [
        f"perf {sec}: FAIL — {len(fails)} counter(s) differ" if fails
        else f"perf {sec}: PASS"
        for sec, fails in sections.items()
    ]


def _write_step_summary(lines: list[str]) -> None:
    path = os.environ.get("GITHUB_STEP_SUMMARY", "").strip()
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for line in lines:
                fh.write(f"- {line}\n")
    except OSError:  # pragma: no cover - CI filesystem hiccup is non-fatal
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Counter-gated perf probes: convoy, xpmem and sched.",
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="output path (default: ./BENCH_engine.json; never written "
        "when it is the --check baseline)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare every counter with a baseline JSON; exit 1 naming "
        "each one that differs or is missing on either side",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.check).read_text()) if args.check else None
    result = run_suite()
    out_path = Path(args.out)
    if args.check is None or out_path.resolve() != Path(args.check).resolve():
        out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out_path}")
    if baseline is None:
        return 0

    sections = check(result, baseline)
    lines = _summary_lines(sections)
    for line in lines:
        print(line)
    _write_step_summary(lines)
    fails = [f for sec in sections.values() for f in sec]
    if fails:
        print(f"COUNTER MISMATCH vs {args.check} (baseline → fresh):")
        for f in fails:
            print(f"  {f}")
        return 1
    print(f"every counter matches {args.check}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.bench
    import sys

    sys.exit(main())
