"""Figure/table generators: one function per evaluation artifact.

Every generator returns an :class:`Experiment` holding rendered ASCII
tables (the figure's rows/series) plus the raw data dict the benchmark
harness asserts shape criteria against.  ``quick=True`` (the default used
by pytest benchmarks) trims sweeps to keep a full regeneration under a
few minutes; ``quick=False`` reproduces the paper's full axes.

Experiment ids match DESIGN.md's per-experiment index: ``fig02``..``fig18``,
``tab03``..``tab07``, ``ablation_*``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.bench import microbench
from repro.bench.report import Series, Table, format_bytes, sweep_summary
from repro.core import fitting
from repro.core.baselines import LIBRARY_NAMES, library
from repro.core.model import AnalyticModel
from repro.core.multinode import MultiNodeModel
from repro.core.runner import CollectiveSpec
from repro.core.tuning import Tuner
from repro.exec import context as exec_context
from repro.exec.sweep import cached_call, run_specs, sweep_microbench
from repro.exec.sweep import run_collective as run_point
from repro.machine import ARCH_NAMES, get_arch

__all__ = ["Experiment", "CATALOGUE", "run_experiment", "experiment_ids"]


@dataclass
class Experiment:
    """One regenerated evaluation artifact."""

    id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    #: how the sweep executed (points, cache hits, workers, wall time)
    stats: Optional[exec_context.SweepStats] = None

    def render(self) -> str:
        parts = [f"### {self.id}: {self.title}"]
        parts += [t.render() for t in self.tables]
        if self.stats is not None and self.stats.points_total:
            parts.append(sweep_summary(self.stats))
        return "\n\n".join(parts)


def _sizes(quick: bool, lo: int = 4096, hi: int = 4 << 20) -> list[int]:
    sizes, n = [], lo
    step = 16 if quick else 4
    while n <= hi:
        sizes.append(n)
        n *= step
    if sizes[-1] != hi:
        sizes.append(hi)
    return sizes


def _sim_latency(coll, alg, arch, p, eta, params=None) -> float:
    spec = CollectiveSpec(
        coll, alg, arch, procs=p, eta=eta, params=params or {}, verify=False
    )
    return run_point(spec).latency_us


# ---------------------------------------------------------------------------
# Section I/II microbenchmarks
# ---------------------------------------------------------------------------


def fig02(quick: bool = True) -> Experiment:
    """CMA read latency under three access patterns on KNL (Fig. 2)."""
    arch = get_arch("knl")
    readers = [1, 4, 8, 16] if quick else [1, 4, 8, 16, 32, 64]
    sizes = _sizes(quick, 4096, 1 << 20)
    exp = Experiment("fig02", "CMA read latency vs access pattern (KNL)")
    data: dict = {}
    patterns = [
        ("all-to-all (disjoint pairs)", "all_to_all_latency", {}),
        ("one-to-all (same buffer)", "one_to_all_latency", {"pattern": "same-buffer"}),
        (
            "one-to-all (different buffers)",
            "one_to_all_latency",
            {"pattern": "different-buffers"},
        ),
    ]
    for pname, fname, kw in patterns:
        vals = iter(
            sweep_microbench(
                fname,
                [(get_arch("knl"), (c, n), kw) for n in sizes for c in readers],
            )
        )
        s = Series(f"{pname}", "msg", [f"{c}r" for c in readers])
        grid = {}
        for n in sizes:
            row = {f"{c}r": next(vals) for c in readers}
            grid[n] = row
            s.add_point(n, row)
        data[pname] = grid
        exp.tables.append(s)
    exp.data = {"readers": readers, "sizes": sizes, "grid": data}
    return exp


def fig03(quick: bool = True) -> Experiment:
    """One-to-all degradation across the three architectures (Fig. 3)."""
    exp = Experiment("fig03", "One-to-all CMA read latency per architecture")
    sizes = _sizes(quick, 16 * 1024, 4 << 20)
    data = {}
    for name in ARCH_NAMES:
        arch = get_arch(name)
        top = min(arch.default_procs - 1, 64)
        readers = [1, 4, 16, top] if quick else [1, 2, 4, 8, 16, 32, top]
        vals = iter(
            sweep_microbench(
                "one_to_all_latency",
                [(get_arch(name), (c, n), {}) for n in sizes for c in readers],
            )
        )
        s = Series(f"{name}", "msg", [f"{c}r" for c in readers])
        grid = {}
        for n in sizes:
            row = {f"{c}r": next(vals) for c in readers}
            grid[n] = row
            s.add_point(n, row)
        data[name] = {"readers": readers, "grid": grid}
        exp.tables.append(s)
    exp.data = data
    return exp


def fig04(quick: bool = True) -> Experiment:
    """Phase breakdown of a CMA read (Fig. 4, Broadwell), from the kernel's
    phase counters; the paper measured it with ftrace."""
    arch_name = "broadwell"
    pages_list = [10, 100] if quick else [1, 10, 100, 1000]
    readers_list = [1, 4, 27]
    exp = Experiment("fig04", "CMA read phase breakdown (Broadwell)")
    t = Table(
        "per-call phase times (us)",
        ["pages", "readers", "syscall", "check", "lock", "pin", "copy"],
    )
    data = {}
    for pages in pages_list:
        for readers in readers_list:
            ph = microbench.phase_breakdown(get_arch(arch_name), readers, pages)
            data[(pages, readers)] = ph
            t.add(
                pages,
                readers,
                *(f"{ph.get(k, 0.0):.2f}" for k in ("syscall", "check", "lock", "pin", "copy")),
            )
    exp.tables.append(t)
    exp.data = {"breakdown": data}
    return exp


def tab03(quick: bool = True) -> Experiment:
    """Step-triggering measurements T1..T4 (Table III)."""
    exp = Experiment("tab03", "CMA step timings via iovec games")
    t = Table("step timings (us)", ["arch", "pages", "T1 syscall", "T2 check", "T3 lock+pin", "T4 copy"])
    data = {}
    for name in ARCH_NAMES:
        for pages in (4, 64):
            s = fitting.measure_steps(get_arch(name), pages)
            data[(name, pages)] = s
            t.add(
                name,
                pages,
                f"{s.t1_syscall:.2f}",
                f"{s.t2_check:.2f}",
                f"{s.t3_lock_pin:.2f}",
                f"{s.t4_copy:.2f}",
            )
    exp.tables.append(t)
    exp.data = {"steps": data}
    return exp


def tab04(quick: bool = True) -> Experiment:
    """Fitted model parameters per architecture (Table IV)."""
    exp = Experiment("tab04", "Fitted model parameters (alpha, beta, l, s, gamma)")
    t = Table("parameters", ["arch", "alpha", "beta", "l", "s", "gamma(c)"])
    fits = {}
    for name in ARCH_NAMES:
        arch = get_arch(name)
        readers = None
        if quick:
            top = min(arch.default_procs - 1, 32)
            readers = [1, 2, 4, 8, 16, top]
        fa = fitting.fit_architecture(arch, page_counts=(10, 50), reader_counts=readers)
        fits[name] = fa
        row = fa.as_table_row()
        t.add(name, row["alpha"], row["beta"], row["l"], row["s"], row["gamma(c)"])
    exp.tables.append(t)
    exp.data = {"fits": fits}
    return exp


def fig05(quick: bool = True) -> Experiment:
    """Contention factor gamma vs concurrency with NLLS fit (Fig. 5)."""
    exp = Experiment("fig05", "Contention factor gamma(c) and NLLS best fit")
    data = {}
    for name in ARCH_NAMES:
        arch = get_arch(name)
        top = min(arch.default_procs - 1, 32 if quick else 64)
        readers = sorted({1, 2, 4, 8, 12, 16, 20, top} & set(range(1, top + 1)))
        pages = (10, 50) if quick else (10, 50, 100)
        samples = fitting.measure_gamma(arch, pages, readers)
        knee = arch.topology.cores_per_socket if arch.topology.sockets > 1 else None
        fit = fitting.fit_gamma(samples, knee=knee)
        data[name] = {"samples": samples, "fit": fit}
        s = Series(f"{name} (fit g1={fit.g1:.2f} g2={fit.g2:.3f} spill={fit.spill:.3f})",
                   "readers", [f"{p}pg" for p in pages] + ["fit"])
        for c in readers:
            row = {
                f"{p}pg": next(
                    x.gamma for x in samples if x.readers == c and x.pages == p
                )
                for p in pages
            }
            row["fit"] = fit(c)
            s.add_raw_point(str(c), row)
        exp.tables.append(s)
    exp.data = data
    return exp


def fig06(quick: bool = True) -> Experiment:
    """Relative read throughput vs concurrency (Fig. 6): the sweet spot."""
    exp = Experiment("fig06", "Relative CMA read throughput (vs 1 reader)")
    sizes = _sizes(quick, 16 * 1024, 4 << 20)
    data = {}
    for name in ARCH_NAMES:
        arch = get_arch(name)
        top = min(arch.default_procs - 1, 64)
        readers = [2, 4, 8, 16] if quick else [2, 4, 8, 16, 32, top]
        readers = [c for c in readers if c <= top] + ([top] if top not in readers else [])
        vals = iter(
            sweep_microbench(
                "relative_throughput",
                [(get_arch(name), (c, n), {}) for n in sizes for c in readers],
            )
        )
        s = Series(f"{name}", "msg", [f"{c}r" for c in readers])
        grid = {}
        for n in sizes:
            row = {f"{c}r": next(vals) for c in readers}
            grid[n] = row
            s.add_point(n, row)
        data[name] = {"readers": readers, "grid": grid}
        exp.tables.append(s)
    exp.data = data
    return exp


# ---------------------------------------------------------------------------
# Algorithm comparisons (Figs 7-11) and model validation (Fig 12)
# ---------------------------------------------------------------------------

_ALGO_PROCS = {"knl": 64, "broadwell": 28, "power8": 160}
_QUICK_PROCS = {"knl": 32, "broadwell": 28, "power8": 40}


def _procs_for(name: str, quick: bool) -> int:
    return (_QUICK_PROCS if quick else _ALGO_PROCS)[name]


def _algo_figure(
    exp_id: str,
    title: str,
    collective: str,
    variants: Callable[[str, int], list[tuple[str, str, dict]]],
    quick: bool,
    archs=ARCH_NAMES,
    lo: int = 16 * 1024,
    hi: int = 4 << 20,
) -> Experiment:
    exp = Experiment(exp_id, title)
    sizes = _sizes(quick, lo, hi)
    data = {}
    # One flat spec list across (arch x size x variant) so the whole figure
    # fans out over the executor at once.
    per_arch = {}
    specs, where = [], []
    for name in archs:
        p = _procs_for(name, quick)
        vs = variants(name, p)
        per_arch[name] = (p, vs)
        for eta in sizes:
            for label, alg, params in vs:
                specs.append(
                    CollectiveSpec(
                        collective, alg, get_arch(name),
                        procs=p, eta=eta, params=params, verify=False,
                    )
                )
                where.append((name, eta, label))
    lats = {w: r.latency_us for w, r in zip(where, run_specs(specs))}
    for name in archs:
        p, vs = per_arch[name]
        s = Series(f"{name}, {p} processes", "msg", [v[0] for v in vs])
        grid = {}
        for eta in sizes:
            row = {label: lats[(name, eta, label)] for label, _, _ in vs}
            grid[eta] = row
            s.add_point(eta, row)
        data[name] = {"procs": p, "grid": grid, "variants": [v[0] for v in vs]}
        exp.tables.append(s)
    exp.data = data
    return exp


def _throttles(name: str, p: int) -> list[int]:
    ks = [k for k in get_arch(name).throttle_candidates if k < p]
    return ks


def fig07(quick: bool = True) -> Experiment:
    """Scatter algorithms per architecture (Fig. 7)."""

    def variants(name, p):
        out = [("par-read", "parallel_read", {}), ("seq-write", "sequential_write", {})]
        out += [
            (f"thr-{k}", "throttled_read", {"k": k}) for k in _throttles(name, p)
        ]
        out.append(("xpmem", "xpmem_read", {}))
        return out

    return _algo_figure("fig07", "Scatter algorithm comparison", "scatter", variants, quick)


def fig08(quick: bool = True) -> Experiment:
    """Gather algorithms per architecture (Fig. 8)."""

    def variants(name, p):
        out = [("par-write", "parallel_write", {}), ("seq-read", "sequential_read", {})]
        out += [
            (f"thr-{k}", "throttled_write", {"k": k}) for k in _throttles(name, p)
        ]
        out.append(("xpmem", "xpmem_write", {}))
        return out

    return _algo_figure("fig08", "Gather algorithm comparison", "gather", variants, quick)


def fig09(quick: bool = True) -> Experiment:
    """Alltoall: SHMEM vs CMA-pt2pt vs CMA-coll (Fig. 9)."""

    def variants(name, p):
        return [
            ("SHMEM", "pairwise_shm", {}),
            ("CMA-pt2pt", "pairwise_pt2pt", {}),
            ("CMA-coll", "pairwise", {}),
            ("XPMEM", "xpmem_pairwise", {}),
        ]

    return _algo_figure(
        "fig09",
        "Alltoall pairwise implementations",
        "alltoall",
        variants,
        quick,
        archs=("knl", "broadwell"),
        lo=4096,
        hi=(256 * 1024 if quick else 1 << 20),
    )


def fig10(quick: bool = True) -> Experiment:
    """Allgather algorithms, including socket-aware ring strides (Fig. 10)."""

    def variants(name, p):
        out = [
            ("ring-src-rd", "ring_source_read", {}),
            ("ring-src-wr", "ring_source_write", {}),
            ("rec-dbl", "recursive_doubling", {}),
            ("bruck", "bruck", {}),
        ]
        out.append(("ring-nbr-1", "ring_neighbor", {"j": 1}))
        if name == "broadwell":
            out.append(("ring-nbr-5", "ring_neighbor", {"j": 5}))
        out.append(("xpmem-ring", "xpmem_ring", {}))
        return out

    return _algo_figure(
        "fig10",
        "Allgather algorithm comparison",
        "allgather",
        variants,
        quick,
        lo=16 * 1024,
        hi=(512 * 1024 if quick else 1 << 20),
    )


def fig11(quick: bool = True) -> Experiment:
    """Broadcast algorithms (Fig. 11)."""

    def variants(name, p):
        out = [
            ("dir-read", "direct_read", {}),
            ("dir-write", "direct_write", {}),
            ("scat-allg", "scatter_allgather", {}),
        ]
        ks = (2, 4, 8) if name != "power8" else (4, 10)
        out += [(f"knom-{k}", "knomial", {"k": k}) for k in ks]
        out.append(("xpmem", "xpmem_read", {}))
        return out

    return _algo_figure("fig11", "Broadcast algorithm comparison", "bcast", variants, quick)


def fig12(quick: bool = True) -> Experiment:
    """Model validation: predicted vs simulated Bcast latency (Fig. 12)."""
    exp = Experiment("fig12", "Model validation (Bcast: actual vs modeled)")
    algs = [
        ("direct_read", {}),
        ("direct_write", {}),
        ("scatter_allgather", {}),
    ]
    sizes = _sizes(quick, 16 * 1024, 4 << 20)
    data = {}
    for name in ("knl", "broadwell"):
        p = _procs_for(name, quick)
        tuner = Tuner.calibrated(get_arch(name))
        model = AnalyticModel(tuner.arch)
        cols = []
        for alg, _ in algs:
            cols += [f"act:{alg[:9]}", f"mod:{alg[:9]}"]
        s = Series(f"{name}, {p} processes", "msg", cols)
        grid = {}
        for eta in sizes:
            row = {}
            for alg, params in algs:
                act = _sim_latency("bcast", alg, get_arch(name), p, eta, params)
                mod = model.predict("bcast", alg, p, eta, **params)
                row[f"act:{alg[:9]}"] = act
                row[f"mod:{alg[:9]}"] = mod
            grid[eta] = row
            s.add_point(eta, row)
        data[name] = {"procs": p, "grid": grid}
        exp.tables.append(s)
    exp.data = data
    return exp


# ---------------------------------------------------------------------------
# Library comparisons (Figs 13-16, 18; Tables VI, VII)
# ---------------------------------------------------------------------------


def _lib_figure(
    exp_id: str,
    title: str,
    collective: str,
    quick: bool,
    archs=ARCH_NAMES,
    lo: int = 16 * 1024,
    hi: int = 4 << 20,
) -> Experiment:
    exp = Experiment(exp_id, title)
    sizes = _sizes(quick, lo, hi)
    data = {}
    for name in archs:
        p = _procs_for(name, quick)
        tuner = Tuner.calibrated(get_arch(name))
        specs, where = [], []
        for eta in sizes:
            specs.append(tuner.spec(collective, eta, p))
            where.append((eta, "proposed"))
            for lib in LIBRARY_NAMES:
                specs.append(library(lib).spec(collective, get_arch(name), eta, p))
                where.append((eta, lib))
        lats = {w: r.latency_us for w, r in zip(where, run_specs(specs))}
        cols = ["proposed"] + list(LIBRARY_NAMES)
        s = Series(f"{name}, {p} processes", "msg", cols)
        grid = {}
        for eta in sizes:
            row = {col: lats[(eta, col)] for col in cols}
            grid[eta] = row
            s.add_point(eta, row)
        data[name] = {"procs": p, "grid": grid}
        exp.tables.append(s)
    exp.data = data
    return exp


def fig13(quick: bool = True) -> Experiment:
    """MPI_Scatter: Proposed vs libraries (Fig. 13)."""
    return _lib_figure("fig13", "MPI_Scatter vs state-of-the-art libraries", "scatter", quick)


def fig14(quick: bool = True) -> Experiment:
    """MPI_Gather: Proposed vs libraries (Fig. 14)."""
    return _lib_figure("fig14", "MPI_Gather vs state-of-the-art libraries", "gather", quick)


def fig15(quick: bool = True) -> Experiment:
    """MPI_Alltoall: Proposed vs libraries (Fig. 15)."""
    return _lib_figure(
        "fig15",
        "MPI_Alltoall vs state-of-the-art libraries",
        "alltoall",
        quick,
        archs=("knl", "broadwell"),
        lo=4096,
        hi=(256 * 1024 if quick else 1 << 20),
    )


def fig16(quick: bool = True) -> Experiment:
    """MPI_Allgather: Proposed vs libraries (Fig. 16)."""
    return _lib_figure(
        "fig16",
        "MPI_Allgather vs state-of-the-art libraries",
        "allgather",
        quick,
        archs=("knl", "broadwell"),
        lo=16 * 1024,
        hi=(512 * 1024 if quick else 1 << 20),
    )


def fig18(quick: bool = True) -> Experiment:
    """MPI_Bcast: Proposed vs libraries (Fig. 18)."""
    return _lib_figure(
        "fig18",
        "MPI_Bcast vs state-of-the-art libraries",
        "bcast",
        quick,
        archs=("broadwell", "power8"),
        lo=16 * 1024,
        hi=(8 << 20 if quick else 16 << 20),
    )


def fig17(quick: bool = True) -> Experiment:
    """Multi-node Gather scalability: two-level vs flat (Fig. 17).

    Analytic sweep at the paper's scale, plus a discrete-event validation
    at reduced scale: the simulated cluster runs both designs with real
    bytes over the fabric and verifies the gathered result.
    """
    import functools

    from repro.core.hierarchical import flat_gather, two_level_gather
    from repro.machine import make_generic
    from repro.mpi.cluster import Cluster

    exp = Experiment("fig17", "Multi-node Gather: two-level vs single-level")
    mn = MultiNodeModel(get_arch("knl"))
    ppn = 64
    sizes = _sizes(False, 16 * 1024, 1 << 20)  # analytic: full axis is cheap
    data = {}
    for nodes in (2, 4, 8):
        s = Series(
            f"{nodes} nodes, {nodes * ppn} processes", "msg",
            ["flat", "two_level", "pipelined", "speedup"],
        )
        grid = {}
        for eta in sizes:
            pt = mn.fig17_point(nodes, ppn, eta)
            grid[eta] = pt
            s.add_point(eta, pt)
        data[nodes] = grid
        exp.tables.append(s)
    # DES validation at reduced scale (8 ranks/node)
    sim_ppn = 8
    af = functools.partial(make_generic, sockets=1, cores_per_socket=sim_ppn)
    sim_table = Table(
        f"DES validation ({sim_ppn} ranks/node, 16K, verified bytes)",
        ["nodes", "flat (us)", "two-level (us)", "speedup"],
    )
    sim_data = {}
    for nodes in (2, 4, 8):
        flat = cached_call(
            "figures.fig17_des",
            ("flat", nodes, sim_ppn, 16 * 1024),
            lambda: flat_gather(Cluster(af, nodes, sim_ppn), 16 * 1024),
        )
        two = cached_call(
            "figures.fig17_des",
            ("two_level", nodes, sim_ppn, 16 * 1024),
            lambda: two_level_gather(Cluster(af, nodes, sim_ppn), 16 * 1024),
        )
        ratio = flat.latency_us / two.latency_us
        sim_data[nodes] = ratio
        sim_table.add(nodes, f"{flat.latency_us:.0f}", f"{two.latency_us:.0f}",
                      f"{ratio:.2f}x")
    exp.tables.append(sim_table)
    exp.data = {"model": data, "sim_speedups": sim_data}
    return exp


_TABLE_COLLECTIVES = ("bcast", "scatter", "gather", "allgather", "alltoall")


def _speedup_grid(quick: bool, largest_only: bool) -> dict:
    # Enumerate the full (arch x collective x size x impl) grid up front
    # and fan it out in one sweep; ratios are assembled afterwards.
    axes: dict[tuple[str, str], list[int]] = {}
    specs, where = [], []
    for name in ARCH_NAMES:
        p = _procs_for(name, quick)
        arch = get_arch(name)
        hi = min(arch.max_msg, 4 << 20) if quick else arch.max_msg
        tuner = Tuner.calibrated(get_arch(name))
        for coll in _TABLE_COLLECTIVES:
            top = hi
            if coll in ("alltoall", "allgather"):
                top = min(hi, 512 * 1024 if quick else 1 << 20)
            sizes = [top] if largest_only else _sizes(quick, 16 * 1024, top)
            axes[(name, coll)] = sizes
            for eta in sizes:
                specs.append(tuner.spec(coll, eta, p))
                where.append((name, coll, eta, "ours"))
                for lib in LIBRARY_NAMES:
                    specs.append(library(lib).spec(coll, get_arch(name), eta, p))
                    where.append((name, coll, eta, lib))
    lats = {w: r.latency_us for w, r in zip(where, run_specs(specs))}
    out = {}
    for name in ARCH_NAMES:
        for coll in _TABLE_COLLECTIVES:
            sizes = axes[(name, coll)]
            for lib in LIBRARY_NAMES:
                best = 0.0
                at = None
                for eta in sizes:
                    ratio = lats[(name, coll, eta, lib)] / lats[(name, coll, eta, "ours")]
                    if ratio > best:
                        best, at = ratio, eta
                out[(name, coll, lib)] = (best, at)
    return out


def tab06(quick: bool = True) -> Experiment:
    """Maximum speedup vs each library (Table VI)."""
    exp = Experiment("tab06", "Max speedup of Proposed vs libraries")
    grid = _speedup_grid(quick, largest_only=False)
    t = Table("max speedup (x)", ["collective", *(f"{a}:{l}" for a in ARCH_NAMES for l in LIBRARY_NAMES)])
    for coll in _TABLE_COLLECTIVES:
        t.add(
            coll,
            *(
                f"{grid[(a, coll, l)][0]:.1f}"
                for a in ARCH_NAMES
                for l in LIBRARY_NAMES
            ),
        )
    exp.tables.append(t)
    exp.data = {"grid": grid}
    return exp


def tab07(quick: bool = True) -> Experiment:
    """Speedup at the largest evaluated message size (Table VII)."""
    exp = Experiment("tab07", "Speedup at the largest message size")
    grid = _speedup_grid(quick, largest_only=True)
    t = Table("speedup at max size (x)", ["collective", *(f"{a}:{l}" for a in ARCH_NAMES for l in LIBRARY_NAMES)])
    for coll in _TABLE_COLLECTIVES:
        t.add(
            coll,
            *(
                f"{grid[(a, coll, l)][0]:.2f}"
                for a in ARCH_NAMES
                for l in LIBRARY_NAMES
            ),
        )
    exp.tables.append(t)
    exp.data = {"grid": grid}
    return exp


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md Section 5)
# ---------------------------------------------------------------------------


def ablation_bounce(quick: bool = True) -> Experiment:
    """Disable cache-line bouncing: contention collapses to ~linear and the
    throttled designs lose most of their edge."""
    from dataclasses import replace

    exp = Experiment("ablation_bounce", "mm-lock bounce term on/off")
    base = get_arch("knl")
    flat = replace(base, params=base.params.with_updates(kappa_intra=0.0, kappa_inter=0.0))
    readers = [1, 4, 16] if quick else [1, 4, 16, 32, 63]
    t = Table("per-page lock+pin ratio vs 1 reader", ["readers", "with bounce", "no bounce"])
    data = {}
    for which, arch in (("with", base), ("without", flat)):
        base_t = microbench.lock_pin_per_page(arch, 1, 32)
        data[which] = {
            c: microbench.lock_pin_per_page(arch, c, 32) / base_t for c in readers
        }
    for c in readers:
        t.add(c, f"{data['with'][c]:.1f}", f"{data['without'][c]:.1f}")
    exp.tables.append(t)
    p, eta = (32, 1 << 20) if quick else (64, 4 << 20)
    ratios = {}
    for which, arch_base in (("with", "knl"), ("without", None)):
        arch = get_arch("knl") if which == "with" else replace(
            get_arch("knl"),
            params=get_arch("knl").params.with_updates(kappa_intra=0.0, kappa_inter=0.0),
        )
        par = _sim_latency("scatter", "parallel_read", arch, p, eta)
        thr = _sim_latency("scatter", "throttled_read", arch, p, eta, {"k": 8})
        ratios[which] = par / thr
    t2 = Table("parallel-read / throttled-8 scatter latency", ["bounce", "ratio"])
    t2.add("with", f"{ratios['with']:.2f}")
    t2.add("without", f"{ratios['without']:.2f}")
    exp.tables.append(t2)
    exp.data = {"gamma": data, "scatter_ratio": ratios}
    return exp


def ablation_batch(quick: bool = True) -> Experiment:
    """Page-pin batch size: more batching = fewer lock fights per byte."""
    from dataclasses import replace

    exp = Experiment("ablation_batch", "pin batch size sweep")
    batches = [1, 4, 16, 64]
    readers, pages = (16, 64) if quick else (32, 256)
    t = Table("one-to-all latency (us)", ["pin_batch", "latency"])
    data = {}
    for b in batches:
        base = get_arch("knl")
        arch = replace(base, params=base.params.with_updates(pin_batch=b))
        lat = microbench.one_to_all_latency(arch, readers, pages * 4096)
        data[b] = lat
        t.add(b, f"{lat:.1f}")
    exp.tables.append(t)
    exp.data = {"latency": data}
    return exp


def ablation_throttle(quick: bool = True) -> Experiment:
    """Model-derived k* vs exhaustive simulation sweep."""
    exp = Experiment("ablation_throttle", "throttle factor: model pick vs simulation")
    name = "knl"
    p = _procs_for(name, quick)
    eta = 1 << 20
    tuner = Tuner.calibrated(get_arch(name))
    model_k = tuner.best_throttle("scatter", eta, p)
    ks = sorted({1, 2, 4, 8, 16, model_k, p - 1})
    t = Table(f"scatter {format_bytes(eta)} x{p} (KNL)", ["k", "sim latency (us)", "model (us)"])
    sim = {}
    for k in ks:
        lat = _sim_latency("scatter", "throttled_read", get_arch(name), p, eta, {"k": k})
        sim[k] = lat
        t.add(k, f"{lat:.1f}", f"{tuner.model.scatter_throttled(p, eta, k):.1f}")
    sim_k = min(sim, key=sim.get)
    exp.tables.append(t)
    exp.data = {"model_k": model_k, "sim_k": sim_k, "sim": sim}
    return exp


def ext_model_scorecard(quick: bool = True) -> Experiment:
    """Extension: Fig 12's validation extended to the whole algorithm matrix.

    For every (collective, algorithm) with a closed form, compare the
    calibrated model's prediction against simulation across sizes and
    report the mean absolute relative error — the quantitative version of
    "the proposed model is able to accurately predict the actual
    performance".
    """
    exp = Experiment(
        "ext_model_scorecard", "Model vs simulation across the algorithm matrix"
    )
    name = "knl"
    p = 16 if quick else 32
    sizes = [16 * 1024, 256 * 1024, 2 << 20]
    tuner = Tuner.calibrated(get_arch(name))
    model = AnalyticModel(tuner.arch)
    matrix = [
        ("scatter", "parallel_read", {}),
        ("scatter", "sequential_write", {}),
        ("scatter", "throttled_read", {"k": 4}),
        ("scatter", "xpmem_read", {}),
        ("gather", "throttled_write", {"k": 4}),
        ("alltoall", "pairwise", {}),
        ("alltoall", "xpmem_pairwise", {}),
        ("allgather", "ring_source_read", {}),
        ("allgather", "xpmem_ring", {}),
        ("allgather", "recursive_doubling", {}),
        ("bcast", "direct_read", {}),
        ("bcast", "direct_write", {}),
        ("bcast", "knomial", {"k": 4}),
        ("bcast", "scatter_allgather", {}),
        ("bcast", "chain", {"segsize": 128 * 1024}),
        ("reduce", "binomial", {}),
        ("allreduce", "ring", {}),
    ]
    t = Table(
        f"mean |model/sim - 1| over {len(sizes)} sizes ({name}, {p} procs)",
        ["collective", "algorithm", "mean err", "max err"],
    )
    data = {}
    for coll, alg, params in matrix:
        errs = []
        for eta in sizes:
            sim = _sim_latency(coll, alg, get_arch(name), p, eta, params)
            mod = model.predict(coll, alg, p, eta, **params)
            errs.append(abs(mod / sim - 1.0))
        data[(coll, alg)] = (sum(errs) / len(errs), max(errs))
        t.add(coll, alg, f"{data[(coll, alg)][0]:.0%}", f"{data[(coll, alg)][1]:.0%}")
    exp.tables.append(t)
    exp.data = {"errors": data}
    return exp


def ext_mechanisms(quick: bool = True) -> Experiment:
    """Extension: CMA vs KNEM vs LiMIC mechanism comparison (Table I context).

    The paper notes the three mechanisms' raw performance is "quite
    similar" and that all share the get_user_pages bottleneck — CMA just
    avoids cookie/descriptor setup.  This experiment reproduces exactly
    that: same one-to-all pattern, same contention, different setup costs.
    """
    from repro.kernel.knem import KnemKernel
    from repro.kernel.limic import LimicKernel
    from repro.mpi.communicator import Comm, Node

    exp = Experiment("ext_mechanisms", "CMA vs KNEM vs LiMIC (KNL)")
    readers = 8
    sizes = _sizes(quick, 16 * 1024, 1 << 20)

    def one_to_all(mechanism: str, nbytes: int) -> float:
        node = Node(get_arch("knl"), verify=False)
        comm = Comm(node, readers + 1)
        knem = KnemKernel(node.cma)
        limic = LimicKernel(node.cma)
        src = comm.allocate(0, nbytes, "src")
        dsts = [comm.allocate(r + 1, nbytes, "dst") for r in range(readers)]
        handle = {}

        def owner(ctx):
            if mechanism == "knem":
                handle["h"] = yield from knem.declare_region(
                    ctx.proc, src.addr, nbytes
                )
            elif mechanism == "limic":
                handle["h"] = yield from limic.tx_init(ctx.proc, src.addr, nbytes)
            else:
                handle["h"] = None
            yield from ctx.sm_bcast("own", payload=True, root=0)

        def reader(ctx):
            yield from ctx.sm_bcast("own", payload=None, root=0)
            t0 = ctx.sim.now
            if mechanism == "knem":
                yield from knem.inline_copy_from(
                    ctx.proc, handle["h"], dsts[ctx.rank - 1].iov()
                )
            elif mechanism == "limic":
                yield from limic.tx_copy_from(
                    ctx.proc, handle["h"], dsts[ctx.rank - 1].iov()
                )
            else:
                yield from ctx.cma_read(0, dsts[ctx.rank - 1].iov(), src.iov())
            return ctx.sim.now - t0

        procs = [
            comm.spawn_rank(r, owner if r == 0 else reader)
            for r in range(readers + 1)
        ]
        node.sim.run_all(procs)
        # end-to-end: setup (cookie / descriptor) included, like an MPI
        # library would pay it on the message path
        return max(p.finish_time for p in procs)

    def one_to_all_cached(mechanism: str, nbytes: int) -> float:
        return cached_call(
            "figures.ext_mechanisms",
            ("knl", readers, mechanism, nbytes),
            lambda: one_to_all(mechanism, nbytes),
        )

    s = Series(f"one-to-all, {readers} readers", "msg", ["CMA", "KNEM", "LiMIC"])
    grid = {}
    for n in sizes:
        row = {
            "CMA": one_to_all_cached("cma", n),
            "KNEM": one_to_all_cached("knem", n),
            "LiMIC": one_to_all_cached("limic", n),
        }
        grid[n] = row
        s.add_point(n, row)
    exp.tables.append(s)
    exp.data = {"grid": grid}
    return exp


def ext_reduce(quick: bool = True) -> Experiment:
    """Extension: the reduction family (the paper's future work).

    Reduce/Allreduce algorithm comparison on KNL: binomial / throttled
    fan-in / ring reduce-scatter, and ring vs recursive-doubling Allreduce.
    """
    exp = Experiment("ext_reduce", "Reduce/Allreduce extension (KNL)")
    p = _procs_for("knl", quick)
    sizes = _sizes(quick, 4096, 4 << 20)
    red_variants = [
        ("binomial", "binomial", {}),
        ("gather-thr8", "gather_throttled", {"k": 8}),
        ("ring-rs", "ring_rs", {}),
    ]
    ar_variants = [
        ("red+bcast", "reduce_bcast", {"k": 4}),
        ("ring", "ring", {}),
        ("rec-dbl", "recursive_doubling", {}),
    ]
    data = {}
    for coll, variants in (("reduce", red_variants), ("allreduce", ar_variants)):
        s = Series(f"{coll}, {p} processes (KNL)", "msg", [v[0] for v in variants])
        grid = {}
        for eta in sizes:
            row = {
                label: _sim_latency(coll, alg, get_arch("knl"), p, eta, params)
                for label, alg, params in variants
            }
            grid[eta] = row
            s.add_point(eta, row)
        data[coll] = grid
        exp.tables.append(s)
    exp.data = data
    return exp


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

CATALOGUE: dict[str, Callable[[bool], Experiment]] = {
    "fig02": fig02,
    "fig03": fig03,
    "fig04": fig04,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "tab03": tab03,
    "tab04": tab04,
    "tab06": tab06,
    "tab07": tab07,
    "ablation_bounce": ablation_bounce,
    "ablation_batch": ablation_batch,
    "ablation_throttle": ablation_throttle,
    "ext_reduce": ext_reduce,
    "ext_mechanisms": ext_mechanisms,
    "ext_model_scorecard": ext_model_scorecard,
}


def experiment_ids() -> list[str]:
    return sorted(CATALOGUE)


def run_experiment(
    exp_id: str,
    quick: bool = True,
    workers: int | str | None = None,
    cache=None,
) -> Experiment:
    """Regenerate one artifact, optionally parallel and/or cached.

    ``workers``/``cache`` default to the enclosing
    :class:`~repro.exec.context.ExecContext` (if any), then to the
    ``REPRO_EXEC_WORKERS`` / ``REPRO_CACHE_DIR`` environment variables,
    then to serial and uncached — i.e. with nothing configured this
    behaves exactly like the original serial generator.  The returned
    :class:`Experiment` carries per-sweep stats in ``.stats``.
    """
    try:
        fn = CATALOGUE[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {experiment_ids()}"
        ) from None
    parent = exec_context.current()
    ctx = exec_context.from_env(workers=workers, cache=cache)
    t0 = time.perf_counter()
    with exec_context.use_context(ctx):
        exp = fn(quick)
    ctx.stats.wall_s = time.perf_counter() - t0
    exp.stats = ctx.stats
    if parent is not None:
        parent.stats.merge(ctx.stats)
    return exp
