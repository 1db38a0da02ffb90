"""The benchmark's workloads: inputs from a seed, one regeneration, its check.

Every workload regenerates through public entry points only
(``run_experiment``, ``run_specs``, ``Tuner.calibrated``,
``library(...).spec``, ``ExecContext``).  The seed fixes the order in
which each sweep's points are submitted; results go back to the caller
in input order and are checked against ``refs/`` by point name, so every
seed must reproduce the same digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from digest import compare, load_refs, point_entry, point_key, tables_digest, write_ref
from ledger import Patches


@dataclass(frozen=True)
class Workload:
    artifacts: tuple
    cached: bool = False


#: why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    # the paper's CMA/XPMEM scatter, gather and allgather designs
    "native": Workload(("fig07", "fig08", "fig10")),
    # proposed designs against the library-like stacks, fig13 first
    "libraries": Workload(("fig13", "fig15")),
    # OSU-style KNL sweep with verify=True (see VERIFIED_* below)
    "verified": Workload(("verified",)),
    # fig07+fig13 into a fresh result cache, then again from the cache
    "resweep": Workload(("fig07", "fig13"), cached=True),
}

#: the ``verified`` sweep's axes.  Sizes stop at 256 KiB: the 1 MiB points
#: took nine tenths of the sweep's time (about 20 s a regeneration), more
#: than the benchmark's time budget allows across all of its runs.
VERIFIED_ARCH = "knl"
VERIFIED_PROCS = 16
VERIFIED_COLLECTIVES = ("scatter", "gather", "bcast", "allgather", "alltoall", "allreduce")
VERIFIED_SIZES = (4096, 16384, 65536, 262144)
VERIFIED_LIBRARIES = ("mvapich2", "openmpi")


class Recorder:
    """Stands in for ``run_specs`` during a regeneration.

    The seed permutes the order of each sweep's blocks of consecutive
    points that share a warm node (same architecture, process count and
    verify flag), keeping each block's own order.  Each block reuses only
    its own node, buffers and per-node caches, so the block order leaves
    each point's work unchanged; reordering points inside a block changes
    what those caches hit, and with it the time a regeneration takes by
    up to a fifth.  Results go back to the caller in input
    order, and every ``(artifact, spec, result)`` is recorded for
    the digest.  When a sweep raises, its points are re-run one at a time
    so the failure lands on the points that raise; the others are
    recorded and the first error is re-raised.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.artifact = ""
        self.patches = Patches()
        self.clear()

    def clear(self) -> None:
        self.records: list = []
        self.tables: dict = {}
        self.errors: list = []

    def install(self) -> None:
        from repro.exec import sweep

        self.patches.patch(sweep, "run_specs", self._wrap)

    def uninstall(self) -> None:
        self.patches.restore()

    def order(self, specs: list) -> list:
        """The seeded submission order of ``specs``, as indices: the
        sweep's per-machine blocks in shuffled order, each block intact."""
        blocks: list = []
        for i, spec in enumerate(specs):
            if blocks and _same_node(specs[blocks[-1][0]], spec):
                blocks[-1].append(i)
            else:
                blocks.append([i])
        self.rng.shuffle(blocks)
        return [i for block in blocks for i in block]

    def _wrap(self, run_specs):
        def seeded_run_specs(specs):
            specs = list(specs)
            order = self.order(specs)
            try:
                out = run_specs([specs[i] for i in order])
            except Exception:
                return self._one_by_one(run_specs, specs)
            results = [None] * len(specs)
            for j, i in enumerate(order):
                results[i] = out[j]
            for spec, result in zip(specs, results):
                self.records.append((self.artifact, spec, result))
            return results

        seeded_run_specs.__wrapped__ = run_specs
        return seeded_run_specs

    def _one_by_one(self, run_specs, specs):
        results, first = [], None
        for spec in specs:
            try:
                result = run_specs([spec])[0]
            except Exception as exc:
                first = first or exc
                self.errors.append(f"{self.artifact}: {type(exc).__name__}: {exc}")
                continue
            self.records.append((self.artifact, spec, result))
            results.append(result)
        if first is not None:
            raise first
        return results

    def results(self) -> list:
        from repro.core.runner import CollectiveResult

        return [r for _, _, r in self.records if isinstance(r, CollectiveResult)]

    def triples(self) -> list:
        """``(artifact, key, entry)`` per recorded point; a point that came
        back as something other than a result (e.g. a quarantined
        ``PoisonedPoint``) is left out, so it counts as missing."""
        from repro.core.runner import CollectiveResult

        return [
            (a, point_key(a, spec), point_entry(r))
            for a, spec, r in self.records
            if isinstance(r, CollectiveResult)
        ]


def _same_node(a, b) -> bool:
    """Whether two points run on the same warm node (the program's
    node-pool key)."""
    return (a.arch.name, a.procs, a.verify) == (b.arch.name, b.procs, b.verify)


@dataclass
class Plan:
    """A workload's generated inputs."""

    name: str
    recorder: Recorder
    artifacts: tuple
    cache_dir: Optional[str] = None
    library_specs: tuple = ()


def prepare(name: str, seed: int, cache_dir: Optional[str] = None) -> Plan:
    """Import the program and generate the workload's inputs (set-up)."""
    from repro.bench import figures  # noqa: F401  (import cost is set-up)

    plan = Plan(name, Recorder(seed), WORKLOADS[name].artifacts, cache_dir)
    if name == "verified":
        from repro.core.baselines import library
        from repro.machine import get_arch

        arch = get_arch(VERIFIED_ARCH)
        specs = []
        for lib in VERIFIED_LIBRARIES:
            model = library(lib)
            for coll in VERIFIED_COLLECTIVES:
                if coll not in model.rules:
                    continue
                for eta in VERIFIED_SIZES:
                    specs.append(model.spec(coll, arch, eta, VERIFIED_PROCS, verify=True))
        plan.library_specs = tuple(specs)
    plan.recorder.install()
    return plan


def regenerate(plan: Plan):
    """One regeneration of the workload; returns its merged SweepStats.

    Calibration (``Tuner.calibrated``) runs inside, as it does on every
    user run.  An artifact that raises is recorded and the rest still run.
    """
    from repro.bench.figures import run_experiment
    from repro.exec import sweep
    from repro.exec.context import ExecContext, use_context

    wl = WORKLOADS[plan.name]
    rec = plan.recorder
    # serial: with more busy processes than the host's two CPUs, the time
    # measures the host's scheduling as much as the program (README.md)
    ctx = ExecContext(
        workers=1,
        cache=plan.cache_dir if wl.cached else False,
        journal=False,
    )
    with use_context(ctx):
        for artifact in plan.artifacts:
            rec.artifact = artifact
            try:
                if artifact == "verified":
                    sweep.run_specs(_verified_specs(plan))
                    continue
                exp = run_experiment(artifact)
            except Exception as exc:  # a failed artifact is counted, not fatal
                rec.errors.append(f"{artifact}: {type(exc).__name__}: {exc}")
                continue
            rec.tables[artifact] = tables_digest(render_tables(exp))
    return ctx.stats


def _verified_specs(plan: Plan) -> list:
    from repro.core.tuning import Tuner
    from repro.machine import get_arch

    tuner = Tuner.calibrated(get_arch(VERIFIED_ARCH))
    proposed = [
        tuner.spec(coll, eta, VERIFIED_PROCS, verify=True)
        for coll in VERIFIED_COLLECTIVES
        for eta in VERIFIED_SIZES
    ]
    return proposed + list(plan.library_specs)


def render_tables(exp) -> str:
    """An artifact's rendered tables, without the sweep-summary line."""
    parts = [f"### {exp.id}: {exp.title}"] + [t.render() for t in exp.tables]
    return "\n\n".join(parts)


def check(plan: Plan, refs: Optional[dict] = None):
    """``(attempted, failed, problems)`` of the last regeneration, then
    clear the recorder for the next one."""
    rec = plan.recorder
    if refs is None:
        refs = load_refs(plan.artifacts)
    outcome = compare(refs, rec.triples(), rec.tables, rec.errors)
    rec.clear()
    return outcome


def write_refs(plan: Plan) -> None:
    """Commit the last regeneration's digest as the reference."""
    rec = plan.recorder
    if rec.errors:
        raise RuntimeError(f"refusing to write references: {rec.errors}")
    by_artifact: dict = {a: {} for a in plan.artifacts}
    for artifact, key, entry in rec.triples():
        if by_artifact[artifact].setdefault(key, entry) != entry:
            raise RuntimeError(f"point {key} recorded with two outputs")
    for artifact, points in by_artifact.items():
        write_ref(artifact, points, rec.tables.get(artifact))
    rec.clear()
