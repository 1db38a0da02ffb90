"""Per-layer ledger of the traced run.

Three sources feed it, all from this directory's own files (nothing in
``src/`` is instrumented):

* ``cProfile`` self time, aggregated by module into the layers of
  :data:`LAYER_OF`; a C builtin's self time is split over its callers and
  charged to each caller's layer;
* spans recorded around wrapped public entry points (kept in memory,
  written out when the run ends);
* counters taken at the same wrapped boundaries, and ``gc`` pause time.
"""

from __future__ import annotations

import gc
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: module (or package) -> layer.  A module takes the layer of its longest
#: listed dotted prefix; the root package ``repro`` matches only itself,
#: so a new top-level module stays unmapped until it is listed here.
LAYER_OF = {
    "repro": "frontend",
    "repro.sim": "engine",
    "repro.sim.engine": "engine",
    "repro.sim.resources": "engine",
    "repro.sim.trace": "engine",
    "repro.sim.channels": "messaging",
    "repro.mpi.pt2pt": "messaging",
    "repro.shm": "messaging",
    "repro.kernel": "kernel",
    "repro.realcma": "kernel",
    "repro.faults": "kernel",
    "repro.kernel.address_space": "buffers",
    "repro.core.patterns": "buffers",
    "repro.core": "collectives",
    "repro.mpi": "collectives",
    "repro.machine": "collectives",
    "repro.core.tuning": "tuner",
    "repro.core.fitting": "tuner",
    "repro.core.model": "tuner",
    "repro.bench.microbench": "tuner",
    "repro.serve": "tuner",
    "repro.exec": "exec",
    "repro.bench": "frontend",
    "repro.osu": "frontend",
}

#: every layer self time is reported for; ``python`` is the interpreter,
#: the standard library and numpy, ``harness`` this benchmark's own code
LAYERS = (
    "engine", "kernel", "messaging", "buffers", "collectives", "tuner",
    "exec", "frontend", "python", "harness",
)


def layer_of_module(module: str):
    """The layer of a ``repro`` module, or None if :data:`LAYER_OF` has no
    entry for it."""
    if module == "repro":
        return LAYER_OF["repro"]
    parts = module.split(".")
    while len(parts) > 1:
        layer = LAYER_OF.get(".".join(parts))
        if layer is not None:
            return layer
        parts.pop()
    return None


def module_of_file(filename: str):
    """Dotted module name of a file under ``src/``, else None."""
    try:
        rel = Path(filename).resolve().relative_to(SRC)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _LayerResolver:
    def __init__(self):
        self._memo: dict[str, str] = {}

    def __call__(self, filename: str):
        """Layer of a profiled function's file; None for a C builtin."""
        if filename == "~":
            return None
        layer = self._memo.get(filename)
        if layer is None:
            module = module_of_file(filename)
            if module is not None:
                layer = layer_of_module(module) or "frontend"
            elif Path(filename).resolve().parent == HERE:
                layer = "harness"
            else:
                layer = "python"
            self._memo[filename] = layer
        return layer


def layer_self_times(stats: dict) -> dict[str, float]:
    """Aggregate ``pstats.Stats(...).stats`` self time by layer.

    A builtin's self time is split over its callers, as recorded per
    caller, and each share goes to that caller's layer (``python`` when
    the caller is itself a builtin).
    """
    layer_of = _LayerResolver()
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer is not None:
            out[layer] += tt
            continue
        split = 0.0
        for (cfile, _cl, _cn), entry in callers.items():
            share = entry[2]
            out[layer_of(cfile) or "python"] += share
            split += share
        out["python"] += max(0.0, tt - split)
    return out


#: modules that bind a patched function by name; imported before any
#: patching, so a module loaded later cannot capture a wrapper for good
BINDING_MODULES = (
    "repro.bench.figures", "repro.core.fitting", "repro.exec.sched",
    "repro.kernel.cma", "repro.kernel.xpmem",
)


class Patches:
    """Reversible replacement of public functions and methods."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        For a module-level function, every loaded ``repro`` module that
        bound the same object (``from x import f``, aliases included) is
        patched too.  Methods and classmethods patch on the class.
        """
        for name in BINDING_MODULES:
            importlib.import_module(name)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, raw, classmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, raw, make(raw))
            return
        raw = getattr(owner, attr)
        new = make(raw)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", None) or ""
            if mod is owner or name == "repro" or name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, raw, new)

    def _set(self, owner, attr, old, new) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """Spans and counters around wrapped public functions.

    :meth:`install` replaces each target function on its defining module
    or class and on every loaded ``repro`` module that bound it by name;
    :meth:`uninstall` restores them.  Spans are ``(name, start, end,
    parent)`` tuples with ``parent`` the index of the enclosing span (or
    -1), kept in memory until :meth:`dump`.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gc_s = 0.0
        self._stack: list[int] = []
        self._active: set[str] = set()
        self.patches = Patches()
        self._gc_t0 = 0.0

    # -- spans and counters ---------------------------------------------------

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span; nested calls of the same name (e.g. a
        batched cache write that calls the single write) record once."""
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), spans[idx][3])
                stack.pop()
                active.discard(name)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, amount):
        """``fn`` wrapped so each call adds ``amount(result)`` to counter
        ``name``."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += amount(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span_durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def span_total(self, name: str) -> float:
        return sum(self.span_durations(name))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        from repro.core import patterns, runner
        from repro.core.tuning import Tuner
        from repro.exec.cache import ResultCache
        from repro.kernel import address_space
        from repro.kernel.address_space import AddressSpace
        from repro.sim.channels import Mailbox

        def timed(name):
            return lambda fn: self.timed(name, fn)

        def counted(name, amount):
            return lambda fn: self.counted(name, fn, amount)

        patch = self.patches.patch
        patch(runner, "run_collective_pooled", timed("exec.point"))
        patch(ResultCache, "get_many", timed("exec.cache_get"))
        patch(ResultCache, "get", timed("exec.cache_get"))
        patch(ResultCache, "put_many", timed("exec.cache_put"))
        patch(ResultCache, "put", timed("exec.cache_put"))
        patch(Tuner, "calibrated", timed("tuner.calibrate"))
        patch(patterns, "setup_buffers", timed("buffers.fill"))
        patch(patterns, "verify_buffers", timed("buffers.verify"))
        patch(AddressSpace, "allocate",
              counted("buffers.alloc_bytes", lambda buf: buf.nbytes))
        patch(address_space, "copy_iov_bytes",
              counted("buffers.copy_bytes", lambda written: written))
        patch(Mailbox, "deliver",
              counted("messaging.deliveries", lambda _: 1))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.patches.restore()

    def _on_gc(self, phase, _info) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }))


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), 0 with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ledger_metrics(
    layer_s: dict, traced_wall: float, tracer: Tracer, results: list,
    pool_leases: int, pool_reuses: int, warm_get_s: float,
    warm_hit_ratio: float,
) -> dict[str, tuple[float, str, int]]:
    """The per-layer metrics of one traced regeneration, name -> (value,
    unit, samples).  ``results`` are the CollectiveResults the run
    produced (cache hits included); the ``warm_*`` arguments come from a
    warm regeneration (0 for uncached workloads)."""
    events = sum(r.sim_events for r in results)
    points = [d * 1e3 for d in tracer.span_durations("exec.point")]
    m: dict[str, tuple] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_s[layer], "s")
    m["engine.events"] = (events, "count")
    m["engine.us_per_event"] = (
        layer_s["engine"] * 1e6 / events if events else 0.0, "us")
    m["kernel.cma_calls"] = (
        sum(r.cma_reads + r.cma_writes for r in results), "count")
    m["messaging.ctrl_messages"] = (
        sum(r.ctrl_messages for r in results), "count")
    m["messaging.deliveries"] = (tracer.counters["messaging.deliveries"], "count")
    m["buffers.alloc_bytes"] = (tracer.counters["buffers.alloc_bytes"], "bytes")
    m["buffers.copy_bytes"] = (tracer.counters["buffers.copy_bytes"], "bytes")
    m["buffers.fill_s"] = (tracer.span_total("buffers.fill"), "s")
    m["buffers.verify_s"] = (tracer.span_total("buffers.verify"), "s")
    m["exec.point_ms_p50"] = (_quantile(points, 50), "ms", len(points))
    m["exec.point_ms_p90"] = (_quantile(points, 90), "ms", len(points))
    m["exec.point_samples"] = (len(points), "count")
    m["exec.cache_get_s"] = (warm_get_s, "s")
    m["exec.cache_put_s"] = (tracer.span_total("exec.cache_put"), "s")
    m["exec.cache_hit_ratio"] = (warm_hit_ratio, "ratio")
    m["exec.nodepool_hit_ratio"] = (
        pool_reuses / pool_leases if pool_leases else 0.0, "ratio")
    m["tuner.calibrate_s"] = (tracer.span_total("tuner.calibrate"), "s")
    m["host.gc_s"] = (tracer.gc_s, "s")
    m["host.traced_wall_s"] = (traced_wall, "s")
    m["host.layer_coverage"] = (
        sum(layer_s.values()) / traced_wall if traced_wall else 0.0, "ratio")
    return {name: v if len(v) == 3 else v + (1,) for name, v in m.items()}


#: layer metric -> (end-to-end metric, workloads) it should move; "flat"
#: marks a workload where the prediction is no change.  Printed beside
#: each traced result, and the source of README.md's table.
MOVES = {
    "engine.self_s": ("wall_s", "native, libraries; flat on verified"),
    "engine.events": ("wall_s", "libraries"),
    "engine.us_per_event": ("wall_s", "native"),
    "kernel.self_s": ("wall_s", "native"),
    "kernel.cma_calls": ("wall_s", "native"),
    "messaging.self_s": ("wall_s", "libraries; flat on native"),
    "messaging.ctrl_messages": ("wall_s", "libraries"),
    "messaging.deliveries": ("wall_s", "libraries"),
    "buffers.self_s": ("wall_s", "verified, native"),
    "buffers.alloc_bytes": ("peak_rss_mb", "verified, native, libraries"),
    "buffers.copy_bytes": ("wall_s", "verified"),
    "buffers.fill_s": ("wall_s", "verified"),
    "buffers.verify_s": ("wall_s", "verified"),
    "exec.self_s": ("wall_s", "resweep"),
    "exec.point_ms_p50": ("wall_s", "native, libraries"),
    "exec.point_ms_p90": ("wall_s", "native, libraries"),
    "exec.cache_get_s": ("warm_wall_s", "resweep"),
    "exec.cache_put_s": ("wall_s", "resweep"),
    "exec.cache_hit_ratio": ("warm_wall_s", "resweep"),
    "exec.nodepool_hit_ratio": ("wall_s, peak_rss_mb", "native, libraries"),
    "tuner.calibrate_s": ("wall_s", "libraries, verified"),
    "host.gc_s": ("wall_s, peak_rss_mb", "libraries"),
    "host.trace_overhead": ("(tracing cost)", "all"),
}
