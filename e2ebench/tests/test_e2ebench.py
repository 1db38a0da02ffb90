"""The benchmark's own tests: run with ``python -m pytest e2ebench/tests``."""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import digest
import ledger
import workloads

E2E = Path(__file__).resolve().parent.parent


def _fig07_plan(seed=0):
    """A one-artifact plan: serial, uncached fig07 (about two seconds)."""
    plan = workloads.Plan("native", workloads.Recorder(seed), ("fig07",))
    plan.recorder.install()
    return plan


@pytest.fixture
def fig07():
    plan = _fig07_plan()
    yield plan
    plan.recorder.uninstall()


def test_layer_map_covers_every_repro_module():
    modules = sorted(ledger.module_of_file(str(p)) for p in (ledger.SRC / "repro").rglob("*.py"))
    assert "repro.sim.engine" in modules and len(modules) > 50
    unmapped = [m for m in modules if ledger.layer_of_module(m) is None]
    assert unmapped == []
    assert {ledger.layer_of_module(m) for m in modules} <= set(ledger.LAYERS)


def test_builtin_self_time_goes_to_the_callers_layer():
    engine = (str(ledger.SRC / "repro/sim/engine.py"), 1, "run")
    cma = (str(ledger.SRC / "repro/kernel/cma.py"), 1, "copy")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        engine: (1, 1, 2.0, 5.0, {}),
        cma: (1, 1, 1.0, 1.5, {engine: (1, 1, 1.0, 1.5)}),
        builtin: (3, 3, 1.5, 1.5, {engine: (2, 2, 1.0, 1.0), cma: (1, 1, 0.5, 0.5)}),
    }
    layers = ledger.layer_self_times(stats)
    assert layers["engine"] == pytest.approx(3.0)
    assert layers["kernel"] == pytest.approx(1.5)
    assert sum(layers.values()) == pytest.approx(4.5)


def test_clean_run_matches_the_reference(fig07):
    workloads.regenerate(fig07)
    attempted, failed, problems = workloads.check(fig07)
    assert (attempted, failed, problems) == (64, 0, [])


def test_perturbed_reference_latency_is_a_failed_point(fig07):
    refs = digest.load_refs(["fig07"])
    bad = copy.deepcopy(refs)
    key = sorted(bad["fig07"]["points"])[5]
    bad["fig07"]["points"][key]["latency_us"] *= 1.0 + 1e-12
    workloads.regenerate(fig07)
    attempted, failed, problems = workloads.check(fig07, bad)
    assert (attempted, failed) == (64, 1)
    assert key in problems[0]


def test_raising_point_counts_toward_fail_frac(fig07, monkeypatch):
    from repro.exec import sweep

    real = sweep._compute_collective

    def compute(spec, warm):
        if spec.algorithm == "parallel_read" and spec.eta == 262144 and spec.arch.name == "knl":
            raise RuntimeError("injected")
        return real(spec, warm)

    monkeypatch.setattr(sweep, "_compute_collective", compute)
    workloads.regenerate(fig07)
    attempted, failed, problems = workloads.check(fig07)
    # the raising point, plus fig07's tables, which could not render
    assert (attempted, failed) == (64, 2)
    assert any("injected" in p for p in problems)


def _three_machine_specs():
    from repro.core.runner import CollectiveSpec
    from repro.machine import get_arch

    return [
        CollectiveSpec("scatter", alg, get_arch(name), procs=8, eta=eta, verify=False)
        for name in ("knl", "broadwell", "power8")
        for eta in (4096, 65536)
        for alg in ("parallel_read", "sequential_write")
    ]


def test_seed_permutes_whole_node_blocks():
    specs = _three_machine_specs()
    orders = {seed: workloads.Recorder(seed).order(specs) for seed in range(1, 8)}
    assert orders[1] == workloads.Recorder(1).order(specs)
    assert len({tuple(o) for o in orders.values()}) > 1
    for order in orders.values():
        names = [specs[i].arch.name for i in order]
        for name in ("knl", "broadwell", "power8"):
            block = [i for i in order if specs[i].arch.name == name]
            assert block == sorted(block)  # the block keeps its own order
            start = names.index(name)
            assert names[start:start + len(block)] == [name] * len(block)


def test_results_return_in_input_order():
    submitted = []

    def fake_run_specs(specs):
        submitted.append(tuple(id(s) for s in specs))
        return [(s.arch.name, s.eta, s.algorithm) for s in specs]

    specs = _three_machine_specs()
    want = fake_run_specs(specs)
    for seed in range(1, 8):
        assert workloads.Recorder(seed)._wrap(fake_run_specs)(specs) == want
    assert len(set(submitted)) > 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(E2E, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(E2E.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "native", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
