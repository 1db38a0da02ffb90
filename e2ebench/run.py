"""End-to-end benchmark: regenerate the paper's artifacts, check, measure.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload native --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --write-refs      # re-commit the reference digest

Each regeneration runs in a fresh interpreter (``child.py``), as a user's
``python -m repro.bench <id>`` does.  ``--trace 0`` reports the
end-to-end metrics over at least three untraced cold regenerations;
``--trace 1`` runs the workload once untraced and once under the tracer
and reports the per-layer ledger.  Human-readable lines come first; the
last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"

#: cold regenerations (fresh interpreters) per untraced run, at least
MIN_COLD_RUNS = 3
#: how long a cached workload repeats its regeneration warm, served from
#: the cache (each takes some tens of milliseconds)
WARM_S = 2.0
#: a run must end within this many seconds
DEADLINE_S = 170.0
#: personality(2) flag that disables address-space randomisation
ADDR_NO_RANDOMIZE = 0x0040000


class BenchError(RuntimeError):
    pass


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or "unknown",
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _child_env() -> dict:
    """The environment without ``REPRO_*`` knobs, so every run uses the
    program's defaults, with temporary files kept inside the checkout.

    The hash seed is fixed for the same reason as :func:`_fixed_layout`:
    the program's results do not depend on it, but string-hash
    randomisation moves garbage-collection points, and with them peak RSS
    by up to a fifth from one interpreter to the next.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _fixed_layout() -> None:
    """Turn off address-space randomisation for the child (as ``setarch
    -R`` does).  Python orders some containers by object address, so
    with randomisation on, garbage-collection points and peak RSS move
    from one interpreter to the next.  Best effort: ignored if refused."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def run_child(mode: str, workload: str, seed: int, deadline: float, **opts) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result.

    The child leads its own process group; on timeout the whole group
    (any process it started included) is killed and reaped.
    """
    argv = [sys.executable, str(HERE / "child.py"), mode, workload,
            "--seed", str(seed)]
    for key, value in opts.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, preexec_fn=_fixed_layout,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} {workload}: timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray processes, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload}: exit {proc.returncode}\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _fresh_cache_dir(workload: str) -> Path:
    path = WORK / "cache" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced run: end-to-end metrics as ``name -> (value, unit, n)``.

    Cold regenerations, each in a fresh interpreter (and for a cached
    workload into a fresh cache), at least :data:`MIN_COLD_RUNS` and
    until ``seconds`` have passed.  ``wall_s`` and ``cpu_s`` are their
    means: of three times, a median keeps only the middle one, and the
    mean spread less from run to run.  ``peak_rss_mb`` and ``setup_s``
    are their medians.  A
    cached workload's last interpreter also repeats the regeneration
    warm, served from its cache, for :data:`WARM_S`.
    """
    cached = WORKLOADS[workload].cached
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_COLD_RUNS or time.monotonic() - start < seconds:
        warm = WARM_S if cached and len(runs) == MIN_COLD_RUNS - 1 else 0.0
        cache = _fresh_cache_dir(workload)
        try:
            runs.append(run_child("cold", workload, seed, deadline,
                                  cache_dir=cache, warm_seconds=warm))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
    res = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]][:20],
        "runs": runs,
    }
    n = len(runs)
    metrics = {
        "wall_s": (statistics.fmean(r["wall_s"] for r in runs), "s", n),
        "cpu_s": (statistics.fmean(r["cpu_s"] for r in runs), "s", n),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB", n),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s", n),
    }
    warm = [w for r in runs for w in r.get("warm_walls", ())]
    if warm:
        res["warm_wall_s"] = (statistics.median(warm), "s", len(warm))
    return metrics, res


def trace(workload: str, seed: int, deadline: float):
    """Traced run: per-layer metrics as ``name -> (value, unit, n)``."""
    cache = _fresh_cache_dir(workload)
    try:
        base = run_child("cold", workload, seed, deadline, cache_dir=cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    spans = WORK / "traces" / f"{workload}-seed{seed}.json"
    try:
        res = run_child("traced", workload, seed, deadline,
                        cache_dir=cache, spans=spans)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    metrics = {name: tuple(v) for name, v in res["metrics"].items()}
    metrics["host.trace_overhead"] = (
        res["traced_wall_s"] / base["wall_s"], "ratio", 1)
    res["attempted"] += base["attempted"]
    res["failed"] += base["failed"]
    res["problems"] = base["problems"] + res["problems"]
    res["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, res


def report(workload, seed, trace_on, host, metrics, res) -> None:
    from ledger import MOVES

    attempted, failed = res["attempted"], res["failed"]
    print(f"# e2ebench workload={workload} seed={seed} trace={int(trace_on)}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, (value, unit, n) in metrics.items():
        moves = MOVES.get(name)
        note = f"  -> {moves[0]} on {moves[1]}" if trace_on and moves else ""
        print(f"{name:26s} {value:14.6g} {unit:6s} n={n}{note}")
    if "warm_wall_s" in res:
        value, unit, n = res["warm_wall_s"]
        print(f"{'warm_wall_s':26s} {value:14.6g} {unit:6s} n={n}  (advisory, not gated)")
    frac = failed / attempted if attempted else 1.0
    print(f"{'fail_frac':26s} {frac:14.6g} {'ratio':6s} "
          f"n={attempted} ({failed} of {attempted} checked items failed)")
    for problem in res["problems"]:
        print(f"# FAIL {problem}")
    if trace_on:
        print(f"# spans: {res['spans_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true",
                    help="regenerate refs/ from the current program")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if not args.write_refs and args.workload is None:
        ap.error("--workload is required")
    deadline = time.monotonic() + DEADLINE_S
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        if args.write_refs:
            # every artifact once: resweep's are covered by the others
            for workload, spec in WORKLOADS.items():
                if not spec.cached:
                    run_child("refs", workload, args.seed, time.monotonic() + 600)
            return 0
        host = host_fingerprint()
        if args.trace:
            metrics, res = trace(args.workload, args.seed, deadline)
        else:
            metrics, res = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, host, metrics, res)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "metrics": metrics, "result": res}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
