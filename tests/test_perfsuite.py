"""The counter-gated perf probes (``python -m repro.bench perf``).

Nothing here reads a wall time: the probes' counters are deterministic,
so the tests assert exact values and that ``--check`` fails, naming the
counter, whenever one moves or goes missing.
"""

import copy
import functools
import json
from pathlib import Path

import pytest

from repro.bench import perfsuite
from repro.sim.engine import Simulator

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


@pytest.fixture(scope="module")
def result():
    return perfsuite.run_suite()


def _failures(fresh, baseline):
    return [f for fails in perfsuite.check(fresh, baseline).values() for f in fails]


def test_payload_shape(result):
    assert result["schema"] == perfsuite.SCHEMA
    assert set(result) == {"schema", *perfsuite.SECTIONS}
    # counters only: no wall time is written, so none can be gated
    for path in perfsuite._counters(result):
        assert "wall" not in path and "per_sec" not in path, path


def test_payload_is_json_serialisable(result):
    assert json.loads(json.dumps(result)) == result


def test_convoy_section_shape(result):
    convoy = result["convoy"]
    assert set(convoy) == set(perfsuite.CONVOY_POINTS)
    assert all(r["events"] > 0 for r in convoy.values())
    # spawn + grant + done: 100,000 uncontended batches fold into one hold
    assert convoy["solo"]["events"] == 3


def test_xpmem_section_shape(result):
    xp = result["xpmem"]
    assert set(xp) == set(perfsuite.XPMEM_POINTS) | {"crossover"}
    for name in perfsuite.XPMEM_POINTS:
        assert xp[name]["events"] > 0
    for arch in perfsuite.CROSSOVER_ARCHS:
        cx = xp["crossover"][arch]
        # a mapped window must cost something up front and then beat the
        # per-round pin, so a finite payoff point always exists
        assert cx["map_cost_us"] > 0
        assert cx["per_copy_saving_us"] > 0
        assert cx["crossover_rounds"] >= 1


def test_sched_section_shape(result):
    sched = result["sched"]
    assert set(sched) == {"points", "sim_events", "cache_hits"}
    assert sched["points"] == 15
    assert sched["sim_events"] > 0
    # the warm pass must serve every point from the cache
    assert sched["cache_hits"] == sched["points"]


def test_two_runs_give_identical_counters(result):
    assert perfsuite.run_suite() == result


def test_cli_writes_output_and_self_check_passes(result, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert perfsuite.main(["--out", str(out), "--check", str(BASELINE)]) == 0
    assert json.loads(out.read_text()) == result
    text = capsys.readouterr().out
    assert "every counter matches" in text
    for sec in perfsuite.SECTIONS:
        assert f"perf {sec}: PASS" in text


def test_check_never_overwrites_its_baseline(result, tmp_path, monkeypatch):
    base = tmp_path / "base.json"
    stale = copy.deepcopy(result)
    stale["convoy"]["c8"]["events"] += 1
    base.write_text(json.dumps(stale))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(perfsuite, "run_suite", lambda: result)
    assert perfsuite.main(["--out", "base.json", "--check", "base.json"]) == 1
    assert json.loads(base.read_text()) == stale


def test_extra_event_on_any_gated_point_fails(
    result, tmp_path, capsys, monkeypatch
):
    counters = perfsuite._counters(result)
    for path, value in counters.items():
        if isinstance(value, str):
            continue
        fresh = copy.deepcopy(result)
        *parents, leaf = path.split(".")
        node = fresh
        for key in parents:
            node = node[key]
        node[leaf] += 1
        fails = perfsuite.check(fresh, result)
        assert fails[parents[0]] == [f"{path}: {value!r} → {node[leaf]!r}"]
        assert sum(map(len, fails.values())) == 1
    # and the CLI names the counter and exits 1
    bumped = copy.deepcopy(result)
    bumped["xpmem"]["w8"]["events"] += 1
    base = tmp_path / "base.json"
    base.write_text(json.dumps(result))
    monkeypatch.setattr(perfsuite, "run_suite", lambda: bumped)
    fresh_out = tmp_path / "fresh.json"
    assert perfsuite.main(["--out", str(fresh_out), "--check", str(base)]) == 1
    text = capsys.readouterr().out
    w8 = result["xpmem"]["w8"]["events"]
    assert f"xpmem.w8.events: {w8} → {w8 + 1}" in text
    assert "perf xpmem: FAIL" in text and "perf convoy: PASS" in text


def test_missing_point_fails(result):
    fresh = copy.deepcopy(result)
    del fresh["convoy"]["c8"]
    c8 = result["convoy"]["c8"]["events"]
    assert _failures(fresh, result) == [f"convoy.c8.events: {c8} → missing"]
    # a point only the fresh run has fails the same way
    assert _failures(result, fresh) == [f"convoy.c8.events: missing → {c8}"]
    # so does a whole section the baseline lacks
    fresh = {k: v for k, v in result.items() if k != "sched"}
    assert len(_failures(fresh, result)) == len(result["sched"])


def test_xpmem_section_is_gated(result):
    fresh = copy.deepcopy(result)
    fresh["xpmem"]["crossover"]["knl"]["crossover_rounds"] = 3
    fails = perfsuite.check(fresh, result)
    assert fails["xpmem"] == ["xpmem.crossover.knl.crossover_rounds: 1 → 3"]


def test_sched_section_is_gated(result):
    fresh = copy.deepcopy(result)
    fresh["sched"]["cache_hits"] -= 1
    fails = perfsuite.check(fresh, result)
    assert len(fails["sched"]) == 1
    assert fails["sched"][0].startswith("sched.cache_hits: 15 → 14")


def test_solo_convoy_without_fast_path_fails_check(result, monkeypatch):
    monkeypatch.setattr(
        perfsuite, "Simulator", functools.partial(Simulator, use_pin_convoy=False)
    )
    fresh = dict(result, convoy=perfsuite.probe_convoy())
    assert fresh["convoy"]["solo"]["events"] > 3
    fails = perfsuite.check(fresh, result)["convoy"]
    assert any(f.startswith("convoy.solo.events: 3 → ") for f in fails)


def test_summary_lines_one_per_section():
    sections = {"convoy": [], "xpmem": ["xpmem.w8.events: 1 → 2"], "sched": []}
    assert perfsuite._summary_lines(sections) == [
        "perf convoy: PASS",
        "perf xpmem: FAIL — 1 counter(s) differ",
        "perf sched: PASS",
    ]


def test_step_summary_written_when_env_set(tmp_path, monkeypatch):
    path = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(path))
    perfsuite._write_step_summary(["perf convoy: PASS"])
    perfsuite._write_step_summary(["perf sched: PASS"])
    assert path.read_text() == "- perf convoy: PASS\n- perf sched: PASS\n"
    monkeypatch.delenv("GITHUB_STEP_SUMMARY")
    perfsuite._write_step_summary(["never written"])
    assert "never written" not in path.read_text()


def test_sched_profiler_cli_emits_worker_timeline(tmp_path, capsys):
    from repro.bench import schedprof

    out = tmp_path / "prof.json"
    assert schedprof.main(["--profile", "--out", str(out)]) == 0
    capsys.readouterr()  # drop the "wrote ..." line
    payload = json.loads(out.read_text())
    assert payload["slice"] == "mixed"
    assert payload["points"] == 15
    assert payload["chunks"] == len(payload["chunk_sizes"])
    assert sum(payload["chunk_sizes"]) == payload["points"]
    timeline = payload["workers_timeline"]
    assert timeline
    assert sum(w["points_run"] for w in timeline.values()) == payload["points"]
    assert sum(w["chunks_run"] for w in timeline.values()) == payload["chunks"]
    for key in ("steals", "predicted_cost", "cost_err_pct"):
        assert key not in payload
    for w in timeline.values():
        assert len(w["chunks"]) == w["chunks_run"]
        for rec in w["chunks"]:
            assert rec["end_s"] >= rec["start_s"]
        assert w["idle_s"] >= 0
        assert w["busy_s"] > 0
    # without --profile the raw per-chunk records are dropped
    assert schedprof.main(["--slice", "fig07"]) == 0
    slim = json.loads(capsys.readouterr().out)
    assert slim["points"] == 9
    assert all("chunks" not in w for w in slim["workers_timeline"].values())
