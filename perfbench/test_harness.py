"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import harness

harness.pin_threads()
harness.require_source()

import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- tail rule

def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]          # 30 samples
    value, q, n = harness.tail(values)
    assert n == 30
    assert sum(v > value for v in values) == 10
    assert value == 20.0
    assert q == pytest.approx(100.0 * 19 / 29)


def test_tail_is_the_highest_such_percentile():
    values = [float(v) for v in range(200)]
    value, q, _ = harness.tail(values)
    assert sum(v > value for v in values) == 10        # one higher leaves only 9
    assert q == pytest.approx(100.0 * 189 / 199)       # linear-interpolation position


def test_tail_needs_eleven_samples():
    assert harness.tail([1.0] * 10) is None
    value, q, n = harness.tail([float(v) for v in range(11)])
    assert (value, q, n) == (0.0, 0.0, 11)


# ---------------------------------------------------------------- failed_frac

class _Scripted:
    """Tasks 0..11: 2 raise, 1 warns, 1 fails its check, the rest pass."""

    in_process = False
    block_size = 12
    block_seconds = 1.0

    def blocks(self, seed, stream=0):
        yield list(range(12))

    def prepare(self, task):
        return task

    def run(self, task):
        if task in (1, 4):
            raise ArithmeticError("boom")
        if task == 6:
            warnings.warn("noisy", RuntimeWarning)
        return task

    def check(self, task, result):
        return ["wrong"] if task == 8 else []


def test_failed_frac_counts_raises_warnings_and_bad_checks():
    wl = _Scripted()
    assert harness.block_count(wl, seconds=0.0) == 1
    outcomes, _ = harness.run_loop(wl, wl.blocks(0), n_blocks=1)
    harness.check_all(wl, outcomes)
    assert len(outcomes) == 12
    assert harness.failed_frac(outcomes) == pytest.approx(4 / 12)
    failed = {o.task: o.problems for o in outcomes if o.failed}
    assert set(failed) == {1, 4, 6, 8}
    assert "ArithmeticError" in failed[1][0]
    assert "RuntimeWarning" in failed[6][0]
    assert failed[8] == ["wrong"]
    lat = harness.latency_metrics(outcomes)
    assert lat["samples"] == 12                         # failures stay latency samples
    busy = sum(o.seconds for o in outcomes)
    assert lat["tasks_per_s"] == pytest.approx(8 / busy)   # but are not completed


def test_warm_up_runs_one_task_that_is_checked_later():
    wl = _Scripted()
    outcomes = harness.warm_up(wl, seed=0)
    assert [o.task for o in outcomes] == [0]
    harness.check_all(wl, outcomes)
    assert not outcomes[0].failed


def test_failed_frac_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        harness.failed_frac([])


# ---------------------------------------------------------------- smoke + mutation

def _first(wl, pick=0):
    return next(wl.blocks(1))[pick]


def _run_one(wl, task):
    prep = wl.prepare(task)
    return prep, wl.run(prep)


def _bump_csv_or_json(task, text, row=5, col=1):
    """Change one value of a table by one part in 1e9."""
    if task["fmt"] == "json":
        payload = json.loads(text)
        payload["rows"][row][col] *= 1.0 + 1e-9
        return json.dumps(payload)
    lines = text.split("\r\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-9))
    lines[row + 1] = ",".join(cells)
    return "\r\n".join(lines)


CLI_POTENTIAL = workloads.CLI_COMMANDS.index("potential-axis")


def test_cli_smoke_and_mutation():
    wl = workloads.Cli()
    task = _first(wl, pick=CLI_POTENTIAL)
    prep, res = _run_one(wl, task)
    assert wl.check(prep, res) == []
    bad = dict(res, stdout=_bump_csv_or_json(task, res["stdout"]))
    assert any("VH_V" in p for p in wl.check(prep, bad))
    assert wl.check(prep, dict(res, rc=3))
    assert wl.check(prep, dict(res, stderr="warning: something\n"))


def test_cli_validate_mutation():
    wl = workloads.Cli()
    task = {"cmd": "validate", "fmt": "csv"}
    good = "PASS  x  1e-20 vs 1e-10  (d)\n" * 5 + "validation: PASS\n"
    assert wl.check(task, {"rc": 0, "stderr": "", "stdout": good}) == []
    bad = good.replace("PASS  x", "FAIL  x", 1).replace("validation: PASS", "validation: FAIL")
    assert len(wl.check(task, {"rc": 0, "stderr": "", "stdout": bad})) == 2


def test_series_smoke_and_mutation():
    wl = workloads.Series()
    prep, res = _run_one(wl, _first(wl))
    assert wl.check(prep, res) == []

    contour = res["contour"].copy()
    contour[3, 7] *= 1.0 + 1e-9
    assert any("sweep_contour" in p for p in wl.check(prep, dict(res, contour=contour)))

    shifted = [res["critical"][0] * 1.01] + res["critical"][1:]
    assert any("critical" in p for p in wl.check(prep, dict(res, critical=shifted)))

    distinct = list(res["distinct"])
    distinct[0] *= 1.0 + 1e-8
    assert any("inverse_distance" in p for p in wl.check(prep, dict(res, distinct=distinct)))


def test_oracle_smoke_and_mutation():
    wl = workloads.Oracle()
    prep, res = _run_one(wl, _first(wl))
    assert wl.check(prep, res) == []
    assert wl.check(prep, dict(res, mixed=res["mixed"] * 1.05))

    # A corrupted series reference, as with check_bem_vs_series's
    # series_evaluator override: the ladder can no longer reach its target.
    corrupt = dict(prep, ref=[v * (1.0 + 1e-3) for v in prep["ref"]])
    assert any("cap" in p for p in wl.check(corrupt, wl.run(corrupt)))


def test_referee_panel_mutation(tmp_path, monkeypatch):
    value, raw, problems = workloads.series_rel_err()
    assert problems == [] and raw < workloads.SERIES_GATE
    assert value == max(raw, workloads.SERIES_FLOOR)

    with open(workloads.REFEREE_PANEL) as fh:
        panel = json.load(fh)
    case = panel["cases"][4]
    case["value"] = repr(float(case["value"]) * (1.0 + 1e-8))
    path = tmp_path / "panel.json"
    path.write_text(json.dumps(panel))
    monkeypatch.setattr(workloads, "REFEREE_PANEL", str(path))
    assert workloads.series_rel_err()[2]


def test_oracle_design_respects_the_input_domain():
    design = workloads.Oracle.design()
    assert len(design) == workloads.ORACLE_BLOCK
    for t in next(workloads.Oracle().blocks(5)):
        a, b = t["ratio"] * t["b"], t["b"]
        assert 1.2 < t["ratio"] < 21 and 0.49 < b < 2.1
        assert len(t["probes"]) == 20
        for u, v in t["probes"]:
            assert math.hypot(u * a - a, v * a) >= 1.3 * b
            assert 0.0 <= u <= 2.5 and abs(v) <= 2.5


def test_inputs_depend_only_on_the_seed():
    for cls in (workloads.Cli, workloads.Series, workloads.Oracle):
        one, two = next(cls().blocks(9)), next(cls().blocks(9))
        assert repr(one) == repr(two)
        assert repr(one) != repr(next(cls().blocks(10)))


# ---------------------------------------------------------------- tracing

def test_missing_bind_site_is_reported_not_raised():
    spans = {
        "greens.axial_greens": ("greens.evaluator", ["torvdw.greens:axial_greens"], None),
        "specfun.harmonic_table": ("specfun.table",
                                   ["torvdw.greens:no_such_function",
                                    "torvdw.no_such_module:harmonic_table"], None),
    }
    rec = tracing.Recorder()
    status = rec.install(spans)
    try:
        assert status == {"greens.axial_greens": "ok", "specfun.harmonic_table": "missing"}
        from torvdw import greens
        from torvdw.geometry import toroid_from_radii

        rec.begin_task(0)
        greens.axial_greens(toroid_from_radii(5.0, 1.0))
        rec.end_task()
    finally:
        rec.uninstall()
    from torvdw import greens
    assert not hasattr(greens.axial_greens, "__wrapped__")
    m = tracing.layer_metrics(rec.spans, 1, {"specfun.harmonic_table": "missing"})
    assert m["specfun.tables"] is None and m["greens.evaluators"] == 1


def test_self_time_subtracts_children():
    spans = [["task", 0, 100, None, 0, None], ["a", 10, 60, 0, 0, None],
             ["b", 20, 30, 1, 0, None], ["c", 70, 80, 0, 0, None]]
    assert [round(s * 1e9) for s in tracing.self_times(spans)] == [40, 40, 10, 10]


# ---------------------------------------------------------------- contract

def test_run_fails_without_the_package_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
