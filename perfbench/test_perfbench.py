"""Self-tests of the benchmark: span arithmetic, contract shape, a small run.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import run

assert run.import_program() is None

import checks  # noqa: E402
import driver  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],  # overlaps b: together they cover [1, 6]
        ["d", 2.0, 3.0, 1],
        ["a", 7.0, 9.0, 0],  # recursion: inside the outer "a"
        ["e", 8.5, 12.0, 4],  # sticks out of its parent; only [8.5, 9] counts
    ]
    st = tracing.span_stats(spans)
    assert st["a"]["calls"] == 2
    assert st["a"]["s"] == pytest.approx(10.0)  # the inner call is not counted twice
    assert st["a"]["self_s"] == pytest.approx((10.0 - 5.0 - 2.0) + (2.0 - 0.5))
    assert st["b"]["self_s"] == pytest.approx(2.0)
    assert st["c"]["self_s"] == pytest.approx(3.0)
    assert st["d"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_layer_metrics_sum_stages_and_fill_missing_layers():
    fit = {"spans": [["whittle.loglik", 0.0, 2.0, -1], ["spectrum.cross_spectrum_stack", 0.5, 1.5, 0]],
           "counts": {"ingest.rows_parsed": 7}}
    sim = {"spans": [["whittle.loglik", 5.0, 6.0, -1]], "counts": {"ingest.rows_parsed": 3}}
    m = tracing.layer_metrics([fit, sim])
    assert m["whittle.loglik.calls"] == 2
    assert m["whittle.loglik.s"] == pytest.approx(3.0)
    assert m["whittle.loglik.self_s"] == pytest.approx(2.0)
    assert m["ingest.rows_parsed"] == 10
    assert m["condsim.draw.calls"] == 0
    assert set(m) == {name for name, _, _ in tracing.LAYER_METRICS} | set(tracing.COUNTER_METRICS)


def test_recorder_wraps_restores_and_reports_absent_names():
    import presim.cli

    original = presim.cli.block_average
    rec = tracing.Recorder("t").install([
        ("ingest.block_average", "presim.cli", "block_average"),
        ("gone.function", "presim.cli", "no_such_function"),
    ])
    try:
        assert presim.cli.block_average is not original
        assert rec.absent == ["gone.function"]
    finally:
        rec.uninstall()
    assert presim.cli.block_average is original


def test_benchmark_json_matches_what_the_runs_print():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == driver.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == driver.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_minute_series_block_means_are_the_five_minute_series():
    rng = np.random.default_rng(0)
    p = 100.0 + np.cumsum(rng.normal(size=(3, 400)), axis=1)
    v = workloads._minute_series(p, block=5, max_gap=8, seed=4)
    blocks = v.reshape(3, 400, 5)
    complete = ~np.isnan(blocks).any(axis=2)
    assert complete.mean() > 0.9 and not complete.all()
    np.testing.assert_allclose(blocks.mean(axis=2)[complete], p[complete], rtol=0, atol=1e-9)
    runs = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], np.isnan(v[0]), [0]]))))[::2]
    assert runs.max() <= 8


class FakeRunner:
    """Stage runs of fixed lengths, recorded in the order they were asked for."""

    deadline = float("inf")

    def __init__(self, **seconds):
        self.seconds, self.calls = seconds, []

    def run(self, name):
        self.calls.append(name)
        return driver.StageRun(self.seconds[name], 100.0)


def test_untraced_repeats_rounds_until_the_run_has_lasted_its_seconds():
    month_like = FakeRunner(fit=50.0, simulate=7.0, evaluate=3.0)
    driver.untraced(month_like, seconds=40.0)
    # one round already lasts 63 s; the 3-second evaluate runs twice in it
    assert month_like.calls == ["fit", "simulate", "evaluate", "evaluate"]
    resim_like = FakeRunner(fit=0.9, simulate=8.0, evaluate=6.0)
    stage_runs = driver.untraced(resim_like, seconds=40.0)
    # the short fit runs three times a round; rounds end at 16.7, 33.4 and 50.1 s
    assert resim_like.calls == (["fit"] * 3 + ["simulate", "evaluate"]) * 3
    assert [len(r) for r in stage_runs.values()] == [9, 3, 3]
    long_fit = FakeRunner(fit=30.0, simulate=2.0, evaluate=2.0)
    driver.untraced(long_fit, seconds=40.0)  # rounds end at 38 and 46 s
    assert long_fit.calls == ["fit"] + (["simulate"] * 2 + ["evaluate"] * 2) * 2


SMALL = {"target_len": 576, "diurnal_harmonics": 3, "volatility_df": 12.0,
         "ensemble_count": 4, "fit_max_iter": 10}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_run_of_each_workload(name, tmp_path):
    """Set-up, every stage untraced and traced, and every check, at T = 576."""
    wl = workloads.WORKLOADS[name]
    small = replace(wl, config=dict(wl.config, **SMALL))
    run_dir, times, hashes, setup_trace = driver.setup_inputs(small, 3, tmp_path, reps=2, trace=True)
    assert len(set(hashes)) == 1 and len(times) == 2
    runner = driver.Runner(small, run_dir, deadline=time.monotonic() + 600)
    stage_runs = driver.untraced(runner, seconds=0.0)
    assert all(1 <= len(runs) <= driver.MAX_SHORT_REPS for runs in stage_runs.values())
    e2e = driver.end_to_end(run_dir, times, stage_runs)
    assert list(e2e) == list(driver.END_TO_END_UNITS)
    assert all(v > 0 for v in e2e.values())
    layers = driver.per_layer(small, run_dir, runner, setup_trace)
    assert set(layers) == set(driver.per_layer_units())
    assert runner.failed == 0
    assert layers["condsim.draw.calls"] == 4
    if wl.fit_at_truth:
        assert layers["whittle.loglik.calls"] == 0
        assert layers["condsim.sampler_build.calls"] == 1
    else:
        assert layers["whittle.loglik.calls"] > 0
        assert layers["condsim.sampler_build.calls"] == 4
    assert layers["synth.write_dataset.s"] > 0
    fp = checks.fingerprint(run_dir / workloads.FIT_REPORT, run_dir / workloads.METRICS)
    assert len(fp) == 3


def test_failed_stage_is_counted_with_its_stderr_line(tmp_path, capsys):
    wl = replace(workloads.WORKLOADS["month"], config=dict(workloads.WORKLOADS["month"].config, **SMALL))
    run_dir, *_ = driver.setup_inputs(wl, 3, tmp_path, reps=1, trace=False)
    (run_dir / "synthetic" / "observations.csv").write_text("not,a,header\n")
    runner = driver.Runner(wl, run_dir, deadline=time.monotonic() + 600)
    with pytest.raises(driver.Failed):
        driver.untraced(runner, seconds=0.0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "check fit: FAIL exit 1: [fit] " in capsys.readouterr().out


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "month", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
