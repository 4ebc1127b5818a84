"""End-to-end pipeline runs through the command-line entry point."""

import errno
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from presim import cli, condsim, synth, verify, whittle
from presim.cli import main
from presim.condsim import ConditionalSampler
from presim.config import RunConfig
from presim.errors import ConfigurationError, FormatError, ValidationError
from presim.rng import RNG_LAYOUT
from presim.spectrum import KnotSet, SpectralModel

T = 576
SEED = 11
ROOT = Path(__file__).resolve().parent.parent


def write_config(path: Path, out_dir: Path, **overrides) -> Path:
    cfg = {
        "stations_path": str(out_dir / "synthetic" / "stations.csv"),
        "observations_path": str(out_dir / "synthetic" / "observations.csv"),
        "output_dir": str(out_dir),
        "block": 1,
        "target_len": T,
        "diurnal_harmonics": 3,
        "volatility_df": 12.0,
        "ensemble_count": 4,
        "vary_params": False,
        "held_out_ids": ["E12", "E13"],
        "seed": SEED,
        "fit_max_iter": 15,
    }
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> fit -> simulate -> evaluate once; share the artifacts."""
    out = tmp_path_factory.mktemp("run")
    cfg = write_config(out / "config.yaml", out)
    assert main(["--config", str(cfg), "synth"]) == 0
    assert main(["--config", str(cfg), "fit"]) == 0
    fit_report = out / "fit_report.json"
    assert main(["--config", str(cfg), "simulate", "--fit-report", str(fit_report)]) == 0
    assert main([
        "--config", str(cfg), "evaluate",
        "--fit-report", str(fit_report),
        "--ensemble-dir", str(out / "ensemble"),
    ]) == 0
    return out, cfg


def test_synth_writes_dataset(pipeline):
    out, _ = pipeline
    synth_dir = out / "synthetic"
    assert (synth_dir / "stations.csv").exists()
    assert json.loads((synth_dir / "truth.json").read_text())["rng_layout"] == RNG_LAYOUT
    obs_lines = (synth_dir / "observations.csv").read_text().splitlines()
    assert obs_lines[0] == "timestamp,station_id,pressure_kPa"
    assert len(obs_lines) == 1 + 13 * (T + 1)


def test_synth_ignores_a_stray_truth_params_file(tmp_path):
    # a truth_params.json in the config's output_dir is not an input
    outputs = []
    for name, stray in (("clean", False), ("stray", True)):
        base = tmp_path / name
        base.mkdir()
        if stray:
            params = {"s_coeffs": [0.5] * 8, "beta_coeffs": [1.0] * 4,
                      "delta_coeffs": [2.0] * 12, "theta_coeffs": [0.1] * 3, "u_angle": 1.0}
            (base / "truth_params.json").write_text(json.dumps({"params": params}))
        cfg = write_config(base / "config.yaml", base)
        assert main(["--config", str(cfg), "--out", str(base / "run"), "synth"]) == 0
        outputs.append((base / "run" / "synthetic" / "observations.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_fit_report_contents(pipeline):
    out, _ = pipeline
    report = json.loads((out / "fit_report.json").read_text())
    assert report["n_params"] == 28
    assert len(report["station_ids"]) == 11
    assert "E12" not in report["station_ids"]
    assert np.isfinite(report["fit"]["loglik"])
    assert len(report["fit"]["params"]["s_coeffs"]) == 8


def test_ensemble_output(pipeline):
    out, _ = pipeline
    manifest = json.loads((out / "ensemble" / "manifest.json").read_text())
    assert manifest["n_members"] == 4
    assert manifest["target_ids"] == ["E12", "E13"]
    assert manifest["seed"] == SEED
    assert manifest["rng_layout"] == RNG_LAYOUT
    assert set(manifest["mean_field"]) == {"chosen", "reml_logliks"}
    assert manifest["step_seconds"] == 300.0
    synth_truth = json.loads((out / "synthetic" / "truth.json").read_text())
    assert manifest["start_time"] == synth_truth["start"]
    assert sorted(p.name for p in (out / "ensemble").iterdir()) == ["manifest.json", "pressure.npy"]
    assert (out / "observations.npz").is_file()  # beside the ensemble, not in it
    vals = np.load(out / "ensemble" / "pressure.npy", allow_pickle=False)
    assert vals.shape == (4, 2, T + 1)
    # simulated pressures are physically plausible surface values
    assert np.all((vals > 80.0) & (vals < 110.0))


VERDICT_KEYS = {"counts", "chi_square", "coverage_rank", "n_outside", "n_above", "n_below",
                "mean_width", "never_extreme_count", "truth_never_extreme",
                "truth_extreme_times"}


def test_metrics_structure(pipeline):
    out, _ = pipeline
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_members"] == 4
    assert set(metrics["targets"]) == {"E12", "E13"}
    for tgt in metrics["targets"].values():
        hists = tgt["rank_histograms"]
        assert set(hists) == {"all", "hourly", "top_decile_volatility"}
        assert sum(hists["all"]["counts"]) == T
        assert len(hists["all"]["counts"]) == 5
        levels = tgt["levels"]
        assert sum(levels["counts"]) == T + 1
        assert levels["n_outside"] == levels["n_above"] + levels["n_below"]
        for v in [levels, *hists.values()]:
            assert set(v) == VERDICT_KEYS
            assert 1 <= v["coverage_rank"] <= 5
    methods = {row["method"] for row in metrics["score_table"]}
    assert methods == {"ensemble_mean", "nearest_neighbor"}


def test_simulate_is_bit_reproducible(pipeline, tmp_path):
    out, cfg = pipeline
    rerun = tmp_path / "rerun"
    code = main([
        "--config", str(cfg), "--out", str(rerun),
        "simulate", "--fit-report", str(out / "fit_report.json"),
    ])
    assert code == 0
    names = sorted(p.name for p in (rerun / "ensemble").iterdir())
    assert names == ["manifest.json", "pressure.npy"]
    for name in names:
        assert (rerun / "ensemble" / name).read_bytes() == \
            (out / "ensemble" / name).read_bytes()


def test_failed_simulate_leaves_no_partial_ensemble(pipeline, tmp_path, capsys, monkeypatch):
    # a member that fails leaves no partial file, and leaves an earlier
    # complete ensemble in the same directory as it was
    out, cfg = pipeline
    draw, members = ConditionalSampler.draw, []

    def draw_failing_at_member_2(self, rng):
        members.append(len(members))
        if members[-1] == 2:
            raise ValidationError("draw failed at member 2")
        return draw(self, rng)

    monkeypatch.setattr(ConditionalSampler, "draw", draw_failing_at_member_2)
    fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
    shutil.copytree(out / "ensemble", earlier / "ensemble")
    before = {p.name: p.read_bytes() for p in (earlier / "ensemble").iterdir()}
    for base in (fresh, earlier):
        members.clear()
        code = main([
            "--config", str(cfg), "--out", str(base),
            "simulate", "--fit-report", str(out / "fit_report.json"),
        ])
        assert code == 1
        assert "[simulate] error: draw failed at member 2" in capsys.readouterr().err
    assert list((fresh / "ensemble").glob("*")) == []
    assert {p.name: p.read_bytes() for p in (earlier / "ensemble").iterdir()} == before


@pytest.mark.parametrize("artifact, stage", [
    ("fit_report.json", "fit"), ("manifest.json", "simulate"), ("metrics.json", "evaluate"),
])
def test_a_failed_artifact_write_leaves_the_earlier_artifacts(pipeline, tmp_path, capsys,
                                                               monkeypatch, artifact, stage):
    # the disk fills halfway through the artifact's text: the stage exits 1
    # and every earlier artifact stays as it was. For the manifest that takes
    # in pressure.npy too, which a seed-2 simulate would change: a new array
    # beside the old manifest is a record of a draw it does not describe.
    out, cfg = pipeline
    base = tmp_path / "run"
    base.mkdir()
    for name in ("observations.npz", "fit_report.json", "metrics.json"):
        shutil.copy(out / name, base / name)
    shutil.copytree(out / "ensemble", base / "ensemble")
    earlier = {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()}
    write_text = Path.write_text

    def fill_the_disk(self, data, *args, **kwargs):
        if not self.name.startswith(artifact):
            return write_text(self, data, *args, **kwargs)
        write_text(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

    monkeypatch.setattr(Path, "write_text", fill_the_disk)
    argv = dict(zip(("fit", "simulate", "evaluate"), stage_argvs(cfg, base)))[stage]
    assert main(["--seed", "2", *argv]) == 1
    assert capsys.readouterr().err.startswith(f"[{stage}] I/O error: [Errno {errno.ENOSPC}]")
    assert list(base.rglob("*.partial")) == []
    pressure = Path("ensemble", "pressure.npy")
    assert (base / pressure).read_bytes() == earlier[pressure]
    assert {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()} == earlier


def test_simulate_rejects_a_fit_whose_conditional_law_is_not_finite(pipeline, tmp_path, capsys):
    # a marginal spectrum that overflows: simulate names the frequency and
    # writes no ensemble, where it once wrote an all-NaN one
    out, cfg = pipeline
    report = json.loads((out / "fit_report.json").read_text())
    report["fit"]["params"]["s_coeffs"] = [c + 800.0 for c in report["fit"]["params"]["s_coeffs"]]
    bad = tmp_path / "bad_fit_report.json"
    bad.write_text(json.dumps(report))
    fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
    shutil.copytree(out / "ensemble", earlier / "ensemble")
    before = {p.name: p.read_bytes() for p in (earlier / "ensemble").iterdir()}
    for base in (fresh, earlier):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["--config", str(cfg), "--out", str(base),
                         "simulate", "--fit-report", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("[simulate] error: conditional law not finite at frequency")
    assert not (fresh / "ensemble" / "pressure.npy").exists()
    assert {p.name: p.read_bytes() for p in (earlier / "ensemble").iterdir()} == before


def test_parameter_draws_reject_a_fit_whose_hessian_is_not_finite(pipeline, tmp_path, capsys):
    # with vary_params on, a NaN in the Hessian is named before any member
    # is drawn; it once gave NaN draws, which failed later as
    # "s_coeffs contains non-finite values"
    out, _ = pipeline
    report = json.loads((out / "fit_report.json").read_text())
    report["fit"]["hessian"][2][7] = report["fit"]["hessian"][7][2] = float("nan")
    bad = tmp_path / "nan_hessian_report.json"
    bad.write_text(json.dumps(report))
    cfg = write_config(tmp_path / "vary.yaml", out, vary_params=True)
    code = main(["--config", str(cfg), "--out", str(tmp_path), "simulate", "--fit-report", str(bad)])
    assert code == 1
    assert capsys.readouterr().err.startswith("[simulate] error: the fit's Hessian is not finite")
    assert list((tmp_path / "ensemble").glob("*")) == []


def test_each_stage_builds_one_frequency_plan(pipeline, tmp_path, monkeypatch):
    # the split and the designs are computed once per stage: the fit's
    # objective and start point share one plan, and every member of an
    # ensemble, with parameter draws or without, shares another
    out, cfg = pipeline
    built = []
    init = whittle.FrequencyPlan.__init__
    monkeypatch.setattr(whittle.FrequencyPlan, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    generate = synth.generate
    monkeypatch.setattr(synth, "generate", lambda *a, **k: built.append("generate") or generate(*a, **k))
    report = str(out / "fit_report.json")
    vary = write_config(tmp_path / "vary.yaml", out, vary_params=True)
    for argv in ([str(cfg), "--out", str(tmp_path / "synth"), "synth"],
                 [str(cfg), "--out", str(tmp_path / "fit"), "fit"],
                 [str(cfg), "--out", str(tmp_path / "fixed"), "simulate", "--fit-report", report],
                 [str(vary), "--out", str(tmp_path / "vary"), "simulate", "--fit-report", report]):
        built.clear()
        assert main(["--config", *argv]) == 0
        assert built == (["generate", 1] if argv[-1] == "synth" else [1])


def evaluate(cfg, out, ensemble_dir, tmp_path):
    return main([
        "--config", str(cfg), "--out", str(tmp_path), "evaluate",
        "--fit-report", str(out / "fit_report.json"), "--ensemble-dir", str(ensemble_dir),
    ])


def test_evaluate_prints_verdict_per_histogram(pipeline, tmp_path, capsys):
    out, cfg = pipeline
    assert evaluate(cfg, out, out / "ensemble", tmp_path) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "chi-square" in l]
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    expected = [
        f"{tid}/{label}: chi-square {v['chi_square']:.1f}, coverage rank {v['coverage_rank']} of 5"
        for tid, t in metrics["targets"].items()
        for label, v in [("levels", t["levels"]), *t["rank_histograms"].items()]
    ]
    assert len(expected) == 8
    assert sorted(lines) == sorted(expected)


def test_evaluate_scores_the_members_and_their_changes(pipeline, tmp_path, monkeypatch):
    # score overwrites each target's member levels with their changes, in
    # place: every quantity must still see what the whole-array differences,
    # hourly aggregates and top-decile columns of the ensemble give
    out, cfg = pipeline
    seen, verdicts = [], verify.verdicts
    monkeypatch.setattr(verify, "verdicts", lambda truth, members, seed: seen.append(
        (np.array(truth), np.array(members))) or verdicts(truth, members, seed))
    assert evaluate(cfg, out, out / "ensemble", tmp_path) == 0
    pressure = np.load(out / "ensemble" / "pressure.npy")
    ids = json.loads((out / "ensemble" / "manifest.json").read_text())["target_ids"]
    assert len(seen) == 8
    for k, target in enumerate(["E12", "E13"]):
        levels = pressure[:, ids.index(target)]
        (truth, members), changes, hourly, top = seen[4 * k:4 * k + 4]
        assert np.array_equal(members, levels)
        assert np.array_equal(changes[0], np.diff(truth))
        assert np.array_equal(changes[1], np.diff(levels, axis=1))
        assert np.array_equal(hourly[0], verify.aggregate_diffs(truth, 12))  # 5-minute steps
        assert np.array_equal(hourly[1], verify.aggregate_diffs(levels, 12))
        columns = {tuple(c) for c in changes[1].T}
        assert top[1].shape == (4, round(0.1 * T))
        assert all(tuple(c) in columns for c in top[1].T)


def test_metrics_meet_the_benchmark_contract(pipeline):
    # perfbench/checks.py reads metrics.json by these keys; a change that
    # broke them would make every benchmark run of the program fail
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    out, _ = pipeline
    report, metrics = out / "fit_report.json", out / "metrics.json"
    n_times = checks.expected_counts(report, T)
    assert checks.check_metrics(metrics, ["E12", "E13"], 4, n_times) == []
    fingerprint = checks.fingerprint(report, metrics)
    assert set(fingerprint) == {"fit_params", "rank_counts", "score_table"}
    assert all(len(digest) == 64 for digest in fingerprint.values())


def _truncate(d):
    data = (d / "pressure.npy").read_bytes()
    (d / "pressure.npy").write_bytes(data[: len(data) // 2])


def _pickle(d):
    pressure = np.load(d / "pressure.npy")
    np.save(d / "pressure.npy", pressure.astype(object), allow_pickle=True)


def _flatten(d):
    np.save(d / "pressure.npy", np.load(d / "pressure.npy").reshape(4, -1))


def _float32(d):
    np.save(d / "pressure.npy", np.load(d / "pressure.npy").astype(np.float32))


def _fortran(d):
    np.save(d / "pressure.npy", np.asfortranarray(np.load(d / "pressure.npy")))


def _big_endian(d):
    np.save(d / "pressure.npy", np.load(d / "pressure.npy").astype(">f8"))


def _trailing_bytes(d):
    with open(d / "pressure.npy", "ab") as fh:
        fh.write(b"\0" * 8)


def _not_finite(d):
    # evaluate wrote NaN scores into metrics.json, which is not JSON
    e13 = json.loads((d / "manifest.json").read_text())["target_ids"].index("E13")
    pressure = np.load(d / "pressure.npy")
    pressure[2, e13, 100:200] = np.nan
    pressure[3, e13, 50] = -np.inf
    np.save(d / "pressure.npy", pressure)


def _infinite_member(d):
    # a member of +inf only, ahead of _not_finite's: its min is not finite either
    _not_finite(d)
    e13 = json.loads((d / "manifest.json").read_text())["target_ids"].index("E13")
    pressure = np.load(d / "pressure.npy")
    pressure[1, e13] = np.inf
    np.save(d / "pressure.npy", pressure)


def _truncate_manifest(d):
    (d / "manifest.json").write_text((d / "manifest.json").read_text()[:100])


def _edit_manifest(**changes):
    def edit(d):
        manifest = json.loads((d / "manifest.json").read_text())
        manifest.update(changes)
        (d / "manifest.json").write_text(json.dumps(manifest))
    return edit


@pytest.mark.parametrize("damage, message", [
    (_truncate, "pressure.npy"),
    (_pickle, "pressure.npy"),
    (_flatten, "not (members, targets, times)"),
    # np.load reads the next four, but evaluate's row reads need simulate's layout
    (_float32, "pressure.npy: dtype <f4 is not little-endian float64 in C order"),
    (_fortran, "pressure.npy: dtype <f8 in Fortran order is not little-endian"),
    (_big_endian, "pressure.npy: dtype >f8 is not little-endian float64"),
    (_trailing_bytes, "pressure.npy: 37064 bytes, not the 128-byte header and"),
    (_not_finite, "pressure.npy: target E13, member 2 is not finite"),
    (_infinite_member, "pressure.npy: target E13, member 1 is not finite"),
    (_edit_manifest(n_members=5), "5 members"),
    (_edit_manifest(target_ids=["E12", "X99"]), "['E13']"),
    (_truncate_manifest, "manifest.json: not a readable ensemble manifest (JSONDecodeError("),
])
def test_evaluate_rejects_damaged_ensemble(pipeline, tmp_path, capsys, damage, message):
    out, cfg = pipeline
    damaged = tmp_path / "ensemble"
    shutil.copytree(out / "ensemble", damaged)
    damage(damaged)
    assert evaluate(cfg, out, damaged, tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("[evaluate] error:")
    assert message in captured.err
    # no verdict before every target is read: under _not_finite, E12 is whole
    assert "chi-square" not in captured.out
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("damage", [_float32, _fortran, _big_endian, _trailing_bytes])
def test_pressure_header_damage_is_a_format_error(pipeline, tmp_path, damage):
    # np.load reads these four, so the header check alone rejects them
    out, _ = pipeline
    shutil.copytree(out / "ensemble", tmp_path / "ensemble")
    damage(tmp_path / "ensemble")
    fit = whittle.FitResult.from_dict(json.loads((out / "fit_report.json").read_text())["fit"])
    with pytest.raises(FormatError, match="pressure.npy"):
        condsim.open_ensemble(tmp_path / "ensemble", fit)


def test_evaluate_holds_one_target_of_the_ensemble(pipeline, tmp_path):
    # 8 targets, of which E12 and E13 are held out: evaluate reads those two
    # and writes the metrics of a 2-target ensemble. The fixture's 4 members
    # are tiled to 400, so that the array (14.8 MB) outweighs the stage's
    # other allocations: on the fixture's own ensemble its peak is 1.45 MB.
    # Scoring a target holds its (members, T+1) block (1.85 MB), a tenth of
    # it for the top-decile changes and one block of the verdict pass: at
    # one whole extra block (a copy of the changes or a sort of the whole
    # stack) the peak read 2.7 blocks, 5.0 MB, against the bound's 4.3 MB.
    out, cfg = pipeline
    pressure = np.tile(np.load(out / "ensemble" / "pressure.npy"), (100, 1, 1))
    manifest = json.loads((out / "ensemble" / "manifest.json").read_text())
    rows = dict(zip(manifest["target_ids"], pressure.transpose(1, 0, 2)))
    ids = ["C0", "E12", "C1", "C2", "E13", "C3", "C4", "C5"]
    wide = np.stack([rows.get(t, rows["E12"] if i % 2 else rows["E13"])
                     for i, t in enumerate(ids)], axis=1)
    config = RunConfig.from_yaml(cfg)
    metrics, peaks = {}, {}
    for name, data, target_ids in [("narrow", pressure, manifest["target_ids"]),
                                   ("wide", wide, ids)]:
        d = tmp_path / name
        shutil.copytree(out / "ensemble", d / "ensemble")
        np.save(d / "ensemble" / "pressure.npy", data)
        (d / "ensemble" / "manifest.json").write_text(
            json.dumps(dict(manifest, n_members=400, target_ids=target_ids)))
        shutil.copy(out / "observations.npz", d)  # the parse is not what is measured
        tracemalloc.start()
        try:
            cli.cmd_evaluate(config, out / "fit_report.json", d / "ensemble", d / "metrics.json")
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        metrics[name] = (d / "metrics.json").read_bytes()
    assert metrics["wide"] == metrics["narrow"]
    assert json.loads(metrics["wide"])["n_members"] == 400
    assert peaks["wide"] < wide.nbytes / 2
    assert peaks["wide"] < 1.5 * wide.nbytes / len(ids) + 1.5e6


def test_warm_grid_build_holds_little_besides_the_grid(pipeline):
    # with observations.npz warm, `_build_grid` hashes the observation file
    # (0.32 MB) and reads the cached parse into a 0.05 MB grid. Hashed in
    # 1 MiB reads the peak read 1.38 MB, nearly all of it the read buffer;
    # in 64 KiB reads it reads 0.26 MB.
    out, cfg = pipeline
    config = RunConfig.from_yaml(cfg)
    stations, held = cli._split_stations(config)
    ids = [s.id for s in stations if s not in held]
    cli._build_grid(config, stations, ids, out)  # numpy's lazy loads come first
    tracemalloc.start()
    try:
        grid = cli._build_grid(config, stations, ids, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.values.shape == (len(ids), T + 1)
    assert peak < 0.5e6


def _without(key):
    def drop(text):
        return json.dumps({k: v for k, v in json.loads(text).items() if k != key})
    return drop


def _stack_value(*path, value):
    """A damage setting the stack's entry at `path` (keys, then an index) to `value`."""
    def damage(text):
        report = json.loads(text)
        *parents, last = path
        node = report["stack"]
        for key in parents:
            node = node[key]
        node[last] = value
        return json.dumps(report)  # non-finite floats as JSON's Infinity and NaN
    return damage


def _edited(edit):
    """A damage applying `edit` to the report's parsed JSON."""
    def damage(text):
        report = json.loads(text)
        edit(report)
        return json.dumps(report)
    return damage


def _move_s_value_to_beta(report):
    params = report["fit"]["params"]
    params["beta_coeffs"].append(params["s_coeffs"].pop())


@pytest.mark.parametrize("stage", ["simulate", "evaluate"])
@pytest.mark.parametrize("damage, message", [
    (lambda text: text[:300], "(JSONDecodeError("),
    (lambda text: json.dumps({"stack": {}}), "(KeyError('sea_level'))"),
    (_without("fit"), "(KeyError('fit'))"),
    (_without("station_ids"), "(KeyError('station_ids'))"),
    (lambda text: text.replace('"start_time": "2005-10-', '"start_time": "2005-13-'),
     "(ValueError('month must be in 1..12'))"),
    (_stack_value("sea_level", "scale_height", value=float("inf")),
     "(ValidationError('scale_height must be finite and positive'))"),
    (_stack_value("sea_level", "scale_height", value=0),
     "(ValidationError('scale_height must be finite and positive'))"),
    (_stack_value("sea_level", "log_p0", value=float("nan")),
     "(ValidationError('log_p0 must be finite'))"),
    (_stack_value("volatility", "values", 5, value=float("inf")),
     "(ValidationError('volatility must be finite and strictly positive'))"),
    (_stack_value("diurnal", "coefficients", 0, value=float("nan")),
     "(ValidationError('diurnal coefficients must be finite'))"),
    (_stack_value("site_means", 2, value=float("nan")),
     "(ValidationError('site_means must be finite'))"),
    (_edited(lambda report: report["stack"]["diurnal"].pop("coefficients")),
     "(KeyError('coefficients'))"),
    (_edited(lambda report: report["fit"]["params"]["s_coeffs"].pop()),
     "(ValidationError('s_coeffs must have 8 values, one per basis function'))"),
    (_edited(_move_s_value_to_beta),
     "(ValidationError('s_coeffs must have 8 values, one per basis function'))"),
], ids=["truncated", "empty_stack", "no_fit", "no_station_ids", "bad_start_time",
        "infinite_scale_height", "zero_scale_height", "nan_log_p0", "infinite_volatility",
        "nan_diurnal", "nan_site_mean", "no_diurnal_coefficients", "s_value_dropped",
        "s_value_moved_to_beta"])
def test_damaged_fit_report_rejected(pipeline, tmp_path, capsys, stage, damage, message):
    # each ended the stage in a bare JSONDecodeError, KeyError or ValueError
    # traceback, an error naming no file, or (an infinite scale height or
    # volatility) an ensemble written from the damaged stack; a report
    # without diurnal coefficients ran with no diurnal cycle, and with
    # `vary_params` a value moved between coefficient kinds shifted every
    # member's parameters
    out, cfg = pipeline
    report = tmp_path / "fit_report.json"
    report.write_text(damage((out / "fit_report.json").read_text()))
    extra = ["--ensemble-dir", str(out / "ensemble")] if stage == "evaluate" else []
    code = main(["--config", str(cfg), "--out", str(tmp_path), stage,
                 "--fit-report", str(report), *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[{stage}] error: {report}: not a readable fit report {message}")
    assert not (tmp_path / "ensemble").exists()
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("name, tail, message", [
    ("observations.csv", b"2005-10-01T00:00:00+00:00,E01\n", "expected 3 fields, got 2"),
    ("observations.csv", b"2005-10-01T00:00:00+00:00,E01,97.0,1\n", "expected 3 fields, got 4"),
    ("stations.csv", b"E99,36.0,-97.0,300.0,1\n", "expected 4 fields, got 5"),
    ("observations.csv", b"2005-10-01T00:00:00+00:00,E01,97\xb00\n", "not UTF-8"),
    ("stations.csv", b"E\xe999,36.0,-97.0,300.0\n", "not UTF-8"),
])
def test_evaluate_rejects_malformed_inputs(pipeline, tmp_path, capsys, name, tail, message):
    out, _ = pipeline
    shutil.copytree(out / "synthetic", tmp_path / "synthetic")
    damaged = tmp_path / "synthetic" / name
    damaged.write_bytes(damaged.read_bytes() + tail)
    cfg = write_config(tmp_path / "config.yaml", tmp_path)
    assert evaluate(cfg, out, out / "ensemble", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("[evaluate] error:")
    where = str(damaged) if "UTF-8" in message else f"{damaged}:{len(damaged.read_bytes().splitlines())}"
    assert f"{where}: {message}" in err


def test_evaluate_rejects_ensemble_of_another_fit(pipeline, tmp_path, capsys):
    out, cfg = pipeline
    report = json.loads((out / "fit_report.json").read_text())
    report["fit"]["params"]["u_angle"] += 0.1
    other = tmp_path / "other_fit_report.json"
    other.write_text(json.dumps(report))
    code = main([
        "--config", str(cfg), "--out", str(tmp_path), "evaluate",
        "--fit-report", str(other), "--ensemble-dir", str(out / "ensemble"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("[evaluate] error:")
    assert "simulated from another fit" in err
    assert not (tmp_path / "metrics.json").exists()


def without_rows_of(out, tmp_path, sid):
    """A config whose observation file is the pipeline's without station `sid`'s rows."""
    shutil.copytree(out / "synthetic", tmp_path / "synthetic")
    obs = tmp_path / "synthetic" / "observations.csv"
    lines = obs.read_bytes().splitlines(keepends=True)
    obs.write_bytes(b"".join(l for l in lines if f",{sid},".encode() not in l))
    return write_config(tmp_path / "config.yaml", tmp_path), obs


@pytest.mark.parametrize("stage, sid", [
    ("fit", "E05"), ("simulate", "E05"), ("evaluate", "E05"), ("evaluate", "E13"),
])
def test_station_without_observation_rows_is_rejected(pipeline, tmp_path, capsys, stage, sid):
    # a fitted or held-out station with no rows is named, not dropped
    out, _ = pipeline
    cfg, obs = without_rows_of(out, tmp_path, sid)
    args = {"fit": [],
            "simulate": ["--fit-report", str(out / "fit_report.json")],
            "evaluate": ["--fit-report", str(out / "fit_report.json"),
                         "--ensemble-dir", str(out / "ensemble")]}[stage]
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), stage, *args]) == 1
    err = capsys.readouterr().err
    assert f"[{stage}] error: {obs}: no observation rows for stations ['{sid}']" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("block, message", [
    (1, "station E05: 1 averages < required 577"),
    (5, "station E05: 1 values, shorter than one block of 5"),
])
def test_station_with_one_observation_row_is_named(pipeline, tmp_path, capsys, block, message):
    # a one-row station gets a series of one value: the fit names it, where
    # it once failed on a "differing time steps" or "shorter than one
    # block" that named no station
    out, _ = pipeline
    shutil.copytree(out / "synthetic", tmp_path / "synthetic")
    obs = tmp_path / "synthetic" / "observations.csv"
    lines = obs.read_bytes().splitlines(keepends=True)
    e05 = [l for l in lines if b",E05," in l]
    obs.write_bytes(b"".join(l for l in lines if l not in e05[1:]))
    cfg = write_config(tmp_path / "config.yaml", tmp_path, block=block,
                      target_len=(T + 1) // block - 1)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "fit"]) == 1
    assert capsys.readouterr().err.startswith(f"[fit] error: {message}")


def shifted_observations(tmp_path, out, days):
    """A copy of the pipeline's observation file with every timestamp `days` later."""
    shutil.copytree(out / "synthetic", tmp_path / "synthetic")
    obs = tmp_path / "synthetic" / "observations.csv"
    header, *rows = obs.read_text().splitlines()
    moved = []
    for row in rows:
        stamp, rest = row.split(",", 1)
        stamp = (datetime.fromisoformat(stamp) + timedelta(days=days)).isoformat()
        moved.append(f"{stamp},{rest}")
    obs.write_text("\n".join([header, *moved]) + "\n")


@pytest.mark.parametrize("stage, days, overrides, grid_axis", [
    ("simulate", 3, {}, "2005-10-04T00:00:00+00:00 with a 300 s step"),
    ("evaluate", 3, {}, "2005-10-04T00:00:00+00:00 with a 300 s step"),
    ("simulate", 0, {"block": 2, "target_len": T // 2 - 1},
     "2005-10-01T00:00:00+00:00 with a 600 s step"),
], ids=["simulate_3_days_later", "evaluate_3_days_later", "simulate_10_minute_blocks"])
def test_observations_on_another_time_axis_rejected(pipeline, tmp_path, capsys, stage, days,
                                                     overrides, grid_axis):
    # the stack's volatility series and diurnal phase belong to the fit's
    # window; apply_stack checks only the length, so a shifted copy of the
    # observations ran both stages to exit 0
    out, _ = pipeline
    shifted_observations(tmp_path, out, days)
    cfg = write_config(tmp_path / "config.yaml", tmp_path, **overrides)
    extra = ["--ensemble-dir", str(out / "ensemble")] if stage == "evaluate" else []
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), stage,
                 "--fit-report", str(out / "fit_report.json"), *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[{stage}] error: observations start at {grid_axis}, the fit "
                          "report's at 2005-10-01T00:00:00+00:00 with a 300 s step")
    assert not (tmp_path / "run" / "ensemble").exists()
    assert not (tmp_path / "run" / "metrics.json").exists()


def test_simulate_rejects_another_target_len(pipeline, tmp_path, capsys):
    # the fit's volatility series has one value per step of its window
    out, _ = pipeline
    cfg = write_config(tmp_path / "config.yaml", out, target_len=T - 10)
    code = main(["--config", str(cfg), "--out", str(tmp_path), "simulate",
                 "--fit-report", str(out / "fit_report.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "[simulate] error: grid length inconsistent with fitted volatility")
    assert not (tmp_path / "ensemble").exists()


def stage_argvs(cfg, base):
    """presim arguments of fit, simulate and evaluate, each writing under `base`."""
    report = str(base / "fit_report.json")
    common = ["--config", str(cfg), "--out", str(base)]
    return [[*common, "fit"],
            [*common, "simulate", "--fit-report", report],
            [*common, "evaluate", "--fit-report", report, "--ensemble-dir", str(base / "ensemble")]]


@pytest.mark.parametrize("stage, tail, output", [
    ("fit", [], "fit_report.json"),
    ("simulate", ["--fit-report", "r.json"], "ensemble"),
    ("evaluate", ["--fit-report", "r.json", "--ensemble-dir", "e"], "metrics.json"),
    ("synth", [], "synthetic"),
])
def test_main_calls_the_stage_by_its_module_name(tmp_path, capsys, monkeypatch, stage, tail,
                                                 output):
    # a stage replaced on the module after import, as a tracer replaces it,
    # is the one that runs
    calls = []
    monkeypatch.setattr(cli, f"cmd_{stage}", lambda *a: calls.append(a) or a[-1])
    cfg = write_config(tmp_path / "config.yaml", tmp_path)
    assert main(["--config", str(cfg), "--out", str(tmp_path), stage, *tail]) == 0
    [(config, *paths, out)] = calls
    assert isinstance(config, RunConfig) and config.seed == SEED
    assert paths == tail[1::2] and out == tmp_path / output
    assert capsys.readouterr().out == f"wrote {tmp_path / output}\n"


def counting_parses(monkeypatch):
    """A list that gains one entry per parse of the observation file."""
    parsed = []
    load = cli.load_observations
    monkeypatch.setattr(cli, "load_observations", lambda *a: parsed.append(a[0]) or load(*a))
    return parsed


def test_observation_cache_changes_no_output(pipeline, tmp_path, monkeypatch):
    # the stages after the first read its parse from observations.npz; a
    # run that parses in every stage writes the same bytes
    _, cfg = pipeline
    parsed = counting_parses(monkeypatch)
    outputs = {}
    for run, parses in (("cold", 3), ("warm", 1)):
        base = tmp_path / run
        parsed.clear()
        for argv in stage_argvs(cfg, base):
            if run == "cold":
                (base / "observations.npz").unlink(missing_ok=True)
            assert main(argv) == 0
        assert len(parsed) == parses
        assert sorted(p.name for p in (base / "ensemble").iterdir()) == \
            ["manifest.json", "pressure.npy"]
        outputs[run] = [(base / name).read_bytes() for name in (
            "fit_report.json", "ensemble/pressure.npy", "ensemble/manifest.json", "metrics.json")]
    assert outputs["cold"] == outputs["warm"]


def test_observation_cache_is_keyed_by_content(pipeline, tmp_path, monkeypatch):
    # one pressure changed in place, with the file's size and mtime kept
    out, _ = pipeline
    shutil.copytree(out / "synthetic", tmp_path / "synthetic")
    cfg = write_config(tmp_path / "config.yaml", tmp_path)
    fit, simulate, _ = stage_argvs(cfg, tmp_path)
    assert main(fit) == 0
    obs = tmp_path / "synthetic" / "observations.csv"
    before = obs.stat()
    lines = obs.read_bytes().splitlines(keepends=True)
    _, sid, old = lines[1].decode().strip().split(",")
    new = f"{float(old) + 0.5:.8f}"
    lines[1] = lines[1].replace(old.encode(), new.encode())
    obs.write_bytes(b"".join(lines))
    os.utime(obs, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (obs.stat().st_size, obs.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)

    parsed = counting_parses(monkeypatch)
    grids = []
    assemble = cli.assemble_grid
    monkeypatch.setattr(cli, "assemble_grid", lambda *a: grids.append(assemble(*a)) or grids[-1])
    assert main(simulate) == 0
    assert len(parsed) == 1
    assert grids[0].stations[0].id == sid
    assert grids[0].values[0, 0] == float(new) != float(old)


def _drop_e05(lines):
    return [l for l in lines if not l.startswith(b"E05,")]


def _swap_e01_e02(lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


@pytest.mark.parametrize("edit", [_drop_e05, _swap_e01_e02])
def test_observation_cache_is_keyed_by_the_station_ids(pipeline, tmp_path, monkeypatch, edit):
    # the ids in station-file order: the parse lists its series in that order
    out, _ = pipeline
    shutil.copytree(out / "synthetic", tmp_path / "synthetic")
    shutil.copy(out / "observations.npz", tmp_path / "observations.npz")
    cfg = write_config(tmp_path / "config.yaml", tmp_path, fit_max_iter=1)
    fit = stage_argvs(cfg, tmp_path)[0]
    parsed = counting_parses(monkeypatch)
    assert main(fit) == 0
    assert parsed == []  # the same bytes and station ids: the pipeline's parse
    stations = tmp_path / "synthetic" / "stations.csv"
    lines = edit(stations.read_bytes().splitlines(keepends=True))
    stations.write_bytes(b"".join(lines))
    assert main(fit) == 0
    assert len(parsed) == 1
    fitted = [l.split(b",")[0].decode() for l in lines[1:] if not l.startswith((b"E12", b"E13"))]
    assert json.loads((tmp_path / "fit_report.json").read_text())["station_ids"] == fitted
    assert main(fit) == 0
    assert len(parsed) == 1  # the replaced cache holds the new station file's parse


def _write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("damage", [
    lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    lambda p: p.write_bytes(b""),
    lambda p: p.write_bytes(b"not a zip file\n"),
    _write_npy,
    lambda p: np.savez(p, values=np.zeros(3)),
    lambda p: np.savez(p, index=np.array([{"key": None}], dtype=object)),
], ids=["truncated", "empty", "not_a_zip", "npy", "no_index", "pickled"])
def test_damaged_observation_cache_is_parsed_again(pipeline, tmp_path, monkeypatch, damage):
    out, cfg = pipeline
    cache = tmp_path / "observations.npz"
    shutil.copy(out / "observations.npz", cache)
    damage(cache)
    parsed = counting_parses(monkeypatch)
    assert main(["--config", str(cfg), "--out", str(tmp_path),
                 "simulate", "--fit-report", str(out / "fit_report.json")]) == 0
    assert len(parsed) == 1
    with np.load(cache, allow_pickle=False) as got, \
            np.load(out / "observations.npz", allow_pickle=False) as want:
        assert sorted(got) == sorted(want) == ["ends", "index", "values"]
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ensemble", "observations.npz"]


def test_fit_parses_the_held_out_stations_rows(pipeline, tmp_path, capsys):
    # every stage parses every station of the station file, so that one
    # parse serves them all: a held-out station's bad row fails `fit` too
    out, _ = pipeline
    shutil.copytree(out / "synthetic", tmp_path / "synthetic")
    obs = tmp_path / "synthetic" / "observations.csv"
    obs.write_bytes(obs.read_bytes() + b"2005-10-01T00:00:00+00:00,E13,97.x\n")
    cfg = write_config(tmp_path / "config.yaml", tmp_path)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "fit"]) == 1
    line = len(obs.read_bytes().splitlines())
    assert capsys.readouterr().err.startswith(f"[fit] error: {obs}:{line}: bad pressure '97.x'")
    assert not (tmp_path / "run").exists()


def modules_after(*argv, package: str = "scipy", imports: str = "presim.cli") -> list:
    """`package` and its submodules as loaded by a fresh process that
    imports `imports` and, given arguments, runs `presim <argv>`."""
    code = (
        f"import sys, {imports}\n"
        "code = presim.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        f"print(code, *sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True)
    code, *modules = res.stdout.splitlines()[-1].split()
    assert code == "0", res.stderr
    return modules


def test_cli_import_loads_no_scipy():
    # every stage process pays for what `presim.cli` imports
    assert modules_after() == []
    assert modules_after(imports="presim.whittle") == []


def test_fit_loads_no_scipy(pipeline, tmp_path):
    # the optimizer and the start point's root finder are numpy's
    _, cfg = pipeline
    assert modules_after("--config", str(cfg), "--out", str(tmp_path), "fit") == []
    assert (tmp_path / "fit_report.json").exists()


def test_fit_loads_no_numpy_ma(pipeline, tmp_path):
    # the smoother's knot spans and the start point's band edges need no
    # np.unique, and neither do the later stages
    out, cfg = pipeline
    report = str(out / "fit_report.json")
    assert modules_after("--config", str(cfg), "--out", str(tmp_path / "fit"), "fit",
                         package="numpy.ma") == []
    assert modules_after("--config", str(cfg), "--out", str(tmp_path / "sim"),
                         "simulate", "--fit-report", report, package="numpy.ma") == []
    assert modules_after("--config", str(cfg), "--out", str(tmp_path / "eval"),
                         "evaluate", "--fit-report", report,
                         "--ensemble-dir", str(out / "ensemble"), package="numpy.ma") == []


def test_cli_import_and_fit_load_no_numpy_random(pipeline, tmp_path):
    # `fit` draws nothing, so no stage should pay for loading the generators
    # before its first draw
    _, cfg = pipeline
    assert modules_after(package="numpy.random") == []
    assert modules_after("--config", str(cfg), "--out", str(tmp_path), "fit",
                         package="numpy.random") == []


def test_simulate_and_evaluate_leave_scipy_unloaded(pipeline, tmp_path):
    out, cfg = pipeline
    report = str(out / "fit_report.json")
    assert modules_after("--config", str(cfg), "--out", str(tmp_path / "sim"),
                         "simulate", "--fit-report", report) == []
    assert modules_after("--config", str(cfg), "--out", str(tmp_path / "eval"),
                         "evaluate", "--fit-report", report,
                         "--ensemble-dir", str(out / "ensemble")) == []


def test_parameter_draws_load_no_optimizer(pipeline, tmp_path):
    # the parameter draws' triangular solve is numpy's
    out, _ = pipeline
    cfg = write_config(tmp_path / "vary.yaml", out, vary_params=True)
    assert modules_after("--config", str(cfg), "--out", str(tmp_path),
                         "simulate", "--fit-report", str(out / "fit_report.json")) == []


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"target_len": 100, "banana": 3}))
    assert main(["--config", str(cfg), "synth"]) == 1
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,stage", [
    ("block", 0, "fit"),
    ("block", -2, "fit"),
    ("target_len", -5, "fit"),
    ("ensemble_count", 0, "simulate"),
    ("ensemble_count", -1, "simulate"),
    ("fit_max_iter", -1, "fit"),
    ("fit_max_iter", 0, "fit"),
])
def test_nonpositive_count_rejected(pipeline, tmp_path, capsys, key, value, stage):
    # block <= 0 ran as block 1; target_len -5 fitted all but the last four
    # steps; ensemble_count 0 wrote an empty ensemble, and -1 failed inside
    # `simulate` with a bare ValueError; fit_max_iter -1 failed inside `fit`
    # with a bare TypeError
    out, _ = pipeline
    cfg = write_config(tmp_path / "bad.yaml", out, **{key: value})
    args = ["--fit-report", str(out / "fit_report.json")] if stage == "simulate" else []
    assert main(["--config", str(cfg), "--out", str(tmp_path), stage, *args]) == 1
    err = capsys.readouterr().err
    assert f"[{stage}] error: {key} must be a positive integer; got {value}" in err
    assert not (tmp_path / "fit_report.json").exists()
    assert not (tmp_path / "ensemble").exists()


def test_fit_takes_the_diurnal_period_from_the_step(tmp_path):
    # a day is 1440 one-minute steps, for the truth and for the fit
    model = SpectralModel(KnotSet.default())
    stations = synth.default_stations()
    stack = synth.default_stack(T, [s.elevation for s in stations], seed=SEED)
    stack = replace(stack, diurnal=replace(stack.diurnal, period=1440))
    truth = synth.generate(model, synth.default_true_params(model), stations, stack, T, SEED)
    synth.write_dataset(truth, tmp_path / "synthetic", step_seconds=60.0)
    cfg = write_config(tmp_path / "config.yaml", tmp_path, fit_max_iter=1)
    assert main(["--config", str(cfg), "fit"]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["step_seconds"] == 60.0
    assert report["stack"]["diurnal"]["period"] == 1440


def test_step_that_does_not_divide_a_day_is_rejected(pipeline, tmp_path, capsys):
    # 7 five-minute steps are 2100 s, and a day is 41.14 of them
    out, _ = pipeline
    cfg = write_config(tmp_path / "block7.yaml", out, block=7, target_len=80)
    assert main(["--config", str(cfg), "--out", str(tmp_path), "fit"]) == 1
    assert "[fit] error: a 2100 s step does not divide a day" in capsys.readouterr().err
    assert not (tmp_path / "fit_report.json").exists()


def test_missing_seed_rejected(pipeline, tmp_path, capsys):
    out, _ = pipeline
    cfg = write_config(tmp_path / "noseed.yaml", out, seed=None)
    code = main([
        "--config", str(cfg), "--out", str(tmp_path),
        "simulate", "--fit-report", str(out / "fit_report.json"),
    ])
    assert code == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("change", ["zeroed_hash", "moved_station"])
@pytest.mark.parametrize("stage", ["simulate", "evaluate"])
def test_geometry_hash_mismatch_fails_fast(pipeline, tmp_path, capsys, stage, change):
    out, cfg = pipeline
    report = out / "fit_report.json"
    if change == "zeroed_hash":
        tampered = json.loads(report.read_text())
        tampered["geometry_hash"] = "0" * len(tampered["geometry_hash"])
        report = tmp_path / "tampered.json"
        report.write_text(json.dumps(tampered))
    else:  # E01, a fit station, 0.1 degrees north of where it was fitted
        lines = (out / "synthetic" / "stations.csv").read_text().splitlines()
        sid, lat, rest = lines[1].split(",", 2)
        assert sid == "E01"
        lines[1] = f"{sid},{float(lat) + 0.1},{rest}"
        moved = tmp_path / "stations.csv"
        moved.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "moved.yaml", out, stations_path=str(moved))
    extra = ["--ensemble-dir", str(out / "ensemble")] if stage == "evaluate" else []
    code = main(["--config", str(cfg), "--out", str(tmp_path),
                 stage, "--fit-report", str(report), *extra])
    assert code == 1
    assert f"[{stage}] error: geometry hash mismatch" in capsys.readouterr().err
    assert not (tmp_path / "ensemble").exists() and not (tmp_path / "metrics.json").exists()


def test_simulate_rejects_unknown_held_out_id(pipeline, tmp_path, capsys):
    # as fit does: no ensemble of the known targets with the unknown id dropped
    out, _ = pipeline
    cfg = write_config(tmp_path / "e99.yaml", out, held_out_ids=["E12", "E13", "E99"])
    code = main([
        "--config", str(cfg), "--out", str(tmp_path),
        "simulate", "--fit-report", str(out / "fit_report.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "[simulate] error: held-out ids not in station file: ['E99']" in err
    assert not (tmp_path / "ensemble").exists()


def test_missing_input_file_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", tmp_path)  # no synthetic data
    assert main(["--config", str(cfg), "fit"]) == 1
    assert "[fit]" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # a bare TypeError: 'int' object is not iterable
    ("5\n", "not a mapping of config keys to values; got 5"),
    # yaml's bare ParserError
    ("block: [1\n", "not readable YAML (while parsing a flow sequence"),
    # a bare TypeError from sorting the unknown keys 1 and 'x'
    ("1: 2\nx: 3\n", "unknown config keys: [1, 'x']"),
    # a bare TypeError from a comparison, in `fit_stack` and `KnotSet.default`
    ({"volatility_df": "abc"}, "volatility_df must be of type float; got 'abc'"),
    ({"omega0_j": "x"}, "omega0_j must be of type int; got 'x'"),
    # read as the characters 'E', '1' and '2'
    ({"held_out_ids": "E12"}, "held_out_ids must be of type list; got 'E12'"),
    # accepted, and the fit wrote a report
    ({"max_gap": -1}, "max_gap must be a non-negative integer; got -1"),
    # a bool is no number, and a number no bool
    ({"block": True}, "block must be of type int; got True"),
    ({"vary_params": 1}, "vary_params must be of type bool; got 1"),
    # a bare UnicodeDecodeError
    (b"block: 1\n\xe9", "bad.yaml: not UTF-8 text (unexpected end of data)"),
    # a bare TypeError from sorting the unknown ids 5 and 'X99'
    ({"held_out_ids": [5, "X99"]}, "held_out_ids must hold station ids (str); got 5"),
], ids=["not_a_mapping", "yaml_syntax", "unknown_keys", "volatility_df", "omega0_j",
        "held_out_ids", "max_gap", "bool_block", "int_vary_params", "not_utf8",
        "numeric_held_out_id"])
def test_bad_config_value_rejected(pipeline, tmp_path, capsys, text, message):
    out, _ = pipeline
    cfg = tmp_path / "bad.yaml"
    if isinstance(text, dict):
        write_config(cfg, out, **text)
    else:
        cfg.write_bytes(text.encode() if isinstance(text, str) else text)
    assert main(["--config", str(cfg), "--out", str(tmp_path), "fit"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[fit] error:")
    assert message in err
    assert not (tmp_path / "fit_report.json").exists()


def test_run_config_round_trip(tmp_path):
    cfg = RunConfig(seed=5, held_out_ids=["A"], block=2, volatility_df=12)  # an int for a float
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(asdict(cfg)))
    loaded = RunConfig.from_yaml(path)
    assert loaded == cfg


def test_readme_config_table_lists_every_key_with_its_default():
    # README's config table: one `| key | default | meaning |` row per
    # RunConfig field, in field order; "none" is YAML's null
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Key | Default | Meaning |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in table.splitlines()]
    documented = {key: None if default == "none" else yaml.safe_load(default)
                  for key, default, _ in rows}
    defaults = asdict(RunConfig())
    assert list(documented) == list(defaults)
    assert {k: (type(v), v) for k, v in documented.items()} == {
        k: (type(v), v) for k, v in defaults.items()}


def test_require_seed():
    with pytest.raises(ConfigurationError):
        RunConfig().require_seed()
    assert RunConfig(seed=7).require_seed() == 7
    assert RunConfig(seed=0).require_seed() == 0
    for bad in (-1, 2.5, 7.0, True, "7"):
        with pytest.raises(ConfigurationError,
                           match=f"seed must be a non-negative integer; got {bad!r}"):
            RunConfig(seed=bad).require_seed()


def test_negative_seed_rejected(tmp_path, capsys):
    # numpy's SeedSequence ended the stage in a bare ValueError
    cfg = write_config(tmp_path / "config.yaml", tmp_path)
    assert main(["--config", str(cfg), "--seed", "-1", "synth"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[synth] error: seed must be a non-negative integer; got -1")
    assert not (tmp_path / "synthetic").exists()
