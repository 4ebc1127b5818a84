"""Config-driven pipeline orchestration.

Subcommands: fit, simulate, evaluate, synth. Each stage reads/writes
serialized artifacts (fit report JSON, ensemble CSV directory, metrics
JSON), so a run can resume from any stage. Exit code 0 on success;
failures exit nonzero with a stage-tagged diagnostic on stderr.
"""

import argparse
import json
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from . import condsim, meanfield, synth, verify
from .config import RunConfig
from .errors import PresimError, ValidationError
from .geometry import SiteGeometry
from .ingest import assemble_grid, block_average, fill_missing, load_observations, load_stations
from .preprocess import TransformStack, apply_stack, difference, fit_stack, to_sea_level
from .spectrum import KnotSet, SpectralModel, SpectralParams
from .whittle import FitOptions, FitResult, fit_mle, forward_dft, initial_params


def _build_grid(config: RunConfig, station_ids=None):
    stations = load_stations(config.stations_path)
    if station_ids is not None:
        wanted = set(station_ids)
        stations = [s for s in stations if s.id in wanted]
        missing = wanted - {s.id for s in stations}
        if missing:
            raise ValidationError(f"stations not in file: {sorted(missing)}")
    series = load_observations(config.observations_path, stations)
    processed = []
    for s in series:
        s = fill_missing(s, config.max_gap)
        if config.block > 1:
            s = block_average(s, config.block)
        processed.append(s)
    return assemble_grid(processed, config.target_len)


def _fit_station_ids(config: RunConfig):
    stations = load_stations(config.stations_path)
    held = set(config.held_out_ids)
    unknown = held - {s.id for s in stations}
    if unknown:
        raise ValidationError(f"held-out ids not in station file: {sorted(unknown)}")
    return [s.id for s in stations if s.id not in held]


def _grid_geometry(grid) -> SiteGeometry:
    return SiteGeometry(
        np.array([s.latitude for s in grid.stations]),
        np.array([s.longitude for s in grid.stations]),
    )


def cmd_fit(config: RunConfig, out_path) -> Path:
    grid = _build_grid(config, _fit_station_ids(config))
    stack = fit_stack(
        grid,
        diurnal_period=config.diurnal_period,
        n_harmonics=config.diurnal_harmonics,
        volatility_df=config.volatility_df,
    )
    A = apply_stack(grid, stack)
    spec = forward_dft(A)
    geometry = _grid_geometry(grid)
    model = SpectralModel(config.knots())
    init = initial_params(model, spec, geometry)
    fit = fit_mle(
        model, init, spec, geometry,
        FitOptions(max_iter=config.fit_max_iter, gtol=config.fit_gtol),
    )
    report = {
        "stack": stack.to_dict(),
        "fit": fit.to_dict(),
        "n_params": model.n_params,
        "basis_dimensions": model.dimensions,
        "geometry_hash": condsim.geometry_hash(geometry),
        "station_ids": [s.id for s in grid.stations],
        "start_time": grid.start_time.isoformat(),
        "step_seconds": grid.step_seconds,
    }
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return out_path


def _load_fit_report(path):
    report = json.loads(Path(path).read_text())
    stack = TransformStack.from_dict(report["stack"])
    fit = FitResult.from_dict(report["fit"])
    return report, stack, fit


def cmd_simulate(config: RunConfig, fit_report_path, out_dir) -> Path:
    report, stack, fit = _load_fit_report(fit_report_path)
    seed = config.require_seed()
    grid = _build_grid(config, report["station_ids"])
    geometry = _grid_geometry(grid)
    if condsim.geometry_hash(geometry) != report["geometry_hash"]:
        raise ValidationError(
            "geometry hash mismatch: fit report was produced from a different station set"
        )
    stations = load_stations(config.stations_path)
    targets = [s for s in stations if s.id in set(config.held_out_ids)]
    if not targets:
        raise ValidationError("no target stations: held_out_ids is empty")

    setup = condsim.PredictionSetup(
        observed=geometry,
        target_lats=np.array([s.latitude for s in targets]),
        target_lons=np.array([s.longitude for s in targets]),
        target_elevations=np.array([s.elevation for s in targets]),
        target_ids=tuple(s.id for s in targets),
    )
    A = apply_stack(grid, stack)
    spec = forward_dft(A)

    M = to_sea_level(stack.site_means, grid.elevations, stack.sea_level)
    mf_model, mf_fits = meanfield.select_model(M, geometry, config.variogram_policy)
    mean_draws = meanfield.sample_means(
        mf_model, setup.targets, setup.target_elevations, stack.sea_level,
        config.ensemble_count, seed,
    )

    model = SpectralModel(fit.knots)
    ensemble = condsim.run_ensemble(
        model, fit, stack, setup, spec, mean_draws,
        config.ensemble_count, config.vary_params, seed,
    )
    out = Path(out_dir)
    manifest = condsim.write_ensemble(
        ensemble, out,
        start_time=datetime.fromisoformat(report["start_time"]),
        step_seconds=report["step_seconds"],
    )
    extra = json.loads(manifest.read_text())
    extra["mean_field"] = json.loads(meanfield.meanfield_to_json(mf_model, mf_fits))
    manifest.write_text(json.dumps(extra, indent=2, sort_keys=True))
    return out


def _read_ensemble_dir(ensemble_dir, target_ids):
    out = Path(ensemble_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    members = []
    for k in range(manifest["n_members"]):
        path = out / f"member_{k:03d}.csv"
        rows = {}
        import csv as _csv

        with open(path, newline="") as fh:
            for row in _csv.DictReader(fh):
                rows.setdefault(row["site_id"], []).append(float(row["pressure_kPa"]))
        members.append(np.array([rows[t] for t in target_ids]))
    return manifest, np.stack(members)  # (K, m, T+1)


def cmd_evaluate(config: RunConfig, fit_report_path, ensemble_dir, out_path) -> Path:
    report, stack, fit = _load_fit_report(fit_report_path)
    seed = config.require_seed()
    truth_grid = _build_grid(config, config.held_out_ids)
    target_ids = [s.id for s in truth_grid.stations]
    manifest, pressures = _read_ensemble_dir(ensemble_dir, target_ids)
    if pressures.shape[2] != truth_grid.n_times:
        raise ValidationError("ensemble and truth lengths differ")

    obs_grid = _build_grid(config, report["station_ids"])
    vol = stack.volatility.values
    hourly_width = max(1, int(round(3600.0 / truth_grid.step_seconds)))

    metrics = {"targets": {}, "n_members": int(pressures.shape[0])}
    truths, preds_mean, preds_nn = {}, {}, {}
    for i, tid in enumerate(target_ids):
        truth_p = truth_grid.values[i]
        members_p = pressures[:, i, :]
        truth_d = np.diff(truth_p)
        members_d = np.diff(members_p, axis=1)

        hist_all = verify.rank_histogram(truth_d, members_d, selector_label="all", seed=seed)
        hourly_truth = verify.aggregate_diffs(truth_p, hourly_width)
        hourly_members = np.array([verify.aggregate_diffs(p, hourly_width) for p in members_p])
        hist_hourly = verify.rank_histogram(
            hourly_truth, hourly_members, selector_label="hourly", seed=seed
        )
        top = verify.top_volatility_selector(vol)
        hist_vol = verify.rank_histogram(
            truth_d, members_d, selector=top, selector_label="top_decile_volatility", seed=seed
        )
        target = next(s for s in truth_grid.stations if s.id == tid)
        nn = verify.nearest_neighbor_baseline(
            obs_grid.values,
            [s.latitude for s in obs_grid.stations],
            [s.longitude for s in obs_grid.stations],
            [s.elevation for s in obs_grid.stations],
            target.latitude, target.longitude, target.elevation,
            stack.sea_level,
            station_ids=[s.id for s in obs_grid.stations],
        )
        truths[tid] = truth_p
        preds_mean[tid] = members_p.mean(axis=0)
        preds_nn[tid] = nn
        metrics["targets"][tid] = {
            "rank_histograms": {
                h.selector: {"counts": h.counts.tolist(), "chi_square": h.chi_square()}
                for h in (hist_all, hist_hourly, hist_vol)
            },
            "envelope": verify.envelope_coverage(truth_p, members_p),
            "min_max_diagnostic": verify.min_max_rank_diagnostic(truth_p, members_p),
        }
    table = verify.score_table(
        truths, {"ensemble_mean": preds_mean, "nearest_neighbor": preds_nn}
    )
    metrics["score_table"] = table.to_dicts()
    metrics["rank_ties"] = "randomized (seeded)"
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(metrics, indent=2, sort_keys=True))
    return out_path


def cmd_synth(config: RunConfig, out_dir) -> Path:
    seed = config.require_seed()
    model = SpectralModel(config.knots())
    truth_path = Path(config.output_dir) / "truth_params.json"
    if truth_path.exists():
        d = json.loads(truth_path.read_text())
        params = SpectralParams.from_dict(d["params"])
    else:
        params = synth.default_true_params(model)
    stations = synth.default_stations()
    stack = synth.default_stack(config.target_len, [s.elevation for s in stations], seed=seed)
    truth = synth.generate(model, params, stations, stack, config.target_len, seed)
    out = Path(out_dir)
    synth.write_dataset(truth, out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="presim")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fit")
    p_sim = sub.add_parser("simulate")
    p_sim.add_argument("--fit-report", required=True)
    p_eval = sub.add_parser("evaluate")
    p_eval.add_argument("--fit-report", required=True)
    p_eval.add_argument("--ensemble-dir", required=True)
    sub.add_parser("synth")

    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_yaml(args.config)
        if args.seed is not None:
            config.seed = args.seed
        out_base = Path(args.out) if args.out else Path(config.output_dir)
        if args.command == "fit":
            path = cmd_fit(config, out_base / "fit_report.json")
            print(f"wrote {path}")
        elif args.command == "simulate":
            path = cmd_simulate(config, args.fit_report, out_base / "ensemble")
            print(f"wrote {path}")
        elif args.command == "evaluate":
            path = cmd_evaluate(
                config, args.fit_report, args.ensemble_dir, out_base / "metrics.json"
            )
            print(f"wrote {path}")
        elif args.command == "synth":
            path = cmd_synth(config, out_base / "synthetic")
            print(f"wrote {path}")
    except PresimError as exc:
        print(f"[{args.command}] error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"[{args.command}] I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
