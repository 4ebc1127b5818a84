"""Config-driven pipeline orchestration.

Subcommands: fit, simulate, evaluate, synth. Each stage reads/writes
serialized artifacts (fit report JSON, ensemble directory of
`manifest.json` and `pressure.npy`, metrics JSON), so a run can resume
from any stage. Beside them, `observations.npz` holds the parse of the
observation file, keyed by its content and the station ids, so that
later stages with the same output directory need not parse it again;
deleting it is always safe. Exit code 0 on success;
failures exit nonzero with a stage-tagged diagnostic on stderr.
"""

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import condsim, meanfield, synth, verify
from .config import RunConfig
from .errors import FormatError, PresimError, ValidationError
from .geometry import SiteGeometry
from .ingest import (DataGrid, RawSeries, assemble_grid, block_average, fill_missing,
                     load_observations, load_stations)
from .preprocess import TransformStack, apply_stack, fit_stack
from .records import json_text, replacing
from .spectrum import SpectralModel
from .whittle import FitResult, WhittleObjective, fit_mle, forward_dft, initial_params


def _parsed_observations(path, stations, cache: Path):
    """`load_observations(path, stations)`, or that parse as `cache` holds it.

    The cache is keyed by the SHA-256 of the observation file's bytes and
    the ordered ids of `stations`; one that is missing, unreadable or keyed
    otherwise is a miss. Station records always come from `stations`.
    Returns the series and, on a miss, a zero-argument function that
    writes them to `cache` (None on a hit).
    """
    import hashlib  # the two are loaded with numpy and condsim: no import cost
    import zipfile

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):  # 64 KiB at a time: flat memory
            digest.update(chunk)
    key = [digest.hexdigest(), [s.id for s in stations]]
    try:  # given a path, np.load leaves the file open when the zip is bad
        with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            index = json.loads(str(npz["index"]))
            if index["key"] == key:
                by_id = {s.id: s for s in stations}
                parts = np.split(npz["values"], npz["ends"][:-1])
                return [RawSeries(by_id[sid], datetime.fromisoformat(start), step, values)
                        for (sid, start, step), values in zip(index["series"], parts)], None
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile):
        pass  # missing, damaged or foreign (a .npy loads as an array: TypeError)
    series = load_observations(path, stations)

    def write():
        index = {"key": key, "series": [[s.station.id, s.start_time.isoformat(), s.step_seconds]
                                        for s in series]}
        # np.savez would add .npz to a bare path, so it is given an open file
        with replacing(cache.parent, cache.name) as (partial,), open(partial, "wb") as fh:
            np.savez(fh, index=np.array(json.dumps(index)),
                     values=np.concatenate([s.values for s in series]),
                     ends=np.cumsum([len(s.values) for s in series]))

    return series, write


def _build_grid(config: RunConfig, stations, station_ids, out_base):
    """The grid of the stations with `station_ids`, in station-file order.

    Each must be in the station file and have rows in the observation file.
    The observation file is parsed for every station of the station file,
    so that every stage shares one parse: it is read from
    `<out_base>/observations.npz` when that holds it, and written there
    once the grid is assembled otherwise.
    """
    wanted = set(station_ids)
    missing = wanted - {s.id for s in stations}
    if missing:
        raise ValidationError(f"stations not in file: {sorted(missing)}")
    parsed, write = _parsed_observations(config.observations_path, stations,
                                         Path(out_base) / "observations.npz")
    series = [s for s in parsed if s.station.id in wanted]
    if len(series) < len(wanted):
        found = {s.station.id for s in series}
        raise ValidationError(
            f"{config.observations_path}: no observation rows for stations "
            f"{[s.id for s in stations if s.id in wanted and s.id not in found]}"
        )
    processed = []
    for s in series:
        s = fill_missing(s, config.max_gap)
        if config.block > 1:
            s = block_average(s, config.block)
        processed.append(s)
    grid = assemble_grid(processed, config.target_len)
    if write is not None:
        write()
    return grid


def _split_stations(config: RunConfig):
    """(all, held-out) stations of the station file, each in file order."""
    stations = load_stations(config.stations_path)
    held = set(config.held_out_ids)
    unknown = held - {s.id for s in stations}
    if unknown:
        raise ValidationError(f"held-out ids not in station file: {sorted(unknown)}")
    return stations, [s for s in stations if s.id in held]


def cmd_fit(config: RunConfig, out_path) -> Path:
    stations, held = _split_stations(config)
    grid = _build_grid(config, stations, [s.id for s in stations if s not in held],
                       Path(out_path).parent)
    stack = fit_stack(grid, n_harmonics=config.diurnal_harmonics,
                      volatility_df=config.volatility_df)
    A = apply_stack(grid, stack)
    spec = forward_dft(A)
    geometry = SiteGeometry.of(grid.stations)
    model = SpectralModel(config.knots())
    obj = WhittleObjective(model, spec, geometry)
    fit = fit_mle(obj, initial_params(obj), config.fit_max_iter)
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
    return _write_json(report, out_path)


def _write_json(record: dict, out_path) -> Path:
    """Write `record` to `out_path` as a JSON artifact, whole or not at all."""
    out_path = Path(out_path)
    with replacing(out_path.parent, out_path.name) as (partial,):
        partial.write_text(json_text(record), encoding="utf-8")
    return out_path


class FittedRun(NamedTuple):
    """A fit report's run, checked against the observations it is simulated or scored on."""

    report: dict
    stack: TransformStack
    fit: FitResult
    time_axis: tuple  # (start, step seconds)
    seed: int
    targets: list  # the held-out stations, in file order
    grid: DataGrid  # the fit's stations, then any truth stations asked for
    geometry: SiteGeometry  # of the fit's stations


def _load_fitted_run(config: RunConfig, fit_report_path, out_base, truth_ids) -> FittedRun:
    """The run of the fit report at `fit_report_path`, its grid holding the
    fit's stations and `truth_ids`. The grid must start and step as the
    fit's, whose stack belongs to that window, and the fit's stations must
    hash as the report's geometry."""
    try:
        report = json.loads(Path(fit_report_path).read_text(encoding="utf-8"))
        stack = TransformStack.from_dict(report["stack"])
        fit = FitResult.from_dict(report["fit"])
        missing = {"station_ids", "geometry_hash", "start_time", "step_seconds"} - report.keys()
        if missing:
            raise KeyError(*sorted(missing))
        start, step = datetime.fromisoformat(report["start_time"]), float(report["step_seconds"])
    except (ValueError, KeyError, TypeError, ValidationError) as exc:
        # truncated, a key missing or bad, or a record's value out of its range
        raise FormatError(f"{fit_report_path}: not a readable fit report ({exc!r})") from exc
    seed = config.require_seed()
    stations, targets = _split_stations(config)
    if not targets:
        raise ValidationError("no target stations: held_out_ids is empty")
    grid = _build_grid(config, stations, [*report["station_ids"], *truth_ids], out_base)
    if grid.start_time != start or abs(grid.step_seconds - step) > 1e-9:
        raise ValidationError(
            f"observations start at {grid.start_time.isoformat()} with a "
            f"{grid.step_seconds:g} s step, the fit report's at {start.isoformat()} "
            f"with a {step:g} s step"
        )
    fitted = set(report["station_ids"])
    geometry = SiteGeometry.of([s for s in grid.stations if s.id in fitted])
    if condsim.geometry_hash(geometry) != report["geometry_hash"]:
        raise ValidationError(
            "geometry hash mismatch: fit report was produced from a different station set"
        )
    return FittedRun(report, stack, fit, (start, step), seed, targets, grid, geometry)


def cmd_simulate(config: RunConfig, fit_report_path, out_dir) -> Path:
    out = Path(out_dir)
    run = _load_fitted_run(config, fit_report_path, out.parent, ())

    spec = forward_dft(apply_stack(run.grid, run.stack))

    M = run.stack.site_means * run.stack.sea_level.ratio(run.grid.elevations)
    mf_model, mf_fits = meanfield.select_model(M, run.geometry)
    mean_draws = meanfield.sample_means(mf_model, run.targets, run.stack.sea_level,
                                        config.ensemble_count, run.seed)
    condsim.run_ensemble(
        run.fit, run.stack, run.geometry, run.targets, spec, mean_draws, config.vary_params,
        run.seed, out, *run.time_axis,
        meanfield.meanfield_to_dict(mf_model, mf_fits),
    )
    return out


def _split_grid(grid, ids):
    """The rows of `grid` whose station id is in `ids`, in grid order."""
    wanted = set(ids)
    keep = [i for i, s in enumerate(grid.stations) if s.id in wanted]
    return replace(grid, stations=[grid.stations[i] for i in keep], values=grid.values[keep])


def cmd_evaluate(config: RunConfig, fit_report_path, ensemble_dir, out_path) -> Path:
    run = _load_fitted_run(config, fit_report_path, Path(out_path).parent, config.held_out_ids)
    truth_grid = _split_grid(run.grid, config.held_out_ids)
    obs_grid = _split_grid(run.grid, run.report["station_ids"])
    ids, (n_members, _, n_times), read_target = condsim.open_ensemble(ensemble_dir, run.fit)
    missing = [s.id for s in truth_grid.stations if s.id not in ids]
    if missing:
        raise ValidationError(f"held-out ids not in the ensemble: {missing}")
    if n_times != truth_grid.n_times:
        raise ValidationError("ensemble and truth lengths differ")

    top = verify.top_volatility_selector(run.stack.volatility.values)
    hourly_width = max(1, int(round(3600.0 / truth_grid.step_seconds)))

    def score(target, truth_p):
        """A target's metrics, ensemble mean and verdict lines; its members
        are read here and dropped on return, before the next target's."""
        members_p = read_target(target.id)
        entry = {"levels": verify.verdicts(truth_p, members_p, seed=run.seed)}
        mean = members_p.mean(axis=0)
        hourly = (verify.aggregate_diffs(truth_p, hourly_width),
                  verify.aggregate_diffs(members_p, hourly_width))
        truth_d = np.diff(truth_p)
        # the levels are done with: their changes overwrite them row by row,
        # so no second (members, T+1) array is made
        for row in members_p:
            row[1:] = np.diff(row)
        members_d = members_p[:, 1:]
        quantities = {
            "all": (truth_d, members_d),
            "hourly": hourly,
            "top_decile_volatility": (truth_d[top], members_d[:, top]),
        }
        entry["rank_histograms"] = {label: verify.verdicts(*q, seed=run.seed)
                                    for label, q in quantities.items()}
        lines = [f"{target.id}/{label}: chi-square {v['chi_square']:.1f}, "
                 f"coverage rank {v['coverage_rank']} of {n_members + 1}"
                 for label, v in [("levels", entry["levels"]), *entry["rank_histograms"].items()]]
        return entry, mean, lines

    metrics = {"targets": {}, "n_members": n_members}
    truths, preds_mean, preds_nn, verdicts = {}, {}, {}, []
    for target, truth_p in zip(truth_grid.stations, truth_grid.values):
        metrics["targets"][target.id], preds_mean[target.id], lines = score(target, truth_p)
        verdicts += lines  # printed once every target has been read and scored
        truths[target.id] = truth_p
        preds_nn[target.id] = verify.nearest_neighbor_baseline(
            obs_grid.values, obs_grid.stations, target, run.stack.sea_level
        )
    print("\n".join(verdicts))
    metrics["score_table"] = verify.score_table(
        truths, {"ensemble_mean": preds_mean, "nearest_neighbor": preds_nn}
    )
    metrics["rank_ties"] = "randomized (seeded)"
    return _write_json(metrics, out_path)


def cmd_synth(config: RunConfig, out_dir) -> Path:
    seed = config.require_seed()
    model = SpectralModel(config.knots())
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
        elif args.command == "simulate":
            path = cmd_simulate(config, args.fit_report, out_base / "ensemble")
        elif args.command == "evaluate":
            path = cmd_evaluate(config, args.fit_report, args.ensemble_dir,
                                out_base / "metrics.json")
        else:
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
