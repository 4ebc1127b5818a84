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

import numpy as np

from . import condsim, meanfield, synth, verify
from .config import RunConfig
from .errors import FormatError, PresimError, ValidationError
from .geometry import SiteGeometry
from .ingest import (RawSeries, assemble_grid, block_average, fill_missing, load_observations,
                     load_stations)
from .preprocess import TransformStack, apply_stack, fit_stack, to_sea_level
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
    import hashlib  # the three are loaded with numpy and condsim: no import cost
    import os
    import zipfile

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):  # 1 MiB at a time: flat memory
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
        cache.parent.mkdir(parents=True, exist_ok=True)
        partial = cache.with_name(f"{cache.name}.{os.getpid()}.partial")
        try:
            with open(partial, "wb") as fh:  # np.savez would add .npz to a bare path
                np.savez(fh, index=np.array(json.dumps(index)),
                         values=np.concatenate([s.values for s in series]),
                         ends=np.cumsum([len(s.values) for s in series]))
            os.replace(partial, cache)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise

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
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return out_path


def _load_fit_report(path):
    """The report, its transform stack and fit, and its time axis (start, step)."""
    try:
        report = json.loads(Path(path).read_text())
        stack = TransformStack.from_dict(report["stack"])
        fit = FitResult.from_dict(report["fit"])
        missing = {"station_ids", "geometry_hash", "start_time", "step_seconds"} - report.keys()
        if missing:
            raise KeyError(*sorted(missing))
        time_axis = datetime.fromisoformat(report["start_time"]), float(report["step_seconds"])
    except (ValueError, KeyError, TypeError) as exc:  # truncated, a key missing or bad
        raise FormatError(f"{path}: not a readable fit report ({exc!r})") from exc
    return report, stack, fit, time_axis


def _require_time_axis(grid, start, step_seconds):
    """The grid must start and step as the fit's: its stack belongs to that window."""
    if grid.start_time != start or abs(grid.step_seconds - step_seconds) > 1e-9:
        raise ValidationError(
            f"observations start at {grid.start_time.isoformat()} with a "
            f"{grid.step_seconds:g} s step, the fit report's at {start.isoformat()} "
            f"with a {step_seconds:g} s step"
        )


def _require_geometry(stations, geometry_hash) -> SiteGeometry:
    """The geometry of the fit's stations, which must hash as the fit report's."""
    geometry = SiteGeometry.of(stations)
    if condsim.geometry_hash(geometry) != geometry_hash:
        raise ValidationError(
            "geometry hash mismatch: fit report was produced from a different station set"
        )
    return geometry


def cmd_simulate(config: RunConfig, fit_report_path, out_dir) -> Path:
    report, stack, fit, time_axis = _load_fit_report(fit_report_path)
    seed = config.require_seed()
    stations, targets = _split_stations(config)
    if not targets:
        raise ValidationError("no target stations: held_out_ids is empty")
    grid = _build_grid(config, stations, report["station_ids"], Path(out_dir).parent)
    _require_time_axis(grid, *time_axis)
    geometry = _require_geometry(grid.stations, report["geometry_hash"])

    A = apply_stack(grid, stack)
    spec = forward_dft(A)

    M = to_sea_level(stack.site_means, grid.elevations, stack.sea_level)
    mf_model, mf_fits = meanfield.select_model(M, geometry)
    mean_draws = meanfield.sample_means(mf_model, targets, stack.sea_level,
                                        config.ensemble_count, seed)
    out = Path(out_dir)
    condsim.run_ensemble(
        fit, stack, geometry, targets, spec, mean_draws, config.vary_params, seed, out,
        *time_axis,
        meanfield.meanfield_to_dict(mf_model, mf_fits),
    )
    return out


def _split_grid(grid, ids):
    """The rows of `grid` whose station id is in `ids`, in grid order."""
    wanted = set(ids)
    keep = [i for i, s in enumerate(grid.stations) if s.id in wanted]
    return replace(grid, stations=[grid.stations[i] for i in keep], values=grid.values[keep])


def _read_ensemble(ensemble_dir, target_ids, fit):
    """The (members, targets, T+1) shape of an ensemble and a reader of its targets.

    The ensemble must have been simulated from `fit`, and `pressure.npy`
    must have `condsim.run_ensemble`'s layout. All of that is checked from
    the manifest and the `.npy` header, without reading the data.
    `read_target(id)` then reads one target's (members, T+1) block
    (`condsim.open_pressure`) and checks that each member's row is finite.
    """
    out = Path(ensemble_dir)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        simulated_from = manifest["provenance"]["fit_hash"]
        ids, n_members = manifest["target_ids"], manifest["n_members"]
    except (ValueError, KeyError, TypeError) as exc:  # truncated, or a key missing
        raise FormatError(f"{out / 'manifest.json'}: not a readable ensemble manifest "
                          f"({exc!r})") from exc
    given = condsim.fit_hash(fit)
    if simulated_from != given:
        raise ValidationError(
            f"{out / 'manifest.json'}: ensemble was simulated from another fit "
            f"(fit_hash {simulated_from}, the fit report's {given})"
        )
    path = out / "pressure.npy"
    shape, read_rows = condsim.open_pressure(path)
    if shape[:2] != (n_members, len(ids)):
        raise ValidationError(
            f"{path}: shape {shape} does not match the manifest's "
            f"{n_members} members and {len(ids)} targets"
        )
    missing = [t for t in target_ids if t not in ids]
    if missing:
        raise ValidationError(f"held-out ids not in the ensemble: {missing}")

    def read_target(t):
        block = read_rows(ids.index(t))
        for m, row in enumerate(block):  # one member at a time: no mask of the whole block
            if not np.isfinite(row).all():
                raise ValidationError(f"{path}: target {t}, member {m} is not finite")
        return block

    return shape, read_target


def cmd_evaluate(config: RunConfig, fit_report_path, ensemble_dir, out_path) -> Path:
    report, stack, fit, time_axis = _load_fit_report(fit_report_path)
    seed = config.require_seed()
    stations, targets = _split_stations(config)
    if not targets:
        raise ValidationError("no target stations: held_out_ids is empty")
    grid = _build_grid(config, stations, [*report["station_ids"], *config.held_out_ids],
                       Path(out_path).parent)
    _require_time_axis(grid, *time_axis)
    truth_grid = _split_grid(grid, config.held_out_ids)
    obs_grid = _split_grid(grid, report["station_ids"])
    _require_geometry(obs_grid.stations, report["geometry_hash"])
    (n_members, _, n_times), read_target = _read_ensemble(
        ensemble_dir, [s.id for s in truth_grid.stations], fit)
    if n_times != truth_grid.n_times:
        raise ValidationError("ensemble and truth lengths differ")

    top = verify.top_volatility_selector(stack.volatility.values)
    hourly_width = max(1, int(round(3600.0 / truth_grid.step_seconds)))
    point = verify.chi_square_99_point(n_members)

    def score(target, truth_p):
        """A target's metrics, ensemble mean and verdict lines; its members
        are read here and dropped on return, before the next target's."""
        members_p = read_target(target.id)
        truth_d = np.diff(truth_p)
        members_d = np.diff(members_p, axis=1)
        quantities = {
            "all": (truth_d, members_d),
            "hourly": (
                verify.aggregate_diffs(truth_p, hourly_width),
                verify.aggregate_diffs(members_p, hourly_width),
            ),
            "top_decile_volatility": (truth_d[top], members_d[:, top]),
        }
        hists, lines = {}, []
        for label, (truth_q, members_q) in quantities.items():
            counts = verify.rank_histogram(truth_q, members_q, seed=seed)
            chi2 = verify.chi_square(counts)
            hists[label] = {"counts": counts.tolist(), "chi_square": chi2,
                            "chi_square_99": point, "uniform_at_99": chi2 <= point}
            lines.append(f"{target.id}/{label}: chi-square {chi2:.1f} vs 99% point "
                         f"{point:.1f}: {'PASS' if chi2 <= point else 'FAIL'}")
        entry = {
            "rank_histograms": hists,
            "envelope": verify.envelope_coverage(truth_p, members_p),
            "min_max_diagnostic": verify.min_max_rank_diagnostic(truth_p, members_p),
        }
        return entry, members_p.mean(axis=0), lines

    metrics = {"targets": {}, "n_members": n_members}
    truths, preds_mean, preds_nn, verdicts = {}, {}, {}, []
    for target, truth_p in zip(truth_grid.stations, truth_grid.values):
        metrics["targets"][target.id], preds_mean[target.id], lines = score(target, truth_p)
        verdicts += lines  # printed once every target has been read and scored
        truths[target.id] = truth_p
        preds_nn[target.id] = verify.nearest_neighbor_baseline(
            obs_grid.values, obs_grid.stations, target, stack.sea_level
        )
    print("\n".join(verdicts))
    metrics["score_table"] = verify.score_table(
        truths, {"ensemble_mean": preds_mean, "nearest_neighbor": preds_nn}
    )
    metrics["rank_ties"] = "randomized (seeded)"
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(metrics, indent=2, sort_keys=True))
    return out_path


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
