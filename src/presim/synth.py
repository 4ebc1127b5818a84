"""Synthetic dataset generation with known ground truth.

Draws an unconditional periodic field from the spectral model, runs the
transform stack backwards to pressure, and writes station/observation
CSVs plus a truth manifest, so recovery and calibration experiments have
an exact reference.
"""

import csv
import io
import json
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .condsim import ConditionalSampler
from .errors import ValidationError
from .geometry import SiteGeometry
from .ingest import StationMeta
from .preprocess import (
    DiurnalModel,
    SeaLevelModel,
    TransformStack,
    VolatilitySeries,
    invert_stack,
)
from .rng import RNG_LAYOUT, STAGE_SYNTH, substream
from .spectrum import KnotSet, SpectralModel, SpectralParams
from .whittle import FrequencyPlan, SpectralField, inverse_dft

DEFAULT_START = datetime(2005, 10, 1, tzinfo=timezone.utc)
BLOCK_STEPS = 64  # time steps of observation rows formatted per write


def default_true_params(model: SpectralModel) -> SpectralParams:
    """A smooth, realistic truth for simulation studies.

    S decays over two decades from low to high frequency, at a level that
    yields ~0.005 kPa five-minute pressure changes; delta is a
    low-frequency bump peaking at 60 km; beta is near-constant at 1.5
    (coherence cap logistic(1.5)); theta is a small phase slope; u points
    west.
    """
    omega0 = model.knots.omega0

    def fit_curve(basis, fun, lo, hi):
        om = np.linspace(lo, hi, 400)
        B = basis.design(om)
        c, *_ = np.linalg.lstsq(B, fun(om), rcond=None)
        return c

    s_coeffs = fit_curve(
        model.basis_S, lambda w: -7.6 - 2.0 * np.log1p(40.0 * w), 0.0, np.pi
    )
    delta_coeffs = fit_curve(
        model.basis_delta,
        lambda w: 60.0 * np.clip(1 - (w / omega0) ** 2, 0, None) ** 3,
        0.0,
        omega0,
    )
    beta_coeffs = fit_curve(model.basis_beta, lambda w: np.full_like(w, 1.5), 0.0, omega0)
    theta_coeffs = fit_curve(
        model.basis_theta,
        lambda w: 0.002 * (w / omega0) * np.clip(1 - (w / omega0) ** 2, 0, None) ** 3,
        1e-6,
        omega0,
    )
    return SpectralParams(
        s_coeffs=s_coeffs,
        beta_coeffs=beta_coeffs,
        delta_coeffs=delta_coeffs,
        theta_coeffs=theta_coeffs,
        u_angle=np.pi,
    )


def default_stations() -> list:
    """A small irregular network of 13 stations in north-central Oklahoma coordinates."""
    n = 13
    rng = np.random.default_rng(20051001)
    lats = 36.0 + rng.uniform(0.0, 1.3, n)
    lons = -98.0 + rng.uniform(0.0, 1.6, n)
    elevs = np.round(250.0 + 280.0 * rng.random(n))
    return [
        StationMeta(id=f"E{i+1:02d}", latitude=float(lats[i]),
                    longitude=float(lons[i]), elevation=float(elevs[i]))
        for i in range(n)
    ]


def default_stack(T: int, elevations, seed: int = 0) -> TransformStack:
    """Transform-stack truth used when none is supplied."""
    sea = SeaLevelModel(log_p0=float(np.log(101.89)), scale_height=8310.0)
    n_h = 15
    rng = substream(seed, STAGE_SYNTH, 0)
    coeffs = 0.0005 * rng.standard_normal(2 * n_h) / np.arange(1, 2 * n_h + 1)
    diurnal = DiurnalModel(period=288, n_harmonics=n_h, coefficients=coeffs)
    t = np.arange(T)
    vol = np.exp(0.4 * (np.sin(2 * np.pi * t / T * 3.0) + 0.5 * np.cos(2 * np.pi * t / T * 7.0)))
    elevations = np.asarray(elevations, dtype=float)
    # small spatial scatter around the elevation curve, as in real networks
    means = sea.p0 * np.exp(
        -elevations / sea.scale_height + 0.0003 * rng.standard_normal(len(elevations))
    )
    return TransformStack(
        sea_level=sea,
        diurnal=diurnal,
        volatility=VolatilitySeries(values=vol, spline_df=float("nan")),
        site_means=means,
        station_ids=[f"E{i+1:02d}" for i in range(len(elevations))],
    )


@dataclass
class SyntheticTruth:
    stations: list
    stack: TransformStack
    knots: KnotSet
    params: SpectralParams
    adjusted: np.ndarray  # n x T
    pressure: np.ndarray  # n x (T+1)
    seed: int


def generate(model: SpectralModel, params: SpectralParams, stations: list,
             stack: TransformStack, T: int, seed: int) -> SyntheticTruth:
    """Draw one synthetic realization of the network.

    The field is a conditional draw given zero observed sites, member 0 of
    the synthetic stage.
    """
    no_sites = SpectralField(np.zeros((T // 2 + 1, 0)), n_times=T)
    sampler = ConditionalSampler(FrequencyPlan(T, model), params, SiteGeometry.of(stations),
                                 no_sites)
    field = sampler.draw(seed, 0, stage=STAGE_SYNTH)
    A = inverse_dft(field)
    pressure = invert_stack(A, stack, [s.elevation for s in stations], stack.site_means)
    return SyntheticTruth(
        stations=stations, stack=stack, knots=model.knots, params=params,
        adjusted=A, pressure=pressure, seed=seed,
    )


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it inside a row: quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _step_microseconds(step_seconds: float) -> int:
    """The step as a positive whole number of microseconds, a timestamp's resolution."""
    try:
        step = timedelta(seconds=step_seconds)
    except (TypeError, ValueError, OverflowError):
        step = None
    if step is None or step <= timedelta(0) or step.total_seconds() != step_seconds:
        raise ValidationError(
            f"step_seconds={step_seconds!r} is not a positive whole number of microseconds"
        )
    return step // timedelta(microseconds=1)


def _write_stations(fh, stations: list) -> None:
    w = csv.writer(fh)
    w.writerow(["id", "latitude_deg", "longitude_deg", "elevation_m"])
    for s in stations:
        w.writerow([s.id, f"{s.latitude:.6f}", f"{s.longitude:.6f}", f"{s.elevation:.1f}"])


def _write_observations(fh, truth: SyntheticTruth, start: datetime, step_us: int) -> None:
    """The bytes csv.writer would write, one block of time steps per `%` and `write`."""
    n = len(truth.stations)
    rows = "".join(f"%s,{_csv_field(s.id).replace('%', '%%')},%.8f\r\n" for s in truth.stations)
    wall = start.replace(tzinfo=None)
    suffix = start.isoformat()[len(wall.isoformat()):]  # the UTC offset, if any
    origin = np.datetime64(wall, "us")
    fh.write("timestamp,station_id,pressure_kPa\r\n")
    for t0 in range(0, truth.pressure.shape[1], BLOCK_STEPS):
        block = truth.pressure[:, t0 : t0 + BLOCK_STEPS]
        steps = block.shape[1]
        text = np.datetime_as_string(origin + np.arange(t0, t0 + steps) * step_us, unit="us")
        # isoformat leaves out a zero microsecond field
        stamps = [(s[:-7] if s.endswith(".000000") else s) + suffix for s in text.tolist()]
        fields = [None] * (2 * n * steps)  # timestamp, pressure of each row in turn
        for i in range(n):
            fields[2 * i :: 2 * n] = stamps
        fields[1::2] = block.T.ravel().tolist()
        fh.write(rows * steps % tuple(fields))


def write_dataset(truth: SyntheticTruth, out_dir, start=DEFAULT_START,
                  step_seconds: float = 300.0):
    """Write station CSV, observation CSV, and the truth manifest.

    The observation rows are in time order, and within a time step in
    station-file order, as csv.writer writes them: CRLF line ends,
    pressure as `%.8f` kPa, and every timestamp `start + t * step` in
    `isoformat` with the start's UTC offset (none for a naive start).
    `step_seconds` must be a positive whole number of microseconds, or
    ValidationError is raised before anything is written. Each file is
    written to `<name>.partial` and moved into place once all three are
    whole, so a failure leaves an earlier dataset in `out_dir` as it was.
    Memory holds one block of `BLOCK_STEPS` time steps, not the file.
    """
    step_us = _step_microseconds(step_seconds)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "seed": truth.seed,
        "rng_layout": RNG_LAYOUT,
        "knots": truth.knots.to_dict(),
        "params": truth.params.to_dict(),
        "stack": truth.stack.to_dict(),
        "n_times": int(truth.pressure.shape[1]),
        "step_seconds": step_seconds,
        "start": start.isoformat(),
    }

    names = ("stations.csv", "observations.csv", "truth.json")
    partials = [out / f"{name}.partial" for name in names]
    try:
        with open(partials[0], "w", newline="") as fh:
            _write_stations(fh, truth.stations)
        with open(partials[1], "w", newline="") as fh:
            _write_observations(fh, truth, start, step_us)
        partials[2].write_text(json.dumps(manifest, indent=2, sort_keys=True))
        for partial, name in zip(partials, names):
            os.replace(partial, out / name)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
    return out / "stations.csv", out / "observations.csv", out / "truth.json"
