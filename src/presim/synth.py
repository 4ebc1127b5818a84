"""Synthetic dataset generation with known ground truth.

Draws an unconditional periodic field from the spectral model, runs the
transform stack backwards to pressure, and writes station/observation
CSVs plus a truth manifest, so recovery and calibration experiments have
an exact reference.
"""

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .condsim import ConditionalSampler, PredictionSetup
from .geometry import SiteGeometry
from .ingest import StationMeta
from .preprocess import (
    DiurnalModel,
    SeaLevelModel,
    TransformStack,
    VolatilitySeries,
    invert_stack,
)
from .rng import STAGE_SYNTH, substream
from .spectrum import KnotSet, SpectralModel, SpectralParams
from .whittle import SpectralField, inverse_dft

DEFAULT_START = datetime(2005, 10, 1, tzinfo=timezone.utc)


def default_true_params(model: SpectralModel, coherence_range_km: float = 60.0,
                        beta_level: float = 1.5) -> SpectralParams:
    """A smooth, realistic truth for simulation studies.

    S decays over two decades from low to high frequency, at a level that
    yields ~0.005 kPa five-minute pressure changes; delta is a
    low-frequency bump peaking at coherence_range_km; beta is
    near-constant (coherence cap logistic(beta)); theta is a small phase
    slope; u points west.
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
        lambda w: coherence_range_km * np.clip(1 - (w / omega0) ** 2, 0, None) ** 3,
        0.0,
        omega0,
    )
    beta_coeffs = fit_curve(model.basis_beta, lambda w: np.full_like(w, beta_level), 0.0, omega0)
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


def default_stations(n: int = 13) -> list:
    """A small irregular network in north-central Oklahoma coordinates."""
    rng = np.random.default_rng(20051001)
    lats = 36.0 + rng.uniform(0.0, 1.3, n)
    lons = -98.0 + rng.uniform(0.0, 1.6, n)
    elevs = np.round(250.0 + 280.0 * rng.random(n))
    return [
        StationMeta(id=f"E{i+1:02d}", latitude=float(lats[i]),
                    longitude=float(lons[i]), elevation=float(elevs[i]))
        for i in range(n)
    ]


def default_stack(T: int, elevations, seed: int = 0,
                  volatility_amplitude: float = 0.4) -> TransformStack:
    """Transform-stack truth used when none is supplied."""
    sea = SeaLevelModel(log_p0=float(np.log(101.89)), scale_height=8310.0)
    n_h = 15
    rng = substream(seed, STAGE_SYNTH, 0)
    coeffs = 0.0005 * rng.standard_normal(2 * n_h) / np.arange(1, 2 * n_h + 1)
    diurnal = DiurnalModel(period=288, n_harmonics=n_h, coefficients=coeffs)
    t = np.arange(T)
    vol = np.exp(
        volatility_amplitude
        * (np.sin(2 * np.pi * t / T * 3.0) + 0.5 * np.cos(2 * np.pi * t / T * 7.0))
    )
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
             stack: TransformStack, T: int, seed: int,
             member: int = 0) -> SyntheticTruth:
    """Draw one synthetic realization of the network.

    The field is a conditional draw given zero observed sites.
    """
    elevations = np.array([s.elevation for s in stations])
    setup = PredictionSetup(
        observed=SiteGeometry(np.array([]), np.array([])),
        target_lats=np.array([s.latitude for s in stations]),
        target_lons=np.array([s.longitude for s in stations]),
        target_elevations=elevations,
    )
    sampler = ConditionalSampler(model, params, setup, SpectralField(np.zeros((T, 0))))
    field = sampler.draw(seed, member, stage=STAGE_SYNTH)
    A = inverse_dft(field)
    pressure = invert_stack(A, stack, elevations, stack.site_means)
    return SyntheticTruth(
        stations=stations, stack=stack, knots=model.knots, params=params,
        adjusted=A, pressure=pressure, seed=seed,
    )


def write_dataset(truth: SyntheticTruth, out_dir, start=DEFAULT_START,
                  step_seconds: float = 300.0):
    """Write station CSV, observation CSV, and the truth manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stations_path = out / "stations.csv"
    with open(stations_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "latitude_deg", "longitude_deg", "elevation_m"])
        for s in truth.stations:
            w.writerow([s.id, f"{s.latitude:.6f}", f"{s.longitude:.6f}", f"{s.elevation:.1f}"])

    obs_path = out / "observations.csv"
    n, n_times = truth.pressure.shape
    with open(obs_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "station_id", "pressure_kPa"])
        for t in range(n_times):
            ts = (start + timedelta(seconds=step_seconds * t)).isoformat()
            for i, s in enumerate(truth.stations):
                w.writerow([ts, s.id, f"{truth.pressure[i, t]:.8f}"])

    manifest = {
        "seed": truth.seed,
        "knots": truth.knots.to_dict(),
        "params": truth.params.to_dict(),
        "stack": truth.stack.to_dict(),
        "n_times": int(n_times),
        "step_seconds": step_seconds,
        "start": start.isoformat(),
    }
    (out / "truth.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return stations_path, obs_path, out / "truth.json"
