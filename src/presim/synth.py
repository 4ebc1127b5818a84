"""Synthetic dataset generation with known ground truth.

Draws an unconditional periodic field from the spectral model, runs the
transform stack backwards to pressure, and writes station/observation
CSVs plus a truth manifest, so recovery and calibration experiments have
an exact reference.
"""

import csv
import functools
import io
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
from .records import json_text, replacing
from .rng import RNG_LAYOUT, STAGE_FIELD_UNCOND, STAGE_SYNTH, substream
from .spectrum import KnotSet, SpectralModel, SpectralParams
from .whittle import FrequencyPlan, SpectralField, inverse_dft

DEFAULT_START = datetime(2005, 10, 1, tzinfo=timezone.utc)
BLOCK_STEPS = 256  # time steps of observation rows formatted per write


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

    The field is a conditional draw given zero observed sites, from the
    substream (STAGE_FIELD_UNCOND, STAGE_SYNTH, 0).
    """
    no_sites = SpectralField(np.zeros((T // 2 + 1, 0)), n_times=T)
    sampler = ConditionalSampler(FrequencyPlan(T, model), params, SiteGeometry.of(stations),
                                 no_sites)
    A = inverse_dft(sampler.draw(substream(seed, STAGE_FIELD_UNCOND, STAGE_SYNTH, 0)))
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


@functools.cache
def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0000-9999, each group of four read as one uint32."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


_POWERS = 10 ** np.arange(1, 8)  # a whole part of k + 1 digits is at least 10**k
_VALUE_WIDTH = 18  # sign, 8 whole digits, point, 8 decimals


def _format_values(x: np.ndarray):
    """`'%.8f' % v` of each value as bytes, right-aligned in rows of one width.

    Returns the (len(x), width) uint8 rows, as wide as the longest value,
    and each value's length. The digits are those of
    n = rint(|x| 1e8), looked up four at a time, and the sign is signbit's.
    That is %.8f's rounding of the exact value unless |x| 1e8 lies within
    its rounding error of a half-integer. Such a value goes through
    `'%.8f' % v` instead, as does NaN and any |x| 1e8 of 2**51 or more,
    where the margin for that error reaches 0.5.
    """
    scaled = np.abs(x) * 1e8
    n = np.rint(scaled)
    # 2**-52 |x| 1e8 is at least the spacing of floats there: twice the rounding error
    exact = np.abs(scaled - n) < 0.5 - scaled * 2.0**-52  # False for NaN
    fallback = np.flatnonzero(~exact)
    texts = [b"%.8f" % v for v in x[fallback].tolist()]
    width = max([_VALUE_WIDTH, *map(len, texts)])
    whole, frac = np.divmod(np.where(exact, n, 0).astype(np.int64), 10**8)
    groups = np.stack(np.divmod(whole, 10**4) + np.divmod(frac, 10**4), axis=1)
    digits = _digit_groups()[groups].view(np.uint8)  # 8 whole digits, then 8 decimals
    out = np.empty((len(x), width), np.uint8)
    out[:, -17:-9] = digits[:, :8]
    out[:, -9] = ord(".")
    out[:, -8:] = digits[:, 8:]
    n_whole = 1 + np.searchsorted(_POWERS, whole, side="right")
    negative = np.signbit(x)
    rows = np.flatnonzero(negative)
    out[rows, width - 10 - n_whole[rows]] = ord("-")  # just before the first digit kept
    lengths = n_whole + 9 + negative
    for i, text in zip(fallback.tolist(), texts):
        out[i, width - len(text):] = np.frombuffer(text, np.uint8)
        lengths[i] = len(text)
    return out[:, width - lengths.max(initial=0):], lengths


def _write_observations(fh, truth: SyntheticTruth, start: datetime, step_us: int) -> None:
    """Write the bytes csv.writer would write to the binary file `fh`.

    Each block of `BLOCK_STEPS` time steps is built with numpy as one
    (steps, stations, width) byte array of fields, each as wide as its
    longest in the block: the timestamp; the UTC offset, station field and
    commas; the pressure (`_format_values`); CRLF. A mask built from each
    field's known length picks the field's own bytes, and the picked
    bytes, in order, are the block's rows, written with one `write`. The
    station fields and CRLF stay in place from one block to the next of
    the same layout.
    """
    n = len(truth.stations)
    wall = start.replace(tzinfo=None)
    suffix = start.isoformat()[len(wall.isoformat()):]  # the UTC offset, if any
    origin = np.datetime64(wall, "us")
    between = [f"{suffix},{_csv_field(s.id)},".encode("utf-8") for s in truth.stations]
    id_width = max(map(len, between), default=0)
    id_bytes = np.frombuffer(b"".join(t.ljust(id_width, b"\0") for t in between), np.uint8)
    id_mask = np.arange(id_width) < np.array([len(t) for t in between])[:, None]
    fh.write(b"timestamp,station_id,pressure_kPa\r\n")
    layout = None
    for t0 in range(0, truth.pressure.shape[1], BLOCK_STEPS):
        # an array of another kind than float (objects) raises TypeError
        block = truth.pressure[:, t0 : t0 + BLOCK_STEPS].astype(np.float64, casting="same_kind")
        steps = block.shape[1]
        times = origin + np.arange(t0, t0 + steps) * step_us
        text = np.datetime_as_string(times, unit="us")  # ASCII, padded with NUL
        stamps = text.view(np.uint32).reshape(steps, -1).astype(np.uint8)
        # isoformat leaves out a zero microsecond field
        stamp_len = np.count_nonzero(stamps, axis=1) - 7 * (times.astype(np.int64) % 10**6 == 0)
        stamps = stamps[:, : stamp_len.max(initial=0)]
        values, value_len = _format_values(block.T.ravel())
        if layout != (steps, stamps.shape[1], values.shape[1]):
            layout = (steps, stamps.shape[1], values.shape[1])
            # fields end at a (timestamp), b (offset, station), c (pressure), then CRLF
            a, b = stamps.shape[1], stamps.shape[1] + id_width
            c = b + values.shape[1]
            rows = np.empty((steps, n, c + 2), np.uint8)
            mask = np.empty(rows.shape, bool)
            rows[:, :, a:b], mask[:, :, a:b] = id_bytes.reshape(n, id_width), id_mask
            rows[:, :, c:], mask[:, :, c:] = np.frombuffer(b"\r\n", np.uint8), True
        rows[:, :, :a] = stamps[:, None, :]
        mask[:, :, :a] = (np.arange(a) < stamp_len[:, None])[:, None, :]
        rows[:, :, b:c] = values.reshape(steps, n, c - b)
        mask[:, :, b:c] = (np.arange(c - b) >= c - b - value_len[:, None]).reshape(steps, n, c - b)
        fh.write(rows[mask])


def write_dataset(truth: SyntheticTruth, out_dir, start=DEFAULT_START,
                  step_seconds: float = 300.0):
    """Write station CSV, observation CSV, and the truth manifest, as UTF-8.

    The observation rows are in time order, and within a time step in
    station-file order, as csv.writer writes them: CRLF line ends,
    pressure as `%.8f` kPa (NaN as `nan`, which ingest reads as missing),
    and every timestamp `start + t * step` in `isoformat` with the start's
    UTC offset (none for a naive start). `step_seconds` must be a positive
    whole number of microseconds, the last timestamp must fall in year 9999
    or earlier and no pressure may be ±inf, or ValidationError is raised
    before anything is written. The three files are written together
    (`records.replacing`): all are put in place once all are whole, so a
    failure leaves an earlier dataset in `out_dir` as it was.
    Memory holds one block of `BLOCK_STEPS` time steps, not the file.
    """
    step_us = _step_microseconds(step_seconds)
    try:  # the wall clock of the last step must be a datetime, which ingest can read
        start + timedelta(microseconds=step_us) * max(truth.pressure.shape[1] - 1, 0)
    except OverflowError:
        raise ValidationError(
            f"the last of {truth.pressure.shape[1]} steps of {step_seconds} s from "
            f"{start.isoformat()} falls after year {datetime.max.year}"
        ) from None
    if np.isinf(np.asarray(truth.pressure, dtype=float)).any():
        raise ValidationError("a pressure is infinite, which ingest rejects")
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
    with replacing(out_dir, *names) as (stations, observations, truth_json):
        with open(stations, "w", newline="", encoding="utf-8") as fh:
            _write_stations(fh, truth.stations)
        with open(observations, "wb") as fh:
            _write_observations(fh, truth, start, step_us)
        truth_json.write_text(json_text(manifest), encoding="utf-8")
    return tuple(Path(out_dir) / name for name in names)
