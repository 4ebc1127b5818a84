"""Invertible transform stack turning pressure grids into a stationary target.

Pipeline: correct to sea level via an exponential elevation fit, first
difference in time, remove a shared diurnal harmonic regression, and
divide by a smoothly varying volatility estimated from the cross-site
spread. Every step retains its fitted parameters so the whole stack can
be inverted exactly, which is how simulated fields become pressure series
again.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import DataGrid
from .records import Record
from .smoothing import DfSpline

# Pressure is recorded to 0.01 kPa; cross-site SDs are floored at half the
# measurement quantum before taking logs.
SD_FLOOR_KPA = 0.005

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class SeaLevelModel(Record):
    """p(a) = p0 * exp(-a / scale_height), fitted on log means vs elevation."""

    log_p0: float
    scale_height: float
    r_squared: float = float("nan")  # fitted only: a truth stack has none

    def __post_init__(self):
        if not np.isfinite(self.log_p0):
            raise ValidationError("log_p0 must be finite")
        if not (np.isfinite(self.scale_height) and self.scale_height > 0):
            raise ValidationError("scale_height must be finite and positive")

    @property
    def p0(self) -> float:
        return float(np.exp(self.log_p0))

    def ratio(self, from_elevation, to_elevation=0.0):
        """p(to) / p(from) = exp((from - to) / H), the one map between elevations:
        `ratio(a)` lifts pressure at a to sea level, `ratio(0.0, a)` brings it down."""
        return np.exp((from_elevation - to_elevation) / self.scale_height)


@dataclass(frozen=True)
class DiurnalModel(Record):
    """Shared harmonic regression of the cross-site mean difference series."""

    period: int  # steps per day
    n_harmonics: int
    coefficients: np.ndarray
    variance_removed: np.ndarray | None = None  # fitted only: a truth stack has none

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if self.period < 2 or self.n_harmonics < 1:
            raise ValidationError("period >= 2 and n_harmonics >= 1 required")
        if 2 * self.n_harmonics >= self.period:
            raise ValidationError("2*n_harmonics must be < period")
        if coeffs.shape != (2 * self.n_harmonics,):
            raise ValidationError("coefficient vector has wrong length")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("diurnal coefficients must be finite")

    def design(self, n_times: int) -> np.ndarray:
        t = np.arange(1, n_times + 1)
        cols = []
        for j in range(1, self.n_harmonics + 1):
            arg = 2.0 * np.pi * j * t / self.period
            cols.append(np.cos(arg))
            cols.append(np.sin(arg))
        return np.column_stack(cols)

    def predict(self, n_times: int) -> np.ndarray:
        return self.design(n_times) @ self.coefficients


@dataclass(frozen=True)
class VolatilitySeries(Record):
    values: np.ndarray
    spline_df: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError("volatility must be finite and strictly positive")


@dataclass(frozen=True)
class TransformStack(Record):
    """Everything needed to run the preprocessing forward or backward."""

    sea_level: SeaLevelModel
    diurnal: DiurnalModel
    volatility: VolatilitySeries
    site_means: np.ndarray
    station_ids: list

    def __post_init__(self):
        means = np.asarray(self.site_means, dtype=float)
        object.__setattr__(self, "site_means", means)
        if len(means) != len(self.station_ids):
            raise ValidationError("site_means and station_ids length mismatch")
        if not np.all(np.isfinite(means)):
            raise ValidationError("site_means must be finite")


# -- individual transforms ----------------------------------------------


def fit_sea_level(site_means, elevations) -> SeaLevelModel:
    """Least-squares fit of log(mean pressure) on elevation."""
    means = np.asarray(site_means, dtype=float)
    elev = np.asarray(elevations, dtype=float)
    if len(means) < 2:
        raise ValidationError("need at least 2 stations")
    if np.any(means <= 0):
        raise ValidationError("pressure means must be positive")
    if np.ptp(elev) == 0:
        raise ValidationError("all elevations equal: elevation fit is rank-deficient")
    y = np.log(means)
    X = np.column_stack([np.ones_like(elev), elev])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    intercept, slope = coef
    if slope >= 0:
        raise ValidationError("fitted pressure does not decrease with elevation")
    resid = y - X @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return SeaLevelModel(log_p0=float(intercept), scale_height=float(-1.0 / slope), r_squared=r2)


def fit_diurnal(diffs, period: int, n_harmonics: int) -> DiurnalModel:
    """Harmonic regression of the cross-site mean difference series.

    The fitted cycle is shared across sites; variance_removed reports the
    per-site fraction of variance explained when that shared cycle is
    subtracted from each series.
    """
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    n, T = diffs.shape
    if T < 2 * n_harmonics + 1:
        raise ValidationError("series too short for requested harmonics")
    X = DiurnalModel(period, n_harmonics, np.zeros(2 * n_harmonics)).design(T)
    mean_series = diffs.mean(axis=0)
    coef, *_ = np.linalg.lstsq(X, mean_series, rcond=None)
    fitted = X @ coef
    removed = np.empty(n)
    for i in range(n):
        v0 = np.var(diffs[i])
        v1 = np.var(diffs[i] - fitted)
        removed[i] = (v0 - v1) / v0 if v0 > 0 else 0.0
    return DiurnalModel(
        period=period,
        n_harmonics=n_harmonics,
        coefficients=coef,
        variance_removed=removed,
    )


def estimate_volatility(residuals, df: float) -> VolatilitySeries:
    """Smooth the log cross-site SD with an effective-df spline, exponentiate."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    n, T = residuals.shape
    if n < 2:
        raise ValidationError("volatility needs at least 2 sites")
    sd = residuals.std(axis=0, ddof=1)
    sd = np.maximum(sd, SD_FLOOR_KPA)
    smoother = DfSpline(T, df)
    log_v = smoother.smooth(np.log(sd))
    return VolatilitySeries(values=np.exp(log_v), spline_df=smoother.effective_df)


# -- full stack --------------------------------------------------------


def fit_stack(grid: DataGrid, n_harmonics: int, volatility_df: float) -> TransformStack:
    """Fit every component of the transform stack on a data grid.

    The diurnal period is one day in the grid's steps; a step that does not
    divide a day is an error.
    """
    period = round(SECONDS_PER_DAY / grid.step_seconds)
    if abs(period * grid.step_seconds - SECONDS_PER_DAY) > 1e-6:
        raise ValidationError(
            f"a {grid.step_seconds:g} s step does not divide a day into whole steps"
        )
    site_means = grid.values.mean(axis=1)
    sea = fit_sea_level(site_means, grid.elevations)
    diffs = np.diff(grid.values * sea.ratio(grid.elevations)[:, None], axis=1)
    diurnal = fit_diurnal(diffs, period=period, n_harmonics=n_harmonics)
    vol = estimate_volatility(diffs - diurnal.predict(diffs.shape[1]), df=volatility_df)
    return TransformStack(
        sea_level=sea,
        diurnal=diurnal,
        volatility=vol,
        site_means=site_means,
        station_ids=[s.id for s in grid.stations],
    )


def apply_stack(grid: DataGrid, stack: TransformStack) -> np.ndarray:
    """Run the fitted stack forward: grid -> adjusted stationary field A."""
    if grid.n_stations != len(stack.station_ids):
        raise ValidationError("grid and stack station counts differ")
    if grid.n_times - 1 != len(stack.volatility.values):
        raise ValidationError("grid length inconsistent with fitted volatility")
    diffs = np.diff(grid.values * stack.sea_level.ratio(grid.elevations)[:, None], axis=1)
    return (diffs - stack.diurnal.predict(diffs.shape[1])) / stack.volatility.values


def invert_stack(sim_A, stack: TransformStack, target_elevations, sim_means,
                 diurnal=None) -> np.ndarray:
    """Invert the stack for one member: adjusted field -> pressure levels at target sites.

    sim_A is the member's m x T field and sim_means its m mean levels.
    Returns pressure levels with T+1 columns whose first differences are
    the reconstructed pressure changes; the integration constant is chosen
    so the time mean of each series equals the supplied mean value.
    `diurnal` is the cycle `stack.diurnal.predict(T)`, computed here when
    not given; a caller that inverts many members passes it in.
    """
    sim_A = np.asarray(sim_A, dtype=float)
    elev = np.asarray(target_elevations, dtype=float)
    means = np.asarray(sim_means, dtype=float)
    if sim_A.ndim != 2 or elev.shape != (len(sim_A),) or means.shape != elev.shape:
        raise ValidationError("target elevations/means do not match the m x T field")
    m, T = sim_A.shape
    if T != len(stack.volatility.values):
        raise ValidationError("adjusted field and volatility length mismatch")
    # Time-major memory, like the inverse-DFT output: the time mean then sums
    # each series in time order, and that summation order fixes the bits
    # written to pressure.npy.
    pressure = np.zeros((T + 1, m)).T
    levels = pressure[:, 1:]
    np.multiply(sim_A, stack.volatility.values, out=levels)
    levels += stack.diurnal.predict(T) if diurnal is None else diurnal
    levels *= stack.sea_level.ratio(0.0, elev)[:, None]
    np.cumsum(levels, axis=1, out=levels)
    pressure += (means - pressure.mean(axis=1))[:, None]
    return pressure
