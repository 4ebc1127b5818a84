"""Invertible transform stack turning pressure grids into a stationary target.

Pipeline: correct to sea level via an exponential elevation fit, first
difference in time, remove a shared diurnal harmonic regression, and
divide by a smoothly varying volatility estimated from the cross-site
spread. Every step retains its fitted parameters so the whole stack can
be inverted exactly, which is how simulated fields become pressure series
again.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .ingest import DataGrid
from .smoothing import DfSpline

# Pressure is recorded to 0.01 kPa; cross-site SDs are floored at half the
# measurement quantum before taking logs.
SD_FLOOR_KPA = 0.005


@dataclass(frozen=True)
class SeaLevelModel:
    """p(a) = p0 * exp(-a / scale_height), fitted on log means vs elevation."""

    log_p0: float
    scale_height: float
    r_squared: float = float("nan")

    def __post_init__(self):
        if self.scale_height <= 0:
            raise ValidationError("scale_height must be positive")

    @property
    def p0(self) -> float:
        return float(np.exp(self.log_p0))


@dataclass(frozen=True)
class DiurnalModel:
    """Shared harmonic regression of the cross-site mean difference series."""

    period: int = 288
    n_harmonics: int = 15
    coefficients: np.ndarray | None = None  # zeros when omitted
    variance_removed: np.ndarray | None = None

    def __post_init__(self):
        if self.coefficients is None:
            coeffs = np.zeros(2 * self.n_harmonics)
        else:
            coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if self.period < 2 or self.n_harmonics < 1:
            raise ValidationError("period >= 2 and n_harmonics >= 1 required")
        if 2 * self.n_harmonics >= self.period:
            raise ValidationError("2*n_harmonics must be < period")
        if coeffs.shape != (2 * self.n_harmonics,):
            raise ValidationError("coefficient vector has wrong length")

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
class VolatilitySeries:
    values: np.ndarray
    spline_df: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if np.any(values <= 0):
            raise ValidationError("volatility must be strictly positive")


@dataclass(frozen=True)
class TransformStack:
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

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "sea_level": {
                "log_p0": self.sea_level.log_p0,
                "scale_height": self.sea_level.scale_height,
                "r_squared": self.sea_level.r_squared,
            },
            "diurnal": {
                "period": self.diurnal.period,
                "n_harmonics": self.diurnal.n_harmonics,
                "coefficients": self.diurnal.coefficients.tolist(),
            },
            "volatility": {
                "values": self.volatility.values.tolist(),
                "spline_df": self.volatility.spline_df,
            },
            "site_means": self.site_means.tolist(),
            "station_ids": list(self.station_ids),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransformStack":
        return cls(
            sea_level=SeaLevelModel(
                log_p0=d["sea_level"]["log_p0"],
                scale_height=d["sea_level"]["scale_height"],
                r_squared=d["sea_level"].get("r_squared", float("nan")),
            ),
            diurnal=DiurnalModel(
                period=d["diurnal"]["period"],
                n_harmonics=d["diurnal"]["n_harmonics"],
                coefficients=np.array(d["diurnal"]["coefficients"]),
            ),
            volatility=VolatilitySeries(
                values=np.array(d["volatility"]["values"]),
                spline_df=d["volatility"]["spline_df"],
            ),
            site_means=np.array(d["site_means"]),
            station_ids=list(d["station_ids"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TransformStack":
        return cls.from_dict(json.loads(text))


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


def to_sea_level(values, elevation, model: SeaLevelModel):
    return np.asarray(values, dtype=float) * np.exp(elevation / model.scale_height)


def from_sea_level(values, elevation, model: SeaLevelModel):
    return np.asarray(values, dtype=float) * np.exp(-elevation / model.scale_height)


def difference(values) -> np.ndarray:
    """First differences along time: out[:, t] = in[:, t+1] - in[:, t]."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] < 2:
        raise ValidationError("need at least 2 time steps to difference")
    return np.diff(values, axis=1)


def fit_diurnal(diffs, period: int = 288, n_harmonics: int = 15) -> DiurnalModel:
    """Harmonic regression of the cross-site mean difference series.

    The fitted cycle is shared across sites; variance_removed reports the
    per-site fraction of variance explained when that shared cycle is
    subtracted from each series.
    """
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    n, T = diffs.shape
    if T < 2 * n_harmonics + 1:
        raise ValidationError("series too short for requested harmonics")
    model = DiurnalModel(period=period, n_harmonics=n_harmonics)
    X = model.design(T)
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


def estimate_volatility(residuals, df: float = 72.0) -> VolatilitySeries:
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


def standardize(residuals, volatility: VolatilitySeries) -> np.ndarray:
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    if residuals.shape[1] != len(volatility.values):
        raise ValidationError("residuals and volatility length mismatch")
    return residuals / volatility.values[None, :]


def unstandardize(adjusted, volatility: VolatilitySeries) -> np.ndarray:
    adjusted = np.atleast_2d(np.asarray(adjusted, dtype=float))
    if adjusted.shape[1] != len(volatility.values):
        raise ValidationError("adjusted field and volatility length mismatch")
    return adjusted * volatility.values[None, :]


# -- full stack --------------------------------------------------------


def fit_stack(grid: DataGrid, diurnal_period: int = 288, n_harmonics: int = 15,
              volatility_df: float = 72.0) -> TransformStack:
    """Fit every component of the transform stack on a data grid."""
    elev = grid.elevations
    site_means = grid.values.mean(axis=1)
    sea = fit_sea_level(site_means, elev)
    at_sl = grid.values * np.exp(elev / sea.scale_height)[:, None]
    diffs = difference(at_sl)
    diurnal = fit_diurnal(diffs, period=diurnal_period, n_harmonics=n_harmonics)
    resid = diffs - diurnal.predict(diffs.shape[1])[None, :]
    vol = estimate_volatility(resid, df=volatility_df)
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
    elev = grid.elevations
    at_sl = grid.values * np.exp(elev / stack.sea_level.scale_height)[:, None]
    diffs = difference(at_sl)
    resid = diffs - stack.diurnal.predict(diffs.shape[1])[None, :]
    return standardize(resid, stack.volatility)


def invert_stack(sim_A, stack: TransformStack, target_elevations, sim_means) -> np.ndarray:
    """Invert the stack: adjusted field -> pressure levels at target sites.

    Returns an m x (T+1) pressure matrix whose first differences are the
    reconstructed pressure changes; the integration constant is chosen so
    the time mean of each series equals the supplied mean value.
    """
    sim_A = np.atleast_2d(np.asarray(sim_A, dtype=float))
    elev = np.atleast_1d(np.asarray(target_elevations, dtype=float))
    means = np.atleast_1d(np.asarray(sim_means, dtype=float))
    m, T = sim_A.shape
    if len(elev) != m or len(means) != m:
        raise ValidationError("target elevations/means do not match field shape")
    resid = unstandardize(sim_A, stack.volatility)
    diffs_sl = resid + stack.diurnal.predict(T)[None, :]
    diffs = diffs_sl * np.exp(-elev / stack.sea_level.scale_height)[:, None]
    levels = np.concatenate([np.zeros((m, 1)), np.cumsum(diffs, axis=1)], axis=1)
    anchor = means - levels.mean(axis=1)
    return levels + anchor[:, None]
