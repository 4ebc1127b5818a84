"""Ensemble verification against held-out truth.

Rank histograms (with seeded tie randomization), envelope coverage,
min/max extremeness diagnostics, error score tables, the elevation-
adjusted nearest-neighbor baseline, and temporal aggregation helpers.
All functions are pure; outputs serialize to plot-ready JSON/CSV.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import great_circle
from .preprocess import SeaLevelModel
from .rng import STAGE_EVAL, substream


@dataclass
class RankHistogram:
    counts: np.ndarray  # length members+1
    n_times: int
    selector: str

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.n_times:
            raise ValidationError("rank counts must sum to the number of times")

    def chi_square(self) -> float:
        """Chi-square statistic against the uniform histogram."""
        expected = self.n_times / len(self.counts)
        return float(np.sum((self.counts - expected) ** 2 / expected))

    def chi_square_99(self) -> float:
        """99% point of chi-square with (bins - 1) degrees of freedom."""
        return chi_square_99_point(len(self.counts) - 1)


def _chi_square_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-square with integer df >= 1 and x >= df.

    In closed form with z = x/2: the Poisson sum of z^p e^-z / Gamma(p+1)
    over p = 0..df/2-1 for even df; erfc(sqrt z) plus the same sum over
    p = 1/2..df/2-1 for odd df. For x >= df the terms rise with p, so
    they are formed downward from the largest, which cannot underflow
    while the probability is representable.
    """
    z = 0.5 * x
    p = 0.5 * df - 1.0
    term = math.exp(p * math.log(z) - z - math.lgamma(p + 1.0))
    terms = []
    for _ in range(df // 2):
        terms.append(term)
        term *= p / z
        p -= 1.0
    head = math.erfc(math.sqrt(z)) if df % 2 else 0.0
    return head + math.fsum(terms)


def chi_square_99_point(df: int) -> float:
    """99% point of chi-square with integer df >= 1, bisected to the last bit."""
    if df < 1:
        raise ValidationError("chi-square needs at least one degree of freedom")
    lo, hi = float(df), 2.0 * df  # P(X > df) > 0.3 for every df
    while _chi_square_sf(hi, df) > 0.01:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _chi_square_sf(mid, df) > 0.01:
            lo = mid
        else:
            hi = mid


@dataclass
class ScoreRow:
    target: str
    method: str
    mean_error: float
    error_sd: float
    rmse: float


@dataclass
class ScoreTable:
    rows: list = field(default_factory=list)

    def to_dicts(self):
        return [vars(r) for r in self.rows]


def rank_histogram(truth, members, selector=None, selector_label: str = "all",
                   seed: int = 0) -> RankHistogram:
    """Rank of truth among {truth} + members at each selected time.

    Ties are broken by seeded uniform randomization: discretized pressure
    data produce exact ties, and midranking would bias uniformity tests.
    """
    truth = np.asarray(truth, dtype=float)
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if members.shape[1] != len(truth):
        raise ValidationError("truth and member series lengths differ")
    if selector is None:
        selector = np.ones(len(truth), dtype=bool)
    selector = np.asarray(selector, dtype=bool)
    K = members.shape[0]
    rng = substream(seed, STAGE_EVAL, 0)
    below = np.sum(members[:, selector] < truth[selector][None, :], axis=0)
    ties = np.sum(members[:, selector] == truth[selector][None, :], axis=0)
    ranks = 1 + below + rng.integers(0, ties + 1)
    counts = np.bincount(ranks - 1, minlength=K + 1)
    return RankHistogram(counts=counts, n_times=int(selector.sum()), selector=selector_label)


def envelope_coverage(truth, members) -> dict:
    """Counts of truth outside the pointwise member envelope."""
    truth = np.asarray(truth, dtype=float)
    members = np.atleast_2d(np.asarray(members, dtype=float))
    lo = members.min(axis=0)
    hi = members.max(axis=0)
    above = int(np.sum(truth > hi))
    below = int(np.sum(truth < lo))
    K = members.shape[0]
    return {
        "n_outside": above + below,
        "n_above": above,
        "n_below": below,
        "expected_outside": 2.0 * len(truth) / (K + 1),
        "mean_width": float(np.mean(hi - lo)),
    }


def min_max_rank_diagnostic(truth, members) -> dict:
    """How many of the members+1 series are never the pointwise min or max."""
    truth = np.asarray(truth, dtype=float)
    members = np.atleast_2d(np.asarray(members, dtype=float))
    stack = np.vstack([truth[None, :], members])
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    ever_extreme = np.any((stack == lo[None, :]) | (stack == hi[None, :]), axis=1)
    never = ~ever_extreme
    return {
        "never_extreme_count": int(never.sum()),
        "truth_never_extreme": bool(never[0]),
        "truth_extreme_times": int(
            np.sum((stack[0] == lo) | (stack[0] == hi))
        ),
    }


def score_errors(truth, predictor) -> tuple:
    """(mean error, sample SD of errors, RMSE); RMSE uses the population
    second moment, so rmse^2 = mean^2 + sd^2 * (n-1)/n exactly."""
    e = np.asarray(predictor, dtype=float) - np.asarray(truth, dtype=float)
    mean = float(e.mean())
    sd = float(e.std(ddof=1)) if len(e) > 1 else 0.0
    rmse = float(np.sqrt(np.mean(e**2)))
    return mean, sd, rmse


def score_table(truths: dict, predictors: dict) -> ScoreTable:
    """truths: {target: series}; predictors: {method: {target: series}}."""
    table = ScoreTable()
    for method, per_target in predictors.items():
        for target, pred in per_target.items():
            mean, sd, rmse = score_errors(truths[target], pred)
            table.rows.append(
                ScoreRow(target=target, method=method, mean_error=mean,
                         error_sd=sd, rmse=rmse)
            )
    return table


def nearest_neighbor_baseline(grid_values, station_lats, station_lons,
                              station_elevs, target_lat, target_lon,
                              target_elev, sea_level: SeaLevelModel,
                              station_ids=None) -> np.ndarray:
    """Copy the closest station's series, elevation-adjusted to the target.

    The series is lifted to sea level at the source elevation and brought
    back down at the target elevation. Distance ties resolve to the
    station earliest in id order (or input order without ids).
    """
    grid_values = np.atleast_2d(np.asarray(grid_values, dtype=float))
    n = grid_values.shape[0]
    dists = np.array(
        [great_circle((station_lats[i], station_lons[i]), (target_lat, target_lon))
         for i in range(n)]
    )
    if station_ids is None:
        station_ids = [str(i) for i in range(n)]
    best = min(range(n), key=lambda i: (dists[i], str(station_ids[i])))
    ratio = np.exp((station_elevs[best] - target_elev) / sea_level.scale_height)
    return grid_values[best] * ratio


def aggregate_diffs(series, width: int) -> np.ndarray:
    """First differences of non-overlapping block means of the series."""
    if width < 1:
        raise ValidationError("width must be >= 1")
    series = np.asarray(series, dtype=float)
    nblocks = len(series) // width
    means = series[: nblocks * width].reshape(nblocks, width).mean(axis=1)
    return np.diff(means)


def top_volatility_selector(volatility) -> np.ndarray:
    """Boolean mask for the tenth of the times with the largest volatility values."""
    v = np.asarray(volatility, dtype=float)
    k = max(1, int(round(0.10 * len(v))))
    thresh = np.partition(v, -k)[-k]
    return v >= thresh
