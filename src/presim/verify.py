"""Ensemble verification against held-out truth.

Rank histograms (with seeded tie randomization), envelope coverage,
min/max extremeness diagnostics, error score tables, the elevation-
adjusted nearest-neighbor baseline, and temporal aggregation helpers.
All functions are pure; outputs serialize to plot-ready JSON/CSV.
"""

import math

import numpy as np

from .errors import ValidationError
from .geometry import distance_matrix
from .preprocess import SeaLevelModel
from .rng import STAGE_EVAL, substream


def chi_square(counts) -> float:
    """Chi-square statistic of histogram counts against the uniform histogram."""
    counts = np.asarray(counts)
    expected = counts.sum() / len(counts)
    return float(np.sum((counts - expected) ** 2 / expected))


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


def rank_histogram(truth, members, seed: int) -> np.ndarray:
    """Counts of the rank of truth among {truth} + members, one bin per rank.

    Returns members + 1 counts that sum to the number of times. Ties are
    broken by seeded uniform randomization: discretized pressure data
    produce exact ties, and midranking would bias uniformity tests.
    """
    truth = np.asarray(truth, dtype=float)
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if members.shape[1] != len(truth):
        raise ValidationError("truth and member series lengths differ")
    rng = substream(seed, STAGE_EVAL, 0)
    below = np.sum(members < truth[None, :], axis=0)
    ties = np.sum(members == truth[None, :], axis=0)
    ranks = 1 + below + rng.integers(0, ties + 1)
    return np.bincount(ranks - 1, minlength=members.shape[0] + 1)


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
    lo = np.minimum(truth, members.min(axis=0))
    hi = np.maximum(truth, members.max(axis=0))
    truth_extreme = (truth == lo) | (truth == hi)
    truth_never = not truth_extreme.any()
    members_never = ~np.any((members == lo) | (members == hi), axis=1)
    return {
        "never_extreme_count": int(members_never.sum()) + truth_never,
        "truth_never_extreme": truth_never,
        "truth_extreme_times": int(truth_extreme.sum()),
    }


def score_errors(truth, predictor) -> tuple:
    """(mean error, sample SD of errors, RMSE); RMSE uses the population
    second moment, so rmse^2 = mean^2 + sd^2 * (n-1)/n exactly."""
    e = np.asarray(predictor, dtype=float) - np.asarray(truth, dtype=float)
    mean = float(e.mean())
    sd = float(e.std(ddof=1)) if len(e) > 1 else 0.0
    rmse = float(np.sqrt(np.mean(e**2)))
    return mean, sd, rmse


def score_table(truths: dict, predictors: dict) -> list:
    """One row dict per method and target.

    truths: {target: series}; predictors: {method: {target: series}}.
    """
    rows = []
    for method, per_target in predictors.items():
        for target, pred in per_target.items():
            mean, sd, rmse = score_errors(truths[target], pred)
            rows.append({"target": target, "method": method, "mean_error": mean,
                         "error_sd": sd, "rmse": rmse})
    return rows


def nearest_neighbor_baseline(values, stations, target, sea_level: SeaLevelModel) -> np.ndarray:
    """Copy the closest station's series, elevation-adjusted to the target.

    `values` holds one series per station record of `stations`; `target` is
    a station record too. The series is lifted to sea level at the source
    elevation and brought back down at the target elevation. Distance
    ties resolve to the station earliest in id order.
    """
    sites = [*stations, target]
    dists = distance_matrix([s.latitude for s in sites], [s.longitude for s in sites])[-1]
    best = min(range(len(stations)), key=lambda i: (dists[i], stations[i].id))
    ratio = np.exp((stations[best].elevation - target.elevation) / sea_level.scale_height)
    return np.asarray(values, dtype=float)[best] * ratio


def aggregate_diffs(series, width: int) -> np.ndarray:
    """First differences of non-overlapping block means along the last (time) axis."""
    if width < 1:
        raise ValidationError("width must be >= 1")
    series = np.asarray(series, dtype=float)
    nblocks = series.shape[-1] // width
    blocks = series[..., : nblocks * width].reshape(*series.shape[:-1], nblocks, width)
    return np.diff(blocks.mean(axis=-1), axis=-1)


def top_volatility_selector(volatility) -> np.ndarray:
    """Boolean mask for the tenth of the times with the largest volatility values."""
    v = np.asarray(volatility, dtype=float)
    k = max(1, int(round(0.10 * len(v))))
    thresh = np.partition(v, -k)[-k]
    return v >= thresh
