"""Ensemble verification against held-out truth.

One pass per quantity gives every calibration verdict (`verdicts`: the
rank histogram with seeded tie randomization, envelope coverage, min/max
extremes and the coverage rank); beside it, error score tables, the
elevation-adjusted nearest-neighbor baseline, and temporal aggregation
helpers.
All functions are pure; outputs serialize to plot-ready JSON.
"""

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


def _row_position(s, v, compare) -> np.ndarray:
    """How many entries of each row of the row-sorted s compare true
    against v's entry (np.less: are below it), by bisecting all rows at once."""
    N, n = s.shape
    flat, last = s.ravel(), np.arange(N) * n - 1
    pos = np.zeros(N, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        take = pos + step
        pos += step * (compare(flat[last + np.minimum(take, n)], v) & (take <= n))
        step >>= 1
    return pos


def verdicts(truth, members, seed: int) -> dict:
    """Every calibration verdict of one quantity, from one sort of its
    (members+1)-series stack at each time.

    - `counts`: the truth's rank histogram, members + 1 bins summing to
      the number of times. Ties are broken by seeded uniform
      randomization: discretized pressure data produce exact ties, and
      midranking would bias uniformity tests. `chi_square` is its χ².
    - `n_above`, `n_below`, `n_outside`: times the truth lies outside the
      pointwise member envelope; `mean_width` is the envelope's mean width.
    - `never_extreme_count`: how many of the members+1 series are never
      the pointwise min or max; `truth_never_extreme` and
      `truth_extreme_times` say the same of the truth.
    - `coverage_rank`: the truth's rank, 1..members+1, among the shares of
      times each series lies inside the order statistics s[a] and s[K-a]
      of the whole stack (K members, a = (K+1)//4), so inside its central
      half. Under calibration the series are exchangeable and the rank is
      uniform whatever the serial dependence. A high rank means the
      truth is too often central: the ensemble is too wide.

    Ties in the coverage shares are broken from the same generator after
    the histogram's draws. The result serializes to JSON as it is.
    """
    truth = np.asarray(truth, dtype=float)
    members = np.atleast_2d(np.asarray(members, dtype=float))
    K, N = members.shape
    if N != len(truth):
        raise ValidationError("truth and member series lengths differ")
    s = np.empty((N, K + 1))  # one row per time, sorted along the row
    s[:, 0] = truth
    s[:, 1:] = members.T
    s.sort(axis=1)
    a = (K + 1) // 4
    lo, lo2, c_lo, c_hi, hi2, hi = s[:, [0, 1, a, K - a, K - 1, K]].T.copy()

    rng = substream(seed, STAGE_EVAL, 0)
    below = _row_position(s, truth, np.less)
    ties = _row_position(s, truth, np.less_equal) - below - 1  # members equal to the truth
    counts = np.bincount(below + rng.integers(0, ties + 1), minlength=K + 1)

    inside = np.count_nonzero((members >= c_lo) & (members <= c_hi), axis=1)
    truth_inside = np.count_nonzero((truth >= c_lo) & (truth <= c_hi))
    coverage_rank = (1 + np.count_nonzero(inside < truth_inside)
                     + rng.integers(0, np.count_nonzero(inside == truth_inside) + 1))

    above = truth > hi2  # the truth alone is the stack's max, so hi2 is the members'
    under = truth < lo2
    width = np.where(above, hi2, hi) - np.where(under, lo2, lo)
    members_ever = ((members == lo) | (members == hi)).any(axis=1)
    truth_extreme = int(np.count_nonzero((truth == lo) | (truth == hi)))
    n_above, n_below = int(above.sum()), int(under.sum())
    return {
        "counts": counts.tolist(),
        "chi_square": chi_square(counts),
        "coverage_rank": int(coverage_rank),
        "n_outside": n_above + n_below,
        "n_above": n_above,
        "n_below": n_below,
        "mean_width": float(np.mean(width)),
        "never_extreme_count": K - int(members_ever.sum()) + (truth_extreme == 0),
        "truth_never_extreme": truth_extreme == 0,
        "truth_extreme_times": truth_extreme,
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
