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


# Values per block of `verdicts`' pass, which sorts a (times, members+1)
# stack of at most this many values (512 KiB) at a time: 655 times of 99
# members. At 99 members on a 2-core x86 host the pass took 1.26 times as
# long as one sort of the whole stack, and 1.43 times at half the block.
BLOCK_VALUES = 1 << 16


def chi_square(counts) -> float:
    """Chi-square statistic of histogram counts against the uniform histogram."""
    counts = np.asarray(counts)
    expected = counts.sum() / len(counts)
    return float(np.sum((counts - expected) ** 2 / expected))


def verdicts(truth, members, seed: int) -> dict:
    """Every calibration verdict of one quantity, from one sort of its
    (members+1)-series stack at each time. The stack is built, sorted and
    reduced a block of times at a time, at most BLOCK_VALUES values, so
    beside its inputs the pass holds one block and three vectors of the
    series' length.

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
    the histogram's draws. The result serializes to JSON as it is. An
    empty series has no verdict and raises ValidationError.
    """
    truth = np.asarray(truth, dtype=float)
    members = np.atleast_2d(np.asarray(members, dtype=float))
    K, N = members.shape
    if N != len(truth):
        raise ValidationError("truth and member series lengths differ")
    if N == 0:
        raise ValidationError("no times to verify: the series are empty")
    a = (K + 1) // 4
    below, ties = np.empty((2, N), dtype=np.intp)
    width = np.empty(N)  # the member envelope's width at each time
    inside = np.zeros(K, dtype=np.intp)  # each member's count of times in [c_lo, c_hi]
    members_ever = np.zeros(K, dtype=bool)
    n_above = n_below = truth_inside = truth_extreme = 0
    steps = max(1, BLOCK_VALUES // (K + 1))
    s = np.empty((min(N, steps), K + 1))  # one row per time, sorted along the row
    for i in range(0, N, steps):
        t, m = truth[i:i + steps], members[:, i:i + steps]
        j, b = i + len(t), s[:len(t)]
        b[:, 0] = t
        b[:, 1:] = m.T
        b.sort(axis=1)
        lo, lo2, c_lo, c_hi, hi2, hi = b[:, [0, 1, a, K - a, K - 1, K]].T
        below[i:j] = np.count_nonzero(m < t, axis=0)
        ties[i:j] = np.count_nonzero(m == t, axis=0)  # members tied with t
        above = t > hi2  # the truth alone is the stack's max, so hi2 is the members'
        under = t < lo2
        width[i:j] = np.where(above, hi2, hi) - np.where(under, lo2, lo)
        n_above += np.count_nonzero(above)
        n_below += np.count_nonzero(under)
        inside += np.count_nonzero((m >= c_lo) & (m <= c_hi), axis=1)
        truth_inside += np.count_nonzero((t >= c_lo) & (t <= c_hi))
        members_ever |= ((m == lo) | (m == hi)).any(axis=1)
        truth_extreme += np.count_nonzero((t == lo) | (t == hi))

    n_above, n_below, truth_extreme = int(n_above), int(n_below), int(truth_extreme)
    rng = substream(seed, STAGE_EVAL, 0)
    counts = np.bincount(below + rng.integers(0, ties + 1), minlength=K + 1)
    coverage_rank = (1 + np.count_nonzero(inside < truth_inside)
                     + rng.integers(0, np.count_nonzero(inside == truth_inside) + 1))
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
    ratio = sea_level.ratio(stations[best].elevation, target.elevation)
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
