"""Rank histograms, coverage, scores, baselines, and aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presim.errors import ValidationError
from presim.ingest import StationMeta
from presim.preprocess import SeaLevelModel
from presim.verify import (
    aggregate_diffs,
    chi_square,
    chi_square_99_point,
    envelope_coverage,
    min_max_rank_diagnostic,
    nearest_neighbor_baseline,
    rank_histogram,
    score_errors,
    score_table,
    top_volatility_selector,
)

SEA = SeaLevelModel(log_p0=np.log(101.0), scale_height=8310.0)


# -- rank histograms ------------------------------------------------------


def test_rank_histogram_counts_sum():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal(200)
    members = rng.standard_normal((9, 200))
    counts = rank_histogram(truth, members, seed=1)
    assert counts.sum() == 200
    assert len(counts) == 10


def test_rank_histogram_extreme_truth():
    rng = np.random.default_rng(1)
    members = rng.standard_normal((99, 50))
    truth = members.max(axis=0) + 1.0
    counts = rank_histogram(truth, members, seed=2)
    assert counts[-1] == 50
    assert counts[:-1].sum() == 0


def test_rank_histogram_tie_randomization_spreads_mass():
    # truth identical to one member everywhere: ranks should spread over
    # the two tied positions rather than collapse onto one
    rng = np.random.default_rng(2)
    members = rng.standard_normal((3, 4000))
    truth = members[0].copy()
    counts = rank_histogram(truth, members, seed=3)
    ranks = np.flatnonzero(counts)
    assert counts.sum() == 4000
    # each time has exactly one tie, so two adjacent ranks share the mass
    assert len(ranks) >= 2


def test_rank_histogram_seeded_determinism():
    rng = np.random.default_rng(3)
    truth = np.round(rng.standard_normal(300), 1)  # coarse: many ties
    members = np.round(rng.standard_normal((9, 300)), 1)
    c1 = rank_histogram(truth, members, seed=4)
    c2 = rank_histogram(truth, members, seed=4)
    c3 = rank_histogram(truth, members, seed=5)
    assert np.array_equal(c1, c2)
    assert c1.sum() == c3.sum()


def test_rank_histogram_exchangeable_is_uniform():
    # truth drawn as one more member: chi-square below the 0.99 quantile
    # in nearly all seeded replications
    from scipy.stats import chi2

    q = chi2.ppf(0.99, 9)
    ok = 0
    for rep in range(20):
        rng = np.random.default_rng(700 + rep)
        data = rng.standard_normal((10, 2000))
        ok += chi_square(rank_histogram(data[0], data[1:], seed=rep)) < q
    assert ok >= 18
    # the verdict's threshold is the same quantile (134.64 for 99 members)
    assert chi_square_99_point(9) == pytest.approx(q, rel=1e-10)
    assert chi_square_99_point(99) == pytest.approx(chi2.ppf(0.99, 99), rel=1e-10)
    assert chi_square_99_point(99) == pytest.approx(134.642, abs=1e-3)


def test_chi_square_against_uniform():
    assert chi_square(np.full(10, 7)) == 0.0
    # all 20 times in one of 4 bins: (15^2 + 3 * 5^2) / 5
    assert chi_square(np.array([20, 0, 0, 0])) == pytest.approx(60.0)


def test_chi_square_99_point_matches_scipy():
    from scipy.stats import chi2

    df = np.arange(1, 1001)
    point = np.array([chi_square_99_point(int(k)) for k in df])
    np.testing.assert_allclose(point, chi2.ppf(0.99, df), rtol=1e-12, atol=0)
    with pytest.raises(ValidationError):
        chi_square_99_point(0)


def test_rank_histogram_length_mismatch():
    with pytest.raises(ValidationError):
        rank_histogram(np.zeros(5), np.zeros((3, 6)), seed=0)


# -- envelopes and extremes -----------------------------------------------


def test_envelope_coverage_degenerate_wide():
    truth = np.zeros(50)
    members = np.vstack([np.full(50, -1e9), np.full(50, 1e9)])
    cov = envelope_coverage(truth, members)
    assert cov["n_outside"] == 0
    assert cov["expected_outside"] == pytest.approx(2 * 50 / 3)


def test_envelope_coverage_counts_sides():
    truth = np.array([-2.0, 0.0, 2.0])
    members = np.vstack([np.full(3, -1.0), np.full(3, 1.0)])
    cov = envelope_coverage(truth, members)
    assert cov["n_below"] == 1
    assert cov["n_above"] == 1
    assert cov["n_outside"] == 2
    assert cov["mean_width"] == pytest.approx(2.0)


def test_min_max_two_series():
    rng = np.random.default_rng(5)
    truth = rng.standard_normal(40)
    members = rng.standard_normal((1, 40))
    diag = min_max_rank_diagnostic(truth, members)
    assert diag["never_extreme_count"] == 0


def test_min_max_truth_straddled():
    truth = np.zeros(30)
    members = np.vstack([np.full(30, -1.0), np.full(30, 1.0)])
    diag = min_max_rank_diagnostic(truth, members)
    assert diag["truth_never_extreme"]
    assert diag["never_extreme_count"] == 1
    assert diag["truth_extreme_times"] == 0


def test_min_max_exchangeable_band():
    # 100 exchangeable series over 50 times: each series expects one
    # extreme appearance, so roughly e^{-1} of them are never extreme
    rng = np.random.default_rng(6)
    data = rng.standard_normal((100, 50))
    diag = min_max_rank_diagnostic(data[0], data[1:])
    assert 10 < diag["never_extreme_count"] < 80


@pytest.mark.parametrize("seed", [7, 8, 10])  # truth extreme 0, 1 and 2 times
def test_min_max_matches_the_stacked_oracle(seed):
    # the K+1 series stacked into one array, as the diagnostic was first
    # written; 30 series of 20 values tie with the truth and each other
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 20, size=(30, 8)).astype(float)
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    never = ~np.any((stack == lo) | (stack == hi), axis=1)
    diag = min_max_rank_diagnostic(stack[0], stack[1:])
    assert diag == {
        "never_extreme_count": int(never.sum()),
        "truth_never_extreme": bool(never[0]),
        "truth_extreme_times": int(np.sum((stack[0] == lo) | (stack[0] == hi))),
    }


# -- scores ---------------------------------------------------------------


def test_score_errors_perfect_prediction():
    truth = np.arange(10.0)
    assert score_errors(truth, truth) == (0.0, 0.0, 0.0)


def test_score_errors_constant_bias():
    truth = np.zeros(25)
    mean, sd, rmse = score_errors(truth, truth + 0.3)
    assert mean == pytest.approx(0.3)
    assert sd == pytest.approx(0.0)
    assert rmse == pytest.approx(0.3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=50))
def test_score_decomposition_identity(errs):
    truth = np.zeros(len(errs))
    mean, sd, rmse = score_errors(truth, np.array(errs))
    n = len(errs)
    assert rmse**2 == pytest.approx(mean**2 + sd**2 * (n - 1) / n, abs=1e-9)


def test_score_table_layout():
    truths = {"A": np.zeros(5), "B": np.ones(5)}
    preds = {
        "m1": {"A": np.zeros(5), "B": np.ones(5)},
        "m2": {"A": np.ones(5), "B": np.zeros(5)},
    }
    rows = {(r["method"], r["target"]): r for r in score_table(truths, preds)}
    assert len(rows) == 4
    assert rows[("m1", "A")]["rmse"] == 0.0
    assert rows[("m2", "B")]["rmse"] == pytest.approx(1.0)


# -- nearest neighbor -----------------------------------------------------


def stations(lats, lons, elevs, ids=None):
    ids = ids or [f"S{i}" for i in range(len(lats))]
    return [StationMeta(id=i, latitude=la, longitude=lo, elevation=e)
            for i, la, lo, e in zip(ids, lats, lons, elevs)]


def site(lat, lon, elev):
    return StationMeta(id="T", latitude=lat, longitude=lon, elevation=elev)


def test_nearest_neighbor_coincident_copy():
    grid = np.vstack([np.linspace(97, 98, 20), np.linspace(99, 100, 20)])
    out = nearest_neighbor_baseline(
        grid, stations([36.0, 36.8], [-97.0, -97.5], [300.0, 400.0]),
        site(36.0, -97.0, 300.0), SEA,
    )
    assert np.allclose(out, grid[0], atol=1e-12)


def test_nearest_neighbor_elevation_adjustment():
    grid = np.vstack([np.full(10, 100.0)])
    out = nearest_neighbor_baseline(
        grid, stations([36.0], [-97.0], [500.0]), site(36.05, -97.0, 200.0), SEA
    )
    expected = 100.0 * np.exp((500.0 - 200.0) / SEA.scale_height)
    assert np.allclose(out, expected, rtol=1e-12)


def test_nearest_neighbor_elevation_shift_invariance():
    rng = np.random.default_rng(7)
    grid = 100.0 + 0.1 * rng.standard_normal((3, 15))
    args = ([36.0, 36.4, 36.8], [-97.0, -97.3, -96.8])
    out1 = nearest_neighbor_baseline(grid, stations(*args, [300.0, 350.0, 400.0]),
                                     site(36.5, -97.1, 320.0), SEA)
    out2 = nearest_neighbor_baseline(grid, stations(*args, [1300.0, 1350.0, 1400.0]),
                                     site(36.5, -97.1, 1320.0), SEA)
    assert np.allclose(out1, out2, rtol=1e-12)


def test_nearest_neighbor_tie_breaks_by_id():
    grid = np.vstack([np.full(5, 1.0), np.full(5, 2.0)])
    # two stations at the same location: distances are exactly equal
    out = nearest_neighbor_baseline(
        grid, stations([36.0, 36.0], [-97.0, -97.0], [300.0, 300.0], ids=["B2", "A1"]),
        site(36.1, -97.0, 300.0), SEA,
    )
    assert np.allclose(out, 2.0)  # station "A1" sorts first


# -- aggregation ----------------------------------------------------------


def test_aggregate_diffs_width_one_is_plain_diff():
    x = np.array([1.0, 4.0, 9.0, 16.0])
    assert np.allclose(aggregate_diffs(x, 1), np.diff(x))


def test_aggregate_diffs_hourly_count():
    x = np.random.default_rng(8).standard_normal(8640)
    assert len(aggregate_diffs(x, 12)) == 719


def test_aggregate_diffs_linear_ramp():
    x = 0.5 * np.arange(120)
    out = aggregate_diffs(x, 12)
    assert np.allclose(out, 0.5 * 12)


def test_aggregate_diffs_works_along_the_last_axis():
    # a (members, times) ensemble in one call equals its rows one at a time,
    # bit for bit, also on a strided per-target slice like evaluate's
    rng = np.random.default_rng(10)
    for times, width in ((2881, 12), (577, 12), (2881, 5), (14401, 60)):
        ensemble = rng.standard_normal((99, 2, times)).cumsum(axis=-1)[:, 1, :]
        rows = np.array([aggregate_diffs(p, width) for p in ensemble])
        whole = aggregate_diffs(ensemble, width)
        assert whole.shape == rows.shape and whole.tobytes() == rows.tobytes()


def test_top_volatility_selector_fraction():
    rng = np.random.default_rng(9)
    v = rng.random(1000)
    sel = top_volatility_selector(v)
    assert sel.sum() == 100
    assert v[sel].min() >= v[~sel].max()
