"""Transform stack: the sea-level map, diurnal removal, volatility
estimation, and the exact round trip of the whole stack."""

import json
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presim.errors import ValidationError
from presim.ingest import DataGrid, StationMeta
from presim.preprocess import (
    DiurnalModel,
    SeaLevelModel,
    TransformStack,
    apply_stack,
    estimate_volatility,
    fit_diurnal,
    fit_sea_level,
    fit_stack,
    invert_stack,
)

T0 = datetime(2005, 10, 1, tzinfo=timezone.utc)


def make_grid(values, elevations=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    if elevations is None:
        elevations = 300.0 + 30.0 * np.arange(n)
    stations = [
        StationMeta(f"E{i:02d}", 36.0 + 0.1 * i, -97.0, float(elevations[i]))
        for i in range(n)
    ]
    return DataGrid(stations=stations, start_time=T0, step_seconds=300.0, values=values)


# -- sea level ------------------------------------------------------------


def test_fit_sea_level_exact_recovery():
    elev = np.array([0.0, 350.0, 800.0])
    means = 101.3 * np.exp(-elev / 8000.0)
    m = fit_sea_level(means, elev)
    assert m.p0 == pytest.approx(101.3, rel=1e-12)
    assert m.scale_height == pytest.approx(8000.0, rel=1e-12)
    assert m.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_sea_level_two_point_closed_form():
    m = fit_sea_level([100.0, 100.0 * np.exp(-1.0)], [0.0, 8000.0])
    assert m.scale_height == pytest.approx(8000.0, rel=1e-12)
    assert m.p0 == pytest.approx(100.0, rel=1e-12)


def test_fit_sea_level_equal_elevations_rejected():
    with pytest.raises(ValidationError, match="elevation"):
        fit_sea_level([100.0, 101.0], [500.0, 500.0])


def test_fit_sea_level_increasing_pressure_rejected():
    with pytest.raises(ValidationError, match="decrease"):
        fit_sea_level([100.0, 110.0], [0.0, 1000.0])


def test_fit_sea_level_r2_invariant_to_relabeling():
    rng = np.random.default_rng(2)
    elev = np.array([100.0, 250.0, 400.0, 520.0, 700.0])
    means = 101.0 * np.exp(-elev / 8310.0) * np.exp(0.001 * rng.standard_normal(5))
    m0 = fit_sea_level(means, elev)
    perm = rng.permutation(5)
    m1 = fit_sea_level(means[perm], elev[perm])
    assert m1.r_squared == pytest.approx(m0.r_squared, abs=1e-12)


def test_sea_level_ratio_values():
    # the one elevation map keeps the bits of each form it replaced:
    # exp(a/H) up to sea level, exp(-a/H) down from it, exp((a-b)/H) between
    m = SeaLevelModel(log_p0=np.log(101.0), scale_height=8310.0)
    a = np.concatenate([[0.0, 8310.0], np.random.default_rng(1).uniform(-50.0, 3000.0, 500)])
    assert m.ratio(a).tobytes() == np.exp(a / 8310.0).tobytes()
    assert m.ratio(0.0, a).tobytes() == np.exp(-a / 8310.0).tobytes()
    assert m.ratio(a, a[::-1]).tobytes() == np.exp((a - a[::-1]) / 8310.0).tobytes()
    assert m.ratio(a[7], a[3]) == np.exp((a[7] - a[3]) / 8310.0)
    assert m.ratio(0.0) == 1.0
    assert m.ratio(8310.0) == pytest.approx(np.e, rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(80, 110), st.floats(0, 3000), st.floats(0, 3000), st.floats(5000, 12000))
def test_sea_level_round_trip(value, elev, other, height):
    m = SeaLevelModel(log_p0=np.log(101.0), scale_height=height)
    back = value * m.ratio(elev) * m.ratio(0.0, elev)  # up as `apply_stack`, down as `invert_stack`
    assert back == pytest.approx(value, rel=1e-12)
    assert value * m.ratio(elev, other) * m.ratio(other, elev) == pytest.approx(value, rel=1e-12)


# -- diurnal --------------------------------------------------------------


def test_fit_diurnal_exact_basis_member():
    T = 8 * 288
    t = np.arange(1, T + 1)
    series = np.cos(2 * np.pi * t / 288)
    diffs = np.vstack([series, series, series])
    model = fit_diurnal(diffs, period=288, n_harmonics=15)
    resid = diffs - model.predict(T)[None, :]
    assert np.max(np.abs(resid)) < 1e-10
    assert np.allclose(model.variance_removed, 1.0)


def test_fit_diurnal_white_noise_variance_fraction():
    # 30 orthogonal regressors on pure noise remove ~30/T of the variance
    rng = np.random.default_rng(3)
    T = 8640
    diffs = rng.standard_normal((1, T))
    model = fit_diurnal(diffs, period=288, n_harmonics=15)
    expected = 30.0 / T
    se = np.sqrt(2.0 * 30.0) / T  # SE of a chi^2_30 / T fraction
    assert abs(model.variance_removed[0] - expected) < 3 * se + 1e-4


def test_fit_diurnal_shared_across_sites():
    rng = np.random.default_rng(4)
    T = 2 * 288
    t = np.arange(1, T + 1)
    cyc = 0.3 * np.sin(2 * np.pi * t / 288)
    diffs = cyc[None, :] + 0.01 * rng.standard_normal((4, T))
    model = fit_diurnal(diffs, period=288, n_harmonics=15)
    # fitted on the cross-site mean: same coefficient vector regardless of
    # which site we ask about
    assert model.coefficients.shape == (30,)
    assert np.max(np.abs(model.predict(T) - cyc)) < 0.01


def test_diurnal_model_validation():
    with pytest.raises(ValidationError):
        DiurnalModel(period=288, n_harmonics=144, coefficients=np.zeros(288))
    with pytest.raises(ValidationError):
        DiurnalModel(period=288, n_harmonics=15, coefficients=np.zeros(7))


# -- volatility -----------------------------------------------------------


def test_estimate_volatility_unit_noise_band():
    rng = np.random.default_rng(5)
    resid = rng.standard_normal((11, 2000))
    vol = estimate_volatility(resid, df=24.0)
    assert np.all(vol.values > 0.8)
    assert np.all(vol.values < 1.2)
    assert abs(vol.spline_df - 24.0) <= 0.1


def test_estimate_volatility_scale_equivariance():
    rng = np.random.default_rng(6)
    resid = rng.standard_normal((5, 600))
    v1 = estimate_volatility(resid, df=12.0).values
    v2 = estimate_volatility(2.0 * resid, df=12.0).values
    assert np.allclose(v2, 2.0 * v1, rtol=1e-9)


def test_estimate_volatility_station_permutation_invariant():
    rng = np.random.default_rng(7)
    resid = rng.standard_normal((6, 400))
    v1 = estimate_volatility(resid, df=12.0).values
    v2 = estimate_volatility(resid[::-1], df=12.0).values
    assert np.allclose(v1, v2, atol=1e-12)


def test_estimate_volatility_floors_zero_spread():
    # all sites identical at some times: SD = 0 there, floored not fatal
    resid = np.vstack([np.ones(300), np.ones(300)])
    resid[:, ::2] += np.linspace(0.01, 0.5, 150)[None, :] * np.array([[1.0], [-1.0]])
    vol = estimate_volatility(resid, df=6.0)
    assert np.all(vol.values > 0)
    assert np.all(np.isfinite(np.log(vol.values)))  # the floor kept logs finite


# -- full stack -----------------------------------------------------------


def synthetic_grid(seed=9, n=6, T=900):
    rng = np.random.default_rng(seed)
    elev = np.linspace(250.0, 520.0, n)
    base = 101.4 * np.exp(-elev / 8310.0)
    t = np.arange(1, T + 2)
    cyc = 0.004 * np.sin(2 * np.pi * t / 288) + 0.002 * np.cos(4 * np.pi * t / 288)
    walk = np.cumsum(0.01 * rng.standard_normal((n, T + 1)), axis=1)
    values = base[:, None] + cyc[None, :] + walk
    return make_grid(values, elev)


def test_full_stack_round_trip():
    grid = synthetic_grid()
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    A = apply_stack(grid, stack)
    back = invert_stack(
        A, stack, grid.elevations, grid.values.mean(axis=1)
    )
    assert np.max(np.abs(back - grid.values)) < 1e-9


@pytest.mark.parametrize("call, message", [
    (lambda grid, stack: apply_stack(make_grid(grid.values[1:], grid.elevations[1:]), stack),
     "grid and stack station counts differ"),
    (lambda grid, stack: apply_stack(make_grid(grid.values[:, 1:], grid.elevations), stack),
     "grid length inconsistent with fitted volatility"),
    (lambda grid, stack: invert_stack(np.zeros((2, grid.n_times - 2)), stack,
                                      [300.0, 400.0], [97.0, 96.0]),
     "adjusted field and volatility length mismatch"),
    # one member at a time: an ensemble's members axis is not a field
    (lambda grid, stack: invert_stack(np.zeros((3, 2, grid.n_times - 1)), stack,
                                      [300.0, 400.0], np.full((3, 2), 97.0)),
     "target elevations/means do not match the m x T field"),
    (lambda grid, stack: invert_stack(np.zeros((2, grid.n_times - 1)), stack,
                                      [300.0, 400.0], [97.0]),
     "target elevations/means do not match the m x T field"),
], ids=["apply_fewer_stations", "apply_shorter_grid", "invert_shorter_field",
        "invert_members_axis", "invert_fewer_means"])
def test_stack_rejects_a_field_it_was_not_fitted_to(call, message):
    grid = synthetic_grid()
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    with pytest.raises(ValidationError, match=message):
        call(grid, stack)


def test_invert_stack_zero_field_constant_level():
    grid = synthetic_grid()
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    zero_diurnal = TransformStack(
        sea_level=stack.sea_level,
        diurnal=DiurnalModel(period=288, n_harmonics=15, coefficients=np.zeros(30)),
        volatility=stack.volatility,
        site_means=stack.site_means,
        station_ids=stack.station_ids,
    )
    T = grid.n_times - 1
    out = invert_stack(np.zeros((2, T)), zero_diurnal, [300.0, 400.0], [97.0, 96.0])
    assert np.allclose(out[0], 97.0, atol=1e-12)
    assert np.allclose(out[1], 96.0, atol=1e-12)


def test_invert_stack_mean_shift_equivariance():
    grid = synthetic_grid()
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    rng = np.random.default_rng(10)
    A = rng.standard_normal((2, grid.n_times - 1))
    p0 = invert_stack(A, stack, [300.0, 400.0], [97.0, 96.0])
    p1 = invert_stack(A, stack, [300.0, 400.0], [97.1, 96.1])
    assert np.allclose(p1 - p0, 0.1, atol=1e-12)


def test_invert_stack_anchors_time_mean():
    grid = synthetic_grid()
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((2, grid.n_times - 1))
    out = invert_stack(A, stack, [300.0, 400.0], [97.0, 96.0])
    assert np.allclose(out.mean(axis=1), [97.0, 96.0], atol=1e-10)


def test_apply_stack_constant_grid_zero_diurnal():
    grid = synthetic_grid()
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    const = make_grid(np.full((grid.n_stations, grid.n_times), 100.0),
                      grid.elevations)
    zero_diurnal = TransformStack(
        sea_level=stack.sea_level,
        diurnal=DiurnalModel(period=288, n_harmonics=15, coefficients=np.zeros(30)),
        volatility=stack.volatility,
        site_means=stack.site_means,
        station_ids=stack.station_ids,
    )
    A = apply_stack(const, zero_diurnal)
    # constant pressure differs by elevation factor but differences to zero
    assert np.max(np.abs(A)) < 1e-9


def test_standardized_field_has_unit_scale():
    # cross-site SD of A, re-smoothed the same way, should hover near 1
    grid = synthetic_grid(seed=12, n=11, T=2000)
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    A = apply_stack(grid, stack)
    resmoothed = estimate_volatility(A, df=24.0).values
    frac = np.mean((resmoothed > 1 / 1.5) & (resmoothed < 1.5))
    assert frac >= 0.95


def test_stack_json_round_trip():
    grid = synthetic_grid()
    stack = fit_stack(grid, n_harmonics=15, volatility_df=24.0)
    back = TransformStack.from_dict(json.loads(json.dumps(stack.to_dict())))
    assert back.sea_level.scale_height == pytest.approx(stack.sea_level.scale_height)
    assert np.allclose(back.volatility.values, stack.volatility.values)
    assert np.allclose(back.diurnal.coefficients, stack.diurnal.coefficients)
    assert len(stack.diurnal.variance_removed) == grid.n_stations
    assert np.array_equal(back.diurnal.variance_removed, stack.diurnal.variance_removed)
    assert back.station_ids == stack.station_ids
    A1 = apply_stack(grid, stack)
    A2 = apply_stack(grid, back)
    assert np.allclose(A1, A2, atol=1e-12)
    # a stack given as truth has no variance_removed and writes no key for it
    given = replace(stack, diurnal=replace(stack.diurnal, variance_removed=None))
    assert "variance_removed" not in given.to_dict()["diurnal"]
    back = TransformStack.from_dict(json.loads(json.dumps(given.to_dict())))
    assert back.diurnal.variance_removed is None
