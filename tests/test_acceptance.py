"""Acceptance suite: one printed pass/fail line per criterion.

Each test states a quantitative claim about the library (exactness
oracles, structural invariants, recovery/calibration targets, and
runtime budgets) and prints a single summary line with the measured
margin, so a full run doubles as an acceptance report.
"""

import os
import time

import numpy as np
import pytest
from scipy.stats import chi2, multivariate_normal

from presim import synth, verify
from presim.condsim import ConditionalSampler, PredictionSetup
from presim.geometry import SiteGeometry
from presim.meanfield import krige, reml_fit, sample_means
from presim.preprocess import (
    SeaLevelModel,
    apply_stack,
    fit_stack,
    from_sea_level,
    invert_stack,
    to_sea_level,
)
from presim.rng import STAGE_SYNTH
from presim.spectrum import KnotSet, SpectralModel, SpectralParams, matern32
from presim.whittle import (
    TWO_PI,
    WhittleObjective,
    forward_dft,
    fourier_frequencies,
    inverse_dft,
)

from conftest import random_params, unconditional_sampler


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def model():
    return SpectralModel(KnotSet.default())


def exact_series_loglik(model, params, A, geometry):
    """Exact Gaussian log-density of a periodic field on the time grid.

    The circulant covariance is the inverse DFT of the spectral matrices
    evaluated at signed Fourier frequencies, so this is an independent
    closed-form reference for the frequency-domain likelihood.
    """
    n, T = A.shape
    j = np.arange(T)
    om_signed = TWO_PI * (((j + T // 2) % T) - T // 2) / T
    f = model.cross_spectrum_stack(params, geometry, om_signed)  # (T, n, n)
    # per-pair circular autocovariance at lags 0..T-1
    c = TWO_PI / T * np.fft.fft(f, axis=0)
    lag = (np.arange(T)[:, None] - np.arange(T)[None, :]) % T
    sigma = np.empty((n * T, n * T))
    for x in range(n):
        for y in range(n):
            sigma[x * T:(x + 1) * T, y * T:(y + 1) * T] = c[lag, x, y].real
    sigma = 0.5 * (sigma + sigma.T)
    return float(multivariate_normal(cov=sigma).logpdf(A.reshape(-1)))


def test_01_frequency_likelihood_matches_exact_density(model, geometry3):
    t0 = time.monotonic()
    T = 32
    rng = np.random.default_rng(101)
    gen = random_params(model, rng, scale=0.3)
    A = inverse_dft(unconditional_sampler(model, gen, geometry3, T).draw(5, 0))
    spec = forward_dft(A)
    obj = WhittleObjective(model, spec, geometry3)

    worst = 0.0
    for _ in range(20):
        p1 = random_params(model, rng, scale=0.3)
        p2 = random_params(model, rng, scale=0.3)
        d_freq = obj.loglik(p1) - obj.loglik(p2)
        d_exact = exact_series_loglik(model, p1, A, geometry3) - exact_series_loglik(
            model, p2, A, geometry3
        )
        worst = max(worst, abs(d_freq - d_exact))
    elapsed = time.monotonic() - t0
    report(
        "frequency likelihood vs exact density",
        worst < 1e-8 and elapsed < 10.0,
        f"(max |diff of loglik differences| = {worst:.2e}, {elapsed:.1f} s)",
    )


def test_02_conditional_simulation_moments(model):
    t0 = time.monotonic()
    T, N = 16, 100_000
    params = synth.default_true_params(model)
    obs = SiteGeometry(np.array([36.2, 36.5]), np.array([-97.2, -96.9]))
    setup = PredictionSetup(
        observed=obs, target_lats=[36.35], target_lons=[-97.05],
        target_elevations=[320.0],
    )
    field = unconditional_sampler(model, params, setup.observed, T).draw(7, 0)
    sampler = ConditionalSampler(model, params, setup, field)
    idx_low = sampler.plan.idx_low
    om = fourier_frequencies(T)[idx_low]
    scale = TWO_PI * T

    # closed-form conditional law per retained frequency
    f = model.cross_spectrum_stack(params, setup.combined, om)
    mean_cf = np.empty(len(idx_low), dtype=complex)
    var_cf = np.empty(len(idx_low))
    for k in range(len(idx_low)):
        foo, fpo, fpp = f[k, :2, :2], f[k, 2:, :2], f[k, 2:, 2:]
        B = fpo @ np.linalg.inv(foo)
        mean_cf[k] = (B @ field.coeffs[idx_low[k]])[0]
        var_cf[k] = scale * (fpp - B @ fpo.conj().T)[0, 0].real

    draws = np.empty((N, len(idx_low)), dtype=complex)
    for i in range(N):
        draws[i] = sampler.draw(seed=11, member=i).coeffs[idx_low, 0]

    ok, lines = True, []
    for k, j in enumerate(idx_low):
        emp_mean = draws[:, k].mean()
        emp_var = float(np.mean(np.abs(draws[:, k] - mean_cf[k]) ** 2))
        is_real = j == 0 or (T % 2 == 0 and j == T // 2)
        se = np.sqrt(var_cf[k] / N) if is_real else np.sqrt(var_cf[k] / 2 / N)
        dm_re = abs(emp_mean.real - mean_cf[k].real)
        dm_im = abs(emp_mean.imag - mean_cf[k].imag)
        mean_ok = dm_re < 4 * se and (is_real or dm_im < 4 * se)
        var_ok = abs(emp_var / var_cf[k] - 1.0) < 0.05
        ok = ok and mean_ok and var_ok
        lines.append(
            f"j={j}: mean off ({dm_re / se:.2f}, {dm_im / se:.2f}) SE, "
            f"var ratio {emp_var / var_cf[k]:.4f}"
        )
    elapsed = time.monotonic() - t0
    report(
        "conditional draws match closed-form law",
        ok and elapsed < 60.0,
        f"({'; '.join(lines)}; {elapsed:.1f} s)",
    )


def test_03_constraints_symmetry_and_correlation_values(model):
    rng = np.random.default_rng(103)
    om0 = model.knots.omega0

    worst_con = 0.0
    for basis, point, orders in (
        (model.basis_delta, om0, (0, 1, 2)),
        (model.basis_theta, om0, (0, 1, 2)),
        (model.basis_beta, om0, (1, 2)),
        (model.basis_S, np.pi, (1,)),
    ):
        c = rng.standard_normal(basis.dimension)
        for order in orders:
            val = float((basis.design(np.array([point]), order=order) @ c)[0])
            worst_con = max(worst_con, abs(val))

    om = rng.uniform(1e-6, np.pi, 200)
    worst_sym = 0.0
    for _ in range(3):
        p = random_params(model, rng)
        worst_sym = max(
            worst_sym,
            np.max(np.abs(model.eval_S(p, om) - model.eval_S(p, -om))),
            np.max(np.abs(model.eval_beta(p, om) - model.eval_beta(p, -om))),
            np.max(np.abs(model.eval_delta(p, om) - model.eval_delta(p, -om))),
            np.max(np.abs(model.eval_theta(p, om) + model.eval_theta(p, -om))),
        )

    worst_mat = max(
        abs(matern32(np.array([0.0]))[0] - 1.0),
        abs(matern32(np.array([1.0]))[0] - 2.0 / np.e),
    )
    report(
        "endpoint constraints, parity, correlation values",
        worst_con < 1e-10 and worst_sym < 1e-12 and worst_mat < 1e-12,
        f"(constraints {worst_con:.1e}, parity {worst_sym:.1e}, "
        f"correlation {worst_mat:.1e})",
    )


def test_04_cross_spectrum_is_positive_definite_hermitian(model, geometry3):
    rng = np.random.default_rng(104)
    worst_eig, worst_herm = 0.0, 0.0
    for _ in range(50):
        p = random_params(model, rng, scale=0.5)
        w = rng.uniform(0, np.pi)
        f = model.cross_spectrum(p, geometry3, w)
        fneg = model.cross_spectrum(p, geometry3, -w)
        tr = float(np.trace(f).real)
        worst_eig = max(worst_eig, -np.linalg.eigvalsh(f).min() / tr)
        worst_herm = max(
            worst_herm,
            np.max(np.abs(f - f.conj().T)),
            np.max(np.abs(fneg - f.conj())),
        )
    report(
        "cross-spectrum positive definite and Hermitian",
        worst_eig < 1e-10 and worst_herm < 1e-12,
        f"(min eig / trace ≥ -{worst_eig:.1e}, Hermitian {worst_herm:.1e})",
    )


def test_05_likelihood_invariant_under_sign_symmetries(model, geometry3):
    rng = np.random.default_rng(105)
    T = 48
    A = 0.01 * rng.standard_normal((3, T))
    obj = WhittleObjective(model, forward_dft(A), geometry3)
    worst = 0.0
    for _ in range(5):
        p = random_params(model, rng)
        ll = obj.loglik(p)
        flip_delta = SpectralParams(p.s_coeffs, p.beta_coeffs, -p.delta_coeffs,
                                    p.theta_coeffs, p.u_angle)
        flip_theta = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                                    -p.theta_coeffs, p.u_angle + np.pi)
        worst = max(
            worst,
            abs(obj.loglik(flip_delta) - ll),
            abs(obj.loglik(flip_theta) - ll),
        )
    report("likelihood sign-symmetry invariance", worst < 1e-8,
           f"(max |change| = {worst:.2e})")


def test_06_round_trips():
    from test_preprocess import make_grid

    rng = np.random.default_rng(106)
    n, T = 6, 900
    elev = 250.0 + 400.0 * rng.random(n)
    base = 101.3 * np.exp(-elev / 8100.0)
    walk = np.cumsum(0.002 * rng.standard_normal((n, T + 1)), axis=1)
    grid = make_grid(base[:, None] + walk, elevations=elev)
    stack = fit_stack(grid, volatility_df=24.0)
    A = apply_stack(grid, stack)
    back = invert_stack(A, stack, grid.elevations, stack.site_means)
    err_stack = float(np.max(np.abs(back - grid.values)))

    B = 0.01 * rng.standard_normal((4, 257))
    err_dft = float(np.max(np.abs(inverse_dft(forward_dft(B)) - B)))

    sea = SeaLevelModel(log_p0=np.log(101.4), scale_height=8200.0)
    p = 80.0 + 30.0 * rng.random(50)
    e = 1000.0 * rng.random(50)
    err_sea = float(np.max(np.abs(from_sea_level(to_sea_level(p, e, sea), e, sea) / p - 1.0)))

    report(
        "transform, DFT, and sea-level round trips",
        err_stack < 1e-9 and err_dft < 1e-10 and err_sea < 1e-12,
        f"(stack {err_stack:.1e} kPa, DFT {err_dft:.1e}, sea-level {err_sea:.1e} rel)",
    )


def test_07_parameter_recovery_from_synthetic_network(model):
    from presim.whittle import FitOptions, fit_mle, initial_params

    t0 = time.monotonic()
    T = 8640
    stations = synth.default_stations()[:11]
    stack = synth.default_stack(T, [s.elevation for s in stations], seed=11)
    truth = synth.generate(model, synth.default_true_params(model), stations,
                           stack, T, seed=11)
    geo = SiteGeometry(
        np.array([s.latitude for s in stations]),
        np.array([s.longitude for s in stations]),
    )
    spec = forward_dft(truth.adjusted)
    init = initial_params(model, spec, geo)
    fit = fit_mle(model, init, spec, geo, FitOptions(), compute_hessian=False)
    elapsed = time.monotonic() - t0

    om0 = model.knots.omega0
    probes = np.array([om0 / 8, om0 / 2, 2 * om0, np.pi / 2])
    err_S = np.abs(
        model.eval_S(fit.params_hat, probes) / model.eval_S(truth.params, probes) - 1.0
    )
    dgrid = np.array([om0 / 16, om0 / 8, om0 / 4, om0 / 2])
    err_d = np.abs(
        np.abs(model.eval_delta(fit.params_hat, dgrid))
        / np.abs(model.eval_delta(truth.params, dgrid))
        - 1.0
    )
    report(
        "spectrum and coherence-range recovery",
        float(err_S.max()) < 0.15 and float(err_d.max()) < 0.25 and elapsed < 900.0,
        f"(S err ≤ {err_S.max():.3f} @ 15%, |delta| err ≤ {err_d.max():.3f} @ 25%, "
        f"fit {elapsed:.0f} s / 900 s)",
    )


def test_08_ensemble_calibration_at_held_out_sites(model):
    t0 = time.monotonic()
    T, K = 8640, 99
    params = synth.default_true_params(model)
    stations = synth.default_stations()
    lats = np.array([s.latitude for s in stations])
    lons = np.array([s.longitude for s in stations])
    setup = PredictionSetup(
        observed=SiteGeometry(lats[:11], lons[:11]),
        target_lats=lats[11:], target_lons=lons[11:],
        target_elevations=np.array([s.elevation for s in stations[11:]]),
    )
    full = unconditional_sampler(model, params, SiteGeometry(lats, lons), T)
    q99 = chi2.ppf(0.99, K)

    pass_diff = pass_hourly = 0
    for rep in range(20):
        seed = 1000 + rep
        A = inverse_dft(full.draw(seed, 0, stage=STAGE_SYNTH))
        sampler = ConditionalSampler(model, params, setup, forward_dft(A[:11]))
        members = np.stack([inverse_dft(sampler.draw(seed, k)) for k in range(K)])
        ok_diff = ok_hourly = True
        for i in range(2):
            h = verify.rank_histogram(
                np.diff(A[11 + i]), np.diff(members[:, i, :], axis=1), seed=seed
            )
            ok_diff &= h.chi_square() < q99
            hh = verify.rank_histogram(
                verify.aggregate_diffs(A[11 + i], 12),
                np.array([verify.aggregate_diffs(p, 12) for p in members[:, i, :]]),
                selector_label="hourly", seed=seed,
            )
            ok_hourly &= hh.chi_square() < q99
        pass_diff += ok_diff
        pass_hourly += ok_hourly
    elapsed = time.monotonic() - t0
    report(
        "rank-histogram calibration over 20 replications",
        pass_diff >= 18 and pass_hourly >= 18,
        f"(differenced {pass_diff}/20, hourly {pass_hourly}/20, ≥18 required; "
        f"{elapsed:.0f} s)",
    )


def test_09_mean_field_closed_forms_and_t_scaling():
    rng = np.random.default_rng(109)
    n = 11
    geo = SiteGeometry(36.0 + rng.uniform(0, 1.0, n), -97.5 + rng.uniform(0, 1.2, n))
    M = 101.0 + 0.05 * rng.standard_normal(n)
    mf = reml_fit(M, geo, "nugget")
    err_reml = abs(mf.theta_hat - np.var(M, ddof=1))

    target = SiteGeometry(np.array([36.4]), np.array([-97.1]))
    _, cov = krige(mf, target)
    err_var = abs(cov[0, 0] - mf.theta_hat * (1 + 1 / n))

    sea = SeaLevelModel(log_p0=np.log(101.0), scale_height=8310.0)
    draws = sample_means(mf, target, [0.0], sea, count=100_000, seed=42)
    df = n - 1
    ratio = np.var(draws[:, 0], ddof=1) / (cov[0, 0] * df / (df - 2))
    report(
        "mean-field closed forms and t-draw scaling",
        err_reml < 1e-10 and err_var < 1e-10 and abs(ratio - 1.0) < 0.05,
        f"(REML {err_reml:.1e}, kriging var {err_var:.1e}, "
        f"second-moment ratio {ratio:.4f})",
    )


def test_10_field_dataset_smoke_checks():
    data_dir = os.environ.get("PRESSURE_DATA_DIR")
    if not data_dir or not os.path.isdir(data_dir):
        print("\n[acceptance] field-dataset smoke checks: SKIP (dataset absent)",
              flush=True)
        pytest.skip("set PRESSURE_DATA_DIR to a directory with stations.csv "
                    "and observations.csv to enable")

    from presim.ingest import assemble_grid, block_average, fill_missing
    from presim.ingest import load_observations, load_stations

    stations = load_stations(os.path.join(data_dir, "stations.csv"))
    series = load_observations(os.path.join(data_dir, "observations.csv"), stations)
    series = [block_average(fill_missing(s, 8), 5) for s in series]
    grid = assemble_grid(series, 8640)
    stack = fit_stack(grid)

    ok_sea = (
        stack.sea_level.r_squared >= 0.999
        and abs(stack.sea_level.p0 / 101.89 - 1.0) < 0.01
        and abs(stack.sea_level.scale_height / 8310.0 - 1.0) < 0.01
    )
    removed = float(np.mean(stack.diurnal.variance_removed)) * 100.0
    ok_diurnal = abs(removed - 12.4) <= 1.5
    vol_ratio = float(stack.volatility.values.max() / stack.volatility.values.min())
    ok_vol = abs(vol_ratio / 6.86 - 1.0) <= 0.10
    report(
        "field-dataset smoke checks",
        ok_sea and ok_diurnal and ok_vol,
        f"(R2 {stack.sea_level.r_squared:.5f}, p0 {stack.sea_level.p0:.2f}, "
        f"H {stack.sea_level.scale_height:.0f}, diurnal {removed:.1f}%, "
        f"max/min vol {vol_ratio:.2f})",
    )
