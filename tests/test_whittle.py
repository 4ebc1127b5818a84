"""DFT conventions, Whittle likelihood, MLE machinery, parameter sampling."""

import numpy as np
import pytest

from presim.errors import ValidationError
from presim.geometry import SiteGeometry
from presim.rng import substream
from presim.spectrum import KNOT_UNIT, SpectralParams
from presim.whittle import (
    TWO_PI,
    FitOptions,
    FitResult,
    WhittleObjective,
    FrequencyPlan,
    fit_mle,
    forward_dft,
    initial_params,
    inverse_dft,
    numeric_gradient,
    numeric_hessian,
    sample_params,
)

from conftest import random_params, unconditional_sampler


# -- DFT ------------------------------------------------------------------


def test_forward_dft_dc_signal():
    T = 16
    spec = forward_dft(np.ones((1, T)))
    J = spec.coeffs[:, 0]
    assert J[0] == pytest.approx(T, abs=1e-9)
    assert np.max(np.abs(J[1:])) < 1e-9


def test_forward_dft_single_tone():
    T = 32
    t = np.arange(1, T + 1)
    om1 = 2 * np.pi / T
    spec = forward_dft(np.cos(om1 * t)[None, :])
    assert abs(spec.coeffs[1, 0]) == pytest.approx(T / 2, abs=1e-9)
    assert abs(spec.coeffs[T - 1, 0]) == pytest.approx(T / 2, abs=1e-9)


def test_forward_dft_matches_direct_sum():
    rng = np.random.default_rng(0)
    T = 48
    A = rng.standard_normal((2, T))
    spec = forward_dft(A)
    t = np.arange(1, T + 1)
    for j in range(T):
        om = 2 * np.pi * j / T
        direct = np.sum(A * np.exp(1j * om * t)[None, :], axis=1)
        assert np.max(np.abs(spec.coeffs[j] - direct)) < 1e-10


def test_dft_round_trip():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 64))
    back = inverse_dft(forward_dft(A))
    assert np.max(np.abs(back - A)) < 1e-10


def test_forward_dft_conjugate_symmetry():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((2, 20))
    J = forward_dft(A).coeffs
    for j in range(1, 10):
        assert np.max(np.abs(J[20 - j] - np.conj(J[j]))) < 1e-9
    assert np.max(np.abs(J[0].imag)) < 1e-9
    assert np.max(np.abs(J[10].imag)) < 1e-9


def test_inverse_dft_dc_only():
    T = 12
    coeffs = np.zeros((T, 1), dtype=complex)
    coeffs[0, 0] = T * 4.5
    from presim.whittle import SpectralField

    A = inverse_dft(SpectralField(coeffs=coeffs))
    assert np.allclose(A, 4.5, atol=1e-12)


def test_inverse_dft_rejects_asymmetric_input():
    from presim.whittle import SpectralField

    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    with pytest.raises(ValidationError, match="conjugate"):
        inverse_dft(SpectralField(coeffs=coeffs))


def test_parseval_identity():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((1, 40))
    J = forward_dft(A).coeffs[:, 0]
    lhs = np.sum(A**2)
    rhs = np.sum(np.abs(J) ** 2) / 40
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_onesided_indices_weights():
    plan = FrequencyPlan(8, np.pi)
    assert list(plan.idx) == [0, 1, 2, 3, 4]
    assert np.allclose(plan.weights, [0.5, 1, 1, 1, 0.5])
    plan = FrequencyPlan(7, np.pi)
    assert list(plan.idx) == [0, 1, 2, 3]
    assert np.allclose(plan.weights, [0.5, 1, 1, 1])


@pytest.mark.parametrize("T", [48, 49, 2880, 2881])
@pytest.mark.parametrize("omega0_j", [1, 720, 4320])
def test_frequency_plan_partitions_onesided_set(T, omega0_j):
    plan = FrequencyPlan(T, omega0_j * KNOT_UNIT)
    assert np.array_equal(
        np.concatenate([plan.idx_low, plan.idx_high]), np.arange(T // 2 + 1)
    )
    assert np.all(plan.omega_high > omega0_j * KNOT_UNIT)
    assert np.array_equal(np.concatenate([plan.w_low, plan.w_high]), plan.weights)
    real = np.concatenate([plan.real_low, plan.real_high])
    assert np.array_equal(real, plan.weights == 0.5)
    assert list(np.flatnonzero(real)) == ([0, T // 2] if T % 2 == 0 else [0])


def test_frequency_plan_cutoff_on_fourier_frequency_is_low():
    # omega0_j = 720 is pi/6, which is Fourier index 240 of T = 2880
    plan = FrequencyPlan(2880, 720 * KNOT_UNIT)
    assert plan.idx_low[-1] == 240
    assert plan.idx_high[0] == 241
    # a cutoff at pi leaves the high band empty
    assert len(FrequencyPlan(2880, 4320 * KNOT_UNIT).idx_high) == 0


# -- likelihood -----------------------------------------------------------


def test_univariate_matches_scalar_formula(model):
    rng = np.random.default_rng(5)
    T = 128
    geo = SiteGeometry(np.array([36.3]), np.array([-97.1]))
    A = 0.01 * rng.standard_normal((1, T))
    spec = forward_dft(A)
    p = random_params(model, rng)

    plan = FrequencyPlan(T, model.knots.omega0)
    S = model.eval_S(p, plan.omegas)
    J = spec.coeffs[plan.idx, 0]
    expected = -np.sum(plan.weights * (np.log(S) + np.abs(J) ** 2 / (TWO_PI * T * S)))
    assert WhittleObjective(model, spec, geo).loglik(p) == pytest.approx(expected, rel=1e-10)


def test_matches_naive_two_sided_sum(model, geometry3):
    rng = np.random.default_rng(6)
    T = 36
    A = 0.01 * rng.standard_normal((3, T))
    spec = forward_dft(A)
    p = random_params(model, rng)

    j = np.arange(T)
    om_signed = 2 * np.pi * (((j + T // 2) % T) - T // 2) / T
    f = model.cross_spectrum_stack(p, geometry3, om_signed)
    total = 0.0
    for k in range(T):
        Jk = spec.coeffs[k]
        sign, logdet = np.linalg.slogdet(f[k])
        quad = (np.conj(Jk) @ np.linalg.solve(f[k], Jk)).real
        total += -0.5 * (logdet + quad / (TWO_PI * T))
    assert WhittleObjective(model, spec, geometry3).loglik(p) == pytest.approx(total, rel=1e-9)


def test_scale_identity(model, geometry3):
    # adding log(2) to the S spline doubles S; the likelihood of the
    # original data under 2S equals that of data/sqrt(2) under S minus
    # n * (sum of weights) * log(2) from the determinant terms
    rng = np.random.default_rng(7)
    T = 64
    A = 0.01 * rng.standard_normal((3, T))
    p = random_params(model, rng)
    G = model.basis_S.design(np.linspace(0, np.pi, 200))
    c_log2, *_ = np.linalg.lstsq(G, np.full(200, np.log(2.0)), rcond=None)
    p2 = SpectralParams(p.s_coeffs + c_log2, p.beta_coeffs, p.delta_coeffs,
                        p.theta_coeffs, p.u_angle)

    ll_doubled = WhittleObjective(model, forward_dft(A), geometry3).loglik(p2)
    ll_scaled = WhittleObjective(model, forward_dft(A / np.sqrt(2.0)), geometry3).loglik(p)
    w = FrequencyPlan(T, model.knots.omega0).weights
    assert ll_doubled == pytest.approx(ll_scaled - 3 * w.sum() * np.log(2.0), rel=1e-9)


def test_station_permutation_invariance(model):
    rng = np.random.default_rng(8)
    T = 60
    lats = 36.0 + rng.uniform(0, 0.8, 4)
    lons = -97.0 + rng.uniform(0, 0.8, 4)
    A = 0.01 * rng.standard_normal((4, T))
    p = random_params(model, rng)
    perm = np.array([2, 0, 3, 1])
    ll1 = WhittleObjective(model, forward_dft(A), SiteGeometry(lats, lons)).loglik(p)
    ll2 = WhittleObjective(
        model, forward_dft(A[perm]), SiteGeometry(lats[perm], lons[perm])
    ).loglik(p)
    assert ll1 == pytest.approx(ll2, rel=1e-9)


def test_symmetry_invariances_on_loglik(model, geometry3):
    rng = np.random.default_rng(9)
    T = 48
    A = 0.01 * rng.standard_normal((3, T))
    spec = forward_dft(A)
    p = random_params(model, rng)
    obj = WhittleObjective(model, spec, geometry3)
    ll = obj.loglik(p)
    flip_delta = SpectralParams(p.s_coeffs, p.beta_coeffs, -p.delta_coeffs,
                                p.theta_coeffs, p.u_angle)
    flip_theta = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                                -p.theta_coeffs, p.u_angle + np.pi)
    assert abs(obj.loglik(flip_delta) - ll) < 1e-8
    assert abs(obj.loglik(flip_theta) - ll) < 1e-8


def test_singular_spectral_matrix_names_frequency(model):
    # two coincident sites with no spatial nugget make f exactly singular
    geo = SiteGeometry(np.array([36.3, 36.3]), np.array([-97.1, -97.1]))
    G = model.basis_beta.design(np.linspace(0, model.knots.omega0, 50))
    c_beta, *_ = np.linalg.lstsq(G, np.full(50, 40.0), rcond=None)
    Gd = model.basis_delta.design(np.linspace(0, model.knots.omega0, 50))
    c_delta, *_ = np.linalg.lstsq(
        Gd, 50.0 * np.clip(1 - (np.linspace(0, 1, 50)) ** 2, 0, None) ** 3, rcond=None
    )
    p = SpectralParams(
        s_coeffs=np.zeros(model.dimensions["s"]),
        beta_coeffs=c_beta,
        delta_coeffs=c_delta,
        theta_coeffs=np.zeros(model.dimensions["theta"]),
        u_angle=0.0,
    )
    rng = np.random.default_rng(10)
    spec = forward_dft(0.01 * rng.standard_normal((2, 24)))
    with pytest.raises(ValidationError, match="frequency"):
        WhittleObjective(model, spec, geo).loglik(p)


# -- derivatives ----------------------------------------------------------


def test_numeric_gradient_on_quadratic():
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((5, 5))
    Q = Q @ Q.T + np.eye(5)
    b = rng.standard_normal(5)
    fun = lambda x: 0.5 * x @ Q @ x + b @ x
    x0 = rng.standard_normal(5)
    g = numeric_gradient(fun, x0)
    assert np.allclose(g, Q @ x0 + b, rtol=1e-6, atol=1e-8)


def test_numeric_hessian_on_quadratic():
    rng = np.random.default_rng(12)
    Q = rng.standard_normal((6, 6))
    Q = Q @ Q.T + np.eye(6)
    fun = lambda x: 0.5 * x @ Q @ x
    H = numeric_hessian(fun, rng.standard_normal(6))
    assert np.allclose(H, Q, rtol=1e-5, atol=1e-6)
    assert np.max(np.abs(H - H.T)) < 1e-8


def test_hessian_at_is_symmetric(model, geometry3):
    rng = np.random.default_rng(13)
    T = 40
    A = 0.01 * rng.standard_normal((3, T))
    p = random_params(model, rng, scale=0.1)
    obj = WhittleObjective(model, forward_dft(A), geometry3)
    H = numeric_hessian(lambda x: -obj.loglik_vec(x), p.pack())
    assert H.shape == (model.n_params, model.n_params)
    assert np.max(np.abs(H - H.T)) < 1e-8


# -- fitting --------------------------------------------------------------


def make_synthetic_field(model, geometry, T, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    truth = random_params(model, rng, scale=scale)
    sampler = unconditional_sampler(model, truth, geometry, T)
    A = inverse_dft(sampler.draw(seed, 0))
    return truth, forward_dft(A)


def test_fit_from_truth_does_not_decrease_loglik(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 96, seed=14)
    obj = WhittleObjective(model, spec, geometry3)
    fit = fit_mle(model, truth, spec, geometry3,
                  FitOptions(max_iter=40), compute_hessian=False)
    assert fit.loglik >= obj.loglik(truth) - 1e-9
    assert fit.convergence["status"] in ("converged", "max_iter_or_stalled")


def test_fit_is_deterministic(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 64, seed=15)
    f1 = fit_mle(model, truth, spec, geometry3,
                 FitOptions(max_iter=10), compute_hessian=False)
    f2 = fit_mle(model, truth, spec, geometry3,
                 FitOptions(max_iter=10), compute_hessian=False)
    assert np.array_equal(f1.params_hat.pack(), f2.params_hat.pack())
    assert f1.loglik == f2.loglik


def test_fit_rejects_nonfinite_start(model, geometry3):
    rng = np.random.default_rng(16)
    spec = forward_dft(0.01 * rng.standard_normal((3, 32)))
    bad = model.unpack(np.full(model.n_params, -5000.0))  # S underflows to 0
    with pytest.raises(ValidationError):
        fit_mle(model, bad, spec, geometry3)


def test_initial_params_give_finite_loglik(model, geometry3):
    rng = np.random.default_rng(17)
    A = 0.01 * rng.standard_normal((3, 600))
    spec = forward_dft(A)
    init = initial_params(model, spec, geometry3)
    assert np.isfinite(WhittleObjective(model, spec, geometry3).loglik(init))


def test_fit_result_json_round_trip(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 48, seed=18)
    fit = fit_mle(model, truth, spec, geometry3,
                  FitOptions(max_iter=5), compute_hessian=True)
    back = FitResult.from_json(fit.to_json())
    assert np.allclose(back.params_hat.pack(), fit.params_hat.pack(), atol=0)
    assert back.loglik == fit.loglik
    assert np.allclose(back.hessian, fit.hessian, atol=0)
    assert back.knots == fit.knots


# -- parameter sampling ---------------------------------------------------


def test_sample_params_count_and_determinism(model):
    p = model.zero_params()
    fit = FitResult(params_hat=p, loglik=0.0, hessian=np.eye(model.n_params),
                    convergence={}, knots=model.knots)
    draws1 = sample_params(model, fit, 99, seed=7)
    draws2 = sample_params(model, fit, 99, seed=7)
    draws3 = sample_params(model, fit, 5, seed=8)
    assert len(draws1) == 99
    assert all(
        np.array_equal(a.pack(), b.pack()) for a, b in zip(draws1, draws2)
    )
    assert not np.array_equal(draws1[0].pack(), draws3[0].pack())


def test_sample_params_identity_hessian_covariance(model):
    p = model.zero_params()
    fit = FitResult(params_hat=p, loglik=0.0, hessian=np.eye(model.n_params),
                    convergence={}, knots=model.knots)
    draws = sample_params(model, fit, 100_000, seed=9)
    X = np.stack([d.pack() for d in draws])
    C = np.cov(X.T)
    assert np.max(np.abs(np.diag(C) - 1.0)) < 0.05
    off = C - np.diag(np.diag(C))
    assert np.max(np.abs(off)) < 0.05


def test_sample_params_floors_indefinite_hessian(model):
    p = model.zero_params()
    H = np.eye(model.n_params)
    H[0, 0] = -1.0
    fit = FitResult(params_hat=p, loglik=0.0, hessian=H,
                    convergence={}, knots=model.knots)
    draws = sample_params(model, fit, 3, seed=10)
    assert fit.hessian_floored
    assert all(np.all(np.isfinite(d.pack())) for d in draws)
