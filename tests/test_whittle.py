"""DFT conventions, Whittle likelihood, MLE machinery, parameter sampling."""

import dataclasses
import json

import numpy as np
import pytest

from presim import whittle
from presim.errors import ValidationError
from presim.geometry import SiteGeometry
from presim.rng import STAGE_PARAM_DRAW, substream
from presim.spectrum import KNOT_UNIT, KnotSet, SpectralModel, SpectralParams, matern32
from presim.synth import default_stations, default_true_params
from presim.whittle import (
    GTOL,
    TWO_PI,
    FitResult,
    WhittleObjective,
    FrequencyPlan,
    SpectralField,
    cholesky_factor,
    fit_mle,
    forward_dft,
    forward_substitute,
    fourier_frequencies,
    initial_params,
    inverse_dft,
    require_frequencies,
    sample_params,
)
from presim.whittle import _matern32_root, _quartiles, _trust_region

from conftest import (
    cross_spectrum_stack,
    numeric_gradient,
    numeric_hessian,
    random_params,
    reference_loglik,
    unconditional_sampler,
    zero_site_stream,
)


# -- DFT ------------------------------------------------------------------


def direct_dft(A, j):
    """sum_{t=1..T} A(t) exp(i w_j t) by a direct sum over t: the DFT oracle."""
    T = A.shape[1]
    t = np.arange(1, T + 1)
    return np.sum(A * np.exp(1j * (2 * np.pi * j / T) * t)[None, :], axis=1)


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
    assert spec.coeffs.shape == (T // 2 + 1, 1) and spec.n_times == T
    assert abs(spec.coeffs[1, 0]) == pytest.approx(T / 2, abs=1e-9)
    assert np.max(np.abs(np.delete(spec.coeffs[:, 0], 1))) < 1e-9


def test_forward_dft_matches_direct_sum():
    rng = np.random.default_rng(0)
    for T in (48, 49):
        A = rng.standard_normal((2, T))
        spec = forward_dft(A)
        assert spec.coeffs.shape == (T // 2 + 1, 2)
        for j in range(T // 2 + 1):
            assert np.max(np.abs(spec.coeffs[j] - direct_dft(A, j))) < 1e-10


def test_dft_round_trip():
    rng = np.random.default_rng(1)
    for T in (64, 63):
        A = rng.standard_normal((3, T))
        back = inverse_dft(forward_dft(A))
        assert back.shape == (3, T)
        assert np.max(np.abs(back - A)) < 1e-10


def test_forward_dft_conjugate_symmetry():
    # the negative frequencies a one-sided field leaves out are the
    # conjugates of its rows; rows 0 and T/2 are real
    rng = np.random.default_rng(2)
    A = rng.standard_normal((2, 20))
    J = forward_dft(A).coeffs
    for j in range(1, 10):
        assert np.max(np.abs(direct_dft(A, 20 - j) - np.conj(J[j]))) < 1e-9
    assert np.max(np.abs(J[0].imag)) < 1e-9
    assert np.max(np.abs(J[10].imag)) < 1e-9


def test_spectral_field_checks_row_count():
    assert SpectralField(np.zeros((5, 2)), n_times=8).n_sites == 2
    assert SpectralField(np.zeros((5, 0)), n_times=9).n_times == 9
    for rows, T in ((8, 8), (4, 8), (6, 9)):
        with pytest.raises(ValidationError, match="floor"):
            SpectralField(np.zeros((rows, 2)), n_times=T)


def test_inverse_dft_dc_only():
    T = 12
    coeffs = np.zeros((T // 2 + 1, 1), dtype=complex)
    coeffs[0, 0] = T * 4.5
    A = inverse_dft(SpectralField(coeffs=coeffs, n_times=T))
    assert A.shape == (1, T)
    assert np.allclose(A, 4.5, atol=1e-12)


def test_inverse_dft_rejects_asymmetric_input():
    # a real series has real coefficients at frequency 0 and the Nyquist
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    with pytest.raises(ValidationError, match="not real"):
        inverse_dft(SpectralField(coeffs=coeffs, n_times=16))
    coeffs[[0, 8]] = coeffs[[0, 8]].real
    assert inverse_dft(SpectralField(coeffs=coeffs, n_times=16)).shape == (2, 16)
    assert inverse_dft(SpectralField(coeffs=coeffs, n_times=17)).shape == (2, 17)
    coeffs[8, 1] += 1e-3j
    with pytest.raises(ValidationError, match="not real"):
        inverse_dft(SpectralField(coeffs=coeffs, n_times=16))


def test_inverse_dft_rejects_non_finite_input():
    # NaN fails every comparison, so the realness check alone lets it pass
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    coeffs[[0, 8]] = coeffs[[0, 8]].real
    for bad in (np.nan, complex(np.nan, 0.0), np.inf):
        field = coeffs.copy()
        field[0, 1] = bad
        with pytest.raises(ValidationError, match="a coefficient is not finite"):
            inverse_dft(SpectralField(coeffs=field, n_times=16))


def test_parseval_identity():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((1, 40))
    J = forward_dft(A).coeffs[:, 0]
    lhs = np.sum(A**2)
    # each row other than 0 and T/2 stands for itself and its conjugate
    mult = np.full(21, 2.0)
    mult[[0, 20]] = 1.0
    rhs = np.sum(mult * np.abs(J) ** 2) / 40
    assert lhs == pytest.approx(rhs, rel=1e-9)


def model_with_cutoff(omega0_j):
    """A model whose cutoff is omega0_j * KNOT_UNIT: the hourly default's knots, rescaled."""
    hourly, omega0 = KnotSet.default(), omega0_j * KNOT_UNIT
    shrink = omega0 / hourly.omega0
    return SpectralModel(KnotSet(
        s_knots=hourly.s_knots,
        beta_knots=tuple(k * shrink for k in hourly.beta_knots),
        delta_knots=tuple(k * shrink for k in hourly.delta_knots),
        theta_knots=tuple(k * shrink for k in hourly.theta_knots),
        omega0=omega0,
    ))


def test_onesided_indices_weights():
    model = SpectralModel(KnotSet.default(4320))
    plan = FrequencyPlan(8, model)
    assert np.array_equal(plan.omegas, 2 * np.pi * np.arange(5) / 8)
    assert np.allclose(plan.weights, [0.5, 1, 1, 1, 0.5])
    plan = FrequencyPlan(7, model)
    assert np.array_equal(plan.omegas, 2 * np.pi * np.arange(4) / 7)
    assert np.allclose(plan.weights, [0.5, 1, 1, 1])


@pytest.mark.parametrize("T", [48, 49, 2880, 2881])
@pytest.mark.parametrize("omega0_j", [1, 720, 4320])
def test_frequency_plan_partitions_onesided_set(T, omega0_j):
    model = model_with_cutoff(omega0_j)
    plan = FrequencyPlan(T, model)
    rows = np.arange(T // 2 + 1)
    assert np.array_equal(np.concatenate([rows[plan.low], rows[plan.high]]), rows)
    assert np.array_equal(plan.omegas, 2 * np.pi * rows / T)
    assert np.all(plan.omega_low <= omega0_j * KNOT_UNIT + 1e-15)
    assert np.all(plan.omega_high > omega0_j * KNOT_UNIT)
    assert np.array_equal(np.concatenate([plan.w_low, plan.w_high]), plan.weights)
    real = np.concatenate([plan.real_low, plan.real_high])
    assert np.array_equal(real, plan.weights == 0.5)
    assert list(np.flatnonzero(real)) == ([0, T // 2] if T % 2 == 0 else [0])
    # the designs are the model's at the plan's two bands, and the S
    # design's two bands stack to the design at every frequency
    for B, basis in zip(plan.designs_low, (model.basis_S, model.basis_beta,
                                           model.basis_delta, model.basis_theta)):
        assert np.array_equal(B, basis.design(plan.omega_low))
    assert np.array_equal(plan.design_S_high, model.basis_S.design(plan.omega_high))
    assert np.array_equal(np.vstack([plan.designs_low[0], plan.design_S_high]),
                          model.basis_S.design(plan.omegas))


def test_frequency_plan_cutoff_on_fourier_frequency_is_low():
    # omega0_j = 720 is pi/6, which is Fourier index 240 of T = 2880
    plan = FrequencyPlan(2880, SpectralModel(KnotSet.default(720)))
    assert plan.low == slice(0, 241)
    assert plan.high == slice(241, None)
    # a cutoff at pi leaves the high band empty
    assert len(FrequencyPlan(2880, SpectralModel(KnotSet.default(4320))).omega_high) == 0


@pytest.mark.parametrize("omega0_j, T, cutoff_row", [
    (720, 288, 24), (720, 300, 25), (720, 156, 13),  # 2 pi 25 / 300 is omega0 + 1.1e-16
    (4320, 26, 13),  # the Nyquist row, pi + 4.4e-16
])
def test_frequency_plan_owns_the_cutoff_row(geometry3, omega0_j, T, cutoff_row):
    # the plan puts the row at the cutoff in the low band, and the model
    # gives it the coherent share logistic(beta(omega0)), not a share of 0
    # from a second comparison with omega0
    model = SpectralModel(KnotSet.default(omega0_j))
    plan = FrequencyPlan(T, model)
    assert plan.low == slice(0, cutoff_row + 1)
    assert plan.omega_low[-1] == pytest.approx(model.knots.omega0, abs=1e-15)
    assert len(plan.omega_high) == T // 2 - cutoff_row
    p = random_params(model, np.random.default_rng(61 + T))
    beta = model.basis_beta.evaluate(p.beta_coeffs, model.knots.omega0)
    assert plan.terms(p, geometry3).sig[-1] == pytest.approx(1 / (1 + np.exp(-beta[0])),
                                                              rel=1e-15)


# -- likelihood -----------------------------------------------------------


def test_univariate_matches_scalar_formula(model):
    rng = np.random.default_rng(5)
    T = 128
    geo = SiteGeometry(np.array([36.3]), np.array([-97.1]))
    A = 0.01 * rng.standard_normal((1, T))
    spec = forward_dft(A)
    p = random_params(model, rng)

    plan = FrequencyPlan(T, model)
    S = model.eval_S(p, plan.omegas)
    J = spec.coeffs[:, 0]
    expected = -np.sum(plan.weights * (np.log(S) + np.abs(J) ** 2 / (TWO_PI * T * S)))
    assert WhittleObjective(model, spec, geo).loglik(p)[0] == pytest.approx(expected, rel=1e-10)


def test_matches_naive_two_sided_sum(model, geometry3):
    rng = np.random.default_rng(6)
    T = 36
    A = 0.01 * rng.standard_normal((3, T))
    spec = forward_dft(A)
    p = random_params(model, rng)

    j = np.arange(T)
    om_signed = 2 * np.pi * (((j + T // 2) % T) - T // 2) / T
    f = cross_spectrum_stack(model, p, geometry3, om_signed)
    total = 0.0
    for k in range(T):
        Jk = direct_dft(A, k)
        sign, logdet = np.linalg.slogdet(f[k])
        quad = (np.conj(Jk) @ np.linalg.solve(f[k], Jk)).real
        total += -0.5 * (logdet + quad / (TWO_PI * T))
    assert WhittleObjective(model, spec, geometry3).loglik(p)[0] == pytest.approx(total, rel=1e-9)


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

    ll_doubled = WhittleObjective(model, forward_dft(A), geometry3).loglik(p2)[0]
    ll_scaled = WhittleObjective(model, forward_dft(A / np.sqrt(2.0)), geometry3).loglik(p)[0]
    w = FrequencyPlan(T, model).weights
    assert ll_doubled == pytest.approx(ll_scaled - 3 * w.sum() * np.log(2.0), rel=1e-9)


def test_station_permutation_invariance(model):
    rng = np.random.default_rng(8)
    T = 60
    lats = 36.0 + rng.uniform(0, 0.8, 4)
    lons = -97.0 + rng.uniform(0, 0.8, 4)
    A = 0.01 * rng.standard_normal((4, T))
    p = random_params(model, rng)
    perm = np.array([2, 0, 3, 1])
    ll1 = WhittleObjective(model, forward_dft(A), SiteGeometry(lats, lons)).loglik(p)[0]
    ll2 = WhittleObjective(
        model, forward_dft(A[perm]), SiteGeometry(lats[perm], lons[perm])
    ).loglik(p)[0]
    assert ll1 == pytest.approx(ll2, rel=1e-9)


def test_symmetry_invariances_on_loglik(model, geometry3):
    rng = np.random.default_rng(9)
    T = 48
    A = 0.01 * rng.standard_normal((3, T))
    spec = forward_dft(A)
    p = random_params(model, rng)
    obj = WhittleObjective(model, spec, geometry3)
    ll = obj.loglik(p)[0]
    flip_delta = SpectralParams(p.s_coeffs, p.beta_coeffs, -p.delta_coeffs,
                                p.theta_coeffs, p.u_angle)
    flip_theta = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                                -p.theta_coeffs, p.u_angle + np.pi)
    assert abs(obj.loglik(flip_delta)[0] - ll) < 1e-8
    assert abs(obj.loglik(flip_theta)[0] - ll) < 1e-8


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

    # at some levels of S rounding lets the Cholesky of a singular matrix
    # pass and only the solve fail; that must be named the same way
    obj = WhittleObjective(model, spec, geo)
    G_S = model.basis_S.design(np.linspace(0, np.pi, 50))
    for level in np.linspace(0.05, 3.0, 60):
        c_S, *_ = np.linalg.lstsq(G_S, np.full(50, level), rcond=None)
        q = SpectralParams(c_S, c_beta, c_delta, p.theta_coeffs, p.u_angle)
        try:
            obj.loglik(q)
        except ValidationError as err:
            assert "frequency" in str(err)


def random_spd_stack(rng, K, n, cond):
    """K random symmetric positive definite n x n matrices of condition number `cond`."""
    Q, _ = np.linalg.qr(rng.standard_normal((K, n, n)))
    R = (Q * np.geomspace(1.0, 1.0 / cond, n)) @ np.swapaxes(Q, 1, 2)
    return 0.5 * (R + np.swapaxes(R, 1, 2))


@pytest.mark.parametrize("K, n, cond", [(1, 5, 10.0), (6, 1, 1.0), (9, 13, 1e3),
                                        (9, 13, 1e10), (241, 11, 1e6)])
def test_substitution_matches_dense_solve(K, n, cond):
    rng = np.random.default_rng(K + n)
    R = random_spd_stack(rng, K, n, cond)
    z = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
    Z = np.stack([z.real, z.imag], axis=-1)
    L, inv_piv, good = cholesky_factor(R)
    assert good.all()
    X = forward_substitute(L, inv_piv, np.dstack([Z, np.broadcast_to(np.eye(n), R.shape)]))
    w, L_inv = X[..., :2], X[..., 2:]
    # the z columns do not depend on the identity beside them
    assert np.array_equal(forward_substitute(L, inv_piv, Z), w)

    def close(got, want, cond):
        # per frequency, relative to the oracle's largest entry; the bound
        # is n eps times the condition number of the system solved
        err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert err.max() <= n * np.finfo(float).eps * cond

    close(L_inv, np.linalg.inv(L), np.sqrt(cond))
    close(w, np.linalg.solve(L, Z), np.sqrt(cond))
    # the score forms y and R^{-1} as L^{-T} [L^{-1} z | L^{-1}]
    sol = np.swapaxes(L_inv, 1, 2) @ X
    close(sol[..., :2], np.linalg.solve(R, Z), cond)
    close(sol[..., 2:], np.linalg.inv(R), cond)


def test_cholesky_names_a_frequency_with_a_failed_or_infinite_pivot():
    omegas = np.array([0.1, 0.2, 0.3])
    eye = np.eye(2)
    not_pd = np.array([[1.0, 2.0], [2.0, 1.0]])
    infinite = np.array([[np.inf, 0.0], [0.0, 1.0]])  # factors, with pivot inf
    cases = [((eye, not_pd, eye), [True, False, True], "0.200000"),
             ((eye, eye, infinite), [True, True, False], "0.300000")]
    for R, good_rows, named in cases:
        good = cholesky_factor(np.stack(R))[2]
        assert good.tolist() == good_rows
        with pytest.raises(ValidationError, match=f"singular spectral matrix at frequency {named}"):
            require_frequencies(good, omegas, "singular spectral matrix")
    # a failed factor reads NaN, and the others are factored
    L = cholesky_factor(np.stack(cases[0][0]))[0]
    assert np.isnan(L[1]).all() and np.array_equal(L[[0, 2]], np.stack([eye, eye]))


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


def test_numeric_gradient_of_vector_function():
    rng = np.random.default_rng(30)
    A = rng.standard_normal((4, 3))
    jac = numeric_gradient(lambda x: A @ x + np.sin(x[0]), np.array([0.3, -1.2, 2.0]))
    expected = A.T.copy()
    expected[0] += np.cos(0.3)
    assert jac.shape == (3, 4)
    assert np.allclose(jac, expected, rtol=1e-8, atol=1e-9)


def score_case_params(model, rng, delta_kind):
    """Random parameters with nonzero theta and an arbitrary u angle.

    delta_kind "mixed" makes the delta spline change sign in the coherent
    band, "zero" takes the zero-coherence path at every d > 0, and "tiny"
    puts r = d / |delta| near 1e200, where r^2 alone would overflow.
    """
    vec = rng.normal(scale=0.4, size=model.n_params)
    d = model.dimensions
    i0 = d["s"] + d["beta"]
    scale = {"mixed": 30.0, "zero": 0.0, "tiny": 1e-200}[delta_kind]
    vec[i0:i0 + d["delta"]] = scale * rng.standard_normal(d["delta"])
    vec[-1] = rng.uniform(0.0, TWO_PI)
    return vec


# cutoff, T and delta case of the derivative checks
DERIVATIVE_CASES = [(720, 64, "mixed"), (720, 65, "mixed"), (720, 64, "zero"), (720, 65, "tiny"),
                    (4320, 64, "mixed"), (4320, 65, "zero")]


def station_geometry(n_sites):
    """The first `n_sites` stations of the default network."""
    stations = default_stations()[:n_sites]
    return SiteGeometry(np.array([s.latitude for s in stations]),
                        np.array([s.longitude for s in stations]))


@pytest.mark.parametrize("omega0_j, T, delta_kind", DERIVATIVE_CASES)
def test_score_matches_numeric_gradient(geometry3, omega0_j, T, delta_kind):
    # omega0_j = 4320 puts the cutoff at pi: the diagonal band is empty
    model = SpectralModel(KnotSet.default(omega0_j))
    rng = np.random.default_rng(31 + T + omega0_j)
    obj = WhittleObjective(model, forward_dft(rng.standard_normal((3, T))), geometry3)
    vec = score_case_params(model, rng, delta_kind)
    theta = model.basis_theta.evaluate(model.unpack(vec).theta_coeffs, obj.plan.omega_low)
    assert np.abs(theta).max() > 0
    if delta_kind == "mixed":
        delta = model.eval_delta(model.unpack(vec), obj.plan.omega_low)
        assert delta.min() < 0 < delta.max()
    assert (len(obj.plan.omega_high) == 0) == (omega0_j == 4320)

    score = obj.loglik(model.unpack(vec))[1]
    oracle = numeric_gradient(lambda x: obj.loglik(model.unpack(x))[0], vec)
    np.testing.assert_allclose(score, oracle, rtol=1e-6, atol=1e-7 * np.abs(oracle).max())


def score_differences(obj, vec):
    """Central differences of the analytic score, negated: a Hessian oracle of the negative log-likelihood."""
    return -numeric_gradient(lambda x: obj.loglik(obj.plan.model.unpack(x))[1], vec)


def check_hessian_by_score(obj, vec, H):
    """H is symmetric and within 1e-7 of max |H| of the score differences."""
    assert np.array_equal(H, H.T)
    by_score = score_differences(obj, vec)
    np.testing.assert_allclose(H, by_score, rtol=0, atol=1e-7 * np.abs(by_score).max())


@pytest.mark.parametrize("n_sites", [3, 11])
@pytest.mark.parametrize("omega0_j, T, delta_kind", DERIVATIVE_CASES)
def test_hessian_matches_numeric_derivatives(geometry3, n_sites, omega0_j, T, delta_kind):
    # the parameters of the score check; against the score differences and
    # the value's second differences
    geo = geometry3 if n_sites == 3 else station_geometry(n_sites)
    model = SpectralModel(KnotSet.default(omega0_j))
    rng = np.random.default_rng(31 + T + omega0_j)
    obj = WhittleObjective(model, forward_dft(rng.standard_normal((n_sites, T))), geo)
    vec = score_case_params(model, rng, delta_kind)
    H = obj.loglik(model.unpack(vec))[2]()
    check_hessian_by_score(obj, vec, H)
    by_value = numeric_hessian(lambda x: -obj.loglik(model.unpack(x))[0], vec)
    np.testing.assert_allclose(H, by_value, rtol=0, atol=1e-5 * np.abs(by_value).max())


@pytest.mark.parametrize("omega0_j", [720, 4320])
@pytest.mark.parametrize("T", [64, 65])
@pytest.mark.parametrize("n_sites", [3, 11])
def test_score_matches_complex_formulation(geometry3, omega0_j, T, n_sites):
    # the real D R D* evaluation against the complex one, value and score
    geo = geometry3 if n_sites == 3 else station_geometry(n_sites)
    assert np.all(geo.distances + np.eye(n_sites) > 0)
    model = SpectralModel(KnotSet.default(omega0_j))
    rng = np.random.default_rng(51 + T + omega0_j + n_sites)
    obj = WhittleObjective(model, forward_dft(rng.standard_normal((n_sites, T))), geo)
    for _ in range(3):
        vec = score_case_params(model, rng, "mixed")
        params = model.unpack(vec)
        assert np.abs(model.basis_theta.evaluate(params.theta_coeffs, obj.plan.omega_low)).max() > 0
        assert model.eval_delta(params, obj.plan.omega_low).min() < 0

        ll, score, _ = obj.loglik(params)
        ref_ll, ref_score = reference_loglik(obj, params)
        assert ll == pytest.approx(ref_ll, rel=1e-12, abs=0)
        np.testing.assert_allclose(score, ref_score, rtol=0,
                                   atol=1e-9 * np.abs(ref_score).max())


def test_hessian_at_is_symmetric(model, geometry3):
    rng = np.random.default_rng(13)
    T = 40
    A = 0.01 * rng.standard_normal((3, T))
    p = random_params(model, rng, scale=0.1)
    obj = WhittleObjective(model, forward_dft(A), geometry3)
    H = numeric_hessian(lambda x: -obj.loglik(model.unpack(x))[0], p.pack())
    assert H.shape == (model.n_params, model.n_params)
    assert np.max(np.abs(H - H.T)) < 1e-8


# -- fitting --------------------------------------------------------------


def make_synthetic_field(model, geometry, T, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    truth = random_params(model, rng, scale=scale)
    sampler = unconditional_sampler(model, truth, geometry, T)
    A = inverse_dft(sampler.draw(zero_site_stream(seed)))
    return truth, forward_dft(A)


def test_fit_from_truth_does_not_decrease_loglik(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 96, seed=14)
    obj = WhittleObjective(model, spec, geometry3)
    fit = fit_mle(obj, truth, max_iter=40)
    assert fit.loglik >= obj.loglik(truth)[0] - 1e-9
    assert fit.convergence["status"] in ("converged", "max_iter", "radius_collapsed")


def test_fit_status_names_an_exhausted_iteration_budget(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 96, seed=14)
    fit = fit_mle(WhittleObjective(model, spec, geometry3), truth, max_iter=2)
    assert fit.convergence["status"] == "max_iter"
    assert fit.convergence["iterations"] == 2


def test_fit_is_deterministic(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 64, seed=15)
    f1 = fit_mle(WhittleObjective(model, spec, geometry3), truth, max_iter=10)
    f2 = fit_mle(WhittleObjective(model, spec, geometry3), truth, max_iter=10)
    assert np.array_equal(f1.params_hat.pack(), f2.params_hat.pack())
    assert f1.loglik == f2.loglik


def check_fit_hessian(fit, obj):
    """The fit's Hessian is the analytic one at its optimum, with that matrix's spectrum."""
    assert fit.convergence["status"] == "converged"
    assert np.array_equal(fit.hessian, obj.loglik(fit.params_hat)[2]())
    assert np.array_equal(fit.hessian_eigenvalues, np.linalg.eigvalsh(fit.hessian))
    assert np.all(np.diff(fit.hessian_eigenvalues) >= 0)


def test_fit_hessian_matches_numeric_hessian(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 96, seed=19)
    obj = WhittleObjective(model, spec, geometry3)
    fit = fit_mle(obj, truth)
    check_fit_hessian(fit, obj)
    # at this optimum theta is 24 and the u angle's curvature 8.4e4: the
    # second difference's h^2 error at the default step 1e-4 is 1.1e-4 of it
    oracle = numeric_hessian(lambda x: -obj.loglik(model.unpack(x))[0], fit.params_hat.pack(),
                             rel_step=1e-5)
    assert np.array_equal(fit.hessian, fit.hessian.T)
    np.testing.assert_allclose(fit.hessian, oracle, rtol=1e-5, atol=1e-5 * np.abs(oracle).max())


@pytest.fixture(scope="module")
def fit11(model):
    """(fit, objective) of an 11-site field at T = 2880, fitted from the truth."""
    geo = station_geometry(11)
    truth = default_true_params(model)
    spec = forward_dft(inverse_dft(unconditional_sampler(model, truth, geo, 2880).draw(
        zero_site_stream(1))))
    obj = WhittleObjective(model, spec, geo)
    return fit_mle(obj, truth), obj


def test_fit_hessian_at_11_sites_matches_numeric_derivatives(fit11):
    fit, obj = fit11
    check_fit_hessian(fit, obj)
    check_hessian_by_score(obj, fit.params_hat.pack(), fit.hessian)


def test_parameter_draws_keep_their_law(fit11):
    # draws from the analytic Hessian and from the score differences agree
    # to 1e-6 of each parameter's SD: the law of the draws did not move
    fit, obj = fit11
    by_score = score_differences(obj, fit.params_hat.pack())
    before = dataclasses.replace(fit, hessian=0.5 * (by_score + by_score.T))
    draws, floored = sample_params(fit, 99, seed=3)
    ref, ref_floored = sample_params(before, 99, seed=3)
    assert not floored and not ref_floored
    sd = np.sqrt(np.diag(np.linalg.inv(fit.hessian)))
    assert np.all(np.abs(draws - ref) <= 1e-6 * sd)


def test_fit_takes_the_analytic_score(model, geometry3, monkeypatch):
    # every objective call gives the value, the score and the Hessian's
    # closure, one per trial point; the fit report counts them, the start
    # point once. The closure is called at the start and at each accepted
    # point, and at no other
    calls, formed = [], []
    loglik = WhittleObjective.loglik

    def counted(self, params):
        x = params.pack()
        calls.append(x)
        ll, score, hessian = loglik(self, params)

        def counted_hessian():
            formed.append(x)
            return hessian()
        return ll, score, counted_hessian

    monkeypatch.setattr(WhittleObjective, "loglik", counted)
    truth, spec = make_synthetic_field(model, geometry3, 96, seed=20)
    fit = fit_mle(WhittleObjective(model, spec, geometry3), truth, max_iter=5)
    conv = fit.convergence
    assert conv["iterations"] == 5
    assert len(calls) == conv["iterations"] + 1
    assert sum(np.array_equal(x, truth.pack()) for x in calls) == 1
    # an accepted step raises the log-likelihood, a rejected one keeps it
    lls = [entry[0] for entry in conv["trace"]]
    accepted = [calls[k + 1] for k in range(len(lls) - 1) if lls[k + 1] != lls[k]]
    assert len(formed) == 1 + len(accepted)
    assert all(np.array_equal(h, x) for h, x in zip(formed, [truth.pack()] + accepted))
    assert np.array_equal(formed[-1], fit.params_hat.pack())


def test_fit_factors_once_per_objective_call(model, geometry3, monkeypatch):
    # the Hessian reuses its point's evaluation: one Cholesky factorization
    # per trial point, the start's included
    factored = []

    def counted(R):
        factored.append(len(R))
        return cholesky_factor(R)

    monkeypatch.setattr(whittle, "cholesky_factor", counted)
    truth, spec = make_synthetic_field(model, geometry3, 96, seed=19)
    fit = fit_mle(WhittleObjective(model, spec, geometry3), truth)
    assert fit.convergence["status"] == "converged"
    assert fit.convergence["iterations"] > 1
    assert len(factored) == fit.convergence["iterations"] + 1


def test_fit_records_its_trace(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 96, seed=19)
    obj = WhittleObjective(model, spec, geometry3)
    fit = fit_mle(obj, truth)
    conv = fit.convergence
    trace = np.array(conv["trace"])
    assert trace.shape == (conv["iterations"] + 1, 3)
    assert trace[0].tolist() == [obj.loglik(truth)[0],
                                 np.max(np.abs(obj.loglik(truth)[1])), 1.0]
    assert trace[-1, :2].tolist() == [fit.loglik, conv["grad_inf_norm"]]
    # a rejected step keeps the point; an accepted one does not lower the log-likelihood
    assert np.all(np.diff(trace[:, 0]) >= 0.0)
    assert np.all(trace[:, 2] > 0.0)
    assert json.loads(fit.to_json())["convergence"]["trace"] == trace.tolist()


def fit_with_scipy(obj, x0, gtol, method="BFGS"):
    """The oracle: scipy's `method` on the same objective, from x0, to max |score| <= gtol.

    BFGS builds its own curvature; trust-exact takes the Hessian of `obj.loglik`.
    """
    from scipy.optimize import minimize

    def neg(x):
        try:
            ll, score, _ = obj.loglik(obj.plan.model.unpack(x))
        except ValidationError:
            return np.inf, np.full(len(x), np.nan)
        return -ll, -score

    hess = None
    if method == "trust-exact":
        def hess(x):
            return obj.loglik(obj.plan.model.unpack(x))[2]()

    return minimize(neg, x0, jac=True, hess=hess, method=method,
                    options={"maxiter": 500, "gtol": gtol})


def orientation_free(model, params, probes):
    """S, |delta| and theta u at `probes`: the same for (theta, u) and (-theta, u + pi)."""
    return (model.eval_S(params, probes), np.abs(model.eval_delta(params, probes)),
            model.basis_theta.evaluate(params.theta_coeffs, probes)[:, None] * params.u[None, :])


@pytest.mark.parametrize("n_sites,T", [(3, 2880), (3, 5760), (11, 577), (11, 1152)])
def test_fit_reaches_the_scipy_bfgs_optimum(model, geometry3, n_sites, T):
    # The fit starts from the truth. (1) From the truth too, scipy's BFGS
    # and its trust-exact (Newton on the same exact Hessian, scipy's own
    # radius rule and subproblem solver) run to the fit's stopping rule;
    # the fit reaches at least the lower of their two maxima. At these
    # sizes the likelihood has ridges toward |delta| -> infinity and
    # several local maxima, and which one an optimizer ends on depends on
    # its path: with 11 sites at T = 577, seed 2, BFGS ends 0.41 above the
    # fit and trust-exact 0.006 below it; with 3 sites at T = 2880, seed 1,
    # trust-exact ends 0.32 above the fit and BFGS 0.32 below it.
    # (2) scipy's BFGS restarted from the fit's optimum, to a 100 times
    # tighter gradient, finds no higher point and stays at the fit's S,
    # |delta| and theta u: the fit stopped at a maximum, not short of one.
    # From a maximum it often stops with status 2 (precision loss: no step
    # it tries raises the likelihood).
    geo = geometry3 if n_sites == 3 else station_geometry(n_sites)
    truth = default_true_params(model)
    probes = np.array([1 / 8, 1 / 4, 1 / 2]) * model.knots.omega0
    sampler = unconditional_sampler(model, truth, geo, T)
    for seed in (1, 2):
        spec = forward_dft(inverse_dft(sampler.draw(zero_site_stream(seed))))
        obj = WhittleObjective(model, spec, geo)
        fit = fit_mle(obj, truth)
        assert fit.convergence["status"] == "converged"
        from_truth = [fit_with_scipy(obj, truth.pack(), GTOL, method)
                      for method in ("BFGS", "trust-exact")]
        assert [ref.status for ref in from_truth] == [0, 0]
        lowest = min(-ref.fun for ref in from_truth)
        assert fit.loglik >= lowest - 1e-6 * abs(lowest)
        ref = fit_with_scipy(obj, fit.params_hat.pack(), GTOL / 100)
        assert ref.status in (0, 2)
        assert fit.loglik >= -ref.fun - 1e-6 * abs(ref.fun)
        S, d, tu = orientation_free(model, fit.params_hat, probes)
        S_ref, d_ref, tu_ref = orientation_free(model, model.unpack(ref.x), probes)
        np.testing.assert_allclose(S, S_ref, rtol=1e-3)
        np.testing.assert_allclose(d, d_ref, rtol=1e-2)
        np.testing.assert_allclose(tu, tu_ref, rtol=0, atol=1e-3 * np.abs(tu_ref).max())


def rosenbrock(x, scale=1.0):
    """(value, gradient, Hessian) of `scale` times the Rosenbrock function."""
    r = x[1] - x[0] ** 2
    return (scale * (100.0 * r ** 2 + (1.0 - x[0]) ** 2),
            scale * np.array([-400.0 * x[0] * r - 2.0 * (1.0 - x[0]), 200.0 * r]),
            scale * np.array([[1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
                              [-400.0 * x[0], 200.0]]))


def counting(fun):
    calls = []

    def counted(x):
        calls.append(x.copy())
        return fun(x)
    return counted, calls


def deferring(fun):
    """(objective, formed): `fun`, which gives (f, g, H), as `_trust_region`
    takes it, (f, g, hessian) with H behind hessian(); `formed` records each
    x whose hessian() is called."""
    formed = []

    def objective(x):
        f, g, H = fun(x)

        def hessian():
            formed.append(x.copy())
            return H
        return f, g, hessian
    return objective, formed


# scaled so that GTOL's 1e-3 is 1e-9 of the plain Rosenbrock gradient
ROSENBROCK_SCALE = 1e6


def test_trust_region_converges_on_rosenbrock():
    from scipy.optimize import minimize

    def value_and_gradient(x):
        return rosenbrock(x, ROSENBROCK_SCALE)[:2]

    def hessian(x):
        return rosenbrock(x, ROSENBROCK_SCALE)[2]

    x0 = np.array([-1.2, 1.0])
    objective, formed = deferring(lambda x: rosenbrock(x, ROSENBROCK_SCALE))
    fun, calls = counting(objective)
    f0, g0, _ = fun(x0)
    x, f, g, H, status, iterations, trace = _trust_region(fun, x0, f0, g0, hessian(x0),
                                                          max_iter=500)
    assert status == "converged" and np.max(np.abs(g)) <= GTOL
    # one call per iteration, the start's included
    assert len(calls) == iterations + 1 == len(trace)
    # each trial point lies within the radius of the point it steps from;
    # an accepted step lowers f, a rejected one keeps it; the Hessian is
    # formed at each accepted point and at no other
    x_k, accepted = x0, []
    for k in range(iterations):
        assert np.linalg.norm(calls[k + 1] - x_k) <= trace[k][2] * (1.0 + 1e-12)
        if trace[k + 1][0] != trace[k][0]:
            x_k = calls[k + 1]
            accepted.append(x_k)
    assert np.array_equal(x_k, x)
    assert len(formed) == len(accepted) < iterations
    assert all(np.array_equal(h, a) for h, a in zip(formed, accepted))
    f_x, g_x = value_and_gradient(x)
    assert f == f_x and np.array_equal(g, g_x) and np.array_equal(H, hessian(x))
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-8)
    ref = minimize(value_and_gradient, x0, jac=True, hess=hessian, method="trust-exact",
                   options={"gtol": GTOL})
    assert ref.success and abs(iterations - ref.nit) <= 5


def test_trust_region_collapses_its_radius_on_a_wrong_gradient():
    # the negated gradient makes every model step an ascent: every trial is
    # rejected, and the radius shrinks until it reaches the rounding of x
    def wrong_gradient(x):
        f, g, H = rosenbrock(x)
        return f, -g, H

    x0 = np.array([-1.2, 1.0])
    f0, g0, H0 = rosenbrock(x0)
    objective, formed = deferring(wrong_gradient)
    fun, calls = counting(objective)
    x, f, g, H, status, iterations, trace = _trust_region(fun, x0, f0, -g0, H0, max_iter=500)
    assert (status, iterations) == ("radius_collapsed", len(calls))
    assert iterations < 500 and formed == []
    assert np.array_equal(x, x0) and f == f0
    radii = [r for *_, r in trace]
    assert radii == [0.25 ** k for k in range(iterations + 1)]
    assert radii[-1] <= np.finfo(float).eps * np.linalg.norm(x0) < radii[-2]


@pytest.mark.parametrize("wall", [np.inf, np.nan])
def test_trust_region_backs_off_from_a_nonfinite_region(wall):
    # 1e3 sqrt(1 + (x - 1)^2) has its minimum at 1, next to a region
    # x > 1.2 where the value is not finite and there is no Hessian, as
    # where `fit_mle` meets a parameter vector the model rejects; the first
    # Newton step from 0.4, 0.6 (1 + 0.6^2) = 0.816 long, lands in it. (The
    # scale puts GTOL at 1e-6 of the unscaled gradient.)
    def fun(x):
        if x[0] > 1.2:
            return wall, np.full(1, np.nan), None
        d = x - 1.0
        H = 1e3 * np.atleast_2d((1.0 + d[0] ** 2) ** -1.5)
        return 1e3 * np.sqrt(1.0 + d[0] ** 2), 1e3 * d / np.sqrt(1.0 + d ** 2), lambda: H

    fun, calls = counting(fun)
    x0 = np.array([0.4])
    f0, g0, hessian = fun(x0)
    x, f, g, H, status, iterations, trace = _trust_region(fun, x0, f0, g0, hessian(), max_iter=50)
    assert calls[1][0] > 1.2
    assert trace[1] == trace[0][:2] + [0.25]
    assert status == "converged"
    np.testing.assert_allclose(x, [1.0], rtol=0, atol=1e-8)


def test_trust_region_reports_a_nonfinite_gradient():
    x0 = np.array([-1.2, 1.0])
    fun, calls = counting(deferring(rosenbrock)[0])
    x, f, g, H, status, iterations, trace = _trust_region(
        fun, x0, 24.2, np.array([np.nan, 1.0]), rosenbrock(x0)[2], max_iter=50)
    assert (status, iterations, len(calls)) == ("nan", 0, 0)
    assert np.array_equal(x, x0) and len(trace) == 1


def test_matern32_root_inverts_matern32():
    from scipy.optimize import brentq

    floor = float(matern32(50.0))
    for c in np.concatenate([np.linspace(0.98, 1e-3, 400), np.geomspace(1e-3, 1.01 * floor, 200)]):
        r = _matern32_root(c)
        # r and the float below it bracket the root: matern32(r) = c to rounding
        assert matern32(r) <= c < matern32(np.nextafter(r, 0.0))
        assert abs(r - brentq(lambda x: matern32(x) - c, 1e-9, 50.0, xtol=1e-14)) <= 1e-12 * r
    for c in (floor, 0.99 * floor, 1e-300, 0.0):
        assert _matern32_root(c) == 50.0


def test_quartiles_equal_numpy_quantile():
    rng = np.random.default_rng(0)
    for m in range(1, 200):
        x = np.sort(rng.standard_normal(m))
        assert np.array_equal(_quartiles(x), np.quantile(x, [0.0, 0.25, 0.5, 0.75, 1.0]))
    for T in range(50, 5000, 7):
        # the coherent band of the hourly cutoff without frequency 0
        x = fourier_frequencies(T)[1:T // 12 + 1]
        assert np.array_equal(_quartiles(x), np.quantile(x, [0.0, 0.25, 0.5, 0.75, 1.0]))
    assert len(_quartiles(np.array([]))) == 0


def test_initial_params_with_frequency_zero_alone_in_the_coherent_band(geometry3):
    # 2 pi / T lies above the cutoff, so no coherence fixes delta's start
    model = SpectralModel(KnotSet.default(omega0_j=50))
    spec = forward_dft(np.random.default_rng(0).standard_normal((3, 100)))
    obj = WhittleObjective(model, spec, geometry3)
    assert obj.plan.omega_low.tolist() == [0.0]
    start = initial_params(obj)
    assert np.array_equal(start.delta_coeffs, np.zeros(model.basis_delta.dimension))


def test_fit_rejects_nonfinite_start(model, geometry3):
    rng = np.random.default_rng(16)
    spec = forward_dft(0.01 * rng.standard_normal((3, 32)))
    bad = model.unpack(np.full(model.n_params, -5000.0))  # S underflows to 0
    with pytest.raises(ValidationError):
        fit_mle(WhittleObjective(model, spec, geometry3), bad)


def test_initial_params_give_finite_loglik(model, geometry3):
    rng = np.random.default_rng(17)
    A = 0.01 * rng.standard_normal((3, 600))
    obj = WhittleObjective(model, forward_dft(A), geometry3)
    assert np.isfinite(obj.loglik(initial_params(obj))[0])


def test_fit_result_json_round_trip(model, geometry3):
    truth, spec = make_synthetic_field(model, geometry3, 48, seed=18)
    fit = fit_mle(WhittleObjective(model, spec, geometry3), truth, max_iter=5)
    back = FitResult.from_dict(json.loads(fit.to_json()))
    assert np.allclose(back.params_hat.pack(), fit.params_hat.pack(), atol=0)
    assert back.loglik == fit.loglik
    assert np.allclose(back.hessian, fit.hessian, atol=0)
    assert np.array_equal(back.hessian_eigenvalues, fit.hessian_eigenvalues)
    assert back.knots == fit.knots
    # reports written while FitResult carried `hessian_floored` still load
    old = dict(fit.to_dict(), hessian_floored=True)
    assert FitResult.from_dict(old).to_json() == fit.to_json()
    # and so do reports written before the fit recorded the Hessian's
    # spectrum, with the dict, and so the fit hash, they had
    old = fit.to_dict()
    del old["hessian_eigenvalues"]
    back = FitResult.from_dict(old)
    assert back.hessian_eigenvalues is None
    assert back.to_dict() == old


# -- parameter sampling ---------------------------------------------------


def test_sample_params_count_and_determinism(model):
    p = model.unpack(np.zeros(model.n_params))
    fit = FitResult(params_hat=p, loglik=0.0, hessian=np.eye(model.n_params),
                    convergence={}, knots=model.knots)
    draws1, _ = sample_params(fit, 99, seed=7)
    draws2, _ = sample_params(fit, 99, seed=7)
    draws3, _ = sample_params(fit, 5, seed=8)
    assert draws1.shape == (99, model.n_params)
    assert np.array_equal(draws1, draws2)
    assert not np.array_equal(draws1[0], draws3[0])


def test_sample_params_rows_do_not_depend_on_count(model):
    rng = np.random.default_rng(11)
    A = rng.normal(size=(model.n_params, model.n_params))
    fit = FitResult(params_hat=random_params(model, rng), loglik=0.0,
                    hessian=A @ A.T + np.eye(model.n_params),
                    convergence={}, knots=model.knots)
    block, _ = sample_params(fit, 40, seed=12)
    for count in (1, 2, 7, 39):
        assert sample_params(fit, count, seed=12)[0].tobytes() == block[:count].tobytes()


def test_sample_params_back_substitution_matches_triangular_solve(model):
    # oracle: scipy's left-side solve L' x' = z' of the same normals
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(13)
    A = rng.normal(size=(model.n_params, model.n_params))
    fit = FitResult(params_hat=random_params(model, rng), loglik=0.0,
                    hessian=A @ A.T + np.eye(model.n_params),
                    convergence={}, knots=model.knots)
    z = substream(14, STAGE_PARAM_DRAW).standard_normal((50, model.n_params))
    L = np.linalg.cholesky(fit.hessian)
    ref = fit.params_hat.pack() + solve_triangular(L.T, z.T, lower=False).T
    draws, floored = sample_params(fit, 50, seed=14)
    assert not floored
    assert np.allclose(draws, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_sample_params_identity_hessian_covariance(model):
    p = model.unpack(np.zeros(model.n_params))
    fit = FitResult(params_hat=p, loglik=0.0, hessian=np.eye(model.n_params),
                    convergence={}, knots=model.knots)
    X, _ = sample_params(fit, 100_000, seed=9)
    C = np.cov(X.T)
    assert np.max(np.abs(np.diag(C) - 1.0)) < 0.05
    off = C - np.diag(np.diag(C))
    assert np.max(np.abs(off)) < 0.05


def test_sample_params_floors_indefinite_hessian(model):
    p = model.unpack(np.zeros(model.n_params))
    H = np.eye(model.n_params)
    H[0, 0] = -1.0
    fit = FitResult(params_hat=p, loglik=0.0, hessian=H,
                    convergence={}, knots=model.knots)
    before = fit.to_json()
    draws, floored = sample_params(fit, 3, seed=10)
    assert floored
    assert fit.to_json() == before  # the fit is not modified
    assert np.all(np.isfinite(draws))


def test_sample_params_floors_a_hessian_singular_to_rounding(model):
    # an 11-site fit from the truth at T = 577: the Hessian's smallest
    # eigenvalue is zero to rounding (about 1e-19 against a largest of
    # 4.8e4) and its Cholesky factor exists; drawn through that factor,
    # parameters landed about 2e21 from the MLE
    geo = station_geometry(11)
    truth = default_true_params(model)
    spec = forward_dft(inverse_dft(unconditional_sampler(model, truth, geo, 577).draw(
        zero_site_stream(1))))
    fit = fit_mle(WhittleObjective(model, spec, geo), truth)
    vals = fit.hessian_eigenvalues
    assert abs(vals[0]) < model.n_params * np.finfo(float).eps * vals[-1]
    np.linalg.cholesky(fit.hessian)
    draws, floored = sample_params(fit, 99, seed=3)
    assert floored
    # the floor, 1e-8 of the largest eigenvalue, bounds every parameter's SD
    sd_bound = 1.0 / np.sqrt(1e-8 * vals[-1])
    assert np.abs(draws - fit.params_hat.pack()).max() < 6.0 * sd_bound


def test_sample_params_keeps_the_factor_above_the_rounding_threshold(model):
    # weakest / largest eigenvalue 1e-12, above p eps: the draws go through
    # the Hessian's own factor, unfloored
    p = model.unpack(np.zeros(model.n_params))
    vals = np.geomspace(1e-12, 1.0, model.n_params)
    fit = FitResult(params_hat=p, loglik=0.0, hessian=np.diag(vals),
                    convergence={}, knots=model.knots)
    draws, floored = sample_params(fit, 20, seed=16)
    assert not floored
    z = substream(16, STAGE_PARAM_DRAW).standard_normal((20, model.n_params))
    assert np.array_equal(draws, z / np.sqrt(vals))


@pytest.mark.parametrize("entry, message", [
    (np.nan, "Hessian is not finite"),
    (np.inf, "Hessian is not finite"),
    (None, "Hessian has no positive eigenvalue"),
])
def test_sample_params_rejects_a_hessian_it_cannot_draw_from(model, entry, message):
    H = -np.eye(model.n_params)
    if entry is not None:
        H = np.eye(model.n_params)
        H[3, 5] = H[5, 3] = entry
    fit = FitResult(params_hat=model.unpack(np.zeros(model.n_params)), loglik=0.0,
                    hessian=H, convergence={}, knots=model.knots)
    with pytest.raises(ValidationError, match=message):
        sample_params(fit, 3, seed=10)
