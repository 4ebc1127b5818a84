"""Constrained spline bases and the cross-spectral matrix model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presim.errors import ConfigurationError
from presim.geometry import SiteGeometry
from presim.spectrum import (
    KnotSet,
    SpectralModel,
    SpectralParams,
    matern32,
    params_from_json,
)
from presim.splines import ConstrainedBasis

from conftest import random_params


# -- constrained bases ----------------------------------------------------


def test_basis_dimensions_match_documented_counts(model):
    dims = model.dimensions
    assert dims["delta"] == 12
    assert dims["theta"] == 3
    assert dims["beta"] == 4
    assert dims["s"] == 8
    assert dims["u"] == 1
    assert model.n_params == 28


def test_even_basis_symmetry(model):
    rng = np.random.default_rng(0)
    om = rng.uniform(0, model.knots.omega0, 100)
    for basis in (model.basis_S, model.basis_beta, model.basis_delta):
        Gp = basis.design(om)
        Gm = basis.design(-om)
        assert np.max(np.abs(Gp - Gm)) < 1e-12


def test_odd_basis_antisymmetry(model):
    rng = np.random.default_rng(1)
    om = rng.uniform(0, model.knots.omega0, 100)
    Gp = model.basis_theta.design(om)
    Gm = model.basis_theta.design(-om)
    assert np.max(np.abs(Gp + Gm)) < 1e-12
    assert np.max(np.abs(model.basis_theta.design([0.0]))) < 1e-12


def test_endpoint_constraints_vanish(model):
    om0 = model.knots.omega0
    # every basis member satisfies its endpoint conditions
    for order in (0, 1, 2):
        assert np.max(np.abs(model.basis_delta.design([om0], order=order))) < 1e-10
        assert np.max(np.abs(model.basis_theta.design([om0], order=order))) < 1e-10
    for order in (1, 2):
        assert np.max(np.abs(model.basis_beta.design([om0], order=order))) < 1e-10
    assert np.max(np.abs(model.basis_S.design([np.pi], order=1))) < 1e-10


def test_zero_outside_cutoff(model):
    om0 = model.knots.omega0
    for basis in (model.basis_delta, model.basis_theta):
        assert np.max(np.abs(basis.design([1.1 * om0, -2.0 * om0]))) == 0.0


def test_basis_spans_constants_when_allowed(model):
    # S and beta bases include the constant function (only derivative
    # constraints); fit a constant and check exact reproduction
    om = np.linspace(0, np.pi, 200)
    for basis in (model.basis_S, model.basis_beta):
        om_b = om[om <= basis.cutoff]
        G = basis.design(om_b)
        c, *_ = np.linalg.lstsq(G, np.ones_like(om_b), rcond=None)
        assert np.max(np.abs(G @ c - 1.0)) < 1e-10


def test_constrained_basis_bad_inputs():
    with pytest.raises(ConfigurationError):
        ConstrainedBasis("weird", [0.0, 1.0], [0])
    with pytest.raises(ConfigurationError):
        ConstrainedBasis("even", [0.5, 1.0], [0])  # must start at 0
    with pytest.raises(ConfigurationError):
        ConstrainedBasis("even", [0.0, 1.0, 1.0], [0])  # strictly increasing


# -- knot sets ------------------------------------------------------------


def test_default_knots_end_at_cutoff_and_pi():
    ks = KnotSet.default()
    assert ks.omega0 == pytest.approx(np.pi / 6)
    assert ks.s_knots[-1] == pytest.approx(np.pi)
    for knots in (ks.beta_knots, ks.delta_knots, ks.theta_knots):
        assert knots[-1] == pytest.approx(ks.omega0)


def test_full_band_variant():
    ks = KnotSet.default(omega0_j=4320)
    assert ks.omega0 == pytest.approx(np.pi)
    assert ks.delta_knots[-1] == pytest.approx(np.pi)
    m = SpectralModel(ks)
    assert m.dimensions["delta"] > 12  # extra knot interval past pi/6


def test_knotset_json_round_trip(model):
    ks2 = KnotSet.from_dict(model.knots.to_dict())
    assert ks2 == model.knots


# -- scalar functions -----------------------------------------------------


def test_eval_S_zero_coeffs_is_one(model):
    p = model.zero_params()
    om = np.linspace(-np.pi, np.pi, 17)
    assert np.allclose(model.eval_S(p, om), 1.0)


def test_eval_S_even_and_positive(model):
    rng = np.random.default_rng(2)
    p = random_params(model, rng)
    om = rng.uniform(0, np.pi, 50)
    S = model.eval_S(p, om)
    assert np.all(S > 0)
    assert np.allclose(S, model.eval_S(p, -om), atol=1e-12)


def test_eval_S_flat_at_pi(model):
    rng = np.random.default_rng(3)
    p = random_params(model, rng)
    hs = np.array([1e-3, 1e-4])
    dS = (model.eval_S(p, np.pi * np.ones(2)) - model.eval_S(p, np.pi - hs)) / hs
    # derivative -> 0 like O(h); the finite difference itself is O(h)
    assert abs(dS[1]) < abs(dS[0]) + 1e-12
    assert abs(dS[1]) < 1e-2


def test_split_S_balanced_at_zero_beta(model):
    p = model.zero_params()
    om = np.array([0.01, 0.1, model.knots.omega0 * 0.9])
    S0, S1 = model.split_S(p, om)
    assert np.allclose(S0, S1)
    assert np.allclose(S0 + S1, model.eval_S(p, om))


def test_split_S_saturates(model):
    # beta basis contains constants: find coefficients for beta = 30
    G = model.basis_beta.design(np.linspace(0, model.knots.omega0, 50))
    c, *_ = np.linalg.lstsq(G, np.full(50, 30.0), rcond=None)
    p = SpectralParams(
        s_coeffs=np.zeros(model.dimensions["s"]),
        beta_coeffs=c,
        delta_coeffs=np.zeros(model.dimensions["delta"]),
        theta_coeffs=np.zeros(model.dimensions["theta"]),
        u_angle=0.0,
    )
    S0, S1 = model.split_S(p, np.array([0.1]))
    assert S0[0] / (S0[0] + S1[0]) < 1e-12


def test_split_S_low_coherence_bound(model):
    # beta = -1.88 puts the squared-coherence cap at logistic(-1.88) ~ 0.132
    G = model.basis_beta.design(np.linspace(0, model.knots.omega0, 50))
    c, *_ = np.linalg.lstsq(G, np.full(50, -1.88), rcond=None)
    p = SpectralParams(
        s_coeffs=np.zeros(model.dimensions["s"]),
        beta_coeffs=c,
        delta_coeffs=np.zeros(model.dimensions["delta"]),
        theta_coeffs=np.zeros(model.dimensions["theta"]),
        u_angle=0.0,
    )
    S0, S1 = model.split_S(p, np.array([0.05]))
    assert S1[0] / (S0[0] + S1[0]) == pytest.approx(0.13222, abs=5e-4)


def test_split_S_beyond_cutoff_all_diagonal(model):
    rng = np.random.default_rng(4)
    p = random_params(model, rng)
    om = np.array([model.knots.omega0 * 1.01, 3.0])
    S0, S1 = model.split_S(p, om)
    assert np.allclose(S1, 0.0)
    assert np.allclose(S0, model.eval_S(p, om))


def test_eval_delta_theta_outside_cutoff(model):
    rng = np.random.default_rng(5)
    p = random_params(model, rng)
    om0 = model.knots.omega0
    assert model.eval_delta(p, 1.1 * om0) == 0.0
    assert model.eval_theta(p, 1.1 * om0) == 0.0
    assert model.eval_theta(p, 0.0) == 0.0


def test_eval_delta_smooth_at_cutoff(model):
    rng = np.random.default_rng(6)
    p = random_params(model, rng)
    om0 = model.knots.omega0
    assert abs(model.eval_delta(p, om0)) < 1e-12
    for h in (1e-2, 1e-3):
        centered = (model.eval_delta(p, om0 + h) - model.eval_delta(p, om0 - h)) / (2 * h)
        # first derivative vanishes; centered difference decays at least O(h)
        assert abs(centered) < 10 * h


# -- matern ---------------------------------------------------------------


def test_matern_values():
    assert matern32(0.0) == pytest.approx(1.0, abs=1e-15)
    assert matern32(1.0) == pytest.approx(2.0 / np.e, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 30), st.floats(0.0001, 5))
def test_matern_monotone_decreasing(r, dr):
    assert matern32(r) > matern32(r + dr)


def test_matern_rejects_negative():
    with pytest.raises(ValueError):
        matern32(-0.1)


# -- cross-spectrum -------------------------------------------------------


def test_cross_spectrum_diagonal_beyond_cutoff(model, geometry3):
    rng = np.random.default_rng(7)
    p = random_params(model, rng)
    om = 1.5 * model.knots.omega0
    f = model.cross_spectrum(p, geometry3, om)
    S = model.eval_S(p, om)
    assert np.allclose(f, S * np.eye(3), atol=1e-14)


def test_cross_spectrum_real_when_theta_zero(model, geometry3):
    rng = np.random.default_rng(8)
    p = random_params(model, rng)
    p = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                       np.zeros_like(p.theta_coeffs), p.u_angle)
    f = model.cross_spectrum(p, geometry3, 0.05)
    assert np.max(np.abs(f.imag)) < 1e-14
    assert np.allclose(f, f.T)


def test_cross_spectrum_psd_and_hermitian(model, geometry3):
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_params(model, rng)
        om = rng.uniform(0, np.pi)
        f = model.cross_spectrum(p, geometry3, om)
        assert np.max(np.abs(f - f.conj().T)) < 1e-12
        vals = np.linalg.eigvalsh(f)
        assert vals.min() >= -1e-10 * np.trace(f).real


def test_cross_spectrum_hermitian_in_frequency(model, geometry3):
    rng = np.random.default_rng(10)
    p = random_params(model, rng)
    for om in rng.uniform(0, np.pi, 10):
        fp = model.cross_spectrum(p, geometry3, om)
        fm = model.cross_spectrum(p, geometry3, -om)
        assert np.max(np.abs(fm - fp.conj())) < 1e-12


def test_delta_sign_flip_invariance(model, geometry3):
    rng = np.random.default_rng(11)
    p = random_params(model, rng)
    q = SpectralParams(p.s_coeffs, p.beta_coeffs, -p.delta_coeffs,
                       p.theta_coeffs, p.u_angle)
    om = rng.uniform(0, model.knots.omega0, 8)
    f1 = model.cross_spectrum_stack(p, geometry3, om)
    f2 = model.cross_spectrum_stack(q, geometry3, om)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_theta_direction_flip_invariance(model, geometry3):
    rng = np.random.default_rng(12)
    p = random_params(model, rng)
    q = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                       -p.theta_coeffs, p.u_angle + np.pi)
    om = rng.uniform(0, model.knots.omega0, 8)
    f1 = model.cross_spectrum_stack(p, geometry3, om)
    f2 = model.cross_spectrum_stack(q, geometry3, om)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_coherence_bounded_by_split(model, geometry3):
    rng = np.random.default_rng(13)
    p = random_params(model, rng)
    om = 0.4 * model.knots.omega0
    S0, S1 = model.split_S(p, om)
    coh = model.coherence(p, geometry3, om, 0, 1)
    assert abs(coh) <= S1[0] / (S0[0] + S1[0]) + 1e-12
    assert abs(model.coherence(p, geometry3, 1.2 * model.knots.omega0, 0, 1)) == 0.0


def test_coherence_modulus_ignores_direction_when_theta_zero(model, geometry3):
    rng = np.random.default_rng(14)
    p = random_params(model, rng)
    p0 = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                        np.zeros_like(p.theta_coeffs), 0.3)
    p1 = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                        np.zeros_like(p.theta_coeffs), 2.1)
    om = 0.3 * model.knots.omega0
    assert abs(model.coherence(p0, geometry3, om, 0, 2)) == pytest.approx(
        abs(model.coherence(p1, geometry3, om, 0, 2)), abs=1e-12
    )


def test_implied_variance_quadrature(model, geometry3):
    # integral of the zero-lag covariance at zero separation equals
    # integral of S over the 4096-point frequency grid
    rng = np.random.default_rng(15)
    p = random_params(model, rng)
    om = np.linspace(-np.pi, np.pi, 4097)
    f = model.cross_spectrum_stack(p, geometry3, om)
    S = model.eval_S(p, om)
    var_f = np.trapezoid(f[:, 0, 0].real, om)
    var_s = np.trapezoid(S, om)
    assert var_f == pytest.approx(var_s, rel=1e-6)


def test_params_pack_unpack_round_trip(model):
    rng = np.random.default_rng(16)
    p = random_params(model, rng)
    q = model.unpack(p.pack())
    assert np.allclose(q.pack(), p.pack(), atol=0)


def test_params_json_round_trip(model):
    rng = np.random.default_rng(17)
    p = random_params(model, rng)
    ks, q = params_from_json(model.params_to_json(p))
    assert ks == model.knots
    assert np.allclose(q.pack(), p.pack(), atol=0)
