"""Constrained spline bases and the cross-spectral matrix model."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presim.errors import ConfigurationError
from presim.geometry import SiteGeometry
from presim.spectrum import KnotSet, SpectralModel, SpectralParams, matern32
from presim.splines import ConstrainedBasis
from presim.synth import default_stations, default_true_params
from presim.whittle import WhittleObjective, forward_dft

from conftest import coherence, cross_spectrum, cross_spectrum_stack, random_params


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
    p = model.unpack(np.zeros(model.n_params))
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


def split_S(model, params, omega, geometry):
    """(S0, S1) = (S (1 - sig), S sig) from the cross-spectrum factors."""
    t = model.cross_spectrum_terms(params, geometry, model.designs(omega))
    return t.S * (1.0 - t.sig), t.S * t.sig


def test_split_S_balanced_at_zero_beta(model, geometry3):
    p = model.unpack(np.zeros(model.n_params))
    om = np.array([0.01, 0.1, model.knots.omega0 * 0.9])
    S0, S1 = split_S(model, p, om, geometry3)
    assert np.allclose(S0, S1)
    assert np.allclose(S0 + S1, model.eval_S(p, om))


def test_split_S_saturates(model, geometry3):
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
    S0, S1 = split_S(model, p, np.array([0.1]), geometry3)
    assert S0[0] / (S0[0] + S1[0]) < 1e-12


def test_split_S_low_coherence_bound(model, geometry3):
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
    S0, S1 = split_S(model, p, np.array([0.05]), geometry3)
    assert S1[0] / (S0[0] + S1[0]) == pytest.approx(0.13222, abs=5e-4)


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


def test_cross_spectrum_vanishing_delta_has_no_coherence(model, geometry3):
    # a subnormal |delta| overflows d / |delta|: zero coherence, no warning
    rng = np.random.default_rng(9)
    p = random_params(model, rng)
    p = SpectralParams(p.s_coeffs, p.beta_coeffs, np.full_like(p.delta_coeffs, 1e-310),
                       p.theta_coeffs, p.u_angle)
    om = np.linspace(0.01, 0.9, 7) * model.knots.omega0
    f = cross_spectrum_stack(model, p, geometry3, om)
    S = model.eval_S(p, om)
    assert np.allclose(f, S[:, None, None] * np.eye(3), rtol=1e-14, atol=0)


def guarded_matern(d, delta):
    """C built with masks for delta == 0 and an overflowing d / |delta|: the oracle."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = d[None, :, :] / np.abs(delta)[:, None, None]
    r = np.where(np.isfinite(r), r, np.inf)
    np.einsum("kii->ki", r)[:] = 0.0
    far = np.isinf(r)
    r_fin = np.where(far, 0.0, r)
    C = np.where(far, 0.0, np.exp(-r_fin) * (1.0 + r_fin))
    np.einsum("kii->ki", C)[:] = 1.0
    return C


def test_matern_build_equals_guarded_construction_on_default_network(model):
    stations = default_stations()
    geo = SiteGeometry(np.array([s.latitude for s in stations]),
                       np.array([s.longitude for s in stations]))
    omegas = np.arange(241) * 2 * np.pi / 2880  # the low band of T = 2880, cutoff included
    rng = np.random.default_rng(21)
    for p in [default_true_params(model)] + [random_params(model, rng) for _ in range(3)]:
        t = model.cross_spectrum_terms(p, geo, model.designs(omegas))
        assert np.any(t.delta == 0.0) and np.any((t.C > 0) & (t.C < 1))
        assert np.array_equal(t.C, guarded_matern(geo.distances, t.delta))


def test_matern_build_at_vanishing_and_tiny_delta(model, geometry3):
    # rows with delta 0, subnormal |delta|, a normal |delta| whose d / |delta|
    # overflows, and an ordinary delta, in one call
    delta = np.array([0.0, 5e-324, -1e-310, 2.5e-308, -1e-300, 30.0])
    rng = np.random.default_rng(22)
    p = random_params(model, rng, scale=0.3)
    p = SpectralParams(p.s_coeffs, p.beta_coeffs, np.eye(len(p.delta_coeffs))[0],
                       p.theta_coeffs, p.u_angle)
    obj = WhittleObjective(model, forward_dft(rng.standard_normal((3, 64))), geometry3)
    B_S, B_beta, B_delta, B_theta = obj.plan.designs_low
    assert len(B_delta) == len(delta)
    obj.plan.designs_low = (B_S, B_beta, np.outer(delta, p.delta_coeffs), B_theta)
    t = obj.plan.terms(p, geometry3)
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(t.delta, delta)
    assert np.all(t.C[:-1][:, off] == 0.0)
    assert np.all(np.einsum("kii->ki", t.C) == 1.0)
    assert np.all((t.C[-1][off] > 0) & (t.C[-1][off] < 1))
    ll, score, _ = obj.loglik(p)
    assert np.isfinite(ll) and np.all(np.isfinite(score))


def test_coincident_sites_are_fully_correlated_at_vanishing_delta(model):
    # d = 0 gives r = 0 for every delta, 0 included
    geo = SiteGeometry(np.array([36.3, 36.3, 36.6]), np.array([-97.1, -97.1, -97.4]))
    p = random_params(model, np.random.default_rng(23))
    B_S, B_beta, B_delta, B_theta = model.designs([0.01, 0.02])
    t = model.cross_spectrum_terms(p, geo, (B_S, B_beta, np.zeros_like(B_delta), B_theta))
    assert np.array_equal(t.C, np.broadcast_to([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]], (2, 3, 3)))


def test_cross_spectrum_stack_matches_paper_formula(model):
    # D R D* against S0 I + S1 C o exp(i theta u.(x_j - x_k)) from the
    # differences of the planar positions, on a fit network and on a
    # prediction geometry
    stations = default_stations()
    fit_geo = SiteGeometry.of(stations[:11])
    combined = SiteGeometry.of(stations)
    rng = np.random.default_rng(14)
    om = np.linspace(0.02, 0.98, 25) * model.knots.omega0
    for geo in (fit_geo, combined):
        vec = rng.normal(scale=0.4, size=model.n_params)
        d = model.dimensions
        i0 = d["s"] + d["beta"]
        vec[i0:i0 + d["delta"]] = 30.0 * rng.standard_normal(d["delta"])
        p = model.unpack(vec)
        delta, theta = model.eval_delta(p, om), model.basis_theta.evaluate(p.theta_coeffs, om)
        assert delta.min() < 0 < delta.max() and np.all(delta != 0)
        assert np.abs(theta).min() > 0

        S = model.eval_S(p, om)
        S1 = S / (1.0 + np.exp(-model.basis_beta.evaluate(p.beta_coeffs, om)))
        C = matern32(geo.distances[None, :, :] / np.abs(delta)[:, None, None])
        U = (geo.positions[:, None, :] - geo.positions[None, :, :]) @ p.u
        expected = (S - S1)[:, None, None] * np.eye(geo.n_sites) + (
            S1[:, None, None] * C * np.exp(1j * theta[:, None, None] * U[None, :, :])
        )
        f = cross_spectrum_stack(model, p, geo, om)
        assert np.max(np.abs(f - expected)) <= 1e-13 * np.max(np.abs(expected))

        R = model.cross_spectrum_terms(p, geo, model.designs(om)).R
        assert R.dtype == np.float64
        assert np.array_equal(R, np.swapaxes(R, 1, 2))


def test_phase_factors_equal_the_complex_exponential(model):
    # D is built from cos and sin of the phase; the complex exp is the oracle
    stations = default_stations()
    geo = SiteGeometry(np.array([s.latitude for s in stations]),
                       np.array([s.longitude for s in stations]))
    omegas = np.arange(241) * 2 * np.pi / 2880
    rng = np.random.default_rng(24)
    for scale in (0.4, 40.0, 4000.0):  # largest phase about 20, 1e3 and 6e4 rad
        p = random_params(model, rng)
        p = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                           scale * rng.standard_normal(len(p.theta_coeffs)), p.u_angle)
        t = model.cross_spectrum_terms(p, geo, model.designs(omegas))
        phase = t.theta[:, None] * (geo.positions @ p.u)[None, :]
        assert np.abs(phase).max() > 10.0 * scale
        assert np.array_equal(t.D, np.exp(1j * phase))


def test_cross_spectrum_real_when_theta_zero(model, geometry3):
    rng = np.random.default_rng(8)
    p = random_params(model, rng)
    p = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                       np.zeros_like(p.theta_coeffs), p.u_angle)
    f = cross_spectrum(model, p, geometry3, 0.05)
    assert np.max(np.abs(f.imag)) < 1e-14
    assert np.allclose(f, f.T)


def test_cross_spectrum_psd_and_hermitian(model, geometry3):
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_params(model, rng)
        om = rng.uniform(0, np.pi)
        f = cross_spectrum(model, p, geometry3, om)
        assert np.max(np.abs(f - f.conj().T)) < 1e-12
        vals = np.linalg.eigvalsh(f)
        assert vals.min() >= -1e-10 * np.trace(f).real


def test_cross_spectrum_hermitian_in_frequency(model, geometry3):
    rng = np.random.default_rng(10)
    p = random_params(model, rng)
    for om in rng.uniform(0, np.pi, 10):
        fp = cross_spectrum(model, p, geometry3, om)
        fm = cross_spectrum(model, p, geometry3, -om)
        assert np.max(np.abs(fm - fp.conj())) < 1e-12


def test_delta_sign_flip_invariance(model, geometry3):
    rng = np.random.default_rng(11)
    p = random_params(model, rng)
    q = SpectralParams(p.s_coeffs, p.beta_coeffs, -p.delta_coeffs,
                       p.theta_coeffs, p.u_angle)
    om = rng.uniform(0, model.knots.omega0, 8)
    f1 = cross_spectrum_stack(model, p, geometry3, om)
    f2 = cross_spectrum_stack(model, q, geometry3, om)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_theta_direction_flip_invariance(model, geometry3):
    rng = np.random.default_rng(12)
    p = random_params(model, rng)
    q = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                       -p.theta_coeffs, p.u_angle + np.pi)
    om = rng.uniform(0, model.knots.omega0, 8)
    f1 = cross_spectrum_stack(model, p, geometry3, om)
    f2 = cross_spectrum_stack(model, q, geometry3, om)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_coherence_bounded_by_split(model, geometry3):
    rng = np.random.default_rng(13)
    p = random_params(model, rng)
    om = 0.4 * model.knots.omega0
    S0, S1 = split_S(model, p, om, geometry3)
    coh = coherence(model, p, geometry3, om, 0, 1)
    assert abs(coh) <= S1[0] / (S0[0] + S1[0]) + 1e-12
    assert abs(coherence(model, p, geometry3, 1.2 * model.knots.omega0, 0, 1)) == 0.0


def test_coherence_modulus_ignores_direction_when_theta_zero(model, geometry3):
    rng = np.random.default_rng(14)
    p = random_params(model, rng)
    p0 = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                        np.zeros_like(p.theta_coeffs), 0.3)
    p1 = SpectralParams(p.s_coeffs, p.beta_coeffs, p.delta_coeffs,
                        np.zeros_like(p.theta_coeffs), 2.1)
    om = 0.3 * model.knots.omega0
    assert abs(coherence(model, p0, geometry3, om, 0, 2)) == pytest.approx(
        abs(coherence(model, p1, geometry3, om, 0, 2)), abs=1e-12
    )


def test_implied_variance_quadrature(model, geometry3):
    # integral of the zero-lag covariance at zero separation equals
    # integral of S over the 4096-point frequency grid
    rng = np.random.default_rng(15)
    p = random_params(model, rng)
    om = np.linspace(-np.pi, np.pi, 4097)
    f = cross_spectrum_stack(model, p, geometry3, om)
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
    d = json.loads(json.dumps({"knots": model.knots.to_dict(), "params": p.to_dict()}))
    ks, q = KnotSet.from_dict(d["knots"]), SpectralParams.from_dict(d["params"])
    assert ks == model.knots
    assert np.allclose(q.pack(), p.pack(), atol=0)
