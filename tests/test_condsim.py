"""Per-frequency conditional simulation and ensemble assembly."""

import json

import numpy as np
import pytest

from presim.condsim import (
    ConditionalSampler,
    Ensemble,
    PredictionSetup,
    fit_hash,
    geometry_hash,
    run_ensemble,
    write_ensemble,
)
from presim.errors import ValidationError
from presim.geometry import SiteGeometry
from presim.preprocess import DiurnalModel, SeaLevelModel, TransformStack, VolatilitySeries
from presim.rng import STAGE_CONDSIM, STAGE_CONDSIM_HIGH, STAGE_SYNTH, substream
from presim.spectrum import KnotSet, SpectralModel, SpectralParams
from presim.whittle import (
    TWO_PI,
    FitResult,
    SpectralField,
    fourier_frequencies,
    inverse_dft,
)

from conftest import random_params, unconditional_sampler


def fit_const(model, values, basis):
    om = np.linspace(0, basis.cutoff, 60)
    G = basis.design(om)
    c, *_ = np.linalg.lstsq(G, np.full(60, values), rcond=None)
    return c


def nugget_free_params(model, delta_km=50.0):
    """High beta (no spatial nugget), smooth positive delta."""
    om0 = model.knots.omega0
    om = np.linspace(0, om0, 60)
    Gd = model.basis_delta.design(om)
    target = delta_km * np.clip(1 - (om / om0) ** 2, 0, None) ** 3
    c_delta, *_ = np.linalg.lstsq(Gd, target, rcond=None)
    return SpectralParams(
        s_coeffs=np.zeros(model.dimensions["s"]),
        beta_coeffs=fit_const(model, 40.0, model.basis_beta),
        delta_coeffs=c_delta,
        theta_coeffs=np.zeros(model.dimensions["theta"]),
        u_angle=np.pi,
    )


def make_setup(n_targets=1):
    obs = SiteGeometry(np.array([36.2, 36.5]), np.array([-97.2, -96.9]))
    lats = np.array([36.35, 36.65])[:n_targets]
    lons = np.array([-97.05, -97.3])[:n_targets]
    return PredictionSetup(
        observed=obs, target_lats=lats, target_lons=lons,
        target_elevations=np.full(n_targets, 320.0),
        target_ids=tuple(f"P{i}" for i in range(n_targets)),
    )


def observed_field(model, params, setup, T, seed=0):
    sampler = unconditional_sampler(model, params, setup.observed, T)
    return sampler.draw(seed, 0)


# -- setup validation -----------------------------------------------------


def test_prediction_setup_warns_on_coincident_target():
    obs = SiteGeometry(np.array([36.2, 36.5]), np.array([-97.2, -96.9]))
    with pytest.warns(UserWarning, match="coincides"):
        PredictionSetup(
            observed=obs, target_lats=[36.2], target_lons=[-97.2],
            target_elevations=[300.0],
        )


def test_prediction_setup_combined_order():
    setup = make_setup(2)
    assert setup.combined.n_sites == 4
    assert np.allclose(setup.combined.lats[:2], setup.observed.lats)
    assert np.allclose(setup.combined.lats[2:], setup.target_lats)


# -- conditional draws ----------------------------------------------------


def test_coincident_target_without_nugget_reproduces_observation(model):
    T = 48
    params = nugget_free_params(model)
    obs = SiteGeometry(np.array([36.2, 36.5]), np.array([-97.2, -96.9]))
    with pytest.warns(UserWarning, match="coincides"):
        setup = PredictionSetup(
            observed=obs, target_lats=[36.2], target_lons=[-97.2],
            target_elevations=[300.0],
        )
    field = observed_field(model, params, setup, T, seed=1)
    sampler = ConditionalSampler(model, params, setup, field)
    draw = sampler.draw(seed=2, member=0)
    om = fourier_frequencies(T)
    for j in sampler.plan.idx_low:
        if om[j] >= model.knots.omega0:  # coherence drops to 0 at the cutoff
            continue
        assert np.abs(draw.coeffs[j, 0] - field.coeffs[j, 0]) < 1e-8


def test_zero_coherence_gives_unconditional_draws(model):
    T = 48
    # delta == 0 everywhere: conditional mean must vanish at distinct sites
    params = SpectralParams(
        s_coeffs=np.zeros(model.dimensions["s"]),
        beta_coeffs=np.zeros(model.dimensions["beta"]),
        delta_coeffs=np.zeros(model.dimensions["delta"]),
        theta_coeffs=np.zeros(model.dimensions["theta"]),
        u_angle=0.0,
    )
    setup = make_setup()
    field = observed_field(model, params, setup, T, seed=3)
    sampler = ConditionalSampler(model, params, setup, field)
    assert np.max(np.abs(sampler.means)) < 1e-12


def test_conditional_draw_deterministic(model):
    T = 36
    rng = np.random.default_rng(4)
    params = random_params(model, rng)
    setup = make_setup()
    field = observed_field(model, params, setup, T, seed=5)
    sampler = ConditionalSampler(model, params, setup, field)
    d1 = sampler.draw(seed=6, member=3)
    d2 = ConditionalSampler(model, params, setup, field).draw(seed=6, member=3)
    d3 = sampler.draw(seed=6, member=4)
    assert np.array_equal(d1.coeffs, d2.coeffs)
    assert not np.array_equal(d1.coeffs, d3.coeffs)


def test_conditional_draw_is_real_series(model):
    T = 50
    rng = np.random.default_rng(7)
    params = random_params(model, rng)
    setup = make_setup(2)
    field = observed_field(model, params, setup, T, seed=8)
    draw = ConditionalSampler(model, params, setup, field).draw(seed=9, member=0)
    A = inverse_dft(draw)  # raises if conjugate symmetry is broken
    assert A.shape == (2, T)
    assert np.all(np.isfinite(A))


def test_ridge_applied_on_singular_observed_block(model):
    # coincident observed sites + no nugget: f_oo is exactly singular
    obs = SiteGeometry(np.array([36.2, 36.2]), np.array([-97.2, -97.2]))
    setup = PredictionSetup(
        observed=obs, target_lats=[36.4], target_lons=[-97.0],
        target_elevations=[300.0],
    )
    params = nugget_free_params(model)
    T = 24
    field = observed_field(model, params, setup, T, seed=10)
    sampler = ConditionalSampler(model, params, setup, field)
    assert len(sampler.ridge_frequencies) > 0
    draw = sampler.draw(seed=11, member=0)
    assert np.all(np.isfinite(draw.coeffs))

    # the stacked build against the dense Schur complement, one frequency
    # at a time, with the sampler's ridge at the frequencies it reports
    plan = sampler.plan
    f = model.cross_spectrum_stack(params, setup.combined, plan.omega_low)
    for k, j in enumerate(plan.idx_low):
        foo, fpo, fpp = f[k, :2, :2], f[k, 2:, :2], f[k, 2:, 2:]
        if j in sampler.ridge_frequencies:
            foo = foo + np.eye(2) * (1e-10 * np.trace(foo).real / 2)
        B = np.linalg.solve(foo.T, fpo.T).T
        cond = TWO_PI * T * (fpp - B @ fpo.conj().T)
        L = sampler.chols[k]
        tol = 1e-12 * np.abs(cond).max()
        assert np.allclose(sampler.means[k], B @ field.coeffs[j], rtol=1e-12, atol=0)
        assert np.allclose(L @ L.conj().T, cond, rtol=1e-12, atol=tol)


# -- unconditional moments ------------------------------------------------


def test_unconditional_periodogram_matches_spectrum(model, geometry3):
    # zero observed sites: the conditional law is the unconditional one
    T, n_members = 128, 500
    rng = np.random.default_rng(12)
    params = random_params(model, rng, scale=0.3)
    sampler = unconditional_sampler(model, params, geometry3, T)
    assert sampler.setup.n_observed == 0
    assert np.all(sampler.means == 0)
    f = model.cross_spectrum_stack(params, geometry3, sampler.plan.omega_low)
    chols = sampler.chols
    assert np.allclose(chols @ np.conj(np.swapaxes(chols, 1, 2)), TWO_PI * T * f,
                       rtol=1e-10, atol=0)
    idx = sampler.plan.idx
    probes = idx[np.linspace(1, len(idx) - 2, 10).astype(int)]
    acc = np.zeros(len(probes))
    for k in range(n_members):
        coeffs = sampler.draw(13, k).coeffs
        acc += np.mean(np.abs(coeffs[probes]) ** 2, axis=1)
    avg = acc / n_members
    S = model.eval_S(params, fourier_frequencies(T)[probes])
    assert np.max(np.abs(avg / (TWO_PI * T * S) - 1.0)) < 0.10


def test_zero_site_substream_keys(model, geometry3):
    # zero observed sites: low band keyed (stage, member, j), high band
    # (STAGE_CONDSIM_HIGH, stage, member); conditioning drops the stage
    # from the high-band key
    T = 40
    params = random_params(model, np.random.default_rng(30), scale=0.3)
    sampler = unconditional_sampler(model, params, geometry3, T)
    plan = sampler.plan
    for stage in (STAGE_CONDSIM, STAGE_SYNTH):
        coeffs = sampler.draw(seed=31, member=2, stage=stage).coeffs
        j = plan.idx_low[3]
        g = substream(31, stage, 2, j).standard_normal(6)
        z = g[:3] + 1j * g[3:]
        assert np.allclose(coeffs[j], sampler.chols[3] @ z / np.sqrt(2.0), rtol=1e-12)
        zr = substream(31, STAGE_CONDSIM_HIGH, stage, 2).standard_normal((1, 3))
        assert np.allclose(coeffs[plan.idx_high[0]].real * np.sqrt(2.0),
                           sampler.sd_high[0] * zr[0], rtol=1e-12)

    setup = make_setup()
    field = observed_field(model, params, setup, T, seed=32)
    cond = ConditionalSampler(model, params, setup, field)
    coeffs = cond.draw(seed=31, member=2).coeffs
    zr = substream(31, STAGE_CONDSIM_HIGH, 2).standard_normal((1, 1))
    assert np.allclose(coeffs[plan.idx_high[0], 0].real * np.sqrt(2.0),
                       cond.sd_high[0] * zr[0, 0], rtol=1e-12)


def test_draw_with_cutoff_at_pi_has_no_high_band():
    model = SpectralModel(KnotSet.default(4320))
    T = 48
    params = random_params(model, np.random.default_rng(33), scale=0.3)
    setup = make_setup(2)
    field = observed_field(model, params, setup, T, seed=34)
    sampler = ConditionalSampler(model, params, setup, field)
    assert len(sampler.plan.idx_high) == 0
    assert len(sampler.plan.idx_low) == T // 2 + 1
    A = inverse_dft(sampler.draw(seed=35, member=0))
    assert A.shape == (2, T) and np.all(np.isfinite(A))


def test_observed_field_must_match_setup(model):
    setup = make_setup()
    params = random_params(model, np.random.default_rng(36))
    with pytest.raises(ValidationError, match="observed field"):
        ConditionalSampler(model, params, setup, SpectralField(np.zeros((24, 0))))


# -- ensembles ------------------------------------------------------------


def tiny_stack(T, n_targets):
    return TransformStack(
        sea_level=SeaLevelModel(log_p0=np.log(101.0), scale_height=8310.0),
        diurnal=DiurnalModel(period=288, n_harmonics=3, coefficients=np.zeros(6)),
        volatility=VolatilitySeries(values=np.full(T, 0.01), spline_df=float("nan")),
        site_means=np.full(n_targets, 97.0),
        station_ids=[f"P{i}" for i in range(n_targets)],
    )


def make_fit(model, params):
    return FitResult(
        params_hat=params, loglik=0.0,
        hessian=np.eye(model.n_params) * 1e4,
        convergence={"status": "converged"}, knots=model.knots,
    )


def test_run_ensemble_members_and_diffs(model):
    T = 40
    rng = np.random.default_rng(14)
    params = random_params(model, rng)
    setup = make_setup(2)
    field = observed_field(model, params, setup, T, seed=15)
    stack = tiny_stack(T, 2)
    fit = make_fit(model, params)
    mean_draws = 97.0 + 0.01 * rng.standard_normal((5, 2))
    ens = run_ensemble(model, fit, stack, setup, field, mean_draws,
                       count=5, vary_params=False, seed=16)
    assert ens.n_members == 5
    assert ens.pressure_stack().shape == (5, 2, T + 1)
    for mem in ens.members:
        assert mem.param_draw_id == -1
        assert np.allclose(mem.diffs, np.diff(mem.pressure, axis=1), atol=0)
        assert np.allclose(mem.pressure.mean(axis=1), mem.mean_field_draw, atol=1e-9)


def test_run_ensemble_vary_params_ids(model):
    T = 24
    rng = np.random.default_rng(17)
    params = random_params(model, rng, scale=0.2)
    setup = make_setup()
    field = observed_field(model, params, setup, T, seed=18)
    ens = run_ensemble(model, make_fit(model, params), tiny_stack(T, 1), setup,
                       field, np.full((3, 1), 97.0), count=3,
                       vary_params=True, seed=19)
    assert [m.param_draw_id for m in ens.members] == [0, 1, 2]


def test_run_ensemble_mean_draw_shape_checked(model):
    T = 24
    rng = np.random.default_rng(20)
    params = random_params(model, rng)
    setup = make_setup()
    field = observed_field(model, params, setup, T, seed=21)
    with pytest.raises(ValidationError, match="mean_draws"):
        run_ensemble(model, make_fit(model, params), tiny_stack(T, 1), setup,
                     field, np.zeros((2, 1)), count=3, vary_params=False, seed=22)


def test_write_ensemble_round_trip(model, tmp_path):
    T = 20
    rng = np.random.default_rng(23)
    params = random_params(model, rng)
    setup = make_setup(2)
    field = observed_field(model, params, setup, T, seed=24)
    ens = run_ensemble(model, make_fit(model, params), tiny_stack(T, 2), setup,
                       field, np.full((4, 2), 97.0), count=4,
                       vary_params=False, seed=25)
    manifest_path = write_ensemble(ens, tmp_path / "ens")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["n_members"] == 4
    assert manifest["target_ids"] == ["P0", "P1"]
    assert manifest["seed"] == 25
    for k in range(4):
        lines = (tmp_path / "ens" / f"member_{k:03d}.csv").read_text().splitlines()
        assert lines[0] == "timestamp,site_id,pressure_kPa"
        assert len(lines) == 1 + 2 * (T + 1)


def test_ensemble_bit_reproducible(model, tmp_path):
    T = 20
    rng = np.random.default_rng(26)
    params = random_params(model, rng)
    setup = make_setup()
    field = observed_field(model, params, setup, T, seed=27)
    outs = []
    for sub in ("a", "b"):
        ens = run_ensemble(model, make_fit(model, params), tiny_stack(T, 1), setup,
                           field, np.full((3, 1), 97.0), count=3,
                           vary_params=True, seed=28)
        write_ensemble(ens, tmp_path / sub)
        outs.append(
            [(p.name, p.read_bytes()) for p in sorted((tmp_path / sub).iterdir())]
        )
    assert outs[0] == outs[1]


def test_hashes_are_stable_and_sensitive(model, geometry3):
    rng = np.random.default_rng(29)
    params = random_params(model, rng)
    fit = make_fit(model, params)
    assert fit_hash(fit) == fit_hash(fit)
    assert geometry_hash(geometry3) == geometry_hash(geometry3)
    other = SiteGeometry(geometry3.lats + 0.1, geometry3.lons)
    assert geometry_hash(other) != geometry_hash(geometry3)
