"""Per-frequency conditional simulation and ensemble assembly."""

import io
import json
import tracemalloc
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from presim import condsim, synth
from presim.condsim import (
    RIDGE_REL,
    ConditionalSampler,
    fit_hash,
    geometry_hash,
    psd_factor,
    run_ensemble,
)
from presim.errors import ValidationError
from presim.geometry import SiteGeometry, combine
from presim.ingest import StationMeta
from presim.preprocess import (
    DiurnalModel,
    SeaLevelModel,
    TransformStack,
    VolatilitySeries,
    invert_stack,
)
from presim.rng import RNG_LAYOUT, STAGE_CONDSIM, STAGE_FIELD_UNCOND, STAGE_SYNTH, substream
from presim.spectrum import KnotSet, SpectralModel, SpectralParams
from presim.splines import ConstrainedBasis
from presim.whittle import (
    TWO_PI,
    FitResult,
    FrequencyPlan,
    SpectralField,
    cholesky_factor,
    inverse_dft,
    sample_params,
)

from conftest import (
    cross_spectrum_stack,
    random_params,
    reference_low_band,
    unconditional_sampler,
    zero_site_stream,
)


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
    """(observed geometry, target station records): two observed sites, targets P0, P1."""
    obs = SiteGeometry(np.array([36.2, 36.5]), np.array([-97.2, -96.9]))
    targets = [StationMeta(id=f"P{i}", latitude=lat, longitude=lon, elevation=320.0)
               for i, (lat, lon) in enumerate([(36.35, -97.05), (36.65, -97.3)][:n_targets])]
    return obs, targets


def coincident_observed_setup():
    """Two observed sites at one location and a target P0: R_oo is singular without a nugget."""
    observed = SiteGeometry(np.array([36.2, 36.2]), np.array([-97.2, -97.2]))
    return observed, [StationMeta(id="P0", latitude=36.4, longitude=-97.0, elevation=300.0)]


def joint(observed, targets):
    """The sampler's sites: the observed sites, then the target records'."""
    return combine(observed, SiteGeometry.of(targets))


def conditional_sampler(model, params, observed, targets, field):
    """The sampler of `targets` given `field`, a draw at the `observed` sites."""
    return ConditionalSampler(FrequencyPlan(field.n_times, model), params,
                              joint(observed, targets), field)


def observed_field(model, params, observed, T, seed=0):
    sampler = unconditional_sampler(model, params, observed, T)
    return sampler.draw(zero_site_stream(seed))


def check_dense_schur_law(model, params, observed, targets, field, sampler):
    """The sampler's conditional laws against the dense complex Schur complement.

    `observed` and `targets` are the geometries of the observed sites and
    of the targets, in that order the rows and columns of f. One frequency
    at a time from `cross_spectrum_stack`, with the sampler's ridge at the
    frequencies it reports. Returns the conditional covariances.
    """
    n, T = observed.n_sites, field.n_times
    sites = SiteGeometry(np.concatenate([observed.lats, targets.lats]),
                         np.concatenate([observed.lons, targets.lons]))
    f = cross_spectrum_stack(model, params, sites, sampler.plan.omega_low)
    conds = []
    for k in range(len(f)):  # row k is frequency index k
        foo, fpo, fpp = f[k, :n, :n], f[k, n:, :n], f[k, n:, n:]
        if k in sampler.ridge_frequencies:
            foo = foo + np.eye(n) * (1e-10 * np.trace(foo).real / n)
        B = np.linalg.solve(foo.T, fpo.T).T
        cond = TWO_PI * T * (fpp - B @ fpo.conj().T)
        L = sampler.chols[k]
        assert np.allclose(sampler.means[k], B @ field.coeffs[k], rtol=1e-12, atol=0)
        assert np.allclose(L @ L.conj().T, cond, rtol=1e-12, atol=1e-12 * np.abs(cond).max())
        conds.append(cond)
    return np.array(conds)


# -- conditional draws ----------------------------------------------------


def test_coincident_target_without_nugget_reproduces_observation(model):
    T = 48
    params = nugget_free_params(model)
    observed = SiteGeometry(np.array([36.2, 36.5]), np.array([-97.2, -96.9]))
    targets = [StationMeta(id="P0", latitude=36.2, longitude=-97.2, elevation=300.0)]
    field = observed_field(model, params, observed, T, seed=1)
    sampler = conditional_sampler(model, params, observed, targets, field)
    draw = sampler.draw(substream(2, STAGE_CONDSIM, 0))
    for j, om in enumerate(sampler.plan.omega_low):
        if om >= model.knots.omega0:  # coherence drops to 0 at the cutoff
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
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=3)
    sampler = conditional_sampler(model, params, observed, targets, field)
    assert np.max(np.abs(sampler.means)) < 1e-12


def test_conditional_draw_deterministic(model):
    T = 36
    rng = np.random.default_rng(4)
    params = random_params(model, rng)
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=5)
    sampler = conditional_sampler(model, params, observed, targets, field)
    d1 = sampler.draw(substream(6, STAGE_CONDSIM, 3))
    d2 = conditional_sampler(model, params, observed, targets, field).draw(
        substream(6, STAGE_CONDSIM, 3))
    d3 = sampler.draw(substream(6, STAGE_CONDSIM, 4))
    assert np.array_equal(d1.coeffs, d2.coeffs)
    assert not np.array_equal(d1.coeffs, d3.coeffs)


def test_conditional_draw_is_real_series(model):
    T = 50
    rng = np.random.default_rng(7)
    params = random_params(model, rng)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=8)
    draw = conditional_sampler(model, params, observed, targets, field).draw(
        substream(9, STAGE_CONDSIM, 0))
    A = inverse_dft(draw)  # raises if a frequency-0 or Nyquist coefficient is not real
    assert A.shape == (2, T)
    assert np.all(np.isfinite(A))


def test_ridge_applied_on_singular_observed_block(model):
    # coincident observed sites + no nugget: f_oo is exactly singular
    observed, targets = coincident_observed_setup()
    params = nugget_free_params(model)
    T = 24
    field = observed_field(model, params, observed, T, seed=10)
    sampler = conditional_sampler(model, params, observed, targets, field)
    assert len(sampler.ridge_frequencies) > 0
    draw = sampler.draw(substream(11, STAGE_CONDSIM, 0))
    assert np.all(np.isfinite(draw.coeffs))

    # the stacked build against the dense Schur complement
    check_dense_schur_law(model, params, observed, SiteGeometry.of(targets), field, sampler)


def ridge_by_failed_solve(model, params, observed, targets, field):
    """(ridged, means, covs): the conditional laws under the ridge rule of an LU solve.

    One frequency at a time: R_oo is ridged where `np.linalg.cholesky` or
    `np.linalg.solve` fails, then R_po R_oo^{-1} is a dense solve. The
    oracle for the sampler, which ridges only where its Cholesky factor
    fails. `ridged` lists the ridged frequency indices; `means` and
    `covs` are the complex conditional means and covariances.
    """
    n, T = observed.n_sites, field.n_times
    plan = FrequencyPlan(T, model)
    t = model.cross_spectrum_terms(params, joint(observed, targets), model.designs(plan.omega_low))
    ridged, means, covs = [], [], []
    for k in range(len(t.R)):
        Roo, Rpo, Rpp = t.R[k, :n, :n], t.R[k, n:, :n], t.R[k, n:, n:]
        try:
            np.linalg.cholesky(Roo)
            np.linalg.solve(Roo, Rpo.T)
        except np.linalg.LinAlgError:
            Roo = Roo + np.eye(n) * (RIDGE_REL * np.trace(Roo) / n)
            ridged.append(k)
        B = np.linalg.solve(Roo, Rpo.T).T
        D_o, D_p = t.D[k, :n], t.D[k, n:]
        means.append(D_p * (B @ (np.conj(D_o) * field.coeffs[k])))
        cond = TWO_PI * T * (Rpp - B @ Rpo.T)
        covs.append(D_p[:, None] * cond * np.conj(D_p)[None, :])
    return ridged, np.array(means), np.array(covs)


def test_ridge_by_failed_factor_gives_the_laws_of_ridge_by_failed_solve(model):
    # coincident observed sites without a nugget: R_oo is exactly singular,
    # and rounding decides whether its Cholesky or an LU solve fails, so
    # the two rules ridge different frequencies; the laws still agree
    observed, targets = coincident_observed_setup()
    params = nugget_free_params(model)
    fit = make_fit(model, params)
    fit.hessian[-1, -1] = -1.0
    sets_differ = 0
    for T in (24, 25, 48):
        field = observed_field(model, params, observed, T, seed=10)
        for seed in (27, 61, 62):
            draws, floored = sample_params(fit, 12, seed)
            assert floored
            for x in draws:
                p = model.unpack(x)
                sampler = conditional_sampler(model, p, observed, targets, field)
                ridged, means, covs = ridge_by_failed_solve(model, p, observed, targets, field)
                sets_differ += ridged != sampler.ridge_frequencies
                sd = np.sqrt(np.einsum("kii->ki", covs).real)
                assert np.all(np.abs(sampler.means - means) <= 1e-6 * sd)
                got = sampler.chols @ np.conj(np.swapaxes(sampler.chols, 1, 2))
                err = np.abs(got - covs).max(axis=(1, 2)) / np.abs(covs).max(axis=(1, 2))
                assert err.max() <= 1e-8
    assert sets_differ > 0


def test_non_finite_conditional_law_is_rejected(model, geometry3):
    # a spectrum that overflows makes the law NaN: the build names the
    # first frequency where it is not finite, with and without observed
    # sites, in the low band and in the high band
    T = 48
    params = random_params(model, np.random.default_rng(63), scale=0.3)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=64)
    plan = FrequencyPlan(T, model)
    low_bad = replace(params, s_coeffs=params.s_coeffs + 800.0)
    # only the two basis functions that peak at pi: S overflows in the high band
    high_bad = replace(params, s_coeffs=params.s_coeffs + np.r_[np.zeros(6), 2000.0, 2000.0])
    with np.errstate(over="ignore", invalid="ignore"):
        first_low = plan.omega_low[np.argmin(np.isfinite(model.eval_S(low_bad, plan.omega_low)))]
        S_high = model.eval_S(high_bad, plan.omegas)
        assert np.all(np.isfinite(S_high[plan.low]))
        first_high = plan.omegas[np.argmin(np.isfinite(S_high))]
        for bad, first in ((low_bad, first_low), (high_bad, first_high)):
            for build in (lambda: conditional_sampler(model, bad, observed, targets, field),
                          lambda: unconditional_sampler(model, bad, geometry3, T)):
                with pytest.raises(ValidationError,
                                   match=f"conditional law not finite at frequency {first:.6f}"):
                    build()


# -- unconditional moments ------------------------------------------------


def test_unconditional_periodogram_matches_spectrum(model, geometry3):
    # zero observed sites: the conditional law is the unconditional one
    T, n_members = 128, 500
    rng = np.random.default_rng(12)
    params = random_params(model, rng, scale=0.3)
    sampler = unconditional_sampler(model, params, geometry3, T)
    assert np.all(sampler.means == 0)
    f = cross_spectrum_stack(model, params, geometry3, sampler.plan.omega_low)
    chols = sampler.chols
    assert np.allclose(chols @ np.conj(np.swapaxes(chols, 1, 2)), TWO_PI * T * f,
                       rtol=1e-10, atol=0)
    probes = np.linspace(1, T // 2 - 1, 10).astype(int)
    acc = np.zeros(len(probes))
    for k in range(n_members):
        coeffs = sampler.draw(zero_site_stream(13, k)).coeffs
        acc += np.mean(np.abs(coeffs[probes]) ** 2, axis=1)
    avg = acc / n_members
    S = model.eval_S(params, sampler.plan.omegas[probes])
    assert np.max(np.abs(avg / (TWO_PI * T * S) - 1.0)) < 0.10


def field_normals(seed, key, plan, m):
    """One draw's normals from its one generator: (high band, low band).

    The generator gives the high band and then the low band, each a
    (2, K, m) block of real then imaginary parts. A complex row is
    (zr + i zi) / sqrt(2); a real-coefficient row is zr.
    """
    rng = substream(seed, *key)
    bands = []
    for real in (plan.real_high, plan.real_low):
        zr, zi = rng.standard_normal((2, len(real), m))
        bands.append(np.where(real[:, None], zr, (zr + 1j * zi) / np.sqrt(2.0)))
    return bands


def test_zero_site_substream_keys(model, geometry3):
    # a draw takes the high band and then the low band from the generator
    # it is given; a synthetic truth is the zero-site draw from the stream
    # (STAGE_FIELD_UNCOND, STAGE_SYNTH, 0), a conditional draw reads its
    # stream the same way
    T = 40
    params = random_params(model, np.random.default_rng(30), scale=0.3)
    sampler = unconditional_sampler(model, params, geometry3, T)
    plan = sampler.plan
    key = (STAGE_FIELD_UNCOND, STAGE_SYNTH, 0)
    coeffs = sampler.draw(substream(31, *key)).coeffs
    high, low = field_normals(31, key, plan, 3)
    assert np.allclose(coeffs[plan.high], sampler.sd_high[:, None] * high, rtol=1e-12)
    ref = reference_low_band(sampler, low)
    assert np.allclose(coeffs[plan.low], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    stations = [StationMeta(f"S{i}", lat, lon, 300.0)
                for i, (lat, lon) in enumerate(zip(geometry3.lats, geometry3.lons))]
    truth = synth.generate(model, params, stations, tiny_stack(T, 3), T, seed=31)
    assert truth.adjusted.tobytes() == inverse_dft(sampler.draw(substream(31, *key))).tobytes()

    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=32)
    cond = conditional_sampler(model, params, observed, targets, field)
    coeffs = cond.draw(substream(31, STAGE_CONDSIM, 2)).coeffs
    high, low = field_normals(31, (STAGE_CONDSIM, 2), plan, 1)
    assert np.allclose(coeffs[plan.high], cond.sd_high[:, None] * high, rtol=1e-12)
    ref = reference_low_band(cond, low)
    assert np.allclose(coeffs[plan.low], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_each_draw_takes_one_substream(model, monkeypatch, tmp_path):
    # run_ensemble names one stream per member, (STAGE_CONDSIM, k), and
    # nothing else in condsim takes one
    T = 40
    params = random_params(model, np.random.default_rng(30), scale=0.3)
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=32)
    keys = []
    monkeypatch.setattr(condsim, "substream",
                        lambda seed, *key: keys.append(key) or substream(seed, *key))
    for vary in (False, True):
        keys.clear()
        simulate(make_fit(model, params), tiny_stack(T, 1), observed, targets, field,
                 np.full((3, 1), 97.0), vary_params=vary, seed=33, out_dir=tmp_path / str(vary))
        assert keys == [(STAGE_CONDSIM, k) for k in range(3)]


def test_stacked_low_band_matches_per_frequency_reference():
    # cutoff at pi: the low band holds 0 and Nyquist, the real-coefficient rows
    model = SpectralModel(KnotSet.default(4320))
    T = 48
    params = random_params(model, np.random.default_rng(40), scale=0.3)
    observed, targets = make_setup(2)
    sampler = ConditionalSampler(FrequencyPlan(T, model), params, joint(observed, targets),
                                 observed_field(model, params, observed, T, seed=41))
    plan = sampler.plan
    assert plan.real_low.sum() == 2 and len(plan.omega_high) == 0
    for member in range(4):
        coeffs = sampler.draw(substream(42, STAGE_CONDSIM, member)).coeffs
        ref = reference_low_band(sampler, field_normals(42, (STAGE_CONDSIM, member), plan, 2)[1])
        assert np.allclose(coeffs[plan.low], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("omega0_j", [720, 4320])
def test_real_coefficient_frequencies_are_real(omega0_j):
    # 0 is always in the low band; the Nyquist is in the high band at the
    # hourly cutoff and in the low band at a cutoff at pi
    model = SpectralModel(KnotSet.default(omega0_j))
    T = 48
    params = random_params(model, np.random.default_rng(43), scale=0.3)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=44)
    for sampler, stream in (
        (conditional_sampler(model, params, observed, targets, field),
         lambda k: substream(45, STAGE_CONDSIM, k)),
        (unconditional_sampler(model, params, joint(observed, targets), T),
         lambda k: zero_site_stream(45, k)),
    ):
        for member in range(3):
            coeffs = sampler.draw(stream(member)).coeffs
            assert np.all(coeffs[[0, T // 2]].imag == 0.0)
            assert np.all(coeffs[[0, T // 2]].real != 0.0)


def test_shared_plan_builds_each_parameter_vectors_law(model, monkeypatch, tmp_path):
    # one plan reused across parameter vectors gives each vector's
    # conditional law, and run_ensemble computes the spline designs and
    # the combined geometry once, whatever the member count
    T = 40
    rng = np.random.default_rng(37)
    observed, targets = make_setup(2)
    field = observed_field(model, random_params(model, rng), observed, T, seed=38)
    plan = FrequencyPlan(T, model)
    for _ in range(2):
        params = random_params(model, rng)
        sampler = ConditionalSampler(plan, params, joint(observed, targets), field)
        sd_high = np.sqrt(TWO_PI * T * model.eval_S(params, plan.omega_high))
        assert sampler.sd_high.tobytes() == sd_high.tobytes()
        assert not sampler.ridge_frequencies
        check_dense_schur_law(model, params, observed, SiteGeometry.of(targets), field, sampler)

    fit = make_fit(model, random_params(model, rng))
    # each set-up's targets are fresh records, whose geometry run_ensemble computes
    setups = {count: make_setup(2) for count in (2, 4)}
    design, post_init = ConstrainedBasis.design, SiteGeometry.__post_init__
    calls = []
    monkeypatch.setattr(ConstrainedBasis, "design",
                        lambda self, *a, **k: calls.append("design") or design(self, *a, **k))
    monkeypatch.setattr(SiteGeometry, "__post_init__",
                        lambda self: calls.append("geometry") or post_init(self))
    per_count = []
    for count, (observed, targets) in setups.items():
        calls.clear()
        simulate(fit, tiny_stack(T, 2), observed, targets, field, np.full((count, 2), 97.0),
                 vary_params=True, seed=39, out_dir=tmp_path / str(count))
        per_count.append((calls.count("design"), calls.count("geometry")))
    # the targets' geometry and the combined one
    assert per_count[0] == per_count[1] == (5, 2)


def test_conditional_law_at_coherent_targets_matches_schur_law(model):
    # the default truth on the default network: the two held-out targets
    # are coherent with each other and with the observed sites, and theta
    # is nonzero, so the dense complex Schur law sees the phase of `chols`
    T = 288
    stations = synth.default_stations()
    observed, targets = SiteGeometry.of(stations[:11]), stations[11:]
    params = synth.default_true_params(model)
    field = observed_field(model, params, observed, T, seed=49)
    sampler = conditional_sampler(model, params, observed, targets, field)
    cond = check_dense_schur_law(model, params, observed, SiteGeometry.of(targets), field, sampler)
    # a rotation the wrong way round conjugates cond[:, 0, 1]: an error of
    # 2 |Im cond[:, 0, 1]|, far beyond the 1e-12 tolerance
    phase = np.abs(cond[:, 0, 1].imag) / np.sqrt(cond[:, 0, 0].real * cond[:, 1, 1].real)
    assert phase.max() > 1e-4


def test_psd_factor_reads_the_lower_triangle_only():
    # the sampler factors its Schur complements as computed, unsymmetrized;
    # the second matrix has rank one, so its factor comes from eigh
    rng = np.random.default_rng(50)
    A = rng.standard_normal((4, 4))
    sym = np.stack([A @ A.T, np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])])
    assert cholesky_factor(sym)[2].tolist() == [True, False]
    upper = np.triu_indices(4, 1)
    skewed = sym.copy()
    skewed[:, upper[0], upper[1]] += 1e3 * rng.standard_normal((2, 6))
    assert np.array_equal(psd_factor(skewed), psd_factor(sym))


def test_draw_with_cutoff_at_pi_has_no_high_band():
    model = SpectralModel(KnotSet.default(4320))
    T = 48
    params = random_params(model, np.random.default_rng(33), scale=0.3)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=34)
    sampler = conditional_sampler(model, params, observed, targets, field)
    assert len(sampler.plan.omega_high) == 0
    assert len(sampler.plan.omega_low) == T // 2 + 1
    A = inverse_dft(sampler.draw(substream(35, STAGE_CONDSIM, 0)))
    assert A.shape == (2, T) and np.all(np.isfinite(A))


@pytest.mark.parametrize("n_field", [3, 4])
def test_observed_field_must_leave_a_target(model, n_field):
    observed, targets = make_setup()
    params = random_params(model, np.random.default_rng(36))
    with pytest.raises(ValidationError, match=f"observed field has {n_field} sites, "
                                              "leaving no target among the 3 sites"):
        ConditionalSampler(FrequencyPlan(24, model), params, joint(observed, targets),
                           SpectralField(np.zeros((13, n_field)), n_times=24))


@pytest.mark.parametrize("T_plan, T_field", [(24, 25), (25, 24), (48, 24)])
def test_plan_must_be_for_the_observed_fields_length(model, T_plan, T_field):
    # 24 and 25 have the same number of one-sided rows: the row count alone
    # would not tell the plans apart
    observed, targets = make_setup()
    params = random_params(model, np.random.default_rng(36))
    field = SpectralField(np.zeros((T_field // 2 + 1, 2)), n_times=T_field)
    with pytest.raises(ValidationError, match=f"frequency plan is for T = {T_plan}, "
                                              f"the observed field for T = {T_field}"):
        ConditionalSampler(FrequencyPlan(T_plan, model), params, joint(observed, targets), field)


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


def simulate(fit, stack, observed, targets, field, mean_draws, vary_params, seed, out_dir,
             start_time=synth.DEFAULT_START, step_seconds=300.0):
    """`run_ensemble` into `out_dir`: its manifest and `pressure.npy` read back."""
    manifest = run_ensemble(fit, stack, observed, targets, field, mean_draws, vary_params,
                            seed, out_dir, start_time, step_seconds, mean_field={})
    return manifest, np.load(out_dir / "pressure.npy", allow_pickle=False)


def in_memory_ensemble(fit, stack, observed, targets, field, mean_draws, vary_params, seed):
    """The oracle of a streamed `pressure.npy`: the bytes of `np.save` of the
    whole ensemble, its members drawn and inverted into one array."""
    model, count = SpectralModel(fit.knots), len(mean_draws)
    plan = FrequencyPlan(field.n_times, model)
    sites = joint(observed, targets)
    if vary_params:
        samplers = [ConditionalSampler(plan, model.unpack(x), sites, field)
                    for x in sample_params(fit, count, seed)[0]]
    else:
        samplers = [ConditionalSampler(plan, fit.params_hat, sites, field)] * count
    elevations = [s.elevation for s in targets]
    pressure = np.stack([
        invert_stack(inverse_dft(sampler.draw(substream(seed, STAGE_CONDSIM, k))), stack,
                     elevations, mean_draws[k])
        for k, sampler in enumerate(samplers)
    ])
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(pressure))
    return buf.getvalue()


def test_run_ensemble_array_and_mean_draws(model, tmp_path):
    T = 40
    rng = np.random.default_rng(14)
    params = random_params(model, rng)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=15)
    stack = tiny_stack(T, 2)
    fit = make_fit(model, params)
    mean_draws = 97.0 + 0.01 * rng.standard_normal((5, 2))
    manifest, pressure = simulate(fit, stack, observed, targets, field, mean_draws,
                                  vary_params=False, seed=16, out_dir=tmp_path)
    assert manifest["n_members"] == 5
    assert pressure.shape == (5, 2, T + 1)
    assert manifest["param_draw_ids"] == [-1] * 5
    assert np.array_equal(manifest["mean_field_draws"], mean_draws)
    assert np.allclose(pressure.mean(axis=2), mean_draws, atol=1e-9)


def member_by_member(sim_A, stack, elevations, means):
    """One member's inversion with its time means summed in time order: the reference."""
    m, T = sim_A.shape
    diffs = sim_A * stack.volatility.values[None, :] + stack.diurnal.predict(T)[None, :]
    diffs = diffs * np.exp(-np.asarray(elevations) / stack.sea_level.scale_height)[:, None]
    levels = np.concatenate([np.zeros((m, 1)), np.cumsum(diffs, axis=1)], axis=1)
    time_sum = sum(levels.T, np.zeros(m))
    return levels + (means - time_sum / (T + 1))[:, None]


def test_run_ensemble_shares_one_diurnal_cycle(model, monkeypatch, tmp_path):
    T = 40
    rng = np.random.default_rng(17)
    params = random_params(model, rng)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=18)
    stack = replace(tiny_stack(T, 2), diurnal=DiurnalModel(
        period=288, n_harmonics=3, coefficients=rng.normal(scale=0.01, size=6)))
    mean_draws = 97.0 + 0.01 * rng.standard_normal((4, 2))
    sampler = conditional_sampler(model, params, observed, targets, field)
    members = [
        member_by_member(inverse_dft(sampler.draw(substream(19, STAGE_CONDSIM, k))), stack, [s.elevation for s in targets],
                         mean_draws[k])
        for k in range(4)
    ]
    predict = DiurnalModel.predict
    calls = []
    monkeypatch.setattr(DiurnalModel, "predict", lambda self, n: calls.append(n) or predict(self, n))
    _, pressure = simulate(make_fit(model, params), stack, observed, targets, field, mean_draws,
                           vary_params=False, seed=19, out_dir=tmp_path)
    assert calls == [T]
    for k in range(4):
        assert pressure[k].tobytes() == members[k].tobytes()


def test_member_draw_does_not_depend_on_ensemble_size(model, tmp_path):
    T = 40
    rng = np.random.default_rng(46)
    params = random_params(model, rng, scale=0.2)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=47)
    fit = make_fit(model, params)
    mean_draws = 97.0 + 0.01 * rng.standard_normal((5, 2))
    for vary in (False, True):
        small, large = (
            simulate(fit, tiny_stack(T, 2), observed, targets, field, mean_draws[:count],
                     vary_params=vary, seed=48,
                     out_dir=tmp_path / f"{vary}-{count}")[1]
            for count in (3, 5)
        )
        assert small.tobytes() == large[:3].tobytes()


def test_run_ensemble_vary_params_ids(model, tmp_path):
    T = 24
    rng = np.random.default_rng(17)
    params = random_params(model, rng, scale=0.2)
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=18)
    manifest, _ = simulate(make_fit(model, params), tiny_stack(T, 1), observed, targets,
                           field, np.full((3, 1), 97.0),
                           vary_params=True, seed=19, out_dir=tmp_path)
    assert manifest["param_draw_ids"] == [0, 1, 2]


def test_run_ensemble_records_fallbacks(model, tmp_path):
    # coincident observed sites without a nugget make every build ridge
    # (where rounding lets the Cholesky of the singular block pass, that
    # frequency is not ridged, and its law is the ridged law to rounding:
    # see the ridge-rule oracle test); an indefinite Hessian, here in the
    # harmless u-angle direction, is floored
    observed, targets = coincident_observed_setup()
    params = nugget_free_params(model)
    T = 24
    field = observed_field(model, params, observed, T, seed=10)
    args = (tiny_stack(T, 1), observed, targets, field, np.full((3, 1), 97.0))

    fit = make_fit(model, params)
    ens, _ = simulate(fit, *args, vary_params=False, seed=27,
                      out_dir=tmp_path / "mle")
    per_build = len(conditional_sampler(model, params, observed, targets, field).ridge_frequencies)
    assert per_build > 0
    assert ens["provenance"]["ridge_frequencies"] == per_build
    assert ens["provenance"]["hessian_floored"] is False

    fit.hessian[-1, -1] = -1.0
    ens, _ = simulate(fit, *args, vary_params=True, seed=27,
                      out_dir=tmp_path / "ens")
    ridged = sum(
        len(conditional_sampler(model, model.unpack(x), observed, targets, field).ridge_frequencies)
        for x in sample_params(fit, 3, 27)[0]
    )
    assert ridged > 0
    assert ens["provenance"]["ridge_frequencies"] == ridged
    assert ens["provenance"]["hessian_floored"] is True
    manifest = json.loads((tmp_path / "ens" / "manifest.json").read_text())
    assert manifest["provenance"]["ridge_frequencies"] == ridged
    assert manifest["provenance"]["hessian_floored"] is True


def test_run_ensemble_builds_one_sampler_or_one_per_member(model, monkeypatch, tmp_path):
    # one build at member 0 with vary_params off, one per member with it
    # on; the manifest's ridge_frequencies is the sum over the builds
    observed, targets = coincident_observed_setup()
    params = nugget_free_params(model)
    T, count = 24, 3
    field = observed_field(model, params, observed, T, seed=10)
    ridges = []

    class CountingSampler(ConditionalSampler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            ridges.append(len(self.ridge_frequencies))

    monkeypatch.setattr(condsim, "ConditionalSampler", CountingSampler)
    for vary, builds in ((False, 1), (True, count)):
        ridges.clear()
        ens, _ = simulate(make_fit(model, params), tiny_stack(T, 1), observed, targets, field,
                          np.full((count, 1), 97.0), vary_params=vary, seed=27,
                          out_dir=tmp_path / str(vary))
        assert len(ridges) == builds and sum(ridges) > 0
        assert ens["provenance"]["ridge_frequencies"] == sum(ridges)


def test_failed_sampler_build_leaves_the_earlier_ensemble(model, monkeypatch, tmp_path):
    # the build at member 0 fails, or with vary_params on the build at
    # member 1: the ensemble already in the directory stays as it was
    T = 24
    params = random_params(model, np.random.default_rng(36), scale=0.2)
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=1)
    args = (make_fit(model, params), tiny_stack(T, 1), observed, targets, field,
            np.full((3, 1), 97.0))
    simulate(*args, vary_params=False, seed=22, out_dir=tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    builds = []

    class FailingSampler(ConditionalSampler):
        def __init__(self, *args, **kwargs):
            builds.append(len(builds))
            if builds[-1] == fail_at:
                raise ValidationError(f"build {fail_at} failed")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(condsim, "ConditionalSampler", FailingSampler)
    for vary, fail_at in ((False, 0), (True, 1)):
        builds.clear()
        with pytest.raises(ValidationError, match=f"build {fail_at} failed"):
            simulate(*args, vary_params=vary, seed=23, out_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_fit_hash_is_the_fits_with_a_floored_hessian(model, tmp_path):
    # drawing the parameters does not modify the fit, so the manifest's
    # fit_hash is that of the fit report the ensemble was simulated from
    T = 24
    params = random_params(model, np.random.default_rng(50), scale=0.2)
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=51)
    fit = make_fit(model, params)
    fit.hessian = np.eye(model.n_params)
    fit.hessian[-1, -1] = -1.0
    before = fit_hash(fit)
    ens, _ = simulate(fit, tiny_stack(T, 1), observed, targets, field, np.full((2, 1), 97.0),
                      vary_params=True, seed=52, out_dir=tmp_path)
    assert ens["provenance"]["hessian_floored"] is True
    assert ens["provenance"]["fit_hash"] == before
    assert fit_hash(fit) == before


def test_run_ensemble_mean_draw_shape_checked(model, tmp_path):
    T = 24
    rng = np.random.default_rng(20)
    params = random_params(model, rng)
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=21)
    with pytest.raises(ValidationError, match="mean_draws"):
        simulate(make_fit(model, params), tiny_stack(T, 1), observed, targets,
                 field, np.zeros((2, 2)), vary_params=False, seed=22,
                 out_dir=tmp_path / "ens")
    assert not (tmp_path / "ens").exists()


def test_run_ensemble_observed_field_must_match_observed_sites(model, tmp_path):
    # a field of no site would be drawn from as unconditional
    observed, targets = make_setup()
    params = random_params(model, np.random.default_rng(36))
    with pytest.raises(ValidationError, match="observed field has 0 sites, "
                                              "the observed geometry 2"):
        simulate(make_fit(model, params), tiny_stack(24, 1), observed, targets,
                 SpectralField(np.zeros((13, 0)), n_times=24), np.full((1, 1), 97.0),
                 vary_params=False, seed=22, out_dir=tmp_path / "ens")
    assert not (tmp_path / "ens").exists()


def test_run_ensemble_warns_on_coincident_target(model, tmp_path):
    observed, _ = make_setup()
    targets = [StationMeta(id="P0", latitude=36.2, longitude=-97.2, elevation=300.0),
               StationMeta(id="P1", latitude=36.35, longitude=-97.05, elevation=300.0)]
    params = random_params(model, np.random.default_rng(36), scale=0.2)
    field = observed_field(model, params, observed, 24, seed=1)
    with pytest.warns(UserWarning, match="coincides") as record:
        simulate(make_fit(model, params), tiny_stack(24, 2), observed, targets, field,
                 np.full((1, 2), 97.0), vary_params=False, seed=22, out_dir=tmp_path)
    assert [str(w.message).split()[1] for w in record] == ["P0"]


def test_write_ensemble_round_trip(model, tmp_path):
    T = 20
    rng = np.random.default_rng(23)
    params = random_params(model, rng)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=24)
    mean_draws = 97.0 + 0.01 * rng.standard_normal((4, 2))
    args = (make_fit(model, params), tiny_stack(T, 2), observed, targets, field, mean_draws)
    start = datetime(2005, 10, 1, tzinfo=timezone.utc)
    returned, pressure = simulate(*args, vary_params=True, seed=25,
                                  out_dir=tmp_path / "ens", start_time=start, step_seconds=60.0)
    assert sorted(p.name for p in (tmp_path / "ens").iterdir()) == ["manifest.json", "pressure.npy"]
    manifest = json.loads((tmp_path / "ens" / "manifest.json").read_text())
    assert manifest == returned
    assert manifest["n_members"] == 4
    assert manifest["target_ids"] == ["P0", "P1"]
    assert manifest["seed"] == 25
    assert manifest["rng_layout"] == RNG_LAYOUT
    assert manifest["param_draw_ids"] == [0, 1, 2, 3]
    assert manifest["mean_field_draws"] == mean_draws.tolist()
    assert manifest["start_time"] == "2005-10-01T00:00:00+00:00"
    assert manifest["step_seconds"] == 60.0
    assert manifest["mean_field"] == {}
    assert pressure.dtype == np.float64 and pressure.shape == (4, 2, T + 1)
    assert (tmp_path / "ens" / "pressure.npy").read_bytes() == in_memory_ensemble(
        *args, vary_params=True, seed=25)
    # each member's time mean is its mean-field draw
    assert np.allclose(pressure.mean(axis=2), np.array(manifest["mean_field_draws"]), atol=1e-9)


def test_write_ensemble_one_target_in_c_order(model, tmp_path):
    # with one target the whole-ensemble member x time array in memory is
    # Fortran-contiguous; the file holds it in C order
    T = 20
    rng = np.random.default_rng(26)
    params = random_params(model, rng)
    observed, targets = make_setup(1)
    field = observed_field(model, params, observed, T, seed=27)
    args = (make_fit(model, params), tiny_stack(T, 1), observed, targets, field,
            np.full((3, 1), 97.0))
    _, pressure = simulate(*args, vary_params=False, seed=28, out_dir=tmp_path)
    assert pressure.flags.c_contiguous
    assert (tmp_path / "pressure.npy").read_bytes() == in_memory_ensemble(
        *args, vary_params=False, seed=28)


@pytest.mark.parametrize("vary_params", [False, True])
@pytest.mark.parametrize("n_targets", [1, 2])
def test_streamed_ensemble_matches_in_memory_oracle(model, tmp_path, n_targets, vary_params):
    # the file streamed one member at a time, header included, is the
    # np.save of the whole ensemble inverted at once
    T = 30
    rng = np.random.default_rng(53)
    params = random_params(model, rng, scale=0.2)
    observed, targets = make_setup(n_targets)
    field = observed_field(model, params, observed, T, seed=54)
    mean_draws = 97.0 + 0.01 * rng.standard_normal((5, n_targets))
    stack = replace(tiny_stack(T, n_targets), diurnal=DiurnalModel(
        period=288, n_harmonics=3, coefficients=rng.normal(scale=0.01, size=6)))
    args = (make_fit(model, params), stack, observed, targets, field, mean_draws)
    simulate(*args, vary_params=vary_params, seed=55, out_dir=tmp_path)
    assert (tmp_path / "pressure.npy").read_bytes() == in_memory_ensemble(
        *args, vary_params=vary_params, seed=55)


def test_ensemble_peak_memory_does_not_grow_with_members(model, tmp_path):
    # members are streamed to the file: the ensemble's tracemalloc peak at
    # 64 members is that at 4 (a whole-ensemble array of 64 members at
    # T = 2880 and two targets is 2.95 MB)
    T = 2880
    rng = np.random.default_rng(56)
    params = random_params(model, rng, scale=0.2)
    observed, targets = make_setup(2)
    field = observed_field(model, params, observed, T, seed=57)
    fit = make_fit(model, params)
    peaks = {}
    for count in (4, 64):
        tracemalloc.start()
        try:
            run_ensemble(fit, tiny_stack(T, 2), observed, targets, field,
                         np.full((count, 2), 97.0), False, 58, tmp_path / str(count),
                         synth.DEFAULT_START, 300.0, {})
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[64] - peaks[4]) < 0.5e6, peaks


def test_ensemble_bit_reproducible(model, tmp_path):
    T = 20
    rng = np.random.default_rng(26)
    params = random_params(model, rng)
    observed, targets = make_setup()
    field = observed_field(model, params, observed, T, seed=27)
    outs = []
    for sub in ("a", "b"):
        simulate(make_fit(model, params), tiny_stack(T, 1), observed, targets,
                 field, np.full((3, 1), 97.0),
                 vary_params=True, seed=28, out_dir=tmp_path / sub)
        outs.append(
            [(p.name, p.read_bytes()) for p in sorted((tmp_path / sub).iterdir())]
        )
    assert [name for name, _ in outs[0]] == ["manifest.json", "pressure.npy"]
    assert outs[0] == outs[1]


def test_hashes_are_stable_and_sensitive(model, geometry3):
    rng = np.random.default_rng(29)
    params = random_params(model, rng)
    fit = make_fit(model, params)
    assert fit_hash(fit) == fit_hash(fit)
    assert geometry_hash(geometry3) == geometry_hash(geometry3)
    other = SiteGeometry(geometry3.lats + 0.1, geometry3.lons)
    assert geometry_hash(other) != geometry_hash(geometry3)
