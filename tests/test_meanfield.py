"""REML variogram-scale fitting, kriging, and t-distributed mean draws."""

import numpy as np
import pytest

from presim.errors import GeometryError, ValidationError
from presim.geometry import SiteGeometry
from presim.ingest import StationMeta
from presim.meanfield import (
    krige,
    reml_fit,
    sample_means,
    select_model,
)
from presim.preprocess import SeaLevelModel

SEA = SeaLevelModel(log_p0=np.log(101.0), scale_height=8310.0)


def random_geometry(n, seed):
    rng = np.random.default_rng(seed)
    return SiteGeometry(36.0 + rng.uniform(0, 1.0, n), -97.5 + rng.uniform(0, 1.2, n))


def records(geometry, elevations):
    """Target station records at the sites of `geometry`."""
    return [StationMeta(f"T{i}", lat, lon, elev)
            for i, (lat, lon, elev) in enumerate(zip(geometry.lats, geometry.lons, elevations))]


# -- REML -----------------------------------------------------------------


def test_nugget_reml_equals_sample_variance():
    rng = np.random.default_rng(0)
    geo = random_geometry(11, 1)
    M = 101.0 + 0.05 * rng.standard_normal(11)
    model = reml_fit(M, geo, "nugget")
    assert abs(model.theta_hat - np.var(M, ddof=1)) < 1e-10


def test_reml_needs_three_stations():
    geo = random_geometry(2, 2)
    with pytest.raises(ValidationError):
        reml_fit([101.0, 101.1], geo, "nugget")


def test_linear_reml_rejects_duplicate_locations():
    geo = SiteGeometry(np.array([36.0, 36.0, 36.5]), np.array([-97.0, -97.0, -97.2]))
    with pytest.raises(GeometryError):
        reml_fit([101.0, 101.1, 101.2], geo, "linear")


def test_degenerate_constant_values_rejected():
    geo = random_geometry(5, 3)
    with pytest.raises(ValidationError, match="degenerate"):
        reml_fit(np.full(5, 101.0), geo, "nugget")


def test_linear_reml_recovers_scale():
    # simulate an intrinsic field with semivariogram theta * d via the
    # covariance pinned at station 0: C(x,y) = gamma(x,0)+gamma(y,0)-gamma(x,y),
    # which gives Var(M(x)-M(y)) = 2 * theta * d(x,y)
    theta_true = 4e-4
    hits = 0
    reps = 50
    for rep in range(reps):
        geo = random_geometry(50, 100 + rep)
        d = geo.distances
        C = theta_true * (d[:, :1] + d[:1, :] - d)
        C = 0.5 * (C + C.T)
        vals, vecs = np.linalg.eigh(C)
        L = vecs * np.sqrt(np.maximum(vals, 0.0))
        rng = np.random.default_rng(200 + rep)
        M = 101.0 + L @ rng.standard_normal(50)
        model = reml_fit(M, geo, "linear")
        if abs(model.theta_hat / theta_true - 1.0) < 0.30:
            hits += 1
    # theta_hat / theta ~ chi^2_{49}/49, so ~85-90% of draws land within 30%
    assert hits >= 0.75 * reps


def test_select_model_policies():
    rng = np.random.default_rng(4)
    geo = random_geometry(11, 5)
    M = 101.0 + 0.03 * rng.standard_normal(11)
    chosen, fits = select_model(M, geo)
    assert set(fits) == {"nugget", "linear"}
    if fits["linear"].reml_loglik - fits["nugget"].reml_loglik < 2.0:
        assert chosen.variogram == "nugget"


# -- kriging --------------------------------------------------------------


def test_nugget_krige_closed_form():
    rng = np.random.default_rng(6)
    geo = random_geometry(11, 7)
    M = 101.0 + 0.05 * rng.standard_normal(11)
    model = reml_fit(M, geo, "nugget")
    targets = random_geometry(2, 8)
    pred, cov = krige(model, targets)
    assert np.allclose(pred, M.mean(), atol=1e-12)
    theta = model.theta_hat
    assert np.allclose(np.diag(cov), theta * (1 + 1 / 11), atol=1e-12)
    assert cov[0, 1] == pytest.approx(theta / 11, abs=1e-12)


def test_nugget_krige_predictor_permutation_invariant():
    rng = np.random.default_rng(9)
    geo = random_geometry(7, 10)
    M = 101.0 + 0.05 * rng.standard_normal(7)
    perm = rng.permutation(7)
    m1 = reml_fit(M, geo, "nugget")
    m2 = reml_fit(M[perm], SiteGeometry(geo.lats[perm], geo.lons[perm]), "nugget")
    t = random_geometry(1, 11)
    assert krige(m1, t)[0][0] == pytest.approx(krige(m2, t)[0][0], abs=1e-12)


def test_linear_krige_interpolates_at_stations():
    rng = np.random.default_rng(12)
    geo = random_geometry(6, 13)
    M = 101.0 + 0.05 * rng.standard_normal(6)
    model = reml_fit(M, geo, "linear")
    targets = SiteGeometry(geo.lats[[2]], geo.lons[[2]])
    pred, cov = krige(model, targets)
    assert pred[0] == pytest.approx(M[2], abs=1e-8)
    assert abs(cov[0, 0]) < 1e-8


def test_linear_krige_matches_dense_oracle():
    rng = np.random.default_rng(14)
    geo = random_geometry(4, 15)
    M = 101.0 + 0.05 * rng.standard_normal(4)
    model = reml_fit(M, geo, "linear")
    target = random_geometry(1, 16)
    pred, cov = krige(model, target)

    # independent ordinary-kriging solve in variogram form
    from presim.geometry import distance_matrix

    theta = model.theta_hat
    G = theta * geo.distances
    d0 = np.array(
        [
            distance_matrix(
                np.array([geo.lats[i], target.lats[0]]),
                np.array([geo.lons[i], target.lons[0]]),
            )[0, 1]
            for i in range(4)
        ]
    )
    g0 = theta * d0
    A = np.block([[G, np.ones((4, 1))], [np.ones((1, 4)), np.zeros((1, 1))]])
    sol = np.linalg.solve(A, np.concatenate([g0, [1.0]]))
    lam, mu = sol[:4], sol[4]
    assert pred[0] == pytest.approx(lam @ M, abs=1e-10)
    # ordinary-kriging variance in variogram form: lam'g0 + mu
    assert cov[0, 0] == pytest.approx(lam @ g0 + mu, abs=1e-10)


def test_linear_krige_constant_shift_equivariance():
    rng = np.random.default_rng(17)
    geo = random_geometry(6, 18)
    M = 101.0 + 0.05 * rng.standard_normal(6)
    t = random_geometry(2, 19)
    m1 = reml_fit(M, geo, "linear")
    m2 = reml_fit(M + 5.0, geo, "linear")
    assert np.allclose(krige(m2, t)[0], krige(m1, t)[0] + 5.0, atol=1e-9)


# -- mean draws -----------------------------------------------------------


def test_sample_means_deterministic_and_elevation_mapped():
    rng = np.random.default_rng(20)
    geo = random_geometry(11, 21)
    M = 101.0 + 0.05 * rng.standard_normal(11)
    model = reml_fit(M, geo, "nugget")
    t = random_geometry(2, 22)
    elevs = np.array([320.0, 410.0])
    d1 = sample_means(model, records(t, elevs), SEA, count=6, seed=23)
    d2 = sample_means(model, records(t, elevs), SEA, count=6, seed=23)
    assert np.array_equal(d1, d2)
    # same draw at sea level differs exactly by the elevation factor
    d0 = sample_means(model, records(t, np.zeros(2)), SEA, count=6, seed=23)
    factor = np.exp(-elevs / SEA.scale_height)
    assert np.allclose(d1, d0 * factor[None, :], atol=1e-12)


def test_sample_means_degenerate_covariance_returns_predictor():
    rng = np.random.default_rng(24)
    geo = random_geometry(6, 25)
    M = 101.0 + 0.05 * rng.standard_normal(6)
    model = reml_fit(M, geo, "linear")
    t = SiteGeometry(geo.lats[[3]], geo.lons[[3]])  # coincident: kriging variance 0
    draws = sample_means(model, records(t, [0.0]), SEA, count=10, seed=26)
    assert np.allclose(draws, M[3], atol=1e-7)


def test_sample_means_t_scaling():
    rng = np.random.default_rng(27)
    geo = random_geometry(11, 28)
    M = 101.0 + 0.05 * rng.standard_normal(11)
    model = reml_fit(M, geo, "nugget")
    t = random_geometry(1, 29)
    pred, cov = krige(model, t)
    draws = sample_means(model, records(t, [0.0]), SEA, count=20000, seed=30)
    df = model.n_fit - 1
    expected = cov[0, 0] * df / (df - 2)
    assert np.var(draws[:, 0], ddof=1) == pytest.approx(expected, rel=0.10)
