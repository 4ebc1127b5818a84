"""Spatial model for monthly mean pressures corrected to sea level.

The per-station monthly means, mapped to sea level, are modeled as a
constant-mean spatial process with variogram theta * G(d), G either a
pure nugget or the linear variogram. The scale theta is estimated by
restricted maximum likelihood on error contrasts; prediction uses
ordinary (intrinsic) kriging, and per-member mean values are drawn from
a multivariate t with n-1 degrees of freedom to propagate the
uncertainty in theta.
"""

from dataclasses import dataclass

import numpy as np

from .condsim import psd_factor
from .errors import GeometryError, ValidationError
from .geometry import SiteGeometry, combine
from .preprocess import SeaLevelModel
from .records import Record
from .rng import STAGE_MEANFIELD, substream
from .splines import null_space

VARIOGRAMS = ("nugget", "linear")


@dataclass
class MeanFieldModel(Record):
    """A REML fit of one variogram; the manifest's `mean_field.chosen`."""

    variogram: str
    theta_hat: float
    reml_loglik: float
    n_fit: int
    values: np.ndarray  # fitted M values (sea-level kPa)
    lats: np.ndarray  # of the fitted stations, in degrees
    lons: np.ndarray


def _variogram_matrix(kind: str, d: np.ndarray) -> np.ndarray:
    """Unit-scale semivariogram gamma(d); multiply by theta for the model."""
    if kind == "nugget":
        return np.where(d > 0, 1.0, 0.0)
    if kind == "linear":
        return d.astype(float)
    raise ValidationError(f"unknown variogram kind {kind!r}")


def reml_fit(values, geometry: SiteGeometry, kind: str) -> MeanFieldModel:
    """Closed-form REML for the scale of a fixed-shape variogram.

    Uses orthonormal error contrasts (rows spanning the complement of the
    constant vector), under which the restricted likelihood is invariant
    to the contrast choice. For the pure nugget this reduces to the
    sample variance.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 3:
        raise ValidationError("REML needs at least 3 stations")
    if kind == "linear" and np.any(
        (geometry.distances + np.eye(n)) <= 0
    ):
        raise GeometryError("linear variogram requires distinct station locations")

    G = _variogram_matrix(kind, geometry.distances)
    W = null_space(np.ones((1, n))).T  # (n-1) x n, orthonormal rows
    # For contrasts a with sum(a)=0, Cov(a'M) = -theta * a' G a.
    K = -W @ G @ W.T
    K = 0.5 * (K + K.T)
    vals = np.linalg.eigvalsh(K)
    if vals.min() <= 0:
        raise GeometryError("variogram contrast covariance is not positive definite")
    y = W @ values
    Kinv_y = np.linalg.solve(K, y)
    q = float(y @ Kinv_y)
    theta = q / (n - 1)
    if theta <= 1e-20 * max(1.0, float(np.mean(values)) ** 2):
        raise ValidationError("degenerate mean values: zero contrast variance")
    sign, logdet = np.linalg.slogdet(K)
    loglik = -0.5 * ((n - 1) * np.log(theta) + logdet + q / theta + (n - 1) * np.log(2 * np.pi))
    return MeanFieldModel(
        variogram=kind,
        theta_hat=theta,
        reml_loglik=float(loglik),
        n_fit=n,
        values=values,
        lats=geometry.lats,
        lons=geometry.lons,
    )


def select_model(values, geometry: SiteGeometry):
    """Fit both variograms; prefer the nugget unless the linear REML
    log-likelihood is better by at least 2.

    Returns (chosen model, {kind: model}).
    """
    fits = {k: reml_fit(values, geometry, k) for k in VARIOGRAMS}
    if fits["linear"].reml_loglik - fits["nugget"].reml_loglik >= 2.0:
        return fits["linear"], fits
    return fits["nugget"], fits


def krige(model: MeanFieldModel, targets: SiteGeometry):
    """Ordinary-kriging predictor and error covariance at the targets.

    Pure nugget: predictor is the sample mean of the fitted values with
    variance theta * (1 + 1/n) and cross-target covariance theta / n.
    Linear variogram: the standard intrinsic-kriging system; a target
    coincident with a station reproduces that station exactly.
    """
    n = model.n_fit
    m = targets.n_sites
    theta = model.theta_hat
    if model.variogram == "nugget":
        pred = np.full(m, model.values.mean())
        cov = np.full((m, m), theta / n) + theta * np.eye(m)
        return pred, cov

    fitted = SiteGeometry(model.lats, model.lons)
    G_oo = theta * _variogram_matrix("linear", fitted.distances)
    d_ot = combine(fitted, targets).distances[:n, n:]
    G_ot = theta * d_ot  # n x m
    d_tt = targets.distances
    G_tt = theta * d_tt

    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = G_oo
    A[:n, n] = 1.0
    A[n, :n] = 1.0
    rhs = np.zeros((n + 1, m))
    rhs[:n] = G_ot
    rhs[n] = 1.0
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("singular kriging system") from exc
    lam = sol[:n]  # n x m weights
    pred = lam.T @ model.values

    # Cov(e_i, e_j) with e = Z(target) - lam' Z, coefficients summing to 0:
    # -sum a b gamma over the joint configuration.
    X = G_ot.T @ lam  # X[i, j] = lam[:, j] . G_ot[:, i]
    cov = -G_tt + X + X.T - lam.T @ G_oo @ lam
    cov = 0.5 * (cov + cov.T)
    # numerical floor: tiny negative eigenvalues from the solve
    vals, vecs = np.linalg.eigh(cov)
    cov = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return pred, cov


def sample_means(model: MeanFieldModel, targets: list, sea_level: SeaLevelModel,
                 count: int, seed: int) -> np.ndarray:
    """Per-member mean-pressure draws at the target station records, mapped off sea level.

    Draws predictor + multivariate-t deviate (df = n_fit - 1, scale matrix
    = kriging covariance) on the sea-level M scale, then multiplies by the
    elevation factor exp(-a / H) to return kPa at the target elevations.
    Rows are keyed by member id, so draws are bit-reproducible per member.
    """
    pred, cov = krige(model, SiteGeometry.of(targets))
    m = len(targets)
    elev = np.array([s.elevation for s in targets], dtype=float)
    df = model.n_fit - 1
    L = psd_factor(cov)
    factor = sea_level.ratio(0.0, elev)
    out = np.empty((count, m))
    for k in range(count):
        rng = substream(seed, STAGE_MEANFIELD, k)
        z = rng.standard_normal(m)
        g = rng.chisquare(df) / df
        draw = pred + (L @ z) / np.sqrt(g)
        out[k] = draw * factor
    return out


def meanfield_to_dict(chosen: MeanFieldModel, fits: dict) -> dict:
    return {
        "chosen": chosen.to_dict(),
        "reml_logliks": {k: f.reml_loglik for k, f in fits.items()},
    }
