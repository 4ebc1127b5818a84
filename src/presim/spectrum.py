"""Parameterized cross-spectral model for the adjusted pressure field.

At each frequency w the n x n cross-spectral matrix is

    f_jk(w) = S0(w) 1{j=k} + S1(w) C(d_jk / |delta(w)|) exp(i u.(x_j - x_k) theta(w))

with C the Matern-3/2 correlation, S = S0 + S1 the marginal spectrum,
beta = log(S1/S0) the logistic split, delta the coherence range in km
(C takes r = d / |delta|), theta the phase slope and u a unit direction
vector. delta and theta are identically zero beyond the cutoff
frequency, where the matrix collapses to S(w) * I (zero cross-site
coherence).

The phase factor splits into a per-site factor and its conjugate, so

    f(w) = D(w) R(w) D(w)*,  D = diag(exp(i theta(w) u.p_x)),
    R(w) = S0(w) I + S1(w) C,

with p_x the site's planar position: every matrix is a diagonal-unitary
similarity of the real, symmetric, positive definite R. The likelihood
and the sampler do all their linear algebra on R.

S is exp(spline) to guarantee positivity; all shape constraints live in
the constrained spline bases, so the parameter space is unconstrained.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .geometry import SiteGeometry
from .records import Record
from .splines import ConstrainedBasis

# Appendix-style default knots, as integer multiples j of pi/4320.
DEFAULT_S_J = (0, 10, 30, 60, 120, 400, 720, 4320)
DEFAULT_DELTA_J = (0, 5, 10, 15, 25, 40, 60, 90, 150, 240, 360, 480, 600, 720)
DEFAULT_BETA_J = (0, 40, 120, 360, 720)
DEFAULT_THETA_J = (0, 40, 120, 360, 720)
KNOT_UNIT = np.pi / 4320.0
OMEGA0_J = 720  # default coherence cutoff, in KNOT_UNITs: the hourly pi/6
# cap on r = d / |delta|: exp(-R_CAP) and R_CAP^3 exp(-R_CAP) are 0 in double precision
R_CAP = 1e3


@dataclass(frozen=True)
class KnotSet(Record):
    """Positive knot frequencies (radians/step) for the four spline bases.

    Each array starts at 0; the delta/theta/beta arrays end at the cutoff
    frequency omega0 and the S array ends at pi.
    """

    s_knots: tuple
    beta_knots: tuple
    delta_knots: tuple
    theta_knots: tuple
    omega0: float

    def __post_init__(self):
        for name in ("beta_knots", "delta_knots", "theta_knots"):
            k = getattr(self, name)
            if abs(k[-1] - self.omega0) > 1e-12:
                raise ConfigurationError(f"{name} must end at omega0={self.omega0}")
        if abs(self.s_knots[-1] - np.pi) > 1e-12:
            raise ConfigurationError("s_knots must end at pi")
        if not (0.0 < self.omega0 <= np.pi):
            raise ConfigurationError("omega0 must lie in (0, pi]")

    @classmethod
    def default(cls, omega0_j: int = OMEGA0_J) -> "KnotSet":
        """Default knots; omega0_j=720 (`OMEGA0_J`) gives the hourly cutoff pi/6.

        omega0_j=4320 reproduces the 'cutoff at pi' variant: a knot at pi
        is appended to the delta/beta/theta lists, other knots unchanged.
        """

        def scale(js, last):
            js = [v for v in js if v < last] + [last]
            return tuple(v * KNOT_UNIT for v in js)

        return cls(
            s_knots=scale(DEFAULT_S_J, 4320),
            beta_knots=scale(DEFAULT_BETA_J, omega0_j),
            delta_knots=scale(DEFAULT_DELTA_J, omega0_j),
            theta_knots=scale(DEFAULT_THETA_J, omega0_j),
            omega0=omega0_j * KNOT_UNIT,
        )


@dataclass(frozen=True)
class SpectralParams(Record):
    """Coefficients of the four constrained splines plus the direction angle."""

    s_coeffs: np.ndarray
    beta_coeffs: np.ndarray
    delta_coeffs: np.ndarray
    theta_coeffs: np.ndarray
    u_angle: float

    def __post_init__(self):
        for name in ("s_coeffs", "beta_coeffs", "delta_coeffs", "theta_coeffs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        if not np.isfinite(self.u_angle):
            raise ValidationError("u_angle must be finite")

    @property
    def u(self) -> np.ndarray:
        """Unit direction vector (east, north)."""
        return np.array([np.cos(self.u_angle), np.sin(self.u_angle)])

    @property
    def u_perp(self) -> np.ndarray:
        """d u / d u_angle: u turned a quarter turn counter-clockwise."""
        return np.array([-np.sin(self.u_angle), np.cos(self.u_angle)])

    def pack(self) -> np.ndarray:
        return np.concatenate(
            [
                self.s_coeffs,
                self.beta_coeffs,
                self.delta_coeffs,
                self.theta_coeffs,
                [self.u_angle],
            ]
        )


@dataclass(frozen=True)
class CrossSpectrumTerms:
    """The factors of f = D R D* at K frequencies.

    Per frequency: S, sig = S1 / S, the signed delta and theta splines.
    Per frequency and site: the phase factors D = exp(i theta u.p), (K, n).
    Per frequency and site pair: r = d / |delta| capped at R_CAP (where
    C is exactly 0), the Matern correlation C and the real symmetric
    R = S (1 - sig) I + S sig C, (K, n, n).
    """

    S: np.ndarray
    sig: np.ndarray
    delta: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    C: np.ndarray
    R: np.ndarray
    D: np.ndarray


def matern32(r):
    """Matern correlation with smoothness 3/2: exp(-r) * (1 + r)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("matern32 requires r >= 0")
    return np.exp(-r) * (1.0 + r)


class SpectralModel:
    """Binds a KnotSet to its constrained bases and evaluates the model."""

    def __init__(self, knots: KnotSet):
        self.knots = knots
        self.basis_S = ConstrainedBasis("even", knots.s_knots, [1], zero_outside=False)
        self.basis_beta = ConstrainedBasis(
            "even", knots.beta_knots, [1, 2], zero_outside=False
        )
        self.basis_delta = ConstrainedBasis("even", knots.delta_knots, [0, 1, 2])
        self.basis_theta = ConstrainedBasis("odd", knots.theta_knots, [0, 1, 2])

    @property
    def dimensions(self) -> dict:
        return {
            "s": self.basis_S.dimension,
            "beta": self.basis_beta.dimension,
            "delta": self.basis_delta.dimension,
            "theta": self.basis_theta.dimension,
            "u": 1,
        }

    @property
    def n_params(self) -> int:
        return sum(self.dimensions.values())

    def unpack(self, vec) -> SpectralParams:
        vec = np.asarray(vec, dtype=float)
        d = self.dimensions
        if vec.shape != (self.n_params,):
            raise ValidationError(
                f"parameter vector length {vec.shape} != {self.n_params}"
            )
        i = 0
        parts = {}
        for name in ("s", "beta", "delta", "theta"):
            parts[name] = vec[i : i + d[name]]
            i += d[name]
        return SpectralParams(
            s_coeffs=parts["s"],
            beta_coeffs=parts["beta"],
            delta_coeffs=parts["delta"],
            theta_coeffs=parts["theta"],
            u_angle=vec[i],
        )

    # -- scalar spectral functions -------------------------------------

    def eval_S(self, params: SpectralParams, omega):
        """Marginal spectrum S(w) = exp(spline(|w|)); strictly positive."""
        return np.exp(self.basis_S.evaluate(params.s_coeffs, omega))

    def eval_delta(self, params: SpectralParams, omega):
        """Coherence range in km (r = d / |delta|); exactly 0 beyond the cutoff."""
        return self.basis_delta.evaluate(params.delta_coeffs, omega)

    def _coherent_share(self, beta, omega):
        """S1 / S = logistic(beta), and 0 beyond the cutoff."""
        # logistic(beta) from one exponential that cannot overflow
        e = np.exp(-np.abs(beta))
        sig = np.where(beta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return np.where(np.abs(omega) > self.knots.omega0, 0.0, sig)

    # -- matrix assembly -------------------------------------------------

    def designs(self, omegas) -> tuple:
        """Design matrices of the S, beta, delta and theta bases at `omegas`."""
        return tuple(
            b.design(omegas)
            for b in (self.basis_S, self.basis_beta, self.basis_delta, self.basis_theta)
        )

    def cross_spectrum_terms(self, params: SpectralParams, geometry: SiteGeometry,
                             omegas, designs) -> CrossSpectrumTerms:
        """The real matrices R and phase factors D of the cross-spectral stack.

        `designs` are the matrices of `designs(omegas)`, computed once by
        callers that evaluate the same frequencies repeatedly.
        """
        B_S, B_beta, B_delta, B_theta = designs
        S = np.exp(B_S @ params.s_coeffs)
        sig = self._coherent_share(B_beta @ params.beta_coeffs, omegas)
        S1 = S * sig
        S0 = S - S1
        delta = B_delta @ params.delta_coeffs
        theta = B_theta @ params.theta_coeffs
        d = geometry.distances

        # r = d / |delta| capped at R_CAP, where C and dC/d|delta| are exactly 0:
        # delta == 0 or so small that d / |delta| would overflow gives zero
        # coherence at d > 0 and full correlation at d = 0
        r = d / np.maximum(np.abs(delta), 1e-300)[:, None, None]
        np.minimum(r, R_CAP, out=r)
        C = np.exp(-r) * (1.0 + r)

        R = S1[:, None, None] * C
        np.einsum("kii->ki", R)[:] += S0[:, None]
        phase = theta[:, None] * (geometry.positions @ params.u)[None, :]
        D = np.exp(1j * phase)
        return CrossSpectrumTerms(S=S, sig=sig, delta=delta, theta=theta,
                                  r=r, C=C, R=R, D=D)
