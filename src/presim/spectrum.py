"""Parameterized cross-spectral model for the adjusted pressure field.

At each frequency w the n x n cross-spectral matrix is

    f_jk(w) = S0(w) 1{j=k} + S1(w) C(d_jk / |delta(w)|) exp(i u.(x_j - x_k) theta(w))

with C the Matern-3/2 correlation, S = S0 + S1 the marginal spectrum,
beta = log(S1/S0) the logistic split, delta the inverse coherence range,
theta the phase slope and u a unit direction vector. delta and theta are
identically zero beyond the cutoff frequency, where the matrix collapses
to S(w) * I (zero cross-site coherence).

S is exp(spline) to guarantee positivity; all shape constraints live in
the constrained spline bases, so the parameter space is unconstrained.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ValidationError
from .geometry import SiteGeometry
from .splines import ConstrainedBasis

# Appendix-style default knots, as integer multiples j of pi/4320.
DEFAULT_S_J = (0, 10, 30, 60, 120, 400, 720, 4320)
DEFAULT_DELTA_J = (0, 5, 10, 15, 25, 40, 60, 90, 150, 240, 360, 480, 600, 720)
DEFAULT_BETA_J = (0, 40, 120, 360, 720)
DEFAULT_THETA_J = (0, 40, 120, 360, 720)
KNOT_UNIT = np.pi / 4320.0


@dataclass(frozen=True)
class KnotSet:
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
    def default(cls, omega0_j: int = 720) -> "KnotSet":
        """Default knots; omega0_j=720 gives the hourly cutoff pi/6.

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

    def to_dict(self) -> dict:
        return {
            "s_knots": list(self.s_knots),
            "beta_knots": list(self.beta_knots),
            "delta_knots": list(self.delta_knots),
            "theta_knots": list(self.theta_knots),
            "omega0": self.omega0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KnotSet":
        return cls(
            s_knots=tuple(d["s_knots"]),
            beta_knots=tuple(d["beta_knots"]),
            delta_knots=tuple(d["delta_knots"]),
            theta_knots=tuple(d["theta_knots"]),
            omega0=float(d["omega0"]),
        )


@dataclass(frozen=True)
class SpectralParams:
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

    def to_dict(self) -> dict:
        return {
            "s_coeffs": self.s_coeffs.tolist(),
            "beta_coeffs": self.beta_coeffs.tolist(),
            "delta_coeffs": self.delta_coeffs.tolist(),
            "theta_coeffs": self.theta_coeffs.tolist(),
            "u_angle": float(self.u_angle),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralParams":
        return cls(
            s_coeffs=np.array(d["s_coeffs"], dtype=float),
            beta_coeffs=np.array(d["beta_coeffs"], dtype=float),
            delta_coeffs=np.array(d["delta_coeffs"], dtype=float),
            theta_coeffs=np.array(d["theta_coeffs"], dtype=float),
            u_angle=float(d["u_angle"]),
        )


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

    def zero_params(self) -> SpectralParams:
        d = self.dimensions
        return SpectralParams(
            np.zeros(d["s"]), np.zeros(d["beta"]), np.zeros(d["delta"]),
            np.zeros(d["theta"]), 0.0,
        )

    # -- scalar spectral functions -------------------------------------

    def eval_S(self, params: SpectralParams, omega):
        """Marginal spectrum S(w) = exp(spline(|w|)); strictly positive."""
        return np.exp(self.basis_S.evaluate(params.s_coeffs, omega))

    def eval_beta(self, params: SpectralParams, omega):
        return self.basis_beta.evaluate(params.beta_coeffs, omega)

    def eval_delta(self, params: SpectralParams, omega):
        """Inverse coherence range; exactly 0 beyond the cutoff."""
        return self.basis_delta.evaluate(params.delta_coeffs, omega)

    def eval_theta(self, params: SpectralParams, omega):
        """Odd phase slope (radians/km); exactly 0 beyond the cutoff."""
        return self.basis_theta.evaluate(params.theta_coeffs, omega)

    def split_S(self, params: SpectralParams, omega):
        """Logistic split of the marginal spectrum into (S0, S1).

        S0 = S / (1 + exp(beta)), S1 = S - S0 exactly. Beyond the cutoff
        the split is irrelevant (coherence is 0); all power is returned in
        the diagonal S0 term there.
        """
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        S = self.eval_S(params, omega)
        beta = self.eval_beta(params, omega)
        # logistic(beta) from one exponential that cannot overflow
        e = np.exp(-np.abs(beta))
        sig = np.where(beta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        S1 = S * sig
        S0 = S - S1
        beyond = np.abs(omega) > self.knots.omega0
        S0 = np.where(beyond, S, S0)
        S1 = np.where(beyond, 0.0, S1)
        return S0, S1

    # -- matrix assembly -------------------------------------------------

    def cross_spectrum_stack(self, params: SpectralParams, geometry: SiteGeometry,
                             omegas) -> np.ndarray:
        """Stack of n x n Hermitian cross-spectral matrices, one per frequency."""
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        n = geometry.n_sites
        S0, S1 = self.split_S(params, omegas)
        delta = np.abs(self.eval_delta(params, omegas))
        theta = self.eval_theta(params, omegas)
        d = geometry.distances
        ux = geometry.displacements @ params.u

        with np.errstate(divide="ignore", invalid="ignore"):
            r = d[None, :, :] / delta[:, None, None]
        # delta == 0: zero coherence at d > 0, full correlation at d = 0
        r = np.where(np.isfinite(r), r, np.inf)
        np.einsum("kii->ki", r)[:] = 0.0
        far = np.isinf(r)
        r_fin = np.where(far, 0.0, r)
        C = np.where(far, 0.0, np.exp(-r_fin) * (1.0 + r_fin))
        np.einsum("kii->ki", C)[:] = 1.0

        phase = np.exp(1j * ux[None, :, :] * theta[:, None, None])
        f = S1[:, None, None] * C * phase
        f = f + S0[:, None, None] * np.eye(n)[None, :, :]
        return f

    def cross_spectrum(self, params: SpectralParams, geometry: SiteGeometry,
                       omega: float) -> np.ndarray:
        """Single-frequency n x n Hermitian cross-spectral matrix."""
        return self.cross_spectrum_stack(params, geometry, [omega])[0]

    def coherence(self, params: SpectralParams, geometry: SiteGeometry,
                  omega: float, j: int, k: int) -> complex:
        """Complex coherence f_jk / sqrt(f_jj f_kk) between two sites."""
        f = self.cross_spectrum(params, geometry, omega)
        return f[j, k] / np.sqrt(f[j, j].real * f[k, k].real)

    # -- serialization -----------------------------------------------------

    def params_to_json(self, params: SpectralParams) -> str:
        return json.dumps(
            {"knots": self.knots.to_dict(), "params": params.to_dict()}, indent=2
        )


def params_from_json(text: str):
    d = json.loads(text)
    return KnotSet.from_dict(d["knots"]), SpectralParams.from_dict(d["params"])
