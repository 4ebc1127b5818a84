"""Multivariate Whittle likelihood: periodogram, MLE, and uncertainty.

Conventions (fixed here, validated by the dense-covariance oracle in the
test suite): the DFT is J(w_j) = sum_{t=1..T} A(t) exp(i w_j t) with
w_j = 2 pi j / T, and E[J J*] ~= 2 pi T f(w_j) under the covariance
representation K(x,t) = int f(w) exp(i w t) dw. The log-likelihood is a
one-sided sum over j = 0..floor(T/2): complex frequencies contribute the
circular complex-normal term once, the real-coefficient frequencies
(0 and, for even T, the Nyquist) contribute real-normal terms with a
half weight. Frequencies beyond the coherence cutoff use the closed-form
diagonal shortcut f = S * I.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import ValidationError
from .geometry import SiteGeometry
from .rng import STAGE_PARAM_DRAW, substream
from .spectrum import KnotSet, SpectralModel, SpectralParams, matern32

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpectralField:
    """Per-Fourier-frequency DFT coefficient vectors across sites.

    coeffs[j, x] = J_x(w_j) for j = 0..T-1.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 2:
            raise ValidationError("coeffs must be (T, n_sites)")

    @property
    def n_times(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_sites(self) -> int:
        return self.coeffs.shape[1]


def fourier_frequencies(T: int) -> np.ndarray:
    return TWO_PI * np.arange(T) / T


def forward_dft(A) -> SpectralField:
    """DFT with the t = 1..T phase convention (+i in the exponent)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n, T = A.shape
    if T < 2:
        raise ValidationError("need T >= 2")
    # sum_t A_t e^{i w_j t} = e^{i w_j} * sum_s A_{s+1} e^{i w_j s} = e^{i w_j} T ifft(A)_j
    J = T * np.fft.ifft(A, axis=1) * np.exp(1j * fourier_frequencies(T))[None, :]
    return SpectralField(coeffs=J.T)


def inverse_dft(spec: SpectralField, imag_tol: float = 1e-9) -> np.ndarray:
    """Invert forward_dft; asserts the result is real to within imag_tol."""
    J = spec.coeffs.T  # n x T
    T = J.shape[1]
    X = J * np.exp(-1j * fourier_frequencies(T))[None, :]
    A = np.fft.fft(X, axis=1) / T
    scale = max(np.sqrt(np.mean(np.abs(A) ** 2)), 1e-300)
    worst = np.abs(A.imag).max() / scale
    if worst > imag_tol:
        raise ValidationError(
            f"inverse DFT produced imaginary residual {worst:.2e} relative; "
            "input is not conjugate-symmetric"
        )
    return A.real


class FrequencyPlan:
    """One-sided Fourier frequencies of a length-T series, split at the cutoff.

    Indices j = 0..floor(T/2) at w_j = 2 pi j / T, with weight 1 except 0.5
    at the real-coefficient frequencies (0 and, for even T, the Nyquist).
    The low band w_j <= omega0 carries cross-site coherence; the high band
    beyond it is diagonal. A cutoff that lands on a Fourier frequency (up
    to rounding) puts that frequency in the low band.
    """

    def __init__(self, T: int, omega0: float):
        self.idx = np.arange(T // 2 + 1)
        self.omegas = fourier_frequencies(T)[self.idx]
        self.weights = np.ones(len(self.idx))
        self.weights[0] = 0.5
        if T % 2 == 0:
            self.weights[-1] = 0.5
        self.low = self.omegas <= omega0 + 1e-15
        self.idx_low, self.idx_high = self.idx[self.low], self.idx[~self.low]
        self.omega_low, self.omega_high = self.omegas[self.low], self.omegas[~self.low]
        self.w_low, self.w_high = self.weights[self.low], self.weights[~self.low]
        self.real_low, self.real_high = self.w_low == 0.5, self.w_high == 0.5


class WhittleObjective:
    """Whittle log-likelihood for a fixed data field and geometry.

    Precomputes the frequency plan at construction so repeated
    evaluations during optimization stay cheap. Evaluations accumulate in
    a fixed frequency order, so results are independent of any outer
    parallelism.
    """

    def __init__(self, model: SpectralModel, spec: SpectralField, geometry: SiteGeometry):
        if spec.n_sites != geometry.n_sites:
            raise ValidationError("field and geometry site counts differ")
        self.model = model
        self.spec = spec
        self.geometry = geometry
        self.T = spec.n_times
        self.n = spec.n_sites

        self.plan = FrequencyPlan(self.T, model.knots.omega0)
        self.J_low = spec.coeffs[self.plan.idx_low]  # K x n
        self.Q_high = np.sum(np.abs(spec.coeffs[self.plan.idx_high]) ** 2, axis=1)

    def loglik(self, params: SpectralParams) -> float:
        m, plan = self.model, self.plan
        scale = TWO_PI * self.T

        f = m.cross_spectrum_stack(params, self.geometry, plan.omega_low)
        try:
            L = np.linalg.cholesky(f)
        except np.linalg.LinAlgError:
            for k, om in enumerate(plan.omega_low):
                try:
                    np.linalg.cholesky(f[k])
                except np.linalg.LinAlgError:
                    raise ValidationError(
                        f"singular spectral matrix at frequency {om:.6f}"
                    ) from None
            raise
        logdet = 2.0 * np.sum(np.log(np.einsum("kii->ki", L).real), axis=1)
        x = np.linalg.solve(f, self.J_low[..., None])[..., 0]
        quad = np.einsum("ki,ki->k", np.conj(self.J_low), x).real
        ll = -np.sum(plan.w_low * (logdet + quad / scale))

        S_high = m.eval_S(params, plan.omega_high)
        ll -= np.sum(
            plan.w_high * (self.n * np.log(S_high) + self.Q_high / (scale * S_high))
        )
        return float(ll)

    def loglik_vec(self, vec) -> float:
        return self.loglik(self.model.unpack(vec))


# -- numerical derivatives ----------------------------------------------


def numeric_gradient(fun, x, rel_step: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        h = rel_step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def numeric_hessian(fun, x, rel_step: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    p = len(x)
    h = rel_step * np.maximum(1.0, np.abs(x))
    H = np.empty((p, p))
    f0 = fun(x)
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h[i]
        H[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / h[i] ** 2
        for jj in range(i + 1, p):
            ej = np.zeros(p)
            ej[jj] = h[jj]
            H[i, jj] = (
                fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * h[i] * h[jj])
    H = np.triu(H) + np.triu(H, 1).T
    return 0.5 * (H + H.T)


# -- fitting -------------------------------------------------------------


@dataclass
class FitOptions:
    max_iter: int = 500
    gtol: float = 1e-3
    grad_rel_step: float = 1e-5


@dataclass
class FitResult:
    params_hat: SpectralParams
    loglik: float
    hessian: np.ndarray
    convergence: dict
    knots: KnotSet
    hessian_min_eig: float = float("nan")
    hessian_floored: bool = False

    def to_dict(self) -> dict:
        return {
            "knots": self.knots.to_dict(),
            "params": self.params_hat.to_dict(),
            "loglik": self.loglik,
            "hessian": np.asarray(self.hessian).tolist(),
            "convergence": self.convergence,
            "hessian_min_eig": self.hessian_min_eig,
            "hessian_floored": self.hessian_floored,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        return cls(
            params_hat=SpectralParams.from_dict(d["params"]),
            loglik=float(d["loglik"]),
            hessian=np.array(d["hessian"]),
            convergence=dict(d["convergence"]),
            knots=KnotSet.from_dict(d["knots"]),
            hessian_min_eig=float(d.get("hessian_min_eig", float("nan"))),
            hessian_floored=bool(d.get("hessian_floored", False)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        return cls.from_dict(json.loads(text))


def fit_mle(model: SpectralModel, initial: SpectralParams, spec: SpectralField,
            geometry: SiteGeometry, options: FitOptions | None = None,
            compute_hessian: bool = True) -> FitResult:
    """Maximize the Whittle likelihood by quasi-Newton ascent.

    Gradients are central differences with a per-coordinate relative step;
    the returned Hessian is of the negative log-likelihood at the optimum.
    Deterministic given inputs.
    """
    options = options or FitOptions()
    obj = WhittleObjective(model, spec, geometry)
    x0 = initial.pack()
    f0 = obj.loglik_vec(x0)
    if not np.isfinite(f0):
        raise ValidationError("log-likelihood not finite at the initial point")

    def neg(x):
        try:
            return -obj.loglik_vec(x)
        except ValidationError:
            return np.inf

    def neg_grad(x):
        return numeric_gradient(neg, x, rel_step=options.grad_rel_step)

    res = minimize(
        neg, x0, jac=neg_grad, method="BFGS",
        options={"maxiter": options.max_iter, "gtol": options.gtol},
    )
    best = res.x if -res.fun >= f0 else x0
    params_hat = model.unpack(best)
    loglik = obj.loglik_vec(best)
    convergence = {
        "status": "converged" if res.success else "max_iter_or_stalled",
        "iterations": int(res.nit),
        "grad_inf_norm": float(np.max(np.abs(res.jac))) if res.jac is not None else float("nan"),
        "message": str(res.message),
    }
    if compute_hessian:
        H = numeric_hessian(neg, best)
        min_eig = float(np.linalg.eigvalsh(H).min())
    else:
        H = np.full((model.n_params, model.n_params), np.nan)
        min_eig = float("nan")
    return FitResult(
        params_hat=params_hat,
        loglik=loglik,
        hessian=H,
        convergence=convergence,
        knots=model.knots,
        hessian_min_eig=min_eig,
    )


def sample_params(model: SpectralModel, fit: FitResult, count: int, seed: int):
    """Draw parameter vectors from N(theta_hat, H^{-1}).

    If the Hessian is not positive definite it is projected by flooring
    its eigenvalues at 1e-8 times the largest one; the draw list then
    carries floored=True in the fit result.
    """
    H = np.asarray(fit.hessian, dtype=float)
    try:
        L = np.linalg.cholesky(H)
        floored = False
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(H)
        floor = 1e-8 * vals.max()
        vals = np.maximum(vals, floor)
        L = np.linalg.cholesky((vecs * vals) @ vecs.T)
        floored = True
    fit.hessian_floored = fit.hessian_floored or floored
    mean = fit.params_hat.pack()
    draws = []
    for k in range(count):
        rng = substream(seed, STAGE_PARAM_DRAW, k)
        z = rng.standard_normal(len(mean))
        # cov of L'^{-1} z is (L L')^{-1} = H^{-1}
        x = mean + np.linalg.solve(L.T, z)
        draws.append(model.unpack(x))
    return draws


# -- data-driven initialization ------------------------------------------


def initial_params(model: SpectralModel, spec: SpectralField,
                   geometry: SiteGeometry) -> SpectralParams:
    """Starting point for the optimizer.

    S comes from a least-squares spline fit to the log of the smoothed
    average periodogram; beta starts at 0 (equal split), delta from a
    coarse coherence-range heuristic on the closest station pair, theta
    at 0 and u pointing west.
    """
    T = spec.n_times
    plan = FrequencyPlan(T, model.knots.omega0)
    omegas = plan.omegas
    J = spec.coeffs[plan.idx]
    pgram = np.mean(np.abs(J) ** 2, axis=1) / (TWO_PI * T)
    logp = np.log(np.maximum(pgram, 1e-300))
    win = max(5, min(101, (len(logp) // 40) | 1))
    kernel = np.ones(win) / win
    pad = np.concatenate([logp[:win][::-1], logp, logp[-win:][::-1]])
    smooth = np.convolve(pad, kernel, mode="same")[win:-win]
    B = model.basis_S.design(omegas)
    s_coeffs, *_ = np.linalg.lstsq(B, smooth, rcond=None)

    d = geometry.distances + np.diag(np.full(geometry.n_sites, np.inf))
    jmin, kmin = np.unravel_index(np.argmin(d), d.shape)
    dmin = d[jmin, kmin]
    in_band = plan.low & (omegas > 0)
    band_edges = np.quantile(omegas[in_band], [0.0, 0.25, 0.5, 0.75, 1.0])
    centers, targets = [], []
    for lo, hi in zip(band_edges[:-1], band_edges[1:]):
        sel = in_band & (omegas >= lo) & (omegas <= hi)
        if sel.sum() < 3:
            continue
        cross = np.mean(J[sel, jmin] * np.conj(J[sel, kmin]))
        p1 = np.mean(np.abs(J[sel, jmin]) ** 2)
        p2 = np.mean(np.abs(J[sel, kmin]) ** 2)
        coh = min(abs(cross) / np.sqrt(p1 * p2), 0.95)
        # invert C(dmin/delta) * 0.5 = coh for delta, assuming an even split
        target_c = min(2.0 * coh, 0.98)
        if target_c <= matern32(50.0):
            delta_band = dmin / 50.0
        else:
            r = brentq(lambda rr: matern32(rr) - target_c, 1e-9, 50.0)
            delta_band = dmin / r if r > 1e-8 else dmin * 10.0
        centers.append((lo + hi) / 2.0)
        targets.append(delta_band)
    if centers:
        Bd = model.basis_delta.design(np.array(centers))
        delta_coeffs, *_ = np.linalg.lstsq(Bd, np.array(targets), rcond=None)
    else:
        delta_coeffs = np.zeros(model.basis_delta.dimension)

    return SpectralParams(
        s_coeffs=s_coeffs,
        beta_coeffs=np.zeros(model.basis_beta.dimension),
        delta_coeffs=delta_coeffs,
        theta_coeffs=np.zeros(model.basis_theta.dimension),
        u_angle=np.pi,
    )
