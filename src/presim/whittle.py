"""Multivariate Whittle likelihood: periodogram, MLE, and uncertainty.

Conventions (fixed here, validated by the dense-covariance oracle in the
test suite): the DFT is J(w_j) = sum_{t=1..T} A(t) exp(i w_j t) with
w_j = 2 pi j / T, and E[J J*] ~= 2 pi T f(w_j) under the covariance
representation K(x,t) = int f(w) exp(i w t) dw. A real series has
J(w_{T-j}) = conj(J(w_j)), so a spectral field holds only the one-sided
frequencies j = 0..floor(T/2), row j at w_j. The log-likelihood is a sum
over these rows: complex frequencies contribute the circular
complex-normal term once, the real-coefficient frequencies (0 and, for
even T, the Nyquist) contribute real-normal terms with a half weight.
Frequencies beyond the coherence cutoff use the closed-form diagonal
shortcut f = S * I.
"""

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ValidationError
from .geometry import SiteGeometry
from .records import Record
from .rng import STAGE_PARAM_DRAW, substream
from .spectrum import CrossSpectrumTerms, KnotSet, SpectralModel, SpectralParams, matern32

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpectralField:
    """DFT coefficient vectors across sites at the one-sided frequencies.

    coeffs[j, x] = J_x(w_j) for j = 0..floor(T/2) with T = n_times; the
    negative frequencies are the conjugates of these rows. T is kept
    because the row count does not tell an even T from the next odd one.
    """

    coeffs: np.ndarray
    n_times: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 2 or len(coeffs) != self.n_times // 2 + 1:
            raise ValidationError(
                f"coeffs must be (floor(T/2)+1, n_sites) for T = {self.n_times}; "
                f"got shape {coeffs.shape}"
            )

    @property
    def n_sites(self) -> int:
        return self.coeffs.shape[1]


def fourier_frequencies(T: int) -> np.ndarray:
    """The one-sided Fourier frequencies w_j = 2 pi j / T, j = 0..floor(T/2)."""
    return TWO_PI * np.arange(T // 2 + 1) / T


def forward_dft(A) -> SpectralField:
    """DFT with the t = 1..T phase convention (+i in the exponent)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n, T = A.shape
    if T < 2:
        raise ValidationError("need T >= 2")
    # sum_t A_t e^{i w_j t} = e^{i w_j} * conj(sum_s A_{s+1} e^{-i w_j s}) for real A
    J = np.exp(1j * fourier_frequencies(T))[:, None] * np.conj(np.fft.rfft(A, axis=1).T)
    return SpectralField(coeffs=J, n_times=T)


def inverse_dft(spec: SpectralField) -> np.ndarray:
    """Invert forward_dft: the real (n_sites, T) series of a spectral field.

    Every coefficient must be finite, and those at frequency 0 and, for
    even T, the Nyquist real to 1e-9 of the largest coefficient.
    """
    T = spec.n_times
    J = spec.coeffs
    if not np.isfinite(J).all():
        raise ValidationError("inverse DFT: a coefficient is not finite")
    real_rows = J[[0, T // 2]] if T % 2 == 0 else J[:1]
    worst = np.abs(real_rows.imag).max(initial=0.0) / max(np.abs(J).max(initial=0.0), 1e-300)
    if worst > 1e-9:
        raise ValidationError(
            f"inverse DFT: coefficient at frequency 0 or Nyquist is not real "
            f"(imaginary part {worst:.2e} relative)"
        )
    X = np.conj(J * np.exp(-1j * fourier_frequencies(T))[:, None])  # rfft of the series
    return np.fft.irfft(X.T, n=T, axis=1)


class FrequencyPlan:
    """The rows of a one-sided spectral field, split at the cutoff, with the model's designs.

    Row j is the Fourier frequency w_j = 2 pi j / T, j = 0..floor(T/2),
    with weight 1 except 0.5 at the real-coefficient rows (0 and, for even
    T, the Nyquist). The low band, rows [:K] where w_j <= omega0, carries
    cross-site coherence; the high band, rows [K:], is diagonal, f = S I.
    A cutoff that lands on a Fourier frequency (up to rounding) puts that
    frequency in the low band. `low` and `high` are the slices of the two
    bands. The plan is the one owner of this split: the bases and the
    model evaluate the frequencies they are given, none compares with omega0.

    It also holds the designs of `model`: all four at the low band, S's at
    the high band. A fit's objective and start point share one plan, and so
    do all the samplers of an ensemble.
    """

    def __init__(self, T: int, model: SpectralModel):
        self.T = T
        self.model = model
        self.omegas = fourier_frequencies(T)
        self.weights = np.ones(len(self.omegas))
        self.weights[0] = 0.5
        if T % 2 == 0:
            self.weights[-1] = 0.5
        K = int(np.count_nonzero(self.omegas <= model.knots.omega0 + 1e-15))
        self.low, self.high = slice(0, K), slice(K, None)
        self.omega_low, self.omega_high = self.omegas[self.low], self.omegas[self.high]
        self.w_low, self.w_high = self.weights[self.low], self.weights[self.high]
        self.real_low, self.real_high = self.w_low == 0.5, self.w_high == 0.5
        self.designs_low = model.designs(self.omega_low)
        self.design_S_high = model.basis_S.design(self.omega_high)

    def terms(self, params: SpectralParams, geometry: SiteGeometry) -> CrossSpectrumTerms:
        """The factors of f = D R D* at the low-band frequencies."""
        return self.model.cross_spectrum_terms(params, geometry, self.designs_low)

    def S_high(self, params: SpectralParams) -> np.ndarray:
        """The marginal spectrum S at the high-band frequencies."""
        return np.exp(self.design_S_high @ params.s_coeffs)


class WhittleObjective:
    """Whittle log-likelihood, its score and its Hessian for a fixed data field and geometry.

    Builds the frequency plan, and with it the spline designs, once at
    construction, so repeated evaluations during optimization stay cheap.
    Evaluations accumulate in a fixed frequency order, so results are
    independent of any outer parallelism.
    """

    def __init__(self, model: SpectralModel, spec: SpectralField, geometry: SiteGeometry):
        if spec.n_sites != geometry.n_sites:
            raise ValidationError("field and geometry site counts differ")
        self.spec = spec
        self.geometry = geometry
        self.T = spec.n_times
        self.n = spec.n_sites

        self.plan = FrequencyPlan(self.T, model)
        self.J_low = spec.coeffs[self.plan.low]  # K x n
        self.Q_high = np.sum(np.abs(spec.coeffs[self.plan.high]) ** 2, axis=1)
        d = geometry.distances
        self._inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)

    def loglik(self, params: SpectralParams) -> tuple:
        """(log-likelihood, score, hessian) at `params`, from one factor and substitution.

        With f_k = D_k R_k D_k* (see `spectrum`), log det f_k = log det R_k
        and J_k* f_k^{-1} J_k = |L_k^{-1} z_k|^2 for z_k = D_k* J_k and the
        Cholesky factor R_k = L_k L_k^T, so one real factorization per
        frequency gives both: the log-determinant from L_k's diagonal and
        the quadratic form from a forward substitution of the real and
        imaginary parts of z_k. The substitution takes the identity too, for
        L_k^{-1}, and forms y_k = R_k^{-1} z_k and R_k^{-1} = L_k^{-T} L_k^{-1}
        from it.

        The score is the gradient in the order of `SpectralParams.pack`:
        d ll / d a = -sum_k w_k Re tr(H_k E_k) with
        H_k = R_k^{-1} - y_k y_k^* / (2 pi T) and E_k = D_k* (d_a f_k) D_k,
        which is d_a R_k along S, beta and delta and
        i S1 C o d_a(theta u.(p_j - p_k)) along theta and the u angle; plus
        the diagonal band's -sum_k w_k dlogS_k/da (n - Q_k / (2 pi T S_k)).
        `hessian()` forms the exact Hessian of -ll from them (`_hessian`).
        """
        plan, n = self.plan, self.n
        scale = TWO_PI * self.T
        t = plan.terms(params, self.geometry)
        L, inv_piv, good = cholesky_factor(t.R)
        require_frequencies(good, plan.omega_low, "singular spectral matrix")
        z = np.conj(t.D) * self.J_low
        eye = np.broadcast_to(np.eye(n), t.R.shape)
        X = forward_substitute(L, inv_piv, np.dstack([z.real, z.imag, eye]))
        logdet = 2.0 * np.sum(np.log(np.einsum("kii->ki", L)), axis=1)
        quad = np.sum(X[..., 0] ** 2 + X[..., 1] ** 2, axis=1)  # z* R^{-1} z
        # L^{-T} [L^{-1} z | L^{-1}] = [y | R^{-1}]
        sol = np.swapaxes(X[..., 2:], 1, 2) @ X
        y, R_inv = sol[..., :2], sol[..., 2:]
        ll = -np.sum(plan.w_low * (logdet + quad / scale))
        S_high = plan.S_high(params)
        ll -= np.sum(plan.w_high * (n * np.log(S_high) + self.Q_high / (scale * S_high)))

        re_tr_H = partial(_re_tr_H, y, R_inv, scale)
        S1 = t.S * t.sig
        # Im H = (yr yi^T - yi yr^T) / scale and u.p_j - u.p_k are both
        # antisymmetric, so sum C o (u.p_j - u.p_k) o Im H = sum_j u.p_j v_j
        Cy = t.C @ y
        v = 2.0 * (y[..., 0] * Cy[..., 1] - y[..., 1] * Cy[..., 0]) / scale
        pos = self.geometry.positions
        tr_I = np.einsum("kii->k", R_inv) - np.einsum("kic,kic->k", y, y) / scale
        tr = (n - quad / scale,  # tr(H R)
              S1 * (1.0 - t.sig) * (re_tr_H(P=t.C) - tr_I),
              S1 * np.sign(t.delta) * re_tr_H(P=self._dC(t)),
              S1 * (v @ (pos @ params.u)),
              t.theta * S1 * (v @ (pos @ params.u_perp)))
        w = plan.w_low
        B_S, B_beta, B_delta, B_theta = plan.designs_low
        tr_high = n - self.Q_high / (scale * S_high)
        grad = -np.concatenate([
            B_S.T @ (w * tr[0]) + plan.design_S_high.T @ (plan.w_high * tr_high),
            B_beta.T @ (w * tr[1]),
            B_delta.T @ (w * tr[2]),
            B_theta.T @ (w * tr[3]),
            [np.sum(w * tr[4])],
        ])
        return float(ll), grad, partial(self._hessian, params, tr, t, y, R_inv)

    def _hessian(self, params, tr, t, y, R_inv) -> np.ndarray:
        """The exact Hessian of the negative log-likelihood at `params`, in `pack` order.

        Per low-band frequency, along the kind-level directions a, b of
        log S, beta, delta, theta and the u angle, with the terms t, E_a, y,
        H and traces `tr` of the `loglik` call at `params` and s = 2 pi T:

            d2(-ll_k)/da db = Re tr(H E_ab) - tr(R^{-1} E_a R^{-1} E_b)
                              + 2 Re(y^* E_a R^{-1} E_b y) / s,

        where E_ab = D* (d_a d_b f) D. Each direction matrix is real (log S,
        beta, delta) or i times a real antisymmetric matrix (theta, u), so
        the middle term vanishes between the two groups. The kinds are
        linear in their coefficients, so block (a, b) is
        B_a^T diag(w h_ab) B_b; the diagonal band adds
        w Q / (s S) B_S^T B_S along log S.
        """
        plan, n = self.plan, self.n
        scale = TWO_PI * self.T
        re_tr_H = partial(_re_tr_H, y, R_inv, scale)
        yr, yi = y[..., 0, None], y[..., 1, None]
        s1 = (t.S * t.sig)[:, None, None]
        theta = t.theta[:, None, None]
        along, across = (self.geometry.positions @ np.stack([params.u, params.u_perp], axis=1)).T
        U = along[:, None] - along[None, :]  # u.(p_j - p_k)
        U_perp = across[:, None] - across[None, :]
        dC = self._dC(t)
        E_delta = s1 * np.sign(t.delta)[:, None, None] * dC

        # the directions: E_a = G_a along log S, beta and delta, i G_a along theta and u
        G = [t.R,
             s1 * (1.0 - t.sig)[:, None, None] * (t.C - np.eye(n)),
             E_delta,
             s1 * t.C * U,
             theta * s1 * t.C * U_perp]
        imag = (False, False, False, True, True)
        # E y and R^{-1} E y as real and imaginary parts, (K, n, 2)
        Ey = [np.concatenate([-G[a] @ yi, G[a] @ yr], axis=2) if imag[a] else G[a] @ y
              for a in range(5)]
        REy = [R_inv @ v for v in Ey]

        # Re tr(H E_ab) by pair. d/dlog S scales every direction, so E_Sb = E_b;
        # d sig/d beta = sig (1 - sig) gives E_beta,beta = (1 - 2 sig) E_beta
        # and E_beta,x = (1 - sig) E_x
        tr_ab = {(0, b): tr[b] for b in range(5)}
        tr_ab[1, 1] = (1.0 - 2.0 * t.sig) * tr[1]
        tr_ab.update({(1, b): (1.0 - t.sig) * tr[b] for b in (2, 3, 4)})
        # d2C/d|delta|2 = r^4 (r - 3) e^{-r} / d^2; d/dtheta multiplies by i U and
        # d/du by i theta U_perp, with dU/du = U_perp and dU_perp/du = -U
        tr_ab[2, 2] = re_tr_H(P=s1 * dC * t.r * (t.r - 3.0) * self._inv_d)
        tr_ab[2, 3] = re_tr_H(F=E_delta * U)
        tr_ab[2, 4] = re_tr_H(F=theta * E_delta * U_perp)
        tr_ab[3, 3] = re_tr_H(P=-s1 * t.C * U * U)
        tr_ab[3, 4] = re_tr_H(P=-theta * s1 * t.C * U * U_perp, F=s1 * t.C * U_perp)
        tr_ab[4, 4] = re_tr_H(P=-theta * theta * s1 * t.C * U_perp * U_perp,
                              F=-theta * s1 * t.C * U)
        # R^{-1} G_a replaces G_a after the pair terms: the Hessian never
        # holds both lists, nor R^{-1} G_a beside the pair terms' temporaries
        RG = G
        for a in range(5):
            RG[a] = R_inv @ RG[a]

        w = plan.w_low
        designs = list(plan.designs_low) + [np.ones((len(w), 1))]
        blocks = [[None] * 5 for _ in range(5)]
        for (a, b), h in tr_ab.items():
            # tr(R^{-1} E_a R^{-1} E_b) is real: zero between a real and an
            # imaginary direction, and i^2 = -1 flips it between two imaginary ones
            if imag[a] == imag[b]:
                h = h + (1.0 if imag[a] else -1.0) * np.einsum("kij,kji->k", RG[a], RG[b])
            h = h + 2.0 * np.einsum("kic,kic->k", Ey[a], REy[b]) / scale
            blocks[a][b] = designs[a].T @ ((w * h)[:, None] * designs[b])
            blocks[b][a] = blocks[a][b].T
        H = np.block(blocks)

        curv_high = plan.w_high * self.Q_high / (scale * plan.S_high(params))
        d_S = plan.design_S_high.shape[1]
        H[:d_S, :d_S] += plan.design_S_high.T @ (curv_high[:, None] * plan.design_S_high)
        return 0.5 * (H + H.T)

    def _dC(self, t) -> np.ndarray:
        """dC/d|delta| = r^2 e^{-r} / |delta| = r^3 C / ((1 + r) d); r <= R_CAP."""
        return t.r * t.r * t.r * t.C / (1.0 + t.r) * self._inv_d


def _re_tr_H(y, R_inv, scale, P=None, F=None) -> np.ndarray:
    """Re tr(H (P + i F)) per frequency for H = R^{-1} - y y^* / scale.

    P is real symmetric and F real antisymmetric, (K, n, n) each.
    """
    out = np.zeros(len(y))
    if P is not None:
        out += np.einsum("kij,kij->k", R_inv, P) - np.einsum("kic,kic->k", y, P @ y) / scale
    if F is not None:
        out += 2.0 * np.einsum("kic,kic->k", y[..., 0, None], F @ y[..., 1, None]) / scale
    return out


def cholesky_factor(R) -> tuple:
    """(L, 1 / diag(L), good): the Cholesky factors of the stack R, (K, n, n).

    `good[k]` is False where frequency k's factor fails (row k of L is NaN)
    or has a reciprocal pivot that is zero or not finite, as where an
    infinite entry of R lets the factorization pass.
    """
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        # one frequency at a time, so that a failed factor reads NaN
        L = np.stack([_cholesky_or_nan(Rk) for Rk in R])
    with np.errstate(divide="ignore", over="ignore"):
        inv_piv = 1.0 / np.einsum("kii->ki", L)
    good = np.all(np.isfinite(inv_piv) & (inv_piv != 0.0), axis=1)
    return L, inv_piv, good


def require_frequencies(ok, omegas, problem: str) -> None:
    """Raise a ValidationError naming the first frequency where `ok` is False."""
    if not ok.all():
        raise ValidationError(f"{problem} at frequency {omegas[np.argmin(ok)]:.6f}")


def forward_substitute(L, inv_piv, B) -> np.ndarray:
    """L^{-1} B for the real right-hand block B, (K, n, c), as (K, n, c).

    A forward substitution down the columns of the Cholesky factors L,
    (K, n, n), with reciprocal pivots inv_piv, (K, n), for all K
    frequencies at once. It runs with the frequency last, so that each
    update runs along contiguous rows. Every update is elementwise, so a
    column comes out the same whatever columns stand beside it.
    """
    Lt, inv_piv = np.moveaxis(L, 0, -1).copy(), inv_piv.T
    X = np.moveaxis(B, 0, -1).copy()
    for j in range(len(inv_piv)):
        X[j] *= inv_piv[j]
        X[j + 1:] -= Lt[j + 1:, j, None, :] * X[j, None]
    return np.ascontiguousarray(np.moveaxis(X, -1, 0))


def _cholesky_or_nan(R) -> np.ndarray:
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return np.full_like(R, np.nan)


# -- fitting -------------------------------------------------------------


@dataclass
class FitResult(Record):
    """`fit_report.json`'s `fit`; a fit at the truth has no eigenvalues."""

    knots: KnotSet
    params_hat: SpectralParams = field(metadata={"key": "params"})
    loglik: float
    hessian: np.ndarray
    convergence: dict
    hessian_eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        # a value moved between kinds would otherwise shift every unpacked draw
        for kind, n in SpectralModel(self.knots).dimensions.items():
            if kind != "u" and getattr(self.params_hat, f"{kind}_coeffs").shape != (n,):
                raise ValidationError(
                    f"{kind}_coeffs must have {n} values, one per basis function")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


GTOL = 1e-3  # converged when max |gradient| <= GTOL
FIT_MAX_ITER = 500  # iteration cap, rejected steps included; RunConfig's default


def fit_mle(obj: WhittleObjective, initial: SpectralParams,
            max_iter: int = FIT_MAX_ITER) -> FitResult:
    """Maximize the Whittle likelihood of `obj` by trust-region Newton (`_trust_region`).

    Each trial point takes one `obj.loglik` call, which gives the value,
    the analytic score and the exact Hessian's closure, so a fit makes
    `iterations + 1` calls, the start point's included. A parameter vector
    the model rejects reads as an infinite value, a rejected step. The Hessian is
    formed at the start and at every accepted point, and the last one's is
    the fit's, with its eigenvalues in ascending order. `convergence.trace`
    holds one [log-likelihood, max |score|, trust radius] entry for the
    start and one per iteration. Deterministic given inputs.

    The model is unchanged by (theta, u) -> (-theta, u + pi), so two fits
    that differ only by this mirror are one fit; compare fits through S,
    |delta| and theta * u.
    """
    model = obj.plan.model
    ll0, score0, hessian = obj.loglik(initial)
    if not np.isfinite(ll0):
        raise ValidationError("log-likelihood not finite at the initial point")
    H0 = hessian()
    del hessian  # the start's arrays go before the first trial point's come

    def neg(x):
        try:
            ll, score, hessian = obj.loglik(model.unpack(x))
        except ValidationError:
            return np.inf, np.full(len(x), np.nan), None
        return -ll, -score, hessian

    x, f, g, H, status, iterations, trace = _trust_region(
        neg, initial.pack(), -ll0, -score0, H0, max_iter)
    convergence = {
        "status": status,
        "iterations": iterations,
        "grad_inf_norm": float(np.max(np.abs(g))),
        "trace": [[-f_k, g_k, radius] for f_k, g_k, radius in trace],
    }
    eigenvalues = np.linalg.eigvalsh(H)
    return FitResult(
        params_hat=model.unpack(x),
        loglik=float(-f),
        hessian=H,
        convergence=convergence,
        knots=model.knots,
        hessian_eigenvalues=eigenvalues,
    )


def _trust_region(fun, x, f, g, H, max_iter: int) -> tuple:
    """(x, f, g, H, status, iterations, trace): trust-region Newton on `fun` from x.

    fun(x) = (f, g, hessian), with f, g and f's Hessian H given at the
    start x; hessian() gives the Hessian at x, and is called only where the
    step is accepted (Nocedal & Wright 2006, alg. 4.1). Each iteration
    makes one call of `fun` at the `_trust_step` step within the Euclidean
    radius, which starts at 1. With rho the actual over the predicted
    decrease (-inf where the value or gradient is not finite), the radius
    shrinks by 1/4 when rho < 1/4 and doubles when rho > 3/4 at the
    boundary; the step is taken when rho > 1e-4. The status is
    "converged" at max |g| <= GTOL, "max_iter", "radius_collapsed" when the
    radius falls to the rounding of |x| (every step rejected, as with a
    wrong gradient) or "nan" when g or H is not finite. `trace` has one
    [f, max |g|, radius] entry for the start and one per iteration, which
    makes one call of `fun` each.
    """
    radius = 1.0
    trace = [[float(f), float(np.max(np.abs(g))), radius]]
    for iterations in range(max_iter + 1):
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            return x, f, g, H, "nan", iterations, trace
        if np.max(np.abs(g)) <= GTOL:
            return x, f, g, H, "converged", iterations, trace
        if iterations == max_iter:
            return x, f, g, H, "max_iter", iterations, trace
        if radius <= np.finfo(float).eps * np.linalg.norm(x):
            return x, f, g, H, "radius_collapsed", iterations, trace
        p, at_boundary = _trust_step(g, H, radius)
        f_new, g_new, hessian = fun(x + p)
        finite = np.isfinite(f_new) and np.all(np.isfinite(g_new))
        rho = (f - f_new) / -(g @ p + 0.5 * p @ H @ p) if finite else -np.inf
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and at_boundary:
            radius *= 2.0
        if rho > 1e-4:
            x, f, g, H = x + p, f_new, g_new, hessian()
        del hessian  # a trial point's arrays go before the next one's come
        trace.append([float(f), float(np.max(np.abs(g))), radius])


def _trust_step(g, H, radius) -> tuple:
    """(p, at_boundary): the p that minimizes g.p + p.H p / 2 subject to |p| <= radius.

    Moré & Sorensen 1983 (SIAM J. Sci. Stat. Comput. 4) by one `eigh` of H
    = V diag(lam) V^T: the Newton step if H is positive definite and the
    step is within the radius, else p(s) = -V (V^T g / (lam + s)) on the
    boundary, the shift s > max(0, -lam_min) found by bisection to adjacent
    floats. In the hard case, g next to orthogonal to the lowest
    eigenvector, p(s) may stay inside; it is not extended along it.
    """
    lam, V = np.linalg.eigh(H)
    gv = V.T @ g
    if lam[0] > 0.0:
        p = -gv / lam
        if np.linalg.norm(p) <= radius:
            return V @ p, False
    # |p(s)| falls with s, and is at most radius once s + lam_min >= |g| / radius
    lo = max(0.0, -lam[0])
    hi = lo + np.linalg.norm(g) / radius
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if np.linalg.norm(gv / (lam + mid)) > radius:
            lo = mid
        else:
            hi = mid
    return V @ (-gv / (lam + hi)), True


def sample_params(fit: FitResult, count: int, seed: int) -> tuple:
    """(draws, floored): `count` packed parameter vectors from N(theta_hat, H^{-1}).

    One generator, keyed (STAGE_PARAM_DRAW,), gives a (count, p) block of
    standard normals; a right-side back-substitution over the p columns
    maps the block with elementwise column updates, so row k (member k's
    draw) is the same for every count. A Hessian that is singular to
    rounding (smallest eigenvalue below p eps times the largest) or whose
    Cholesky factorization fails is projected by flooring its eigenvalues
    at 1e-8 times the largest one, and `floored` is True. A Hessian that
    is not finite or has no positive eigenvalue raises a ValidationError.
    `fit` is not modified.
    """
    H = np.asarray(fit.hessian, dtype=float)
    if not np.isfinite(H).all():
        raise ValidationError("the fit's Hessian is not finite; parameter draws need it")
    vals, vecs = np.linalg.eigh(H)
    if not vals[-1] > 0.0:
        raise ValidationError("the fit's Hessian has no positive eigenvalue")
    floored = bool(vals[0] < len(H) * np.finfo(float).eps * vals[-1])
    if not floored:
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            floored = True
    if floored:
        L = np.linalg.cholesky((vecs * np.maximum(vals, 1e-8 * vals[-1])) @ vecs.T)
    mean = fit.params_hat.pack()
    x = substream(seed, STAGE_PARAM_DRAW).standard_normal((count, len(mean)))
    # rows z L^{-1}: cov of L'^{-1} z' is (L L')^{-1} = H^{-1}; solve x L = z
    # from the last column back
    for j in range(len(mean) - 1, -1, -1):
        x[:, j] /= L[j, j]
        x[:, :j] -= x[:, j, None] * L[j, :j]
    return mean + x, floored


# -- data-driven initialization ------------------------------------------


def initial_params(obj: WhittleObjective) -> SpectralParams:
    """Starting point for the optimizer on the data and geometry of `obj`.

    S comes from a least-squares spline fit to the log of the smoothed
    average periodogram; beta starts at 0 (equal split), delta from a
    coarse coherence-range heuristic on the closest station pair, theta
    at 0 and u pointing west.
    """
    plan, spec, geometry = obj.plan, obj.spec, obj.geometry
    model = plan.model
    pgram = np.mean(np.abs(spec.coeffs) ** 2, axis=1) / (TWO_PI * plan.T)
    logp = np.log(np.maximum(pgram, 1e-300))
    win = max(5, min(101, (len(logp) // 40) | 1))
    kernel = np.ones(win) / win
    pad = np.concatenate([logp[:win][::-1], logp, logp[-win:][::-1]])
    smooth = np.convolve(pad, kernel, mode="same")[win:-win]
    # the S design at every frequency: the low band's rows, then the high band's
    B = np.vstack([plan.designs_low[0], plan.design_S_high])
    s_coeffs, *_ = np.linalg.lstsq(B, smooth, rcond=None)

    d = geometry.distances + np.diag(np.full(geometry.n_sites, np.inf))
    jmin, kmin = np.unravel_index(np.argmin(d), d.shape)
    dmin = d[jmin, kmin]
    # the coherent band without frequency 0
    J, omegas = obj.J_low[1:], plan.omega_low[1:]
    band_edges = _quartiles(omegas)
    centers, targets = [], []
    for lo, hi in zip(band_edges[:-1], band_edges[1:]):
        sel = (omegas >= lo) & (omegas <= hi)
        if sel.sum() < 3:
            continue
        cross = np.mean(J[sel, jmin] * np.conj(J[sel, kmin]))
        p1 = np.mean(np.abs(J[sel, jmin]) ** 2)
        p2 = np.mean(np.abs(J[sel, kmin]) ** 2)
        coh = min(abs(cross) / np.sqrt(p1 * p2), 0.95)
        # invert C(dmin/delta) * 0.5 = coh for delta, assuming an even split
        centers.append((lo + hi) / 2.0)
        targets.append(dmin / _matern32_root(min(2.0 * coh, 0.98)))
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


def _quartiles(x) -> np.ndarray:
    """Minimum, quartiles and maximum of sorted x; none for empty x.

    Equal to the bit to `np.quantile(x, [0, 0.25, 0.5, 0.75, 1])`: its
    linear method, interpolated as numpy's `_lerp` does. `np.quantile`
    itself calls `np.unique`, which imports numpy.ma.
    """
    if len(x) == 0:
        return x
    pos = (len(x) - 1) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    i = np.floor(pos).astype(np.intp)
    a, b = x[i], x[np.minimum(i + 1, len(x) - 1)]
    frac = pos - i
    return np.where(frac >= 0.5, b - (b - a) * (1 - frac), a + (b - a) * frac)


def _matern32_root(c: float) -> float:
    """The r in (0, 50] where matern32(r) = c, to rounding; 50 where c <= matern32(50).

    Bisection on [0, 50], where matern32 falls from 1; it ends at adjacent
    floats lo < hi with matern32(lo) > c >= matern32(hi) and gives hi.
    """
    lo, hi = 0.0, 50.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if matern32(mid) > c:
            lo = mid
        else:
            hi = mid
    return hi
