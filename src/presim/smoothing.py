"""Penalized cubic regression spline with effective-degrees-of-freedom control.

Fits y(t) on an equispaced index grid by minimizing

    ||y - B c||^2 + lam * c' P c,

where B is a cubic B-spline design matrix on thinned knots and P the Gram
matrix of second derivatives. The penalty lam is chosen by bisection so
the trace of the smoother matrix equals a requested df (within 0.1).
Knots are placed at every k-th grid point with k small enough to leave at
least 4*df knots, so the basis never limits the requested flexibility.

lam comes from the Demmler-Reinsch eigenvalues (Demmler & Reinsch 1975;
Ruppert, Wand & Carroll 2003, section 3): one basis W makes both B'B and P
diagonal, W'B'BW = diag(g) and W'PW = diag(p), so the smoother's trace is
sum g_i / (g_i + lam p_i) and every bisection step costs O(nb) for nb
basis functions. W is L^{-T} U for the Cholesky factor L L' = B'B + mu P
and the eigenvectors U of L^{-1} P L^{-T}, whose eigenvalues are p; then
g = 1 - mu p. The shift mu = tr(B'B) / tr(P) balances the two terms; it
keeps the factorization well conditioned where B'B alone is singular or
nearly so, as it is with about one knot per point (df near n/4 or above).
"""

import numpy as np

from .errors import ConfigurationError
from .splines import bspline_basis

DEGREE = 3


def _design_and_penalty(n: int, n_knots: int):
    x = np.arange(n, dtype=float)
    interior = np.linspace(0, n - 1, n_knots)
    t = np.concatenate(
        [np.full(DEGREE, interior[0]), interior, np.full(DEGREE, interior[-1])]
    )
    B = bspline_basis(t, DEGREE, x)
    nb = B.shape[1]

    # Gram matrix of second derivatives; exact via 3-point Gauss per span
    # (integrand is piecewise quadratic).
    P = np.zeros((nb, nb))
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(3)
    spans = np.unique(t)
    mid, half = (spans[:-1] + spans[1:]) / 2.0, (spans[1:] - spans[:-1]) / 2.0
    d2 = bspline_basis(t, DEGREE, (mid[:, None] + half[:, None] * gauss_x).ravel(), 2)
    for i, h in enumerate(half):
        V = d2[3 * i:3 * i + 3].T  # nb x 3
        P += (V * gauss_w) @ V.T * h
    return B, P


class DfSpline:
    """Equispaced penalized-spline smoother with a fixed effective df."""

    def __init__(self, n: int, df: float):
        if not (2.0 < df < n):
            raise ConfigurationError(f"df must lie in (2, n); got {df} with n={n}")
        self.n = n
        self.df = float(df)
        n_knots = min(n, max(int(np.ceil(4 * df)), 10))
        self.B, self.P = _design_and_penalty(n, n_knots)
        BtB = self.B.T @ self.B
        mu = np.trace(BtB) / np.trace(self.P)
        L = np.linalg.cholesky(BtB + mu * self.P)
        M = np.linalg.solve(L, np.linalg.solve(L, self.P).T)  # L^{-1} P L^{-T}
        p, U = np.linalg.eigh(0.5 * (M + M.T))
        self._p = np.clip(p, 0.0, 1.0 / mu)
        self._g = 1.0 - mu * self._p
        self._W = np.linalg.solve(L.T, U)
        self._lam = self._solve_lambda()

    def _trace(self, lam: float) -> float:
        return float(np.sum(self._g / (self._g + lam * self._p)))

    def _solve_lambda(self) -> float:
        """The penalty whose effective df is within 0.05 of the target."""
        lo, hi = 1e-12, 1e12
        # trace decreases in lam; widen until bracketed
        while self._trace(lo) < self.df and lo > 1e-300:
            lo /= 1e3
        while self._trace(hi) > self.df and hi < 1e300:
            hi *= 1e3
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            tr = self._trace(mid)
            if abs(tr - self.df) <= 0.05:
                return mid
            if tr > self.df:
                lo = mid
            else:
                hi = mid
        raise ConfigurationError("penalty bisection failed to reach requested df")

    @property
    def effective_df(self) -> float:
        return self._trace(self._lam)

    def smooth(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ConfigurationError(f"expected series of length {self.n}")
        # c = (B'B + lam P)^{-1} B'y = W diag(1 / (g + lam p)) W' B'y
        c = self._W @ ((self._W.T @ (self.B.T @ y)) / (self._g + self._lam * self._p))
        return self.B @ c
