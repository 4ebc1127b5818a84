"""Penalized cubic regression spline with effective-degrees-of-freedom control.

Fits y(t) on an equispaced index grid by minimizing

    ||y - B c||^2 + lam * c' P c,

where B is a cubic B-spline design matrix on thinned knots and P the Gram
matrix of second derivatives. The penalty lam is chosen by bisection so
the trace of the smoother matrix equals a requested df (within 0.05).
Knots are placed at every k-th grid point with k small enough to leave at
least 4*df knots, so the basis never limits the requested flexibility.

lam comes from the Demmler-Reinsch eigenvalues (Demmler & Reinsch 1975;
Ruppert, Wand & Carroll 2003, section 3): one basis W makes both B'B and P
diagonal, W'B'BW = diag(g) and W'PW = diag(p), so the smoother's trace is
sum g_i / (g_i + lam p_i) and every bisection step costs O(nb) for nb
basis functions. Only the eigenvalues are formed, not W: p are those of
L^{-1} P L^{-T} for the Cholesky factor L L' = B'B + mu P, and g = 1 - mu p.
The shift mu = tr(B'B) / tr(P) balances the two terms; it keeps the
factorization well conditioned where B'B alone is singular or nearly so,
as it is with about one knot per point (df near n/4 or above). Once lam
is found, B'B + lam P is kept, and `smooth` is one solve of it.

A row of B has four nonzero values, so B is held as those values and the
column of the first (a P-spline system is banded; Eilers & Marx 1996):
B'B, B'y and B c cost O(n), and the smoother's memory is O(n + nb^2).
The second derivatives in P are the bands of the same function,
`splines.bspline_bands` with nu = 2, at the Gauss points of each span.
"""

import numpy as np

from .errors import ConfigurationError
from .splines import bspline_bands

DEGREE = 3


def _penalty(t, interior) -> np.ndarray:
    """Gram matrix of the second derivatives of the cubic B-splines on t.

    Exact by 3-point Gauss per knot span (the integrand is piecewise
    quadratic). Four B-splines are nonzero on a span, so each span adds a
    4 x 4 block of the second-derivative bands `bspline_bands(t, 3, x, 2)`
    at its Gauss points. The blocks are added in span order, so P equals,
    to the bit, the span-by-span Gram matrix of the full second-derivative
    design.
    """
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(3)
    mid, half = (interior[:-1] + interior[1:]) / 2.0, (interior[1:] - interior[:-1]) / 2.0
    V, first = bspline_bands(t, DEGREE, (mid[:, None] + half[:, None] * gauss_x).ravel(), 2)
    V = V.reshape(len(half), 3, DEGREE + 1).transpose(0, 2, 1)  # span, column, point
    blocks = (V * gauss_w) @ V.transpose(0, 2, 1) * half[:, None, None]
    cols = first[::3, None] + np.arange(DEGREE + 1)
    P = np.zeros((len(t) - DEGREE - 1,) * 2)
    np.add.at(P, (cols[:, :, None], cols[:, None, :]), blocks)
    return P


class DfSpline:
    """Equispaced penalized-spline smoother with a fixed effective df."""

    def __init__(self, n: int, df: float):
        if not (2.0 < df < n):
            raise ConfigurationError(f"df must lie in (2, n); got {df} with n={n}")
        self.n = n
        self.df = float(df)
        n_knots = min(n, max(int(np.ceil(4 * df)), 10))
        interior = np.linspace(0, n - 1, n_knots)
        t = np.concatenate(
            [np.full(DEGREE, interior[0]), interior, np.full(DEGREE, interior[-1])]
        )
        # B held as its nonzero values: B[i, first[i] + a] = values[i, a]
        self.values, self.first = bspline_bands(t, DEGREE, np.arange(n, dtype=float))
        self.P = _penalty(t, interior)
        nb = len(self.P)
        BtB = np.zeros((nb, nb))
        for d in range(DEGREE + 1):
            band = sum(self._scatter(self.values[:, a] * self.values[:, a + d], a)
                       for a in range(DEGREE + 1 - d))
            r = np.arange(nb - d)
            BtB[r, r + d] = BtB[r + d, r] = band[:nb - d]
        mu = np.trace(BtB) / np.trace(self.P)
        Linv = np.linalg.inv(np.linalg.cholesky(BtB + mu * self.P))
        self._p = np.clip(np.linalg.eigvalsh(Linv @ self.P @ Linv.T), 0.0, 1.0 / mu)
        self._g = 1.0 - mu * self._p
        self._lam = self._solve_lambda()
        BtB += self._lam * self.P
        self._A = BtB  # B'B + lam P

    def _scatter(self, w, a) -> np.ndarray:
        """For each column j of B, the sum of w[i] over the rows i with first[i] + a = j."""
        return np.bincount(self.first + a, w, len(self.P))

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
        Bty = sum(self._scatter(self.values[:, a] * y, a) for a in range(DEGREE + 1))
        c = np.linalg.solve(self._A, Bty)  # (B'B + lam P)^{-1} B'y
        return sum(self.values[:, a] * c[self.first + a] for a in range(DEGREE + 1))
