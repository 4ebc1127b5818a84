"""Cubic B-spline bases with symmetry and endpoint-derivative constraints.

The spectral functions of the model are even or odd functions of frequency
that must vanish smoothly at a cutoff. Each is represented by a cubic
spline g on [0, L] (L = the last knot), reduced by linear constraints:

  * even kind: g'(0) = 0, so the reflection g(|w|) is C^2 through 0;
  * odd kind: g(0) = 0, the reflection sign(w) * g(|w|) passes through 0;
  * endpoint constraints: a list of derivative orders forced to vanish at L.

The constrained space is the null space of the constraint matrix in the
full clamped B-spline basis; its dimension is reported by the evaluator.
"""

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import null_space

from .errors import ConfigurationError

DEGREE = 3


class ConstrainedBasis:
    """Function-space basis of constrained cubic splines, reflected about 0.

    Parameters
    ----------
    kind : {"even", "odd"}
        Symmetry of the represented function about frequency 0.
    knots : array
        Ordered knot locations starting at 0 and ending at L > 0.
    endpoint_orders : sequence of int
        Derivative orders (0 = value) forced to zero at L.
    zero_outside : bool
        If True the function is identically 0 for |w| > L (cutoff
        behavior); otherwise evaluation is clamped to [-L, L].
    """

    def __init__(self, kind, knots, endpoint_orders=(), zero_outside=True):
        if kind not in ("even", "odd"):
            raise ConfigurationError(f"unknown symmetry kind {kind!r}")
        knots = np.asarray(knots, dtype=float)
        if knots[0] != 0.0 or np.any(np.diff(knots) <= 0) or knots[-1] <= 0:
            raise ConfigurationError("knots must start at 0 and strictly increase")
        self.kind = kind
        self.knots = knots
        self.cutoff = float(knots[-1])
        self.zero_outside = zero_outside

        # Clamped knot vector: full multiplicity at both ends.
        t = np.concatenate(
            [np.zeros(DEGREE), knots, np.full(DEGREE, self.cutoff)]
        )
        self._t = t
        n_full = len(t) - DEGREE - 1

        rows = []
        if kind == "even":
            rows.append(self._deriv_row(0.0, 1, n_full))
        else:
            rows.append(self._deriv_row(0.0, 0, n_full))
        for order in endpoint_orders:
            rows.append(self._deriv_row(self.cutoff, int(order), n_full))
        A = np.vstack(rows)
        if np.linalg.matrix_rank(A) < A.shape[0]:
            raise ConfigurationError("constraint system is rank-deficient")
        self._null = null_space(A)
        self.dimension = self._null.shape[1]
        if self.dimension == 0:
            raise ConfigurationError("constraints eliminate the whole spline space")

    def _deriv_row(self, x, order, n_full):
        row = np.empty(n_full)
        for i in range(n_full):
            c = np.zeros(n_full)
            c[i] = 1.0
            b = BSpline(self._t, c, DEGREE, extrapolate=False)
            if order:
                b = b.derivative(order)
            v = b(np.array([x]))[0]
            row[i] = 0.0 if np.isnan(v) else v
        return row

    def design(self, omega, order=0) -> np.ndarray:
        """Design matrix of the constrained basis (and its derivatives).

        Rows correspond to frequencies, columns to the reduced basis. The
        symmetry reflection is applied: even members satisfy g(w) = g(-w),
        odd members g(w) = -g(-w). Derivative rows (order > 0) are the
        derivative of the one-sided spline at |w|; they are intended for
        the endpoint-constraint checks at w >= 0.
        """
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        if not len(omega):  # e.g. the empty high band of a cutoff at pi
            return np.zeros((0, self.dimension))
        a = np.abs(omega)
        inside = a <= self.cutoff + 1e-12
        x = np.clip(a, 0.0, self.cutoff)
        if order == 0:
            M = BSpline.design_matrix(x, self._t, DEGREE).toarray()
        else:
            n_full = len(self._t) - DEGREE - 1
            M = np.zeros((len(x), n_full))
            for i in range(n_full):
                c = np.zeros(n_full)
                c[i] = 1.0
                b = BSpline(self._t, c, DEGREE, extrapolate=False).derivative(order)
                col = b(x)
                M[:, i] = np.where(np.isnan(col), 0.0, col)
        G = M @ self._null
        if self.kind == "odd" and order == 0:
            G = G * np.sign(omega)[:, None]
        if self.zero_outside:
            G = G * inside[:, None]
        return G

    def evaluate(self, coeffs, omega, order=0) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dimension,):
            raise ConfigurationError(
                f"expected {self.dimension} coefficients, got {coeffs.shape}"
            )
        return self.design(omega, order=order) @ coeffs
