"""Cubic B-spline bases with symmetry and endpoint-derivative constraints.

The spectral functions of the model are even or odd functions of frequency
that must vanish smoothly at a cutoff. Each is represented by a cubic
spline g on [0, L] (L = the last knot), reduced by linear constraints:

  * even kind: g'(0) = 0, so the reflection g(|w|) is C^2 through 0;
  * odd kind: g(0) = 0, the reflection sign(w) * g(|w|) passes through 0;
  * endpoint constraints: a list of derivative orders forced to vanish at L.

The constrained space is the null space of the constraint matrix in the
full clamped B-spline basis; its dimension is reported by the evaluator.

The B-spline values and the null space are computed here with numpy, in
scipy's order of operations (`BSpline`, `splder`, `scipy.linalg.null_space`),
so they equal scipy's bit for bit. Values and derivatives have one home,
`bspline_bands`: the k+1 nonzero values of each row of the nu-th
derivative design. `bspline_basis` scatters them into a dense design for
the constrained bases, and the volatility smoother (`smoothing`) uses them
as they are. Every CLI stage builds these bases, and importing
`scipy.interpolate` for them cost each stage process about 0.4 s. No stage
loads scipy now.
"""

import numpy as np

from .errors import ConfigurationError

DEGREE = 3


def _de_boor(t, k, x, ell):
    """The k+1 degree-k B-splines nonzero at each x, t[ell] <= x < t[ell+1].

    Column a holds B_{ell-k+a}; the Cox-de Boor recurrence runs in the
    order of scipy's `_deBoor_D`, skipping empty knot spans.
    """
    h = np.zeros((len(x), k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            xb, xa = t[ell + n], t[ell + n - j]
            span = xb != xa
            w = np.divide(hh[:, n - 1], xb - xa, out=np.zeros(len(x)), where=span)
            h[:, n - 1] = np.where(span, h[:, n - 1] + w * (xb - x), h[:, n - 1])
            h[:, n] = np.where(span, w * (x - xa), 0.0)
    return h


def bspline_bands(t, k, x, nu=0):
    """The nonzero values of `bspline_basis(t, k, x, nu)`, and their first column.

    Row i of the design is values[i] in columns first[i] .. first[i] + k.
    The nu-th derivative differences the identity coefficients as `splder`
    does, kept as a band: c[j, b] is the weight of the j-th B-spline of
    degree k - nu in the nu-th derivative of B_{j+b}. Each value sums the
    lower-degree values in order, as `BSpline.derivative(nu)(x)` does.
    """
    t = np.asarray(t, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.ones((len(t) - k - 1, 1))
    for _ in range(nu):
        # row j of the derivative: (c[j + 1] - c[j]) k / (t[j + k + 1] - t[j + 1])
        d = np.zeros((len(c) - 1, c.shape[1] + 1))
        d[:, 1:] = c[1:]
        d[:, :-1] -= c[:-1]
        c = d * k / (t[k + 1:-1] - t[1:-k - 1])[:, None]
        t, k = t[1:-1], k - 1
    # t[ell] <= x < t[ell + 1], with the last point in the last span
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, len(t) - k - 2)
    h, first = _de_boor(t, k, x, ell), ell - k
    values = np.zeros((len(x), k + nu + 1))
    for a in range(k + 1):
        values[:, a:a + nu + 1] += c[first + a] * h[:, a:a + 1]
    return values, first


def bspline_basis(t, k, x, nu=0) -> np.ndarray:
    """Design matrix (len(x), len(t) - k - 1) of the degree-k B-splines on t.

    Column i is the nu-th derivative of B_i at x, for x in [t[k], t[-k-1]]:
    the bands of `bspline_bands` scattered into their columns.
    """
    values, first = bspline_bands(t, k, x, nu)
    out = np.zeros((len(values), len(t) - k - 1))
    out[np.arange(len(values))[:, None], first[:, None] + np.arange(k + 1)] = values
    return out


def null_space(A) -> np.ndarray:
    """Orthonormal basis of the null space of A, as `scipy.linalg.null_space`.

    Row-major like scipy's (the transpose of its Fortran-ordered vh), so
    products with it take the same BLAS path: a Fortran-ordered basis
    moves some products by an ulp.
    """
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(A.shape)
    r = int(np.sum(s > tol))
    return np.ascontiguousarray(vh[r:].T)


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

    Evaluation is clamped to [-L, L]; which frequencies the model's bases
    describe is decided by `whittle.FrequencyPlan`, not here.
    """

    def __init__(self, kind, knots, endpoint_orders):
        if kind not in ("even", "odd"):
            raise ConfigurationError(f"unknown symmetry kind {kind!r}")
        knots = np.asarray(knots, dtype=float)
        if knots[0] != 0.0 or np.any(np.diff(knots) <= 0) or knots[-1] <= 0:
            raise ConfigurationError("knots must start at 0 and strictly increase")
        self.kind = kind
        self.knots = knots
        self.cutoff = float(knots[-1])

        # Clamped knot vector: full multiplicity at both ends.
        t = np.concatenate(
            [np.zeros(DEGREE), knots, np.full(DEGREE, self.cutoff)]
        )
        self._t = t

        rows = [bspline_basis(t, DEGREE, [0.0], 1 if kind == "even" else 0)]
        for order in endpoint_orders:
            rows.append(bspline_basis(t, DEGREE, [self.cutoff], int(order)))
        A = np.vstack(rows)
        if np.linalg.matrix_rank(A) < A.shape[0]:
            raise ConfigurationError("constraint system is rank-deficient")
        self._null = null_space(A)
        self.dimension = self._null.shape[1]
        if self.dimension == 0:
            raise ConfigurationError("constraints eliminate the whole spline space")

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
        x = np.clip(np.abs(omega), 0.0, self.cutoff)
        G = bspline_basis(self._t, DEGREE, x, order) @ self._null
        if self.kind == "odd" and order == 0:
            G = G * np.sign(omega)[:, None]
        return G

    def evaluate(self, coeffs, omega) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dimension,):
            raise ConfigurationError(
                f"expected {self.dimension} coefficients, got {coeffs.shape}"
            )
        return self.design(omega) @ coeffs
