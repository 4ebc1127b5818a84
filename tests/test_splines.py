"""The numpy B-spline and null-space kernels against scipy, bit for bit."""

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import BSpline

from presim.spectrum import KnotSet
from presim.splines import DEGREE, ConstrainedBasis, bspline_bands, bspline_basis, null_space
from presim.whittle import fourier_frequencies

# kind, knots and endpoint orders of the model's four bases
BASES = [("even", "s_knots", (1,)), ("even", "beta_knots", (1, 2)),
         ("even", "delta_knots", (0, 1, 2)), ("odd", "theta_knots", (0, 1, 2))]


def model_bases():
    """(basis, endpoint orders) at the default cutoff and at a cutoff at pi."""
    for knots in (KnotSet.default(), KnotSet.default(omega0_j=4320)):
        for kind, name, orders in BASES:
            yield ConstrainedBasis(kind, getattr(knots, name), orders), orders


def check_points(knots):
    """Clipped |w| at three Fourier grids, the 400-point grids of
    `synth.default_true_params`, and every knot."""
    L = knots[-1]
    grids = [np.clip(np.abs(fourier_frequencies(T)), 0.0, L) for T in (2880, 8640, 2881)]
    grids += [np.linspace(0.0, L, 400), np.linspace(1e-6, L, 400), np.asarray(knots)]
    return grids


def scipy_basis(t, k, x, nu):
    if nu == 0:
        return BSpline.design_matrix(x, t, k).toarray()
    return BSpline(t, np.eye(len(t) - k - 1), k).derivative(nu)(x)


def dense_from_bands(t, k, x, nu):
    """`bspline_bands` written column by column into a dense design."""
    values, first = bspline_bands(t, k, x, nu)
    out = np.zeros((len(values), len(t) - k - 1))
    for a in range(k + 1):
        out[np.arange(len(values)), first + a] = values[:, a]
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_bspline_basis_equals_scipy(k):
    for basis, _ in model_bases():
        knots = basis.knots
        t = np.concatenate([np.zeros(k), knots, np.full(k, knots[-1])])
        for x in check_points(knots):
            for nu in range(k + 1):
                ref = scipy_basis(t, k, x, nu)
                for got in (bspline_basis(t, k, x, nu), dense_from_bands(t, k, x, nu)):
                    assert got.shape == ref.shape
                    assert np.array_equal(got, ref), (k, nu, len(knots))


def test_bspline_basis_at_the_endpoints():
    t = np.concatenate([np.zeros(DEGREE), np.linspace(0.0, 2.0, 6), np.full(DEGREE, 2.0)])
    x = np.array([0.0, 2.0, 0.0, np.nextafter(2.0, 0.0), 2.0])
    for nu in range(DEGREE + 1):
        assert np.array_equal(bspline_basis(t, DEGREE, x, nu), scipy_basis(t, DEGREE, x, nu))
    # the clamped basis interpolates at both ends
    B = bspline_basis(t, DEGREE, [0.0, 2.0])
    assert np.array_equal(B[:, [0, -1]], np.eye(2))


def test_constrained_designs_equal_scipy_built_designs():
    # the constrained design is M @ null: both factors and the BLAS path
    # through which they are multiplied must match the scipy-built basis
    for basis, orders in model_bases():
        t = basis._t
        rows = [scipy_basis(t, DEGREE, [0.0], 1 if basis.kind == "even" else 0)]
        rows += [scipy_basis(t, DEGREE, [basis.cutoff], o) for o in orders]
        ref_null = scipy.linalg.null_space(np.vstack(rows))
        assert np.array_equal(basis._null, ref_null)
        for x in check_points(basis.knots):
            for order in (0, 1, 2):
                ref = scipy_basis(t, DEGREE, x, order) @ ref_null
                if basis.kind == "odd" and order == 0:
                    ref = ref * np.sign(x)[:, None]
                assert np.array_equal(basis.design(x, order), ref), (basis.kind, order)


@pytest.mark.parametrize("A", [
    np.ones((1, 2)),
    np.ones((1, 11)),
    np.ones((1, 13)),
    np.random.default_rng(3).standard_normal((3, 12)),
    np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]),  # rank 1
])
def test_null_space_equals_scipy(A):
    N = null_space(A)
    assert np.array_equal(N, scipy.linalg.null_space(A))
    assert N.flags.c_contiguous
