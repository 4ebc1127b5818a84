"""Effective-df penalized spline smoother."""

import tracemalloc

import numpy as np
import pytest

from presim.errors import ConfigurationError
from presim.smoothing import DEGREE, DfSpline


def test_effective_df_hits_target():
    for n, df in [(500, 12.0), (2000, 72.0)]:
        sm = DfSpline(n, df)
        assert abs(sm.effective_df - df) <= 0.1


def test_reproduces_constants_exactly():
    sm = DfSpline(400, 8.0)
    y = np.full(400, 3.25)
    assert np.max(np.abs(sm.smooth(y) - 3.25)) < 1e-10


def test_reproduces_lines_exactly():
    # the second-derivative penalty does not touch linear trends
    sm = DfSpline(400, 8.0)
    y = 0.01 * np.arange(400) - 2.0
    assert np.max(np.abs(sm.smooth(y) - y)) < 1e-8


def test_smoother_is_linear():
    sm = DfSpline(300, 10.0)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(300), rng.standard_normal(300)
    lhs = sm.smooth(2.0 * a - 0.5 * b)
    rhs = 2.0 * sm.smooth(a) - 0.5 * sm.smooth(b)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_residual_sum_decreases_with_df():
    rng = np.random.default_rng(1)
    t = np.linspace(0, 4 * np.pi, 600)
    y = np.sin(t) + 0.3 * rng.standard_normal(600)
    rss = [
        np.sum((DfSpline(600, df).smooth(y) - y) ** 2) for df in (5.0, 15.0, 40.0)
    ]
    assert rss[0] > rss[1] > rss[2]


def test_df_out_of_range_rejected():
    with pytest.raises(ConfigurationError):
        DfSpline(100, 1.5)
    with pytest.raises(ConfigurationError):
        DfSpline(100, 100.0)


def test_wrong_length_rejected():
    sm = DfSpline(50, 6.0)
    with pytest.raises(ConfigurationError):
        sm.smooth(np.zeros(49))


def scipy_design_and_penalty(n, n_knots):
    """B and P built with scipy's `BSpline`, span by span: the oracle."""
    from scipy.interpolate import BSpline

    interior = np.linspace(0, n - 1, n_knots)
    t = np.concatenate([np.full(DEGREE, interior[0]), interior, np.full(DEGREE, interior[-1])])
    B = BSpline.design_matrix(np.arange(n, dtype=float), t, DEGREE).toarray()
    nb = B.shape[1]
    P = np.zeros((nb, nb))
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(3)
    spans = np.unique(t)
    d2 = BSpline(t, np.eye(nb), DEGREE).derivative(2)
    for a, b in zip(spans[:-1], spans[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        V = d2(mid + half * gauss_x).T
        P += (V * gauss_w) @ V.T * half
    return B, P


def scipy_built(sm):
    """`scipy_design_and_penalty` for the knots `DfSpline` places."""
    return scipy_design_and_penalty(sm.n, min(sm.n, max(int(np.ceil(4 * sm.df)), 10)))


@pytest.mark.parametrize("n, df", [(2880, 72.0), (8640, 12.0), (2881, 30.5), (100, 5.0),
                                   (100, 30.0), (300, 72.0)])
def test_design_and_penalty_equal_scipy_built(n, df):
    # (100, 30) and (300, 72) have one knot per point
    sm = DfSpline(n, df)
    B, P = scipy_built(sm)
    dense = np.zeros_like(B)
    dense[np.arange(n)[:, None], sm.first[:, None] + np.arange(DEGREE + 1)] = sm.values
    assert np.array_equal(dense, B)
    assert np.array_equal(sm.P, P)


def dense_trace(B, P, lam):
    """tr((B'B + lam P)^{-1} B'B) by a dense solve: the oracle for the smoother's trace."""
    BtB = B.T @ B
    return np.trace(np.linalg.solve(BtB + lam * P, BtB))


def dense_smooth(B, P, lam, y):
    """B (B'B + lam P)^{-1} B'y by a dense solve: the oracle for `smooth`."""
    return B @ np.linalg.solve(B.T @ B + lam * P, B.T @ y)


@pytest.mark.parametrize("n, df", [(2879, 72.0), (600, 15.0), (300, 72.0), (100, 30.0)])
def test_trace_matches_dense_solve(n, df):
    # (300, 72) and (100, 30) have about one knot per point; at (100, 30)
    # B'B is singular
    sm = DfSpline(n, df)
    B, P = scipy_built(sm)
    for lam in sm._lam * np.array([1e-3, 0.1, 1.0, 10.0, 1e3]):
        # both sides solve B'B + lam P: their error grows with its condition number
        cond = np.linalg.cond(B.T @ B + lam * P)
        rel = 10 * np.finfo(float).eps * cond
        assert sm._trace(lam) == pytest.approx(dense_trace(B, P, lam), rel=rel)
    assert abs(sm.effective_df - df) <= 0.05


@pytest.mark.parametrize("n, df", [(2880, 72.0), (8640, 12.0), (2881, 30.5), (100, 5.0),
                                   (100, 30.0), (300, 72.0)])
def test_eigenvalues_equal_scipy_generalized_eigh(n, df):
    # the Demmler-Reinsch eigenvalues p solve P x = p (B'B + mu P) x
    from scipy.linalg import eigh

    sm = DfSpline(n, df)
    B, P = scipy_built(sm)
    BtB = B.T @ B
    mu = np.trace(BtB) / np.trace(P)
    want = np.clip(eigh(P, BtB + mu * P, eigvals_only=True), 0.0, 1.0 / mu)
    # the largest eigenvalue is 1 / mu; both sides round relative to it
    assert np.max(np.abs(sm._p - want)) <= len(P) * np.finfo(float).eps / mu


@pytest.mark.parametrize("n, df", [(2879, 72.0), (8640, 72.0), (576, 12.0), (100, 30.0)])
def test_smooth_matches_dense_solve(n, df):
    sm = DfSpline(n, df)
    rng = np.random.default_rng(n)
    y = np.log(np.abs(rng.standard_normal(n)) + 0.1) + np.sin(np.arange(n) / 40.0)
    want = dense_smooth(*scipy_built(sm), sm._lam, y)
    assert np.max(np.abs(sm.smooth(y) - want)) <= 1e-12 * np.max(np.abs(want))


def test_peak_memory_holds_no_dense_design():
    # the design is held as its four nonzero values per row: no n x nb array;
    # and only the eigenvalues of L^{-1} P L^{-T} are formed: 3.72 MB at
    # n = 8640 (nb = 290), against 4.41 MB with the eigenvector basis and
    # three general solves
    def peak(n):
        tracemalloc.start()
        try:
            DfSpline(n, 72.0).smooth(np.zeros(n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    DfSpline(100, 5.0)  # lazy imports (numpy.polynomial) outside the measurement
    big, small = peak(8640), peak(2880)
    assert big <= 4.0e6
    assert abs(big - small) <= 1e6
