"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from presim.condsim import ConditionalSampler, PredictionSetup
from presim.geometry import SiteGeometry
from presim.spectrum import KnotSet, SpectralModel
from presim.whittle import SpectralField


@pytest.fixture(scope="session")
def model():
    """Spectral model with the default knots (hourly cutoff)."""
    return SpectralModel(KnotSet.default())


@pytest.fixture(scope="session")
def geometry3():
    """Three irregularly spaced sites, ~20-60 km apart."""
    return SiteGeometry(
        np.array([36.10, 36.45, 36.80]), np.array([-97.20, -96.90, -97.45])
    )


def random_params(model, rng, scale=0.4):
    """A random parameter vector with moderate coefficient sizes."""
    return model.unpack(rng.normal(scale=scale, size=model.n_params))


@pytest.fixture
def rand_params():
    return random_params


def numeric_hessian(fun, x, rel_step: float = 1e-4) -> np.ndarray:
    """Second central differences of a scalar `fun`: the oracle for Hessians."""
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


def unconditional_sampler(model, params, geometry, T):
    """Sampler of the full field at `geometry`, conditioned on zero sites."""
    setup = PredictionSetup(
        observed=SiteGeometry(np.array([]), np.array([])),
        target_lats=geometry.lats, target_lons=geometry.lons,
        target_elevations=np.zeros(geometry.n_sites),
    )
    return ConditionalSampler(model, params, setup, SpectralField(np.zeros((T, 0))))
