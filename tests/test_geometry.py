"""Great-circle distances and local-plane displacement vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presim.geometry import (
    EARTH_RADIUS_KM,
    SiteGeometry,
    combine,
    distance_matrix,
    great_circle,
    local_plane,
)

# One degree of latitude on the R=6371 sphere.
ONE_DEG_KM = EARTH_RADIUS_KM * np.pi / 180.0


def test_great_circle_zero_at_same_point():
    assert great_circle((36.0, -97.0), (36.0, -97.0)) == 0.0


def test_great_circle_one_degree_latitude():
    d = great_circle((36.0, -97.0), (37.0, -97.0))
    assert abs(d - ONE_DEG_KM) < 1e-9
    assert abs(d - 111.19) < 0.01


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-80, 80), st.floats(-179, 179),
    st.floats(-80, 80), st.floats(-179, 179),
)
def test_great_circle_symmetric(lat1, lon1, lat2, lon2):
    assert great_circle((lat1, lon1), (lat2, lon2)) == pytest.approx(
        great_circle((lat2, lon2), (lat1, lon1)), abs=1e-12
    )


def test_distance_matrix_matches_pairwise():
    rng = np.random.default_rng(5)
    lats = 36.0 + rng.uniform(0, 1.5, 6)
    lons = -97.0 + rng.uniform(0, 1.5, 6)
    d = distance_matrix(lats, lons)
    assert np.allclose(np.diag(d), 0.0)
    assert np.allclose(d, d.T)
    for j in range(6):
        for k in range(6):
            assert d[j, k] == pytest.approx(
                great_circle((lats[j], lons[j]), (lats[k], lons[k])), abs=1e-9
            )


def test_distance_matrix_triangle_inequality():
    rng = np.random.default_rng(6)
    lats = 36.0 + rng.uniform(0, 1.5, 8)
    lons = -97.0 + rng.uniform(0, 1.5, 8)
    d = distance_matrix(lats, lons)
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-6


def test_distances_invariant_to_longitude_rotation():
    rng = np.random.default_rng(7)
    lats = 36.0 + rng.uniform(0, 1.5, 5)
    lons = -97.0 + rng.uniform(0, 1.5, 5)
    d0 = distance_matrix(lats, lons)
    d1 = distance_matrix(lats, lons + 40.0)
    assert np.max(np.abs(d0 - d1)) < 1e-9


def test_local_plane_zero_and_antisymmetric():
    lats = np.array([36.0, 36.0, 36.7])
    lons = np.array([-97.0, -97.0, -96.5])
    disp = local_plane(lats, lons)
    assert np.allclose(disp[0, 1], 0.0)
    assert np.allclose(disp, -np.transpose(disp, (1, 0, 2)))


def test_local_plane_matches_great_circle_on_small_domain():
    # ~150 km domain: planar displacement norms within 0.5% of great circle
    rng = np.random.default_rng(8)
    lats = 36.2 + rng.uniform(0, 0.8, 13)
    lons = -97.8 + rng.uniform(0, 1.0, 13)
    disp = local_plane(lats, lons)
    d = distance_matrix(lats, lons)
    norms = np.linalg.norm(disp, axis=-1)
    mask = (d > 0) & (d < 200.0)
    assert np.all(np.abs(norms[mask] / d[mask] - 1.0) < 0.005)


def test_local_plane_warns_on_large_domain():
    with pytest.warns(UserWarning, match="1000 km"):
        local_plane(np.array([30.0, 45.0]), np.array([-100.0, -80.0]))


def test_site_geometry_subset_and_combine():
    g = SiteGeometry(np.array([36.0, 36.5, 37.0]), np.array([-97.0, -96.5, -97.5]))
    sub = g.subset([0, 2])
    assert sub.n_sites == 2
    assert sub.distances[0, 1] == pytest.approx(g.distances[0, 2], abs=1e-12)
    both = combine(sub, g.subset([1]))
    assert both.n_sites == 3
    assert both.distances[0, 2] == pytest.approx(g.distances[0, 1], abs=1e-12)


def test_site_geometry_with_zero_sites():
    empty = SiteGeometry(np.array([]), np.array([]))
    assert empty.n_sites == 0
    assert empty.distances.shape == (0, 0)
    assert empty.displacements.shape == (0, 0, 2)
    g = SiteGeometry(np.array([36.0, 36.5, 37.0]), np.array([-97.0, -96.5, -97.5]))
    both = combine(empty, g)
    assert np.array_equal(both.lats, g.lats)
    assert np.array_equal(both.distances, g.distances)
    assert np.array_equal(both.displacements, g.displacements)
