"""Pairwise spatial quantities for the monitoring network.

Great-circle distances on a sphere of radius 6371 km, plus planar
displacement vectors (east/north, km) from an equirectangular projection
about the network centroid. The study domains are small (~150 km), so a
locally accurate flat projection is all the phase term of the model needs.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_KM = 6371.0


def great_circle(p, q) -> float:
    """Haversine distance in km between (lat, lon) pairs in degrees."""
    lat1, lon1 = np.radians(p)
    lat2, lon2 = np.radians(q)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return float(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0))))


def distance_matrix(lats, lons) -> np.ndarray:
    """Symmetric great-circle distance matrix (km)."""
    lat = np.radians(np.asarray(lats, dtype=float))[:, None]
    lon = np.radians(np.asarray(lons, dtype=float))[:, None]
    dlat = lat - lat.T
    dlon = lon - lon.T
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat) * np.cos(lat.T) * np.sin(dlon / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    np.fill_diagonal(d, 0.0)
    return d


def local_plane(lats, lons) -> np.ndarray:
    """Antisymmetric matrix of planar displacement 2-vectors (east, north), km.

    displacements[j, k] = position(j) - position(k) in an equirectangular
    projection about the centroid (none for zero sites). Warns when the
    domain diameter exceeds 1000 km, where a flat-plane treatment starts to
    break down.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    lat0 = np.radians(lats.mean()) if len(lats) else 0.0
    east = EARTH_RADIUS_KM * np.cos(lat0) * np.radians(lons)
    north = EARTH_RADIUS_KM * np.radians(lats)
    xy = np.stack([east, north], axis=-1)
    disp = xy[:, None, :] - xy[None, :, :]
    diameter = np.linalg.norm(disp, axis=-1).max(initial=0.0)
    if diameter > 1000.0:
        warnings.warn(
            f"domain diameter {diameter:.0f} km exceeds 1000 km; "
            "flat-plane displacements may be inaccurate"
        )
    return disp


@dataclass(frozen=True)
class SiteGeometry:
    """Locations plus derived pairwise distances and displacements."""

    lats: np.ndarray
    lons: np.ndarray
    distances: np.ndarray = field(init=False)
    displacements: np.ndarray = field(init=False)

    def __post_init__(self):
        lats = np.asarray(self.lats, dtype=float)
        lons = np.asarray(self.lons, dtype=float)
        object.__setattr__(self, "lats", lats)
        object.__setattr__(self, "lons", lons)
        object.__setattr__(self, "distances", distance_matrix(lats, lons))
        object.__setattr__(self, "displacements", local_plane(lats, lons))

    @property
    def n_sites(self) -> int:
        return len(self.lats)

    def subset(self, idx) -> "SiteGeometry":
        idx = np.asarray(idx)
        return SiteGeometry(self.lats[idx], self.lons[idx])


def combine(a: SiteGeometry, b: SiteGeometry) -> SiteGeometry:
    """Geometry over the concatenation of two site sets (a first)."""
    return SiteGeometry(
        np.concatenate([a.lats, b.lats]), np.concatenate([a.lons, b.lons])
    )
