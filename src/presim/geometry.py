"""Pairwise spatial quantities for the monitoring network.

Great-circle distances on a sphere of radius 6371 km, plus planar
positions (east/north, km) from an equirectangular projection about the
network centroid. The study domains
are small (~150 km), so a locally accurate flat projection is all the
phase term of the model needs.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_KM = 6371.0


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


def plane_positions(lats, lons) -> np.ndarray:
    """Planar site positions (east, north), km, as an (n, 2) array.

    An equirectangular projection about the centroid, which sits at the
    origin (none for zero sites). Warns when the domain diameter exceeds
    1000 km, where a flat-plane treatment starts to break down.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if not len(lats):
        return np.zeros((0, 2))
    lat0, lon0 = lats.mean(), lons.mean()
    east = EARTH_RADIUS_KM * np.cos(np.radians(lat0)) * np.radians(lons - lon0)
    north = EARTH_RADIUS_KM * np.radians(lats - lat0)
    xy = np.stack([east, north], axis=-1)
    diameter = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1).max()
    if diameter > 1000.0:
        warnings.warn(
            f"domain diameter {diameter:.0f} km exceeds 1000 km; "
            "flat-plane positions may be inaccurate"
        )
    return xy


@dataclass(frozen=True)
class SiteGeometry:
    """Locations plus derived planar positions and great-circle distances."""

    lats: np.ndarray
    lons: np.ndarray
    positions: np.ndarray = field(init=False)
    distances: np.ndarray = field(init=False)

    def __post_init__(self):
        lats = np.asarray(self.lats, dtype=float)
        lons = np.asarray(self.lons, dtype=float)
        object.__setattr__(self, "lats", lats)
        object.__setattr__(self, "lons", lons)
        object.__setattr__(self, "positions", plane_positions(lats, lons))
        object.__setattr__(self, "distances", distance_matrix(lats, lons))

    @classmethod
    def of(cls, stations) -> "SiteGeometry":
        """Geometry of station records (`ingest.StationMeta`), in their order."""
        return cls(np.array([s.latitude for s in stations], dtype=float),
                   np.array([s.longitude for s in stations], dtype=float))

    @property
    def n_sites(self) -> int:
        return len(self.lats)


def combine(a: SiteGeometry, b: SiteGeometry) -> SiteGeometry:
    """Geometry over the concatenation of two site sets (a first)."""
    return SiteGeometry(
        np.concatenate([a.lats, b.lats]), np.concatenate([a.lons, b.lons])
    )
