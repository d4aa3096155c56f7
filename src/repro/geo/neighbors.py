"""k-nearest-neighbour search over POI coordinates.

Used for two protocol pieces of the paper:

- training negatives: "retrieve the L nearest POIs around [the target]"
  sampled "from the target's nearest 2000 neighbours";
- evaluation candidates: "the nearest 100 previously unvisited POIs
  around the target".

We build a scipy cKDTree over 3-D unit-sphere projections of the GPS
coordinates so Euclidean KD-tree distances order identically to
great-circle distances.

Two orderings coexist on purpose:

- :meth:`PoiIndex.query` returns the KD-tree's native
  distance-ascending order (tie order is whatever the tree yields) —
  the historical contract every golden fixture was generated under;
- the *canonical* ordering sorts by ``(distance_km, poi_id)`` with
  distances recomputed in numpy, so it is identical across spatial
  backends even on duplicate coordinates.  The grid index
  (:mod:`repro.geo.grid`) and the batch pool builders speak canonical;
  on distinct distances the two orderings coincide.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .haversine import EARTH_RADIUS_KM


def latlon_to_unit_xyz(coords: np.ndarray) -> np.ndarray:
    """(n, 2) degrees -> (n, 3) points on the unit sphere.

    Chordal (Euclidean) distance is monotone in central angle, so
    nearest neighbours in xyz space match haversine nearest neighbours.
    """
    coords = np.asarray(coords, dtype=np.float64)
    lat = np.radians(coords[:, 0])
    lon = np.radians(coords[:, 1])
    cos_lat = np.cos(lat)
    return np.stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=1)


def chord_to_km(chord: np.ndarray) -> np.ndarray:
    """Convert unit-sphere chord length to great-circle km."""
    half = np.clip(np.asarray(chord) / 2.0, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(half)


def xyz_distance_km(xyz_rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Great-circle km from query point(s) ``q`` to ``xyz_rows``.

    Both spatial backends route their candidate distances through this
    exact sequence of numpy ops, so the canonical ``(distance, id)``
    ordering is bit-for-bit identical between them.
    """
    diff = xyz_rows - q
    chord = np.sqrt((diff * diff).sum(axis=-1))
    return chord_to_km(chord)


def canonical_topk(ids: np.ndarray, dist_km: np.ndarray, k: int):
    """Sort candidates by ``(distance, id)`` and keep the first ``k``.

    The deterministic tie-break (lower id wins) is what makes k-NN
    results reproducible across spatial backends when coordinates
    collide exactly.
    """
    order = np.lexsort((ids, dist_km))[:k]
    return ids[order], dist_km[order]


class SpatialIndexBase:
    """Shared query semantics over any POI spatial backend.

    Subclasses provide ``coords`` (the (n, 2) catalogue), ``offset``
    (first valid POI id) and :meth:`query`; the slate-building
    ``nearest_excluding`` contract lives here so the KD-tree and grid
    backends cannot drift apart.
    """

    coords: np.ndarray
    offset: int

    def __len__(self) -> int:
        return len(self.coords)

    def _row_of(self, poi_id: int) -> int:
        row = poi_id - self.offset
        if not 0 <= row < len(self.coords):
            raise IndexError(f"POI id {poi_id} out of range")
        return row

    def query(self, poi_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError  # pragma: no cover - interface

    def nearest_excluding(
        self,
        poi_id: int,
        k: int,
        exclude: Optional[set] = None,
    ) -> np.ndarray:
        """The k nearest POI ids to ``poi_id`` not in ``exclude``.

        Implements the evaluation-candidate retrieval: nearest 100
        *previously unvisited* POIs around the target.
        """
        exclude = exclude or set()
        # Expand the search window until enough survivors are found.
        want = k
        window = k + len(exclude) + 1
        while True:
            ids, _ = self.query(poi_id, min(window, len(self.coords) - 1))
            survivors = [int(p) for p in ids if p not in exclude]
            if len(survivors) >= want or len(ids) >= len(self.coords) - 1:
                return np.array(survivors[:want], dtype=np.int64)
            window *= 2


class PoiIndex(SpatialIndexBase):
    """KD-tree spatial index over the POI catalogue.

    Parameters
    ----------
    coords : (num_pois, 2) array of (lat, lon); row i is POI id ``offset + i``.
    offset : first valid POI id (default 1: id 0 is the padding POI).
    """

    backend = "tree"

    def __init__(self, coords: np.ndarray, offset: int = 1):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coords, got {coords.shape}")
        self.coords = coords
        self.offset = offset
        self._xyz = latlon_to_unit_xyz(coords)
        self._tree = cKDTree(self._xyz)

    def query(self, poi_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (ids, distances_km) of the k nearest POIs to ``poi_id``,
        excluding the query POI itself, ordered by distance."""
        row = self._row_of(poi_id)
        k_eff = min(k + 1, len(self.coords))
        dist, idx = self._tree.query(self._xyz[row], k=k_eff)
        dist = np.atleast_1d(dist)
        idx = np.atleast_1d(idx)
        keep = idx != row
        idx, dist = idx[keep][:k], dist[keep][:k]
        return idx + self.offset, chord_to_km(dist)

    def query_canonical(self, poi_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Tie-aware k-NN in the canonical ``(distance, id)`` ordering.

        Matches :meth:`repro.geo.grid.GridIndex.query_knn` bit-for-bit,
        including on duplicate coordinates: the candidate window is
        widened to cover every tie of the k-th distance before the
        canonical sort decides which tie members survive.
        """
        row = self._row_of(poi_id)
        k = min(k, len(self.coords) - 1)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k_eff = min(k + 1, len(self.coords))
        dist, idx = self._tree.query(self._xyz[row], k=k_eff)
        dist = np.atleast_1d(dist)
        idx = np.atleast_1d(idx)
        if k_eff < len(self.coords):
            # Ties of the boundary distance may extend past the window;
            # a closed ball at (slightly above) it recovers all of them.
            radius = float(dist[-1]) * (1.0 + 1e-9)
            idx = np.asarray(
                self._tree.query_ball_point(self._xyz[row], radius), dtype=np.int64
            )
        idx = idx[idx != row]
        km = xyz_distance_km(self._xyz[idx], self._xyz[row])
        idx, km = canonical_topk(idx, km, k)
        return idx + self.offset, km

    def knn_batch(self, k: int) -> np.ndarray:
        """(n, k) canonical k-NN ids for *every* POI in one vectorized
        KD-tree query (plus per-row tie repair where the canonical cut
        is ambiguous).

        Replaces the historical one-``query``-per-POI loop of the pool
        builders: a single C-level ``cKDTree.query(xyz_matrix, k)``
        call, then a flat lexsort to impose the canonical
        ``(distance, id)`` order row by row.
        """
        n = len(self.coords)
        k = min(k, n - 1)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k_eff = min(k + 2, n)
        _, idx = self._tree.query(self._xyz, k=k_eff)
        idx = np.atleast_2d(idx)
        km = xyz_distance_km(self._xyz[idx], self._xyz[:, None, :])
        # Push self-rows to the end; with duplicate coordinates the self
        # row may appear anywhere in the window (or not at all).
        self_mask = idx == np.arange(n)[:, None]
        km = np.where(self_mask, np.inf, km)
        flat_rows = np.repeat(np.arange(n), k_eff)
        order = np.lexsort((idx.reshape(-1), km.reshape(-1), flat_rows))
        sorted_idx = idx.reshape(-1)[order].reshape(n, k_eff)
        sorted_km = km.reshape(-1)[order].reshape(n, k_eff)
        pools = sorted_idx[:, :k].copy()
        if k < k_eff:
            # Rows where the first dropped candidate ties the k-th kept
            # one: the tie set may extend beyond the window, so repair
            # through the tie-aware single query.
            ambiguous = np.flatnonzero(sorted_km[:, k] <= sorted_km[:, k - 1])
            for row in ambiguous:
                ids, _ = self.query_canonical(int(row) + self.offset, k)
                pools[row] = ids - self.offset
        return pools + self.offset
