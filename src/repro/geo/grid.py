"""Quadkey-bucketed spatial grid index for million-POI catalogues.

The KD-tree in :mod:`repro.geo.neighbors` answers single queries fast,
but every *setup* path built on it scales poorly: precomputing a
``(num_pois, pool_size)`` neighbour table costs O(P · pool) time and
memory.  SANST's hierarchical geo-gridding and STAN's spatial candidate
matching both show the right large-catalogue primitive is a *grid
bucket lookup*: discretize the catalogue once into Web-Mercator tiles
(the same tiles :mod:`repro.geo.quadkey` feeds the geography encoder),
then answer k-NN queries by expanding square *rings* of tiles around
the query until a provable distance bound says no closer POI can hide
in an unvisited tile.

Contracts
---------
- :meth:`GridIndex.query_knn` returns the **canonical** ordering —
  sort by ``(distance_km, poi_id)`` with distances computed by
  :func:`repro.geo.neighbors.xyz_distance_km` — and is therefore
  bit-for-bit identical to :meth:`PoiIndex.query_canonical` on any
  catalogue, including duplicate coordinates, poles and antimeridian
  (the ring walk wraps tile x modulo the map width).
- :meth:`GridIndex.nearest_excluding` shares its implementation with
  the KD-tree backend via :class:`SpatialIndexBase`, so serving and
  evaluation slates are backend-independent wherever distances are
  distinct (the golden-fixture suites pin this bitwise).
- Peak memory is O(P) — the row-id arrays plus one bucket slice table;
  no per-POI neighbour pools are ever materialized.

Termination bound
-----------------
After visiting the box of Chebyshev tile-radius ``r`` around the query
tile, every POI in an *unvisited* tile lies beyond the box edges:

- north/south edges are constant-latitude lines; the meridian arc
  ``R · |lat_q − lat_edge|`` lower-bounds the great-circle distance to
  anything beyond them (Mercator clamping only pushes poleward POIs
  *further* past the edge, and a pole-clamped query sits in an edge
  tile row, which disables that side's bound);
- east/west edges are meridians; the cross-track distance
  ``R · arcsin(|cos lat_q · sin Δlon|)`` lower-bounds the distance to
  any point beyond them (any path to a longitude outside the box must
  cross one of the two edge meridians).

The minimum over applicable edges is a valid lower bound for every
unvisited candidate, so stopping once it *exceeds* the current k-th
distance can never drop a true neighbour — ties at exactly the k-th
distance are kept searching until the bound is strictly larger.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .haversine import EARTH_RADIUS_KM
from .neighbors import (
    PoiIndex,
    SpatialIndexBase,
    canonical_topk,
    latlon_to_unit_xyz,
    xyz_distance_km,
)
from .quadkey import latlon_to_tile_xy

#: Resolution the catalogue is tiled at before the bucket level is
#: chosen; level-l tiles are bit-shifts of these, so auto-levelling
#: never re-projects.
BASE_LEVEL = 20

#: :func:`build_spatial_index` switches from the KD-tree to the grid at
#: this catalogue size, the only thing that picks the backend.  Below
#: it the tree builds evaluation slates faster (96 identical slates at
#: 249 POIs: 9.3 ms vs 16.7 ms, median of 9, 2-core Xeon); above it
#: the grid's O(rings) queries and flat memory win.
GRID_BACKEND_MIN_POIS = 50_000

#: Mean occupied-bucket population the auto level aims for: fine enough
#: that a ring visit touches ~hundreds of candidates, coarse enough
#: that k-NN rarely needs more than a few rings.
TARGET_BUCKET_OCCUPANCY = 64


def _auto_level(tx_base: np.ndarray, ty_base: np.ndarray) -> int:
    """Finest tile level whose occupied buckets still average at least
    :data:`TARGET_BUCKET_OCCUPANCY` POIs (data-adaptive, so a dense
    single-city catalogue gets street-scale tiles while a sparse
    continental one stays coarse)."""
    n = tx_base.size
    level = 2
    for candidate in range(3, BASE_LEVEL + 1):
        shift = BASE_LEVEL - candidate
        keys = ((ty_base >> shift) << np.int64(candidate)) | (tx_base >> shift)
        occupied = np.unique(keys).size
        if n / occupied < TARGET_BUCKET_OCCUPANCY:
            break
        level = candidate
    return level


class GridIndex(SpatialIndexBase):
    """Quadkey-tile-bucketed spatial index with ring-expansion k-NN.

    Parameters
    ----------
    coords : (num_pois, 2) array of (lat, lon); row i is POI id
        ``offset + i``.
    offset : first valid POI id (default 1; id 0 is the padding POI).
    level : Web-Mercator tile zoom of the buckets; ``None`` picks the
        finest level that keeps occupied buckets at
        :data:`TARGET_BUCKET_OCCUPANCY` mean population.
    """

    backend = "grid"

    def __init__(self, coords: np.ndarray, offset: int = 1, level: Optional[int] = None):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coords, got {coords.shape}")
        if len(coords) == 0:
            raise ValueError("cannot index an empty catalogue")
        self.coords = coords
        self.offset = offset
        self._xyz = latlon_to_unit_xyz(coords)
        self._lat_rad = np.radians(coords[:, 0])
        self._lon_rad = np.radians(coords[:, 1])

        tx_base, ty_base = latlon_to_tile_xy(coords[:, 0], coords[:, 1], BASE_LEVEL)
        if level is None:
            level = _auto_level(tx_base, ty_base)
        if not 1 <= level <= BASE_LEVEL:
            raise ValueError(f"level must be in [1, {BASE_LEVEL}], got {level}")
        self.level = int(level)
        self._n_tiles = 1 << self.level
        shift = BASE_LEVEL - self.level
        self._tx = (tx_base >> shift).astype(np.int64)
        self._ty = (ty_base >> shift).astype(np.int64)

        keys = (self._ty << np.int64(self.level)) | self._tx
        order = np.argsort(keys, kind="stable")
        self._rows_by_bucket = order.astype(np.int64)
        sorted_keys = keys[order]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        ends = np.append(starts[1:], len(keys))
        self._buckets = {
            int(key): (int(lo), int(hi)) for key, lo, hi in zip(uniq, starts, ends)
        }

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    # ------------------------------------------------------------------
    # Tile geometry
    # ------------------------------------------------------------------
    def _tile_lat_rad(self, ty: int) -> float:
        """Latitude (radians) of the northern boundary of tile row ``ty``."""
        return float(np.arctan(np.sinh(np.pi * (1.0 - 2.0 * ty / self._n_tiles))))

    def _tile_lon_rad(self, tx: int) -> float:
        """Longitude (radians) of the western boundary of tile column
        ``tx`` (tx may run past the map edge; the trig downstream is
        periodic)."""
        return np.pi * (2.0 * tx / self._n_tiles - 1.0)

    def _outside_box_bound_km(self, row: int, tx: int, ty: int, r: int) -> float:
        """Lower bound (km) on the distance from POI ``row`` to any POI
        whose tile lies outside the box of Chebyshev radius ``r``."""
        n = self._n_tiles
        lat_q = float(self._lat_rad[row])
        lon_q = float(self._lon_rad[row])
        bounds = []
        if ty - r > 0:  # north edge exists
            bounds.append(abs(lat_q - self._tile_lat_rad(ty - r)))
        if ty + r < n - 1:  # south edge exists
            bounds.append(abs(lat_q - self._tile_lat_rad(ty + r + 1)))
        if 2 * r + 1 < n:  # box does not wrap the full map width
            cos_lat = np.cos(lat_q)
            for edge_tx in (tx - r, tx + r + 1):
                dlon = lon_q - self._tile_lon_rad(edge_tx)
                cross = min(1.0, abs(cos_lat * np.sin(dlon)))
                bounds.append(float(np.arcsin(cross)))
        if not bounds:
            return float("inf")
        return EARTH_RADIUS_KM * min(bounds)

    def _ring_rows(self, tx: int, ty: int, r: int, seen: set) -> Optional[np.ndarray]:
        """Row ids bucketed in ring ``r`` of the tile box around
        ``(tx, ty)``; tile x wraps modulo the map width (antimeridian),
        tile y clamps at the map edges.  ``seen`` dedupes tiles a
        wrapped ring revisits."""
        n = self._n_tiles
        tiles = []
        if r == 0:
            tiles.append((tx % n, ty))
        else:
            xs = [x % n for x in range(tx - r, tx + r + 1)]
            for y in (ty - r, ty + r):
                if 0 <= y < n:
                    tiles.extend((x, y) for x in xs)
            for y in range(max(ty - r + 1, 0), min(ty + r, n)):
                tiles.append(((tx - r) % n, y))
                tiles.append(((tx + r) % n, y))
        chunks = []
        for x, y in tiles:
            key = (y << self.level) | x
            if key in seen:
                continue
            seen.add(key)
            span = self._buckets.get(key)
            if span is not None:
                chunks.append(self._rows_by_bucket[span[0]:span[1]])
        if not chunks:
            return None
        return np.concatenate(chunks)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _gather_knn(self, row: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        tx, ty = int(self._tx[row]), int(self._ty[row])
        q = self._xyz[row]
        seen: set = set()
        found_rows: list[np.ndarray] = []
        found_km: list[np.ndarray] = []
        count = 0  # candidates gathered, excluding the query row itself
        r = 0
        while True:
            cand = self._ring_rows(tx, ty, r, seen)
            if cand is not None:
                km = xyz_distance_km(self._xyz[cand], q)
                found_rows.append(cand)
                found_km.append(km)
                count += cand.size - int((cand == row).sum())
            bound = self._outside_box_bound_km(row, tx, ty, r)
            if bound == float("inf"):
                break  # every tile visited
            if count >= k:
                all_km = np.concatenate(found_km)
                valid = all_km[np.concatenate(found_rows) != row]
                d_k = np.partition(valid, k - 1)[k - 1]
                if bound > d_k:
                    break
            r += 1
        rows = np.concatenate(found_rows)
        km = np.concatenate(found_km)
        keep = rows != row
        return canonical_topk(rows[keep], km[keep], k)

    def query_knn(self, poi_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, distances_km) of the k nearest POIs to ``poi_id`` in
        canonical ``(distance, id)`` order, excluding the query POI;
        visits O(rings) buckets instead of the whole catalogue."""
        row = self._row_of(poi_id)
        k = min(k, len(self.coords) - 1)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rows, km = self._gather_knn(row, k)
        return rows + self.offset, km

    # Canonical ordering doubles as the drop-in ``query`` of this
    # backend: identical to the KD-tree ordering wherever distances are
    # distinct, deterministic where the tree's tie order is not.
    def query(self, poi_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        k = min(k, len(self.coords) - 1)
        return self.query_knn(poi_id, k)

    query_canonical = query_knn

    def query_radius(self, poi_id: int, radius_km: float) -> tuple[np.ndarray, np.ndarray]:
        """All POIs within ``radius_km`` of ``poi_id`` (canonical
        order, query POI excluded) — the slate-retrieval primitive."""
        if radius_km < 0:
            raise ValueError(f"radius_km must be >= 0, got {radius_km}")
        row = self._row_of(poi_id)
        tx, ty = int(self._tx[row]), int(self._ty[row])
        q = self._xyz[row]
        seen: set = set()
        chunks: list[np.ndarray] = []
        r = 0
        while True:
            cand = self._ring_rows(tx, ty, r, seen)
            if cand is not None:
                chunks.append(cand)
            bound = self._outside_box_bound_km(row, tx, ty, r)
            if bound > radius_km:  # also terminates on inf (all visited)
                break
            r += 1
        if not chunks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        rows = np.concatenate(chunks)
        km = xyz_distance_km(self._xyz[rows], q)
        keep = (rows != row) & (km <= radius_km)
        rows, km = rows[keep], km[keep]
        order = np.lexsort((rows, km))
        return rows[order] + self.offset, km[order]

    def knn_batch(self, k: int) -> np.ndarray:
        """(n, k) canonical k-NN ids for every POI.

        One ring-expansion query per POI — O(P · rings), flat memory.
        For small catalogues the KD-tree backend's vectorized
        :meth:`PoiIndex.knn_batch` is faster; streaming consumers
        (the negative sampler) query per batch instead.
        """
        n = len(self.coords)
        k = min(k, n - 1)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        out = np.empty((n, k), dtype=np.int64)
        for row in range(n):
            ids, _ = self.query_knn(row + self.offset, k)
            out[row] = ids
        return out


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
def build_spatial_index(coords: np.ndarray, offset: int = 1) -> SpatialIndexBase:
    """Build the spatial index over ``coords``; catalogue size alone
    picks the backend: :class:`GridIndex` from
    :data:`GRID_BACKEND_MIN_POIS` POIs up, :class:`PoiIndex` below.

    Consumers reach it through the dataset-level cached handle
    :meth:`repro.data.types.CheckInDataset.spatial_index`.
    """
    if len(coords) >= GRID_BACKEND_MIN_POIS:
        return GridIndex(coords, offset=offset)
    return PoiIndex(coords, offset=offset)
