"""Probing learned representations against ground-truth geography.

If the geography encoder works, distances in its embedding space should
correlate with physical distances between POIs.  This module measures
that alignment (Spearman rank correlation over sampled POI pairs), both
for the geography encoder specifically and for any id→vector table.
No program path runs the probe, so this module is not part of the
package; it lives next to ``tests/test_embedding_probe.py``, its only
user.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import stats

from repro.geo.haversine import haversine
from repro.nn.tensor import no_grad


def pairwise_alignment(
    vectors: np.ndarray,
    coords: np.ndarray,
    num_pairs: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Spearman correlation between embedding distance and haversine km.

    Parameters
    ----------
    vectors : (m, d) representation per POI.
    coords : (m, 2) matching (lat, lon).

    Returns the correlation in [-1, 1]; positive = geometry preserved.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if len(vectors) != len(coords):
        raise ValueError("vectors and coords must align")
    if len(vectors) < 3:
        raise ValueError("need at least 3 POIs to probe")
    rng = rng or np.random.default_rng()
    m = len(vectors)
    i = rng.integers(0, m, size=num_pairs)
    j = rng.integers(0, m, size=num_pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    emb_dist = np.linalg.norm(vectors[i] - vectors[j], axis=1)
    geo_dist = haversine(coords[i, 0], coords[i, 1], coords[j, 0], coords[j, 1])
    if np.allclose(emb_dist, emb_dist[0]) or np.allclose(geo_dist, geo_dist[0]):
        return 0.0
    rho, _ = stats.spearmanr(emb_dist, geo_dist)
    return float(rho)


def geography_encoder_alignment(
    encoder,
    poi_coords: np.ndarray,
    num_pairs: int = 500,
    rng: Optional[np.random.Generator] = None,
    batch: int = 256,
) -> float:
    """Alignment of a :class:`repro.core.geo_encoder.GeographyEncoder`.

    Encodes every real POI (ids 1..P) and probes the vectors against the
    catalogue coordinates.
    """
    poi_coords = np.asarray(poi_coords, dtype=np.float64)
    num_pois = len(poi_coords) - 1
    vectors = []
    with no_grad():
        for start in range(1, num_pois + 1, batch):
            ids = np.arange(start, min(start + batch, num_pois + 1))
            vectors.append(encoder(ids).data)
    return pairwise_alignment(
        np.concatenate(vectors), poi_coords[1:], num_pairs=num_pairs, rng=rng
    )
