"""The clustered large catalogue of ``serve_churn``, generated vectorised.

Coordinates follow ``benchmarks/bench_scale_pois.build_scale_catalogue``:
district centres uniform over lat [-60, 60] and lon [-178, 178], POIs
scattered 0.02 degrees (about 2 km) around their district.  Each user
lives in one district and has a history of ``history`` check-ins there,
so every anchor has a full slate of nearby POIs.
"""

from __future__ import annotations

import numpy as np

from repro.data import CheckInDataset, UserSequence

from loadgen import ChurnState

#: POIs per district: larger than a 100-POI slate and the 2000-POI
#: negative pool, so a query resolves inside one district.
DISTRICT_SIZE = 4000


def churn_catalogue(seed: int, num_pois: int, num_users: int, history: int):
    """Returns the dataset and the :class:`ChurnState` its schedule starts from."""
    rng = np.random.default_rng([seed, 4])
    num_clusters = max(1, num_pois // DISTRICT_SIZE)
    centers = np.stack(
        [rng.uniform(-60.0, 60.0, num_clusters), rng.uniform(-178.0, 178.0, num_clusters)],
        axis=1,
    )
    assign = rng.integers(0, num_clusters, num_pois)
    coords = np.zeros((num_pois + 1, 2))
    coords[1:, 0] = np.clip(centers[assign, 0] + rng.normal(0, 0.02, num_pois), -85.0, 85.0)
    coords[1:, 1] = centers[assign, 1] + rng.normal(0, 0.02, num_pois)

    cluster_of = np.zeros(num_pois + 1, dtype=np.int64)
    cluster_of[1:] = assign
    order = np.argsort(assign, kind="stable") + 1
    bounds = np.searchsorted(assign[order - 1], np.arange(num_clusters + 1))
    members = [order[bounds[c]:bounds[c + 1]] for c in range(num_clusters)]

    home = rng.integers(0, num_clusters, num_users)
    sequences = {}
    anchor = np.zeros(num_users + 1, dtype=np.int64)
    last_time = np.zeros(num_users + 1)
    for user in range(1, num_users + 1):
        district = members[home[user - 1]]
        pois = district[rng.integers(0, len(district), history)]
        times = 1.3e9 + np.cumsum(rng.uniform(600.0, 6 * 3600.0, history))
        sequences[user] = UserSequence(user=user, pois=pois, times=times)
        anchor[user], last_time[user] = pois[-1], times[-1]
    dataset = CheckInDataset(name=f"churn-{num_pois}", poi_coords=coords, sequences=sequences)
    return dataset, ChurnState(anchor, last_time, cluster_of, members)
