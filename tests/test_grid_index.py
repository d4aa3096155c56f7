"""Property suite for the million-POI scaling layer.

Covers the four equivalence contracts of the grid index PR:

- grid k-NN == KD-tree canonical k-NN on random catalogues, including
  antimeridian, pole-clamped and duplicate coordinates;
- negative sampler bitwise == a brute-force ``(distance, id)`` oracle
  for fixed seeds, on either index backend and on duplicate
  coordinates;
- sharded loss == unsharded loss: forward within 1e-6, gradients
  bitwise, across shard sizes including a ragged last shard;
- evaluation/serving slates identical under the grid retriever (and
  the committed golden top-10 fixture reproduced end-to-end with the
  grid backend forced).
"""

import json

import numpy as np
import pytest

from repro.core.loss import weighted_bce_loss, weighted_bce_loss_sharded
from repro.data import EvalCandidateRetriever, NearestNegativeSampler
from repro.data.types import PAD_POI, CheckInDataset, UserSequence
from repro.geo import (
    GRID_BACKEND_MIN_POIS,
    GridIndex,
    PoiIndex,
    build_spatial_index,
)
from repro.geo.neighbors import latlon_to_unit_xyz, xyz_distance_km
from repro.nn.tensor import Tensor, no_grad


def random_coords(rng, n, lat_span=(-80, 80), lon_span=(-180, 180)):
    return np.stack(
        [rng.uniform(*lat_span, n), rng.uniform(*lon_span, n)], axis=1
    )


def edge_case_coords(rng, n):
    """Random catalogue with the awkward corners injected."""
    coords = random_coords(rng, n)
    coords[0] = [89.9, 10.0]       # pole-clamped (beyond Mercator range)
    coords[1] = [-89.9, -170.0]
    coords[2] = [0.0, 179.95]      # antimeridian straddle
    coords[3] = [0.0, -179.95]
    coords[4] = coords[5]          # exact duplicate coordinates
    coords[6] = coords[5]
    return coords


class TestGridKnnEquivalence:
    def test_matches_kdtree_on_random_catalogues(self):
        rng = np.random.default_rng(11)
        for trial in range(3):
            n = int(rng.integers(60, 300))
            coords = edge_case_coords(rng, n)
            tree = PoiIndex(coords)
            for level in (None, 3, 6):
                grid = GridIndex(coords, level=level)
                for k in (1, 7, 40):
                    pois = np.concatenate(
                        [np.arange(1, 8), rng.integers(1, n + 1, 8)]
                    )
                    for poi in pois:
                        gi, gd = grid.query_knn(int(poi), k)
                        ti, td = tree.query_canonical(int(poi), k)
                        np.testing.assert_array_equal(gi, ti)
                        np.testing.assert_array_equal(gd, td)

    def test_knn_batch_matches_between_backends(self):
        rng = np.random.default_rng(5)
        coords = edge_case_coords(rng, 150)
        tree, grid = PoiIndex(coords), GridIndex(coords, level=5)
        for k in (1, 10, 60):
            np.testing.assert_array_equal(tree.knn_batch(k), grid.knn_batch(k))

    def test_query_radius_matches_brute_force(self):
        rng = np.random.default_rng(17)
        coords = edge_case_coords(rng, 200)
        grid = GridIndex(coords, level=4)
        xyz = latlon_to_unit_xyz(coords)
        for poi in (1, 3, 77, 200):
            for radius in (25.0, 800.0, 7000.0):
                ids, km = grid.query_radius(poi, radius)
                d = xyz_distance_km(xyz, xyz[poi - 1])
                mask = d <= radius
                mask[poi - 1] = False
                expect = np.flatnonzero(mask)
                order = np.lexsort((expect, d[expect]))
                np.testing.assert_array_equal(ids, expect[order] + 1)
                assert (km <= radius).all()

    def test_duplicate_coordinates_tie_break_deterministic(self):
        coords = np.array([[10.0, 10.0]] * 6 + [[11.0, 10.0], [12.0, 10.0]])
        grid = GridIndex(coords, level=8)
        tree = PoiIndex(coords)
        for poi in range(1, 9):
            gi, _ = grid.query_knn(poi, 5)
            ti, _ = tree.query_canonical(poi, 5)
            np.testing.assert_array_equal(gi, ti)
        # Lowest ids win the zero-distance ties.
        ids, km = grid.query_knn(1, 5)
        assert list(ids) == [2, 3, 4, 5, 6]
        assert (km[:5] == 0.0).all()

    def test_nearest_excluding_shared_semantics(self):
        rng = np.random.default_rng(23)
        coords = random_coords(rng, 90)
        tree, grid = PoiIndex(coords), GridIndex(coords, level=5)
        exclude = {int(p) for p in rng.integers(1, 91, 25)}
        for poi in (1, 45, 90):
            np.testing.assert_array_equal(
                tree.nearest_excluding(poi, 10, exclude=set(exclude)),
                grid.nearest_excluding(poi, 10, exclude=set(exclude)),
            )


class TestBackendResolution:
    def test_auto_threshold(self, monkeypatch):
        assert GRID_BACKEND_MIN_POIS == 50_000
        monkeypatch.setattr("repro.geo.grid.GRID_BACKEND_MIN_POIS", 30)
        coords = random_coords(np.random.default_rng(0), 30)
        assert isinstance(build_spatial_index(coords[:29]), PoiIndex)
        assert isinstance(build_spatial_index(coords), GridIndex)

    def test_unknown_backend_rejected(self, tiny_dataset):
        # Catalogue size is the only selector: no backend argument survives.
        with pytest.raises(TypeError):
            tiny_dataset.spatial_index(backend="ball-tree")
        with pytest.raises(TypeError):
            build_spatial_index(tiny_dataset.poi_coords[1:], backend="grid")

    def test_dataset_handle_cached(self, tiny_dataset):
        assert tiny_dataset.spatial_index() is tiny_dataset.spatial_index()
        assert tiny_dataset.spatial_index().backend == "tree"


def oracle_negatives(dataset, targets, num_negatives, pool_size, seed):
    """Brute-force reference for :class:`NearestNegativeSampler`: every
    other POI sorted by ``(xyz_distance_km, id)``, then the sampler's
    own ``rng.integers`` column draw."""
    xyz = latlon_to_unit_xyz(dataset.poi_coords[1:])
    ids = np.arange(1, dataset.num_pois + 1)
    pool_size = min(pool_size, dataset.num_pois - 1)
    targets = np.asarray(targets, dtype=np.int64)
    flat = targets.reshape(-1)
    real = flat != PAD_POI
    cols = np.random.default_rng(seed).integers(
        0, pool_size, size=(int(real.sum()), num_negatives)
    )
    out = np.zeros((flat.size, num_negatives), dtype=np.int64)
    for row, target in zip(np.flatnonzero(real), cols):
        t = int(flat[row])
        others = ids[ids != t]
        km = xyz_distance_km(xyz[others - 1], xyz[t - 1])
        out[row] = others[np.lexsort((others, km))][:pool_size][target]
    return out.reshape(*targets.shape, num_negatives)


def duplicate_coordinate_dataset():
    """40 POIs, a third of them stacked on three shared coordinates."""
    coords = random_coords(np.random.default_rng(31), 41, (40, 41), (10, 11))
    coords[5:10] = coords[4]
    coords[20:25] = coords[19]
    coords[30:34] = coords[1]
    seqs = {
        1: UserSequence(
            user=1, pois=np.arange(1, 41), times=np.arange(40, dtype=np.float64) * 60
        )
    }
    return CheckInDataset(name="dups", poi_coords=coords, sequences=seqs)


class TestSamplerOracle:
    @pytest.mark.parametrize("catalogue", ["tiny", "duplicates"])
    @pytest.mark.parametrize("backend", ["shared", "tree", "grid"])
    def test_sample_matches_brute_force(self, tiny_dataset, catalogue, backend):
        ds = tiny_dataset if catalogue == "tiny" else duplicate_coordinate_dataset()
        index = {
            "shared": None,
            "tree": PoiIndex(ds.poi_coords[1:]),
            "grid": GridIndex(ds.poi_coords[1:], level=6),
        }[backend]
        targets = np.random.default_rng(2).integers(0, ds.num_pois + 1, size=(6, 11))
        for pool_size in (12, 30, 10_000):
            sampler = NearestNegativeSampler(
                ds, num_negatives=7, pool_size=pool_size,
                rng=np.random.default_rng(42), index=index,
            )
            np.testing.assert_array_equal(
                sampler.sample(targets),
                oracle_negatives(ds, targets, 7, pool_size, seed=42),
            )


class TestStreamingSampler:
    def test_streaming_across_backends_bitwise(self, tiny_dataset):
        targets = np.random.default_rng(3).integers(
            1, tiny_dataset.num_pois + 1, size=(4, 9)
        )
        coords = tiny_dataset.poi_coords[1:]
        drawn = {}
        for name, index in (("tree", PoiIndex(coords)), ("grid", GridIndex(coords))):
            sampler = NearestNegativeSampler(
                tiny_dataset, num_negatives=5, pool_size=25,
                rng=np.random.default_rng(9), index=index,
            )
            drawn[name] = sampler.sample(targets)
        np.testing.assert_array_equal(drawn["tree"], drawn["grid"])

    def test_streaming_cache_bounded_and_hit(self, tiny_dataset):
        sampler = NearestNegativeSampler(
            tiny_dataset, num_negatives=3, pool_size=10,
            rng=np.random.default_rng(0), cache_size=4,
        )
        sampler.sample(np.array([[1, 2, 3, 1, 2]]))
        sampler.sample(np.array([[1, 2, 3]]))
        assert len(sampler._pool_cache) <= 4
        assert sampler._pool_cache.stats.hits >= 3
        # More unique targets than capacity: the cache stays bounded.
        sampler.sample(np.arange(1, tiny_dataset.num_pois + 1))
        assert len(sampler._pool_cache) <= 4

    def test_pad_targets_give_pad(self, tiny_dataset):
        sampler = NearestNegativeSampler(
            tiny_dataset, num_negatives=3, rng=np.random.default_rng(0)
        )
        negs = sampler.sample(np.array([[PAD_POI, 2]]))
        assert (negs[0, 0] == PAD_POI).all()
        assert (negs[0, 1] != PAD_POI).all()


class TestTinyCataloguePadding:
    """A catalogue smaller than the requested pool: pools stay exactly
    full because ``pool_size`` is clamped, never padded."""

    def make_tiny(self):
        coords = np.array(
            [[0.0, 0.0], [10.0, 10.0], [10.1, 10.0], [10.2, 10.0],
             [10.3, 10.0], [10.4, 10.0], [10.5, 10.0]]
        )
        seqs = {
            1: UserSequence(
                user=1,
                pois=np.array([1, 2, 3, 4, 5, 6]),
                times=np.arange(6, dtype=np.float64) * 3600,
            )
        }
        return CheckInDataset(name="tiny6", poi_coords=coords, sequences=seqs)

    def test_clamped_default_stays_exactly_full(self):
        ds = self.make_tiny()
        sampler = NearestNegativeSampler(
            ds, num_negatives=2, pool_size=10, rng=np.random.default_rng(0)
        )
        assert sampler.pool_size == ds.num_pois - 1
        pool = sampler.pool_for(1)
        assert len(set(pool)) == len(pool)


class TestShardedLoss:
    @pytest.mark.parametrize("shard_size", [1, 3, 16, 17, 85, 4096])
    def test_forward_and_grads_match_unsharded(self, shard_size):
        rng = np.random.default_rng(shard_size)
        b, n, L = 5, 17, 6
        pos = rng.normal(0, 2, (b, n)).astype(np.float32)
        neg = rng.normal(0, 2, (b, n, L)).astype(np.float32)
        mask = rng.random((b, n)) > 0.3
        for temperature in (1.0, 20.0):
            p1 = Tensor(pos.copy(), requires_grad=True)
            n1 = Tensor(neg.copy(), requires_grad=True)
            dense = weighted_bce_loss(p1, n1, mask, temperature=temperature)
            dense.backward()
            p2 = Tensor(pos.copy(), requires_grad=True)
            n2 = Tensor(neg.copy(), requires_grad=True)
            sharded = weighted_bce_loss_sharded(
                p2, n2, mask, temperature=temperature, shard_size=shard_size
            )
            sharded.backward()
            assert abs(float(dense.data) - float(sharded.data)) <= 1e-6
            np.testing.assert_array_equal(p1.grad, p2.grad)
            np.testing.assert_array_equal(n1.grad, n2.grad)

    def test_no_grad_and_delegation(self):
        rng = np.random.default_rng(0)
        pos = Tensor(rng.normal(size=(2, 5)).astype(np.float32))
        neg = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        mask = np.ones((2, 5), dtype=bool)
        with no_grad():
            out = weighted_bce_loss_sharded(pos, neg, mask, shard_size=4)
        assert not out.requires_grad
        delegated = weighted_bce_loss_sharded(pos, neg, mask, shard_size=0)
        dense = weighted_bce_loss(pos, neg, mask)
        assert float(delegated.data) == float(dense.data)

    def test_train_config_accepts_and_validates(self):
        from repro.core import TrainConfig

        assert TrainConfig(loss_shard_size=64).loss_shard_size == 64
        with pytest.raises(ValueError):
            TrainConfig(loss_shard_size=-1)

    def test_data_parallel_rejects_loss_sharding(self, tiny_dataset):
        from repro.core import STiSANConfig, TrainConfig
        from repro.core.stisan import STiSAN
        from repro.core.trainer import train_stisan

        model = STiSAN(
            num_pois=tiny_dataset.num_pois,
            poi_coords=tiny_dataset.poi_coords,
            config=STiSANConfig.small(max_len=8, poi_dim=8, geo_dim=8, num_blocks=1),
        )
        with pytest.raises(ValueError, match="loss_shard_size"):
            train_stisan(
                model, tiny_dataset, [],
                config=TrainConfig(loss_shard_size=32), grad_shards=4,
            )


class TestGridSlates:
    def test_retriever_slates_identical_across_backends(self, tiny_dataset):
        coords = tiny_dataset.poi_coords[1:]
        tree = EvalCandidateRetriever(
            tiny_dataset, num_candidates=20, index=PoiIndex(coords)
        )
        grid = EvalCandidateRetriever(
            tiny_dataset, num_candidates=20, index=GridIndex(coords)
        )
        for user in tiny_dataset.users():
            target = int(tiny_dataset.sequences[user].pois[-1])
            np.testing.assert_array_equal(
                tree.candidates(user, target), grid.candidates(user, target)
            )

    def test_service_slates_identical_across_backends(self, micro_dataset):
        from repro.core.service import RecommendationService

        class NullScorer:
            def score_candidates(self, src, times, candidates):
                return np.zeros(candidates.shape, dtype=np.float32)

        coords = micro_dataset.poi_coords[1:]
        slates = {}
        for name, index in (("tree", PoiIndex(coords)), ("grid", GridIndex(coords))):
            service = RecommendationService(
                NullScorer(), micro_dataset, max_len=10, num_candidates=15
            )
            service._index = index
            per_user = {}
            for user in micro_dataset.users():
                session = service.session(user)
                per_user[user] = service._candidate_slate(
                    session, exclude_visited=True
                ).copy()
            slates[name] = per_user
        for user in slates["tree"]:
            np.testing.assert_array_equal(slates["tree"][user], slates["grid"][user])


@pytest.mark.slow
class TestGoldenSlatesUnderGrid:
    def test_golden_top10_reproduced_with_grid_backend(self, monkeypatch):
        """End-to-end bitwise gate: forcing the grid backend through the
        entire golden pipeline (streaming sampler included) must
        reproduce the committed KD-tree-era top-10 slates exactly."""
        from tests.golden.regenerate import GOLDEN_PATH, build_golden

        committed = json.loads(GOLDEN_PATH.read_text())
        monkeypatch.setattr("repro.geo.grid.GRID_BACKEND_MIN_POIS", 1)
        fresh = build_golden()
        assert set(fresh["users"]) == set(committed["users"])
        for user, expected in committed["users"].items():
            assert fresh["users"][user]["pois"] == expected["pois"]
            np.testing.assert_allclose(
                np.asarray(fresh["users"][user]["scores"]),
                np.asarray(expected["scores"]),
                rtol=0.0, atol=1e-6,
            )
