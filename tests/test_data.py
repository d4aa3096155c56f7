"""Tests for data types, synthetic generation and preprocessing."""

import numpy as np
import pytest

from repro.data import (
    CheckIn,
    CheckInDataset,
    PreprocessConfig,
    UserSequence,
    WorldConfig,
    dataset_from_checkins,
    filter_cold,
    generate_dataset,
    load_dataset,
    profile,
    sparsity_ladder,
)
from repro.data.synthetic import build_world
from repro.geo import pairwise_haversine


class TestUserSequence:
    def test_requires_sorted_times(self):
        with pytest.raises(ValueError):
            UserSequence(user=1, pois=np.array([1, 2]), times=np.array([5.0, 1.0]))

    def test_rejects_padding_id(self):
        with pytest.raises(ValueError):
            UserSequence(user=1, pois=np.array([0, 1]), times=np.array([1.0, 2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            UserSequence(user=1, pois=np.array([1]), times=np.array([1.0, 2.0]))


class TestCheckInDataset:
    def test_statistics(self, tiny_dataset):
        stats = tiny_dataset.statistics()
        assert stats["users"] == tiny_dataset.num_users
        assert stats["checkins"] > stats["users"] * 9
        assert 0 < stats["sparsity"] < 1

    def test_coords_of_padding(self, tiny_dataset):
        np.testing.assert_array_equal(tiny_dataset.coords_of(np.array([0])), [[0.0, 0.0]])

    def test_visit_counts_sum(self, tiny_dataset):
        counts = tiny_dataset.poi_visit_counts()
        assert counts.sum() == tiny_dataset.num_checkins
        assert counts[0] == 0

    def test_iter_checkins_chronological_per_user(self, micro_dataset):
        per_user = {}
        for c in micro_dataset.iter_checkins():
            per_user.setdefault(c.user, []).append(c.timestamp)
        for times in per_user.values():
            assert times == sorted(times)

    def test_dataset_from_checkins_reindexes(self):
        checkins = [
            CheckIn(user=1, poi=500, lat=43.0, lon=125.0, timestamp=100.0),
            CheckIn(user=1, poi=777, lat=43.1, lon=125.1, timestamp=200.0),
            CheckIn(user=2, poi=500, lat=43.0, lon=125.0, timestamp=50.0),
        ]
        ds = dataset_from_checkins("test", checkins)
        assert ds.num_pois == 2
        assert set(ds.sequences) == {1, 2}
        np.testing.assert_array_equal(ds.sequences[1].pois, [1, 2])

    @pytest.mark.parametrize("bad", [
        (np.nan, 10.0),
        (10.0, np.nan),
        (np.inf, 10.0),
        (10.0, -np.inf),
        (90.5, 10.0),
        (10.0, -180.5),
    ])
    def test_rejects_invalid_coordinates(self, bad):
        coords = np.array([[0.0, 0.0], [43.0, 125.0], bad, [91.0, 0.0]])
        with pytest.raises(ValueError, match=r"^POI 2 "):
            CheckInDataset(name="bad", poi_coords=coords)

    def test_accepts_padding_row_and_antimeridian(self):
        coords = np.array([[0.0, 0.0], [-90.0, 180.0], [90.0, -180.0]])
        assert CheckInDataset(name="edges", poi_coords=coords).num_pois == 2


class TestSyntheticGenerator:
    def test_reproducible(self):
        cfg = WorldConfig(num_users=5, num_pois=50, num_clusters=5, avg_seq_length=15.0, min_seq_length=10)
        a = generate_dataset(cfg, seed=42)
        b = generate_dataset(cfg, seed=42)
        for u in a.sequences:
            np.testing.assert_array_equal(a.sequences[u].pois, b.sequences[u].pois)
            np.testing.assert_array_equal(a.sequences[u].times, b.sequences[u].times)

    def test_different_seeds_differ(self):
        cfg = WorldConfig(num_users=5, num_pois=50, num_clusters=5, avg_seq_length=15.0, min_seq_length=10)
        a = generate_dataset(cfg, seed=1)
        b = generate_dataset(cfg, seed=2)
        assert any(
            not np.array_equal(a.sequences[u].pois, b.sequences[u].pois) for u in a.sequences
        )

    def test_spatial_clustering_present(self):
        """Consecutive check-ins are far closer than random POI pairs —
        the clustering phenomenon the paper's Fig. 2 relies on."""
        cfg = WorldConfig(num_users=20, num_pois=150, num_clusters=10, avg_seq_length=40.0)
        ds = generate_dataset(cfg, seed=3)
        consecutive = []
        for seq in ds.sequences.values():
            c = ds.poi_coords[seq.pois]
            d = pairwise_haversine(c[:-1], c[1:]).diagonal()
            consecutive.extend(d)
        all_pairs = pairwise_haversine(ds.poi_coords[1:])
        assert np.mean(consecutive) < 0.5 * all_pairs.mean()

    def test_popularity_skew(self):
        cfg = WorldConfig(num_users=30, num_pois=100, num_clusters=8, avg_seq_length=40.0)
        ds = generate_dataset(cfg, seed=4)
        counts = np.sort(ds.poi_visit_counts()[1:])[::-1]
        top10 = counts[:10].sum() / counts.sum()
        assert top10 > 0.2  # heavy head

    def test_time_gaps_heterogeneous(self):
        cfg = WorldConfig(num_users=10, num_pois=60, num_clusters=6, avg_seq_length=50.0)
        ds = generate_dataset(cfg, seed=5)
        gaps = np.concatenate([np.diff(s.times) for s in ds.sequences.values()])
        assert gaps.min() > 0
        # Mixture of hours and days: large dynamic range.
        assert np.percentile(gaps, 95) / np.percentile(gaps, 5) > 10

    def test_world_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(num_pois=3, num_clusters=10)
        with pytest.raises(ValueError):
            WorldConfig(p_short_gap=1.5)

    def test_world_shapes(self, rng):
        cfg = WorldConfig(num_users=2, num_pois=30, num_clusters=4)
        world = build_world(cfg, rng)
        assert world.poi_coords.shape == (31, 2)
        assert world.popularity[1:].sum() == pytest.approx(1.0)
        assert world.poi_cluster[0] == -1
        d = world.distances()
        assert d.shape == (31, 31)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)


class TestPreprocess:
    def test_thresholds_enforced(self):
        cfg = WorldConfig(num_users=30, num_pois=120, num_clusters=8, avg_seq_length=25.0, min_seq_length=10)
        raw = generate_dataset(cfg, seed=9)
        ds = filter_cold(raw, PreprocessConfig(min_user_checkins=20, min_poi_checkins=5))
        assert all(len(s) >= 20 for s in ds.sequences.values())
        counts = ds.poi_visit_counts()
        assert (counts[1:] >= 5).all()

    def test_poi_ids_contiguous(self):
        cfg = WorldConfig(num_users=20, num_pois=100, num_clusters=8, avg_seq_length=25.0)
        ds = filter_cold(generate_dataset(cfg, seed=10), PreprocessConfig(20, 5))
        used = np.unique(np.concatenate([s.pois for s in ds.sequences.values()]))
        np.testing.assert_array_equal(used, np.arange(1, ds.num_pois + 1))

    def test_coordinates_preserved(self):
        cfg = WorldConfig(num_users=15, num_pois=60, num_clusters=6, avg_seq_length=25.0)
        raw = generate_dataset(cfg, seed=11)
        ds = filter_cold(raw, PreprocessConfig(15, 3))
        # Every surviving coordinate must exist in the raw catalogue.
        raw_set = {tuple(c) for c in raw.poi_coords[1:]}
        for c in ds.poi_coords[1:]:
            assert tuple(c) in raw_set

    def test_input_not_mutated(self):
        cfg = WorldConfig(num_users=10, num_pois=50, num_clusters=5, avg_seq_length=20.0)
        raw = generate_dataset(cfg, seed=12)
        before = raw.num_checkins
        filter_cold(raw, PreprocessConfig(25, 10))
        assert raw.num_checkins == before

    def test_everything_filtered_yields_empty(self):
        cfg = WorldConfig(num_users=5, num_pois=50, num_clusters=5, avg_seq_length=15.0, min_seq_length=10)
        raw = generate_dataset(cfg, seed=13)
        ds = filter_cold(raw, PreprocessConfig(min_user_checkins=10_000, min_poi_checkins=1))
        assert ds.num_users == 0


class TestProfiles:
    def test_all_profiles_load(self):
        for name in ("gowalla", "brightkite", "weeplaces", "changchun"):
            cfg = profile(name, scale=0.2)
            assert cfg.num_users >= 20

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile("foursquare")

    def test_relative_shape_matches_paper(self):
        """Orderings from Table II must survive the down-scaling."""
        stats = {
            name: load_dataset(name, seed=5, scale=0.3).statistics()
            for name in ("gowalla", "weeplaces", "changchun")
        }
        # Weeplaces has by far the longest sequences.
        assert stats["weeplaces"]["avg_seq_length"] > 2 * stats["gowalla"]["avg_seq_length"]
        # Gowalla is the sparsest; Changchun has the fewest POIs.
        assert stats["gowalla"]["sparsity"] > stats["changchun"]["sparsity"]
        assert stats["changchun"]["pois"] < stats["gowalla"]["pois"]

    def test_sparsity_ladder_monotone(self):
        ladder = sparsity_ladder(seed=5, scale=0.4)
        assert len(ladder) == 4
        sparsities = [ds.sparsity for ds in ladder]
        # Each rung is denser (lower sparsity) than the previous.
        assert all(a >= b - 1e-9 for a, b in zip(sparsities, sparsities[1:]))
        users = [ds.num_users for ds in ladder]
        assert all(a >= b for a, b in zip(users, users[1:]))
