"""Tests for the representation-vs-geography probe."""

import numpy as np
import pytest

from tests.embedding_probe import geography_encoder_alignment, pairwise_alignment
from repro.core.geo_encoder import GeographyEncoder
from repro.geo.neighbors import latlon_to_unit_xyz


class TestPairwiseAlignment:
    def test_perfect_alignment_when_vectors_are_coordinates(self, rng):
        """Unit-sphere xyz projections preserve distance ordering, so
        alignment must be ~1."""
        coords = np.stack(
            [rng.uniform(43, 45, size=40), rng.uniform(125, 127, size=40)], axis=1
        )
        vectors = latlon_to_unit_xyz(coords)
        rho = pairwise_alignment(vectors, coords, num_pairs=400, rng=rng)
        assert rho > 0.99

    def test_random_vectors_near_zero(self, rng):
        coords = np.stack(
            [rng.uniform(43, 45, size=60), rng.uniform(125, 127, size=60)], axis=1
        )
        vectors = rng.normal(size=(60, 8))
        rho = pairwise_alignment(vectors, coords, num_pairs=600, rng=rng)
        assert abs(rho) < 0.3

    def test_anti_alignment_detected(self, rng):
        coords = np.stack(
            [rng.uniform(43, 45, size=30), np.full(30, 125.0)], axis=1
        )
        # Vectors whose distance shrinks as latitude gap grows.
        vectors = (-coords[:, :1]).repeat(2, axis=1)
        rho = pairwise_alignment(vectors, coords, num_pairs=300, rng=rng)
        # 1-D latitude geometry is mirrored exactly -> |rho| ~ 1; the
        # negation flips nothing for a metric, so expect positive.
        assert rho > 0.9

    def test_constant_vectors_zero(self, rng):
        coords = np.stack(
            [rng.uniform(43, 45, size=10), rng.uniform(125, 127, size=10)], axis=1
        )
        assert pairwise_alignment(np.ones((10, 4)), coords, rng=rng) == 0.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            pairwise_alignment(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            pairwise_alignment(np.ones((2, 2)), np.ones((2, 2)))


class TestGeographyEncoderAlignment:
    def test_untrained_encoder_already_geographic(self, micro_dataset, rng):
        """Even untrained, shared position-tagged n-grams make nearby
        POIs' mean-pooled embeddings similar — alignment positive before
        any learning (the GeoSAN inductive bias; the random projection
        layer dilutes but does not destroy it)."""
        enc = GeographyEncoder(
            micro_dataset.poi_coords, 16, level=17, ngram=6,
            rng=np.random.default_rng(0),
        )
        rho = geography_encoder_alignment(
            enc, micro_dataset.poi_coords, num_pairs=400, rng=rng
        )
        assert rho > 0.05

    def test_low_resolution_weaker_alignment(self, micro_dataset, rng):
        """Coarse quadkeys (level 8 ≈ 150 km tiles) cannot resolve a
        city-scale catalogue: alignment drops toward zero."""
        fine = GeographyEncoder(
            micro_dataset.poi_coords, 16, level=17, ngram=6,
            rng=np.random.default_rng(0),
        )
        coarse = GeographyEncoder(
            micro_dataset.poi_coords, 16, level=6, ngram=4,
            rng=np.random.default_rng(0),
        )
        rho_fine = geography_encoder_alignment(
            fine, micro_dataset.poi_coords, num_pairs=400, rng=np.random.default_rng(5)
        )
        rho_coarse = geography_encoder_alignment(
            coarse, micro_dataset.poi_coords, num_pairs=400, rng=np.random.default_rng(5)
        )
        assert rho_fine > rho_coarse - 0.05
