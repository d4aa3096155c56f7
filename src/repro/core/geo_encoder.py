"""GPS coordinate encoder — the GeoSAN-style geography encoder that
STiSAN concatenates with POI embeddings (Section III-B, footnote 3).

Each POI's GPS coordinate is quantized to a map-tile quadkey (level
``level``); the quadkey's character n-grams are embedded and pooled
into a dense geography vector.  Nearby POIs share long quadkey
prefixes, hence many n-grams, hence similar encodings — exactly the
inductive bias GeoSAN introduces.

Pooling modes
-------------
``mean``  average the n-gram embeddings then project (fast; default).
``attn``  single self-attention layer over the n-grams then average —
          closer to GeoSAN's original encoder, ~G× more FLOPs.

The encoder caches the (static) POI → n-gram-id matrix.  The encoding
is a pure function of the POI id and the weights, so a forward pass
encodes each distinct id in the batch once — one embedding lookup, a
pooling reduction and a projection per unique POI — then gathers the
rows back to the batch shape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geo.quadkey import QuadkeyVocab, latlon_to_quadkey
from ..nn import functional as F
from ..nn.attention import SelfAttention
from ..nn.layers import Embedding, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad
from ..obs import span


class GeographyEncoder(Module):
    """Encodes POI ids into geography vectors via quadkey n-grams.

    Parameters
    ----------
    poi_coords : (P + 1, 2) catalogue coordinates (row 0 = padding).
    dim : output dimension of the geography vector.
    level : quadkey zoom level (paper/GeoSAN use map level 17).
    ngram : n-gram width over the quadkey string.
    pooling : "mean" or "attn".
    """

    def __init__(
        self,
        poi_coords: np.ndarray,
        dim: int,
        level: int = 17,
        ngram: int = 6,
        pooling: str = "mean",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if pooling not in ("mean", "attn"):
            raise ValueError(f"unknown pooling {pooling!r}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.pooling = pooling

        poi_coords = np.asarray(poi_coords, dtype=np.float64)
        vocab = QuadkeyVocab(n=ngram)
        quadkeys = [
            latlon_to_quadkey(lat, lon, level=level) for lat, lon in poi_coords[1:]
        ]
        grams = vocab.encode_batch(quadkeys) if quadkeys else np.zeros((0, 1), dtype=np.int64)
        vocab.freeze()
        self.vocab = vocab
        # (P + 1, G): row 0 (padding POI) is all PAD n-grams.
        self.gram_ids = np.zeros((len(poi_coords), grams.shape[1] if len(quadkeys) else 1), dtype=np.int64)
        if len(quadkeys):
            self.gram_ids[1:] = grams

        self.gram_embedding = Embedding(
            len(vocab), dim, padding_idx=QuadkeyVocab.PAD, rng=rng
        )
        self.project = Linear(dim, dim, rng=rng)
        if pooling == "attn":
            self.attn = SelfAttention(dim, rng=rng)

    def forward(self, poi_ids) -> Tensor:
        """POI ids (any shape) -> geography vectors (..., dim).

        The padding POI (id 0) maps to the zero vector; an id outside
        ``[0, P]`` raises :class:`IndexError`.

        Each distinct id is encoded once and the rows are gathered back
        to the input shape, so a training batch whose candidates repeat
        a few hundred POIs pools and projects a few hundred rows, not
        one per occurrence.  The gather's backward scatter-adds every
        occurrence's gradient onto its unique row.  This is valid
        because the encoder has no stochastic op: ``SelfAttention``
        runs at dropout 0 and draws no RNG.  Every row sees the same
        per-row ops either way, so the output is bitwise the same as
        encoding each occurrence; gradients differ only in summation
        order.
        """
        with span("model.geo_encode"):
            ids = poi_ids.data if isinstance(poi_ids, Tensor) else np.asarray(poi_ids)
            unique, inverse = self._unique_ids(ids)
            table = self._encode_unique(unique)              # (U, dim)
            return F.embedding_lookup(table, inverse.reshape(ids.shape))

    def _unique_ids(self, ids: np.ndarray):
        """Sorted distinct ids and the inverse map; rejects ids outside
        the catalogue (a negative id would otherwise wrap to a real POI)."""
        unique, inverse = np.unique(ids.astype(np.int64).reshape(-1), return_inverse=True)
        if unique.size and (unique[0] < 0 or unique[-1] >= len(self.gram_ids)):
            raise IndexError(
                f"POI id out of range [0, {len(self.gram_ids)}): "
                f"min={unique[0]}, max={unique[-1]}"
            )
        return unique, inverse

    def _encode_unique(self, ids: np.ndarray) -> Tensor:
        """(U,) distinct POI ids -> (U, dim): n-gram lookup, pooling,
        projection and the padding mask, one row per id."""
        grams = self.gram_ids[ids]                           # (U, G)
        embedded = self.gram_embedding(grams)                # (U, G, dim)
        if self.pooling == "attn":
            embedded = self.attn(embedded)
        # Mean over real (non-PAD) n-grams.
        real = (grams != QuadkeyVocab.PAD).astype(np.float32)
        counts = np.maximum(real.sum(axis=-1, keepdims=True), 1.0)
        pooled = (embedded * Tensor(real[..., None])).sum(axis=-2) * Tensor(1.0 / counts)
        out = self.project(pooled)
        # Keep padding POIs exactly zero (project bias would leak otherwise).
        pad = (ids == 0)
        if pad.any():
            out = out.masked_fill(pad[..., None], 0.0)
        return out

    def encode_pois_cached(self, poi_ids, cache) -> np.ndarray:
        """Geography vectors via a per-POI LRU cache (serving path).

        POI coordinates are immutable, so the encoding of a POI id is a
        pure function of frozen weights.  Ids the cache misses go
        through :meth:`forward` once, as one batch of distinct ids, so a
        cached row is bitwise the row :meth:`forward` returns; each row
        is cached and the result gathered.  Ids outside ``[0, P]`` raise
        :class:`IndexError` before any cache read or write.  Returns a
        raw ``(..., dim)`` float32 array (no autograd graph).
        """
        with span("model.geo_encode_cached"):
            return self._encode_pois_cached(poi_ids, cache)

    def _encode_pois_cached(self, poi_ids, cache) -> np.ndarray:
        ids = poi_ids.data if isinstance(poi_ids, Tensor) else np.asarray(poi_ids)
        unique, inverse = self._unique_ids(ids)
        vectors = {}
        missing = []
        for poi in unique:
            poi = int(poi)
            row = cache.get(poi)
            if row is None:
                missing.append(poi)
            else:
                vectors[poi] = row
        if missing:
            with no_grad():
                computed = self.forward(np.asarray(missing, dtype=np.int64)).data
            for poi, row in zip(missing, computed):
                cache.put(poi, row)
                vectors[poi] = row
        if unique.size == 0:
            return np.zeros(ids.shape + (self.dim,), dtype=np.float32)
        table = np.stack([vectors[int(poi)] for poi in unique])
        return table[inverse].reshape(ids.shape + (self.dim,))
