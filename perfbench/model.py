"""The paper-shape model and training recipe every workload uses, and the
per-instance wrappers the traced runs install on it."""

from __future__ import annotations

import numpy as np

from repro.core import STiSAN, STiSANConfig, TrainConfig

#: n = 100, d = 64 (32 POI + 32 GPS), N = 4 IAABs: the shape behind the
#: roadmap's 420 ms/step training baseline.
PAPER_SHAPE = dict(
    max_len=100,
    poi_dim=32,
    geo_dim=32,
    num_blocks=4,
    ffn_hidden=128,
    dropout=0.2,
    quadkey_level=14,
    quadkey_ngram=4,
)


def paper_config() -> STiSANConfig:
    return STiSANConfig(**PAPER_SHAPE)


def build_model(dataset, seed: int) -> STiSAN:
    """A freshly initialised paper-shape model; identical for equal seeds."""
    return STiSAN(
        dataset.num_pois, dataset.poi_coords, paper_config(),
        rng=np.random.default_rng([seed, 3]),
    )


def train_config(seed: int, epochs: int) -> TrainConfig:
    """Batch 32, L = 8 nearest negatives, Adam at 3e-3 (gowalla T = 1)."""
    return TrainConfig(
        epochs=epochs, batch_size=32, learning_rate=3e-3, num_negatives=8,
        temperature=1.0, seed=seed,
    )


def _rows(ids, *_args, **_kwargs) -> dict:
    return {"rows": int(np.asarray(getattr(ids, "data", ids)).size)}


def _score_rows(src, *_args, **_kwargs) -> dict:
    return {"rows": int(np.asarray(src).shape[0])}


def trace_model(tracer, model) -> None:
    """Wrap the model's layers on this instance.

    ``core.encode`` wraps ``encode`` so its self time is the part no
    layer has a wrappable entry for: the relation matrix, masks and the
    final norm (reported as ``core.encode_rest``).
    """
    tracer.wrap(model, "score_candidates", "core.model.score", _score_rows)
    tracer.wrap(model, "encode", "core.encode")
    tracer.wrap(model.poi_embedding, "forward", "core.embed", _rows)
    tracer.wrap(model.geo_encoder, "forward", "core.geo_encode", _rows)
    tracer.wrap(model.geo_encoder, "encode_pois_cached", "core.geo_encode_cached", _rows)
    tracer.wrap(model, "position_encoder", "core.tape")
    for block in model.blocks:
        tracer.wrap(block, "forward", "core.iaab")
    tracer.wrap(model.decoder, "forward", "core.taad")
