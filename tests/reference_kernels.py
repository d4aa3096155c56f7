"""Reference op chains for the :mod:`repro.nn.fused` kernels — the test oracle.

Each function has the signature of its fused counterpart and computes
the same math out of primitive autograd ops (``@``, scale, bias add,
``masked_fill``, :func:`repro.nn.functional.softmax`,
:func:`repro.nn.functional.layer_norm`), so every intermediate is its
own graph node with its own generic backward.  The fused kernels
promise a bitwise-identical forward and a backward within 1e-6 of
these chains.

:func:`reference_geo_encode` is the same kind of oracle for the
geography encoder: it encodes every occurrence of an id, where
``GeographyEncoder.forward`` encodes each distinct id once and gathers.

:func:`reference_kernels` swaps the chains into :mod:`repro.nn.fused`.
Model code calls the kernels through that module's attributes, so a
model built and run inside the context executes the reference chain
end to end::

    with reference_kernels():
        ref_loss = model_loss(model)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.geo.quadkey import QuadkeyVocab
from repro.nn import functional as F
from repro.nn import fused
from repro.nn.attention import NEG_INF
from repro.nn.tensor import Tensor

__all__ = [
    "reference_causal_attention",
    "reference_geo_encode",
    "reference_layer_norm",
    "reference_layer_norm_residual",
    "reference_kernels",
]


def reference_causal_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    relation_bias: Optional[Union[Tensor, np.ndarray]] = None,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    return_weights: bool = False,
) -> Union[Tensor, Tuple[Tensor, np.ndarray]]:
    """``Softmax(Q K^T * scale + bias, masked) V`` as a primitive op chain."""
    factor = 1.0 / np.sqrt(q.shape[-1]) if scale is None else scale
    scores = (q @ k.transpose()) * factor
    if relation_bias is not None:
        bias = relation_bias if isinstance(relation_bias, Tensor) else Tensor(relation_bias)
        scores = scores + bias
    if mask is not None:
        scores = scores.masked_fill(mask, NEG_INF)
    weights = F.softmax(scores, axis=-1)
    out = weights @ v
    if return_weights:
        return out, weights.data.copy()
    return out


def reference_layer_norm(x: Tensor, alpha: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """LayerNorm as the primitive composition in :mod:`repro.nn.functional`."""
    return F.layer_norm(x, alpha, beta, eps=eps)


def reference_layer_norm_residual(
    x: Tensor,
    sublayer_out: Tensor,
    alpha: Tensor,
    beta: Tensor,
    eps: float = 1e-5,
) -> Tuple[Tensor, Tensor]:
    """The pre-LN residual junction ``h = x + sublayer_out; n = LN(h)``."""
    h = x + sublayer_out
    return h, reference_layer_norm(h, alpha, beta, eps=eps)


def reference_geo_encode(encoder, ids) -> Tensor:
    """:meth:`repro.core.geo_encoder.GeographyEncoder.forward` encoding
    every occurrence of an id: n-gram lookup, pooling, projection and
    padding mask over the full ``(..., G)`` gram tensor, with no
    unique-then-gather."""
    ids = np.asarray(ids).astype(np.int64)
    grams = encoder.gram_ids[ids]                            # (..., G)
    embedded = encoder.gram_embedding(grams)                 # (..., G, dim)
    if encoder.pooling == "attn":
        flat = embedded.reshape(-1, grams.shape[-1], encoder.dim)
        flat = encoder.attn(flat)
        embedded = flat.reshape(*grams.shape, encoder.dim)
    real = (grams != QuadkeyVocab.PAD).astype(np.float32)
    counts = np.maximum(real.sum(axis=-1, keepdims=True), 1.0)
    pooled = (embedded * Tensor(real[..., None])).sum(axis=-2) * Tensor(1.0 / counts)
    out = encoder.project(pooled)
    pad = ids == 0
    if pad.any():
        out = out.masked_fill(pad[..., None], 0.0)
    return out


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the reference chains in place of the fused kernels."""
    saved = (fused.fused_causal_attention, fused.layer_norm, fused.layer_norm_residual)
    fused.fused_causal_attention = reference_causal_attention
    fused.layer_norm = reference_layer_norm
    fused.layer_norm_residual = reference_layer_norm_residual
    try:
        yield
    finally:
        (fused.fused_causal_attention, fused.layer_norm,
         fused.layer_norm_residual) = saved
