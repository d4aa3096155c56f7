"""Per-layer metrics, computed from the spans of a traced run.

Training-layer times are medians per training step; evaluation times
are per 64-instance ``evaluate`` batch; serving-layer times are per
call (median) with the layer's busy share of the timed phase.  A layer a
workload never enters reports 0: that is the prediction for it.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, Iterable, List

import numpy as np

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    "data.batch_ms": "ms",
    "data.negatives_ms": "ms",
    "data.negatives_per_step": "count",
    "core.embed_ms": "ms",
    "core.geo_encode_ms": "ms",
    "core.geo_encode_rows": "count",
    "core.tape_ms": "ms",
    "core.iaab_ms": "ms",
    "core.taad_ms": "ms",
    "core.encode_rest_ms": "ms",
    "core.forward_rest_ms": "ms",
    "core.loss_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optim_ms": "ms",
    "train.step_ms": "ms",
    "train.unattributed_ms": "ms",
    "train.unattributed_share": "ratio",
    "eval.retrieve_ms": "ms",
    "eval.score_ms": "ms",
    "eval.rank_ms": "ms",
    "geo.nearest_excluding_ms": "ms",
    "geo.nearest_excluding_calls": "count",
    "geo.busy_share": "ratio",
    "core.model.score_ms": "ms",
    "core.model.score_rows": "count",
    "core.model.busy_share": "ratio",
    "core.service.calls": "count",
    "core.service.batch_ms": "ms",
    "core.service.rows_per_call": "count",
    "core.service.self_ms": "ms",
    "core.service.busy_s": "s",
    "core.service.busy_share": "ratio",
    "core.service.checkin_ms": "ms",
    "core.service.checkin_busy_share": "ratio",
    "core.service.degraded_rows": "count",
    "core.service.model_failures": "count",
    "core.cache.slates.hit_ratio": "ratio",
    "core.cache.slates.evictions": "count",
    "core.cache.geo.hit_ratio": "ratio",
    "core.cache.geo.evictions": "count",
    "core.cache.relations.hit_ratio": "ratio",
    "core.cache.relations.evictions": "count",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.batch_size_mean": "count",
    "serving.coalesce_ratio": "ratio",
    "serving.batches": "count",
    "serving.shed": "count",
    "serving.timeouts": "count",
    "serving.retries": "count",
    "serving.requeued": "count",
    "serving.restarts": "count",
    "serving.late_results": "count",
    "loadgen.lag_p50_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
}

#: Spans of the model's layers, and the metric each one feeds.
MODEL_LAYERS = {
    "core.embed": "core.embed_ms",
    "core.tape": "core.tape_ms",
    "core.iaab": "core.iaab_ms",
    "core.taad": "core.taad_ms",
}
GEO_SPANS = ("core.geo_encode", "core.geo_encode_cached")


class Groups:
    """Spans indexed by group (one training step, evaluate call or
    service call each) with their self times."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.self_time = tracer.self_times()
        self.by_id = {s.id: s for s in tracer.spans}
        self.by_group: Dict[int, List] = {}
        for s in tracer.spans:
            self.by_group.setdefault(s.group, []).append(s)

    def within(self, root) -> List:
        """Spans inside ``root`` (itself included)."""
        return [
            s for s in self.by_group.get(root.group, [])
            if root.start <= s.start and s.end <= root.end
        ]

    def total(self, spans: Iterable, names, self_time: bool = False) -> float:
        names = (names,) if isinstance(names, str) else tuple(names)
        out = 0.0
        for s in spans:
            if s.name not in names:
                continue
            parent = self.by_id.get(s.parent)
            if not self_time and parent is not None and parent.name in names:
                continue  # nested in a span already counted
            out += self.self_time[s.id] if self_time else s.duration
        return out

    def rows(self, spans: Iterable, name: str) -> int:
        return sum(int(s.attrs.get("rows", 0)) for s in spans if s.name == name)


def empty() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def _ms(x: float) -> float:
    return 1e3 * x


def _med(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def model_layers(g: Groups, units: List, out: Dict[str, float]) -> None:
    """Median per unit (training step or scoring call) of every model-layer time."""
    parts = [g.within(u) for u in units]
    for span_name, metric in MODEL_LAYERS.items():
        out[metric] = _med(_ms(g.total(p, span_name)) for p in parts)
    out["core.geo_encode_ms"] = _med(_ms(g.total(p, GEO_SPANS)) for p in parts)
    out["core.geo_encode_rows"] = _med(g.rows(p, "core.geo_encode") for p in parts)
    out["core.encode_rest_ms"] = _med(_ms(g.total(p, "core.encode", self_time=True)) for p in parts)


def train_layers(tracer) -> Dict[str, float]:
    g = Groups(tracer)
    out = empty()
    steps = g.tracer.named("train.step")
    parts = [g.within(s) for s in steps]
    model_layers(g, steps, out)
    out["data.batch_ms"] = _med(_ms(g.total(p, "data.batch", self_time=True)) for p in parts)
    out["data.negatives_ms"] = _med(_ms(g.total(p, "data.negatives")) for p in parts)
    out["data.negatives_per_step"] = _med(g.rows(p, "data.negatives") for p in parts)
    out["core.forward_rest_ms"] = _med(
        _ms(g.total(p, "core.forward", self_time=True)) for p in parts
    )
    out["core.loss_ms"] = _med(_ms(g.total(p, "core.loss")) for p in parts)
    out["nn.backward_ms"] = _med(_ms(g.total(p, "nn.backward")) for p in parts)
    out["nn.optim_ms"] = _med(_ms(g.total(p, "nn.optim")) for p in parts)
    out["train.step_ms"] = _med(_ms(s.duration) for s in steps)
    unattributed = [g.self_time[s.id] for s in steps]
    out["train.unattributed_ms"] = _med(_ms(x) for x in unattributed)
    out["train.unattributed_share"] = sum(unattributed) / max(
        sum(s.duration for s in steps), 1e-12
    )

    calls = g.tracer.named("eval.call")
    batches = [int(c.attrs["batches"]) for c in calls]
    eparts = [g.within(c) for c in calls]
    out["eval.retrieve_ms"] = _med(_ms(g.total(p, "eval.retrieve")) / b for p, b in zip(eparts, batches))
    out["eval.score_ms"] = _med(_ms(g.total(p, "core.model.score")) / b for p, b in zip(eparts, batches))
    out["eval.rank_ms"] = _med(_ms(g.self_time[c.id]) / b for c, b in zip(calls, batches))
    geo = g.tracer.named("geo.nearest_excluding")
    out["geo.nearest_excluding_ms"] = _med(_ms(s.duration) for s in geo)
    out["geo.nearest_excluding_calls"] = _med(
        sum(s.name == "geo.nearest_excluding" for s in p) / b for p, b in zip(eparts, batches)
    )
    scores = g.tracer.named("core.model.score")
    out["core.model.score_ms"] = _med(_ms(s.duration) for s in scores)
    out["core.model.score_rows"] = _med(s.attrs.get("rows", 0) for s in scores)
    return out


def serving_layers(tracer, phase_s: float) -> Dict[str, float]:
    """Service, model and index layers of a serving run; ``phase_s`` is
    the wall time of the timed phase the busy shares refer to."""
    g = Groups(tracer)
    out = empty()
    calls = g.tracer.named("core.service.batch")
    scores = g.tracer.named("core.model.score")
    model_layers(g, scores, out)
    geo = g.tracer.named("geo.nearest_excluding")
    checkins = g.tracer.named("core.service.checkin")
    out["geo.nearest_excluding_ms"] = _med(_ms(s.duration) for s in geo)
    out["geo.nearest_excluding_calls"] = float(len(geo))
    out["geo.busy_share"] = sum(s.duration for s in geo) / phase_s
    out["core.model.score_ms"] = _med(_ms(s.duration) for s in scores)
    out["core.model.score_rows"] = _med(s.attrs.get("rows", 0) for s in scores)
    out["core.model.busy_share"] = sum(s.duration for s in scores) / phase_s
    out["core.service.calls"] = float(len(calls))
    out["core.service.batch_ms"] = _med(_ms(c.duration) for c in calls)
    out["core.service.rows_per_call"] = float(np.mean([c.attrs.get("rows", 0) for c in calls])) if calls else 0.0
    out["core.service.self_ms"] = _med(_ms(g.self_time[c.id]) for c in calls)
    busy = sum(c.duration for c in calls)
    out["core.service.busy_s"] = busy
    out["core.service.busy_share"] = busy / phase_s
    out["core.service.checkin_ms"] = _med(_ms(s.duration) for s in checkins)
    out["core.service.checkin_busy_share"] = sum(s.duration for s in checkins) / phase_s
    return out
