"""Workload ``train_paper``: paper-shape training, then evaluation.

A round trains a fresh paper-shape model with ``train_stisan`` for
``Size.epochs`` epochs on a fixed number of windows, then ranks the
held-out instances with ``repro.eval.protocol.evaluate``
``Size.eval_passes`` times.  Rounds repeat until the run's seconds are
spent and every figure is a median over them.  Every round starts from
the same seed, so its epoch losses and metrics must equal the first
round's bit for bit, and the recorded reference (``reference.json``)
within ``LOSS_TOL`` and ``METRIC_TOL_FLIPS``.

The traced run drives its own loop, built from the same public calls
``train_stisan`` makes, so each piece of a step can be timed from
outside; it checks that its losses equal ``train_stisan``'s.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from statistics import median
from typing import List

import numpy as np

from repro.core.loss import weighted_bce_loss
from repro.core.trainer import train_stisan
from repro.data import BatchIterator, EvalCandidateRetriever, NearestNegativeSampler
from repro.data import load_dataset, partition
from repro.eval.protocol import evaluate
from repro.nn.optim import FlatAdam
from repro.nn.tensor import grad_arena

import layers
from env import BENCH_DIR, host_steal_ticks, peak_rss_mb, repeat_setup, steal_share
from model import build_model, trace_model, train_config

REFERENCE_PATH = BENCH_DIR / "reference.json"
#: Epoch losses may move this much (absolute) before a run is wrong:
#: room for reduction-order changes such as a 1e-6 backward difference.
LOSS_TOL = 1e-4
#: HR/NDCG may move by one ranking flip among the evaluated instances.
METRIC_TOL_FLIPS = 1.0
#: The traced step's spans must account for all but this share of it.
MAX_UNATTRIBUTED = 0.05


@dataclass(frozen=True)
class Size:
    windows: int = 96           # 3 full batches of 32 (every seed has >= 116)
    instances: int = 96         # 2 evaluate batches of 64
    epochs: int = 2
    eval_passes: int = 6
    setups: int = 3
    scale: float = 1.0


FULL = Size()
SMOKE = Size(windows=32, instances=32, epochs=1, eval_passes=1, setups=1, scale=0.4)


@dataclass
class Inputs:
    dataset: object
    windows: list
    instances: list


def setup(seed: int, size: Size) -> Inputs:
    """Generate the gowalla-profile data, cut the fixed-size inputs and
    build the dataset's shared spatial index."""
    dataset = load_dataset("gowalla", seed=seed, scale=size.scale)
    windows, instances = partition(dataset, n=100)
    if len(windows) < size.windows or len(instances) < size.instances:
        raise RuntimeError(
            f"seed {seed} yields {len(windows)} windows / {len(instances)} instances; "
            f"the workload needs {size.windows} / {size.instances}"
        )
    dataset.spatial_index()
    return Inputs(dataset, windows[: size.windows], instances[: size.instances])


def report_dict(report) -> dict:
    return {k: float(getattr(report, k)) for k in ("hr5", "ndcg5", "hr10", "ndcg10")}


def load_reference(seed: int, size: Size):
    if size != FULL or not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get("seeds", {}).get(str(seed))


def compare(result: dict, expected: dict, instances: int) -> List[str]:
    """Mismatches between a round and the expected losses/metrics."""
    problems = []
    got, want = result["epoch_losses"], expected["epoch_losses"]
    if len(got) != len(want) or any(abs(a - b) > LOSS_TOL for a, b in zip(got, want)):
        problems.append(f"epoch losses {got} != reference {want}")
    tol = METRIC_TOL_FLIPS / instances + 1e-12
    for key, value in expected["metrics"].items():
        if abs(result["metrics"][key] - value) > tol:
            problems.append(f"{key} {result['metrics'][key]} != reference {value}")
    return problems


def train_round(inputs: Inputs, seed: int, size: Size) -> dict:
    """One untraced round through the public entry points."""
    model = build_model(inputs.dataset, seed)
    t0, c0 = time.perf_counter(), time.process_time()
    result = train_stisan(model, inputs.dataset, inputs.windows, train_config(seed, size.epochs))
    train_s, train_cpu_s = time.perf_counter() - t0, time.process_time() - c0
    eval_s = []
    for _ in range(size.eval_passes):
        t0 = time.perf_counter()
        report = evaluate(model, inputs.dataset, inputs.instances, num_candidates=100, batch_size=64)
        eval_s.append(time.perf_counter() - t0)
    return {
        "epoch_losses": [float(x) for x in result.epoch_losses],
        "metrics": report_dict(report),
        "train_s": train_s,
        "train_cpu_s": train_cpu_s,
        "eval_s": eval_s,
    }


# ----------------------------------------------------------------------
# Traced round: the trainer's loop, rebuilt from its public parts.
# ----------------------------------------------------------------------
def traced_round(tracer, inputs: Inputs, seed: int, size: Size) -> dict:
    config = train_config(seed, size.epochs)
    model = build_model(inputs.dataset, seed)
    trace_model(tracer, model)
    rng = np.random.default_rng(config.seed)
    sampler = NearestNegativeSampler(
        inputs.dataset, num_negatives=config.num_negatives,
        pool_size=config.negative_pool, rng=rng,
    )
    tracer.wrap(
        sampler, "sample", "data.negatives",
        lambda t: {"rows": int((np.asarray(t) != 0).sum()) * config.num_negatives},
    )
    optimizer = FlatAdam(model.parameters(), lr=config.learning_rate)
    tracer.wrap(model, "forward_train", "core.forward")
    losses = []
    nonfinite = 0
    t_start, c_start = time.perf_counter(), time.process_time()
    model.train()
    for epoch in range(config.epochs):
        with grad_arena() as arena:
            iterator = BatchIterator(
                inputs.windows, batch_size=config.batch_size, sampler=sampler, rng=rng
            )
            batches = iterator.iter_order(iterator.epoch_order())
            epoch_loss = 0.0
            for step in range(len(iterator)):
                with tracer.span("train.step", epoch=epoch, step=step):
                    with tracer.span("data.batch"):
                        batch = next(batches)
                    pos, neg = model.forward_train(batch.src, batch.times, batch.tgt, batch.negatives)
                    with tracer.span("core.loss"):
                        loss = weighted_bce_loss(
                            pos, neg, batch.target_mask, temperature=config.temperature
                        )
                    with tracer.span("nn.optim"):
                        optimizer.zero_grad()
                    with tracer.span("nn.backward"):
                        loss.backward()
                    with tracer.span("nn.optim"):
                        if config.grad_clip:
                            optimizer.clip_grad_norm(config.grad_clip)
                        optimizer.step()
                        arena.reset()
                    value = float(loss.data)
                nonfinite += not math.isfinite(value)
                epoch_loss += value
            losses.append(epoch_loss / len(iterator))
    model.eval()
    train_s, train_cpu_s = time.perf_counter() - t_start, time.process_time() - c_start
    retriever = EvalCandidateRetriever(inputs.dataset, num_candidates=100)
    tracer.wrap(retriever, "candidates", "eval.retrieve")
    eval_s = []
    for _ in range(size.eval_passes):
        t0 = time.perf_counter()
        with tracer.span("eval.call", batches=math.ceil(len(inputs.instances) / 64)):
            report = evaluate(
                model, inputs.dataset, inputs.instances, num_candidates=100,
                batch_size=64, retriever=retriever,
            )
        eval_s.append(time.perf_counter() - t0)
    return {
        "epoch_losses": losses,
        "metrics": report_dict(report),
        "train_s": train_s,
        "train_cpu_s": train_cpu_s,
        "eval_s": eval_s,
        "nonfinite_steps": nonfinite,
    }


def run(seed: int, seconds: float, tracer, size: Size = FULL) -> dict:
    traced = tracer.enabled
    inputs, setup_s, setup_wall_s = repeat_setup(size.setups, lambda: setup(seed, size))

    reference = load_reference(seed, size)
    problems: List[str] = []
    rounds = []
    attempted = failed = 0
    baseline = None
    if traced:
        baseline = train_round(inputs, seed, size)
        tracer.wrap(inputs.dataset.spatial_index(), "nearest_excluding", "geo.nearest_excluding")
    steal0, t_start = host_steal_ticks(), time.perf_counter()
    deadline = t_start + seconds
    while not rounds or time.perf_counter() < deadline:
        if traced:
            result = traced_round(tracer, inputs, seed, size)
            failed += result["nonfinite_steps"]
        else:
            result = train_round(inputs, seed, size)
            failed += sum(not math.isfinite(x) for x in result["epoch_losses"])
        attempted += size.epochs * math.ceil(size.windows / 32) + size.eval_passes
        if traced:
            found = [f"traced loop vs train_stisan: {p}" for p in compare(result, baseline, size.instances)]
        elif rounds and (result["epoch_losses"], result["metrics"]) != (
            rounds[0]["epoch_losses"], rounds[0]["metrics"]
        ):
            found = ["two rounds from one seed differ"]
        else:
            found = []
        if reference is not None:
            found += compare(result, reference, size.instances)
        failed += bool(found)
        problems += found
        rounds.append(result)

    steal = steal_share(steal0, host_steal_ticks(), time.perf_counter() - t_start)
    windows = size.epochs * size.windows
    train_rate = median(windows / r["train_s"] for r in rounds)
    train_cpu_rate = median(windows / r["train_cpu_s"] for r in rounds)
    eval_ms = median(1e3 * s for r in rounds for s in r["eval_s"])
    out = {
        "setup_s_each": setup_s,
        "setup_wall_s_each": setup_wall_s,
        "rounds": len(rounds),
        "reference_checked": reference is not None,
        "host_steal_share": steal,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_cpu_s": train_cpu_rate,
            "latency_p50_ms": eval_ms,
        },
        "workload_metrics": {
            "train_windows_per_s": (train_rate, "windows/s"),
            "eval_instances_per_s": (size.instances / (eval_ms / 1e3), "instances/s"),
        },
        "epoch_losses": rounds[0]["epoch_losses"],
        "eval_metrics": rounds[0]["metrics"],
    }
    if traced:
        out["layers"] = layers.train_layers(tracer)
        share = out["layers"]["train.unattributed_share"]
        if share > MAX_UNATTRIBUTED:
            problems.append(f"unattributed step time {share:.1%} > {MAX_UNATTRIBUTED:.0%}")
    return out
