"""Training loop for STiSAN (and API-compatible neural baselines).

One loop serves every worker count.  Each batch is split into
``grad_shards`` logical shards; ``workers`` processes each compute a
contiguous run of them, the shard gradients are summed in a fixed
order, and every replica takes the same ``FlatAdam`` step (the process
side lives in :mod:`repro.parallel.trainer`).  At ``workers=1`` the
shard count defaults to 1: the batch is not split, the model's dropout
generators stream from their own state, and checkpoints keep the
single-shard layout (no ``grad_shards`` fingerprint key).  Only when
``grad_shards > 1`` are the dropout generators re-keyed per
``(step, shard)``, which is what makes ``workers=N`` bitwise equal to
``workers=1`` at the same shard count.

Instrumented with :mod:`repro.obs`: ``train.epoch`` / ``train.batch`` /
``train.forward`` / ``train.backward`` / ``train.step`` spans, the
``repro_train_*`` metrics, and an optional JSONL telemetry sink whose
stream (loss curve, step counts) is deterministic for a fixed seed
modulo the timestamp field — ``tests/test_obs_telemetry.py`` replays
two seeded runs and diffs them to catch nondeterminism regressions.

Crash-safe resume: pass ``checkpoint_dir`` (and optionally
``checkpoint_every`` steps) to write full
:class:`repro.core.checkpoint.TrainerCheckpoint` snapshots — model,
Adam moments, trainer/model RNG states, mid-epoch batch position and
early-stopping state — through the atomic, checksummed writer.  With
``resume=True`` the newest intact checkpoint is restored and training
continues **bitwise identically** to the uninterrupted run: final
parameters match exactly and the telemetry streams concatenate into
the uninterrupted stream (modulo timestamps).  Telemetry for a batch
is always emitted *before* that batch's checkpoint is written, so a
crash between the two replays nothing and drops nothing.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..data.batching import Batch, BatchIterator
from ..data.negatives import NearestNegativeSampler
from ..data.sequences import EvalExample, SequenceExample
from ..data.types import CheckInDataset
from ..faults import state as _faults
from ..nn.optim import FlatAdam
from ..nn.tensor import grad_arena
from ..obs import REGISTRY, TelemetrySink, span
from ..obs import state as _obs
from ..parallel.reduce import clip_flat_grad_norm, reduce_shard_grads, reduce_shard_losses
from ..parallel.sharding import rank_shard_range, shard_bounds
from ..parallel.trainer import RankGroup, resolve_grad_shards, seed_shard_rngs
from .checkpoint import TrainerCheckpoint, TrainProgress, collect_module_rngs
from .config import TrainConfig
from .early_stopping import EarlyStopping
from .loss import weighted_bce_loss_sharded
from .stisan import STiSAN


@dataclass
class TrainResult:
    """Per-epoch training diagnostics."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_metrics: List[float] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = -1
    resumed_from_step: Optional[int] = None

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def _fingerprint(
    config: TrainConfig, num_examples: int, model, has_validation: bool, grad_shards: int
) -> dict:
    """Settings that must match between a checkpoint and a resuming run.

    The worker count is deliberately absent — the captured state is
    worker-count independent.  ``grad_shards`` shapes the gradient
    arithmetic, so it is recorded whenever the batch is split; at one
    shard the key is left out and checkpoints keep the layout of the
    single-shard loop, so directories written before the loops merged
    still resume.
    """
    fingerprint = {
        "model": type(model).__name__,
        "seed": config.seed,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "num_negatives": config.num_negatives,
        "negative_pool": config.negative_pool,
        "temperature": config.temperature,
        "grad_clip": config.grad_clip,
        "loss_shard_size": config.loss_shard_size,
        "num_examples": num_examples,
        "has_validation": has_validation,
    }
    if grad_shards > 1:
        fingerprint["grad_shards"] = grad_shards
    return fingerprint


def train_stisan(
    model: STiSAN,
    dataset: CheckInDataset,
    examples: List[SequenceExample],
    config: Optional[TrainConfig] = None,
    on_epoch_end: Optional[Callable[[int, float], None]] = None,
    validation: Optional[List[EvalExample]] = None,
    patience: int = 3,
    num_candidates: int = 100,
    telemetry: Optional[TelemetrySink] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    *,
    workers: int = 1,
    grad_shards: Optional[int] = None,
) -> TrainResult:
    """Optimize ``model`` on the given training windows.

    Follows Section III-H / IV-D: weighted BCE over L nearest-neighbour
    negatives, Adam at the configured learning rate.

    If ``validation`` instances are supplied (e.g. from
    :func:`repro.core.early_stopping.validation_split`), NDCG@10 is
    evaluated each epoch, training stops after ``patience`` epochs
    without improvement, and the best snapshot is restored.

    ``telemetry`` (optional) receives one JSONL record per batch and
    per epoch; for a fixed config/seed the stream is identical between
    runs except for timestamps.

    ``checkpoint_dir`` enables crash-safe checkpoints: one at the end
    of every epoch, plus one every ``checkpoint_every`` optimizer steps
    when that is positive.  ``resume=True`` restores the newest intact
    checkpoint from the directory (corrupt files are skipped; if all
    are corrupt the run refuses to silently start over) and continues
    bitwise identically to the uninterrupted run.

    ``workers`` is the number of processes; ``grad_shards`` the fixed
    logical shard count each batch is split into (default: 1 at one
    worker, :data:`repro.parallel.DEFAULT_GRAD_SHARDS` otherwise).  It
    must be a multiple of ``workers`` and is part of the checkpoint
    fingerprint, so a run checkpointed at any worker count resumes at
    any other with the same ``grad_shards``.
    """
    config = config or TrainConfig()
    grad_shards = resolve_grad_shards(workers, grad_shards)
    if config.loss_shard_size and grad_shards > 1:
        # Logical grad shards already bound per-worker loss memory,
        # and stacking the two sharding schemes would change which
        # float32 sums the determinism contract pins.
        raise ValueError(
            "loss_shard_size is not supported with grad_shards > 1; "
            "grad_shards already bounds per-shard loss memory"
        )
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if checkpoint_every and checkpoint_dir is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    rng = np.random.default_rng(config.seed)
    sampler = NearestNegativeSampler(
        dataset,
        num_negatives=config.num_negatives,
        pool_size=config.negative_pool,
        rng=rng,
    )
    optimizer = FlatAdam(model.parameters(), lr=config.learning_rate)
    result = TrainResult()
    stopper = EarlyStopping(patience=patience) if validation else None
    fingerprint = _fingerprint(
        config, len(examples), model, validation is not None, grad_shards
    )

    progress = TrainProgress()
    resumed_order: Optional[np.ndarray] = None
    resumed = False
    if resume:
        loaded = TrainerCheckpoint.load_latest(checkpoint_dir)
        if loaded is not None:
            ckpt, ckpt_path = loaded
            ckpt.check_fingerprint(fingerprint)
            progress = ckpt.restore(model, optimizer, rng, stopper)
            resumed_order = ckpt.order
            result.epoch_losses = list(progress.epoch_losses)
            result.validation_metrics = list(progress.validation_metrics)
            result.stopped_early = progress.stopped_early
            result.resumed_from_step = progress.global_step
            resumed = True
            if _obs._enabled:
                REGISTRY.counter("repro_train_resumes_total").inc()
            if telemetry is not None:
                telemetry.emit(
                    "resume",
                    checkpoint=ckpt_path.name,
                    epoch=progress.epoch,
                    batches_done=progress.batches_done,
                    step=progress.global_step,
                )
    if telemetry is not None and not resumed:
        telemetry.emit(
            "train_start",
            epochs=config.epochs,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            num_negatives=config.num_negatives,
            temperature=config.temperature,
            seed=config.seed,
            num_examples=len(examples),
        )

    group = RankGroup(workers, grad_shards, optimizer.flat_size, len(optimizer.params))
    generators = collect_module_rngs(model)
    offsets = optimizer.grad_offsets

    def step(rank: int, batch: Batch, arena, global_step: int, _span) -> float:
        """One optimizer step: this rank's shards -> all-reduce -> step.

        A function, so each shard's autograd graph dies on return
        instead of living on through the next batch's forward.
        """
        buf = group.buffer
        shard_lo, shard_hi = rank_shard_range(rank, workers, grad_shards)
        bounds = shard_bounds(len(batch), grad_shards)
        # The *global* batch's real-target count: every shard's loss is
        # normalized by it, so the fixed-order shard sum reproduces the
        # batch-mean loss (and gradient) for any worker count.
        normalizer = float(np.asarray(batch.target_mask, dtype=np.float32).sum())
        for shard in range(shard_lo, shard_hi):
            lo, hi = bounds[shard]
            if lo == hi:
                # Empty logical shard (batch smaller than grad_shards):
                # rows persist across steps, so the owner must clear its
                # slot or a stale gradient would leak into the reduce.
                buf.grads[shard].fill(0.0)
                buf.losses[shard] = 0.0
                buf.touched[shard].fill(0)
                continue
            if grad_shards > 1:
                seed_shard_rngs(generators, config.seed, global_step, shard)
            negatives = batch.negatives[lo:hi] if batch.negatives is not None else None
            with _span("train.forward"):
                pos, neg = model.forward_train(
                    batch.src[lo:hi], batch.times[lo:hi], batch.tgt[lo:hi], negatives
                )
                # loss_shard_size == 0 delegates to the unsharded loss.
                loss = weighted_bce_loss_sharded(
                    pos, neg, batch.target_mask[lo:hi],
                    temperature=config.temperature,
                    shard_size=config.loss_shard_size,
                    normalizer=normalizer,
                )
            optimizer.zero_grad()
            with _span("train.backward"):
                loss.backward()
            buf.losses[shard] = np.float32(loss.data)
            optimizer.write_flat_grads(buf.grads[shard], touched=buf.touched[shard])
        group.wait(rank, 0)
        with _span("train.step"):
            # Every rank performs the identical fixed-order reduction —
            # a pure function of the shard matrix, independent of which
            # process computed which row.
            flat_grad = reduce_shard_grads(buf.grads)
            batch_loss = reduce_shard_losses(buf.losses)
            touched_any = buf.touched.any(axis=0)
            group.wait(rank, 1)
            if config.grad_clip:
                clip_flat_grad_norm(flat_grad, offsets, config.grad_clip)
            optimizer.step_flat(flat_grad, missing=np.flatnonzero(~touched_any))
            # The gradient arena recycles backward scratch buffers
            # across the epoch's steps; this step's backward is done.
            arena.reset()
        return batch_loss

    def run_rank(rank: int) -> None:
        """The epoch loop; identical control flow on every rank, with
        telemetry, metrics and checkpoints on rank 0 only."""
        is_root = rank == 0
        global_step = progress.global_step

        def _span(name: str):
            # Only the root contributes to the (merged) span metrics;
            # worker replicas would otherwise multiply every duration.
            return span(name) if is_root else contextlib.nullcontext()

        def save_ckpt(epoch: int, batches_done: int, epoch_loss: float, order) -> None:
            snapshot = TrainProgress(
                epoch=epoch,
                batches_done=batches_done,
                global_step=global_step,
                epoch_loss=epoch_loss,
                epoch_losses=list(result.epoch_losses),
                validation_metrics=list(result.validation_metrics),
                stopped_early=result.stopped_early,
            )
            info = None
            if grad_shards > 1:
                # Canonicalize the dropout generator states: rank 0's
                # reflect whichever shard it computed last — an
                # N-dependent quantity — while every consumer re-keys
                # per (step, shard) before drawing.  info omits the
                # worker count: checkpoint bytes are worker-count free.
                seed_shard_rngs(generators, config.seed, global_step, 0)
                info = {"trainer": "data_parallel", "grad_shards": grad_shards}
            TrainerCheckpoint.capture(
                model, optimizer, rng, snapshot, fingerprint,
                stopper=stopper, order=order, info=info,
            ).save(checkpoint_dir)
            plan = _faults.active_plan()
            if plan is not None:
                plan.on_train_checkpoint(global_step)

        model.train()
        start_epoch = progress.epoch
        end_epoch = start_epoch if progress.stopped_early else config.epochs
        for epoch in range(start_epoch, end_epoch):
            # The arena is discarded at epoch end so validation runs
            # unpooled.
            with _span("train.epoch"), grad_arena() as arena:
                iterator = BatchIterator(
                    examples, batch_size=config.batch_size, sampler=sampler, rng=rng
                )
                if resumed_order is not None and epoch == start_epoch:
                    # Mid-epoch resume: replay the checkpointed shuffle
                    # order from the first unprocessed batch; the RNG
                    # state restored above already reflects the shuffle
                    # and the sampler draws of the completed batches.
                    order = resumed_order
                    start_batch = progress.batches_done
                    epoch_loss = progress.epoch_loss
                    num_batches = progress.batches_done
                else:
                    order = iterator.epoch_order()
                    start_batch = 0
                    epoch_loss = 0.0
                    num_batches = 0
                for batch in iterator.iter_order(order, start_batch=start_batch):
                    with _span("train.batch"):
                        batch_loss = step(rank, batch, arena, global_step, _span)
                    epoch_loss += batch_loss
                    num_batches += 1
                    global_step += 1
                    if is_root and _obs._enabled:
                        REGISTRY.counter("repro_train_batches_total").inc()
                        REGISTRY.gauge("repro_train_loss").set(batch_loss)
                    if is_root and telemetry is not None:
                        telemetry.emit("batch", epoch=epoch, step=global_step, loss=batch_loss)
                    if is_root and checkpoint_every and global_step % checkpoint_every == 0:
                        save_ckpt(epoch, num_batches, epoch_loss, order)
            mean_loss = epoch_loss / max(num_batches, 1)
            result.epoch_losses.append(mean_loss)
            if is_root:
                if _obs._enabled:
                    REGISTRY.counter("repro_train_epochs_total").inc()
                    REGISTRY.gauge("repro_train_epoch_loss").set(mean_loss)
                if telemetry is not None:
                    telemetry.emit("epoch", epoch=epoch, batches=num_batches, mean_loss=mean_loss)
                if config.verbose:
                    print(f"epoch {epoch + 1}/{config.epochs}: loss={mean_loss:.4f}")
                if on_epoch_end is not None:
                    on_epoch_end(epoch, mean_loss)
            should_stop = False
            if stopper is not None:
                # Every rank evaluates (identical replicas produce the
                # identical metric) so the stop decision needs no
                # broadcast and control flow stays in lockstep.
                from ..eval.protocol import evaluate  # repro-lint: disable=REPRO-HOTIMPORT -- breaks the core<->eval import cycle; runs once per epoch, not per query

                model.eval()
                with _span("train.validate"):
                    report = evaluate(model, dataset, validation, num_candidates=num_candidates)
                model.train()
                result.validation_metrics.append(report.ndcg10)
                if is_root:
                    if telemetry is not None:
                        telemetry.emit("validation", epoch=epoch, ndcg10=float(report.ndcg10))
                    if config.verbose:
                        print(f"  validation NDCG@10={report.ndcg10:.4f}")
                if stopper.update(epoch, report.ndcg10, model=model):
                    result.stopped_early = True
                    should_stop = True
            if is_root and checkpoint_dir is not None:
                save_ckpt(epoch + 1, 0, 0.0, None)
            if should_stop:
                break
        if stopper is not None and result.validation_metrics:
            stopper.restore_best(model)
            result.best_epoch = stopper.best_epoch
        model.eval()
        if is_root and telemetry is not None:
            telemetry.emit(
                "train_end",
                epochs_run=len(result.epoch_losses),
                steps=global_step,
                stopped_early=result.stopped_early,
                best_epoch=result.best_epoch,
                final_loss=result.final_loss,
            )

    group.run(run_rank)
    return result
