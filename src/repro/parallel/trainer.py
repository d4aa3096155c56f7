"""The process side of training: ranks, barriers and bitwise determinism.

:func:`repro.core.trainer.train_stisan` runs one loop at every worker
count, modeled on the classic multi-replica loop (shard the batch,
per-replica backward, ``all_reduce_and_rescale``, identical step) with
``multiprocessing`` + shared memory standing in for CUDA replicas.
This module holds the parts of it that concern processes:

1. the parent prepares (and, on resume, restores) the canonical model,
   ``FlatAdam`` optimizer, trainer RNG and early-stopping state, then
   :class:`RankGroup` **forks** N−1 children — every replica starts
   bitwise identical;
2. every rank runs the *same* data pipeline (one canonical RNG drives
   the epoch shuffle and the negative draws for the **full** batch, so
   all RNG streams stay in lockstep and are worker-count independent);
3. each batch is decomposed into ``grad_shards`` logical shards
   (:mod:`repro.parallel.sharding`) whose contents depend only on the
   batch size; rank r forwards/backwards its contiguous run of shards
   on the fused engine and writes each shard's flat gradient (in
   ``FlatAdam``'s layout) into its row of the reduce buffer;
4. after a barrier, **every** rank performs the same fixed-order
   reduction over the ``(F, P)`` shard matrix
   (:func:`repro.parallel.reduce.reduce_shard_grads`), clips, and steps
   its own ``FlatAdam`` replica with :meth:`FlatAdam.step_flat` — the
   replicas stay bitwise identical without ever broadcasting
   parameters.

Because the shard decomposition, the reduction order, the loss
normalizer (the *global* batch's target count) and the per-``(step,
shard)`` dropout streams are all independent of the worker count,
``workers=N`` reproduces ``workers=1`` at the same ``grad_shards``
**bitwise** — parameters, loss curve, optimizer moments and checkpoint
bytes — for every N (``tests/test_data_parallel.py``).  Checkpoints
carry one canonical RNG/shuffle state, so a run checkpointed at
``workers=4`` resumes at ``workers=1`` (and vice versa) and continues
exactly like the uninterrupted run.

Dropout generators are re-keyed per ``(step, shard)`` only when
``grad_shards > 1``.  At one shard (the default at ``workers=1``) the
batch is not split, so the model's generators stream from their own
evolving state and the run is the plain sequential loop, bit for bit.

Platform notes: multi-worker mode requires the ``fork`` start method
(Linux, macOS with default interpreter settings); ``workers=1`` runs
fully in-process on any platform.
"""

from __future__ import annotations

import contextlib
import threading
import traceback
from typing import Callable, List, Optional

import numpy as np

from ..faults import fault_injection
from ..faults import state as _faults
from ..obs import REGISTRY
from ..obs import state as _obs
from . import state as _pstate
from .sharding import validate_world
from .shm import LocalReduceBuffer, SharedReduceBuffer

__all__ = [
    "DEFAULT_GRAD_SHARDS",
    "RankGroup",
    "WorkerCrashError",
    "resolve_grad_shards",
    "seed_shard_rngs",
]

#: Logical shard count when more than one worker runs — fixed
#: independently of the worker count (it bounds usable workers and is
#: part of the checkpoint fingerprint, so the gradient arithmetic never
#: depends on N).
DEFAULT_GRAD_SHARDS = 4

#: Seconds a rank waits at a step barrier before the run is declared
#: broken (a dead or hung peer).
BARRIER_TIMEOUT_S = 300.0

#: Stream id mixed into every derived per-(step, shard) dropout seed so
#: the streams never collide with other seeded generators in the repo.
_DROPOUT_STREAM = 0x5D


class WorkerCrashError(RuntimeError):
    """A worker process died or desynchronized mid-training."""


def resolve_grad_shards(workers: int, grad_shards: Optional[int]) -> int:
    """The run's logical shard count: ``grad_shards`` if given, else 1
    at one worker and :data:`DEFAULT_GRAD_SHARDS` otherwise; rejects
    geometries the determinism contract cannot cover."""
    if grad_shards is None:
        grad_shards = 1 if workers == 1 else DEFAULT_GRAD_SHARDS
    validate_world(workers, grad_shards)
    return grad_shards


def seed_shard_rngs(
    generators: List[np.random.Generator], seed: int, step: int, shard: int
) -> None:
    """Re-key the model's dropout generators for one (step, shard).

    With one shard, dropout noise streams from the generators' evolving
    state; with several, that evolution would depend on *which* shards
    a process computes.  Instead each shard's forward draws from a
    stream derived from ``(seed, global_step, shard)`` alone — a pure
    function of worker-count-independent quantities — so the noise (and
    therefore every gradient bit) is identical no matter which process
    runs the shard.
    """
    for index, generator in enumerate(generators):
        fresh = np.random.default_rng([_DROPOUT_STREAM, seed, step, shard, index])
        generator.bit_generator.state = fresh.bit_generator.state


class RankGroup:
    """The ranks of one training run and the buffer they reduce through.

    Rank 0 is the calling process; ranks 1..N−1 are forked children.
    :meth:`run` executes ``run_rank(rank)`` on every rank; inside it a
    step writes its shard rows to :attr:`buffer`, then calls
    :meth:`wait` twice — once when the rows are written, once when
    they have been read.
    """

    def __init__(self, workers: int, grad_shards: int, flat_size: int, num_params: int):
        self.workers = workers
        self._geometry = (grad_shards, flat_size, num_params)
        self.buffer = None
        self._barriers = ()
        self._children = []

    def run(self, run_rank: Callable[[int], None]) -> None:
        if self.workers == 1:
            self.buffer = LocalReduceBuffer(*self._geometry)
            _pstate.install_rank(0, 1)
            try:
                run_rank(0)
            finally:
                _pstate.install_rank(0, 1)
            return
        self._run_forked(run_rank)

    def wait(self, rank: int, phase: int) -> None:
        """Block until every rank reaches ``phase`` of the current step
        (0: shard rows written; 1: rows read, buffer reusable)."""
        if not self._barriers:
            return
        try:
            self._barriers[phase].wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            if rank != 0:
                raise
            dead = [
                child.name for child in self._children
                if child.exitcode not in (None, 0)
            ]
            raise WorkerCrashError(
                "data-parallel barrier broken"
                + (f"; dead worker(s): {', '.join(dead)}" if dead else "")
                + " — see worker stderr for the originating traceback"
            ) from None

    def _run_forked(self, run_rank: Callable[[int], None]) -> None:
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "data-parallel training with workers > 1 requires the 'fork' "
                "start method (Linux/macOS); this platform only offers "
                f"{mp.get_all_start_methods()} — run with workers=1"
            )
        ctx = mp.get_context("fork")
        buf = SharedReduceBuffer(*self._geometry)
        self.buffer = buf
        self._barriers = (ctx.Barrier(self.workers), ctx.Barrier(self.workers))
        metrics_queue = ctx.SimpleQueue()
        # Captured pre-fork so each child can derive its per-rank fault
        # stream from the plan the caller installed around training.
        parent_plan = _faults.active_plan()
        fault_config = None if parent_plan is None else parent_plan.config

        self._children = [
            ctx.Process(
                target=self._worker_entry,
                args=(rank, run_rank, fault_config, metrics_queue),
                daemon=True, name=f"repro-dp-rank{rank}",
            )
            for rank in range(1, self.workers)
        ]
        for child in self._children:
            child.start()
        _pstate.install_rank(0, self.workers)
        try:
            run_rank(0)
        finally:
            # Whether we finished or died (e.g. an injected
            # SimulatedCrash right after a checkpoint), release any rank
            # stuck at a barrier, reap the children, and merge whatever
            # metrics they managed to ship.
            self._abort_barriers()
            buf.signal_abort()
            for child in self._children:
                child.join(timeout=10)
            for child in self._children:
                if child.is_alive():  # pragma: no cover - last-resort reap
                    child.terminate()
                    child.join(timeout=5)
            _merge_worker_metrics(metrics_queue)
            buf.close()
            buf.unlink()
            _pstate.install_rank(0, 1)

    def _abort_barriers(self) -> None:
        for barrier in self._barriers:
            with contextlib.suppress(Exception):
                barrier.abort()

    def _worker_entry(self, rank: int, run_rank, fault_config, metrics_queue) -> None:
        import os
        import sys

        _pstate.reset_inherited_state()
        _pstate.install_rank(rank, self.workers)
        exit_code = 0
        try:
            if fault_config is not None:
                # Entered for the process lifetime: each rank draws its
                # injections from an independent, reproducible stream.
                fault_injection(fault_config.for_rank(rank)).__enter__()
            run_rank(rank)
            payload = REGISTRY.to_json() if _obs._enabled else None
            metrics_queue.put((rank, payload))
        except threading.BrokenBarrierError:
            # The parent aborted (finished, crashed, or another worker
            # died) — exit quietly; the parent reports the real cause.
            exit_code = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
            self._abort_barriers()
            exit_code = 1
        finally:
            # Skip interpreter teardown: the forked child shares file
            # descriptors and atexit state with the parent.
            os._exit(exit_code)


def _merge_worker_metrics(metrics_queue) -> None:
    """Fold child metric snapshots into the root registry, rank order."""
    snapshots = []
    with contextlib.suppress(Exception):
        while not metrics_queue.empty():
            snapshots.append(metrics_queue.get())
    for _, payload in sorted(snapshots, key=lambda item: item[0]):
        if payload is not None:
            REGISTRY.merge_json(payload)
