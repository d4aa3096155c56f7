"""Per-process rank state and post-fork hygiene for data-parallel runs.

This is a sanctioned state module (like :mod:`repro.obs.state` and
:mod:`repro.faults.state`): the only module-level mutables in
:mod:`repro.parallel` live here, guarded by the ``REPRO-STATE`` lint
rule's carve-out.

Two jobs:

- **Rank identity.**  :func:`install_rank` / :func:`current_rank` /
  :func:`world_size` let instrumentation and fault seams ask "which
  replica am I?" without threading a rank argument through every layer.

- **Fork hygiene.**  ``fork(2)`` copies the parent's whole interpreter
  state, including module-level mutables that are *semantically
  per-process*: the installed :class:`~repro.nn.tensor.GradArena`
  (whose issued buffers alias the parent's autograd graph), the live
  span stack and op-profiler hook, the accumulated metrics registry,
  and any installed fault plan/hooks.  A freshly forked worker must
  start from a clean slate or parent state leaks into child telemetry
  and child resets corrupt parent invariants.
  :func:`reset_inherited_state` scrubs all of it in one place; the
  forked ranks of :class:`repro.parallel.trainer.RankGroup` call it
  first thing.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "install_rank",
    "current_rank",
    "world_size",
    "is_root",
    "reset_inherited_state",
]

#: This process's rank in the data-parallel world (0 = root), and the
#: world size.  Module-level so hot paths pay one attribute load.
_rank: int = 0
_world_size: int = 1
#: PID that installed the rank — lets stale inherited values be detected.
_installed_pid: Optional[int] = None


def install_rank(rank: int, size: int) -> None:
    """Declare this process's place in the data-parallel world."""
    global _rank, _world_size, _installed_pid
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for world size {size}")
    _rank = rank
    _world_size = size
    _installed_pid = os.getpid()


def current_rank() -> int:
    """This process's data-parallel rank (0 outside parallel training)."""
    return _rank


def world_size() -> int:
    """Number of replicas in the current run (1 outside parallel training)."""
    return _world_size


def is_root() -> bool:
    """True on rank 0 (and in ordinary single-process runs)."""
    return _rank == 0


def reset_inherited_state() -> None:
    """Scrub fork-inherited module-level state that is per-process.

    Clears, in order: the installed gradient arena (its pooled buffers
    belong to the parent's training step), the autograd fault and
    profiler hooks plus the active fault plan (workers install their
    own per-rank plans), the live span stack, and the metrics registry
    (workers accumulate privately and the root merges snapshots
    deterministically at join).  The observability *enable switch* is
    deliberately left as inherited — whether telemetry is on is a
    run-level decision, not per-process.
    """
    import importlib

    from ..faults import state as _faults_state
    from ..nn import serialization as _serialization
    from ..obs import REGISTRY
    from ..obs import opprof as _opprof
    from ..obs import spans as _spans

    # ``repro.nn`` re-exports a *function* named ``tensor`` that shadows
    # the submodule as an attribute, so the module object must come from
    # the import system, not attribute lookup.
    _tensor = importlib.import_module("repro.nn.tensor")

    _tensor._arena = None
    _tensor._fault_hook = None
    _tensor._op_profiler = None
    _serialization._io_fault_hook = None
    _faults_state._plan = None
    _spans._stack_of_thread().clear()
    _spans._finished.clear()
    _opprof._active = None
    REGISTRY.reset()
