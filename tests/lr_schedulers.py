"""Learning-rate schedulers for the optimizers in :mod:`repro.nn.optim`.

The paper trains with a constant learning rate and no program path
schedules it, so this module is not part of the package; it lives next
to ``tests/test_schedulers.py``, its only user.
"""

from __future__ import annotations

import math
from typing import List

from repro.nn.optim import Optimizer


class LRScheduler:
    """Base class: call :meth:`step` once per epoch (or per batch)."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_count = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance the schedule and apply the new rate to the optimizer."""
        self.step_count += 1
        lr = self.get_lr()
        self.optimizer.lr = lr
        return lr

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr


class StepLR(LRScheduler):
    """Multiply the rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** (self.step_count // self.step_size)


class ExponentialLR(LRScheduler):
    """Multiply the rate by ``gamma`` every step."""

    def __init__(self, optimizer: Optimizer, gamma: float = 0.95):
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        super().__init__(optimizer)
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** self.step_count


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base rate to ``min_lr`` over ``t_max`` steps."""

    def __init__(self, optimizer: Optimizer, t_max: int, min_lr: float = 0.0):
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        super().__init__(optimizer)
        self.t_max = t_max
        self.min_lr = min_lr

    def get_lr(self) -> float:
        t = min(self.step_count, self.t_max)
        cos = (1 + math.cos(math.pi * t / self.t_max)) / 2
        return self.min_lr + (self.base_lr - self.min_lr) * cos


class WarmupCosineLR(LRScheduler):
    """Linear warmup for ``warmup_steps`` then cosine decay to ``min_lr``."""

    def __init__(
        self,
        optimizer: Optimizer,
        warmup_steps: int,
        total_steps: int,
        min_lr: float = 0.0,
    ):
        if warmup_steps < 0 or total_steps <= warmup_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")
        super().__init__(optimizer)
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr = min_lr

    def get_lr(self) -> float:
        t = self.step_count
        if self.warmup_steps and t <= self.warmup_steps:
            return self.base_lr * t / self.warmup_steps
        progress = min(1.0, (t - self.warmup_steps) / (self.total_steps - self.warmup_steps))
        cos = (1 + math.cos(math.pi * progress)) / 2
        return self.min_lr + (self.base_lr - self.min_lr) * cos


def lr_trace(scheduler: LRScheduler, steps: int) -> List[float]:
    """Dry-run a schedule and return the per-step rates (for plotting)."""
    return [scheduler.step() for _ in range(steps)]
