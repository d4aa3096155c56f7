"""Tests for learning-rate schedulers."""

import numpy as np
import pytest

from repro import nn
from tests.lr_schedulers import (
    CosineAnnealingLR,
    ExponentialLR,
    StepLR,
    WarmupCosineLR,
    lr_trace,
)


def _opt(lr=0.1):
    return nn.SGD([nn.Parameter(np.zeros(1, dtype=np.float32))], lr=lr)


class TestStepLR:
    def test_decay_boundaries(self):
        sched = StepLR(_opt(0.1), step_size=3, gamma=0.1)
        rates = lr_trace(sched, 7)
        np.testing.assert_allclose(rates[:2], 0.1)
        np.testing.assert_allclose(rates[2:5], 0.01)
        np.testing.assert_allclose(rates[5:], 0.001, atol=1e-9)

    def test_applies_to_optimizer(self):
        opt = _opt(0.5)
        sched = StepLR(opt, step_size=1, gamma=0.5)
        sched.step()
        assert opt.lr == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLR(_opt(), step_size=0)
        with pytest.raises(ValueError):
            StepLR(_opt(), step_size=2, gamma=0.0)


class TestExponentialLR:
    def test_geometric_decay(self):
        rates = lr_trace(ExponentialLR(_opt(1.0), gamma=0.5), 4)
        np.testing.assert_allclose(rates, [0.5, 0.25, 0.125, 0.0625])

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialLR(_opt(), gamma=1.5)


class TestCosine:
    def test_endpoints(self):
        sched = CosineAnnealingLR(_opt(0.2), t_max=10, min_lr=0.02)
        rates = lr_trace(sched, 10)
        assert rates[0] < 0.2
        assert rates[-1] == pytest.approx(0.02, abs=1e-9)

    def test_monotone_decreasing(self):
        rates = lr_trace(CosineAnnealingLR(_opt(0.1), t_max=20), 20)
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_clamps_past_t_max(self):
        sched = CosineAnnealingLR(_opt(0.1), t_max=5, min_lr=0.01)
        rates = lr_trace(sched, 8)
        np.testing.assert_allclose(rates[5:], 0.01, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(_opt(), t_max=0)


class TestWarmupCosine:
    def test_warmup_ramp(self):
        sched = WarmupCosineLR(_opt(0.1), warmup_steps=4, total_steps=10)
        rates = lr_trace(sched, 10)
        np.testing.assert_allclose(rates[:4], [0.025, 0.05, 0.075, 0.1])
        assert rates[4] < 0.1  # decay starts after warmup

    def test_peak_at_base_lr(self):
        sched = WarmupCosineLR(_opt(0.3), warmup_steps=2, total_steps=8)
        rates = lr_trace(sched, 8)
        assert max(rates) == pytest.approx(0.3)

    def test_final_at_min_lr(self):
        sched = WarmupCosineLR(_opt(0.1), warmup_steps=1, total_steps=6, min_lr=0.005)
        rates = lr_trace(sched, 6)
        assert rates[-1] == pytest.approx(0.005, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupCosineLR(_opt(), warmup_steps=5, total_steps=5)


class TestIntegrationWithTraining:
    def test_scheduled_training_converges(self):
        target = np.array([2.0, -1.0], dtype=np.float32)
        p = nn.Parameter(np.zeros(2, dtype=np.float32))
        opt = nn.Adam([p], lr=0.2)
        sched = CosineAnnealingLR(opt, t_max=100, min_lr=1e-3)
        from repro.nn.tensor import Tensor

        for _ in range(100):
            loss = ((p - Tensor(target)) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
            sched.step()
        np.testing.assert_allclose(p.data, target, atol=5e-2)
