"""Fused-vs-reference equivalence suite for ``repro.nn.fused``.

The fused execution layer's contract (module docstring of
:mod:`repro.nn.fused`):

- the fused **forward is bitwise identical** to the reference op chain
  (same numpy operations, same order, same float32 scalars);
- the fused **backward matches within 1e-6** (same math, fused
  evaluation order, so GEMMs may round differently in the last ulp);
- ``FlatAdam`` performs **bitwise identical** updates to ``Adam`` and
  their ``state_dict``s are interchangeable (checkpoint compatibility);
- the gradient arena changes buffer provenance only, never values.

The reference leg is the primitive op chain of
``tests/reference_kernels.py``, swapped into :mod:`repro.nn.fused` for
the duration of the leg; the fused leg runs the shipped kernels.  The
suite drives both legs over random shapes, padding masks, multi-head
splits, dropout in train and eval mode, and with anomaly-mode graph
checking enabled, then closes with the end-to-end guards: the committed
golden top-10 fixture must be reproduced by the *reference* leg too
(the fused leg is covered by ``test_golden_regression``), and
kill-and-resume must stay bitwise on the fused kernels.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import STiSANConfig, TrainConfig
from repro.core.iaab import IntervalAwareAttentionBlock, IntervalAwareAttentionLayer
from repro.core.loss import weighted_bce_loss
from repro.core.stisan import STiSAN
from repro.core.taad import TargetAwareAttentionDecoder, step_causal_mask
from repro.core.trainer import train_stisan
from repro.data import partition
from repro.faults import SimulatedCrash, fault_injection
from repro.nn import anomaly_mode, fused
from repro.nn.attention import causal_mask, scaled_dot_product_attention
from repro.nn.layers import LayerNorm
from repro.nn.module import Parameter
from repro.nn.optim import Adam, FlatAdam
from repro.nn.tensor import Tensor, grad_arena
from tests.reference_kernels import reference_causal_attention, reference_kernels

BACKWARD_ATOL = 1e-6
BACKWARD_RTOL = 1e-5


def _leg(reference):
    """The reference leg runs under the oracle, the fused leg as shipped."""
    return reference_kernels() if reference else nullcontext()


def _attention_case(seed):
    """Draw a random attention problem: shapes, mask, bias."""
    rng = np.random.default_rng(seed)
    batch_dims = [(), (int(rng.integers(1, 4)),),
                  (int(rng.integers(1, 3)), int(rng.integers(2, 4)))][seed % 3]
    n_q = int(rng.integers(1, 7))
    n_k = int(rng.integers(1, 7))
    d = int(rng.integers(1, 9))
    d_v = int(rng.integers(1, 9))
    q = rng.standard_normal(batch_dims + (n_q, d)).astype(np.float32)
    k = rng.standard_normal(batch_dims + (n_k, d)).astype(np.float32)
    v = rng.standard_normal(batch_dims + (n_k, d_v)).astype(np.float32)
    bias = None
    if seed % 2 == 0:
        bias = rng.standard_normal((n_q, n_k)).astype(np.float32)
    mask = None
    if seed % 3 != 2:
        # Padding-style mask over keys; a fully-blocked row is legal
        # (uniform softmax) and must match bitwise between legs too.
        mask = rng.random(batch_dims + (n_q, n_k)) < 0.3
    upstream = rng.standard_normal(batch_dims + (n_q, d_v)).astype(np.float32)
    return q, k, v, bias, mask, upstream


def _run_attention_leg(case, reference=False):
    q_arr, k_arr, v_arr, bias_arr, mask, upstream = case
    q = Tensor(q_arr.copy(), requires_grad=True)
    k = Tensor(k_arr.copy(), requires_grad=True)
    v = Tensor(v_arr.copy(), requires_grad=True)
    bias = None if bias_arr is None else Tensor(bias_arr.copy(), requires_grad=True)
    with _leg(reference):
        out = scaled_dot_product_attention(q, k, v, mask=mask, bias=bias)
        (out * Tensor(upstream)).sum().backward()
    grads = [q.grad, k.grad, v.grad] + ([] if bias is None else [bias.grad])
    return out.data, grads


class TestFusedAttentionProperty:
    @pytest.mark.parametrize("seed", range(12))
    def test_forward_bitwise_backward_close(self, seed):
        case = _attention_case(seed)
        ref_out, ref_grads = _run_attention_leg(case, reference=True)
        fus_out, fus_grads = _run_attention_leg(case)
        assert np.array_equal(fus_out, ref_out), "fused forward is not bitwise"
        for name, rg, fg in zip("qkv b", ref_grads, fus_grads):
            np.testing.assert_allclose(
                fg, rg, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL,
                err_msg=f"grad({name}) diverged beyond 1e-6 (seed {seed})",
            )

    def test_return_weights_bitwise(self):
        case = _attention_case(4)
        q, k, v, bias_arr, mask, _ = case
        args = dict(mask=mask, bias=None if bias_arr is None else Tensor(bias_arr))
        with reference_kernels():
            ref_out, ref_w = scaled_dot_product_attention(
                Tensor(q), Tensor(k), Tensor(v), return_weights=True, **args
            )
        fus_out, fus_w = scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), return_weights=True, **args
        )
        assert np.array_equal(fus_out.data, ref_out.data)
        assert np.array_equal(fus_w, ref_w)

    def test_anomaly_mode_clean(self):
        """The fused ops must pass the autograd sanitizer end to end."""
        case = _attention_case(6)
        with anomaly_mode():
            out_data, grads = _run_attention_leg(case)
        assert np.isfinite(out_data).all()
        for g in grads:
            assert np.isfinite(g).all()


def _paired_modules(factory, seed=3):
    """Build (reference, fused) instances with identical weights/RNG."""
    ref = factory(rng=np.random.default_rng(seed))
    fus = factory(rng=np.random.default_rng(seed))
    return ref, fus


def _param_grads_close(ref_mod, fus_mod):
    ref_params, fus_params = ref_mod.parameters(), fus_mod.parameters()
    assert len(ref_params) == len(fus_params)
    for i, (rp, fp) in enumerate(zip(ref_params, fus_params)):
        if rp.grad is None:
            assert fp.grad is None
            continue
        np.testing.assert_allclose(
            fp.grad, rp.grad, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL,
            err_msg=f"parameter {i} gradient diverged",
        )


class TestOracle:
    def test_swaps_kernels_and_restores_them(self):
        shipped = (fused.fused_causal_attention, fused.layer_norm, fused.layer_norm_residual)
        with pytest.raises(RuntimeError):
            with reference_kernels():
                assert fused.fused_causal_attention is reference_causal_attention
                raise RuntimeError("leg failed")
        assert (fused.fused_causal_attention, fused.layer_norm,
                fused.layer_norm_residual) == shipped

    def test_reference_leg_runs_the_op_chain(self):
        """Modules reach the kernels through the module attribute, so
        the oracle really replaces the one-op kernel inside a model."""
        norm = LayerNorm(4)
        x = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
        assert any(p is x for p in norm(x)._parents)
        with reference_kernels():
            assert not any(p is x for p in norm(x)._parents)


class TestModuleEquivalence:
    DIM = 12

    def _inputs(self, b=3, n=8, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, n, self.DIM)).astype(np.float32)
        bias = rng.standard_normal((b, n, n)).astype(np.float32)
        mask = np.broadcast_to(causal_mask(n), (b, n, n))
        upstream = rng.standard_normal((b, n, self.DIM)).astype(np.float32)
        return x, bias, mask, upstream

    def _compare(self, ref, fus, forward, train=False):
        x_arr, *_ , upstream = self._inputs()
        (ref.train() if train else ref.eval())
        (fus.train() if train else fus.eval())
        xr = Tensor(x_arr.copy(), requires_grad=True)
        xf = Tensor(x_arr.copy(), requires_grad=True)
        with reference_kernels():
            out_r = forward(ref, xr)
            (out_r * Tensor(upstream)).sum().backward()
        out_f = forward(fus, xf)
        assert np.array_equal(out_f.data, out_r.data), "module forward not bitwise"
        (out_f * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(
            xf.grad, xr.grad, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL
        )
        _param_grads_close(ref, fus)

    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_iaab_layer(self, num_heads):
        _, bias, mask, _ = self._inputs()
        ref, fus = _paired_modules(
            lambda rng: IntervalAwareAttentionLayer(
                self.DIM, num_heads=num_heads, rng=rng
            )
        )
        self._compare(ref, fus, lambda m, x: m(x, bias, mask))

    def test_iaab_layer_dropout_train_mode(self):
        """Dropout sits outside the fused op and consumes the same RNG
        stream in both legs, so train mode stays bitwise too."""
        _, bias, mask, _ = self._inputs()
        ref, fus = _paired_modules(
            lambda rng: IntervalAwareAttentionLayer(
                self.DIM, dropout=0.4, rng=rng
            )
        )
        self._compare(ref, fus, lambda m, x: m(x, bias, mask), train=True)

    def test_iaab_block(self):
        _, bias, mask, _ = self._inputs()
        ref, fus = _paired_modules(
            lambda rng: IntervalAwareAttentionBlock(
                self.DIM, hidden_dim=24, dropout=0.3, rng=rng
            )
        )
        self._compare(ref, fus, lambda m, x: m(x, bias, mask), train=True)

    def test_taad(self):
        rng = np.random.default_rng(9)
        b, q, c, n = 2, 5, 4, 5
        cand = rng.standard_normal((b, q, c, self.DIM)).astype(np.float32)
        enc_arr = rng.standard_normal((b, n, self.DIM)).astype(np.float32)
        mask = step_causal_mask(q, n)[None]
        upstream = rng.standard_normal((b, q, c, self.DIM)).astype(np.float32)
        outs, grads = [], []
        for reference in (True, False):
            dec = TargetAwareAttentionDecoder(self.DIM)
            enc = Tensor(enc_arr.copy(), requires_grad=True)
            with _leg(reference):
                s = dec(Tensor(cand.copy(), requires_grad=True), enc, attend_mask=mask)
                (s * Tensor(upstream)).sum().backward()
            outs.append(s.data)
            grads.append(enc.grad)
        assert np.array_equal(outs[1], outs[0]), "TAAD forward not bitwise"
        np.testing.assert_allclose(
            grads[1], grads[0], atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL
        )


class TestArenaEquivalence:
    def test_arena_changes_nothing(self):
        case = _attention_case(7)
        bare_out, bare_grads = _run_attention_leg(case)
        with grad_arena() as arena:
            for _ in range(3):  # later iterations recycle pooled buffers
                pooled_out, pooled_grads = _run_attention_leg(case)
                arena.reset()
        assert arena.hits > 0, "arena was never actually recycled"
        assert np.array_equal(pooled_out, bare_out)
        for bg, pg in zip(bare_grads, pooled_grads):
            assert np.array_equal(pg, bg), "arena changed gradient values"


def _make_params(seed):
    rng = np.random.default_rng(seed)
    shapes = [(5, 3), (7,), (2, 3, 4), (1,)]
    return [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]


def _synthetic_grads(params, rng, missing_index=None):
    for i, p in enumerate(params):
        if i == missing_index:
            p.grad = None
        else:
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)


class TestFlatAdamBitwise:
    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(weight_decay=0.01),
        dict(weight_decay=0.01, decoupled=True),
    ])
    def test_bitwise_vs_adam(self, kwargs):
        ref_params, flat_params = _make_params(0), _make_params(0)
        ref_opt = Adam(ref_params, lr=1e-2, **kwargs)
        flat_opt = FlatAdam(flat_params, lr=1e-2, **kwargs)
        for step in range(10):
            rng = np.random.default_rng(100 + step)
            missing = 1 if step == 4 else None  # param-skip semantics
            _synthetic_grads(ref_params, rng, missing_index=missing)
            rng = np.random.default_rng(100 + step)
            _synthetic_grads(flat_params, rng, missing_index=missing)
            ref_opt.clip_grad_norm(5.0)
            flat_opt.clip_grad_norm(5.0)
            ref_opt.step()
            flat_opt.step()
            for i, (rp, fp) in enumerate(zip(ref_params, flat_params)):
                assert np.array_equal(fp.data, rp.data), (
                    f"param {i} diverged at step {step}"
                )
        for rm, fm in zip(ref_opt._m, flat_opt._m):
            assert np.array_equal(fm, rm)
        for rv, fv in zip(ref_opt._v, flat_opt._v):
            assert np.array_equal(fv, rv)

    def test_state_dict_interop(self):
        """Checkpoints written by either optimizer restore into the
        other and continue bitwise — resume stays optimizer-agnostic."""
        ref_params, flat_params = _make_params(1), _make_params(1)
        ref_opt = Adam(ref_params, lr=1e-2)
        flat_opt = FlatAdam(flat_params, lr=1e-2)
        for step in range(3):
            rng = np.random.default_rng(step)
            _synthetic_grads(ref_params, rng)
            rng = np.random.default_rng(step)
            _synthetic_grads(flat_params, rng)
            ref_opt.step()
            flat_opt.step()
        # Cross-load: Adam state into a fresh FlatAdam and vice versa.
        swapped_flat = FlatAdam([Parameter(p.data.copy()) for p in ref_params], lr=1e-2)
        swapped_flat.load_state_dict(ref_opt.state_dict())
        swapped_ref = Adam([Parameter(p.data.copy()) for p in flat_params], lr=1e-2)
        swapped_ref.load_state_dict(flat_opt.state_dict())
        for opt in (ref_opt, flat_opt, swapped_flat, swapped_ref):
            rng = np.random.default_rng(99)
            _synthetic_grads(opt.params, rng)
            opt.step()
        for i in range(len(ref_params)):
            expected = ref_opt.params[i].data
            for opt in (flat_opt, swapped_flat, swapped_ref):
                assert np.array_equal(opt.params[i].data, expected), (
                    f"param {i} diverged after state_dict round-trip"
                )

    def test_external_assign_resync(self):
        """Model.load_state_dict replaces parameter arrays via assign_;
        FlatAdam must detect the detach and keep updating correctly."""
        params = _make_params(2)
        opt = FlatAdam(params, lr=1e-2)
        rng = np.random.default_rng(0)
        _synthetic_grads(params, rng)
        opt.step()
        snapshot = [p.data.copy() for p in params]
        params[0].assign_(np.zeros_like(params[0].data))  # detached view
        ref_params = [Parameter(p.data.copy()) for p in params]
        ref_opt = Adam(ref_params, lr=1e-2)
        ref_opt.load_state_dict(opt.state_dict())
        for step in range(3):
            rng = np.random.default_rng(10 + step)
            _synthetic_grads(params, rng)
            rng = np.random.default_rng(10 + step)
            _synthetic_grads(ref_params, rng)
            opt.step()
            ref_opt.step()
        for i, (p, rp) in enumerate(zip(params, ref_params)):
            assert np.array_equal(p.data, rp.data), f"param {i} diverged after assign_"
        assert not np.array_equal(params[0].data, snapshot[0])


MAX_LEN = 10


def _stisan_pair(dataset, dropout=0.3):
    def build():
        cfg = STiSANConfig.small(
            max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=2, dropout=dropout,
        )
        return STiSAN(dataset.num_pois, dataset.poi_coords, cfg,
                      rng=np.random.default_rng(5))
    return build(), build()


@pytest.mark.slow
class TestModelLevelEquivalence:
    def test_forward_train_bitwise(self, micro_dataset):
        from repro.data.batching import BatchIterator
        from repro.data.negatives import NearestNegativeSampler

        train, _ = partition(micro_dataset, n=MAX_LEN)
        ref, fus = _stisan_pair(micro_dataset)
        losses, grads = [], []
        for model, reference in ((ref, True), (fus, False)):
            rng = np.random.default_rng(0)
            sampler = NearestNegativeSampler(
                micro_dataset, num_negatives=3, pool_size=20, rng=rng
            )
            iterator = BatchIterator(train, batch_size=4, sampler=sampler, rng=rng)
            batch = next(iterator.iter_order(iterator.epoch_order()))
            model.train()
            with _leg(reference):
                pos, neg = model.forward_train(
                    batch.src, batch.times, batch.tgt, batch.negatives
                )
                loss = weighted_bce_loss(pos, neg, batch.target_mask, temperature=1.0)
                loss.backward()
            losses.append(float(loss.data))
            grads.append([p.grad for p in model.parameters()])
        assert losses[1] == losses[0], "model-level fused loss is not bitwise"
        for i, (rg, fg) in enumerate(zip(*grads)):
            if rg is None:
                assert fg is None
                continue
            np.testing.assert_allclose(
                fg, rg, atol=BACKWARD_ATOL, rtol=BACKWARD_RTOL,
                err_msg=f"model parameter {i} gradient diverged",
            )

    def test_kill_and_resume_bitwise_with_fusion(self, micro_dataset, tmp_path):
        """PR-4's headline property survives the fused execution layer:
        crash + resume reproduces the uninterrupted run to the last bit."""
        train, _ = partition(micro_dataset, n=MAX_LEN)
        config = TrainConfig(epochs=1, batch_size=4, num_negatives=3, seed=11)

        def fresh():
            cfg = STiSANConfig.small(
                max_len=MAX_LEN, poi_dim=8, geo_dim=8, num_blocks=1, dropout=0.1,
            )
            return STiSAN(micro_dataset.num_pois, micro_dataset.poi_coords, cfg,
                          rng=np.random.default_rng(5))

        baseline = fresh()
        train_stisan(baseline, micro_dataset, train, config)
        with pytest.raises(SimulatedCrash):
            with fault_injection(seed=0, crash_at_step=2):
                train_stisan(fresh(), micro_dataset, train, config,
                             checkpoint_dir=tmp_path, checkpoint_every=1)
        resumed_model = fresh()
        resumed = train_stisan(resumed_model, micro_dataset, train, config,
                               checkpoint_dir=tmp_path, checkpoint_every=1,
                               resume=True)
        assert resumed.resumed_from_step == 2
        expected, got = baseline.state_dict(), resumed_model.state_dict()
        assert set(expected) == set(got)
        for name in expected:
            assert np.array_equal(expected[name], got[name]), (
                f"parameter {name} diverged across fused kill-and-resume"
            )


@pytest.mark.slow
class TestGoldenBothLegs:
    def test_reference_leg_reproduces_golden(self):
        """The committed golden top-10s predate the fused layer; the
        reference leg must still reproduce them exactly."""
        import json

        from tests.golden.regenerate import GOLDEN_PATH, build_golden

        committed = json.loads(GOLDEN_PATH.read_text())
        with reference_kernels():
            assert fused.fused_causal_attention is reference_causal_attention
            fresh = build_golden()
        for user, expected in committed["users"].items():
            got = fresh["users"][user]
            assert got["pois"] == expected["pois"], (
                f"user {user} ranking drifted on the reference leg"
            )
            np.testing.assert_allclose(
                np.asarray(got["scores"]), np.asarray(expected["scores"]),
                rtol=0.0, atol=1e-6,
            )
