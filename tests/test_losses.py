import math

import numpy as np
import pytest

from mpepsn import autograd
from mpepsn.autograd import Var, backward, finite_diff_check, parameter
from mpepsn.losses import MemLossConfig, cls_loss, mem_loss, mem_term, total_loss
from mpepsn.numerics import Rng, Scratch, ShapeMismatchError, l2_norm

from elementwise_ops import vmean


class TestConfig:
    def test_defaults(self):
        cfg = MemLossConfig()
        assert (cfg.kappa_axis, cfg.kappa_init) == ("time", 1.0)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            MemLossConfig(kappa_axis="batch")

    @pytest.mark.parametrize("kappa_init", [-1.0, np.nan, np.inf])
    def test_kappa_init_finite_and_non_negative(self, kappa_init):
        with pytest.raises(ValueError, match=r"^kappa_init must be finite and >= 0"):
            MemLossConfig(kappa_init=kappa_init)
        assert MemLossConfig(kappa_init=0.0).kappa_init == 0.0

    def test_kappa_length(self):
        assert MemLossConfig(kappa_axis="time").kappa_length(8, 16) == 8
        assert MemLossConfig(kappa_axis="neuron").kappa_length(8, 16) == 16

    def test_init_kappa(self):
        np.testing.assert_array_equal(
            MemLossConfig(kappa_init=0.5).init_kappa(3, 9), [0.5, 0.5, 0.5]
        )


class TestMemLoss:
    def test_zero_at_identity(self):
        cfg = MemLossConfig()
        x = Rng(0).uniform_tensor((4, 2, 3), -1, 1)
        loss = mem_loss(x, x.copy(), cfg.init_kappa(4, 3), cfg)
        assert loss.value == 0.0

    def test_hand_value_time_axis(self):
        # per-step MSE over (B, N) is [1, 9]; kappa [2, 0] picks 2 * 1
        cfg = MemLossConfig()
        u_hat = np.array([[[1.0]], [[3.0]]])
        u = np.zeros((2, 1, 1))
        loss = mem_loss(u_hat, u, np.array([2.0, 0.0]), cfg)
        assert loss.value == 2.0

    def test_neuron_axis(self):
        cfg = MemLossConfig(kappa_axis="neuron")
        u_hat = np.zeros((2, 1, 3))
        u_hat[..., 1] = 2.0
        loss = mem_loss(u_hat, np.zeros_like(u_hat), np.array([1.0, 1.0, 1.0]), cfg)
        assert loss.value == 4.0

    def test_gradient_flows_into_both_arguments(self):
        cfg = MemLossConfig()
        u_hat = parameter(Rng(1).uniform_tensor((3, 2, 4), -1, 1))
        u = parameter(Rng(2).uniform_tensor((3, 2, 4), -1, 1))
        kappa = cfg.init_kappa(3, 4)
        backward(mem_loss(u_hat, u, kappa, cfg))
        d = u_hat.value - u.value
        expected = 2.0 * d / 8.0
        np.testing.assert_allclose(u_hat.grad, expected, atol=1e-15)
        np.testing.assert_allclose(u.grad, -expected, atol=1e-15)

    def test_kappa_gradient_is_per_step_mse(self):
        cfg = MemLossConfig()
        kappa = parameter(cfg.init_kappa(2, 1))
        u_hat = Var(np.array([[[1.0]], [[3.0]]]))
        backward(mem_loss(u_hat, np.zeros((2, 1, 1)), kappa, cfg))
        np.testing.assert_array_equal(kappa.grad, [1.0, 9.0])

    @staticmethod
    def elementwise_mem_loss(u_hat, u, kappa, cfg):
        """The elementwise tape that the fused node replaces."""
        d = u_hat - u
        axes = (1, 2) if cfg.kappa_axis == "time" else (0, 1)
        return autograd.vsum(kappa * vmean(d * d, axis=axes))

    @pytest.mark.parametrize("axis", ["time", "neuron"])
    @pytest.mark.parametrize("lam", [0.01, 1.0])
    def test_fused_node_matches_elementwise_tape(self, axis, lam):
        """Value and every gradient bit for bit, behind the blend that training uses."""
        cfg = MemLossConfig(kappa_axis=axis)
        r = Rng(31)
        start = [r.spawn(k).uniform_tensor((5, 3, 4), -2, 2) for k in range(2)]
        start.append(r.spawn(2).uniform_tensor((cfg.kappa_length(5, 4),), 0, 2))

        def run(loss_fn):
            u_hat, u, kappa = (parameter(value.copy()) for value in start)
            loss = loss_fn(u_hat, u, kappa, cfg)
            backward(total_loss(Var(np.asarray(0.5)), loss, lam))
            return [loss.value, u_hat.grad, u.grad, kappa.grad]

        for fused, tape in zip(run(mem_loss), run(self.elementwise_mem_loss)):
            assert np.asarray(fused).tobytes() == np.asarray(tape).tobytes()

    def test_norm_is_formed_from_the_loss_square(self):
        """``mem_term``'s norm is ``l2_norm(u_hat - u)`` to the bit: the
        square root of the sum of the squares the loss is formed from."""
        cfg = MemLossConfig()
        r = Rng(33)
        u_hat, u = (r.spawn(k).uniform_tensor((3, 2, 4), -1, 1) for k in range(2))
        _, l2, _ = mem_term(u_hat, u, cfg.init_kappa(3, 4), cfg, Scratch())
        assert np.float64(l2).tobytes() == np.float64(l2_norm(u_hat - u)).tobytes()
        assert l2 > 0.0

    @pytest.mark.parametrize("axis", ["time", "neuron"])
    def test_fused_node_matches_finite_differences(self, axis):
        cfg = MemLossConfig(kappa_axis=axis)
        r = Rng(32)
        u_hat = parameter(r.spawn(0).uniform_tensor((3, 2, 4), -1, 1), name="u_hat")
        u = parameter(r.spawn(1).uniform_tensor((3, 2, 4), -1, 1), name="u")
        kappa = parameter(r.spawn(2).uniform_tensor((cfg.kappa_length(3, 4),), 0, 2), name="kappa")
        rel, skipped = finite_diff_check(lambda: mem_loss(u_hat, u, kappa, cfg), [u_hat, u, kappa])
        assert rel < 1e-6 and skipped == []

    def test_shape_mismatch_rejected(self):
        cfg = MemLossConfig()
        with pytest.raises(ShapeMismatchError):
            mem_loss(np.zeros((2, 1, 3)), np.zeros((2, 1, 4)), np.ones(2), cfg)

    def test_kappa_length_mismatch_rejected(self):
        cfg = MemLossConfig()
        with pytest.raises(ShapeMismatchError):
            mem_loss(np.zeros((2, 1, 3)), np.zeros((2, 1, 3)), np.ones(3), cfg)


class TestClsLoss:
    def test_uniform_logits_give_ln_k(self):
        loss = cls_loss(np.zeros((4, 2, 3)), np.array([0, 2]))
        assert loss.value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((2, 2, 2))
        logits[:, 0, 0] = 50.0
        logits[:, 1, 1] = 50.0
        assert cls_loss(logits, np.array([0, 1])).value < 1e-15

    def test_gradient(self):
        logits = parameter(Rng(3).uniform_tensor((3, 2, 4), -1, 1))
        labels = np.array([1, 3])
        backward(cls_loss(logits, labels))
        z = logits.value
        ez = np.exp(z - z.max(axis=2, keepdims=True))
        softmax = ez / ez.sum(axis=2, keepdims=True)
        onehot = np.zeros_like(z)
        onehot[:, np.arange(2), labels] = 1.0
        np.testing.assert_allclose(logits.grad, (softmax - onehot) / 6.0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("K", [2, 3])
    def test_matches_full_log_softmax_bit_for_bit(self, scale, seed, K):
        # the formulation that forms every class's log-probability and
        # subtracts a one-hot array, kept here as the reference
        z = Rng(seed).uniform_tensor((8, 205, K), -3.0, 3.0) * scale
        labels = (Rng(seed, stream=1).uniforms(205) * K).astype(np.int64)
        T, B, _ = z.shape
        zmax = z.max(axis=2, keepdims=True)
        ez = np.exp(z - zmax)
        softmax = ez / ez.sum(axis=2, keepdims=True)
        log_probs = (z - zmax) - np.log(ez.sum(axis=2, keepdims=True))
        onehot = np.zeros_like(z)
        onehot[:, np.arange(B), labels] = 1.0
        for g in (1.0, 0.99):
            logits = parameter(z.copy())
            loss = cls_loss(logits, labels)
            backward(loss * g)
            assert loss.value == -log_probs[:, np.arange(B), labels].mean()
            assert np.array_equal(logits.grad, g * (softmax - onehot) / (T * B))

    def test_extreme_logits_finite(self):
        logits = np.full((2, 1, 3), 1e4)
        logits[:, 0, 0] = -1e4
        assert np.isfinite(cls_loss(logits, np.array([1])).value)

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            cls_loss(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            cls_loss(np.zeros((2, 1, 1)), np.array([0]))
        with pytest.raises(ValueError, match=r"cls_loss labels holds 3, not an integer class "
                                             r"label in \[0, 3\)"):
            cls_loss(np.zeros((2, 1, 3)), np.array([3]))
        with pytest.raises(ValueError, match="cls_loss labels holds 0.5, not an integer"):
            cls_loss(np.zeros((2, 1, 3)), np.array([0.5]))
        with pytest.raises(ShapeMismatchError, match=r"cls_loss labels has shape \(1,\), "
                                                     r"expected 2 labels"):
            cls_loss(np.zeros((2, 2, 3)), np.array([0]))


class TestTotalLoss:
    def test_endpoints_exact(self):
        l_cls, l_mem = Var(np.asarray(0.7)), Var(np.asarray(0.3))
        assert total_loss(l_cls, l_mem, 0.0) is l_cls
        assert total_loss(l_cls, l_mem, 1.0) is l_mem

    def test_blend(self):
        l = total_loss(Var(np.asarray(1.0)), Var(np.asarray(3.0)), 0.25)
        assert l.value == pytest.approx(1.5)

    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            total_loss(Var(np.asarray(1.0)), Var(np.asarray(1.0)), 1.1)
