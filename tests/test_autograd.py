import numpy as np
import pytest

from mpepsn import autograd
from mpepsn.autograd import (
    ParamRegistry,
    Var,
    backward,
    finite_diff_check,
    multi_output,
    parameter,
    shift_time,
    surrogate_grad,
    vsum,
)
from mpepsn.numerics import Rng

from elementwise_ops import sigmoid, spike, vmean


def leaf(value):
    return parameter(np.asarray(value, dtype=np.float64))


class TestBasicOps:
    def test_add_mul_values(self):
        x, y = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        np.testing.assert_array_equal((x + y).value, [4.0, 6.0])
        np.testing.assert_array_equal((x * y).value, [3.0, 8.0])
        np.testing.assert_array_equal((x - y).value, [-2.0, -2.0])

    def test_mul_grads(self):
        x, y = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        backward(vsum(x * y))
        np.testing.assert_array_equal(x.grad, y.value)
        np.testing.assert_array_equal(y.grad, x.value)

    def test_scalar_broadcast_grad(self):
        s = leaf(2.0)
        x = leaf([1.0, 2.0, 3.0])
        backward(vsum(s * x))
        assert s.grad == 6.0
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_diamond_accumulates(self):
        x = leaf(3.0)
        backward(x * x)
        assert x.grad == 6.0

    def test_neg_and_rsub(self):
        x = leaf(2.0)
        backward(1.0 - x)
        assert x.grad == -1.0

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            backward(leaf([1.0, 2.0]))


class TestMatmul:
    def test_grads_analytic(self):
        a = parameter(Rng(0).uniform_tensor((3, 4), -1, 1))
        w = parameter(Rng(1).uniform_tensor((4, 2), -1, 1))
        backward(vsum(autograd.matmul(a, w)))
        ones = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, ones @ w.value.T, atol=1e-15)
        np.testing.assert_allclose(w.grad, a.value.T @ ones, atol=1e-15)

    def test_leading_axes(self):
        a = parameter(Rng(2).uniform_tensor((5, 2, 3), -1, 1))
        w = parameter(Rng(3).uniform_tensor((3, 4), -1, 1))
        out = autograd.matmul(a, w)
        assert out.shape == (5, 2, 4)
        backward(vsum(out))
        assert a.grad.shape == a.shape and w.grad.shape == w.shape

    def test_bool_spikes_give_the_float_operand_s_bits(self):
        # a Var keeps bool spikes as they are; the product and the weight
        # gradient read them as 0/1
        o = Rng(7).uniform_tensor((8, 5, 3), -1, 1) > 0.0
        assert Var(o).value.dtype == np.bool_
        assert Var([1, 0]).value.dtype == np.float64
        f = o.astype(np.float64)
        for op in (lambda x: x + x, lambda x: x - 2.0 * x, lambda x: x * x, lambda x: 1.0 - x):
            assert op(Var(o)).value.tobytes() == op(Var(f)).value.tobytes()
        g = Rng(8).uniform_tensor((8, 5, 4), -1, 1)
        results = []
        for a in (o, o.astype(np.float64)):
            w = parameter(Rng(9).uniform_tensor((3, 4), -1, 1))
            out = autograd.matmul(Var(a), w)
            backward(vsum(out * g))
            results.append((out.value.tobytes(), w.grad.tobytes()))
        assert results[0] == results[1]

    def test_constant_input_skips_its_gradient(self):
        x = Rng(4).uniform_tensor((8, 5, 3), -1, 1)
        w0 = Rng(5).uniform_tensor((3, 4), -1, 1)
        g = Rng(6).uniform_tensor((8, 5, 4), -1, 1)
        const_w = parameter(w0)
        out = autograd.matmul(Var(x), const_w)
        ga, _ = out._backward(g)
        assert ga is None
        backward(vsum(out * g))
        learned_w = parameter(w0)
        backward(vsum(autograd.matmul(parameter(x), learned_w) * g))
        np.testing.assert_array_equal(const_w.grad, learned_w.grad)


class TestSigmoid:
    """The elementwise oracle ops of ``elementwise_ops``, which the fused
    nodes are checked against (this class, TestSpike and the vmean cases)."""

    def test_value_and_grad_at_zero(self):
        x = leaf(0.0)
        y = sigmoid(x)
        assert y.value == 0.5
        backward(y)
        assert x.grad == 0.25


class TestSurrogate:
    def test_hand_values(self):
        h = np.array([1.0, 1.5, 0.5, 2.5, -3.0])
        np.testing.assert_array_equal(
            surrogate_grad(h, 1.0, 1.0), [1.0, 0.5, 0.5, 0.0, 0.0]
        )

    def test_peak_scales_with_alpha(self):
        assert surrogate_grad(np.array(1.0), 1.0, 0.5) == 2.0
        assert surrogate_grad(np.array(1.0), 1.0, 2.0) == 0.5

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            surrogate_grad(np.zeros(1), 1.0, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=rf"^alpha must be finite and > 0, got {alpha}$"):
            surrogate_grad(np.zeros(1), 1.0, alpha)


class TestSpike:
    def test_forward_tie_fires(self):
        o = spike(leaf([0.9, 1.0, 1.1]), leaf(1.0), 1.0)
        np.testing.assert_array_equal(o.value, [0.0, 1.0, 1.0])

    def test_backward_surrogate_and_threshold(self):
        h = leaf([0.5, 1.5, 3.0])
        v_th = leaf(1.0)
        c = np.array([2.0, 3.0, 5.0])
        backward(vsum(spike(h, v_th, 1.0) * c))
        expected = c * surrogate_grad(h.value, 1.0, 1.0)
        np.testing.assert_array_equal(h.grad, expected)
        assert v_th.grad == -expected.sum()

    def test_chain_through_product(self):
        # d/dw spike(w*x) at w=1.2, x=1: surrogate(1.2) * x = 0.8
        w = leaf(1.2)
        x = Var(np.asarray(1.0))
        backward(spike(w * x, leaf(1.0), 1.0))
        assert w.grad == 0.8


class TestTimeOps:
    def test_shift_forward(self):
        x = leaf([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(shift_time(x).value, [[0.0], [1.0], [2.0]])

    def test_shift_backward_adjoint(self):
        x = leaf([[1.0], [2.0], [3.0]])
        c = np.array([[10.0], [20.0], [30.0]])
        backward(vsum(shift_time(x) * c))
        np.testing.assert_array_equal(x.grad, [[20.0], [30.0], [0.0]])


class TestMultiOutput:
    def test_each_output_gets_its_own_gradient(self):
        x = leaf([1.0, 2.0])
        received = []

        def grads(g_a, g_b, g_c):
            received.append((g_a, g_b, g_c))
            return (2.0 * g_a + g_b,)

        a, b, c = multi_output((2.0 * x.value, x.value + 1.0, x.value), (x,), grads)
        np.testing.assert_array_equal(b.value, [2.0, 3.0])
        backward(vsum(a * 3.0) + vsum(a) + vsum(b * 5.0))  # two consumers of a, none of c
        (g_a, g_b, g_c), = received
        np.testing.assert_array_equal(g_a, [4.0, 4.0])
        np.testing.assert_array_equal(g_b, [5.0, 5.0])
        assert g_c is None
        np.testing.assert_array_equal(x.grad, [13.0, 13.0])


class TestReductions:
    def test_vsum_axis_grad(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        backward(vsum(vsum(x, axis=1) * np.array([1.0, 10.0])))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0], [10.0, 10.0, 10.0]])

    def test_vmean_value_and_grad(self):
        x = parameter(np.arange(4.0))
        m = vmean(x)
        assert m.value == 1.5
        backward(m)
        np.testing.assert_array_equal(x.grad, np.full(4, 0.25))

    def test_vmean_multi_axis(self):
        x = parameter(np.ones((4, 2, 3)))
        m = vmean(x, axis=(1, 2))
        assert m.shape == (4,)
        backward(vsum(m))
        np.testing.assert_array_equal(x.grad, np.full((4, 2, 3), 1.0 / 6.0))


class TestRegistry:
    def test_duplicate_rejected(self):
        reg = ParamRegistry()
        reg.register("w", leaf(0.0))
        with pytest.raises(ValueError):
            reg.register("w", leaf(1.0))

    def test_step_without_grads_rejected(self):
        reg = ParamRegistry()
        reg.register("w", leaf(0.0))
        with pytest.raises(RuntimeError):
            reg.sgd_step(0.1)

    def test_plain_sgd(self):
        reg = ParamRegistry()
        w = reg.register("w", leaf([1.0, 2.0]))
        w.grad = np.array([0.5, -0.5])
        reg.sgd_step(0.1)
        np.testing.assert_array_equal(w.value, [0.95, 2.05])
        assert w.grad is None

    def test_momentum_hand_recursion(self):
        # buf_1 = 1, buf_2 = 0.9 * 1 + 1 = 1.9; p = -0.1 then -0.29
        reg = ParamRegistry()
        p = reg.register("p", leaf(0.0))
        p.grad = np.asarray(1.0)
        reg.sgd_step(0.1, momentum=0.9)
        assert p.value == pytest.approx(-0.1)
        p.grad = np.asarray(1.0)
        reg.sgd_step(0.1, momentum=0.9)
        assert p.value == pytest.approx(-0.29)

    def test_clamp_min(self):
        reg = ParamRegistry()
        k = reg.register("k", leaf([0.05, 1.0]), clamp_min=0.0)
        k.grad = np.array([1.0, 1.0])
        reg.sgd_step(0.1)
        np.testing.assert_array_equal(k.value, [0.0, 0.9])


class TestFiniteDiff:
    def test_smooth_graph(self):
        w = parameter(Rng(6).uniform_tensor((4, 3), -0.5, 0.5), name="w")
        x = Rng(7).uniform_tensor((5, 4), -1, 1)
        target = Rng(8).uniform_tensor((5, 3), -1, 1)

        def fn():
            d = sigmoid(autograd.matmul(Var(x), w)) - target
            return vmean(d * d)

        max_rel, skipped = finite_diff_check(fn, [w])
        assert max_rel < 1e-4
        assert skipped == []

    def test_tiny_derivative_of_a_loss_near_1(self):
        # d/dw (1 + c w) = c.  At c = 5e-8 the difference at step 1e-5
        # resolves c only to about 1e-11, and judged against c itself it
        # read rel 1.3e-4; the floor scaled with the loss takes that
        # rounding as noise.  A gradient 0.1% off at c = 1e-3, well above
        # the floor, still fails.
        w = parameter(np.array([1.0]), name="w")

        def fn(c, slope):
            cw = Var(w.value * c, parents=(w,), backward=lambda g: (g * slope,))
            return vsum(Var(np.asarray(1.0)) + cw)

        max_rel, skipped = finite_diff_check(lambda: fn(5e-8, 5e-8), [w])
        assert max_rel < 1e-4 and skipped == []
        max_rel, _ = finite_diff_check(lambda: fn(1e-3, 1.001e-3), [w])
        assert max_rel > 1e-4

    def test_crossing_skipped(self):
        p = parameter(np.array([1.0]), name="p")

        def fn():
            return vsum(spike(p, Var(np.asarray(1.0)), 1.0))

        _, skipped = finite_diff_check(fn, [p])
        assert ("p", 0) in skipped
