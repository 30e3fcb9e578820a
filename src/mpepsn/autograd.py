"""Reverse-mode tape with surrogate gradients for spike nonlinearities.

A ``Var`` wraps a float64 array (or a bool array of spikes, which every
consumer reads as 0/1; the arithmetic ops give float64) and remembers how
it was computed; calling :func:`backward` on a scalar ``Var`` walks the
tape in reverse topological order and accumulates gradients into the
leaves.  The ops are the few that
training composes (add, mul, matmul, time shift), and sub and sum,
which only ``verify`` and the tests' oracles use; there is no elementwise
spike or sigmoid node.  A whole neuron layer is one node with several
outputs and a closed-form backward, built with :func:`multi_output`, that
differentiates its spikes through the triangular :func:`surrogate_grad`
and reports them to :func:`log_spikes`.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .numerics import Array


class Var:
    """Node in the computation tape."""

    __slots__ = ("value", "grad", "parents", "_backward", "requires_grad", "name")

    def __init__(self, value, parents=(), backward=None, requires_grad=False, name=""):
        is_bool = isinstance(value, np.ndarray) and value.dtype == np.bool_
        self.value = value if is_bool else np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_var(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def parameter(value, name="") -> Var:
    return Var(value, requires_grad=True, name=name)


def unbroadcast(grad: Array, shape) -> Array:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        np.add(a.value, b.value, dtype=np.float64),  # bool spikes add as 0/1
        parents=(a, b),
        backward=lambda g: (unbroadcast(g, a.shape), unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        np.subtract(a.value, b.value, dtype=np.float64),
        parents=(a, b),
        backward=lambda g: (unbroadcast(g, a.shape), unbroadcast(-g, b.shape)),
    )


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        np.multiply(a.value, b.value, dtype=np.float64),
        parents=(a, b),
        backward=lambda g: (
            unbroadcast(g * b.value, a.shape),
            unbroadcast(g * a.value, b.shape),
        ),
    )


def matmul(a: Var, w: Var) -> Var:
    """Product of [..., K] with [K, P]; ``numerics.matmul`` forward and backward.

    No input gradient is computed for an ``a`` that needs none (the spike
    data entering the first layer).
    """
    a, w = as_var(a), as_var(w)
    value = numerics.matmul(a.value, w.value)

    def backward(g: Array):
        g2 = g.reshape(-1, g.shape[-1])
        a2 = a.value.reshape(-1, a.value.shape[-1])
        ga = numerics.matmul(g2, w.value.T).reshape(a.shape) if a.requires_grad else None
        gw = numerics.matmul(a2.T, g2)
        return ga, gw

    return Var(value, parents=(a, w), backward=backward)


def surrogate_grad(h, v_th: float, alpha: float, out: Array | None = None) -> Array:
    """Triangular surrogate for the spike derivative.

    (1/alpha^2) * max(0, alpha - |h - v_th|): peak 1/alpha at threshold,
    support (v_th - alpha, v_th + alpha), evaluated at the pre-spike
    membrane h (post-reset u would zero out every fired position).  Written
    into ``out`` when given, else into a fresh array.
    """
    if not 0.0 < alpha < np.inf:  # NaN fails the test as well
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    h = np.asarray(h, dtype=np.float64)
    out = np.empty_like(h) if out is None else out
    np.subtract(h, v_th, out=out)
    np.abs(out, out=out)
    np.subtract(alpha, out, out=out)
    np.maximum(0.0, out, out=out)
    if alpha * alpha != 1.0:  # x / 1.0 is x
        np.divide(out, alpha * alpha, out=out)
    return out


_spike_log: list[Array] | None = None


class spike_logging:
    """Context that records every spike-node output (finite-diff bookkeeping)."""

    def __enter__(self):
        global _spike_log
        _spike_log = []
        return _spike_log

    def __exit__(self, *exc):
        global _spike_log
        _spike_log = None


def log_spikes(*spikes: Array) -> None:
    """Record spike (or draw) outputs while a :class:`spike_logging` is open."""
    if _spike_log is not None:
        _spike_log.extend(spikes)


def shift_time(x: Var) -> Var:
    """Delay one step along the leading (time) axis, zero-filled at t = 0."""
    x = as_var(x)
    value = np.zeros_like(x.value)
    value[1:] = x.value[:-1]

    def backward(g: Array):
        gx = np.zeros_like(g)
        gx[:-1] = g[1:]
        return (gx,)

    return Var(value, parents=(x,), backward=backward)


def add_grads(a, b):
    """Sum of two gradient terms, where None stands for no term."""
    return b if a is None else a if b is None else a + b


class _OutputGrads(tuple):
    """Gradients of a multi-output node, one slot per output (None if absent)."""

    def __add__(self, other):
        return _OutputGrads(add_grads(a, b) for a, b in zip(self, other))


def multi_output(values, parents, grad_fn) -> tuple[Var, ...]:
    """One tape node with several outputs, handed out as one Var each.

    ``grad_fn(*grads)`` receives each output's total gradient (None for an
    output that received none) and returns one gradient per parent, in
    order, like the backward of a single-output node.
    """
    node = Var(np.empty(0), parents, backward=lambda grads: grad_fn(*grads))
    n = len(values)

    def view(k: int, value) -> Var:
        def backward_view(g: Array):
            return (_OutputGrads(g if j == k else None for j in range(n)),)

        return Var(value, parents=(node,), backward=backward_view)

    return tuple(view(k, value) for k, value in enumerate(values))


def vsum(x, axis=None) -> Var:
    x = as_var(x)
    value = np.sum(x.value, axis=axis)

    def backward(g: Array):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(np.float64),)
        gx = np.expand_dims(g, axis)
        return (np.broadcast_to(gx, x.shape).astype(np.float64),)

    return Var(value, parents=(x,), backward=backward)


def backward(loss: Var) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    Traversal is reverse topological order with a fixed child ordering, so
    accumulation order (and hence the bits of the result) is deterministic.
    """
    loss = as_var(loss)
    if loss.value.ndim != 0:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")

    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    grads: dict[int, Array] = {id(loss): np.asarray(1.0)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for p, pg in zip(node.parents, node._backward(g)):
            if p.requires_grad and pg is not None:
                grads[id(p)] = add_grads(grads.get(id(p)), pg)


class ParamRegistry:
    """Named learnable tensors with gradients and momentum buffers."""

    def __init__(self):
        self._params: dict[str, Var] = {}
        self._momentum: dict[str, Array] = {}
        self._clamp_min: dict[str, float] = {}

    def register(self, name: str, var: Var, clamp_min: float | None = None) -> Var:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice")
        var.requires_grad = True
        var.name = name
        self._params[name] = var
        if clamp_min is not None:
            self._clamp_min[name] = clamp_min
        return var

    def __getitem__(self, name: str) -> Var:
        return self._params[name]

    def names(self):
        return list(self._params)

    def sgd_step(self, lr: float, momentum: float = 0.0) -> None:
        """p <- p - lr * buffered grad; zero grads; clamp where configured."""
        if all(p.grad is None for p in self._params.values()):
            raise RuntimeError("sgd_step before backward: no gradients populated")
        for name, p in self._params.items():
            if p.grad is None:
                continue
            g = np.asarray(p.grad, dtype=np.float64).reshape(p.value.shape)
            if momentum != 0.0:
                buf = self._momentum.get(name)
                buf = g.copy() if buf is None else momentum * buf + g
                self._momentum[name] = buf
                g = buf
            p.value = p.value - lr * g
            if name in self._clamp_min:
                p.value = np.maximum(p.value, self._clamp_min[name])
            p.grad = None


# A central difference at step h of a loss f resolves a derivative only to
# about eps * |f| / h, the rounding of f(w +- h).  finite_diff_check judges a
# coordinate relative to no less than FD_FLOOR_RESOLUTIONS such units (nor
# than 1e-8), so that this rounding alone reads a relative error of about
# 1e-5 at most.  Over verify's gradient graphs of seeds 0-39 the difference
# of a derivative below 1e-5 was never off by more than half a unit.
FD_FLOOR_RESOLUTIONS = 1e5


def finite_diff_check(fn, params, step: float = 1e-5):
    """Compare tape gradients of ``fn()`` against central finite differences.

    ``fn`` rebuilds the graph from the current parameter values and returns a
    scalar Var.  Coordinates where a perturbation flips any spike output are
    skipped (the loss is discontinuous there) and reported.  A coordinate's
    relative error is |fd - g| / max(|fd|, |g|, floor), the floor scaled
    with the loss (:data:`FD_FLOOR_RESOLUTIONS`).

    Returns (max relative error, list of skipped (param, flat index)).
    """
    params = list(params)
    loss = fn()
    resolution = np.finfo(np.float64).eps * abs(float(loss.value)) / step
    floor = max(FD_FLOOR_RESOLUTIONS * resolution, 1e-8)
    for p in params:
        p.grad = None
    backward(loss)
    tape_grads = [
        np.zeros_like(p.value) if p.grad is None else np.array(p.grad, dtype=np.float64)
        for p in params
    ]

    max_rel = 0.0
    skipped: list[tuple[str, int]] = []
    for pi, p in enumerate(params):
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            with spike_logging() as log_plus:
                f_plus = float(fn().value)
                log_plus = [o.copy() for o in log_plus]
            flat[i] = orig - step
            with spike_logging() as log_minus:
                f_minus = float(fn().value)
                log_minus = [o.copy() for o in log_minus]
            flat[i] = orig
            if len(log_plus) != len(log_minus) or any(
                not np.array_equal(a, b) for a, b in zip(log_plus, log_minus)
            ):
                skipped.append((p.name or f"param{pi}", i))
                continue
            fd = (f_plus - f_minus) / (2.0 * step)
            g = float(tape_grads[pi].reshape(-1)[i])
            denom = max(abs(fd), abs(g), floor)
            max_rel = max(max_rel, abs(fd - g) / denom)
    return max_rel, skipped
