"""Elementwise ops kept as oracles for the fused nodes and kernels.

The package builds each spiking layer and the membrane loss as one tape
node with a closed-form backward.  The tests check those nodes against the
same forward composed from these single-purpose ops, so the ops live here,
beside the tests, and not in the package.  The same holds for the LIF
recurrence: the package walks it in place over column tiles, and the tests
check it against the plain loop that forms fresh arrays at every step.
"""

import numpy as np

from mpepsn.autograd import Var, as_var, log_spikes, mul, surrogate_grad, unbroadcast, vsum


def lif_sequential(I, params):
    """u (float64) and o (bool) of the hard-reset LIF recurrence, one fresh
    [B, N] array per op and step, in the order ``neuron.lif_sequential``
    applies the ops."""
    u, o = np.empty_like(I), np.empty(I.shape, bool)
    u_prev = np.zeros(I.shape[1:])
    for t in range(I.shape[0]):
        h = params.tau_m * u_prev + I[t]
        o[t] = h >= params.v_th
        u[t] = h * (1.0 - o[t])
        u_prev = u[t]
    return u, o


def sigmoid(x) -> Var:
    x = as_var(x)
    # the expression numerics.sigmoid forms, op for op
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.value))
    return Var(y, parents=(x,), backward=lambda g: (g * y * (1.0 - y),))


def expectation_estimate(x) -> Var:
    """u_hat = (1 - sigmoid(x)) * x: its value formed as the parallel pass
    forms it, x / (1 + exp(x)), and its gradient by the tape of the
    elementwise ops (1 - sigmoid(x)) * x, to which it passes its own
    gradient unchanged."""
    x = as_var(x)
    composed = (1.0 - sigmoid(x)) * x
    with np.errstate(over="ignore"):
        value = x.value / (1.0 + np.exp(x.value))
    return Var(value, parents=(composed,), backward=lambda g: (g,))


def spike(h, v_th, alpha: float) -> Var:
    """Heaviside(h - v_th) forward; triangular surrogate backward.

    v_th receives the negated surrogate-weighted gradient (the spike argument
    is h - v_th).  The output is logged for ``autograd.finite_diff_check``.
    """
    h, v_th = as_var(h), as_var(v_th)
    o = (h.value >= v_th.value).astype(np.float64)
    log_spikes(o)

    def backward(g):
        sg = surrogate_grad(h.value, float(v_th.value), alpha)
        weighted = g * sg
        return weighted, unbroadcast(-weighted, v_th.shape)

    return Var(o, parents=(h, v_th), backward=backward)


def vmean(x, axis=None) -> Var:
    x = as_var(x)
    if axis is None:
        count = x.value.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([x.shape[a] for a in axes]))
    return mul(vsum(x, axis), 1.0 / count)
