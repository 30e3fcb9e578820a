"""Elementwise tape ops kept as oracles for the fused nodes.

The package builds each spiking layer and the membrane loss as one tape
node with a closed-form backward.  The tests check those nodes against the
same forward composed from these single-purpose ops, so the ops live here,
beside the tests, and not in the package.
"""

import numpy as np

from mpepsn.autograd import Var, as_var, log_spikes, mul, surrogate_grad, unbroadcast, vsum


def sigmoid(x) -> Var:
    x = as_var(x)
    # the expression numerics.sigmoid forms, op for op
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.value))
    return Var(y, parents=(x,), backward=lambda g: (g * y * (1.0 - y),))


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
