"""Training losses: membrane-approximation term, time-mean cross-entropy, blend.

The membrane term weights the estimate/true mismatch with a learnable
non-negative vector kappa along a configurable axis (per time step by
default), then sums across spiking layers.  The classification term is
cross-entropy applied at every time step and averaged over T.  The two are
blended as (1 - lambda) * L_cls + lambda * L_mem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Var, as_var
from .numerics import Array, Scratch, ShapeMismatchError

KAPPA_AXES = ("time", "neuron")


@dataclass
class MemLossConfig:
    """Kappa's axis and initial value; the term's blend weight is the model's ``lam``."""

    kappa_axis: str = "time"
    kappa_init: float = 1.0

    def __post_init__(self):
        if self.kappa_axis not in KAPPA_AXES:
            raise ValueError(f"kappa_axis must be one of {KAPPA_AXES}")
        if not 0.0 <= self.kappa_init < np.inf:  # NaN fails the test as well
            raise ValueError(f"kappa_init must be finite and >= 0, got {self.kappa_init}")

    def kappa_length(self, T: int, N: int) -> int:
        return T if self.kappa_axis == "time" else N

    def init_kappa(self, T: int, N: int) -> Array:
        return np.full(self.kappa_length(T, N), float(self.kappa_init))


def mem_term(u_hat: Array, u_target: Array, kappa: Array, cfg: MemLossConfig,
             scratch: Scratch):
    """Kappa-weighted MSE between estimated and corrected membrane potential.

    The MSE is a mean over every axis not indexed by kappa, so the magnitude
    is insensitive to batch size and width; kappa then weights and sums.
    Returns the value, ``l2_norm(u_hat - u_target)`` (the square root of the
    summed squares the value is formed from) and ``backward(g)``, which gives
    the gradients of u_hat and kappa for the value's gradient g; u_target's
    is the negation of u_hat's, which the caller reads as such.  Ops and
    their order are those of the elementwise tape of
    ``sum(kappa * mean((u_hat - u_target) * (u_hat - u_target), axes))``
    (the tests keep it as the oracle), the square's gradient d*G formed once
    and added to itself as the tape's two factors were, so value and
    gradients match it bit for bit.  The difference d, its square and u_hat's
    [T, B, N] gradient live in ``scratch``'s arrays.
    """
    if u_hat.shape != u_target.shape:
        raise ShapeMismatchError(
            f"mem_loss: shapes {u_hat.shape} and {u_target.shape} differ"
        )
    T, _, N = shape = u_hat.shape
    expected = cfg.kappa_length(T, N)
    if kappa.shape != (expected,):
        raise ShapeMismatchError(
            f"mem_loss: kappa length {kappa.shape} does not match "
            f"{cfg.kappa_axis} extent {expected}"
        )
    mse_axes = (1, 2) if cfg.kappa_axis == "time" else (0, 1)
    scale = 1.0 / (shape[mse_axes[0]] * shape[mse_axes[1]])
    d = np.subtract(u_hat, u_target, out=scratch("mem.d", shape))
    d2 = np.multiply(d, d, out=scratch("mem.d2", shape))
    per_index = np.sum(d2, axis=mse_axes) * scale
    value = np.sum(kappa * per_index)

    def backward(g):
        weight = np.expand_dims(g * kappa * scale, mse_axes)
        g_u_hat = np.multiply(weight, d, out=scratch("mem.g_u_hat", shape))
        np.add(g_u_hat, g_u_hat, out=g_u_hat)
        return g_u_hat, g * per_index

    return value, float(np.sqrt(np.sum(d2))), backward


def mem_loss(u_hat, u_target, kappa, cfg: MemLossConfig) -> Var:
    """:func:`mem_term` as one tape node with parents (u_hat, u_target, kappa).

    Gradient flows into both arguments: through the estimate directly, and
    through the corrected potential via the reset product's surrogate (a
    frozen target would chase its own tail, since moving the estimate moves
    the corrected value with it).  Training forms the term inside each
    MPE-PSN layer's node instead; the tests compare that node with this one.
    """
    u_hat, u_target, kappa = as_var(u_hat), as_var(u_target), as_var(kappa)
    value, _, term_backward = mem_term(u_hat.value, u_target.value, kappa.value, cfg, Scratch())

    def backward(g):
        g_u_hat, g_kappa = term_backward(g)
        return g_u_hat, -g_u_hat, g_kappa

    return Var(value, parents=(u_hat, u_target, kappa), backward=backward)


def check_labels(y, n: int, name: str, n_classes: int | None = None) -> Array:
    """``y`` as ``n`` int64 class labels, integers >= 0 and below ``n_classes``
    if given, or an error naming it; an integral float such as 1.0 is cast."""
    y = np.asarray(y)
    if y.shape != (n,):
        raise ShapeMismatchError(f"{name} has shape {y.shape}, expected {n} labels, "
                                 f"one per sample")
    hi = np.inf if n_classes is None else n_classes
    ok = np.zeros(n, bool)
    if y.dtype.kind in "biuf":  # NaN fails the first test and Inf the last
        ok = (y == np.round(y)) & (y >= 0) & (y < hi)
    if not ok.all():
        raise ValueError(f"{name} holds {y[~ok][0].item()!r}, "
                         f"not an integer class label in [0, {hi})")
    return y.astype(np.int64)


def cls_loss(logits, labels) -> Var:
    """Cross-entropy at every time step, averaged over T (and the batch)."""
    logits = as_var(logits)
    if logits.value.ndim != 3:
        raise ShapeMismatchError(f"cls_loss: expected [T, B, K] logits, got {logits.shape}")
    T, B, K = logits.shape
    if K < 2:
        raise ValueError(f"cls_loss: need at least 2 classes, got {K}")
    labels = check_labels(labels, B, "cls_loss labels", K)

    z = logits.value
    rows = np.arange(B)
    # the max and the sum over classes as elementwise ops over the K class
    # slices, the sum in index order: numpy's reductions over a short
    # innermost axis cost several times more
    z_max = np.maximum(z[:, :, 0], z[:, :, 1])
    for k in range(2, K):
        np.maximum(z_max, z[:, :, k], out=z_max)
    shifted = z - z_max[:, :, None]
    ez = np.exp(shifted)
    ez_sum = np.add(ez[:, :, 0], ez[:, :, 1])
    for k in range(2, K):
        np.add(ez_sum, ez[:, :, k], out=ez_sum)
    softmax = ez / ez_sum[:, :, None]
    # the log-probability of the labelled class only, each entry formed by
    # the same ops as the full log-softmax's; in place, so picked keeps the
    # layout the fancy index gives it, which sets the summation order of
    # the mean
    picked = shifted[:, rows, labels]
    picked -= np.log(ez_sum)
    value = -picked.mean()

    def backward(g):
        # softmax - onehot: subtracting 0.0 leaves the other entries as they are
        d = softmax.copy()
        d[:, rows, labels] -= 1.0
        return (g * d / (T * B),)

    return Var(value, parents=(logits,), backward=backward)


def total_loss(l_cls, l_mem, lam: float):
    """(1 - lambda) * classification + lambda * membrane approximation."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return l_cls
    if lam == 1.0:
        return l_mem
    return (1.0 - lam) * l_cls + lam * l_mem
