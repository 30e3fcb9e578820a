"""Spiking neuron dynamics: sequential LIF oracle and the parallel estimator.

The sequential path is the ground truth: a hard-reset LIF recurrence that
must walk time step by step.  The parallel path replaces the unavailable
membrane history with a Bernoulli estimate derived from the input current,
which makes every time step computable at once; step 0 needs no history and
is always exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sigmoid is bound by name: _estimate runs on pool threads, which must not
# enter a wrapper put on the numerics.sigmoid attribute (as a tracer does)
from .numerics import Array, Rng, Scratch, ShapeMismatchError, WorkerPool, map_ranges, sigmoid

MODES = ("sampled", "expectation")


@dataclass
class NeuronParams:
    """Per-layer neuron constants; v_th is the learnable one."""

    tau_m: float = 0.25
    v_th: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tau_m <= 1.0:
            raise ValueError(f"tau_m must lie in (0, 1], got {self.tau_m}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass
class ParallelTrace:
    """All intermediates of one parallel forward pass, shape [T, B, N] each."""

    I: Array
    P: Array
    b: Array
    u_hat: Array
    h: Array
    u: Array
    o: Array

    def __iter__(self):
        return iter((self.I, self.P, self.b, self.u_hat, self.h, self.u, self.o))


def heaviside(h, v_th: float) -> Array:
    """Spike indicator: 1.0 where h >= v_th, else 0.0 (ties fire)."""
    return (np.asarray(h, dtype=np.float64) >= v_th).astype(np.float64)


def _check_3d(I: Array) -> Array:
    I = np.asarray(I, dtype=np.float64)
    if I.ndim != 3:
        raise ShapeMismatchError(f"expected [T, B, N] input, got shape {I.shape}")
    if I.shape[0] < 1:
        raise ValueError("need at least one time step")
    return I


def _estimate(I: Array, P: Array, b: Array, u_hat: Array, uniforms: Array | None) -> None:
    """Write P = sigmoid(I) and u_hat = (1 - b) * I, in this op order.

    ``b`` is drawn as ``uniforms < P``; with ``uniforms`` None it must be P
    itself (expectation mode).  The buffers may alias one another, since
    each op reads only what the previous one wrote.
    """
    sigmoid(I, out=P)
    if uniforms is not None:
        np.less(uniforms, P, out=b)
    np.subtract(1.0, b, out=u_hat)
    np.multiply(u_hat, I, out=u_hat)


def _update(u_hist: Array | None, I: Array, params: NeuronParams, h: Array, o: Array,
            u: Array | None = None) -> None:
    """Write h = u_hist * tau_m + I, o = (h >= v_th) and u = (1 - o) * h, in
    this op order.

    ``u_hist`` None is the zero history of step 0; ``u`` None skips the
    reset, for a pass that keeps only spikes.  The MPE-PSN passes and
    :func:`teacher_forced_forward` call this one function, so they fire on
    the same bits of h; :func:`lif_sequential` keeps its own arithmetic, as
    the independent oracle they are checked against.
    """
    if u_hist is None:
        h[...] = 0.0
    else:
        np.multiply(u_hist, params.tau_m, out=h)
    np.add(h, I, out=h)
    np.greater_equal(h, params.v_th, out=o)
    if u is not None:
        np.subtract(1.0, o, out=u)
        np.multiply(u, h, out=u)


def lif_sequential(I, params: NeuronParams) -> tuple[Array, Array]:
    """Ground-truth hard-reset LIF recurrence, O(T) along time.

    u_t = (tau_m * u_{t-1} + I_t) * (1 - spike_t), with u_{-1} = 0 and
    spike_t = heaviside(tau_m * u_{t-1} + I_t, v_th).
    """
    I = _check_3d(I)
    T = I.shape[0]
    u = np.empty_like(I)
    o = np.empty_like(I)
    u_prev = np.zeros(I.shape[1:], dtype=np.float64)
    for t in range(T):
        h = params.tau_m * u_prev + I[t]
        o[t] = heaviside(h, params.v_th)
        u[t] = h * (1.0 - o[t])
        u_prev = u[t]
    return u, o


def shift_time(x: Array) -> Array:
    """Delay by one step along T: out[0] = 0, out[t] = x[t-1]."""
    out = np.zeros_like(x)
    out[1:] = x[:-1]
    return out


def mpe_psn_forward(
    I,
    params: NeuronParams,
    mode: str = "sampled",
    rng: Rng | None = None,
    pool: WorkerPool | None = None,
    *,
    scratch: Scratch | None = None,
) -> ParallelTrace:
    """Parallel forward pass over all T time steps at once.

    Spike probability P = sigmoid(I); the estimate is u_hat = (1 - b) * I,
    where b is a Bernoulli(P) draw (an estimated spike resets the potential
    to zero); expectation mode substitutes b := P for a deterministic,
    seed-free path.  The estimate for step t-1 feeds step t; step 0 consumes
    no history (zero), so its output coincides with the sequential oracle
    exactly.  Work is split into flat index ranges over ``pool`` (one range
    without a pool); every range does the same elementwise arithmetic, so
    the result is bit-identical for any worker count.  The six arrays it
    writes come from ``scratch`` when given (training reuses them from one
    epoch to the next), else they are fresh.
    """
    I = _check_3d(I)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "sampled" and rng is None:
        raise ValueError("sampled mode requires an Rng")
    n = I.size
    flat_I = I.reshape(-1)
    scratch = Scratch() if scratch is None else scratch
    P, u_hat, h, u, o = (scratch(name, (n,)) for name in ("P", "u_hat", "h", "u", "o"))
    b = scratch("b", (n,)) if mode == "sampled" else P
    uniforms = rng.uniforms(n, pool) if mode == "sampled" else None

    def estimate_range(lo: int, hi: int) -> None:
        sl = slice(lo, hi)
        _estimate(flat_I[sl], P[sl], b[sl], u_hat[sl],
                  None if uniforms is None else uniforms[sl])

    map_ranges(pool, n, estimate_range)

    stride = I.shape[1] * I.shape[2]

    def update_range(lo: int, hi: int) -> None:
        # row t >= 1 reads u_hat[t-1], one stride back; row 0 has a zero history
        mid = min(max(lo, stride), hi)
        if lo < mid:
            _update(None, flat_I[lo:mid], params, h[lo:mid], o[lo:mid], u[lo:mid])
        if mid < hi:
            _update(u_hat[mid - stride:hi - stride], flat_I[mid:hi], params,
                    h[mid:hi], o[mid:hi], u[mid:hi])

    map_ranges(pool, n, update_range)
    shape = I.shape
    return ParallelTrace(
        I=I,
        P=P.reshape(shape),
        b=b.reshape(shape),
        u_hat=u_hat.reshape(shape),
        h=h.reshape(shape),
        u=u.reshape(shape),
        o=o.reshape(shape),
    )


def mpe_psn_spikes(I, params: NeuronParams, pool: WorkerPool | None = None) -> Array:
    """The spikes o of ``mpe_psn_forward(I, params, "expectation")``, and nothing else.

    The inference pass: it walks time one row at a time and keeps one row
    of estimate history, so it writes o and two row buffers instead of six
    [T, B, N] arrays, and it never forms the estimate of the last row,
    which nothing reads.  It runs the same estimate and update helpers as
    :func:`mpe_psn_forward`, so o is bit-identical to that pass's.  Each of
    the B * N columns depends only on its own earlier rows, so ``pool``
    splits the columns into ranges (one range without a pool), each walking
    all T rows with row buffers of its own; o is bit-identical for any
    worker count.
    """
    I = _check_3d(I)
    shape, T = I.shape, I.shape[0]
    I = I.reshape(T, -1)
    o = np.empty_like(I)

    def column_range(lo: int, hi: int) -> None:
        u_hat, h = np.empty(hi - lo), np.empty(hi - lo)
        for t in range(T):
            _update(u_hat if t else None, I[t, lo:hi], params, h, o[t, lo:hi])
            if t + 1 < T:
                _estimate(I[t, lo:hi], u_hat, u_hat, u_hat, None)

    map_ranges(pool, I.shape[1], column_range)
    return o.reshape(shape)


def teacher_forced_forward(I, u_true, params: NeuronParams) -> tuple[Array, Array]:
    """Parallel update fed with the exact membrane history instead of the estimate.

    With the true history substituted, the parallel update reproduces the
    sequential oracle exactly at every time step; this isolates the error
    contributed by the estimator alone.
    """
    I = _check_3d(I)
    u_true = np.asarray(u_true, dtype=np.float64)
    if u_true.shape != I.shape:
        raise ShapeMismatchError(
            f"oracle membrane shape {u_true.shape} does not match input {I.shape}"
        )
    h, u, o = np.empty_like(I), np.empty_like(I), np.empty_like(I)
    _update(shift_time(u_true), I, params, h, o, u)
    return u, o
