"""Spiking neuron dynamics: sequential LIF oracle and the parallel estimator.

The sequential path is the ground truth: a hard-reset LIF recurrence that
must walk time step by step.  It walks each column tile of the [T, B*N]
view through time in place, so it allocates nothing per step, and it keeps
its own arithmetic; the LIF tape node runs the same recurrence and keeps
the pre-reset potential for its backward.  The parallel path replaces the
unavailable membrane history with a Bernoulli estimate derived from the
input current, which makes every time step computable at once; step 0
needs no history and is always exact.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import Array, Rng, Scratch, ShapeMismatchError, WorkerPool, empty, map_ranges

MODES = ("sampled", "expectation")
# Columns of one tile of the LIF recurrence: a 512 KB float64 row, so a
# tile's rows of h, I, u and o fit in L2 together.
LIF_TILE_COLUMNS = 1 << 16
# RNG chunks in one block of the MPE-PSN pass: 2^16 values, a 512 KB float64
# block, so a block's u_hat stays in L2 from its estimate to the update that
# reads it.  Passes that write b, h and o at (32, 1, 2^18) on 2 workers of a
# 2-vCPU VM, medians of ten in three rounds: blocks of 1, 2, 4 and 8 chunks
# took 62-75, 45-49, 39-42 and 38-40 ms sampled, and 39-40, 29-31, 26-27 and
# 26 ms in expectation mode.  One chunk is too short a call: the GIL changes
# hands around each op.
MPE_BLOCK_CHUNKS = 4

# LOGIT_TABLE[k] = logit((k + 1/2) / 2^16) for the 2^16 values of a 16-bit
# draw k, increasing in k.  A sampled estimate draws b = (LOGIT_TABLE[k] < I),
# which is Bernoulli(P') with P' = #{k : LOGIT_TABLE[k] < I} / 2^16: P' is
# sigmoid(I) rounded to a multiple of 2^-16, within 2^-17 of it
# (``verify.check_table_draw``).  Read-only: every pass shares it.
def _logit_table() -> Array:
    k = np.arange(1 << 16)
    table = np.log((k + 0.5) / ((1 << 16) - k - 0.5))
    table.flags.writeable = False
    return table


LOGIT_TABLE = _logit_table()


@dataclass
class NeuronParams:
    """Per-layer neuron constants; v_th is the learnable one."""

    tau_m: float = 0.25
    v_th: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tau_m <= 1.0:
            raise ValueError(f"tau_m must lie in (0, 1], got {self.tau_m}")
        if not 0.0 < self.alpha < np.inf:  # NaN fails the test as well
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


def _not_times(s: Array, x: Array, out: Array) -> Array:
    """Write (1 - s) * x for the bool ``s`` into ``out``, in this op order:
    ``logical_not`` into ``out`` (1 - s, without subtract's cast of a
    bool), then ``multiply`` by x.  The estimate u_hat = (1 - b) * I and
    the reset u = (1 - o) * h are both this product, so a trace that holds
    b, I, o and h re-forms them with the pass's bits."""
    np.logical_not(s, out=out)
    np.multiply(out, x, out=out)
    return out


class ParallelTrace(NamedTuple):
    """I and the three arrays a sampled parallel forward pass writes, [T, B, N]
    each: the estimated spike b (the Bernoulli draw) and the spikes o, bool,
    and the pre-reset potential h, float64; 10 bytes a value.

    The estimated history u_hat = (1 - b) * I and the post-reset potential
    u = (1 - o) * h are not held, since they re-form from these with the
    bits the pass formed (:func:`_not_times`): each reading of the
    properties :attr:`u_hat` and :attr:`u` re-forms one into a new array,
    and :meth:`u_hat_into` and :meth:`u_into` into a given one.  No pass
    holds the spike probability P = sigmoid(I).
    """

    I: Array
    b: Array
    h: Array
    o: Array

    def u_hat_into(self, out: Array) -> Array:
        """Re-form the estimated history u_hat into the float64 ``out``."""
        return _not_times(self.b, self.I, out)

    def u_into(self, out: Array) -> Array:
        """Re-form the post-reset potential u = (1 - o) * h into the float64 ``out``."""
        return _not_times(self.o, self.h, out)

    @property
    def u_hat(self) -> Array:
        return self.u_hat_into(empty(self.I.shape))

    @property
    def u(self) -> Array:
        return self.u_into(empty(self.I.shape))


class ExpectationTrace(NamedTuple):
    """I and the two arrays an expectation-mode parallel forward pass writes,
    h and o: those of :class:`ParallelTrace` less b, since this pass draws
    no spike; 9 bytes a value.  Its u_hat = I / (1 + exp(I)) is re-formed
    from I alone (:func:`_estimate`), its u as a sampled trace's is."""

    I: Array
    h: Array
    o: Array

    def u_hat_into(self, out: Array) -> Array:
        """Re-form the estimated history u_hat into the float64 ``out``."""
        _estimate(self.I, out)
        return out

    # u and the properties read as a sampled trace's do
    u_into = ParallelTrace.u_into
    u_hat = ParallelTrace.u_hat
    u = ParallelTrace.u


def _check_3d(I: Array) -> Array:
    I = np.asarray(I, dtype=np.float64)
    if I.ndim != 3:
        raise ShapeMismatchError(f"expected [T, B, N] input, got shape {I.shape}")
    if I.shape[0] < 1:
        raise ValueError("need at least one time step")
    return I


def _estimate(I: Array, u_hat: Array, k: Array | None = None, b: Array | None = None) -> None:
    """Write the estimated history u_hat = (1 - b) * I, in this op order.

    ``k`` None is expectation mode, where the estimated spike is its
    probability P = sigmoid(I), and u_hat = (1 - P) * I is formed as
    I / (1 + exp(I)): exp, add 1, divide.  No P is formed, and this form
    loses no bits to the cancellation in 1 - P; it lies within a few ulp of
    I * expit(-I) (``verify.check_expectation_estimate``).  Where exp(I)
    overflows (I above about 709.78) u_hat is 0 without a warning, on any
    thread.  Otherwise ``k`` holds 16-bit draws and the bool ``b`` =
    (LOGIT_TABLE[k] < I) is drawn: the table entries are gathered into
    u_hat's buffer, compared with I, and u_hat is then overwritten.  No
    sigmoid is formed; b is Bernoulli(P'), P' within 2^-17 of sigmoid(I)
    (see :data:`LOGIT_TABLE`), and a NaN current draws b = 0.
    """
    if k is None:
        # np.errstate is per thread: a pool thread does not inherit the caller's
        with np.errstate(over="ignore"):
            np.exp(I, out=u_hat)
        np.add(u_hat, 1.0, out=u_hat)
        np.divide(I, u_hat, out=u_hat)
    else:
        # "clip" cannot clip a 16-bit k; the default "raise" buffers out=
        np.take(LOGIT_TABLE, k, out=u_hat, mode="clip")
        np.less(u_hat, I, out=b)
        _not_times(b, I, u_hat)


def _update(u_hist: Array | None, I: Array, params: NeuronParams, h: Array, o: Array,
            u: Array | None = None) -> None:
    """Write h = u_hist * tau_m + I, o = (h >= v_th) and u = (1 - o) * h, in
    this op order.

    ``u_hist`` None is the zero history of step 0; ``u`` None skips the
    reset, which the parallel passes do: nothing in them reads u, and a
    trace re-forms it from h and o.  ``o`` is bool, or float64 0/1 in the
    spikes-only pass, where ``u_hist``, ``h`` and ``o`` may be one array,
    since each op reads only what the previous one wrote, elementwise.  The
    MPE-PSN passes and :func:`teacher_forced_forward` call this one
    function, so they fire on the same bits of h; :func:`lif_sequential`
    keeps its own arithmetic, as the independent oracle they are checked
    against.
    """
    if u_hist is None:
        np.add(0.0, I, out=h)  # +0.0 + I: a zero history, so -0.0 gives +0.0
    else:
        np.multiply(u_hist, params.tau_m, out=h)
        np.add(h, I, out=h)
    np.greater_equal(h, params.v_th, out=o)
    if u is not None:
        _not_times(o, h, u)


def lif_sequential(I, params: NeuronParams) -> tuple[Array, Array]:
    """Ground-truth hard-reset LIF recurrence, O(T) along time.

    u_t = (tau_m * u_{t-1} + I_t) * (1 - spike_t), with u_{-1} = 0 and
    spike_t = 1 where tau_m * u_{t-1} + I_t >= v_th (ties fire), else 0.
    Returns u (float64) and o (bool), fresh or recycled from a dead pass
    (:func:`numerics.empty`: arrays of at least 1 MiB); the only other
    memory it takes is one tile row (:func:`_lif_into`).
    """
    I = _check_3d(I)
    u, o = empty(I.shape), empty(I.shape, bool)
    _lif_into(I, params, u, o)
    return u, o


def _lif_into(I: Array, params: NeuronParams, u: Array, o: Array, h: Array | None = None) -> None:
    """Write the LIF recurrence of the checked [T, B, N] input ``I`` into the
    C-contiguous float64 ``u`` and bool ``o`` (and the pre-reset potential
    into the float64 ``h``; None keeps only one tile row of it).

    The flat [T, B*N] view is walked in column tiles of ``LIF_TILE_COLUMNS``,
    so a tile's rows of h, I, u and o stay in cache while t advances.  Each
    step is h = tau_m * u_{t-1} + I_t (+0.0 + I_0 at t = 0, a zero history,
    so -0.0 gives +0.0), o = (h >= v_th), u = h * (1 - o), written in place.
    This arithmetic is the oracle's own: it does not call :func:`_update`.
    """
    T = I.shape[0]
    n = I.size // T
    rows_I = I.reshape(T, n)
    rows_u, rows_o = u.reshape(T, n, copy=False), o.reshape(T, n, copy=False)
    rows_h = None if h is None else h.reshape(T, n, copy=False)
    tau_m, v_th = params.tau_m, params.v_th
    h_row = np.empty(min(LIF_TILE_COLUMNS, n)) if h is None else None
    for lo in range(0, n, LIF_TILE_COLUMNS):
        cols = slice(lo, min(lo + LIF_TILE_COLUMNS, n))
        tile_h = (itertools.repeat(h_row[:cols.stop - lo]) if rows_h is None
                  else rows_h[:, cols])
        u_prev = None
        for I_t, h_t, u_t, o_t in zip(rows_I[:, cols], tile_h, rows_u[:, cols], rows_o[:, cols]):
            if u_prev is None:
                np.add(0.0, I_t, out=h_t)
            else:
                np.multiply(u_prev, tau_m, out=h_t)
                np.add(h_t, I_t, out=h_t)
            np.greater_equal(h_t, v_th, out=o_t)
            np.logical_not(o_t, out=u_t)  # 1 - o_t
            np.multiply(h_t, u_t, out=u_t)
            u_prev = u_t


def shift_time(x: Array) -> Array:
    """Delay by one step along T: out[0] = 0, out[t] = x[t-1], in x's dtype."""
    out = empty(x.shape, x.dtype)
    out[:1] = 0
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
) -> ParallelTrace | ExpectationTrace:
    """Parallel forward pass over all T time steps at once.

    The estimate is u_hat = (1 - b) * I, where b is the estimated spike (an
    estimated spike resets the potential to zero): in sampled mode a
    Bernoulli draw of probability within 2^-17 of sigmoid(I) (a 16-bit draw
    compared through :data:`LOGIT_TABLE`, no sigmoid formed); expectation
    mode substitutes b := P = sigmoid(I) for a deterministic, seed-free
    path, and forms u_hat = I / (1 + exp(I)) without forming P
    (:func:`_estimate`).  The estimate for step t-1 feeds step t; step 0
    consumes no history (zero), so its output coincides with the sequential
    oracle exactly.

    A sampled pass writes three arrays, b, h and o, and returns a
    :class:`ParallelTrace`: 10 bytes a value, since b and o are bool.  An
    expectation pass writes two, h and o, and returns an
    :class:`ExpectationTrace`: 9 bytes a value.  u_hat and the post-reset
    potential u = (1 - o) * h are never written to a whole array; the
    trace re-forms them, with the same bits, when they are read.  The
    written arrays come from ``scratch`` when given (training reuses them
    from one epoch to the next), else they are fresh, or recycled from a
    dead pass: each array of at least 1 MiB reuses the memory of a dead
    one of its byte size, if any (:func:`numerics.empty`, which also
    bounds the idle memory).  The pass writes every position, so recycled
    memory gives the same bits.

    One kernel walks the flat [T*B*N] values in blocks of
    ``MPE_BLOCK_CHUNKS`` RNG chunks.  A block forms u_hat (and, sampled, b)
    at its positions [lo, hi) (:func:`_estimate`) in its thread's buffer
    of at most one block, which dies with the pass, then, while that u_hat
    is still in cache, runs :func:`_update` at the positions one stride
    (B*N) ahead, [lo + stride, hi + stride), whose history it is; its
    positions in row 0 are updated with the zero history.  So each
    position is updated by the one block that holds its history, blocks
    never wait on one another and no two write the same position.  Sampled
    mode takes its blocks from ``Rng.draw_blocks``, expectation mode from
    ``map_ranges`` over blocks; over ``pool`` each range walks its own
    blocks (one range without a pool).  Every block does the same
    elementwise arithmetic, so the result is bit-identical for any worker
    count and block size.
    """
    I = _check_3d(I)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "sampled" and rng is None:
        raise ValueError("sampled mode requires an Rng")
    n = I.size
    stride = I.shape[1] * I.shape[2]
    size = MPE_BLOCK_CHUNKS * Rng.CHUNK
    flat_I = I.reshape(-1)
    scratch = Scratch() if scratch is None else scratch
    b = scratch("b", (n,), bool) if mode == "sampled" else None
    h, o = scratch("h", (n,)), scratch("o", (n,), bool)
    buffers = threading.local()

    def block(lo: int, hi: int, k: Array | None = None) -> None:
        u_hat = getattr(buffers, "u_hat", None)
        if u_hat is None:
            u_hat = buffers.u_hat = np.empty(min(size, n))
        u_hat = u_hat[:hi - lo]
        _estimate(flat_I[lo:hi], u_hat, k, None if k is None else b[lo:hi])
        if lo < stride:
            row0 = slice(lo, min(hi, stride))
            _update(None, flat_I[row0], params, h[row0], o[row0])
        if lo + stride < n:
            ahead = slice(lo + stride, min(hi + stride, n))
            _update(u_hat[:ahead.stop - ahead.start], flat_I[ahead], params,
                    h[ahead], o[ahead])

    if mode == "sampled":
        rng.draw_blocks(n, MPE_BLOCK_CHUNKS, block, pool)
    else:
        def blocks(lo: int, hi: int) -> None:
            for start in range(lo * size, min(hi * size, n), size):
                block(start, min(start + size, n))

        map_ranges(pool, -(-n // size), blocks)
    written = (a.reshape(I.shape) for a in (h, o))
    if mode == "sampled":
        return ParallelTrace(I, b.reshape(I.shape), *written)
    return ExpectationTrace(I, *written)


def mpe_psn_spikes(I, params: NeuronParams) -> Array:
    """The spikes o of ``mpe_psn_forward(I, params, "expectation")``, and nothing else.

    The inference pass: it runs the same estimate and update helpers as
    :func:`mpe_psn_forward`, so o equals that pass's in value (as float64
    0/1, not bool), but it writes one float64 [T, B, N] array, 8 bytes a
    value, where that pass writes h and o, 9.  Row t of that array takes
    the estimate u_hat = I / (1 + exp(I)) of row t - 1 (the last row's
    estimate, which nothing reads, is never formed), then the pre-reset
    potential h formed from it in place, then the spikes.  Predict calls it
    on one cache-sized block of samples at a time.
    """
    I = _check_3d(I)
    o = empty(I.shape)
    if I.shape[0] > 1:
        _estimate(I[:-1], o[1:])
        _update(o[1:], I[1:], params, o[1:], o[1:])
    _update(None, I[0], params, o[0], o[0])
    return o


def teacher_forced_forward(I, u_true, params: NeuronParams) -> tuple[Array, Array]:
    """Parallel update fed with the exact membrane history instead of the estimate.

    With the true history substituted, the parallel update reproduces the
    sequential oracle exactly at every time step; this isolates the error
    contributed by the estimator alone.  Returns u (float64) and o (bool).
    """
    I = _check_3d(I)
    u_true = np.asarray(u_true, dtype=np.float64)
    if u_true.shape != I.shape:
        raise ShapeMismatchError(
            f"oracle membrane shape {u_true.shape} does not match input {I.shape}"
        )
    h, u, o = empty(I.shape), empty(I.shape), empty(I.shape, bool)
    _update(shift_time(u_true), I, params, h, o, u)
    return u, o
