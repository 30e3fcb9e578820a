"""Spiking layers and a small sklearn-style temporal classifier.

A model is a chain of (linear synapse, spiking neuron) pairs followed by a
non-spiking linear readout that emits logits per time step.  The neuron in
each pair is either the parallel estimator or the sequential LIF oracle;
both are differentiated with the same triangular surrogate.  Training is
full-batch SGD with momentum on the blended loss, deterministic per seed.

``SpikingClassifier`` follows scikit-learn conventions (constructor stores
hyperparameters verbatim, ``fit``/``predict``/``score``, ``get_params``),
except that inputs are [T, B, N] temporal tensors rather than 2-D matrices.
"""

from __future__ import annotations

import contextlib
import inspect
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autograd, losses, neuron, numerics
from .autograd import ParamRegistry, Var
from .losses import MemLossConfig
from .numerics import Array, Rng, Scratch, ShapeMismatchError

NEURON_KINDS = ("mpe_psn", "lif_sequential")


class TrainingDivergedError(RuntimeError):
    """Loss or a layer's current became non-finite; names where it first did
    and carries the diagnostics gathered so far.

    ``layer`` is the index of the spiking layer holding the first non-finite
    quantity (None when every layer is finite and the loss itself is not),
    and ``quantity`` names that quantity.  ``loss_finite`` marks a run whose
    loss stayed finite although a current did not (no term read it).
    """

    def __init__(self, epoch: int, history, layer: int | None, quantity: str,
                 loss_finite: bool = False):
        where = quantity if layer is None else f"layer {layer} {quantity}"
        what = "current" if loss_finite else "loss"
        super().__init__(f"non-finite {what} at epoch {epoch}: first non-finite value in {where}")
        self.epoch = epoch
        self.history = list(history)
        self.layer = layer
        self.quantity = quantity


def synapse_forward(o_prev: Var, W: Var, delay: int = 0) -> Var:
    """Input current from presynaptic spikes through dense weights W [n_in,
    n_out]: I = W . o (same step or delayed).

    delay=1 uses the previous step's spikes with an empty history at t = 0.
    """
    o_prev = _presynaptic(autograd.as_var(o_prev), W, delay, autograd.shift_time)
    return autograd.matmul(o_prev, W)


def _presynaptic(o_prev, W, delay: int, shift_time):
    """``o_prev`` checked against the width of the weights ``W``, delayed by
    ``shift_time`` when ``delay`` is 1; shared by the tape forward and
    inference."""
    if delay not in (0, 1):
        raise ValueError(f"synaptic delay must be 0 or 1, got {delay}")
    if o_prev.shape[-1] != W.shape[0]:
        raise ShapeMismatchError(
            f"synapse expects {W.shape[0]} inputs, got {o_prev.shape[-1]}"
        )
    return shift_time(o_prev) if delay == 1 else o_prev


class TapeTrace(NamedTuple):
    """Tape outputs of one spiking layer; a LIF layer's u_hat is its u.  ``mem``
    and ``l2`` are an MPE-PSN layer's membrane term and ``l2_norm(u_hat - u)``
    when its node is given kappa (else None); LIF has no term, and its ``l2``
    is that norm, 0.0 for a finite u, formed without the difference."""

    u_hat: Var
    u: Var
    o: Var
    mem: Var | None = None
    l2: float | None = None


def _reset_backward(g_u, g_o, h: Array, o: Array, sg: Array, g_h: Array, tmp: Array,
                    negated: bool = False):
    """Backward of o = spike(h) and u = h * (1 - o) for given output gradients.

    Returns the gradient of h and the surrogate-weighted spike gradient (the
    threshold receives its negated sum); None stands for no gradient.  Works
    in place: ``sg`` holds the surrogate at h on entry and the weighted
    gradient on return, the gradient of h is written into ``g_h`` (it is
    ``sg`` itself when u has no gradient) and ``tmp`` is clobbered.  Terms
    are formed as the elementwise tape formed them, g_o + -(g_u * h) as the
    equal g_o - g_u * h, so the bits match.  With ``negated``, ``g_u`` holds
    the negation of u's gradient (an MPE-PSN node's membrane term gives u
    the negation of u_hat's), and each term is formed from it with the same
    bits: g_o - (-g_u) * h as g_o + g_u * h, and -(g_u * (1 - o)) + weighted
    as weighted - g_u * (1 - o).
    """
    if g_u is not None:
        g_o_total = np.multiply(g_u, h, out=tmp)
        if g_o is not None:
            (np.add if negated else np.subtract)(g_o, g_o_total, out=g_o_total)
        elif not negated:
            np.negative(g_o_total, out=g_o_total)
        g_o = g_o_total
        np.logical_not(o, out=g_h)  # 1 - o, for the bool spikes
        np.multiply(g_u, g_h, out=g_h)
    if g_o is None:  # then g_u is None as well
        return None, None
    weighted = np.multiply(g_o, sg, out=sg)
    if g_u is None:
        return weighted, weighted
    if negated:
        return np.subtract(weighted, g_h, out=g_h), weighted
    return np.add(g_h, weighted, out=g_h), weighted


def _threshold_grad(weighted, v_th: Var):
    # the sum of -weighted is the negated sum of weighted
    return None if weighted is None else -autograd.unbroadcast(weighted, v_th.shape)


def mpe_psn_tape_forward(
    I: Var, v_th: Var, tau_m: float, alpha: float, mode: str, rng: Rng | None,
    kappa=None, mem_cfg: MemLossConfig | None = None, *, scratch: Scratch | None = None,
) -> TapeTrace:
    """Differentiable parallel forward pass: one tape node over
    :func:`neuron.mpe_psn_forward`, with a closed-form backward.

    Given ``kappa`` and ``mem_cfg``, the node also forms the layer's
    membrane term (:func:`losses.mem_term`) as a fourth output, and its
    ``l2_norm(u_hat - u)``; the backward adds the term's gradients into
    u_hat's and u's (u's is the negation of u_hat's, which the reset reads
    as such) before the reset and history terms, bit for bit as a separate
    ``losses.mem_loss`` node would.

    Sampled mode treats the Bernoulli draw as a constant (straight-through:
    u_hat passes gradient (1 - b) to I); expectation mode is fully
    differentiable through the spike probability P = sigmoid(I), which the
    backward forms, since the forward holds no P.  Gradient terms are added
    in the order of the elementwise tape they replace (sigmoid, (1 - b) * I,
    shift, spike, reset), so the gradients match it bit for bit whenever
    each output has at most one consumer outside the layer.  The pass
    writes b, h and o, and the node re-forms its outputs u_hat and u from
    them once (:class:`neuron.ParallelTrace`), bit for bit as the pass
    formed them.  The forward's arrays, these two among them, and the
    backward's work arrays (which it returns as gradients) come from
    ``scratch`` when given, else they are fresh, or recycled from a dead
    pass (:func:`numerics.empty`).
    """
    scratch = Scratch() if scratch is None else scratch
    params = neuron.NeuronParams(tau_m=tau_m, v_th=float(v_th.value), alpha=alpha)
    tr = neuron.mpe_psn_forward(I.value, params, mode, rng, scratch=scratch)
    autograd.log_spikes(tr.o)
    if mode == "sampled":
        autograd.log_spikes(tr.b)  # a flipped draw is a discontinuity as well
    # the pass holds neither u_hat nor u: they are re-formed once, as outputs
    u_hat = tr.u_hat_into(scratch("u_hat", tr.h.shape))
    u = tr.u_into(scratch("u", tr.h.shape))
    values, parents, l2 = (u_hat, u, tr.o), (I, v_th), None
    if kappa is not None:
        kappa = autograd.as_var(kappa)
        mem, l2, mem_backward = losses.mem_term(u_hat, u, kappa.value, mem_cfg, scratch)
        values, parents = (*values, mem), (*parents, kappa)

    def backward(g_u_hat, g_u, g_o, g_mem=None):
        shape = tr.h.shape
        g_kappa = mem_u_hat = None
        negated = False
        if g_mem is not None:
            # the term's gradient of u is the negation of its gradient of u_hat
            mem_u_hat, g_kappa = mem_backward(g_mem)
            if g_u is None:
                g_u, negated = mem_u_hat, True  # the reset reads it negated
            else:
                # g_u + -mem_u_hat, as the equal g_u - mem_u_hat; the history
                # gradient takes grad.hist only once the reset has read this
                g_u = np.subtract(g_u, mem_u_hat, out=scratch("grad.hist", shape))
        sg = autograd.surrogate_grad(tr.h, params.v_th, alpha, out=scratch("grad.sg", shape))
        g_h, weighted = _reset_backward(g_u, g_o, tr.h, tr.o, sg, scratch("grad.h", shape),
                                        scratch("grad.tmp", shape), negated)
        g_v_th = _threshold_grad(weighted, v_th)
        if mem_u_hat is not None:  # only now: the reset may read it as u's gradient
            g_u_hat = mem_u_hat if g_u_hat is None else np.add(g_u_hat, mem_u_hat, out=mem_u_hat)
        if g_h is not None:
            g_hist = scratch("grad.hist", shape)
            np.multiply(g_h[1:], tau_m, out=g_hist[:-1])
            g_hist[-1] = 0.0
            g_u_hat = g_hist if g_u_hat is None else np.add(g_u_hat, g_hist, out=g_hist)
        g_I = g_h
        if g_u_hat is not None:
            if mode == "sampled":
                # 1 - b, for the bool draw
                not_b = through_b = np.logical_not(tr.b, out=scratch("grad.tmp", shape))
            else:
                # in expectation mode b is P, which the forward does not hold;
                # 1 - P is formed once and read twice, so the product takes a
                # dead array: the surrogate's when it is g_I's first term
                P = numerics.sigmoid(tr.I, out=scratch("grad.P", shape))
                not_b = np.subtract(1.0, P, out=scratch("grad.tmp", shape))
                through_b = scratch("grad.sg" if g_I is None else "grad.P2", shape)
            np.multiply(g_u_hat, not_b, out=through_b)
            g_I = through_b if g_I is None else np.add(g_I, through_b, out=g_I)
            if mode == "expectation":
                # g_I + -(g_u_hat * I) * P * (1 - P), as the equal g_I - (...)
                through_P = np.multiply(g_u_hat, tr.I, out=scratch("grad.P2", shape))
                np.multiply(through_P, P, out=through_P)
                np.multiply(through_P, not_b, out=through_P)
                np.subtract(g_I, through_P, out=g_I)
        return (g_I, g_v_th, g_kappa)[:len(parents)]

    return TapeTrace(*autograd.multi_output(values, parents, backward), l2=l2)


def lif_tape_forward(I: Var, v_th: Var, tau_m: float, alpha: float,
                     *, scratch: Scratch | None = None) -> TapeTrace:
    """Differentiable sequential LIF recurrence (backprop through time): one
    tape node over the recurrence of :func:`neuron.lif_sequential`, with a
    closed-form backward that walks time in reverse, adding terms in the
    order of the per-step elementwise tape it replaces (bit for bit, as for
    the parallel layer).

    Returns ``TapeTrace(u, u, o)``, o bool.  The forward keeps the pre-reset
    potential h, which the backward reads.  u, o, h and the backward's
    surrogate and input gradient (which it returns) come from ``scratch``
    when given, else they are fresh or recycled (:func:`numerics.empty`);
    the reverse walk works in two row buffers.
    """
    scratch = Scratch() if scratch is None else scratch
    params = neuron.NeuronParams(tau_m=tau_m, v_th=float(v_th.value), alpha=alpha)
    x = neuron._check_3d(I.value)
    shape = x.shape
    u, o, h = scratch("u", shape), scratch("o", shape, bool), scratch("h", shape)
    neuron._lif_into(x, params, u, o, h)
    autograd.log_spikes(o)

    def backward(g_u, g_o):
        sg = autograd.surrogate_grad(h, params.v_th, alpha, out=scratch("grad.sg", shape))
        g_I = scratch("grad.I", shape)
        g_u_row, tmp_row = scratch("grad.u_row", shape[1:]), scratch("grad.tmp_row", shape[1:])
        g_h = g_v_th = None
        for t in reversed(range(shape[0])):
            # g_u[t] + g_h * tau_m, where None stands for no term
            g_u_t = None if g_u is None else g_u[t]
            if g_h is not None:
                np.multiply(g_h, tau_m, out=g_u_row)
                g_u_t = g_u_row if g_u_t is None else np.add(g_u_t, g_u_row, out=g_u_row)
            g_I_t = g_I[t]
            g_h, weighted = _reset_backward(
                g_u_t, None if g_o is None else g_o[t], h[t], o[t], sg[t], g_I_t, tmp_row
            )
            g_v_th = autograd.add_grads(g_v_th, _threshold_grad(weighted, v_th))
            if g_h is not g_I_t:  # the weighted spike gradient, when u has none at t
                g_I_t[...] = g_h
        return g_I, g_v_th

    u_var, o_var = autograd.multi_output((u, o), (I, v_th), backward)
    l2 = 0.0 if _all_finite(u) else float(numerics.l2_norm(u - u))
    return TapeTrace(u_var, u_var, o_var, l2=l2)


@dataclass
class EpochDiagnostics:
    """Per-epoch training record mirrored into the training-log CSV."""

    epoch: int
    loss_cls: float
    loss_mem: float
    loss_total: float
    train_acc: float
    test_acc: float
    l2_norms: list[float] = field(default_factory=list)
    spike_rates: list[float] = field(default_factory=list)

    @staticmethod
    def csv_header(n_layers: int) -> str:
        cols = ["epoch", "loss_cls", "loss_mem", "loss_total", "train_acc", "test_acc"]
        cols += [f"l2_norm_layer_{i}" for i in range(n_layers)]
        cols += [f"spike_rate_layer_{i}" for i in range(n_layers)]
        return ",".join(cols)

    def csv_row(self) -> str:
        vals = [self.loss_cls, self.loss_mem, self.loss_total, self.train_acc, self.test_acc]
        vals += self.l2_norms + self.spike_rates
        return ",".join([str(self.epoch)] + [format(v, ".17g") for v in vals])


def diagnostics(spikes, logits: Array, labels) -> tuple[list[float], float]:
    """Per-layer spike rate (%) of each layer's spikes in ``spikes``, and
    accuracy.

    The spike rate is 100 * mean(o); accuracy comes from the argmax of
    time-averaged logits.
    """
    # mean(o) of 0/1 spikes, bit for bit: the count is an exact sum
    rates = [100.0 * (np.count_nonzero(o) / o.size) for o in spikes]
    return rates, accuracy(logits, labels)


def _all_finite(x: Array) -> bool:
    """True when every entry of ``x`` is finite."""
    return bool(np.isfinite(x).all())


def _first_non_finite(currents, traces, l_cls) -> tuple[int | None, str]:
    """(layer, quantity) of the first non-finite value in forward order.

    Within a layer: its current I, then u_hat, then its membrane loss term
    (LIF has no such term).  With every layer finite, the classification
    loss or, failing that, the blended total.  Called only once the loss or
    a current is non-finite, so training never pays for the search.
    """
    for i, (I, tr) in enumerate(zip(currents, traces)):
        for name, value in (("current I", I.value), ("u_hat", tr.u_hat.value)):
            if not _all_finite(value):
                return i, name
        if tr.mem is not None and not np.isfinite(tr.mem.value):
            return i, "membrane loss term"
    if not np.isfinite(l_cls.value):
        return None, "classification loss"
    return None, "total loss"


def check_input(x, name: str) -> Array:
    """A [T, B, N] float tensor with T, B, N >= 1 and only finite entries,
    or an error naming it."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or 0 in x.shape:
        raise ShapeMismatchError(f"{name}: expected [T, B, N] input with T, B, N >= 1, "
                                 f"got shape {x.shape}")
    if not _all_finite(x):
        bad = np.count_nonzero(~np.isfinite(x))
        raise ValueError(f"{name} has {bad} non-finite entries (NaN or Inf)")
    return x


def classes(logits: Array) -> Array:
    """The class of each sample: the argmax of its time-averaged logits."""
    return np.argmax(np.mean(logits, axis=0), axis=1)


def accuracy(logits: Array, labels) -> float:
    return float(np.mean(classes(logits) == np.asarray(labels)))


class SpikingClassifier:
    """Temporal classifier built from spiking layers, sklearn-style.

    Parameters
    ----------
    hidden_sizes : tuple of int
        Width of each spiking layer.
    neuron_kind : {"mpe_psn", "lif_sequential"}
        Forward dynamics of every spiking layer.
    mode : {"sampled", "expectation"}
        Estimator mode used during training (evaluation always runs in
        expectation mode so predictions are seed-free).
    lam : float
        Blend weight of the membrane-approximation loss; 0 disables it.
    synaptic_delay : {0, 1}
        0 couples layers within the same time step; 1 delays spikes one step.
    """

    def __init__(
        self,
        hidden_sizes=(32,),
        neuron_kind: str = "mpe_psn",
        tau_m: float = 0.25,
        v_th_init: float = 1.0,
        alpha: float = 1.0,
        mode: str = "sampled",
        synaptic_delay: int = 0,
        lam: float = 0.01,
        kappa_axis: str = "time",
        kappa_init: float = 1.0,
        epochs: int = 200,
        lr: float = 0.1,
        momentum: float = 0.9,
        seed: int = 0,
    ):
        self.hidden_sizes = hidden_sizes
        self.neuron_kind = neuron_kind
        self.tau_m = tau_m
        self.v_th_init = v_th_init
        self.alpha = alpha
        self.mode = mode
        self.synaptic_delay = synaptic_delay
        self.lam = lam
        self.kappa_axis = kappa_axis
        self.kappa_init = kappa_init
        self.epochs = epochs
        self.lr = lr
        self.momentum = momentum
        self.seed = seed

    # the hyperparameters are the constructor's arguments, as in scikit-learn
    _PARAM_NAMES = tuple(inspect.signature(__init__).parameters)[1:]  # all but self

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params) -> "SpikingClassifier":
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(f"invalid parameter {name!r} for SpikingClassifier")
            setattr(self, name, value)
        return self

    # -- model construction -------------------------------------------------

    def _build(self, T: int, n_in: int, n_classes: int) -> None:
        if self.neuron_kind not in NEURON_KINDS:
            raise ValueError(f"neuron_kind must be one of {NEURON_KINDS}")
        hidden = tuple(self.hidden_sizes) if np.iterable(self.hidden_sizes) else None
        if hidden is None or not all(isinstance(n, numbers.Integral) and n >= 1 for n in hidden):
            raise ValueError(f"hidden_sizes must hold positive integers, got {self.hidden_sizes}")
        if not isinstance(self.epochs, numbers.Integral):
            raise ValueError(f"epochs must be an integer, got {self.epochs!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.synaptic_delay not in (0, 1):
            raise ValueError(f"synaptic_delay must be 0 or 1, got {self.synaptic_delay!r}")
        if self.mode not in neuron.MODES:  # checked for LIF too, which ignores it
            raise ValueError(f"mode must be one of {neuron.MODES}, got {self.mode!r}")
        if not 0.0 < self.lr < np.inf:  # NaN fails each of these tests as well
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not -np.inf < self.v_th_init < np.inf:
            raise ValueError(f"v_th_init must be finite, got {self.v_th_init}")
        neuron.NeuronParams(tau_m=self.tau_m, v_th=self.v_th_init, alpha=self.alpha)
        self.mem_cfg_ = MemLossConfig(kappa_axis=self.kappa_axis, kappa_init=self.kappa_init)
        self.registry_ = ParamRegistry()
        self.n_classes_ = n_classes
        init_rng = Rng(self.seed).spawn(0)
        widths = [n_in, *hidden]
        self.synapses_, self.v_ths_, self.kappas_ = [], [], []
        for i, (np_, n) in enumerate(zip(widths[:-1], widths[1:])):
            bound = float(np.sqrt(1.0 / np_))
            W = Var(init_rng.spawn(2 * i + 1).uniform_tensor((np_, n), -bound, bound))
            self.registry_.register(f"w_{i}", W)
            self.synapses_.append(W)
            v_th = Var(np.asarray(float(self.v_th_init)))
            self.registry_.register(f"v_th_{i}", v_th)
            self.v_ths_.append(v_th)
            if self.neuron_kind == "mpe_psn":  # only the membrane loss reads kappa
                kappa = Var(self.mem_cfg_.init_kappa(T, n))
                self.registry_.register(f"kappa_{i}", kappa, clamp_min=0.0)
                self.kappas_.append(kappa)
        bound = float(np.sqrt(1.0 / widths[-1]))
        W_out = Var(init_rng.spawn(999).uniform_tensor((widths[-1], n_classes), -bound, bound))
        self.readout_ = self.registry_.register("w_out", W_out)

    # -- forward ------------------------------------------------------------

    def model_forward(self, x, mode: str | None = None, rng: Rng | None = None,
                      *, scratch: list[Scratch] | None = None, membrane: bool = False):
        """Logits Var [T, B, K], the tape trace of every spiking layer and
        every layer's input current.

        ``scratch`` holds one :class:`numerics.Scratch` per spiking layer for
        that layer's arrays; ``fit`` passes its own, so the arrays of a trace
        returned to any other caller are its own (fresh, or recycled from a
        dead pass) and stay as they are.  With ``membrane`` (``fit`` sets
        it), each MPE-PSN layer's node also forms its membrane loss term and
        ``l2_norm(u_hat - u)`` (``TapeTrace.mem`` and ``l2``).
        """
        x = autograd.as_var(np.asarray(x, dtype=np.float64))
        mode = self.mode if mode is None else mode
        traces: list[TapeTrace] = []
        currents: list[Var] = []
        o_prev = x
        for i, W in enumerate(self.synapses_):
            I = synapse_forward(o_prev, W, self.synaptic_delay)
            currents.append(I)
            sc = None if scratch is None else scratch[i]
            if self.neuron_kind == "mpe_psn":
                layer_rng = rng.spawn(i) if rng is not None else None
                kappa = self.kappas_[i] if membrane else None
                tr = mpe_psn_tape_forward(I, self.v_ths_[i], self.tau_m, self.alpha, mode,
                                          layer_rng, kappa, self.mem_cfg_, scratch=sc)
            else:
                tr = lif_tape_forward(I, self.v_ths_[i], self.tau_m, self.alpha, scratch=sc)
            traces.append(tr)
            o_prev = tr.o
        logits = synapse_forward(o_prev, self.readout_, delay=0)
        return logits, traces, currents

    # -- training -----------------------------------------------------------

    def _losses(self, logits: Var, traces: list[TapeTrace], y) -> tuple[Var, Var, Var]:
        """Classification and membrane loss of one forward, and the blend ``fit`` differentiates."""
        l_cls = losses.cls_loss(logits, y)
        # every MPE-PSN layer's node formed its membrane term; LIF has none
        l_mem = sum((tr.mem for tr in traces if tr.mem is not None), Var(np.asarray(0.0)))
        return l_cls, l_mem, losses.total_loss(l_cls, l_mem, self.lam)

    def fit(self, x, y, x_test=None, y_test=None):
        """Train on ``x`` [T, B, N] and its labels ``y`` for ``epochs`` epochs.

        Every epoch runs the training forward (with each MPE-PSN layer's
        membrane term), logs an :class:`EpochDiagnostics` to ``history_``
        (held-out accuracy from ``x_test``/``y_test`` when given) and takes
        one SGD step on the blended loss.  Raises
        :class:`TrainingDivergedError` when the loss or a current becomes
        non-finite.  Recycled memory left idle (:func:`numerics.empty`) is
        released as the fit starts and as it returns, so none of it stays
        resident through the epochs or after them.
        """
        x = check_input(x, "x")
        y = losses.check_labels(y, x.shape[1], "y")
        n_classes = max(int(y.max()) + 1, 2)
        if (x_test is None) != (y_test is None):
            given, missing = ("x_test", "y_test") if y_test is None else ("y_test", "x_test")
            raise ValueError(f"{given} was given without {missing}: a held-out set needs both")
        if x_test is not None:
            x_test = check_input(x_test, "x_test")
            y_test = losses.check_labels(y_test, x_test.shape[1], "y_test", n_classes)
        self._build(x.shape[0], x.shape[2], n_classes)
        sample_rng = Rng(self.seed).spawn(1)
        self.history_ = []
        # Buffers that dead arrays of an earlier call left idle would stay
        # resident through every epoch (a fit at a small shape asks for none
        # of their sizes), so a fit starts, as it ends, with none.
        numerics.release_idle()
        # Each epoch's tape is dead before the next forward, so one set of
        # work arrays per layer serves every epoch; it dies with this call.
        scratch = [Scratch() for _ in self.synapses_]
        for epoch in range(1, self.epochs + 1):
            # a stream per epoch: model_forward spawns each layer's stream
            # from the one it is given, and a spawn draws from call 0, so one
            # stream given to every epoch would repeat its draws
            epoch_rng = sample_rng.spawn(epoch)
            logits, traces, currents = self.model_forward(x, self.mode, epoch_rng,
                                                          scratch=scratch, membrane=True)
            l_cls, l_mem, loss = self._losses(logits, traces, y)
            # Checked before scoring: predict_logits would raise ValueError on
            # the same non-finite currents.
            loss_finite = bool(np.isfinite(loss.value))
            if not (loss_finite and all(_all_finite(I.value) for I in currents)):
                layer, quantity = _first_non_finite(currents, traces, l_cls)
                raise TrainingDivergedError(epoch, self.history_, layer, quantity, loss_finite)
            rates, train_acc = diagnostics([tr.o.value for tr in traces], logits.value, y)
            test_acc = self.score(x_test, y_test) if x_test is not None else float("nan")
            self.history_.append(EpochDiagnostics(
                epoch=epoch, loss_cls=float(l_cls.value), loss_mem=float(l_mem.value),
                loss_total=float(loss.value), train_acc=train_acc, test_acc=test_acc,
                l2_norms=[tr.l2 for tr in traces], spike_rates=rates))
            autograd.backward(loss)
            self.registry_.sgd_step(self.lr, self.momentum)
        # the last epoch's graph and the work arrays die here, so the idle
        # buffers hold all their memory, and a fit, which started with none,
        # keeps none once it returns
        del logits, traces, currents, l_cls, l_mem, loss, scratch
        numerics.release_idle()
        return self

    # -- inference ----------------------------------------------------------

    def predict_logits(self, x) -> Array:
        """Logits [T, B, K] of the expectation-mode forward, built without a tape.

        The batch is cut into blocks of samples, sized by the model's shape
        alone (:meth:`_block_samples`), and each block runs the whole chain on
        its own slice: synapse product, finiteness test, spikes-only layer
        (:func:`neuron.mpe_psn_spikes` or :func:`neuron.lif_sequential`)
        and readout, written into its slice of the logits.  So no [T, B, N]
        array is formed, and the logits are bit-identical to
        ``model_forward(x, "expectation")[0].value``.  Several blocks run
        on a :class:`numerics.WorkerPool` of ``MPE_PSN_WORKERS`` workers
        (default: the usable cores), opened for this call; one block runs
        inline.  Every block does the same arithmetic whichever worker
        takes it, so the logits are the same for any worker count.  A
        layer whose current is not finite (finite input can overflow)
        raises ValueError naming the first such layer in forward order.
        """
        self._check_fitted()
        x = check_input(x, "x")
        return self._blocked_logits(x, numerics.resolve_workers())

    def _blocked_logits(self, x: Array, workers: int) -> Array:
        """:meth:`predict_logits` of a checked input on ``workers`` workers.

        The batch is cut into blocks of :meth:`_block_samples` samples, the
        remainder joining the last block, so no block is smaller than that
        unless the whole batch is.
        """
        T, B, _ = x.shape
        size = self._block_samples(T)
        bounds = [k * size for k in range(max(B // size, 1))] + [B]
        n = len(bounds) - 1
        logits = np.empty((T, B, self.readout_.value.shape[1]))
        bad = [None] * n
        err = np.geterr()  # numpy keeps it per thread; pool threads take the caller's

        def block_range(lo: int, hi: int) -> None:
            with np.errstate(**err):
                for k in range(lo, hi):
                    bad[k] = self._block_logits(x, bounds[k], bounds[k + 1], logits)

        with numerics.WorkerPool(workers) if n > 1 else contextlib.nullcontext() as pool:
            numerics.map_ranges(pool, n, block_range)
        bad = [i for i in bad if i is not None]
        if bad:
            raise ValueError(f"layer {min(bad)} current I has non-finite entries (NaN or Inf)")
        return logits

    def _block_samples(self, T: int) -> int:
        """Samples per predict block: ``numerics.PREDICT_BLOCK_VALUES``
        values per [T, samples, width] array at the widest layer, but no
        fewer than ``numerics.MATMUL_MIN_BLOCK_ROWS`` product rows."""
        width = max(W.value.shape[0] for W in (*self.synapses_, self.readout_))
        return max(numerics.PREDICT_BLOCK_VALUES // (T * width),
                   -(-numerics.MATMUL_MIN_BLOCK_ROWS // T))

    def _block_logits(self, x: Array, lo: int, hi: int, logits: Array) -> int | None:
        """Write the logits of samples [lo, hi) of ``x`` into ``logits[:, lo:hi]``.

        Returns the index of the first layer whose current is not finite,
        leaving the slice unwritten, or None.
        """
        o = x[:, lo:hi]
        for i, (W, v_th) in enumerate(zip(self.synapses_, self.v_ths_)):
            I = numerics.matmul(
                _presynaptic(o, W.value, self.synaptic_delay, neuron.shift_time), W.value
            )
            if not _all_finite(I):
                return i
            params = neuron.NeuronParams(tau_m=self.tau_m, v_th=float(v_th.value),
                                         alpha=self.alpha)
            if self.neuron_kind == "mpe_psn":
                o = neuron.mpe_psn_spikes(I, params)
            else:
                o = neuron.lif_sequential(I, params)[1]
        logits[:, lo:hi] = numerics.matmul(o, self.readout_.value)
        return None

    def predict(self, x) -> Array:
        return classes(self.predict_logits(x))

    def score(self, x, y) -> float:
        """Accuracy on ``x`` against ``y``, one learnt class label per sample."""
        preds = self.predict(x)
        return float(np.mean(preds == losses.check_labels(y, preds.size, "y", self.n_classes_)))

    def _check_fitted(self) -> None:
        if not hasattr(self, "registry_"):
            raise RuntimeError("this SpikingClassifier instance is not fitted yet")
