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

from dataclasses import dataclass, field

import numpy as np

from . import autograd, losses, neuron, numerics
from .autograd import ParamRegistry, Var
from .losses import MemLossConfig
from .numerics import Array, Rng, ShapeMismatchError

NEURON_KINDS = ("mpe_psn", "lif_sequential")


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; names where it first did and carries the
    diagnostics gathered so far.

    ``layer`` is the index of the spiking layer holding the first non-finite
    quantity (None when every layer is finite and the loss itself is not),
    and ``quantity`` names that quantity.
    """

    def __init__(self, epoch: int, history, layer: int | None, quantity: str):
        where = quantity if layer is None else f"layer {layer} {quantity}"
        super().__init__(f"non-finite loss at epoch {epoch}: first non-finite value in {where}")
        self.epoch = epoch
        self.history = list(history)
        self.layer = layer
        self.quantity = quantity


@dataclass
class LinearSynapse:
    """Dense synaptic weights as a tape parameter."""

    W: Var

    @property
    def n_in(self) -> int:
        return self.W.shape[0]

    @property
    def n_out(self) -> int:
        return self.W.shape[1]


def synapse_forward(o_prev: Var, syn: LinearSynapse, delay: int = 0) -> Var:
    """Input current from presynaptic spikes: I = W . o (same step or delayed).

    delay=1 uses the previous step's spikes with an empty history at t = 0.
    """
    o_prev = _presynaptic(autograd.as_var(o_prev), syn, delay, autograd.shift_time)
    return autograd.matmul(o_prev, syn.W)


def _presynaptic(o_prev, syn: LinearSynapse, delay: int, shift_time):
    """``o_prev`` checked against the synapse's width, delayed by ``shift_time``
    when ``delay`` is 1; shared by the tape forward and inference."""
    if delay not in (0, 1):
        raise ValueError(f"synaptic delay must be 0 or 1, got {delay}")
    if o_prev.shape[-1] != syn.n_in:
        raise ShapeMismatchError(
            f"synapse expects {syn.n_in} inputs, got {o_prev.shape[-1]}"
        )
    return shift_time(o_prev) if delay == 1 else o_prev


@dataclass
class TapeTrace:
    """Tape outputs of one spiking layer plus every value of its forward pass."""

    u_hat: Var
    u: Var
    o: Var
    values: neuron.ParallelTrace


def _reset_backward(g_u, g_o, h: Array, o: Array, sg: Array):
    """Backward of o = spike(h) and u = h * (1 - o) for given output gradients.

    Returns the gradient of h and the surrogate-weighted spike gradient (the
    threshold receives its negation); None stands for no gradient.  Terms
    are summed as the elementwise tape would sum them, so the bits match.
    """
    g_h = None
    if g_u is not None:
        g_o = autograd.add_grads(g_o, -(g_u * h))
        g_h = g_u * (1.0 - o)
    weighted = None if g_o is None else g_o * sg
    return autograd.add_grads(g_h, weighted), weighted


def _threshold_grad(weighted, v_th: Var):
    return None if weighted is None else autograd.unbroadcast(-weighted, v_th.shape)


def mpe_psn_tape_forward(
    I: Var, v_th: Var, tau_m: float, alpha: float, mode: str, rng: Rng | None
) -> TapeTrace:
    """Differentiable parallel forward pass: one tape node over
    :func:`neuron.mpe_psn_forward`, with a closed-form backward.

    Sampled mode treats the Bernoulli draw as a constant (straight-through:
    u_hat passes gradient (1 - b) to I); expectation mode is fully
    differentiable through the spike probability.  Gradient terms are added
    in the order of the elementwise tape they replace (sigmoid, (1 - b) * I,
    shift, spike, reset), so the gradients match it bit for bit whenever
    each output has at most one consumer outside the layer.
    """
    params = neuron.NeuronParams(tau_m=tau_m, v_th=float(v_th.value), alpha=alpha)
    tr = neuron.mpe_psn_forward(I.value, params, mode, rng)
    autograd.log_spikes(tr.o)
    if mode == "sampled":
        autograd.log_spikes(tr.b)  # a flipped draw is a discontinuity as well

    def backward(g_u_hat, g_u, g_o):
        sg = autograd.surrogate_grad(tr.h, params.v_th, alpha)
        g_h, weighted = _reset_backward(g_u, g_o, tr.h, tr.o, sg)
        if g_h is not None:
            g_hist = np.zeros_like(g_h)
            g_hist[:-1] = g_h[1:] * tau_m
            g_u_hat = autograd.add_grads(g_u_hat, g_hist)
        g_I = g_h
        if g_u_hat is not None:
            g_I = autograd.add_grads(g_I, g_u_hat * (1.0 - tr.b))
            if mode == "expectation":
                g_I = g_I + -(g_u_hat * tr.I) * tr.P * (1.0 - tr.P)
        return g_I, _threshold_grad(weighted, v_th)

    u_hat, u, o = autograd.multi_output((tr.u_hat, tr.u, tr.o), (I, v_th), backward)
    return TapeTrace(u_hat=u_hat, u=u, o=o, values=tr)


def lif_tape_forward(I: Var, v_th: Var, tau_m: float, alpha: float) -> tuple[Var, Var]:
    """Differentiable sequential LIF recurrence (backprop through time): one
    tape node over :func:`neuron.lif_sequential`, with a closed-form backward
    that walks time in reverse, adding terms in the order of the per-step
    elementwise tape it replaces (bit for bit, as for the parallel layer)."""
    params = neuron.NeuronParams(tau_m=tau_m, v_th=float(v_th.value), alpha=alpha)
    u, o = neuron.lif_sequential(I.value, params)
    autograd.log_spikes(o)

    def backward(g_u, g_o):
        h = tau_m * neuron.shift_time(u) + I.value  # pre-reset membrane, as the loop formed it
        sg = autograd.surrogate_grad(h, params.v_th, alpha)
        g_I = np.zeros_like(h)
        g_h = g_v_th = None
        for t in reversed(range(h.shape[0])):
            g_u_t = autograd.add_grads(
                None if g_u is None else g_u[t], None if g_h is None else g_h * tau_m
            )
            g_h, weighted = _reset_backward(
                g_u_t, None if g_o is None else g_o[t], h[t], o[t], sg[t]
            )
            g_v_th = autograd.add_grads(g_v_th, _threshold_grad(weighted, v_th))
            if g_h is not None:
                g_I[t] = g_h
        return g_I, g_v_th

    return autograd.multi_output((u, o), (I, v_th), backward)


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


def diagnostics(traces, logits: Array, labels) -> tuple[list[float], list[float], float]:
    """Per-layer estimation L2 norm, per-layer spike rate (%), and accuracy.

    The L2 norm is over all elements of (u_hat - u); the spike rate is
    100 * mean(o); accuracy comes from the argmax of time-averaged logits.
    """
    l2_norms = [float(numerics.l2_norm(tr.u_hat - tr.u)) for tr in traces]
    rates = [100.0 * float(np.mean(tr.o)) for tr in traces]
    acc = accuracy(logits, labels)
    return l2_norms, rates, acc


def _first_non_finite(currents, traces, kappas, mem_cfg, l_cls) -> tuple[int | None, str]:
    """(layer, quantity) of the first non-finite value in forward order.

    Within a layer: its current I, then u_hat, then its membrane loss term,
    recomputed here from the layer's trace and ``kappas`` (empty for LIF,
    which has no such term).  With every layer finite, the classification
    loss or, failing that, the blended total.  Called only once the loss is
    non-finite, so training never pays for the search.
    """
    for i, (I, tr) in enumerate(zip(currents, traces)):
        for name, value in (("current I", I.value), ("u_hat", tr.u_hat.value)):
            if not np.all(np.isfinite(value)):
                return i, name
        if i < len(kappas):
            term = losses.mem_loss(tr.u_hat, tr.u, kappas[i], mem_cfg)
            if not np.isfinite(term.value):
                return i, "membrane loss term"
    if not np.isfinite(l_cls.value):
        return None, "classification loss"
    return None, "total loss"


def check_input(x, name: str) -> Array:
    """A [T, B, N] float tensor with only finite entries, or an error naming it."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeMismatchError(f"{name}: expected [T, B, N] input, got shape {x.shape}")
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise ValueError(f"{name} has {bad} non-finite entries (NaN or Inf)")
    return x


def accuracy(logits: Array, labels) -> float:
    preds = np.argmax(np.mean(logits, axis=0), axis=1)
    return float(np.mean(preds == np.asarray(labels)))


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
        self.hidden_sizes = tuple(hidden_sizes)
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

    _PARAM_NAMES = (
        "hidden_sizes", "neuron_kind", "tau_m", "v_th_init", "alpha", "mode",
        "synaptic_delay", "lam", "kappa_axis", "kappa_init", "epochs", "lr",
        "momentum", "seed",
    )

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
        neuron.NeuronParams(tau_m=self.tau_m, v_th=self.v_th_init, alpha=self.alpha)
        self.mem_cfg_ = MemLossConfig(
            lam=self.lam, kappa_axis=self.kappa_axis, kappa_init=self.kappa_init
        )
        self.registry_ = ParamRegistry()
        self.n_classes_ = n_classes
        self.n_in_ = n_in
        init_rng = Rng(self.seed).spawn(0)
        widths = [n_in, *self.hidden_sizes]
        self.synapses_ = []
        self.v_ths_ = []
        self.kappas_ = []
        for i, (np_, n) in enumerate(zip(widths[:-1], widths[1:])):
            bound = float(np.sqrt(1.0 / np_))
            W = Var(init_rng.spawn(2 * i + 1).uniform_tensor((np_, n), -bound, bound))
            self.registry_.register(f"w_{i}", W)
            syn = LinearSynapse(W=W)
            self.synapses_.append(syn)
            v_th = Var(np.asarray(float(self.v_th_init)))
            self.registry_.register(f"v_th_{i}", v_th)
            self.v_ths_.append(v_th)
            kappa = Var(self.mem_cfg_.init_kappa(T, n))
            self.registry_.register(f"kappa_{i}", kappa, clamp_min=0.0)
            self.kappas_.append(kappa)
        bound = float(np.sqrt(1.0 / widths[-1]))
        W_out = Var(init_rng.spawn(999).uniform_tensor((widths[-1], n_classes), -bound, bound))
        self.registry_.register("w_out", W_out)
        self.readout_ = LinearSynapse(W=W_out)

    # -- forward ------------------------------------------------------------

    def model_forward(self, x, mode: str | None = None, rng: Rng | None = None):
        """Logits Var [T, B, K] and the tape trace of every spiking layer."""
        x = autograd.as_var(np.asarray(x, dtype=np.float64))
        mode = self.mode if mode is None else mode
        traces: list[TapeTrace] = []
        currents: list[Var] = []
        o_prev = x
        for i, syn in enumerate(self.synapses_):
            I = synapse_forward(o_prev, syn, self.synaptic_delay)
            currents.append(I)
            if self.neuron_kind == "mpe_psn":
                layer_rng = rng.spawn(i) if rng is not None else None
                tr = mpe_psn_tape_forward(
                    I, self.v_ths_[i], self.tau_m, self.alpha, mode, layer_rng
                )
                traces.append(tr)
                o_prev = tr.o
            else:
                u, o = lif_tape_forward(I, self.v_ths_[i], self.tau_m, self.alpha)
                values = neuron.ParallelTrace(I=I.value, P=o.value, b=o.value, u_hat=u.value,
                                              h=u.value, u=u.value, o=o.value)
                traces.append(TapeTrace(u_hat=u, u=u, o=o, values=values))
                o_prev = o
        logits = synapse_forward(o_prev, self.readout_, delay=0)
        return logits, traces, currents

    # -- training -----------------------------------------------------------

    def fit(self, x, y, x_test=None, y_test=None):
        x = check_input(x, "x")
        if x_test is not None:
            check_input(x_test, "x_test")
        y = np.asarray(y, dtype=np.int64)
        n_classes = int(y.max()) + 1 if y.size else 2
        n_classes = max(n_classes, 2)
        self._build(x.shape[0], x.shape[2], n_classes)
        sample_rng = Rng(self.seed).spawn(1)
        self.history_ = []
        use_mem = self.lam > 0.0 and self.neuron_kind == "mpe_psn"
        for epoch in range(1, self.epochs + 1):
            logits, traces, currents = self.model_forward(x, self.mode, sample_rng)
            l_cls = losses.cls_loss(logits, y)
            l_mem = Var(np.asarray(0.0))
            if self.neuron_kind == "mpe_psn":
                for tr, kappa in zip(traces, self.kappas_):
                    l_mem = l_mem + losses.mem_loss(tr.u_hat, tr.u, kappa, self.mem_cfg_)
            loss = losses.total_loss(l_cls, l_mem if use_mem else autograd.detach(l_mem), self.lam)
            l2_norms, rates, train_acc = diagnostics(
                [tr.values for tr in traces], logits.value, y
            )
            test_acc = self.score(x_test, y_test) if x_test is not None else float("nan")
            diag = EpochDiagnostics(
                epoch=epoch,
                loss_cls=float(l_cls.value),
                loss_mem=float(l_mem.value),
                loss_total=float(loss.value),
                train_acc=train_acc,
                test_acc=test_acc,
                l2_norms=l2_norms,
                spike_rates=rates,
            )
            if not np.isfinite(diag.loss_total):
                kappas = self.kappas_ if self.neuron_kind == "mpe_psn" else ()
                layer, quantity = _first_non_finite(currents, traces, kappas,
                                                    self.mem_cfg_, l_cls)
                raise TrainingDivergedError(epoch, self.history_, layer, quantity)
            self.history_.append(diag)
            self.registry_.zero_grad()
            autograd.backward(loss)
            self.registry_.sgd_step(self.lr, self.momentum)
        return self

    # -- inference ----------------------------------------------------------

    def predict_logits(self, x) -> Array:
        """Logits [T, B, K] of the expectation-mode forward, built without a tape.

        Each spiking layer keeps only its spikes (:func:`neuron.mpe_psn_spikes`
        or :func:`neuron.lif_sequential`), so the logits are bit-identical to
        ``model_forward(x, "expectation")[0].value`` at a fraction of its
        memory traffic.
        """
        self._check_fitted()
        o = check_input(x, "x")
        for syn, v_th in zip(self.synapses_, self.v_ths_):
            I = numerics.matmul(
                _presynaptic(o, syn, self.synaptic_delay, neuron.shift_time), syn.W.value
            )
            params = neuron.NeuronParams(tau_m=self.tau_m, v_th=float(v_th.value),
                                         alpha=self.alpha)
            if self.neuron_kind == "mpe_psn":
                o = neuron.mpe_psn_spikes(I, params)
            else:
                o = neuron.lif_sequential(I, params)[1]
        return numerics.matmul(o, self.readout_.W.value)

    def predict(self, x) -> Array:
        logits = self.predict_logits(x)
        return np.argmax(np.mean(logits, axis=0), axis=1)

    def score(self, x, y) -> float:
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def _check_fitted(self) -> None:
        if not hasattr(self, "registry_"):
            raise RuntimeError("this SpikingClassifier instance is not fitted yet")


def train(model: SpikingClassifier, train_batch, test_batch=None):
    """Fit ``model`` on a labeled batch and return the per-epoch diagnostics."""
    if test_batch is not None:
        model.fit(train_batch.x, train_batch.y, test_batch.x, test_batch.y)
    else:
        model.fit(train_batch.x, train_batch.y)
    return model.history_

