"""Property suites behind the `verify` subcommand (and the test suite).

Each check runs many randomized trials against an independent oracle (the
sequential recurrence, the fixed-order matmul, scipy's ``expit``, the
binomial law, the exact law of the table draw, the training forward, or
central finite differences) and reports failures with enough context to
reproduce them.  The finite differences are taken of the training loss of
small classifiers, through ``SpikingClassifier.model_forward`` and the loss
``fit`` builds, so the gradient checked is the one ``fit`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd, datagen, losses, network, neuron, numerics
from .autograd import Var
from .numerics import Rng


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: int
    max_err: float = 0.0
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name}: {self.trials} trials, {self.failures} failures"
        if self.max_err:
            out += f", max_err={self.max_err:.3g}"
        return out

    def fail(self, detail: str) -> None:
        """Count one failure; keep the first five details."""
        self.failures += 1
        if len(self.details) < 5:
            self.details.append(detail)

    def csv_row(self) -> str:
        return f"{self.name},{self.trials},{self.failures},{format(self.max_err, '.17g')},{'pass' if self.passed else 'fail'}"


CSV_HEADER = "check,trials,failures,max_err,status"


def _random_case(rng: Rng, trial: int):
    """Random (I, params) from the acceptance input family."""
    r = rng.spawn(trial)
    dims = r.uniforms(3)
    T = 1 + int(dims[0] * 8)
    B = 1 + int(dims[1] * 4)
    N = 1 + int(dims[2] * 64)
    I = r.spawn(1).uniform_tensor((T, B, N), -2.0, 2.0)
    return I, neuron.NeuronParams()


def check_t0_exactness(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Row 0 of the parallel pass must equal the sequential oracle exactly."""
    rng = Rng(seed, stream=101)
    res = CheckResult("t0_exactness", trials, 0)
    for trial in range(trials):
        I, params = _random_case(rng, trial)
        u_seq, o_seq = neuron.lif_sequential(I, params)
        tr = neuron.mpe_psn_forward(I, params, "sampled", rng.spawn(10_000 + trial))
        if not (np.array_equal(tr.u[0], u_seq[0]) and np.array_equal(tr.o[0], o_seq[0])):
            res.fail(f"trial {trial}: shape {I.shape}, seed {seed}")
    return res


def check_teacher_forced(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Teacher forcing must reproduce the sequential oracle at every step."""
    rng = Rng(seed, stream=102)
    res = CheckResult("teacher_forced_equivalence", trials, 0)
    for trial in range(trials):
        I, params = _random_case(rng, trial)
        u_seq, o_seq = neuron.lif_sequential(I, params)
        u, o = neuron.teacher_forced_forward(I, u_seq, params)
        if not (np.array_equal(u, u_seq) and np.array_equal(o, o_seq)):
            res.fail(f"trial {trial}: shape {I.shape}, seed {seed}")
    return res


def check_reset_law(trials: int = 200, seed: int = 0) -> CheckResult:
    """Fired positions reset to 0, silent ones keep h; spikes are binary:
    the spikes of the sampled parallel pass and of the oracle, and the
    sampled draws, are stored as bool."""
    rng = Rng(seed, stream=103)
    res = CheckResult("reset_law_and_binary_spikes", trials, 0)
    for trial in range(trials):
        I, params = _random_case(rng, trial)
        tr = neuron.mpe_psn_forward(I, params, "sampled", rng.spawn(20_000 + trial))
        u_seq, o_seq = neuron.lif_sequential(I, params)
        ok = (
            tr.o.dtype == tr.b.dtype == o_seq.dtype == np.bool_
            and np.all(tr.u[tr.o] == 0.0)
            and np.array_equal(tr.u[~tr.o], tr.h[~tr.o])
        )
        if not ok:
            res.fail(f"trial {trial}: shape {I.shape}, seed {seed}")
    return res


# The spiking layers a gradient graph runs, by the classifier settings that
# select them: the parallel layer in each estimator mode, and the LIF layer.
LAYER_KINDS = {"sampled": {"mode": "sampled"}, "expectation": {"mode": "expectation"},
               "lif": {"neuron_kind": "lif_sequential"}}

# So small that no membrane value lies in the surrogate's support, which
# makes the tape gradient the exact derivative of the loss with every spike
# held fixed.
GRADIENT_ALPHA = 1e-6


def _random_chain(r: Rng, trial: int):
    """Training loss of a small ``SpikingClassifier``, as ``fit`` forms it:
    ``model_forward(x, membrane=True)``, then ``SpikingClassifier._losses``.

    The model is built for the trial's sizes, with weights and kappas drawn
    from ``r``.  LIF has no membrane term; a fixed random weighting of u is
    added to its blend instead, so that the gradient through the membrane
    history (backprop through time), which at this alpha passes no spike,
    is differentiated.  The layer kind, the synaptic delay, the depth and
    the kappa axis cycle with ``trial``, so any 24 consecutive graphs hold
    every combination.  Returns the loss closure and its parameters: the
    weights and thresholds.

    A central difference of the whole loss resolves a derivative only to
    about eps * loss / step (1e-11 here), so no term may be scaled down
    toward that floor: lambda is 0.5, not training's 0.01, and kappa is
    not among the parameters, since its gradient, lambda times the mean of
    (u_hat - u)^2, is quadratic in a difference that can be small
    (``test_losses`` checks it alone).
    """
    kind = tuple(LAYER_KINDS)[trial % 3]
    delay = trial // 3 % 2
    depth = 1 + trial // 6 % 2
    T, B, n_in, *hidden = (1 + int(d * 4) for d in r.spawn(1).uniforms(3 + depth))
    K = 2 + int(r.spawn(4).uniforms(1)[0] * 2)
    model = network.SpikingClassifier(**LAYER_KINDS[kind], hidden_sizes=hidden,
                                      alpha=GRADIENT_ALPHA, synaptic_delay=delay, lam=0.5,
                                      kappa_axis=losses.KAPPA_AXES[trial // 12 % 2])
    model._build(T, n_in, K)
    x = r.spawn(2).uniform_tensor((T, B, n_in), -2.0, 2.0)
    labels = (r.spawn(3).uniforms(B) * K).astype(np.int64)
    for i, W in enumerate(model.synapses_):
        W.value = r.spawn(10 + i).uniform_tensor(W.shape, -1.5, 1.5)
    for i, kappa in enumerate(model.kappas_):
        kappa.value = r.spawn(20 + i).uniform_tensor(kappa.shape, 0.0, 2.0)
    model.readout_.value = r.spawn(30).uniform_tensor(model.readout_.shape, -1.5, 1.5)
    u_weights = [r.spawn(50 + i).uniform_tensor((T, B, n), -1.0, 1.0) for i, n in enumerate(hidden)]

    def fn() -> Var:
        logits, traces, _ = model.model_forward(x, rng=r.spawn(40), membrane=True)
        loss = model._losses(logits, traces, labels)[2]
        if kind == "lif":
            loss = loss + sum(autograd.vsum(tr.u * w) for tr, w in zip(traces, u_weights))
        return loss

    return fn, model.synapses_ + [model.readout_] + model.v_ths_


def check_gradients(graphs: int = 100, seed: int = 0, step: float = 1e-5, tol: float = 1e-4) -> CheckResult:
    """Tape gradients of the training loss vs central finite differences.

    Each graph is a :func:`_random_chain`: a small classifier's
    ``model_forward`` and ``fit``'s loss (for LIF, plus a weighting of u),
    so the closed-form backwards that ``fit`` runs are the ones
    differentiated.  A coordinate whose perturbation flips a spike or a
    Bernoulli draw is a failure, not a skip: the loss is not differentiable
    there, so the graph proves nothing.
    """
    rng = Rng(seed, stream=104)
    res = CheckResult("gradient_vs_finite_difference", graphs, 0)
    for trial in range(graphs):
        fn, params = _random_chain(rng.spawn(trial), trial)
        rel, skipped = autograd.finite_diff_check(fn, params, step)
        res.max_err = max(res.max_err, rel)
        if rel >= tol or skipped:
            res.fail(f"graph {trial}: rel={rel:.3g}, skipped={skipped}")
    return res


def surrogate_chain_grad(kind: str) -> float:
    """d o / d w of the one-neuron, one-step classifier o = spike(w * x) with
    spiking layer ``kind``, at x = 1, w = 1.2, v_th = 1 and alpha = 1: the
    surrogate at 1.2 times x, 0.8."""
    model = network.SpikingClassifier(**LAYER_KINDS[kind], hidden_sizes=(1,))
    model._build(1, 1, 2)
    w = model.synapses_[0]
    w.value[...] = 1.2
    _, traces, _ = model.model_forward(np.ones((1, 1, 1)), rng=Rng(0))
    autograd.backward(autograd.vsum(traces[0].o))
    return float(w.grad[0, 0])


def check_surrogate_chain() -> CheckResult:
    """One-neuron, one-step chain has gradient surrogate(w*x) * x = 0.8
    exactly through every fused layer kind (one trial)."""
    grads = {kind: surrogate_chain_grad(kind) for kind in LAYER_KINDS}
    res = CheckResult("surrogate_chain_hand_value", 1, 0,
                      max_err=max(abs(got - 0.8) for got in grads.values()))
    wrong = [f"{kind} layer got {got!r}" for kind, got in grads.items() if got != 0.8]
    if wrong:
        res.fail("expected 0.8: " + ", ".join(wrong))
    return res


# train_ref's products (M, K, N): T*B = 8*205 rows, a 16 -> 32 -> 2 network,
# the layer forwards, the weight and input gradients, and a 4096-sample predict
TRAIN_REF_MATMUL_SHAPES = (
    (1640, 16, 32), (16, 1640, 32), (1640, 32, 2), (32, 1640, 2), (1640, 2, 32),
    (32768, 16, 32),
)


def check_matmul_vs_fixed_order(trials: int = 1000, seed: int = 0) -> CheckResult:
    """BLAS ``matmul`` against the fixed-order oracle, within a stated tolerance.

    Contract, elementwise: |matmul(a, b) - matmul_fixed_order(a, b)|
    <= K * eps * (|a| @ |b|).  Each product lies within about K * eps / 2 *
    (|a| @ |b|) of the exact one whatever its summation order, so two orders
    differ by at most twice that.  Shapes: ``trials`` random (M, K, N) with
    each extent in 1..64, then :data:`TRAIN_REF_MATMUL_SHAPES`.  ``max_err``
    is the worst ratio of the difference to the bound.
    """
    rng = Rng(seed, stream=105)
    shapes = [
        tuple(1 + int(d * 64) for d in rng.spawn(trial).uniforms(3))
        for trial in range(trials)
    ] + list(TRAIN_REF_MATMUL_SHAPES)
    res = CheckResult("matmul_vs_fixed_order", len(shapes), 0)
    eps = np.finfo(np.float64).eps
    for trial, (m, k, n) in enumerate(shapes):
        r = rng.spawn(50_000 + trial)
        a = r.spawn(1).uniform_tensor((m, k), -2.0, 2.0)
        b = r.spawn(2).uniform_tensor((k, n), -2.0, 2.0)
        err = np.abs(numerics.matmul(a, b) - numerics.matmul_fixed_order(a, b))
        bound = k * eps * (np.abs(a) @ np.abs(b))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = float(np.max(np.where(err == 0.0, 0.0, err / bound)))
        res.max_err = max(res.max_err, ratio)
        if not ratio <= 1.0:
            res.fail(f"trial {trial}: shape {m}x{k}x{n}, err/bound={ratio:.3g}, seed {seed}")
    return res


# The largest gap between ``numerics.sigmoid`` and ``scipy.special.expit``
# measured over 2e8 inputs uniform on [-745, 40] (numpy 2.4.6, scipy 1.17.1,
# x86-64), in units in the last place of expit's value.  1.9% of inputs
# differ at all; the 4-ulp gaps lie near -37.
SIGMOID_ULP_BOUND = 4.0
SIGMOID_EDGE_INPUTS = (-np.inf, -710.0, 0.0, 710.0, np.inf, np.nan)


def check_sigmoid_vs_expit(trials: int = 1000, seed: int = 0) -> CheckResult:
    """``numerics.sigmoid`` against the oracle ``scipy.special.expit``, within a
    stated tolerance.

    Contract, elementwise: |sigmoid(x) - expit(x)| <= 4 * spacing(expit(x)),
    and NaN where expit gives NaN, nowhere else.  Each trial draws 1024
    inputs uniform on [-750, 750], where most saturate (both forms give
    exactly 0 below about -709.8), and 1024 on [-40, 40], where the two
    forms differ most, and appends :data:`SIGMOID_EDGE_INPUTS`.  ``max_err``
    is the worst gap in ulp.
    """
    from scipy.special import expit  # here, so that no other subcommand loads scipy
    rng = Rng(seed, stream=107)
    res = CheckResult("sigmoid_vs_expit", trials, 0)
    for trial in range(trials):
        r = rng.spawn(trial)
        x = np.concatenate([r.spawn(1).uniform_tensor((1024,), -750.0, 750.0),
                            r.spawn(2).uniform_tensor((1024,), -40.0, 40.0),
                            SIGMOID_EDGE_INPUTS])
        want, got = expit(x), numerics.sigmoid(x)
        with np.errstate(invalid="ignore"):
            ulps = float(np.nanmax(np.abs(got - want) / np.spacing(want)))
        res.max_err = max(res.max_err, ulps)
        if not (ulps <= SIGMOID_ULP_BOUND
                and np.array_equal(np.isnan(got), np.isnan(want))):
            res.fail(f"trial {trial}: {ulps:.3g} ulp from expit "
                     f"(bound {SIGMOID_ULP_BOUND:g}) or NaN mismatch, seed {seed}")
    return res


# The largest gap between the expectation estimate I / (1 + exp(I)) and
# I * expit(-I), measured over 8e6 inputs uniform on [-750, 750] and
# [-40, 40] (numpy 2.4.6, scipy 1.17.1, x86-64), in units in the last place
# of the reference.  The old form (1 - sigmoid(I)) * I cancels in 1 - P: it
# lay up to 12 ulp off over 4e6 inputs on [-2, 2] and gives 0 from I = 37.
ESTIMATE_ULP_BOUND = 4.0
ESTIMATE_EDGE_INPUTS = (-np.inf, -746.0, -0.0, 0.0, 709.8, 710.0, np.inf, np.nan)


def check_expectation_estimate(trials: int = 1000, seed: int = 0) -> CheckResult:
    """The expectation-mode estimate u_hat = (1 - P) * I, P = sigmoid(I), of
    ``neuron.mpe_psn_forward`` against the oracle I * ``scipy.special.expit``(-I),
    within a stated tolerance.

    Contract, elementwise: |u_hat - I * expit(-I)| <= 4 * |spacing(I *
    expit(-I))| (equal values, infinities included, count as 0 ulp), and
    NaN where the reference is NaN, nowhere else.  Each trial draws 1024
    inputs uniform on [-750, 750], where exp(I) overflows above about
    709.78 and both forms give 0, and 1024 on [-40, 40], and appends
    :data:`ESTIMATE_EDGE_INPUTS`, as one [1, 1, n] current: the pass forms
    the estimate of every value, and its trace holds it.  ``max_err`` is
    the worst gap in ulp.
    """
    from scipy.special import expit  # here, so that no other subcommand loads scipy
    rng = Rng(seed, stream=110)
    res = CheckResult("expectation_estimate_vs_expit", trials, 0)
    params = neuron.NeuronParams()
    for trial in range(trials):
        r = rng.spawn(trial)
        x = np.concatenate([r.spawn(1).uniform_tensor((1024,), -750.0, 750.0),
                            r.spawn(2).uniform_tensor((1024,), -40.0, 40.0),
                            ESTIMATE_EDGE_INPUTS])
        with np.errstate(invalid="ignore"):  # inf / inf and inf * 0 are NaN
            want = x * expit(-x)
            got = neuron.mpe_psn_forward(x.reshape(1, 1, -1), params, "expectation").u_hat
            got = got.reshape(-1)
            ulps = np.where(got == want, 0.0, np.abs(got - want) / np.abs(np.spacing(want)))
        worst = float(np.nanmax(ulps))
        res.max_err = max(res.max_err, worst)
        if not (worst <= ESTIMATE_ULP_BOUND
                and np.array_equal(np.isnan(got), np.isnan(want))):
            res.fail(f"trial {trial}: {worst:.3g} ulp from I * expit(-I) "
                     f"(bound {ESTIMATE_ULP_BOUND:g}) or NaN mismatch, seed {seed}")
    return res


# The probabilities at which the draw's frequency is checked: both ends of
# the range, where a coarse or misplaced grid shows first, and the middle.
BERNOULLI_PROBABILITIES = (2.0**-10, 0.25, 0.5, 0.75, 1.0 - 2.0**-10)
BERNOULLI_DRAWS = 1 << 20
BERNOULLI_SIGMAS = 5.0


def _blocked_draw(rng: Rng, n: int, block_chunks: int, pool) -> np.ndarray:
    """The n 16-bit integers of ``rng.draw_blocks`` over ``pool``, in one array."""
    out = np.empty(n, np.uint16)

    def put(lo: int, hi: int, k: np.ndarray) -> None:
        out[lo:hi] = k

    rng.draw_blocks(n, block_chunks, put, pool)
    return out


def check_bernoulli_draws(seed: int = 0) -> CheckResult:
    """``Rng.uniforms`` as the Bernoulli draw ``U < P``, within a stated
    tolerance, and the sampled pass's 16-bit draw, bit for bit.  Both take
    their words from the draw's keyed PCG64DXSM stream: the uniforms its
    32-bit halves times 2^-32, the sampled pass its 16-bit quarters.

    Contract, distributional: at each P of :data:`BERNOULLI_PROBABILITIES`,
    the frequency of U < P over 2^20 uniforms lies within 5 binomial
    standard deviations, sqrt(P (1 - P) / 2^20), of P, and every uniform
    is a multiple of 2^-32 in [0, 1).  Bitwise, across worker counts: at n
    on and around the chunk edges, the 16-bit integers of
    ``Rng.draw_blocks``, the pooled draw, in blocks of
    ``neuron.MPE_BLOCK_CHUNKS`` chunks (5 * CHUNK + 17 crosses a block
    edge) without a pool and over pools of 1, 2 and 3 workers equal one
    whole-array draw (one block of every chunk, no pool), and the draws b
    of a sampled ``neuron.mpe_psn_forward`` over n values are the same over
    those pools.  ``max_err`` is the worst frequency gap in standard
    deviations.
    """
    rng = Rng(seed, stream=108)
    C, n = Rng.CHUNK, BERNOULLI_DRAWS
    sizes = (1, C - 1, C, C + 1, 2 * C, 5 * C + 17)
    res = CheckResult("bernoulli_draws", len(BERNOULLI_PROBABILITIES) + len(sizes), 0)
    for i, p in enumerate(BERNOULLI_PROBABILITIES):
        u = rng.spawn(i).uniforms(n)
        gap = abs(np.count_nonzero(u < p) / n - p) / math.sqrt(p * (1.0 - p) / n)
        scaled = u * 2.0**32
        on_grid = bool(u.min() >= 0.0 and u.max() < 1.0
                       and np.array_equal(scaled, np.floor(scaled)))
        res.max_err = max(res.max_err, gap)
        if not (gap <= BERNOULLI_SIGMAS and on_grid):
            res.fail(f"P={p!r}: frequency {gap:.3g} sd from P, "
                     f"on the 2^-32 grid: {on_grid}, seed {seed}")
    params = neuron.NeuronParams()
    with (numerics.WorkerPool(1) as p1, numerics.WorkerPool(2) as p2,
          numerics.WorkerPool(3) as p3):
        pools = (None, p1, p2, p3)
        for j, n in enumerate(sizes):
            whole = _blocked_draw(rng.spawn(100 + j), n, -(-n // C), None)
            I = rng.spawn(200 + j).uniform_tensor((1, 1, n), -2.0, 2.0)
            b_want, *b_got = (neuron.mpe_psn_forward(I, params, "sampled", rng.spawn(300 + j),
                                                     pool).b for pool in pools)
            blocked = (_blocked_draw(rng.spawn(100 + j), n, neuron.MPE_BLOCK_CHUNKS, pool)
                       for pool in pools)
            if not (all(np.array_equal(k, whole) for k in blocked)
                    and all(np.array_equal(b, b_want) for b in b_got)):
                res.fail(f"n={n}: draws differ across no pool and 1, 2 and 3 workers "
                         f"(draw_blocks against one whole-array draw, or the sampled "
                         f"pass's b), seed {seed}")
    return res


# |P' - expit| for the table draw: half a step of the 2^16-entry table, plus
# 2^-50 for the rounding of the table's entries and of expit (the worst gap
# measured over every entry and its neighbouring floats exceeds 2^-17 by
# about 1.1e-16).
TABLE_DRAW_BOUND = 2.0**-17 + 2.0**-50


def _table_probability(I: np.ndarray) -> np.ndarray:
    """P'(I) = #{k : LOGIT_TABLE[k] < I} / 2^16, exactly, for non-NaN I."""
    return np.searchsorted(neuron.LOGIT_TABLE, I, side="left") / neuron.LOGIT_TABLE.size


def check_table_draw(seed: int = 0) -> CheckResult:
    """The sampled estimate's draw b = (LOGIT_TABLE[k] < I) against the
    sigmoid, within a stated tolerance.

    Contract, exact: the table increases, and P'(I) = #{k : LOGIT_TABLE[k]
    < I} / 2^16, counted with ``np.searchsorted``, lies within
    :data:`TABLE_DRAW_BOUND` of ``scipy.special.expit(I)`` over every table
    entry, the floats on either side of each, 4096 currents uniform on
    [-20, 20] and +-inf.  At NaN, +inf and -inf currents a sampled
    ``neuron.mpe_psn_forward`` draws b = 0, 1 and 0.  Distributional: at
    each P of :data:`BERNOULLI_PROBABILITIES`, a sampled pass over 2^20
    values of the current logit(P) draws b = 1 with a frequency within 5
    binomial standard deviations of P'.  ``max_err`` is the worst
    |P' - expit|.
    """
    from scipy.special import expit
    rng = Rng(seed, stream=109)
    L = neuron.LOGIT_TABLE
    res = CheckResult("table_draw", 2 + len(BERNOULLI_PROBABILITIES), 0)
    grid = np.concatenate([L, np.nextafter(L, -np.inf), np.nextafter(L, np.inf),
                           rng.spawn(0).uniform_tensor((4096,), -20.0, 20.0),
                           [-np.inf, np.inf]])
    gap = float(np.max(np.abs(_table_probability(grid) - expit(grid))))
    res.max_err = gap
    if not (np.all(np.diff(L) > 0.0) and gap <= TABLE_DRAW_BOUND):
        res.fail(f"|P' - expit| = {gap:.6g} (bound {TABLE_DRAW_BOUND:.6g}), "
                 f"or the table does not increase")
    params = neuron.NeuronParams()
    edges = np.tile([np.nan, np.inf, -np.inf], Rng.CHUNK).reshape(1, 1, -1)
    with np.errstate(invalid="ignore"):  # u_hat = 0 * inf
        b = neuron.mpe_psn_forward(edges, params, "sampled", rng.spawn(1)).b
    if not np.array_equal(b, np.isposinf(edges)):
        res.fail(f"NaN, +inf and -inf currents do not draw b = 0, 1 and 0, seed {seed}")
    n = BERNOULLI_DRAWS
    for i, p in enumerate(BERNOULLI_PROBABILITIES):
        I = np.full((1, 1, n), math.log(p / (1.0 - p)))
        want = float(_table_probability(I.flat[0]))
        b = neuron.mpe_psn_forward(I, params, "sampled", rng.spawn(10 + i)).b
        sd = abs(np.count_nonzero(b) / n - want) / math.sqrt(want * (1.0 - want) / n)
        if not sd <= BERNOULLI_SIGMAS:
            res.fail(f"P={p!r}: frequency {sd:.3g} sd from P' = {want!r}, seed {seed}")
    return res


def check_inference_vs_training_forward(trials: int = 1000, seed: int = 0) -> CheckResult:
    """The no-tape inference forward against the training forward, bit for bit.

    Contract: exact equality (``np.array_equal``), since both run the same
    arithmetic helpers in the same op order.  Over ``trials`` inputs of the
    :func:`_random_case` family, and over the first time step alone of each
    (T = 1, where the spikes-only pass forms no estimate),
    ``neuron.mpe_psn_spikes(I, p)`` equals
    ``neuron.mpe_psn_forward(I, p, "expectation").o`` in value (float64
    0/1 against bool).  Then on a small
    fitted model of each neuron kind, with synaptic delay 0 and 1 and one or
    two hidden layers (threshold 0.5: at 1.0 a second layer stays silent,
    and every logit is 0), the logits of predict equal
    ``model_forward(x, "expectation")[0].value``: on a held-out set of one
    block, and on batches of 3 S + 17 and 2 S - 1 samples (S the model's
    block size: three blocks and one with the remainder, and one block of
    nearly two) predicted on 1, 2 and 3 workers.
    """
    rng = Rng(seed, stream=106)
    models = [(kind, delay, hidden) for kind in network.NEURON_KINDS
              for delay in (0, 1) for hidden in ((8,), (8, 8))]
    res = CheckResult("inference_vs_training_forward", trials + len(models), 0)

    for trial in range(trials):
        I, params = _random_case(rng, trial)
        for case in (I, I[:1]):
            o = neuron.mpe_psn_forward(case, params, "expectation").o
            if not np.array_equal(neuron.mpe_psn_spikes(case, params), o):
                res.fail(f"trial {trial}: shape {case.shape}, seed {seed}")
                break
    T = 6
    train, test = datagen.generate(datagen.DatasetSpec(time_steps=T, samples_per_class=8,
                                                       seed=seed))
    for kind, delay, hidden in models:
        model = network.SpikingClassifier(hidden_sizes=hidden, neuron_kind=kind,
                                          synaptic_delay=delay, v_th_init=0.5, epochs=3,
                                          seed=seed)
        model.fit(train.x, train.y)
        size = model._block_samples(T)
        spec = datagen.DatasetSpec(time_steps=T, samples_per_class=2 * size + 20, seed=seed + 1)
        wide = datagen.generate(spec)[0].x  # 3.2 S + 32 samples
        logits, _, _ = model.model_forward(test.x, "expectation")
        ok = np.array_equal(model.predict_logits(test.x), logits.value)
        for B in (3 * size + 17, 2 * size - 1):
            x = wide[:, :B]
            logits, _, _ = model.model_forward(x, "expectation")
            ok = ok and all(np.array_equal(model._blocked_logits(x, workers), logits.value)
                            for workers in (1, 2, 3))
        if not ok:
            res.fail(f"{kind} model, synaptic delay {delay}, hidden sizes {hidden}, seed {seed}")
    return res


def run_all(trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [
        check_t0_exactness(trials, seed),
        check_teacher_forced(trials, seed),
        check_reset_law(min(trials, 200), seed),
        check_gradients(100, seed),
        check_surrogate_chain(),
        check_matmul_vs_fixed_order(trials, seed),
        check_sigmoid_vs_expit(trials, seed),
        check_expectation_estimate(trials, seed),
        check_bernoulli_draws(seed),
        check_table_draw(seed),
        check_inference_vs_training_forward(trials, seed),
    ]
