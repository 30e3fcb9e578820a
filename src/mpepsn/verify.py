"""Property suites behind the `verify` subcommand (and the test suite).

Each check runs many randomized trials against an independent oracle (the
sequential recurrence, the fixed-order matmul, the training forward, or
central finite differences) and reports failures with enough context to
reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd, datagen, network, neuron, numerics
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
    """Fired positions reset to 0, silent ones keep h; spikes are binary."""
    rng = Rng(seed, stream=103)
    res = CheckResult("reset_law_and_binary_spikes", trials, 0)
    for trial in range(trials):
        I, params = _random_case(rng, trial)
        tr = neuron.mpe_psn_forward(I, params, "sampled", rng.spawn(20_000 + trial))
        u_seq, o_seq = neuron.lif_sequential(I, params)
        ok = (
            np.all(np.isin(tr.o, (0.0, 1.0)))
            and np.all(np.isin(tr.b, (0.0, 1.0)))
            and np.all(tr.u[tr.o == 1.0] == 0.0)
            and np.array_equal(tr.u[tr.o == 0.0], tr.h[tr.o == 0.0])
            and np.all(np.isin(o_seq, (0.0, 1.0)))
        )
        if not ok:
            res.fail(f"trial {trial}: shape {I.shape}, seed {seed}")
    return res


def _random_smooth_graph(r: Rng):
    """Scalar-valued smooth composite (matmul / sigmoid / products / means)."""
    dims = r.uniforms(3)
    m = 1 + int(dims[0] * 4)
    k = 1 + int(dims[1] * 4)
    p = 1 + int(dims[2] * 4)
    x = autograd.parameter(r.spawn(1).uniform_tensor((m, k), -1.0, 1.0), "x")
    w = autograd.parameter(r.spawn(2).uniform_tensor((k, p), -1.0, 1.0), "w")
    target = r.spawn(3).uniform_tensor((m, p), -1.0, 1.0)

    def fn() -> Var:
        y = autograd.sigmoid(autograd.matmul(x, w))
        d = y - target
        return autograd.vmean(d * d)

    return fn, [x, w]


def check_gradients(graphs: int = 100, seed: int = 0, step: float = 1e-5, tol: float = 1e-4) -> CheckResult:
    """Tape gradients vs central finite differences on smooth graphs."""
    rng = Rng(seed, stream=104)
    res = CheckResult("gradient_vs_finite_difference", graphs, 0)
    for trial in range(graphs):
        fn, params = _random_smooth_graph(rng.spawn(trial))
        rel, skipped = autograd.finite_diff_check(fn, params, step)
        res.max_err = max(res.max_err, rel)
        if rel >= tol or skipped:
            res.fail(f"graph {trial}: rel={rel:.3g}, skipped={skipped}")
    return res


def check_surrogate_chain() -> CheckResult:
    """One-neuron, one-step chain has gradient surrogate(w*x) * x = 0.8 exactly."""
    w = autograd.parameter(np.asarray(1.2), "w")
    v_th = Var(np.asarray(1.0))
    x = 1.0
    o = autograd.spike(w * x, v_th, alpha=1.0)
    autograd.backward(o)
    got = float(np.asarray(w.grad))
    res = CheckResult("surrogate_chain_hand_value", 1, 0, max_err=abs(got - 0.8))
    if got != 0.8:
        res.fail(f"expected 0.8, got {got!r}")
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


def check_inference_vs_training_forward(trials: int = 1000, seed: int = 0) -> CheckResult:
    """The no-tape inference forward against the training forward, bit for bit.

    Contract: exact equality (``np.array_equal``), since both run the same
    arithmetic helpers in the same op order.  Over ``trials`` inputs of the
    :func:`_random_case` family, and over the first time step alone of each
    (T = 1, where the spikes-only pass forms no estimate),
    ``neuron.mpe_psn_spikes(I, p)`` equals
    ``neuron.mpe_psn_forward(I, p, "expectation").o``, run inline and with
    its columns split over a pool of 3 workers (uneven ranges).  Then on a small
    fitted model of each neuron kind, with synaptic delay 0 and 1 and one or
    two hidden layers, ``predict_logits(x)`` equals
    ``model_forward(x, "expectation")[0].value``.
    """
    rng = Rng(seed, stream=106)
    models = [(kind, delay, hidden) for kind in network.NEURON_KINDS
              for delay in (0, 1) for hidden in ((8,), (8, 8))]
    res = CheckResult("inference_vs_training_forward", trials + len(models), 0)

    with numerics.WorkerPool(3) as pool:
        for trial in range(trials):
            I, params = _random_case(rng, trial)
            for case in (I, I[:1]):
                o = neuron.mpe_psn_forward(case, params, "expectation").o
                if not (np.array_equal(neuron.mpe_psn_spikes(case, params), o)
                        and np.array_equal(neuron.mpe_psn_spikes(case, params, pool), o)):
                    res.fail(f"trial {trial}: shape {case.shape}, seed {seed}")
                    break
    train, test = datagen.generate(datagen.DatasetSpec(time_steps=6, samples_per_class=8,
                                                       seed=seed))
    for kind, delay, hidden in models:
        model = network.SpikingClassifier(hidden_sizes=hidden, neuron_kind=kind,
                                          synaptic_delay=delay, epochs=3, seed=seed)
        model.fit(train.x, train.y)
        logits, _, _ = model.model_forward(test.x, "expectation")
        if not np.array_equal(model.predict_logits(test.x), logits.value):
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
        check_inference_vs_training_forward(trials, seed),
    ]
