"""The benchmark workloads.

Each workload builds its inputs from the seed and warms up in its
constructor (the timed set-up), runs one
repetition of its work per ``iteration`` (timed operations go into
``run.samples`` under the metric names they report), computes its quality
figures once after the first iteration and checks outputs as it goes.
Repetitions are identical, so counts made in one traced repetition repeat
exactly in the next.

Seed ``s`` maps to data seed ``42 + s`` and model seed ``s``, so seed 0 is
the README quickstart (``DatasetSpec()``, ``seed=0``).
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np


_REF_COL = np.linspace(0.0, 1.0, 32).reshape(32, 1)
_REF_ROW = np.linspace(1.0, 2.0, 32).reshape(1, 32)
_REF_VEC = np.linspace(0.0, 1.0, 50_000)


def reference_ms() -> float:
    """Milliseconds taken by a fixed mix of the work the workloads do:
    a pure-Python loop, small-array numpy updates and mid-size array
    arithmetic.  It uses no mpepsn code, so it measures the machine's
    speed at the moment it runs, not the program's."""
    start = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += i * i
    out = np.zeros((32, 32))
    for _ in range(150):
        out += _REF_COL * _REF_ROW
    for _ in range(10):
        _ = _REF_VEC * _REF_VEC + _REF_VEC
    return (time.perf_counter() - start) * 1e3


class Run:
    """Samples, values and operation counts of one benchmark run.

    When ``calibrate`` is set, every timed sample is paired with the
    reference-kernel time taken next to it: before each ``timed`` call the
    median of five (after other work the first runs with cold caches), and
    one after each training step.  Otherwise (traced iterations, workloads
    that are not calibrated) the reference is ``None``.  ``ref_s`` is the
    time spent in reference calls.
    """

    def __init__(self, calibrate: bool = False):
        self.calibrate = calibrate
        self.ref_s = 0.0
        self.samples: dict[str, list[float]] = {}
        self.refs: dict[str, list] = {}
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def reference(self) -> float:
        ms = reference_ms()
        self.ref_s += ms / 1e3
        return ms

    def sample(self, name: str, ms: float, ref_ms) -> None:
        self.samples.setdefault(name, []).append(ms)
        self.refs.setdefault(name, []).append(ref_ms)
        self.attempted += 1

    def timed(self, name: str, fn, *args, **kwargs):
        ref_ms = None
        if self.calibrate:
            ref_ms = statistics.median(self.reference() for _ in range(5))
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.sample(name, (time.perf_counter() - start) * 1e3, ref_ms)
        return result

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def _mean_l2(diag) -> float:
    return float(np.mean(diag.l2_norms))


class _Training:
    """Shared shape of the two training workloads.

    Subclasses set the data (``make_data``: training batch and the batch to
    predict), the hidden widths and the epoch counts.  One iteration fits
    the MPE-PSN model (sampled mode, lambda 0.01), fits the LIF model with
    backprop through time, and predicts ``predict_reps`` times with the
    MPE-PSN model, half before the LIF fit and half after it.
    """

    name = ""
    hidden_sizes: tuple = ()
    mpe_epochs = 0
    lif_epochs = 0
    predict_reps = 10
    calibrate = True
    gated = {"mpe_psn_ms": "train_step_ms.mpe_psn", "lif_ms": "train_step_ms.lif",
             "infer_ms": "predict_ms"}

    def __init__(self, mp, seed: int, pool, clock, tracer):
        self.mp, self.seed, self.clock, self.tracer = mp, seed, clock, tracer
        self.train, self.heldout = self.make_data(seed)
        self.reference = self.model_ = None
        self.fit_kind("mpe_psn", epochs=1).predict(self.heldout.x)
        self.fit_kind("lif_sequential", epochs=1)
        self.clock.take()

    def make_data(self, seed):
        raise NotImplementedError

    def model(self, kind: str, epochs: int):
        return self.mp.network.SpikingClassifier(
            hidden_sizes=self.hidden_sizes, neuron_kind=kind, lam=0.01,
            epochs=epochs, seed=self.seed,
        )

    def fit_kind(self, kind: str, epochs: int):
        if self.tracer is not None:
            self.tracer.phase = "mpe_psn" if kind == "mpe_psn" else "lif"
        model = self.model(kind, epochs)
        self.clock.begin()
        model.fit(self.train.x, self.train.y)
        return model

    def fit_timed(self, run: Run, kind: str, epochs: int, metric: str):
        self.clock.reference = run.reference if run.calibrate else None
        try:
            model = self.fit_kind(kind, epochs)
        except self.mp.network.TrainingDivergedError as err:
            run.check(f"{self.name}: {kind} training diverged at epoch {err.epoch}", False)
            model = None
        for ms, ref_ms in self.clock.take():
            run.sample(metric, ms, ref_ms)
        if model is not None:
            run.check(f"{kind} losses finite",
                      all(np.isfinite(d.loss_total) for d in model.history_))
        return model

    def iteration(self, run: Run) -> None:
        mpe = self.fit_timed(run, "mpe_psn", self.mpe_epochs, "train_step_ms.mpe_psn")
        preds = self.predict_block(run, mpe)
        self.fit_timed(run, "lif_sequential", self.lif_epochs, "train_step_ms.lif")
        if mpe is None:
            return
        preds += self.predict_block(run, mpe)
        record = (mpe.history_[-1].csv_row(), preds[0].tobytes())
        if self.reference is None:
            self.reference, self.model_ = record, mpe
        run.check("fit and predict repeat bit for bit", record == self.reference)
        run.check("predict is deterministic",
                  all(np.array_equal(p, preds[0]) for p in preds[1:]))
        run.check("predicted labels are valid classes",
                  preds[0].shape == self.heldout.y.shape and set(np.unique(preds[0])) <= {0, 1})

    def predict_block(self, run: Run, model) -> list:
        """Half of the iteration's predicts; the two halves sit on either
        side of the LIF fit, so predict samples spread over the run."""
        if model is None:
            return []
        return [run.timed("predict_ms", model.predict, self.heldout.x)
                for _ in range(self.predict_reps // 2)]

    def quality(self, run: Run) -> None:
        """Estimator quality of the first MPE-PSN fit (deterministic per seed)."""
        mp, model = self.mp, self.model_
        if model is None:
            return
        hist = model.history_
        run.values["est_l2.epoch1"] = _mean_l2(hist[0])
        run.values["est_l2.final"] = _mean_l2(hist[-1])
        run.values["train_acc"] = hist[-1].train_acc
        run.values["heldout_acc"] = model.score(self.heldout.x, self.heldout.y)
        _, traces, currents = model.model_forward(
            self.heldout.x, "sampled", mp.numerics.Rng(self.seed, stream=5)
        )
        rates = []
        for tr, I, v_th in zip(traces, currents, model.v_ths_):
            params = mp.neuron.NeuronParams(tau_m=model.tau_m, v_th=float(v_th.value),
                                            alpha=model.alpha)
            _, o_ref = mp.neuron.lif_sequential(I.value, params)
            rates.append(100.0 * float(np.mean(tr.o.value != o_ref)))
        run.values["spike_disagree_pct"] = float(np.mean(rates))
        self.check_quality(run)

    def check_quality(self, run: Run) -> None:
        pass

    def final_checks(self, run: Run) -> None:
        pass


class TrainRef(_Training):
    """README quickstart: T=8, 205 samples, 16->32->2, 200 epochs."""

    name = "train_ref"
    hidden_sizes = (32,)
    mpe_epochs = 200
    lif_epochs = 100

    def make_data(self, seed):
        datagen = self.mp.datagen
        train, _ = datagen.generate(datagen.DatasetSpec(seed=42 + seed))
        heldout, _ = datagen.generate(datagen.DatasetSpec(samples_per_class=2560,
                                                          seed=1042 + seed))
        return train, heldout

    def check_quality(self, run: Run) -> None:
        v = run.values
        run.check("train_acc >= 0.9", v["train_acc"] >= 0.9)
        run.check("est_l2.final below its epoch-1 value", v["est_l2.final"] < v["est_l2.epoch1"])


class TrainLongT(_Training):
    """The paper's crossover point: T=128, 102 samples, 16->64->64->2."""

    name = "train_longT"
    hidden_sizes = (64, 64)
    mpe_epochs = 2
    lif_epochs = 2

    def make_data(self, seed):
        datagen = self.mp.datagen
        return datagen.generate(datagen.DatasetSpec(time_steps=128, samples_per_class=64,
                                                    seed=42 + seed))


def _digest(trace) -> str:
    h = hashlib.sha256()
    for a in trace:
        h.update(a.tobytes())
    return h.hexdigest()


class ForwardWide:
    """Neuron forward only: currents U[-2, 2] of shape T=32, B=1, N=2^18.

    Sampled MPE-PSN through the pool, the LIF oracle, and the
    expectation-mode (inference) MPE-PSN pass, all on the same currents.
    """

    name = "forward_wide"
    shape = (32, 1, 1 << 18)
    calibrate = False
    gated = {"mpe_psn_ms": "forward_ms.mpe_psn", "lif_ms": "forward_ms.lif",
             "infer_ms": "forward_ms.mpe_psn.expectation"}

    def __init__(self, mp, seed: int, pool, clock, tracer):
        self.mp, self.seed, self.pool = mp, seed, pool
        self.params = mp.neuron.NeuronParams()
        self.I = mp.numerics.Rng(seed, stream=7).uniform_tensor(self.shape, -2.0, 2.0)
        self.rng = mp.numerics.Rng(seed, stream=11)
        self.first = None
        self.sampled(self.pool)
        self.oracle()
        self.expectation()

    def sampled(self, pool, rng=None):
        return self.mp.neuron.mpe_psn_forward(self.I, self.params, "sampled",
                                              rng or self.rng, pool)

    def oracle(self):
        return self.mp.neuron.lif_sequential(self.I, self.params)

    def expectation(self):
        return self.mp.neuron.mpe_psn_forward(self.I, self.params, "expectation", None,
                                              self.pool)

    @staticmethod
    def check_t0(run: Run, trace, u_ref, o_ref, mode: str) -> None:
        run.check(f"{mode}: t=0 row equals lif_sequential bit for bit",
                  np.array_equal(trace.u[0], u_ref[0]) and np.array_equal(trace.o[0], o_ref[0]))

    def check_reset_law(self, run: Run, trace, mode: str) -> None:
        run.check(f"{mode}: reset law",
                  np.array_equal(trace.o, (trace.h >= self.params.v_th).astype(np.float64))
                  and np.array_equal(trace.u, trace.h * (1.0 - trace.o)))

    def iteration(self, run: Run) -> None:
        trace = run.timed("forward_ms.mpe_psn", self.sampled, self.pool)
        u_ref, o_ref = run.timed("forward_ms.lif", self.oracle)
        self.check_t0(run, trace, u_ref, o_ref, "sampled")
        if self.first is None:
            self.first = {
                "est_l2.final": float(np.linalg.norm((trace.u_hat - trace.u).ravel())),
                "spike_disagree_pct": 100.0 * float(np.mean(trace.o != o_ref)),
            }
            self.check_reset_law(run, trace, "sampled")
        del trace
        expect = run.timed("forward_ms.mpe_psn.expectation", self.expectation)
        self.check_t0(run, expect, u_ref, o_ref, "expectation")

    def quality(self, run: Run) -> None:
        """Estimator quality of the first sampled pass (deterministic per seed)."""
        run.values.update(self.first)

    def final_checks(self, run: Run) -> None:
        """One repetition at 1 worker and at the pool's count: identical traces."""
        Rng = self.mp.numerics.Rng
        digest_pool = _digest(self.sampled(self.pool, Rng(self.seed, stream=13)))
        with self.mp.numerics.WorkerPool(1) as single:
            digest_single = _digest(self.sampled(single, Rng(self.seed, stream=13)))
        run.check(f"1 worker and {self.pool.workers} workers give bit-identical traces",
                  digest_pool == digest_single)


WORKLOADS = {cls.name: cls for cls in (TrainRef, TrainLongT, ForwardWide)}
