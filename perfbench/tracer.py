"""Spans and exact counts recorded from outside the mpepsn package.

The benchmark wraps public functions of the package's modules (by replacing
the module or class attribute, which every internal call site looks up at
call time) and records one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the run ends.  Wrapped
functions are only ever entered from the main thread (pool workers run
numpy kernels, never a wrapped function), so one stack suffices.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class StepClock:
    """Training-step durations, taken at each ``ParamRegistry.sgd_step`` return.

    A step is the time from the previous step's end (or from ``begin``) to
    the end of its SGD update, so it covers forward, losses, diagnostics,
    backward and the update of one full-batch epoch.  Each step is paired
    with a call of ``reference`` (when set) made after the step's end and
    before the next step's start, so it stays out of both.
    """

    def __init__(self, registry_cls):
        self._orig = registry_cls.sgd_step
        self._last = None
        self.reference = None
        self.steps_ms: list[tuple] = []
        clock = self

        @functools.wraps(self._orig)
        def sgd_step(registry, *args, **kwargs):
            result = clock._orig(registry, *args, **kwargs)
            now = time.perf_counter()
            if clock._last is not None:
                ms = (now - clock._last) * 1e3
                ref_ms = None
                if clock.reference is not None:
                    ref_ms = clock.reference()
                    now = time.perf_counter()
                clock.steps_ms.append((ms, ref_ms))
            clock._last = now
            return result

        registry_cls.sgd_step = sgd_step

    def begin(self) -> None:
        self._last = time.perf_counter()
        self.steps_ms = []

    def take(self) -> list[tuple]:
        """(step ms, reference ms) of each step since ``begin``."""
        steps, self.steps_ms, self._last = self.steps_ms, [], None
        return steps


class Tracer:
    """In-memory span recorder and counter, installed around chosen calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: dict[tuple, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tag = None
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: list[tuple] = []

    def add(self, name: str, value: float = 1) -> None:
        self.counts[(self.tag, name)] += value

    def define(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        """Declare a wrapper; it takes effect between ``install`` and ``uninstall``."""
        self._wrappers.append((owner, attr, name, on_call, on_result))

    def install(self, tag) -> None:
        self.tag = tag
        for owner, attr, name, on_call, on_result in self._wrappers:
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name, on_call, on_result))
            self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self.tag = None

    def _wrap(self, orig, name, on_call, on_result):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            stack = tracer._stack
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, tracer.tag]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def per_tag(self, tags) -> dict[str, list[float]]:
        """For each span name: total seconds (``.s``) and self seconds
        (``.self_s``) per tag, plus every counter, as one list per metric."""
        child_s = defaultdict(float)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals: dict[tuple, float] = defaultdict(float)
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            totals[(tag, name + ".s")] += end - start
            totals[(tag, name + ".self_s")] += end - start - child_s[i]
        for key, value in self.counts.items():
            totals[key] += value
        names = {name for _, name in totals}
        return {name: [totals.get((tag, name), 0.0) for tag in tags] for name in names}


def count_tape_nodes(loss) -> int:
    """Number of distinct ``Var`` nodes reachable from ``loss`` via ``parents``."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        var = stack.pop()
        if id(var) not in seen:
            seen.add(id(var))
            stack.extend(var.parents)
    return len(seen)


def define_layer_wrappers(tracer: Tracer, mp) -> None:
    """Wrap the public functions of every mpepsn module the workloads reach.

    ``mp`` is a namespace holding the modules numerics, neuron, autograd,
    losses, network and datagen.
    """
    numerics, neuron, autograd = mp.numerics, mp.neuron, mp.autograd
    losses, network, datagen = mp.losses, mp.network, mp.datagen

    def matmul_work(a, b):
        m = 1
        for extent in a.shape[:-1]:
            m *= extent
        tracer.add("numerics.matmul.calls")
        tracer.add("numerics.matmul.gflop", 2 * m * a.shape[-1] * b.shape[-1] / 1e9)

    def rng_draws(rng, n, pool=None):
        tracer.add("numerics.rng.draws", n)

    def trace_bytes(trace):
        tracer.add("neuron.mpe_psn_forward.bytes_out", sum(a.nbytes for a in trace))

    def tape_nodes(loss):
        tracer.samples["autograd.tape_nodes." + tracer.phase].append(count_tape_nodes(loss))

    tracer.define(numerics, "matmul", "numerics.matmul", on_call=matmul_work)
    tracer.define(numerics.Rng, "uniforms", "numerics.rng", on_call=rng_draws)
    tracer.define(numerics, "sigmoid", "numerics.sigmoid")
    tracer.define(numerics, "bernoulli_sample", "numerics.bernoulli_sample")
    tracer.define(numerics.WorkerPool, "map_ranges", "numerics.pool",
                  on_call=lambda *a, **k: tracer.add("numerics.pool.calls"))
    tracer.define(neuron, "mpe_psn_forward", "neuron.mpe_psn_forward", on_result=trace_bytes)
    tracer.define(neuron, "lif_sequential", "neuron.lif_sequential")
    tracer.define(autograd, "backward", "autograd.backward", on_call=tape_nodes)
    tracer.define(losses, "cls_loss", "losses.cls_loss")
    tracer.define(losses, "mem_loss", "losses.mem_loss")
    tracer.define(network.SpikingClassifier, "model_forward", "network.model_forward")
    tracer.define(network, "mpe_psn_tape_forward", "network.tape_forward.mpe_psn")
    tracer.define(network, "lif_tape_forward", "network.tape_forward.lif")
    tracer.define(network, "diagnostics", "network.diagnostics")
    tracer.define(autograd.ParamRegistry, "sgd_step", "network.sgd_step")
    tracer.define(network.SpikingClassifier, "predict", "network.predict")
    tracer.define(datagen, "generate", "datagen.generate")
