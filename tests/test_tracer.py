"""The benchmark's per-layer wrappers (perfbench/tracer.py) still fit the package.

perfbench wraps mpepsn functions by module and attribute name from outside
the package, so a rename in src/ would otherwise only surface when
``perfbench/run.py --trace 1`` runs.  This test loads tracer.py read-only.
"""

import importlib.util
import pathlib
import types

from mpepsn import autograd, datagen, losses, network, neuron, numerics

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = types.SimpleNamespace(numerics=numerics, neuron=neuron, autograd=autograd,
                                losses=losses, network=network, datagen=datagen)
OWNERS = (numerics, neuron, autograd, losses, network, datagen, numerics.Rng,
          numerics.WorkerPool, autograd.ParamRegistry, network.SpikingClassifier)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in vars(owner).items()}


def layer_tracer():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.define_layer_wrappers(tracer, MODULES)
    return tracer


def test_layer_wrappers_install_trace_and_uninstall():
    tracer = layer_tracer()
    before = attributes()
    train, _ = datagen.generate(datagen.DatasetSpec(samples_per_class=4))
    tracer.install("test")
    try:
        assert attributes() != before
        for kind, phase in (("mpe_psn", "mpe_psn"), ("lif_sequential", "lif")):
            tracer.phase = phase
            model = network.SpikingClassifier(hidden_sizes=(4,), neuron_kind=kind, epochs=1)
            model.fit(train.x, train.y).predict(train.x)
    finally:
        tracer.uninstall()
    assert attributes() == before

    spans = {span[0] for span in tracer.spans}
    assert {
        "numerics.matmul", "numerics.rng", "neuron.mpe_psn_forward", "neuron.lif_sequential",
        "autograd.backward", "losses.cls_loss", "network.model_forward",
        "network.tape_forward.mpe_psn", "network.tape_forward.lif", "network.diagnostics",
        "network.sgd_step", "network.predict",
    } <= spans
    # one closed-form node (plus output views) per neuron layer; a parallel
    # layer's node forms its membrane term, so training builds no
    # losses.mem_loss node, and that span stays empty
    assert tracer.samples["autograd.tape_nodes.mpe_psn"] == [18]
    assert tracer.samples["autograd.tape_nodes.lif"] == [15]
    assert "losses.mem_loss" not in spans


def test_predict_runs_no_training_forward():
    """A predict reaches the dense products but neither the training kernel
    nor the tape, so it adds nothing to ``neuron.mpe_psn_forward.bytes_out``."""
    train, _ = datagen.generate(datagen.DatasetSpec(samples_per_class=4))
    model = network.SpikingClassifier(hidden_sizes=(4,), epochs=1).fit(train.x, train.y)
    tracer = layer_tracer()
    tracer.install("test")
    try:
        model.predict(train.x)
    finally:
        tracer.uninstall()
    spans = {span[0] for span in tracer.spans}
    assert {"network.predict", "numerics.matmul"} <= spans
    assert not spans & {"neuron.mpe_psn_forward", "network.model_forward",
                        "network.tape_forward.mpe_psn"}
    assert ("test", "neuron.mpe_psn_forward.bytes_out") not in tracer.counts


def test_bytes_out_counts_I_and_the_arrays_each_pass_writes():
    """A traced pass counts I and the arrays it writes: five in sampled
    mode, four in expectation mode, which holds no b, and neither holds P.
    A sampled pass's b and o are bool, one byte a value, so it counts 4.25
    float64 arrays' worth with I; an expectation pass's o is bool, 4.125."""
    I = numerics.Rng(3).uniform_tensor((4, 2, 8), -2.0, 2.0)
    tracer = layer_tracer()
    counted = []
    tracer.install("test")
    try:
        for mode, rng in (("sampled", numerics.Rng(4)), ("expectation", None)):
            neuron.mpe_psn_forward(I, neuron.NeuronParams(), mode, rng)
            counted.append(tracer.counts[("test", "neuron.mpe_psn_forward.bytes_out")])
    finally:
        tracer.uninstall()
    assert counted == [4.25 * I.nbytes, (4.25 + 4.125) * I.nbytes]
