import inspect
import struct
import threading
import warnings

import numpy as np
import pytest
from scipy.special import expit

from mpepsn import autograd, datagen, losses, network, neuron, numerics
from mpepsn.autograd import Var, backward, finite_diff_check, parameter, vsum
from mpepsn.network import (
    EpochDiagnostics,
    SpikingClassifier,
    TrainingDivergedError,
    accuracy,
    lif_tape_forward,
    mpe_psn_tape_forward,
    synapse_forward,
)
from mpepsn.losses import MemLossConfig
from mpepsn.numerics import Rng, Scratch, ShapeMismatchError

from elementwise_ops import expectation_estimate, spike


def small_task(seed=42):
    spec = datagen.DatasetSpec(samples_per_class=16, seed=seed)
    return datagen.generate(spec)


def small_model(**overrides):
    kwargs = dict(hidden_sizes=(16,), epochs=30, seed=0)
    kwargs.update(overrides)
    return SpikingClassifier(**kwargs)


class TestSynapse:
    def test_direct(self):
        out = synapse_forward(np.array([[[1.0, 1.0]]]), Var(np.array([[2.0], [3.0]])))
        np.testing.assert_array_equal(out.value, [[[5.0]]])

    def test_delay_shifts_spikes(self):
        o = np.arange(8.0).reshape(4, 1, 2)
        out = synapse_forward(o, Var(np.eye(2)), delay=1)
        np.testing.assert_array_equal(out.value[0], 0.0)
        np.testing.assert_array_equal(out.value[1:], o[:-1])

    def test_invalid_delay(self):
        with pytest.raises(ValueError):
            synapse_forward(np.zeros((1, 1, 2)), Var(np.eye(2)), delay=2)

    def test_width_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            synapse_forward(np.zeros((1, 1, 3)), Var(np.eye(2)))


class TestTapeForward:
    def test_matches_plain_forward_expectation(self):
        I = Rng(0).uniform_tensor((6, 2, 8), -2, 2)
        tape = mpe_psn_tape_forward(Var(I), Var(np.asarray(1.0)), 0.25, 1.0, "expectation", None)
        plain = neuron.mpe_psn_forward(I, neuron.NeuronParams(), "expectation")
        for a, b in zip(tape, (plain.u_hat, plain.u, plain.o)):
            np.testing.assert_allclose(a.value, b, atol=1e-15)

    def test_matches_plain_forward_sampled(self):
        I = Rng(1).uniform_tensor((6, 2, 8), -2, 2)
        tape = mpe_psn_tape_forward(Var(I), Var(np.asarray(1.0)), 0.25, 1.0, "sampled", Rng(5))
        plain = neuron.mpe_psn_forward(I, neuron.NeuronParams(), "sampled", Rng(5))
        for a, b in zip(tape, (plain.u_hat, plain.u, plain.o)):
            np.testing.assert_array_equal(a.value, b)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            mpe_psn_tape_forward(Var(np.zeros((1, 1, 1))), Var(np.asarray(1.0)), 0.25, 1.0, "x", None)

    def test_both_layers_return_one_record(self):
        I, v_th = Var(Rng(2).uniform_tensor((4, 2, 8), -2, 2)), Var(np.asarray(1.0))
        lif = lif_tape_forward(I, v_th, 0.25, 1.0)
        mpe = mpe_psn_tape_forward(I, v_th, 0.25, 1.0, "expectation", None)
        assert type(lif) is type(mpe) is network.TapeTrace
        assert network.TapeTrace._fields == ("u_hat", "u", "o", "mem", "l2")
        assert lif.u_hat is lif.u  # a LIF layer's u_hat is its u
        assert lif.mem is None and lif.l2 == 0.0  # and it has no membrane term
        assert mpe.mem is None and mpe.l2 is None  # none formed without a kappa

    def test_spikes_are_bool(self):
        # every consumer reads them as 0/1; predict's bit-identity with the
        # training forward (TestPooledPredict) shows that it does
        I, v_th = Var(Rng(2).uniform_tensor((4, 2, 8), -2, 2)), Var(np.asarray(1.0))
        for tr in (lif_tape_forward(I, v_th, 0.25, 1.0),
                   mpe_psn_tape_forward(I, v_th, 0.25, 1.0, "sampled", Rng(3)),
                   mpe_psn_tape_forward(I, v_th, 0.25, 1.0, "expectation", None)):
            assert tr.o.value.dtype == np.bool_ and tr.o.value.any()
            assert tr.u_hat.value.dtype == tr.u.value.dtype == np.float64

    def test_lif_matches_oracle(self):
        I = Rng(2).uniform_tensor((8, 2, 8), -2, 2)
        tr = lif_tape_forward(Var(I), Var(np.asarray(1.0)), 0.25, 1.0)
        u, o = tr.u, tr.o
        u_ref, o_ref = neuron.lif_sequential(I, neuron.NeuronParams())
        np.testing.assert_array_equal(u.value, u_ref)
        np.testing.assert_array_equal(o.value, o_ref)

    def test_lif_gradient_reaches_input(self):
        I = parameter(Rng(3).uniform_tensor((4, 1, 3), -1, 1))
        backward(vsum(lif_tape_forward(I, Var(np.asarray(1.0)), 0.25, 1.0).u))
        assert I.grad is not None and np.any(I.grad != 0.0)


class TestFusedGradients:
    """Closed-form backward of each fused layer against central differences.

    alpha is so small that no membrane value lies in the surrogate's
    support, so the tape gradient is the exact derivative of the loss with
    spikes held fixed.  Planting a membrane value exactly on the threshold
    makes a perturbation of that input (and of v_th) flip a spike; the
    check must see the flip in the spike log and skip those coordinates.
    """

    ALPHA = 1e-6

    def loss_fn(self, kind, I, v_th):
        r = Rng(11)
        c_hat, c_u, c_o = (r.spawn(k).uniform_tensor(I.shape, -1, 1) for k in range(3))

        def fn():
            if kind == "lif":
                tr = lif_tape_forward(I, v_th, 0.25, self.ALPHA)
            else:
                tr = mpe_psn_tape_forward(I, v_th, 0.25, self.ALPHA, kind, Rng(3))
            u_hat, u, o = tr.u_hat, tr.u, tr.o
            return vsum(u_hat * u_hat * c_hat) + vsum(u * u * c_u) + vsum(o * c_o)

        return fn

    @pytest.mark.parametrize("kind", ["sampled", "expectation", "lif"])
    @pytest.mark.parametrize("planted", [False, True])
    def test_matches_finite_differences(self, kind, planted):
        I = parameter(Rng(4).uniform_tensor((4, 2, 3), -2, 2), name="I")
        if planted:
            I.value[0, 0, 0] = 1.0  # h = v_th exactly at t = 0
        v_th = parameter(np.asarray(1.0), name="v_th")
        rel, skipped = finite_diff_check(self.loss_fn(kind, I, v_th), [I, v_th])
        assert rel < 1e-4
        assert skipped == ([("I", 0), ("v_th", 0)] if planted else [])
        assert np.any(I.grad != 0.0)


class TestFusedMatchesElementwiseTape:
    """The fused layers' gradients equal, bit for bit, those of the same
    forward built from elementwise tape ops, when each output has one
    consumer outside the layer (as in SpikingClassifier), whichever of the
    outputs the loss reads (the in-place backward has a branch for each
    gradient that is absent)."""

    def setup_method(self):
        r = Rng(21)
        self.I = r.spawn(0).uniform_tensor((5, 2, 4), -2, 2)
        self.I[0, 0, 0] = 0.44  # where expit and 1 / (1 + exp(-x)) differ in the last bit
        # h[1, 0, 0] below v_th and inside the surrogate's support, so a loss
        # reading u or o alone reaches P[0, 0, 0] through the history
        self.I[1, 0, 0] = 0.3
        self.c_hat, self.c_u, self.c_o = (r.spawn(k).uniform_tensor(self.I.shape, -1, 1)
                                          for k in (1, 2, 3))

    def test_input_separates_the_sigmoid_forms(self):
        # so the expectation cases compare the package's sigmoid (which the
        # backward forms) and its estimate I / (1 + exp(I)) (which the forward
        # forms, not (1 - sigmoid(I)) * I) bit for bit, at a row whose
        # estimate feeds the next row's history
        x = self.I[:-1]
        assert np.any(expit(x) != numerics.sigmoid(x))
        assert np.any(x / (1.0 + np.exp(x)) != (1.0 - numerics.sigmoid(x)) * x)

    def mpe_psn_grads(self, fused, mode, read):
        """Gradients of I and v_th for a loss over the outputs named in ``read``."""
        I, v_th = parameter(self.I.copy()), parameter(np.asarray(1.0))
        if fused:
            tr = mpe_psn_tape_forward(I, v_th, 0.25, 1.0, mode, Rng(9))
            u_hat, u, o = tr.u_hat, tr.u, tr.o
        else:
            if mode == "sampled":
                b = neuron.mpe_psn_forward(self.I, neuron.NeuronParams(), mode, Rng(9)).b
                u_hat = Var(1.0 - b) * I
            else:
                u_hat = expectation_estimate(I)
            h = 0.25 * autograd.shift_time(u_hat) + I
            o = spike(h, v_th, 1.0)
            u = h * (1.0 - o)
        terms = {"u_hat": vsum(u_hat * self.c_hat), "u": vsum(u * self.c_u),
                 "o": vsum(o * self.c_o)}
        first, *rest = read.split()
        loss = terms[first]
        for name in rest:
            loss = loss + terms[name]
        backward(loss)
        return I.grad, v_th.grad

    @pytest.mark.parametrize("mode", ["sampled", "expectation"])
    def test_mpe_psn(self, mode):
        for fused, elementwise in zip(self.mpe_psn_grads(True, mode, "u_hat u o"),
                                      self.mpe_psn_grads(False, mode, "u_hat u o")):
            np.testing.assert_array_equal(fused, elementwise)

    @pytest.mark.parametrize("mode", ["sampled", "expectation"])
    @pytest.mark.parametrize("read", ["u_hat", "u", "o", "u_hat o"])
    def test_mpe_psn_reading_some_outputs(self, mode, read):
        for fused, elementwise in zip(self.mpe_psn_grads(True, mode, read),
                                      self.mpe_psn_grads(False, mode, read)):
            np.testing.assert_array_equal(fused, elementwise)

    @pytest.mark.parametrize("read", ["u", "o", "u o"])
    def test_lif(self, read):
        I, v_th = parameter(self.I.copy()), parameter(np.asarray(1.0))
        tr = lif_tape_forward(I, v_th, 0.25, 1.0)
        terms = {"u": vsum(tr.u * self.c_u), "o": vsum(tr.o * self.c_o)}
        first, *rest = read.split()
        loss = terms[first]
        for name in rest:
            loss = loss + terms[name]
        backward(loss)

        rows = [parameter(row.copy()) for row in self.I]
        v_ref = parameter(np.asarray(1.0))
        u_prev, loss = Var(np.zeros(self.I.shape[1:])), None
        for t, row in enumerate(rows):
            h = 0.25 * u_prev + row
            o_t = spike(h, v_ref, 1.0)
            u_prev = h * (1.0 - o_t)
            terms = {"u": vsum(u_prev * self.c_u[t]), "o": vsum(o_t * self.c_o[t])}
            for name in read.split():
                loss = terms[name] if loss is None else loss + terms[name]
        backward(loss)
        np.testing.assert_array_equal(I.grad, np.stack([row.grad for row in rows]))
        np.testing.assert_array_equal(v_th.grad, v_ref.grad)


class TestNodeMembraneTerm:
    """Given kappa, an MPE-PSN layer's node forms the layer's membrane term:
    its value, its norm and the gradients of I, v_th and kappa equal, bit
    for bit, those of the node without kappa followed by the separate
    ``losses.mem_loss`` node (the oracle), for both kappa axes and both
    modes, with and without gradients from outside into u_hat, u and o."""

    T, B, N = 5, 2, 4

    def grads(self, fused, mode, axis, read):
        cfg = MemLossConfig(kappa_axis=axis)
        r = Rng(23)
        I = parameter(r.spawn(0).uniform_tensor((self.T, self.B, self.N), -2, 2))
        v_th = parameter(np.asarray(1.0))
        kappa = parameter(r.spawn(1).uniform_tensor((cfg.kappa_length(self.T, self.N),), 0, 2))
        if fused:
            tr = mpe_psn_tape_forward(I, v_th, 0.25, 1.0, mode, Rng(9), kappa, cfg)
            mem, l2 = tr.mem, tr.l2
        else:
            tr = mpe_psn_tape_forward(I, v_th, 0.25, 1.0, mode, Rng(9))
            mem = losses.mem_loss(tr.u_hat, tr.u, kappa, cfg)
            l2 = float(numerics.l2_norm(tr.u_hat.value - tr.u.value))
        loss = mem * 0.01
        for k, name in enumerate(read.split()):
            loss = loss + vsum(getattr(tr, name) * r.spawn(2 + k).uniform_tensor(I.shape, -1, 1))
        backward(loss)
        return [mem.value, l2, I.grad, v_th.grad, kappa.grad]

    @pytest.mark.parametrize("mode", neuron.MODES)
    @pytest.mark.parametrize("axis", losses.KAPPA_AXES)
    @pytest.mark.parametrize("read", ["", "u_hat u o", "u", "o", "u_hat o"])
    def test_matches_mem_loss(self, mode, axis, read):
        fused, oracle = self.grads(True, mode, axis, read), self.grads(False, mode, axis, read)
        for a, b in zip(fused, oracle):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert fused[1] > 0.0 and np.any(fused[4] != 0.0)

    def test_kappa_length_checked(self):
        cfg = MemLossConfig()
        I = Var(np.zeros((self.T, self.B, self.N)))
        with pytest.raises(ShapeMismatchError):
            mpe_psn_tape_forward(I, Var(np.asarray(1.0)), 0.25, 1.0, "expectation", None,
                                 np.ones(self.N), cfg)

    def test_a_training_tape_holds_one_node_per_layer(self, monkeypatch):
        """Each spiking layer is one multi-output node, its fourth output the
        membrane term; no separate membrane loss node is built."""
        nodes = []
        multi_output = autograd.multi_output

        def record(values, parents, grad_fn):
            nodes.append(len(values))
            return multi_output(values, parents, grad_fn)

        def no_node(*args, **kwargs):
            raise AssertionError("a separate membrane loss node was built")

        monkeypatch.setattr(autograd, "multi_output", record)
        monkeypatch.setattr(losses, "mem_loss", no_node)
        tr, _ = small_task()
        small_model(hidden_sizes=(8, 8), epochs=1).fit(tr.x, tr.y)
        assert nodes == [4, 4]


class Counted(np.ndarray):
    """A work array that logs, for each numpy call reading or writing it, the
    size of the largest ``Counted`` operand of that call."""

    log: list[int] = []

    @staticmethod
    def plain(a):
        return a.view(np.ndarray) if isinstance(a, Counted) else a

    @staticmethod
    def count(operands):
        Counted.log.append(max(a.size for a in operands if isinstance(a, Counted)))

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        self.count(inputs + (out or ()))
        if out is not None:
            kwargs["out"] = tuple(map(self.plain, out))
        result = getattr(ufunc, method)(*map(self.plain, inputs), **kwargs)
        return result if out is None else out[0] if len(out) == 1 else out

    def __array_function__(self, func, types, args, kwargs):
        self.count(args + tuple(kwargs.values()))
        result = func(*map(self.plain, args), **{k: self.plain(v) for k, v in kwargs.items()})
        return result if kwargs.get("out") is None else kwargs["out"]


class CountedScratch(Scratch):
    def __call__(self, name, shape, dtype=np.float64):
        return super().__call__(name, shape, dtype).view(Counted)


class TestFullArrayPasses:
    """Full-array passes per layer per step, pinned as the tape-node count is.

    One forward and one backward of a layer's node as ``fit`` drives it:
    gradient from outside into o alone, plus the membrane term's for a node
    given kappa.  Every [T, B, N] array the node writes comes from its
    scratch, here one whose arrays count the numpy calls that read or write
    them; a call over k values counts k / (T * B * N) passes, so a time row
    counts 1 / T.  Item assignments (a row copy, a zeroed row) and the
    sampled draw's generator call are not counted.  Changing a count is a
    change of the cost model: say why in CHANGES.md.
    """

    T, B, N = 4, 3, 5

    def passes(self, kind, membrane=False):
        r = Rng(7)
        I = Var(r.spawn(0).uniform_tensor((self.T, self.B, self.N), -2, 2))
        v_th, scratch = parameter(np.asarray(1.0)), CountedScratch()
        g_o = r.spawn(1).uniform_tensor(I.shape, -1, 1)
        Counted.log = []
        if kind == "lif":
            tr, grads = lif_tape_forward(I, v_th, 0.25, 1.0, scratch=scratch), (None, g_o)
        else:
            cfg = MemLossConfig()
            kappa = parameter(cfg.init_kappa(self.T, self.N)) if membrane else None
            tr = mpe_psn_tape_forward(I, v_th, 0.25, 1.0, kind, r.spawn(2), kappa, cfg,
                                      scratch=scratch)
            grads = (None, None, g_o, *([np.asarray(0.01)] if membrane else []))
        forward, Counted.log = sum(Counted.log) / I.value.size, []
        tr.o.parents[0]._backward(grads)  # the layer's one node
        return forward, sum(Counted.log) / I.value.size

    def test_sampled_layer_with_its_membrane_term(self):
        # estimate 4, update 5 (4 in row 0), membrane term 4;
        # backward: term 2, surrogate 4, reset 6, threshold 1, history (T-1)/T, input 4
        assert self.passes("sampled", membrane=True) == (12.75, 17.75)

    def test_expectation_layer(self):
        # estimate 3, update 5 (4 in row 0); backward: surrogate 4, reset 1,
        # threshold 1, history (T-1)/T, P 4, input 3, through P 4
        assert self.passes("expectation") == (7.75, 17.75)

    def test_lif_layer(self):
        # recurrence 5 (4 in row 0), finiteness test 1; backward: surrogate 4,
        # then per row 8, 2 in the last row
        assert self.passes("lif") == (5.75, 10.5)


class TestDiagnostics:
    @pytest.mark.parametrize("bad", [None, -np.inf, np.nan])
    def test_lif_norm_keeps_the_bits_of_u_minus_u(self, monkeypatch, bad):
        """A LIF layer's u_hat is its u: its node's norm is l2_norm(u - u)
        to the bit, and a finite u gives it without forming the difference."""
        I = Rng(5).uniform_tensor((3, 2, 4), -1, 1)
        if bad is not None:
            I[1, 0, 2] = bad  # so u is not finite from there on
        with np.errstate(invalid="ignore"):
            u, _ = neuron.lif_sequential(I, neuron.NeuronParams())
            ref = float(numerics.l2_norm(u.copy() - u))
            if bad is None:
                monkeypatch.setattr(numerics, "l2_norm", None)
            norm = lif_tape_forward(Var(I), Var(np.asarray(1.0)), 0.25, 1.0).l2
        assert struct.pack("<d", norm) == struct.pack("<d", ref)

    @pytest.mark.parametrize("kind, mode, axis", [
        ("mpe_psn", "sampled", "time"), ("mpe_psn", "sampled", "neuron"),
        ("mpe_psn", "expectation", "time"), ("mpe_psn", "expectation", "neuron"),
        ("lif_sequential", "sampled", "time"),
    ])
    def test_logged_norm_is_the_norm_of_the_epoch_trace(self, monkeypatch, kind, mode, axis):
        """Each epoch's ``l2_norm_layer_i`` is ``l2_norm(u_hat - u)`` of that
        epoch's trace, bit for bit, as the layer's node forms it; a LIF
        layer's u_hat is its u, and its norm is 0.0."""
        want = []
        model_forward = SpikingClassifier.model_forward

        def record(self, *args, **kwargs):
            out = model_forward(self, *args, **kwargs)
            want.append([float(numerics.l2_norm(tr.u_hat.value - tr.u.value)) for tr in out[1]])
            return out

        monkeypatch.setattr(SpikingClassifier, "model_forward", record)
        tr, _ = small_task()
        # threshold 0.5: at 1.0 the second layer stays all but silent
        m = small_model(hidden_sizes=(8, 8), v_th_init=0.5, epochs=4, neuron_kind=kind,
                        mode=mode, kappa_axis=axis).fit(tr.x, tr.y)
        got = [d.l2_norms for d in m.history_]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert all(v > 0.0 for v in got[-1]) if kind == "mpe_psn" else got == [[0.0, 0.0]] * 4

    def test_accuracy_time_mean_argmax(self):
        logits = np.zeros((2, 2, 2))
        logits[:, 0, 1] = 1.0  # sample 0 -> class 1
        logits[0, 1, 0] = 3.0  # sample 1 -> class 0 on time average
        logits[1, 1, 1] = 1.0
        assert accuracy(logits, np.array([1, 0])) == 1.0
        assert accuracy(logits, np.array([0, 0])) == 0.5

    def test_csv_header(self):
        header = EpochDiagnostics.csv_header(2)
        assert header.startswith("epoch,loss_cls,loss_mem,loss_total,train_acc,test_acc")
        assert "l2_norm_layer_1" in header and "spike_rate_layer_1" in header

    def test_csv_row_round_trip(self):
        d = EpochDiagnostics(3, 0.1, 0.2, 0.3, 0.9, 0.8, [1.5], [12.5])
        parts = d.csv_row().split(",")
        assert parts[0] == "3"
        assert [float(p) for p in parts[1:]] == [0.1, 0.2, 0.3, 0.9, 0.8, 1.5, 12.5]


class TestSpikingClassifier:
    def test_get_set_params(self):
        m = small_model()
        params = m.get_params()
        assert params["hidden_sizes"] == (16,) and params["epochs"] == 30
        m.set_params(lr=0.05)
        assert m.lr == 0.05
        with pytest.raises(ValueError):
            m.set_params(bogus=1)

    def test_get_params_keys_are_the_constructor_parameters(self):
        signature = inspect.signature(SpikingClassifier.__init__)
        names = [name for name in signature.parameters if name != "self"]
        m = small_model()
        assert list(m.get_params()) == names
        assert SpikingClassifier(**m.get_params()).get_params() == m.get_params()

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            small_model().predict(np.zeros((2, 1, 3)))

    def test_input_must_be_3d(self):
        with pytest.raises(ShapeMismatchError):
            small_model().fit(np.zeros((4, 5)), np.zeros(4))

    def test_non_finite_input_rejected(self):
        tr, te = small_task()
        x = tr.x.copy()
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="x has 1 non-finite"):
            small_model(epochs=1).fit(x, tr.y)
        x_te = te.x.copy()
        x_te[1, 2, 3] = np.inf
        with pytest.raises(ValueError, match="x_test has 1 non-finite"):
            small_model(epochs=1).fit(tr.x, tr.y, x_te, te.y)
        m = small_model(epochs=1).fit(tr.x, tr.y)
        with pytest.raises(ValueError, match="x has 1 non-finite"):
            m.predict(x_te)

    def test_held_out_set_needs_both_halves_that_agree(self):
        tr, te = small_task()
        for x_test, y_test, named in ((te.x, None, "x_test was given without y_test"),
                                      (None, te.y, "y_test was given without x_test"),
                                      (te.x, te.y[:-1], "y_test has shape")):
            m = small_model(epochs=1)
            with pytest.raises(ValueError, match=named):
                m.fit(tr.x, tr.y, x_test, y_test)
            assert not hasattr(m, "history_")  # raised before the first epoch

    def test_held_out_labels_outside_the_learnt_classes_rejected(self):
        tr, te = small_task()
        for y_test in (te.y + 5, te.y - 1):
            m = small_model(epochs=1)
            with pytest.raises(ValueError, match=r"y_test holds -?\d+, not an integer class "
                                                 r"label in \[0, 2\)"):
                m.fit(tr.x, tr.y, te.x, y_test)
            assert not hasattr(m, "history_")  # raised before the first epoch

    def test_learns_separable_task(self):
        tr, te = small_task()
        m = small_model().fit(tr.x, tr.y)
        assert m.score(te.x, te.y) >= 0.9

    def test_fit_is_deterministic(self):
        tr, te = small_task()
        a = small_model().fit(tr.x, tr.y)
        b = small_model().fit(tr.x, tr.y)
        np.testing.assert_array_equal(a.predict_logits(te.x), b.predict_logits(te.x))
        for name in a.registry_.names():
            np.testing.assert_array_equal(a.registry_[name].value, b.registry_[name].value)

    def test_each_epoch_draws_its_own_uniforms(self, monkeypatch):
        tr, _ = small_task()
        keys = []
        draw_blocks = Rng.draw_blocks

        def spy(rng, *args, **kwargs):
            keys.append((rng.seed, rng.stream, rng._calls))
            return draw_blocks(rng, *args, **kwargs)

        monkeypatch.setattr(Rng, "draw_blocks", spy)
        logs = []
        for _ in range(2):
            m = small_model(hidden_sizes=(8, 8), epochs=4).fit(tr.x, tr.y)
            logs.append("\n".join(d.csv_row() for d in m.history_))
        assert len(keys) == 2 * 4 * 2
        assert len(set(keys[:8])) == 8  # per epoch and layer, one (seed, stream, call)
        assert keys[8:] == keys[:8] and logs[1] == logs[0]

    def test_seed_changes_training(self):
        tr, _ = small_task()
        a = small_model(epochs=3).fit(tr.x, tr.y)
        b = small_model(epochs=3, seed=1).fit(tr.x, tr.y)
        assert not np.array_equal(a.registry_["w_0"].value, b.registry_["w_0"].value)

    def test_lif_kind_learns(self):
        tr, te = small_task()
        m = small_model(neuron_kind="lif_sequential", lam=0.0).fit(tr.x, tr.y)
        assert m.score(te.x, te.y) >= 0.9

    def test_expectation_mode_prediction_is_seed_free(self):
        tr, te = small_task()
        m = small_model(epochs=5).fit(tr.x, tr.y)
        np.testing.assert_array_equal(m.predict(te.x), m.predict(te.x))

    def test_history_records_every_epoch(self):
        tr, te = small_task()
        m = small_model(epochs=4)
        history = m.fit(tr.x, tr.y, te.x, te.y).history_
        assert [d.epoch for d in history] == [1, 2, 3, 4]
        assert all(np.isfinite(d.test_acc) for d in history)
        assert all(len(d.l2_norms) == 1 and len(d.spike_rates) == 1 for d in history)

    def test_divergence_raises_with_history(self):
        tr, _ = small_task()
        m = small_model(lr=1e160, epochs=50)
        with pytest.raises(TrainingDivergedError) as exc, np.errstate(all="ignore"):
            m.fit(tr.x, tr.y)
        assert exc.value.epoch >= 1
        assert len(exc.value.history) == exc.value.epoch - 1

    def test_divergence_names_layer_and_quantity(self):
        tr, _ = small_task()
        m = small_model(lr=1e160, epochs=50)
        with pytest.raises(TrainingDivergedError) as exc, np.errstate(all="ignore"):
            m.fit(tr.x, tr.y)
        # huge weights give finite currents and estimates but an overflowing square
        assert (exc.value.layer, exc.value.quantity) == (0, "membrane loss term")
        assert str(exc.value).startswith("non-finite loss at epoch")
        assert "layer 0 membrane loss term" in str(exc.value)

        x = np.sign(tr.x) * 1.5e308  # finite input whose first-layer currents overflow
        with pytest.raises(TrainingDivergedError, match="layer 0 current I") as exc, \
                np.errstate(all="ignore"):
            small_model(epochs=5).fit(x, tr.y)
        assert exc.value.epoch == 1 and exc.value.history == []

    @pytest.mark.parametrize("overrides", [dict(neuron_kind="lif_sequential"), dict(lam=0.0)])
    def test_non_finite_current_stops_training(self, overrides):
        """No loss term reads a non-finite current here: the layer fires no
        spike on NaN and the loss stays finite, so the current is checked."""
        tr, te = small_task()
        x = np.sign(tr.x) * 1.5e308  # finite input whose first-layer currents overflow
        # with held-out data too: its scoring comes after the check
        for held_out in ((), (np.sign(te.x) * 1.5e308, te.y)):
            with pytest.raises(TrainingDivergedError) as exc, np.errstate(all="ignore"):
                small_model(epochs=5, **overrides).fit(x, tr.y, *held_out)
            assert (exc.value.layer, exc.value.quantity, exc.value.epoch) == (0, "current I", 1)
            assert str(exc.value).startswith("non-finite current at epoch 1")

        m = small_model(epochs=1, **overrides).fit(tr.x, tr.y)
        with pytest.raises(ValueError, match="layer 0 current I has non-finite entries"), \
                np.errstate(all="ignore"):
            m.predict_logits(x)
        # held-out data alone overflowing is bad input, not divergence
        with pytest.raises(ValueError, match="layer 0 current I has non-finite entries"), \
                np.errstate(all="ignore"):
            small_model(epochs=1, **overrides).fit(tr.x, tr.y, np.sign(te.x) * 1.5e308, te.y)

    def test_huge_finite_current_trains(self):
        """Currents near 1e200 are finite although their squares overflow."""
        tr, _ = small_task()
        x = tr.x * 1e200
        m = small_model(neuron_kind="lif_sequential", epochs=1).fit(x, tr.y)
        assert np.isfinite(m.history_[0].loss_total)
        m = small_model(neuron_kind="lif_sequential", epochs=1).fit(tr.x, tr.y)
        assert np.all(np.isfinite(m.predict_logits(x)))

    def test_invalid_neuron_kind(self):
        tr, _ = small_task()
        with pytest.raises(ValueError):
            small_model(neuron_kind="izhikevich").fit(tr.x, tr.y)

    @pytest.mark.parametrize("overrides, named", [
        ({"epochs": 0}, r"^epochs must be >= 1, got 0$"),
        ({"epochs": -1}, r"^epochs must be >= 1, got -1$"),
        ({"hidden_sizes": (0,)}, r"^hidden_sizes must hold positive integers, got \(0,\)$"),
        ({"hidden_sizes": (8, -2)}, r"^hidden_sizes must hold positive integers"),
        ({"hidden_sizes": (8.5,)}, r"^hidden_sizes must hold positive integers"),
        ({"hidden_sizes": 32}, r"^hidden_sizes must hold positive integers, got 32$"),
        ({"epochs": 2.5}, r"^epochs must be an integer, got 2\.5$"),
    ])
    def test_empty_run_or_layer_rejected_before_training(self, overrides, named):
        tr, _ = small_task()
        m = small_model(**overrides)
        with pytest.raises(ValueError, match=named):
            m.fit(tr.x, tr.y)
        assert not hasattr(m, "history_")

    @pytest.mark.parametrize("overrides, named", [
        ({"lr": np.nan}, r"^lr must be finite and > 0, got nan$"),
        ({"lr": -0.1}, r"^lr must be finite and > 0, got -0\.1$"),
        ({"lr": np.inf}, r"^lr must be finite and > 0, got inf$"),
        ({"momentum": 1.5}, r"^momentum must lie in \[0, 1\), got 1\.5$"),
        ({"momentum": np.nan}, r"^momentum must lie in \[0, 1\), got nan$"),
        ({"v_th_init": np.nan}, r"^v_th_init must be finite, got nan$"),
        ({"v_th_init": -np.inf}, r"^v_th_init must be finite, got -inf$"),
        ({"mode": "bogus"}, r"^mode must be one of \('sampled', 'expectation'\), got 'bogus'$"),
        ({"mode": "bogus", "neuron_kind": "lif_sequential"}, r"^mode must be one of"),
        ({"kappa_init": np.nan}, r"^kappa_init must be finite and >= 0, got nan$"),
        ({"kappa_init": -1.0}, r"^kappa_init must be finite and >= 0, got -1\.0$"),
        ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
        ({"alpha": np.nan}, r"^alpha must be finite and > 0, got nan$"),
        ({"alpha": np.inf}, r"^alpha must be finite and > 0, got inf$"),
        ({"lam": -0.1}, r"^lam must lie in \[0, 1\], got -0\.1$"),
        ({"lam": 1.5}, r"^lam must lie in \[0, 1\], got 1\.5$"),
        ({"lam": np.nan}, r"^lam must lie in \[0, 1\], got nan$"),
        ({"synaptic_delay": 2}, r"^synaptic_delay must be 0 or 1, got 2$"),
    ])
    def test_bad_hyperparameter_rejected_before_training(self, overrides, named):
        tr, _ = small_task()
        m = small_model(**overrides)
        with pytest.raises(ValueError, match=named):
            m.fit(tr.x, tr.y)
        assert not hasattr(m, "history_")

    def test_synaptic_delay_changes_dynamics(self):
        tr, _ = small_task()
        a = small_model(epochs=1).fit(tr.x, tr.y)
        b = small_model(epochs=1, synaptic_delay=1).fit(tr.x, tr.y)
        assert not np.array_equal(a.predict_logits(tr.x), b.predict_logits(tr.x))

    def test_each_epoch_differentiates_the_blend_of_losses(self, monkeypatch):
        """fit differentiates the blend ``_losses`` returns, once per epoch:
        the loss whose gradient ``verify.check_gradients`` checks."""
        blends, differentiated = [], []
        model_losses, tape_backward = SpikingClassifier._losses, autograd.backward

        def record(model, *args):
            out = model_losses(model, *args)
            blends.append(out[2])
            return out

        def record_backward(loss):
            differentiated.append(loss)
            tape_backward(loss)

        monkeypatch.setattr(SpikingClassifier, "_losses", record)
        monkeypatch.setattr(autograd, "backward", record_backward)
        tr, _ = small_task()
        small_model(epochs=3).fit(tr.x, tr.y)
        assert len(blends) == 3 and all(a is b for a, b in zip(differentiated, blends, strict=True))

    def test_lam_zero_keeps_mem_loss_out_of_total(self):
        tr, _ = small_task()
        m = small_model(epochs=1, lam=0.0).fit(tr.x, tr.y)
        d = m.history_[0]
        assert d.loss_total == d.loss_cls
        assert d.loss_mem > 0.0  # still reported for diagnostics


class TestLabelledBatch:
    """One rule for a labelled batch: x has T, B, N >= 1 and y one integer class
    label per sample; fit, predict and score reject anything else, naming
    the argument."""

    @pytest.fixture(scope="class")
    def fitted(self):
        tr, te = small_task()
        return small_model(epochs=1).fit(tr.x, tr.y), te

    @pytest.mark.parametrize("shape", [(0, 4, 3), (8, 0, 3), (8, 4, 0)])
    def test_empty_batch_rejected(self, fitted, shape):
        m, _ = fitted
        x, y = np.zeros(shape), np.zeros(shape[1])
        named = r"^x: expected \[T, B, N\] input with T, B, N >= 1, got shape"
        for call in (m.predict, lambda x: m.score(x, y), lambda x: small_model().fit(x, y)):
            with pytest.raises(ShapeMismatchError, match=named):
                call(x)

    @pytest.mark.parametrize("y, error, named", [
        ("short", ShapeMismatchError, r"^y has shape \(25,\), expected 26 labels"),
        ("column", ShapeMismatchError, r"^y has shape \(26, 1\), expected 26 labels"),
        ("half", ValueError, r"^y holds 0\.5, not an integer class label in \[0, inf\)"),
        ("nan", ValueError, r"^y holds nan, not an integer class label"),
        ("negative", ValueError, r"^y holds -1, not an integer class label in \[0, inf\)"),
    ])
    def test_bad_labels_rejected_before_training(self, y, error, named):
        tr, _ = small_task()
        bad = {"short": tr.y[:-1], "column": tr.y[:, None],
               "half": np.where(tr.y == 1, 0.5, 0.0), "nan": np.where(tr.y == 1, np.nan, 0.0),
               "negative": tr.y - 1}[y]
        m = small_model(epochs=1)
        with pytest.raises(error, match=named):
            m.fit(tr.x, bad)
        assert not hasattr(m, "history_")

    def test_held_out_column_of_labels_rejected(self):
        tr, te = small_task()
        m = small_model(epochs=1)
        with pytest.raises(ShapeMismatchError, match=r"^y_test has shape \(6, 1\)"):
            m.fit(tr.x, tr.y, te.x, te.y[:, None])
        assert not hasattr(m, "history_")

    def test_score_needs_one_learnt_class_per_sample(self, fitted):
        m, te = fitted
        for y, named in (([0], r"^y has shape \(1,\)"), (te.y[:, None], r"^y has shape \(6, 1\)"),
                         (te.y + 2, r"^y holds \d+, not an integer class label in \[0, 2\)"),
                         (te.y - 0.5, r"^y holds -?0\.5, not an integer class label")):
            with pytest.raises(ValueError, match=named):
                m.score(te.x, y)

    def test_integral_float_labels_train_and_score(self):
        tr, te = small_task()
        a = small_model(epochs=3).fit(tr.x, tr.y, te.x, te.y)
        b = small_model(epochs=3).fit(tr.x, tr.y.astype(float), te.x, te.y.astype(float))
        assert [d.csv_row() for d in b.history_] == [d.csv_row() for d in a.history_]
        assert b.score(te.x, te.y.astype(float)) == a.score(te.x, te.y)

    @pytest.mark.parametrize("kind, names", [
        ("mpe_psn", ["w_0", "v_th_0", "kappa_0", "w_out"]),
        ("lif_sequential", ["w_0", "v_th_0", "w_out"]),
    ])
    def test_kappa_registered_only_where_the_membrane_loss_reads_it(self, kind, names):
        tr, _ = small_task()
        m = small_model(epochs=1, neuron_kind=kind).fit(tr.x, tr.y)
        assert m.registry_.names() == names


class TestScratchScope:
    """``fit`` reuses one set of work arrays per layer from epoch to epoch;
    the arrays die with the call."""

    def test_trace_outside_fit_is_never_overwritten(self):
        tr, te = small_task()
        m = small_model(epochs=2).fit(tr.x, tr.y)
        logits, traces, _ = m.model_forward(te.x, "sampled", Rng(7))
        held = [a.value.copy() for a in (*traces[0][:3], logits)]
        m.model_forward(te.x, "sampled", Rng(8))
        m.fit(te.x, te.y)
        for before, after in zip(held, (*traces[0][:3], logits)):
            np.testing.assert_array_equal(before, after.value)

    def test_back_to_back_fits_repeat(self):
        tr, _ = small_task()
        m = small_model(epochs=4)
        first = [d.csv_row() for d in m.fit(tr.x, tr.y).history_]
        assert [d.csv_row() for d in m.fit(tr.x, tr.y).history_] == first

    @staticmethod
    def fits_with_reused_and_fresh_arrays(monkeypatch, **overrides):
        """History and weights of a fit, and of the same fit that hands each
        layer new arrays at every epoch, as allocating each array afresh does."""
        tr, _ = small_task()

        def fit(model):
            model.fit(tr.x, tr.y)
            return ([d.csv_row() for d in model.history_],
                    [model.registry_[name].value.tobytes() for name in model.registry_.names()])

        reused = fit(small_model(hidden_sizes=(16, 16), epochs=4, **overrides))
        model_forward = SpikingClassifier.model_forward

        def fresh_each_epoch(self, x, mode=None, rng=None, *, scratch=None, **kwargs):
            scratch[:] = [Scratch() for _ in scratch]
            return model_forward(self, x, mode, rng, scratch=scratch, **kwargs)

        monkeypatch.setattr(SpikingClassifier, "model_forward", fresh_each_epoch)
        return reused, fit(small_model(hidden_sizes=(16, 16), epochs=4, **overrides))

    def test_same_shaped_layers_match_fresh_arrays(self, monkeypatch):
        """Two layers of one shape would clobber each other's arrays if they
        shared a scratch."""
        reused, fresh = self.fits_with_reused_and_fresh_arrays(monkeypatch)
        assert fresh == reused

    def test_lif_layers_match_fresh_arrays(self, monkeypatch):
        # threshold 0.5: at 1.0 the second layer stays all but silent
        reused, fresh = self.fits_with_reused_and_fresh_arrays(
            monkeypatch, neuron_kind="lif_sequential", v_th_init=0.5)
        assert fresh == reused

    def test_lif_calls_on_one_scratch_share_memory(self):
        sc, v_th = Scratch(), Var(np.asarray(1.0))
        grads = []
        for seed in (3, 4):
            I = parameter(Rng(seed).uniform_tensor((4, 2, 8), -2, 2))
            tr = lif_tape_forward(I, v_th, 0.25, 1.0, scratch=sc)
            backward(vsum(tr.u) + vsum(tr.o))
            grads.append((tr.u.value, tr.o.value, I.grad))
        assert [a.dtype for a in grads[0]] == [np.float64, np.bool_, np.float64]
        for first, second in zip(*grads):
            assert first.dtype == second.dtype and np.shares_memory(first, second)

    @pytest.mark.parametrize("kind", ["mpe_psn", "lif_sequential"])
    def test_a_fit_leaves_no_idle_buffers(self, kind):
        # each [8, 128, 128] float64 work array is 1 MiB, so it is recycled
        x = Rng(1).uniform_tensor((8, 128, 4), -0.5, 1.5)
        SpikingClassifier(hidden_sizes=(128,), epochs=2, neuron_kind=kind).fit(
            x, np.arange(128) % 2)
        assert not any(numerics._idle.values())

    def test_a_fit_starts_with_no_idle_buffers(self, monkeypatch):
        """A small fit asks for no buffer of an earlier forward's sizes, which
        would stay resident through all its epochs unless it released them."""
        numerics.empty((1 << 17,))  # 1 MiB, idle once the statement ends
        assert any(numerics._idle.values())
        idle_at_forward = []
        model_forward = SpikingClassifier.model_forward

        def record(self, *args, **kwargs):
            idle_at_forward.append(sum(map(len, numerics._idle.values())))
            return model_forward(self, *args, **kwargs)

        monkeypatch.setattr(SpikingClassifier, "model_forward", record)
        tr, _ = small_task()
        small_model(epochs=2).fit(tr.x, tr.y)
        assert idle_at_forward == [0, 0]

    def test_lif_trace_outside_fit_is_never_overwritten(self):
        tr, te = small_task()
        m = small_model(neuron_kind="lif_sequential", epochs=2).fit(tr.x, tr.y)
        logits, traces, _ = m.model_forward(te.x)
        held = [a.value.copy() for a in (traces[0].u, traces[0].o, logits)]
        m.model_forward(te.x[::-1])
        m.fit(te.x, te.y)
        for before, after in zip(held, (traces[0].u, traces[0].o, logits)):
            np.testing.assert_array_equal(before, after.value)


class TestNoTapeInference:
    """``predict_logits`` runs the spikes-only forward, with no tape.  Its
    bit-identity with the training forward, for both kinds, both delays and
    one or two hidden layers, is the verify check
    ``inference_vs_training_forward`` (tests/test_verify.py)."""

    def test_single_step_forms_no_estimate(self, monkeypatch):
        tr, te = small_task()
        m = small_model(hidden_sizes=(8, 8), epochs=5).fit(tr.x, tr.y)
        x = te.x[:1]
        logits, _, _ = m.model_forward(x, "expectation")

        def no_estimate(*args):
            raise AssertionError("estimate formed for a step nothing reads")

        monkeypatch.setattr(neuron, "_estimate", no_estimate)
        np.testing.assert_array_equal(m.predict_logits(x), logits.value)

    def test_predict_builds_no_tape(self, monkeypatch):
        tr, te = small_task()
        m = small_model(epochs=5).fit(tr.x, tr.y)
        expected = m.predict(te.x)

        def no_tape(*args, **kwargs):
            raise AssertionError("predict built a tape node")

        monkeypatch.setattr(autograd, "multi_output", no_tape)
        monkeypatch.setattr(autograd, "matmul", no_tape)
        np.testing.assert_array_equal(m.predict(te.x), expected)

    def test_wrong_width_names_expected(self):
        tr, _ = small_task()
        m = small_model(epochs=1).fit(tr.x, tr.y)
        with pytest.raises(ShapeMismatchError, match="expects 16 inputs, got 3"):
            m.predict(np.zeros((8, 2, 3)))


class TestPooledPredict:
    """Predict cuts the batch into blocks of samples sized by the model's
    shape (``numerics.PREDICT_BLOCK_VALUES``), and several blocks run on a
    pool of ``MPE_PSN_WORKERS`` (default: the usable cores); the logits must
    not depend on the worker count."""

    @staticmethod
    def count_pool_calls(monkeypatch):
        calls = []
        map_ranges = numerics.WorkerPool.map_ranges

        def counted(pool, n, fn):
            calls.append(pool.workers)
            return map_ranges(pool, n, fn)

        monkeypatch.setattr(numerics.WorkerPool, "map_ranges", counted)
        return calls

    @staticmethod
    def logits_per_worker_count(monkeypatch, model, x, counts=("1", "2", "3")):
        out = []
        for workers in counts:
            monkeypatch.setenv(numerics.WORKERS_ENV_VAR, workers)
            out.append(model.predict_logits(x))
        return out

    @staticmethod
    def currents(T, B, seed=8):
        return Rng(seed).uniform_tensor((T, B, 16), -0.5, 1.5)

    @pytest.mark.parametrize("kind", ["mpe_psn", "lif_sequential"])
    @pytest.mark.parametrize("delay", [0, 1])
    @pytest.mark.parametrize("hidden", [(8,), (8, 8)])
    def test_logits_identical_across_worker_counts(self, monkeypatch, kind, delay, hidden):
        tr, _ = small_task()
        # threshold 0.5: at 1.0 a second hidden layer stays silent on these inputs
        m = small_model(hidden_sizes=hidden, neuron_kind=kind, synaptic_delay=delay,
                        v_th_init=0.5, epochs=5).fit(tr.x, tr.y)
        # blocks of the fewest samples: 32 at T = 8 (MATMUL_MIN_BLOCK_ROWS rows)
        monkeypatch.setattr(numerics, "PREDICT_BLOCK_VALUES", 1)
        size = m._block_samples(8)
        x = self.currents(8, 3 * size + 17)  # three blocks and one with the remainder
        calls = self.count_pool_calls(monkeypatch)
        one, *more = self.logits_per_worker_count(monkeypatch, m, x)
        for logits in more:
            assert logits.tobytes() == one.tobytes()
        logits, traces, _ = m.model_forward(x, "expectation")
        assert all(t.o.value.dtype == np.bool_ for t in traces)
        assert one.tobytes() == logits.value.tobytes()
        assert np.any(one != 0.0)
        assert calls == [1, 2, 3]  # one per multi-block predict, whatever the kind

    def test_large_predict_uses_the_pool(self, monkeypatch):
        tr, _ = small_task()
        m = small_model(hidden_sizes=(32,), epochs=5).fit(tr.x, tr.y)
        x = (self.currents(8, 2 * m._block_samples(8) + 5) < 0.3).astype(float)
        calls = self.count_pool_calls(monkeypatch)
        one, *more = self.logits_per_worker_count(monkeypatch, m, x)
        assert calls == [1, 2, 3]
        for logits in more:
            assert logits.tobytes() == one.tobytes()

    def test_small_predict_makes_no_pool_call(self, monkeypatch):
        tr, te = small_task()
        m = small_model(epochs=5).fit(tr.x, tr.y)
        assert te.x.shape[1] < 2 * m._block_samples(8)  # one block
        calls = self.count_pool_calls(monkeypatch)
        monkeypatch.setenv(numerics.WORKERS_ENV_VAR, "2")
        m.predict(te.x)
        assert calls == []

    def test_one_call_per_block_for_any_worker_count(self, monkeypatch):
        """Above the usable cores the worker count adds no per-block work,
        and the pool starts no more threads than the cores it may use."""
        tr, _ = small_task()
        m = small_model(epochs=2).fit(tr.x, tr.y)
        monkeypatch.setattr(numerics, "PREDICT_BLOCK_VALUES", 1)
        size = m._block_samples(8)
        x = self.currents(8, 5 * size + 3)
        block_logits = SpikingClassifier._block_logits
        calls = []

        def counted(model, *args):
            calls.append(threading.get_ident())
            return block_logits(model, *args)

        monkeypatch.setattr(SpikingClassifier, "_block_logits", counted)
        out = []
        for workers in ("1", "3", "64"):
            calls.clear()
            out += self.logits_per_worker_count(monkeypatch, m, x, (workers,))
            assert len(calls) == 5
            assert len(set(calls)) <= min(int(workers), numerics._usable_cores())
        assert out[1].tobytes() == out[0].tobytes() == out[2].tobytes()

    def test_bad_worker_count_fails_on_a_one_block_predict(self, monkeypatch):
        tr, te = small_task()
        m = small_model(epochs=2).fit(tr.x, tr.y)
        calls = self.count_pool_calls(monkeypatch)
        for bad in ("0", "abc"):
            monkeypatch.setenv(numerics.WORKERS_ENV_VAR, bad)
            with pytest.raises(ValueError, match=numerics.WORKERS_ENV_VAR):
                m.predict(te.x[:, :3])
        assert calls == []

    def test_callers_errstate_reaches_the_pool_threads(self, monkeypatch):
        tr, _ = small_task()
        m = small_model(hidden_sizes=(8, 8), epochs=2).fit(tr.x, tr.y)
        monkeypatch.setattr(numerics, "PREDICT_BLOCK_VALUES", 1)
        monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)  # so a pool thread runs
        monkeypatch.setenv(numerics.WORKERS_ENV_VAR, "2")
        x = self.currents(8, 3 * m._block_samples(8) + 7)
        m.synapses_[0].value[:, 0] = 0.25
        x[5, -1] = 1.5e308  # the last block, which the pool thread runs, overflows
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="layer 0 current I has non-finite"):
                m.predict_logits(x)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_in_the_last_block_names_the_first_layer(self, monkeypatch):
        tr, _ = small_task()
        m = small_model(hidden_sizes=(8, 8), epochs=2).fit(tr.x, tr.y)
        monkeypatch.setattr(numerics, "PREDICT_BLOCK_VALUES", 1)
        x = self.currents(8, 3 * m._block_samples(8) + 7)
        m.synapses_[0].value[:, 0] = 0.25
        x[5, -1] = 1.5e308  # finite, but the last sample's layer-0 current overflows
        for layer_1_too in (False, True):
            if layer_1_too:  # then every block's layer-1 current is non-finite
                m.synapses_[1].value[0, 0] = np.inf
            for workers in ("1", "2", "3"):
                monkeypatch.setenv(numerics.WORKERS_ENV_VAR, workers)
                with pytest.raises(ValueError, match="layer 0 current I has non-finite"):
                    m.predict_logits(x)


class TestAllFinite:
    N = 3 * 8192 + 5

    def test_finds_a_bad_entry_in_any_slice(self):
        n = self.N
        x = Rng(2).uniform_tensor((n,), -1, 1)
        assert network._all_finite(x)
        for pos in (0, n // 2, n - 1):
            for bad in (np.nan, np.inf, -np.inf):
                y = x.copy()
                y[pos] = bad
                assert not network._all_finite(y), (pos, bad)

    def test_overflowing_squares_of_finite_entries_pass(self):
        x = np.full((2, 3, self.N), 1e200)
        assert network._all_finite(x)
        x[1, 2, 7] = np.nan
        assert not network._all_finite(x)

    def test_check_input_counts_every_bad_entry(self):
        x = np.zeros((2, 3, self.N))
        x[0, 0, 0] = np.nan
        x[1, 2, -1] = np.inf
        with pytest.raises(ValueError, match="x has 2 non-finite entries"):
            network.check_input(x, "x")

    def test_no_check_calls_numpy_dot(self, monkeypatch):
        """The finiteness checks of inputs and currents run without BLAS."""
        tr, te = small_task()
        bad = np.zeros((2, 3, self.N))
        bad[1, 1, 5] = -np.inf
        overflowing = np.sign(tr.x) * 1.5e308

        def results():
            out = [network.check_input(tr.x, "x").tobytes()]
            with pytest.raises(ValueError, match="x has 1 non-finite entries"):
                network.check_input(bad, "x")
            m = small_model(epochs=3).fit(tr.x, tr.y, te.x, te.y)
            out += [d.csv_row() for d in m.history_]
            out.append(m.predict_logits(te.x).tobytes())
            with np.errstate(all="ignore"):
                with pytest.raises(TrainingDivergedError) as err:
                    small_model(epochs=3).fit(overflowing, tr.y)
            out.append((err.value.layer, err.value.quantity))
            return out

        expected = results()

        def no_dot(*args, **kwargs):
            raise AssertionError("numpy.dot called")

        monkeypatch.setattr(np, "dot", no_dot)
        assert results() == expected
