import numpy as np
import pytest

from mpepsn import losses, network, neuron, numerics, verify
from mpepsn.verify import CheckResult


class TestCheckResult:
    def test_pass_line(self):
        res = CheckResult("demo", 10, 0)
        assert res.passed
        assert res.line() == "PASS demo: 10 trials, 0 failures"

    def test_fail_line_includes_err(self):
        res = CheckResult("demo", 10, 2, max_err=0.5)
        assert not res.passed
        assert res.line().startswith("FAIL demo")
        assert "max_err=0.5" in res.line()

    def test_csv_row(self):
        res = CheckResult("demo", 10, 0, max_err=0.25)
        assert res.csv_row() == "demo,10,0,0.25,pass"
        assert len(res.csv_row().split(",")) == len(verify.CSV_HEADER.split(","))


class TestChecks:
    def test_t0_exactness_clean(self):
        assert verify.check_t0_exactness(trials=50).passed

    def test_t0_exactness_fault_detected(self, t0_fault):
        res = verify.check_t0_exactness(trials=50)
        assert res.failures > 0
        assert res.details

    def test_teacher_forced(self):
        assert verify.check_teacher_forced(trials=50).passed

    def test_reset_law(self):
        assert verify.check_reset_law(trials=50).passed

    @pytest.mark.parametrize("forward, spikes", [("mpe_psn_forward", "o"),
                                                 ("mpe_psn_forward", "b"),
                                                 ("lif_sequential", 1)])
    def test_reset_law_fault_detected(self, monkeypatch, forward, spikes):
        # the same 0/1 values, returned as float64
        orig = getattr(neuron, forward)

        def float_spikes(*args, **kwargs):
            out = orig(*args, **kwargs)
            if isinstance(spikes, str):
                return out._replace(**{spikes: getattr(out, spikes).astype(np.float64)})
            return (*out[:spikes], out[spikes].astype(np.float64), *out[spikes + 1:])

        monkeypatch.setattr(neuron, forward, float_spikes)
        res = verify.check_reset_law(trials=20)
        assert res.failures == 20 and res.details

    def test_reset_law_detects_spikes_that_h_does_not_give(self, monkeypatch):
        # bool spikes, flipped at one position: o no longer equals h >= v_th
        orig = neuron.mpe_psn_forward

        def flipped(*args, **kwargs):
            tr = orig(*args, **kwargs)
            tr.o.flat[-1] = ~tr.o.flat[-1]
            return tr

        monkeypatch.setattr(neuron, "mpe_psn_forward", flipped)
        res = verify.check_reset_law(trials=20)
        assert res.failures == 20 and res.details

    def test_gradients(self):
        res = verify.check_gradients(graphs=25)
        assert res.passed
        assert res.max_err < 1e-4

    @pytest.mark.parametrize("name, scale", [("mem_loss", 0.5), ("cls_loss", 1.5)])
    def test_gradients_detect_a_wrong_backward(self, monkeypatch, name, scale):
        # the gradient of a loss term's first input scaled, its value left as
        # it is: u_hat's in the membrane term each MPE-PSN node forms
        # (losses.mem_term), or the logits' in the classification loss node
        def scaled(backward):
            def wrong(g):
                first, *rest = backward(g)
                return (first * scale, *rest)

            return wrong

        term, cls_loss = losses.mem_term, losses.cls_loss

        def faulty_term(*args):
            value, l2, backward = term(*args)
            return value, l2, scaled(backward)

        def faulty_cls_loss(*args):
            node = cls_loss(*args)
            node._backward = scaled(node._backward)
            return node

        if name == "mem_loss":
            monkeypatch.setattr(losses, "mem_term", faulty_term)
        else:
            monkeypatch.setattr(losses, "cls_loss", faulty_cls_loss)
        res = verify.check_gradients(graphs=25)
        assert res.failures > 0
        assert res.details

    def test_gradient_graphs_run_every_layer_kind_and_delay(self, monkeypatch):
        """Through ``model_forward``, the graphs reach the MPE-PSN layer node
        in both modes and the LIF node, each with synaptic delay 0 and 1,
        and differentiate the loss of ``SpikingClassifier._losses``."""
        reached, delays, blends = set(), [], []
        synapse, model_losses = network.synapse_forward, network.SpikingClassifier._losses
        mpe, lif = network.mpe_psn_tape_forward, network.lif_tape_forward

        def record_delay(o, W, delay=0):
            delays.append(delay)
            return synapse(o, W, delay)

        def record_mpe(I, v_th, tau_m, alpha, mode, *args, **kwargs):
            reached.add((mode, delays[-1]))  # the delay of the synapse feeding it
            return mpe(I, v_th, tau_m, alpha, mode, *args, **kwargs)

        def record_lif(*args, **kwargs):
            reached.add(("lif", delays[-1]))
            return lif(*args, **kwargs)

        def record_losses(model, *args):
            blends.append(model_losses(model, *args))
            return blends[-1]

        monkeypatch.setattr(network, "synapse_forward", record_delay)
        monkeypatch.setattr(network, "mpe_psn_tape_forward", record_mpe)
        monkeypatch.setattr(network, "lif_tape_forward", record_lif)
        monkeypatch.setattr(network.SpikingClassifier, "_losses", record_losses)
        assert verify.check_gradients(graphs=6).passed
        assert reached == {(kind, delay) for kind in verify.LAYER_KINDS for delay in (0, 1)}
        assert blends

    def test_surrogate_chain_exact(self):
        res = verify.check_surrogate_chain()
        assert res.passed
        assert res.max_err == 0.0

    @pytest.mark.parametrize("kind", verify.LAYER_KINDS)
    def test_surrogate_chain_hand_value_per_layer_kind(self, kind):
        assert verify.surrogate_chain_grad(kind) == 0.8

    def test_matmul_vs_fixed_order(self):
        res = verify.check_matmul_vs_fixed_order(trials=50)
        assert res.passed
        assert res.trials == 50 + len(verify.TRAIN_REF_MATMUL_SHAPES)
        assert 0.0 < res.max_err <= 1.0

    def test_matmul_check_detects_drift(self, monkeypatch):
        blas = numerics.matmul
        # a relative error of 1e-9 is far above K * eps for every K checked (<= 1640)
        monkeypatch.setattr(numerics, "matmul", lambda a, b: blas(a, b) * (1.0 + 1e-9))
        res = verify.check_matmul_vs_fixed_order(trials=10)
        assert res.failures == res.trials
        assert res.details

    def test_sigmoid_vs_expit(self):
        res = verify.check_sigmoid_vs_expit(trials=50)
        assert res.passed
        assert 0.0 < res.max_err <= verify.SIGMOID_ULP_BOUND

    def test_sigmoid_check_detects_8_ulp(self, monkeypatch):
        sigmoid = numerics.sigmoid

        def off_by_8_ulp(x, out=None):
            y = sigmoid(x, out)
            return y + 8 * np.spacing(y)

        monkeypatch.setattr(numerics, "sigmoid", off_by_8_ulp)
        res = verify.check_sigmoid_vs_expit(trials=10)
        assert res.failures == res.trials
        assert res.details

    def test_sigmoid_check_requires_nan_to_propagate(self, monkeypatch):
        sigmoid = numerics.sigmoid
        monkeypatch.setattr(numerics, "sigmoid",
                            lambda x, out=None: np.nan_to_num(sigmoid(x, out)))
        assert verify.check_sigmoid_vs_expit(trials=10).failures == 10

    def test_expectation_estimate_vs_expit(self):
        res = verify.check_expectation_estimate(trials=50)
        assert res.passed
        assert 0.0 < res.max_err <= verify.ESTIMATE_ULP_BOUND

    @staticmethod
    def plant_expectation_estimate(monkeypatch, form):
        """Make the passes form their expectation estimate by ``form(I, u_hat)``."""
        estimate = neuron._estimate

        def planted(I, u_hat, k=None, b=None):
            if k is None:
                form(I, u_hat)
            else:
                estimate(I, u_hat, k, b)

        monkeypatch.setattr(neuron, "_estimate", planted)

    def test_expectation_check_detects_the_cancelling_form(self, monkeypatch):
        # (1 - P) * I: 1 - P rounds to 0 for I above about 37, where the
        # true estimate is about 1e-15
        def one_minus_sigmoid(I, u_hat):
            numerics.sigmoid(I, out=u_hat)
            np.subtract(1.0, u_hat, out=u_hat)
            np.multiply(u_hat, I, out=u_hat)

        self.plant_expectation_estimate(monkeypatch, one_minus_sigmoid)
        res = verify.check_expectation_estimate(trials=10)
        assert res.failures == res.trials
        assert res.max_err > 1e6 and res.details

    def test_expectation_check_requires_nan_to_propagate(self, monkeypatch):
        def nan_to_zero(I, u_hat):
            with np.errstate(over="ignore", invalid="ignore"):
                u_hat[...] = np.nan_to_num(I / (1.0 + np.exp(I)), nan=0.0, posinf=np.inf,
                                           neginf=-np.inf)

        self.plant_expectation_estimate(monkeypatch, nan_to_zero)
        assert verify.check_expectation_estimate(trials=10).failures == 10

    def test_bernoulli_draws(self):
        res = verify.check_bernoulli_draws()
        assert res.passed
        assert res.trials == len(verify.BERNOULLI_PROBABILITIES) + 6
        assert 0.0 < res.max_err <= verify.BERNOULLI_SIGMAS

    def test_bernoulli_check_detects_a_draw_scaled_by_2_to_the_minus_31(self, monkeypatch):
        uniforms = numerics.Rng.uniforms
        monkeypatch.setattr(numerics.Rng, "uniforms", lambda rng, n: uniforms(rng, n) * 2.0)
        res = verify.check_bernoulli_draws()
        # every frequency trial fails; the bitwise half checks the 16-bit
        # draw, which does not go through uniforms
        assert res.failures == len(verify.BERNOULLI_PROBABILITIES)
        assert all(d.startswith("P=") for d in res.details)

    @staticmethod
    def plant_draw_blocks(monkeypatch, first_word):
        """Draw blocks with the block at chunk c of the range from chunk lo
        starting at word ``first_word(lo, c)`` of the draw's stream, where
        the draw starts it at word c * CHUNK // 4."""
        C = numerics.Rng.CHUNK

        def draw_blocks(rng, n, block_chunks, fn, pool=None):
            state = rng._pcg_state(rng._next_call())

            def work(lo, hi):
                bits = np.random.PCG64DXSM(0)
                for c in range(lo, hi, block_chunks):
                    bits.state = state
                    bits.advance(first_word(lo, c))
                    start = c * C
                    stop = min(start + block_chunks * C, hi * C, n)
                    words = bits.random_raw(-(-(stop - start) // 4))
                    fn(start, stop, words.astype("<u8", copy=False).view("<u2")[:stop - start])

            numerics.map_ranges(pool, -(-n // C), work)

        monkeypatch.setattr(numerics.Rng, "draw_blocks", draw_blocks)

    def test_planted_draw_blocks_without_a_fault_passes(self, monkeypatch):
        # the stand-in draws as draw_blocks does when its blocks start right
        C = numerics.Rng.CHUNK
        self.plant_draw_blocks(monkeypatch, lambda lo, c: c * C // 4)
        assert verify.check_bernoulli_draws().passed

    def test_bernoulli_check_detects_a_range_advancing_to_the_wrong_word(self, monkeypatch):
        # each range advances to word lo * CHUNK // 8, half the words its
        # first chunk lies past: a range after the first then repeats draws
        C = numerics.Rng.CHUNK
        self.plant_draw_blocks(monkeypatch, lambda lo, c: lo * C // 8 + (c - lo) * C // 4)
        res = verify.check_bernoulli_draws()
        assert res.failures == 3  # n = CHUNK + 1, 2 * CHUNK and 5 * CHUNK + 17
        assert all("differ across" in d for d in res.details)

    def test_bernoulli_check_detects_blocks_restarting_their_range(self, monkeypatch):
        # each block starts at its range's first word, so the second block
        # of a range repeats the first block's draws
        C = numerics.Rng.CHUNK
        self.plant_draw_blocks(monkeypatch, lambda lo, c: lo * C // 4)
        res = verify.check_bernoulli_draws()
        assert res.failures == 1  # n = 5 * CHUNK + 17, the one size of two blocks
        assert f"n={5 * C + 17}: draws differ across" in res.details[0]

    def test_table_draw(self):
        res = verify.check_table_draw()
        assert res.passed
        assert res.trials == 2 + len(verify.BERNOULLI_PROBABILITIES)
        assert 2.0**-18 < res.max_err <= verify.TABLE_DRAW_BOUND

    def test_table_check_detects_a_table_off_by_half_a_step(self, monkeypatch):
        # logit(k / 2^16): P' is sigmoid rounded up, 2^-16 from it at worst
        k = np.arange(1, 1 << 16)
        table = np.concatenate([[-np.inf], np.log(k / ((1 << 16) - k))])
        monkeypatch.setattr(neuron, "LOGIT_TABLE", table)
        res = verify.check_table_draw()
        assert res.failures == 1 and "|P' - expit|" in res.details[0]

    def test_table_check_detects_nan_drawing_a_spike(self, monkeypatch):
        # b = not (I <= table entry): the same at every number, 1 at NaN
        def estimate(I, u_hat, k=None, b=None):
            estimate_(I, u_hat, k, b)
            if k is not None:
                b |= np.isnan(I)

        estimate_ = neuron._estimate
        monkeypatch.setattr(neuron, "_estimate", estimate)
        res = verify.check_table_draw()
        assert res.failures == 1 and "NaN" in res.details[0]

    def test_table_check_detects_a_draw_on_half_the_table(self, monkeypatch):
        # k // 2 reaches only the lower half of the table: every frequency is off
        draw_blocks = numerics.Rng.draw_blocks

        def halved(rng, n, block_chunks, fn, pool=None):
            draw_blocks(rng, n, block_chunks, lambda lo, hi, k: fn(lo, hi, k // 2), pool)

        monkeypatch.setattr(numerics.Rng, "draw_blocks", halved)
        res = verify.check_table_draw()
        assert res.failures == len(verify.BERNOULLI_PROBABILITIES)
        assert all(d.startswith("P=") for d in res.details)

    def test_inference_vs_training_forward(self):
        res = verify.check_inference_vs_training_forward(trials=50)
        assert res.passed
        assert res.trials == 50 + 8  # 2 kinds x 2 delays x 2 hidden shapes
        assert res.max_err == 0.0

    def test_inference_check_detects_a_dropped_history(self, monkeypatch):
        # spikes of the input current alone: right at t = 0, wrong after it
        monkeypatch.setattr(neuron, "mpe_psn_spikes",
                            lambda I, p: np.greater_equal(I, p.v_th).astype(np.float64))
        res = verify.check_inference_vs_training_forward(trials=50)
        assert 0 < res.failures < res.trials
        assert res.details

    @staticmethod
    def plant_block_fault(monkeypatch, fault):
        """Predict with ``fault(model, x, lo, hi)`` giving the samples and
        bounds that each block reads."""
        block_logits = network.SpikingClassifier._block_logits

        def faulty(model, x, lo, hi, logits):
            return block_logits(model, *fault(model, x, lo, hi), logits)

        monkeypatch.setattr(network.SpikingClassifier, "_block_logits", faulty)

    def test_inference_check_detects_a_block_reading_one_sample_off(self, monkeypatch):
        # every block after the first reads the samples one further on
        self.plant_block_fault(monkeypatch, lambda model, x, lo, hi: (
            (np.roll(x, -1, axis=1) if lo else x), lo, hi))
        res = verify.check_inference_vs_training_forward(trials=5)
        assert res.failures == 8  # each model, on its batch of several blocks
        assert res.details

    def test_inference_check_detects_a_dropped_remainder(self, monkeypatch):
        # the last block stops at the block size, leaving its remainder unwritten
        def fault(model, x, lo, hi):
            return x, lo, min(hi, lo + model._block_samples(x.shape[0]))

        self.plant_block_fault(monkeypatch, fault)
        res = verify.check_inference_vs_training_forward(trials=5)
        assert res.failures == 8
        assert res.details


class TestRunAll:
    def test_all_pass(self):
        results = verify.run_all(trials=25)
        assert len(results) == 11
        assert all(r.passed for r in results)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify.run_all(trials=0)

    def test_fault_propagates(self, t0_fault):
        results = verify.run_all(trials=25)
        by_name = {r.name: r for r in results}
        assert not by_name["t0_exactness"].passed
        assert by_name["teacher_forced_equivalence"].passed
