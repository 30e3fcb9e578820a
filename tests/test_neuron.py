import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mpepsn import neuron, numerics
from mpepsn.neuron import (
    MODES,
    NeuronParams,
    lif_sequential,
    mpe_psn_forward,
    teacher_forced_forward,
)
from mpepsn.numerics import Rng, Scratch, ShapeMismatchError, WorkerPool, sigmoid

import elementwise_ops


def random_case(seed, T=None):
    r = Rng(seed)
    dims = r.uniforms(3)
    T = T or 1 + int(dims[0] * 8)
    B = 1 + int(dims[1] * 4)
    N = 1 + int(dims[2] * 64)
    return r.spawn(9).uniform_tensor((T, B, N), -2.0, 2.0)


def as3d(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1)


class TestHeaviside:
    """The spike rule every forward applies: fire where h >= v_th."""

    @staticmethod
    def spikes(current):
        # at t = 0 every forward's h is the current itself
        I, p = as3d([current]), NeuronParams()
        outs = [lif_sequential(I, p)[1], neuron.mpe_psn_spikes(I, p)]
        outs += [mpe_psn_forward(I, p, mode, Rng(0)).o for mode in MODES]
        return {o.item() for o in outs}

    def test_tie_fires(self):
        assert self.spikes(1.0) == {1.0}

    def test_below(self):
        assert self.spikes(0.999) == {0.0}
        assert self.spikes(-5.0) == {0.0}


class TestNeuronParams:
    def test_defaults(self):
        p = NeuronParams()
        assert (p.tau_m, p.v_th, p.alpha) == (0.25, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NeuronParams(tau_m=0.0)
        with pytest.raises(ValueError):
            NeuronParams(alpha=-1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=rf"^alpha must be finite and > 0, got {alpha}$"):
            NeuronParams(alpha=alpha)


class TestLifSequential:
    def test_subthreshold_hand_case(self):
        # u_t = 0.25 * u_{t-1} + 0.6, never crossing threshold 1.0
        u, o = lif_sequential(as3d([0.6, 0.6, 0.6]), NeuronParams())
        np.testing.assert_allclose(u.ravel(), [0.6, 0.75, 0.7875], rtol=0, atol=0)
        np.testing.assert_array_equal(o, np.zeros_like(o))

    def test_single_step_fire_and_reset(self):
        u, o = lif_sequential(as3d([1.2]), NeuronParams())
        assert o.ravel().tolist() == [1.0]
        assert u.ravel().tolist() == [0.0]

    def test_zero_fixed_point(self):
        u, o = lif_sequential(np.zeros((5, 2, 3)), NeuronParams())
        assert not u.any() and not o.any()

    def test_needs_time_axis(self):
        with pytest.raises(ShapeMismatchError):
            lif_sequential(np.zeros((4, 4)), NeuronParams())


class TestTiledLif:
    """The in-place, column-tiled recurrence against the loop that forms
    fresh arrays at every step, byte for byte (the sign of zero included)
    and dtype for dtype (o is bool), with tiles of 4 columns so that small
    shapes span several tiles."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(neuron, "LIF_TILE_COLUMNS", 4)

    @staticmethod
    def assert_bytes_equal(I, params):
        with np.errstate(invalid="ignore"):
            ref = elementwise_ops.lif_sequential(I, params)
            got = lif_sequential(I, params)
        assert [a.dtype for a in got] == [np.float64, np.bool_]
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(6, 1, 11), (5, 2, 4), (1, 3, 5), (1, 1, 1), (3, 11, 1)])
    @pytest.mark.parametrize("v_th", [1.0, 0.0, -0.5])
    def test_matches_the_per_step_loop(self, shape, v_th):
        I = Rng(31).uniform_tensor(shape, -2.0, 2.0)
        I[0].reshape(-1)[::2] = -0.0  # a zero history keeps h = +0.0
        I.reshape(-1)[1::5] = -0.0
        self.assert_bytes_equal(I, NeuronParams(v_th=v_th))

    @pytest.mark.parametrize("v_th", [1.0, 0.0, -0.5])
    def test_non_finite_currents(self, v_th):
        I = Rng(32).uniform_tensor((7, 1, 11), -2.0, 2.0)  # B*N = 2 tiles of 4 + 3
        flat = I.reshape(-1)
        flat[3::7], flat[5::11], flat[9::13] = np.nan, np.inf, -np.inf
        I[0, 0, :3] = (np.inf, -np.inf, np.nan)
        self.assert_bytes_equal(I, NeuronParams(v_th=v_th))

    def test_kept_potential_is_the_loop_s(self):
        I, p = Rng(33).uniform_tensor((6, 1, 11), -2.0, 2.0), NeuronParams()
        u, o, h = np.empty(I.shape), np.empty(I.shape, bool), np.empty(I.shape)
        neuron._lif_into(I, p, u, o, h)
        ref = p.tau_m * neuron.shift_time(u) + I
        assert h.tobytes() == ref.tobytes()
        assert u.tobytes() == lif_sequential(I, p)[0].tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
@pytest.mark.parametrize("shape", [(0, 2, 3), (1, 2, 3), (5, 2, 3), (4, 1, 1 << 18)])
def test_shift_time_matches_zeros_then_copy(shape, dtype):
    x = Rng(35).uniform_tensor(shape, -2.0, 2.0)
    x.reshape(-1)[::7], x.reshape(-1)[3::11] = -0.0, np.nan
    x = x.astype(dtype) if dtype == np.bool_ else x
    old = np.zeros_like(x)
    old[1:] = x[:-1]
    # over recycled memory, poisoned where the new form writes row 0
    poisoned = numerics.empty(shape, dtype)
    poisoned[...] = True if dtype == np.bool_ else np.nan
    del poisoned
    got = neuron.shift_time(x)
    assert (got.shape, got.dtype) == (x.shape, x.dtype)
    assert got.tobytes() == old.tobytes()


@pytest.mark.usefixtures("no_idle_buffers")
def test_lif_sequential_takes_one_tile_row_beside_its_outputs():
    I = Rng(34).uniform_tensor((16, 1, 1 << 16), -2.0, 2.0)
    row = neuron.LIF_TILE_COLUMNS * I.itemsize
    tracemalloc.start()
    try:
        u, o = lif_sequential(I, NeuronParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - (u.nbytes + o.nbytes) <= 1.5 * row


class TestEstimator:
    def test_zero_input_expectation(self):
        # P = 1/2 everywhere, which the pass does not hold: u_hat = 0 / 2
        tr = mpe_psn_forward(np.zeros((2, 1, 3)), NeuronParams(), "expectation")
        assert "b" not in tr._fields
        np.testing.assert_array_equal(tr.u_hat, np.zeros_like(tr.u_hat))

    def test_negative_saturation(self):
        I = np.full((1, 1, 4), -50.0)
        tr = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(0))
        assert np.all(sigmoid(tr.I) < 1e-15)
        np.testing.assert_array_equal(tr.b, np.zeros_like(tr.b))
        np.testing.assert_array_equal(tr.u_hat, I)

    def test_positive_saturation(self):
        I = np.full((1, 1, 4), 50.0)
        tr = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(0))
        assert np.all(1.0 - sigmoid(tr.I) < 1e-15)
        np.testing.assert_array_equal(tr.b, np.ones_like(tr.b))
        np.testing.assert_array_equal(tr.u_hat, np.zeros_like(tr.u_hat))

    def test_sampled_requires_rng(self):
        with pytest.raises(ValueError, match="requires an Rng"):
            mpe_psn_forward(np.zeros((1, 1, 1)), NeuronParams(), "sampled")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            mpe_psn_forward(np.zeros((1, 1, 1)), NeuronParams(), "mean-field")


class TestParallelForward:
    def test_t0_matches_oracle(self):
        for seed in range(50):
            I = random_case(seed)
            u_seq, o_seq = lif_sequential(I, NeuronParams())
            tr = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(1000 + seed))
            np.testing.assert_array_equal(tr.u[0], u_seq[0])
            np.testing.assert_array_equal(tr.o[0], o_seq[0])

    def test_two_step_hand_case(self):
        # expectation mode: u_hat[0] = (1 - sigmoid(0.6)) * 0.6 feeds step 1
        I = as3d([0.6, 0.6])
        tr = mpe_psn_forward(I, NeuronParams(), "expectation")
        u_hat0 = 0.6 / (1.0 + math.exp(0.6))
        h1 = 0.25 * u_hat0 + 0.6
        assert abs(tr.u_hat[0].item() - u_hat0) < 1e-15
        assert abs(tr.h[1].item() - h1) < 1e-15
        assert tr.o[1].item() == 0.0
        assert abs(tr.u[1].item() - h1) < 1e-15

    def test_single_step_equals_oracle_exactly(self):
        for seed in range(20):
            I = random_case(seed, T=1)
            u_seq, o_seq = lif_sequential(I, NeuronParams())
            tr = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(seed))
            np.testing.assert_array_equal(tr.u, u_seq)
            np.testing.assert_array_equal(tr.o, o_seq)

    def test_threshold_tie_fires_in_every_forward(self):
        # h == v_th exactly fires and resets, as in the oracle: at t = 0 from
        # the current alone, and under teacher forcing from 0.25 * 2.0 + 0.5
        I, p = as3d([1.0, 0.5]), NeuronParams()
        u_seq, o_seq = lif_sequential(I, p)
        assert (o_seq[0].item(), u_seq[0].item()) == (1.0, 0.0)
        for mode in ("sampled", "expectation"):
            tr = mpe_psn_forward(I, p, mode, Rng(0))
            assert (tr.o[0].item(), tr.u[0].item()) == (1.0, 0.0)
        assert neuron.mpe_psn_spikes(I, p)[0].item() == 1.0
        u, o = teacher_forced_forward(as3d([0.0, 0.5]), as3d([2.0, 0.0]), p)
        assert (o[1].item(), u[1].item()) == (1.0, 0.0)

    def test_reset_law(self):
        I = random_case(3)
        tr = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(3))
        fired = tr.o == 1.0
        assert np.all(tr.u[fired] == 0.0)
        np.testing.assert_array_equal(tr.u[~fired], tr.h[~fired])

    def test_binary_spikes_and_draws(self):
        tr = mpe_psn_forward(random_case(4), NeuronParams(), "sampled", Rng(4))
        assert tr.o.dtype == tr.b.dtype == np.bool_
        assert tr.o.any() and tr.b.any() and not tr.b.all()
        np.testing.assert_array_equal(tr.u_hat, (1.0 - tr.b) * tr.I)

    def test_row_order_independence(self):
        # each row of h/o/u depends only on u_hat[t-1] and I[t]
        I = random_case(5)
        params = NeuronParams()
        tr = mpe_psn_forward(I, params, "sampled", Rng(5))
        shifted = neuron.shift_time(tr.u_hat)
        for t in np.random.default_rng(0).permutation(I.shape[0]):
            h_t = params.tau_m * shifted[t] + I[t]
            o_t = np.greater_equal(h_t, params.v_th).astype(np.float64)
            np.testing.assert_array_equal(h_t, tr.h[t])
            np.testing.assert_array_equal(o_t, tr.o[t])
            np.testing.assert_array_equal(h_t * (1.0 - o_t), tr.u[t])

    def test_sampled_repeatability(self):
        I = random_case(6)
        a = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(6))
        b = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(6))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_worker_count_invariance(self):
        I = Rng(12).uniform_tensor((16, 2, 5000), -2.0, 2.0)
        for mode in ("sampled", "expectation"):
            ref = mpe_psn_forward(I, NeuronParams(), mode, Rng(7))
            for workers in (2, 4):
                with WorkerPool(workers) as pool:
                    tr = mpe_psn_forward(I, NeuronParams(), mode, Rng(7), pool)
                    for x, y in zip(ref, tr):
                        np.testing.assert_array_equal(x, y)


def whole_draw(rng, n):
    """One 16-bit draw of n values in one block of every chunk, without a pool."""
    k = np.empty(n, np.uint16)

    def put(lo, hi, block):
        k[lo:hi] = block

    rng.draw_blocks(n, -(-n // Rng.CHUNK), put)
    return k


def reference_pass(I, params, mode, rng=None):
    """Every array of a pass, formed the whole-array way, in two phases: the
    estimate of every value (from one whole-array draw in sampled mode,
    which alone has b), then the update of every row with its reset, row 0
    with the zero history.  By name, in the order of the lean trace's
    fields, then u_hat and u, which a lean trace re-forms."""
    o = np.empty(I.shape, bool)
    u_hat, h, u = (np.empty_like(I) for _ in range(3))
    if mode == "sampled":
        b = np.empty(I.shape, bool)
        neuron._estimate(I, u_hat, whole_draw(rng, I.size).reshape(I.shape), b)
    else:
        neuron._estimate(I, u_hat)
    neuron._update(None, I[0], params, h[0], o[0], u[0])
    neuron._update(u_hat[:-1], I[1:], params, h[1:], o[1:], u[1:])
    lean = {"I": I, "b": b, "h": h, "o": o} if mode == "sampled" else {"I": I, "h": h, "o": o}
    return {**lean, "u_hat": u_hat, "u": u}


def assert_same_trace(tr, ref):
    """``tr`` holds the lean fields of ``ref`` and re-forms its u_hat and u,
    each with ``ref``'s dtype and bits."""
    assert tr._fields == tuple(ref)[:-2]
    got = {name: getattr(tr, name) for name in ref}
    assert [a.dtype for a in got.values()] == [a.dtype for a in ref.values()]
    assert [a.tobytes() for a in got.values()] == [a.tobytes() for a in ref.values()]


class TestSampledBlocks:
    C = Rng.CHUNK

    @pytest.mark.parametrize("block_chunks", [neuron.MPE_BLOCK_CHUNKS, 1])
    @pytest.mark.parametrize("workers", [None, 1, 2, 3])
    @pytest.mark.parametrize("shape", [
        (3, 1, 5),                        # n below one chunk
        (1, 2, 2 * C + 7),                # T = 1
        (5, 1, 5 * C + 17),               # n not a multiple of a block
        (2, 3, 3 * C),                    # whole chunks, one ragged block
    ])
    def test_trace_equals_the_whole_array_draw(self, monkeypatch, shape, workers, block_chunks):
        monkeypatch.setattr(neuron, "MPE_BLOCK_CHUNKS", block_chunks)
        I, p = Rng(36).uniform_tensor(shape, -2.0, 2.0), NeuronParams()
        rng, ref_rng = Rng(37), Rng(37)
        with WorkerPool(workers or 1) as pool:
            for _ in range(2):  # a second pass draws the rng's next call
                tr = mpe_psn_forward(I, p, "sampled", rng, pool if workers else None)
                assert_same_trace(tr, reference_pass(I, p, "sampled", ref_rng))

    def test_draw_compares_the_logit_table_with_the_current(self):
        # b = (LOGIT_TABLE[k] < I) for the pass's own 16-bit draw k
        I = Rng(43).uniform_tensor((3, 2, 1000), -3.0, 3.0)
        tr = mpe_psn_forward(I, NeuronParams(), "sampled", Rng(44))
        k = whole_draw(Rng(44), I.size).reshape(I.shape)
        np.testing.assert_array_equal(tr.b, neuron.LOGIT_TABLE[k] < I)

    def test_sampled_pass_forms_no_sigmoid(self, monkeypatch):
        # nor does any other pass: the sampled estimate compares a table
        # entry with I, the expectation estimate divides I by 1 + exp(I)
        def no_sigmoid(*args, **kwargs):
            raise AssertionError("a pass formed a sigmoid")

        monkeypatch.setattr(numerics, "sigmoid", no_sigmoid)
        assert not hasattr(neuron, "sigmoid")
        I, p = random_case(45), NeuronParams()
        for mode in MODES:
            mpe_psn_forward(I, p, mode, Rng(45))
        neuron.mpe_psn_spikes(I, p)

    @staticmethod
    def traced_pass(mode, written):
        """I, the trace of one pass, and the memory the pass holds and
        peaks at; iterating the trace yields I and the ``written`` arrays
        and allocates nothing.  The pass's block buffer, 1/16 of I's size
        here, counts in the peak and dies with the pass."""
        I = Rng(38).uniform_tensor((16, 2, 1 << 15), -2.0, 2.0)
        tracemalloc.start()
        try:
            tr = mpe_psn_forward(I, NeuronParams(), mode, Rng(38))
            held, peak = tracemalloc.get_traced_memory()
            arrays = tuple(tr)
            held_after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # I and the arrays the pass wrote, and not one array more
        assert tr._fields == ("I", *written) and arrays[0] is I
        assert all(a.shape == I.shape for a in arrays)
        assert held_after - held < 0.01 * I.nbytes
        return I, tr, held, peak

    @pytest.mark.usefixtures("no_idle_buffers")
    def test_holds_three_arrays_and_iterating_allocates_nothing(self):
        # h float64, b and o bool: 1 + 2/8 arrays of I's size, no u_hat or u
        I, tr, held, peak = self.traced_pass("sampled", ("b", "h", "o"))
        assert (tr.b.dtype, tr.o.dtype) == (np.bool_, np.bool_)
        assert 1.25 <= held / I.nbytes < 1.35
        assert peak / I.nbytes < 1.4

    @pytest.mark.usefixtures("no_idle_buffers")
    def test_expectation_pass_holds_two_arrays_and_iterating_allocates_nothing(self):
        # h float64, o bool: 1 + 1/8 arrays of I's size, and no u_hat, u or P
        I, tr, held, peak = self.traced_pass("expectation", ("h", "o"))
        assert tr.o.dtype == np.bool_
        assert 1.125 <= held / I.nbytes < 1.225
        assert peak / I.nbytes < 1.275

    def test_sampled_scratch_has_no_P(self):
        """A pass asks its scratch for the arrays it writes and for no P;
        expectation mode draws no b (which would be P there)."""
        class Recording(Scratch):
            def __call__(self, name, shape, dtype=np.float64):
                self.names.add(name)
                return super().__call__(name, shape, dtype)

        I = random_case(39)
        for mode, written in (("sampled", {"b", "h", "o"}), ("expectation", {"h", "o"})):
            s = Recording()
            s.names = set()
            mpe_psn_forward(I, NeuronParams(), mode, Rng(39), scratch=s)
            assert s.names == written


class TestLeanTrace:
    """A pass holds I and what cannot be re-formed from it, b, h and o (h and
    o in expectation mode); each reading of ``u`` and ``u_hat`` re-forms
    (1 - o) * h and (1 - b) * I (I / (1 + exp(I))) into a new array, with
    the bits of those whole-array expressions."""

    BLOCK = neuron.MPE_BLOCK_CHUNKS * Rng.CHUNK

    @pytest.mark.parametrize("workers", [None, 1, 2])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", [
        (4, 3, 7000),             # stride < block, n not a multiple of the block
        (3, 1, BLOCK + 9),        # stride > block
        (1, 2, BLOCK // 2 + 3),   # T = 1
    ])
    def test_holds_what_cannot_be_re_formed(self, shape, mode, workers):
        I = Rng(50).uniform_tensor(shape, -2.0, 2.0)
        with WorkerPool(workers or 1) as pool:
            tr = mpe_psn_forward(I, NeuronParams(), mode, Rng(51), pool if workers else None)
        assert tr._fields == (("I", "b", "h", "o") if mode == "sampled" else ("I", "h", "o"))
        assert tr.I is I and all(a.shape == I.shape for a in tr)
        u_hat = (1.0 - tr.b) * I if mode == "sampled" else I / (1.0 + np.exp(I))
        for got, want in ((tr.u, (1.0 - tr.o) * tr.h), (tr.u_hat, u_hat)):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert tr.u is not tr.u and not np.shares_memory(tr.u, tr.h)


class TestStrideAhead:
    """Each block updates the positions one stride (B*N) ahead of its
    estimate, and the row-0 positions it holds with the zero history: the
    trace must equal the two-phase pass's whatever the stride, the block
    size and the pool."""

    C = Rng.CHUNK
    BLOCK = neuron.MPE_BLOCK_CHUNKS * C

    @pytest.mark.parametrize("block_chunks", [neuron.MPE_BLOCK_CHUNKS, 1])
    @pytest.mark.parametrize("workers", [None, 1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", [
        (7, 3, 1000),             # stride < block, several rows in one block
        (2, 1, 13 * C + 1),       # stride > one range at 3 workers, in chunks and in blocks
        (4, 2, C + 7),            # stride not a multiple of a chunk, rows straddle blocks
        (1, 3, BLOCK + 5),        # T = 1: every position is row 0
        (3, 1, 5),                # n below one chunk
    ])
    def test_trace_equals_the_two_phase_pass(self, monkeypatch, shape, mode, workers,
                                             block_chunks):
        monkeypatch.setattr(neuron, "MPE_BLOCK_CHUNKS", block_chunks)
        I, p = Rng(46).uniform_tensor(shape, -2.0, 2.0), NeuronParams()
        with WorkerPool(workers or 1) as pool:
            tr = mpe_psn_forward(I, p, mode, Rng(47), pool if workers else None)
        assert_same_trace(tr, reference_pass(I, p, mode, Rng(47)))

    def test_every_position_is_updated_once(self, monkeypatch):
        # h and o come from one _update call per position, row 0 from the
        # zero history and every later row from the block one stride back
        calls = []
        update = neuron._update

        def recorded(u_hist, I, params, h, o, u=None):
            calls.append((u_hist is None, h.size))
            update(u_hist, I, params, h, o, u)

        monkeypatch.setattr(neuron, "_update", recorded)
        shape = (3, 1, 2 * self.BLOCK + 9)
        with WorkerPool(3) as pool:
            mpe_psn_forward(Rng(48).uniform_tensor(shape, -2.0, 2.0), NeuronParams(),
                            "sampled", Rng(48), pool)
        stride = shape[1] * shape[2]
        assert sum(size for zero, size in calls if zero) == stride
        assert sum(size for zero, size in calls if not zero) == 2 * stride


# SHA-256 of the expectation pass's four arrays (u_hat, h, u, o; the trace
# re-forms u_hat and u) and of mpe_psn_spikes at golden_input(), recorded
# once the input's uniforms came from the draw's PCG64DXSM stream, with the
# estimate I / (1 + exp(I)), whose contract
# ``verify.check_expectation_estimate`` checks (numpy 2.4.6, x86-64).  The
# estimate goes through numpy's exp, whose last bits may differ on another
# CPU or numpy build.
EXPECTATION_TRACE_SHA256 = "9652cc3adb75650d82c1b43d13c4d9a1a62e782f36235bd72cbb8ee83373a44b"
SPIKES_SHA256 = "cc1192c14ddfda179eb16484e0731a090fdafcaef57b0c3123f104d591b6228b"
# SHA-256 of a sampled pass's five arrays (b, u_hat, h, u, o; the trace
# re-forms u_hat and u) at golden_input() with Rng(43, stream=2), recorded
# at the same change, so that a change to the draw's bits is deliberate.
# The draw compares with LOGIT_TABLE, formed by numpy's log, whose last bits
# may differ on another CPU or numpy build.
SAMPLED_TRACE_SHA256 = "b62639bb5e829f03291c9b199cb41d5d8e6899b9f29ba445f6179e5933c1bcfa"


def golden_input():
    C = Rng.CHUNK
    I = Rng(41).uniform_tensor((6, 2, 3 * C + 11), -2.0, 2.0)
    I.flat[[0, 7, 3 * C + 11, 2 * (3 * C + 11) + 5]] = [np.inf, -np.inf, np.nan, 1.0]
    return I


def sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_expectation_bits_equal_the_recorded_ones(workers):
    I, p = golden_input(), NeuronParams()
    with np.errstate(invalid="ignore"), WorkerPool(workers or 1) as pool:
        tr = mpe_psn_forward(I, p, "expectation", None, pool if workers else None)
        spikes = neuron.mpe_psn_spikes(I, p)
        assert sha256([tr.u_hat, tr.h, tr.u, tr.o]) == EXPECTATION_TRACE_SHA256
    assert sha256([spikes]) == SPIKES_SHA256


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_sampled_bits_equal_the_recorded_ones(workers):
    with np.errstate(invalid="ignore"), WorkerPool(workers or 1) as pool:
        tr = mpe_psn_forward(golden_input(), NeuronParams(), "sampled", Rng(43, stream=2),
                             pool if workers else None)
        assert sha256([tr.b, tr.u_hat, tr.h, tr.u, tr.o]) == SAMPLED_TRACE_SHA256


class TestExpectationEdges:
    """exp(I) overflows above about 709.78.  The expectation estimate is
    then 0 without an overflow warning on any thread, pool threads (which
    do not inherit the caller's ``np.errstate``) included, as the pass
    forms it and as its trace re-forms it, and saturated and infinite
    currents give the values (1 - sigmoid(I)) * I gave."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_saturated_currents_give_the_old_values(self, workers):
        # four blocks, so that a 2-worker pool runs two on its thread; the
        # cycle of 5 puts each value after every other one in time
        I = np.resize([800.0, -800.0, np.inf, -np.inf, 0.5], (4, 2, 1 << 15))
        p = NeuronParams()
        with warnings.catch_warnings(record=True) as caught, WorkerPool(workers or 1) as pool:
            warnings.simplefilter("always")
            tr = mpe_psn_forward(I, p, "expectation", None, pool if workers else None)
            spikes = neuron.mpe_psn_spikes(I, p)
            got_u_hat = tr.u_hat
        # inf / inf, and the update's inf - inf and 0 * inf, warn as before
        assert not [w for w in caught if "overflow" in str(w.message)]
        with np.errstate(over="ignore", invalid="ignore"):
            u_hat = (1.0 - sigmoid(I)) * I
            _, o = teacher_forced_forward(I, u_hat, p)  # the update on that history
        np.testing.assert_array_equal(got_u_hat, u_hat)
        np.testing.assert_array_equal(tr.o, o)
        np.testing.assert_array_equal(spikes, o)
        assert o.any() and not o.all()


class TestSpikeDtypes:
    """Spikes and sampled draws are bool, one byte a value; every float a
    pass forms stays float64.  The spikes-only inference pass keeps its one
    float64 work array."""

    def test_parallel_pass(self):
        I, p = random_case(40), NeuronParams()
        for mode in MODES:
            tr = mpe_psn_forward(I, p, mode, Rng(40))
            assert tr.o.dtype == np.bool_
            assert all(a.dtype == np.float64 for a in (tr.I, tr.u_hat, tr.h, tr.u))
        assert mpe_psn_forward(I, p, "sampled", Rng(40)).b.dtype == np.bool_

    def test_spikes_only_pass_is_float_0_1_with_the_trace_s_values(self):
        I, p = random_case(41), NeuronParams()
        o = neuron.mpe_psn_spikes(I, p)
        tr_o = mpe_psn_forward(I, p, "expectation").o
        assert o.dtype == np.float64 and set(np.unique(o)) == {0.0, 1.0}
        np.testing.assert_array_equal(o, tr_o)

    def test_oracles(self):
        I, p = random_case(42), NeuronParams()
        u, o = lif_sequential(I, p)
        assert (u.dtype, o.dtype) == (np.float64, np.bool_)
        u_tf, o_tf = teacher_forced_forward(I, u, p)
        assert (u_tf.dtype, o_tf.dtype) == (np.float64, np.bool_)


class TestTeacherForced:
    def test_equals_oracle_exactly(self):
        I = Rng(21).uniform_tensor((8, 1, 16), -2.0, 2.0)
        u_seq, o_seq = lif_sequential(I, NeuronParams())
        u, o = teacher_forced_forward(I, u_seq, NeuronParams())
        np.testing.assert_array_equal(u, u_seq)
        np.testing.assert_array_equal(o, o_seq)

    def test_zero_input(self):
        I = np.zeros((4, 2, 3))
        u, o = teacher_forced_forward(I, np.zeros_like(I), NeuronParams())
        assert not u.any() and not o.any()

    def test_single_step_equals_parallel(self):
        I = random_case(8, T=1)
        u_seq, _ = lif_sequential(I, NeuronParams())
        u, o = teacher_forced_forward(I, u_seq, NeuronParams())
        tr = mpe_psn_forward(I, NeuronParams(), "expectation")
        np.testing.assert_array_equal(u, tr.u)
        np.testing.assert_array_equal(o, tr.o)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            teacher_forced_forward(np.zeros((2, 1, 3)), np.zeros((2, 1, 4)), NeuronParams())
