import collections
import contextlib
import hashlib
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpepsn import autograd, datagen, neuron, numerics, verify
from mpepsn.network import SpikingClassifier
from mpepsn.numerics import (
    Rng,
    ShapeMismatchError,
    WorkerPool,
    bernoulli_sample,
    l2_norm,
    load_tensor,
    matmul,
    matmul_fixed_order,
    save_tensor,
    sigmoid,
)


def naive_matmul(a, b):
    """Independent triple-loop oracle with left-to-right summation over K."""
    m, k = a.shape
    k2, p = b.shape
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


class TestMatmul:
    """``matmul`` (BLAS): exact where nothing rounds, else within tolerance of
    the oracle; ``matmul_fixed_order`` (the oracle): bit-identical to the
    naive triple loop."""

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_direct(self):
        out = matmul([[1.0, 0.0], [0.0, 0.0]], [[5.0], [7.0]])
        np.testing.assert_array_equal(out, [[5.0], [0.0]])

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(1, 64), k=st.integers(1, 64), p=st.integers(1, 64),
        seed=st.integers(0, 2**32),
    )
    def test_within_tolerance_of_oracle(self, m, k, p, seed):
        r = Rng(seed)
        a = r.spawn(0).uniform_tensor((m, k), -2, 2)
        b = r.spawn(1).uniform_tensor((k, p), -2, 2)
        bound = k * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(matmul(a, b) - matmul_fixed_order(a, b)) <= bound)

    def test_inner_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_leading_axes_are_rows(self):
        a = Rng(4).uniform_tensor((8, 205, 16), -1, 1)
        w = Rng(5).uniform_tensor((16, 32), -1, 1)
        out = matmul(a, w)
        assert out.shape == (8, 205, 32)
        np.testing.assert_array_equal(out, matmul(a.reshape(-1, 16), w).reshape(8, 205, 32))

    def test_random_8x8_vs_oracle_exact(self):
        r = Rng(3)
        a = r.spawn(0).uniform_tensor((8, 8), -2, 2)
        b = r.spawn(1).uniform_tensor((8, 8), -2, 2)
        np.testing.assert_array_equal(matmul_fixed_order(a, b), naive_matmul(a, b))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 16), k=st.integers(1, 16), p=st.integers(1, 16),
        seed=st.integers(0, 2**32),
    )
    def test_oracle_equivalence_up_to_16(self, m, k, p, seed):
        r = Rng(seed)
        a = r.spawn(0).uniform_tensor((m, k), -2, 2)
        b = r.spawn(1).uniform_tensor((k, p), -2, 2)
        np.testing.assert_array_equal(matmul_fixed_order(a, b), naive_matmul(a, b))

    def test_leading_axes_flattened(self):
        a = Rng(4).uniform_tensor((5, 2, 3), -1, 1)
        w = Rng(5).uniform_tensor((3, 4), -1, 1)
        out = matmul_fixed_order(a, w)
        assert out.shape == (5, 2, 4)
        np.testing.assert_array_equal(out[2], matmul_fixed_order(a[2], w))


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(50.0) - 1.0) < 1e-15
        assert sigmoid(-50.0) < 1e-15

    def test_symmetry(self):
        x = Rng(7).uniform_tensor((100,), -5, 5)
        np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-15)

    def test_range(self):
        y = sigmoid(Rng(8).uniform_tensor((1000,), -700, 700))
        assert np.all((y >= 0.0) & (y <= 1.0)) and np.all(np.isfinite(y))


class TestBernoulli:
    def test_degenerate(self):
        rng = Rng(1)
        np.testing.assert_array_equal(bernoulli_sample(np.zeros(100), rng), np.zeros(100))
        np.testing.assert_array_equal(bernoulli_sample(np.ones(100), rng), np.ones(100))

    def test_empirical_mean(self):
        # 4-sigma Monte-Carlo bound: 4 * sqrt(0.3 * 0.7 / 1e6) ~ 0.0018
        b = bernoulli_sample(np.full(10**6, 0.3), Rng(42))
        assert abs(b.mean() - 0.3) < 0.002

    def test_out_of_range_rejected(self):
        for p in ([1.5], [-0.1, 0.5], [np.nan, 0.5]):
            with pytest.raises(ValueError):
                bernoulli_sample(np.array(p), Rng(0))


class TestRng:
    def test_repeatable(self):
        np.testing.assert_array_equal(Rng(1).uniforms(1000), Rng(1).uniforms(1000))

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
            Rng(seed)
        # any integral type keys the same streams as the int
        assert np.array_equal(Rng(np.uint8(7)).uniforms(4), Rng(7).uniforms(4))

    def test_calls_advance(self):
        r = Rng(1)
        assert not np.array_equal(r.uniforms(10), r.uniforms(10))

    def test_spawn_independent(self):
        a = Rng(1).spawn(0).uniforms(1000)
        b = Rng(1).spawn(1).uniforms(1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            Rng(-1)

    @staticmethod
    def stream_halves(r, call, n):
        """Uniforms draw number ``call`` of ``r`` as integers: a generator
        set to the draw's stream, each word split into its 32-bit halves,
        low half first."""
        bits = np.random.PCG64DXSM()
        bits.state = r._pcg_state(call)
        words = bits.random_raw(-(-n // 2))
        return np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).reshape(-1)[:n]

    @staticmethod
    def stream_chunks(r, call, n):
        """16-bit draw number ``call`` of ``r`` with a generator per chunk,
        set to the draw's stream and advanced to the chunk's first word,
        each word split into its 16-bit quarters, low quarter first."""
        C, out = Rng.CHUNK, np.empty(n, np.uint64)
        for c in range(-(-n // C)):
            chunk = out[c * C:(c + 1) * C]
            bits = np.random.PCG64DXSM()
            bits.state = r._pcg_state(call)
            bits.advance(c * C // 4)
            words = bits.random_raw(-(-chunk.size // 4))
            parts = np.stack([words >> s & 0xFFFF for s in range(0, 64, 16)], axis=1)
            chunk[:] = parts.reshape(-1)[:chunk.size]
        return out

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocked_draw_matches_one_generator_per_chunk(self, workers):
        # the pooled draw, run in blocks of two chunks, gives 16-bit quarters
        # of the draw's stream; uniforms gives 32-bit halves times 2^-32
        C = Rng.CHUNK
        r = Rng(7, stream=3)
        with WorkerPool(workers) as pool:
            for i, n in enumerate((1, C - 1, C, C + 1, 2 * C, 5 * C + 17)):
                got = np.empty(n, np.uint16)

                def put(lo, hi, k):
                    got[lo:hi] = k

                r.draw_blocks(n, 2, put, pool)
                assert np.array_equal(got, self.stream_chunks(r, 2 * i, n)), (workers, n)
                u = r.uniforms(n)
                assert np.array_equal(u, self.stream_halves(r, 2 * i + 1, n) * 2.0**-32), n

    def test_a_shorter_uniforms_draw_is_a_prefix_of_a_longer_one(self):
        n = 3 * Rng.CHUNK + 5
        for m in (0, 1, 2, Rng.CHUNK - 1, Rng.CHUNK, n - 1):
            a, b = Rng(7, stream=3), Rng(7, stream=3)
            a.uniforms(5), b.uniforms(9)  # the same call of each, not its first
            assert np.array_equal(a.uniforms(n)[:m], b.uniforms(m)), m

    def test_draws_keyed_by_seed_stream_and_call(self):
        # a 16-bit draw differs when any of its keys does
        def draw(r):
            return verify._blocked_draw(r, 1000, 1, None)

        first = draw(Rng(7, stream=3))
        for other in (Rng(8, stream=3), Rng(7, stream=4), Rng(7, stream=3).spawn(0)):
            assert not np.array_equal(draw(other), first)
        again = Rng(7, stream=3)
        assert np.array_equal(draw(again), first)
        assert not np.array_equal(draw(again), first)

    def test_pooled_draw_with_ranges_sharing_threads(self):
        # more ranges than threads, so each thread resets its generator for
        # range after range, and a short switch interval interleaves them
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            n = 7 * Rng.CHUNK + 5
            want = verify._blocked_draw(Rng(3), n, 1, None)
            with WorkerPool(8) as pool:
                for _ in range(3):
                    assert np.array_equal(verify._blocked_draw(Rng(3), n, 1, pool), want)
        finally:
            sys.setswitchinterval(interval)

    def test_no_os_entropy_read(self, monkeypatch):
        # every generator is set from its keys: none is seeded from the OS
        reads = []
        randbits = np.random.bit_generator.randbits
        monkeypatch.setattr(np.random.bit_generator, "randbits",
                            lambda k: reads.append(k) or randbits(k))
        x = Rng(5).uniform_tensor((4, 24, 3), -1.0, 1.0)
        y = np.repeat(np.arange(3), 8)
        model = SpikingClassifier(hidden_sizes=(8,), epochs=1, seed=3).fit(x, y)
        assert len(model.history_) == 1
        with WorkerPool(2) as pool:
            tr = neuron.mpe_psn_forward(Rng(6).uniform_tensor((2, 1, 3 * Rng.CHUNK), -2.0, 2.0),
                                        neuron.NeuronParams(), "sampled", Rng(7), pool)
        assert tr.b.any()
        Rng(8).uniforms(3 * Rng.CHUNK)
        h = hashlib.sha256()
        for spec in (datagen.DatasetSpec(),
                     datagen.DatasetSpec(n_classes=3, time_steps=5, n_features=7,
                                         samples_per_class=11, pattern="phase-coded", seed=9)):
            for batch in datagen.generate(spec):
                h.update(batch.x.tobytes())
                h.update(batch.y.tobytes())
        assert reads == []
        assert h.hexdigest() == "fada0627b3280865c6bd58e1c156e167606bfc6a69f4169b0b6be80ab600fcfa"
        np.random.PCG64DXSM()
        assert len(reads) == 1  # the counting patch sees a read where there is one


def address(a):
    return a.__array_interface__["data"][0]


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.usefixtures("no_idle_buffers")
class TestEmpty:
    # a float64 array of this shape is 8 MiB, a bool one 1 MiB: both recycled
    SHAPE = (4, 1, 1 << 18)
    PARAMS = neuron.NeuronParams()

    def test_below_the_floor_is_plain_np_empty(self):
        n = numerics.EMPTY_RECYCLE_BYTES // 8
        assert numerics.empty((n - 1,)).flags.owndata
        a = numerics.empty((2, 4 * n), bool)
        assert not a.flags.owndata and a.flags.c_contiguous and a.flags.writeable
        assert (a.shape, a.dtype) == ((2, 4 * n), np.bool_)

    @pytest.mark.parametrize("keep", [
        lambda a: a.reshape(-1),
        lambda a: a[1:, :, 7:],
        lambda a: autograd.Var(a).value,
    ], ids=["reshape", "slice", "Var"])
    def test_handed_out_again_only_after_the_last_view_dies(self, keep):
        a = numerics.empty(self.SHAPE)
        addr, view = address(a), keep(a)
        del a
        b = numerics.empty(self.SHAPE)
        assert not np.shares_memory(b, view)
        del view, b
        again = [numerics.empty(self.SHAPE) for _ in range(2)]
        assert addr in {address(c) for c in again}

    # b, h and o are the trace's own arrays; u_hat and u are re-formed on
    # reading, each into an array of its own
    @pytest.mark.parametrize("field", ["b", "u_hat", "h", "u", "o"])
    @pytest.mark.parametrize("hold", ["tuple", "Var"])
    def test_a_held_trace_field_keeps_its_buffer(self, field, hold):
        I = Rng(3).uniform_tensor(self.SHAPE, -2.0, 2.0)
        tr = neuron.mpe_psn_forward(I, self.PARAMS, "sampled", Rng(4))
        kept = (tuple(tr)[tr._fields.index(field)] if field in tr._fields
                else getattr(tr, field))
        kept = kept if hold == "tuple" else autograd.Var(kept)
        first = tr[1:]
        del tr
        second = neuron.mpe_psn_forward(I, self.PARAMS, "sampled", Rng(4))
        value = kept if hold == "tuple" else kept.value
        assert not any(np.shares_memory(a, value) for a in second[1:])
        # every buffer of the field's dtype comes back once its arrays die
        dtype = value.dtype
        buffers = {address(a) for a in (*first, *second[1:], value) if a.dtype == dtype}
        del first, second, kept, value
        again = [numerics.empty(self.SHAPE, dtype) for _ in buffers]
        assert {address(a) for a in again} == buffers

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("mode", neuron.MODES)
    def test_a_pass_on_poisoned_buffers_gives_the_bits_of_fresh_memory(self, mode, workers):
        I = Rng(5).uniform_tensor(self.SHAPE, -2.0, 2.0)

        def run():
            with contextlib.nullcontext() if workers is None else WorkerPool(workers) as pool:
                rng = Rng(6) if mode == "sampled" else None
                return neuron.mpe_psn_forward(I, self.PARAMS, mode, rng, pool)[1:]

        fresh = run()
        want, buffers = digest(fresh), {address(a) for a in fresh}
        for a in fresh:
            a[...] = True if a.dtype == np.bool_ else np.nan
        del a, fresh
        recycled = run()
        assert {address(a) for a in recycled} == buffers
        assert digest(recycled) == want

    def test_the_other_wide_passes_on_poisoned_buffers(self):
        I = Rng(7).uniform_tensor(self.SHAPE, -2.0, 2.0)

        def run():
            u, o = neuron.lif_sequential(I, self.PARAMS)
            return (u, o, *neuron.teacher_forced_forward(I, u, self.PARAMS),
                    neuron.mpe_psn_spikes(I, self.PARAMS), neuron.shift_time(u))

        want = digest(run())
        poisoned = [numerics.empty(self.SHAPE, dtype) for dtype in (float,) * 8 + (bool,) * 4]
        for a in poisoned:
            a[...] = True if a.dtype == np.bool_ else np.nan
        buffers = {address(a) for a in poisoned}
        del a, poisoned
        recycled = run()
        assert {address(a) for a in recycled} <= buffers
        assert digest(recycled) == want

    def test_a_trace_dropped_on_a_pool_thread_returns_its_buffers(self, monkeypatch):
        monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)  # so a pool thread runs
        I = Rng(8).uniform_tensor(self.SHAPE, -2.0, 2.0)
        held = [neuron.mpe_psn_forward(I, self.PARAMS, "expectation")]
        buffers = {address(a) for a in held[0][1:]}
        caller, dropped_on = threading.get_ident(), []

        def drop(lo, hi):
            if threading.get_ident() != caller:
                dropped_on.append(threading.get_ident())
                held.pop()  # the trace's last reference

        with WorkerPool(2) as pool:
            pool.map_ranges(2, drop)
        assert dropped_on and not held
        again = neuron.mpe_psn_forward(I, self.PARAMS, "expectation")
        assert {address(a) for a in again[1:]} == buffers

    def test_a_miss_releases_the_idle_buffers_of_other_sizes(self):
        def raw(a):
            return weakref.ref(a.base.base.obj)  # root array, memoryview, raw buffer

        small, large = numerics.empty(self.SHAPE, bool), numerics.empty(self.SHAPE)
        small_raw, large_raw = raw(small), raw(large)
        del small, large
        assert small_raw() is not None and large_raw() is not None  # idle
        hit = numerics.empty(self.SHAPE, bool)  # takes the idle buffer of its size
        assert raw(hit)() is small_raw() and large_raw() is not None
        del hit
        numerics.empty((3, *self.SHAPE[1:]))  # a miss: no idle buffer of 6 MiB
        assert small_raw() is None and large_raw() is None

    def test_threads_never_share_a_live_buffer(self):
        # more threads than cores, a short switch interval, and every thread
        # taking and dropping arrays of two sizes: a buffer handed out twice
        # would let another thread overwrite an array its holder still reads
        n = numerics.EMPTY_RECYCLE_BYTES // 8
        errors = []

        def churn(mark):
            try:
                held = []
                for i in range(60):
                    a = numerics.empty((n * (1 + i % 2),))
                    a[...] = mark
                    held.append(a)
                    if len(held) == 3:
                        first = held.pop(0)
                        assert (first == mark).all()
            except AssertionError as err:
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(mark,)) for mark in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is Linux's")
    def test_a_second_pass_takes_almost_no_page_faults(self):
        import resource

        # The first pass is the reference, so its float64 arrays must be
        # fresh memory whatever earlier tests freed: at 64 MiB each they
        # are above the largest size glibc's malloc serves from its heap
        # (its mmap threshold rises to at most 32 MiB, and it trims a free
        # top of the heap above twice that), so each is a new mapping.  An
        # array of 16 MiB could come from heap pages left resident.
        I = Rng(9).uniform_tensor((32, 1, 1 << 18), -2.0, 2.0)
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            tr = neuron.mpe_psn_forward(I, self.PARAMS, "sampled", Rng(10))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            del tr
        assert faults[1] < 0.1 * faults[0], faults

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is Linux's")
    def test_a_repeated_wide_product_takes_almost_no_page_faults(self):
        import resource

        # a 64 MiB product, fresh memory the first time (see above), and
        # the first product's memory the second time
        a = Rng(11).uniform_tensor((8192, 8), -2.0, 2.0)
        b = Rng(12).uniform_tensor((8, 1024), -2.0, 2.0)
        faults, bits = [], []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            out = numerics.matmul(a, b)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            bits.append(digest([out]))
            del out
        assert faults[1] < 0.1 * faults[0], faults
        assert bits[0] == bits[1] == digest([a @ b])


class TestWorkerPool:
    def test_every_index_once_before_return(self):
        # more workers than cores and a short switch interval, so ranges
        # interleave; each index must be written exactly once by return
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1, 5, 7, 1000):
                hits = np.zeros(n, dtype=np.int64)
                with WorkerPool(8) as pool:
                    pool.map_ranges(n, lambda lo, hi: np.add.at(hits, np.arange(lo, hi), 1))
                assert (hits == 1).all()
        finally:
            sys.setswitchinterval(interval)

    def test_caller_runs_the_first_range(self):
        threads = {}

        def record(lo, hi):
            threads[lo] = threading.get_ident()

        with WorkerPool(3) as pool:
            pool.map_ranges(9, record)
        assert sorted(threads) == [0, 3, 6]
        assert threads[0] == threading.get_ident()

    @pytest.mark.parametrize("bad, runner", [(0, "caller"), (2, "pool thread")],
                             ids=["caller", "pool_thread"])
    def test_range_error_raised_after_all_ranges_finish(self, monkeypatch, bad, runner):
        # two pool threads whatever the machine: the caller runs range 0
        # and the threads ranges 1 and 2
        monkeypatch.setattr(numerics, "_usable_cores", lambda: 3)
        caller = threading.get_ident()
        done, raised_on = [], []

        def work(lo, hi):
            if lo == bad:
                raised_on.append("caller" if threading.get_ident() == caller else "pool thread")
                raise RuntimeError(f"range {lo} failed")
            threading.Event().wait(0.05)
            done.append(lo)

        with WorkerPool(3) as pool:
            with pytest.raises(RuntimeError, match=f"range {bad} failed"):
                pool.map_ranges(3, work)
            assert sorted(done) == [r for r in range(3) if r != bad]
        assert raised_on == [runner]

    def test_ranges_balanced_over_fewer_cores(self, monkeypatch):
        # 4 ranges on 2 usable cores: the caller and the one pool thread
        # must each run 2
        monkeypatch.setattr(numerics, "_usable_cores", lambda: 2)
        runs = collections.Counter()

        def work(lo, hi):
            runs[threading.get_ident()] += 1
            threading.Event().wait(0.02)

        with WorkerPool(4) as pool:
            pool.map_ranges(4, work)
        assert sum(runs.values()) == 4
        assert max(runs.values()) <= 2


    def test_threads_bounded_by_usable_cores(self):
        # 16 ranges, each kept busy long enough for a thread per range to
        # start if the pool allowed one; every index is still covered once
        hits = np.zeros(16 * 5, dtype=np.int64)
        extra = []
        before = threading.active_count()

        def work(lo, hi):
            extra.append(threading.active_count() - before)
            threading.Event().wait(0.02)
            np.add.at(hits, np.arange(lo, hi), 1)

        with WorkerPool(16) as pool:
            pool.map_ranges(hits.size, work)
        assert (hits == 1).all()
        assert len(extra) == 16
        assert max(extra) <= min(16, len(os.sched_getaffinity(0))) - 1


    def test_one_core_runs_every_range_inline(self, monkeypatch):
        monkeypatch.setattr(numerics, "_usable_cores", lambda: 1)
        calls = []
        with WorkerPool(3) as pool:
            pool.map_ranges(9, lambda lo, hi: calls.append((lo, hi, threading.get_ident())))
        me = threading.get_ident()
        assert calls == [(0, 3, me), (3, 6, me), (6, 9, me)]


class TestMatmulBlocks:
    def rows_per_call(self, monkeypatch, a, b):
        rows = []

        class Numpy:
            """numpy, with its matmul recording each call's row count."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(x, y, out=None):
                rows.append(x.shape[0])
                return np.matmul(x, y, out=out)

        monkeypatch.setattr(numerics, "np", Numpy())
        out = matmul(a, b)
        monkeypatch.undo()
        return rows, out

    def test_blocks_stay_within_the_work_budget(self, monkeypatch):
        a = (Rng(1).uniform_tensor((8, 4096, 16), 0, 1) < 0.3).astype(float)
        b = Rng(2).uniform_tensor((16, 32), -1, 1)
        rows, out = self.rows_per_call(monkeypatch, a, b)
        assert sum(rows) == 8 * 4096 and len(rows) > 1
        assert all(r * 16 * 32 <= numerics.MATMUL_BLOCK_WORK for r in rows)
        np.testing.assert_array_equal(out, matmul(a, b))

    def test_few_rows_stay_one_call(self, monkeypatch):
        # a weight gradient's shape: rows are a layer's width
        a = Rng(3).uniform_tensor((1640, 16), -1, 1).T
        b = Rng(4).uniform_tensor((1640, 32), -1, 1)
        rows, _ = self.rows_per_call(monkeypatch, a, b)
        assert rows == [16]


class TestReduce:
    def test_l2_norm(self):
        assert l2_norm([3.0, 4.0]) == 5.0
        assert l2_norm(np.full((2, 2), 0.5)) == 1.0  # over all axes


class TestTensorCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        x = Rng(11).uniform_tensor((4, 2, 3), -1e3, 1e3)
        path = tmp_path / "t.csv"
        save_tensor(x, path)
        np.testing.assert_array_equal(load_tensor(path), x)

    def test_round_trip_0d(self, tmp_path):
        path = tmp_path / "t.csv"
        save_tensor(np.float64(2.0), path)
        assert path.read_text().splitlines()[0] == "# shape: ()"
        x = load_tensor(path)
        assert x.shape == () and x == 2.0

    def test_header(self, tmp_path):
        path = tmp_path / "t.csv"
        save_tensor(np.zeros((2, 1, 3)), path)
        assert path.read_text().splitlines()[0] == "# shape: 2,1,3"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_tensor(path)

    @pytest.mark.parametrize("shape", ["a,2", "-1,2", "0,2", "2,", ""])
    def test_malformed_shape_header_reports_line(self, tmp_path, shape):
        path = tmp_path / "bad.csv"
        path.write_text(f"# shape: {shape}\n1.0,2.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1: malformed shape header"):
            load_tensor(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# shape: 1,1,2\n1.0,oops\n")
        with pytest.raises(ValueError, match=":2"):
            load_tensor(path)


def test_resolve_workers_defaults_to_usable_cores(monkeypatch):
    monkeypatch.delenv(numerics.WORKERS_ENV_VAR, raising=False)
    assert numerics.resolve_workers() == len(os.sched_getaffinity(0))
    with WorkerPool() as pool:
        assert pool.workers == len(os.sched_getaffinity(0))


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv(numerics.WORKERS_ENV_VAR, "3")
    assert numerics.resolve_workers(None) == 3
    assert numerics.resolve_workers(2) == 2
    with pytest.raises(ValueError):
        numerics.resolve_workers(0)


@pytest.mark.parametrize("value", ["abc", "2.5", "", "0"])
def test_resolve_workers_env_error_names_the_variable(monkeypatch, value):
    monkeypatch.setenv(numerics.WORKERS_ENV_VAR, value)
    with pytest.raises(ValueError, match=f"{numerics.WORKERS_ENV_VAR} must be .*{value!r}"):
        numerics.resolve_workers()
