"""Dense tensor arithmetic, deterministic RNG, and the worker pool.

Everything downstream (neuron dynamics, training, benchmarking) is built on
the operations in this module.  Two contracts matter throughout:

* determinism: the same inputs and seed produce bit-identical outputs,
  regardless of how many workers the pool uses;
* tensors are immutable by convention: no operation mutates its inputs.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

Array = np.ndarray

WORKERS_ENV_VAR = "MPE_PSN_WORKERS"


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


def _as_tensor(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """Worker count to use, falling back to the MPE_PSN_WORKERS env var, then
    to the usable core count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env is None:
            return _usable_cores()
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {env!r}")
    elif workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class WorkerPool:
    """Thread pool that splits ``range(n)`` into ``workers`` ranges: of
    elements, of columns or of RNG chunks, as the caller's ``fn`` reads them.

    Splitting is purely a performance measure: every operation routed
    through the pool gives each range's elements the same arithmetic (RNG
    draws are chunk-keyed), so results are bit-identical for any worker
    count.  numpy ufuncs release the GIL on large blocks, which is where the
    concurrency comes from.  The pool starts at most
    ``min(workers, usable cores) - 1`` threads, since more would only take
    turns on the same cores; ``workers`` still sets the number of ranges.
    The calling thread runs the first range and each pool thread one of the
    next; then they all drain one queue of the rest, so each of the
    ``min(workers, usable cores)`` runners runs about
    ``workers / min(workers, usable cores)`` ranges.
    """

    def __init__(self, workers: int | None = None):
        self.workers = resolve_workers(workers)
        self._threads = min(self.workers, _usable_cores()) - 1
        self._executor = ThreadPoolExecutor(self._threads) if self._threads > 0 else None

    def map_ranges(self, n: int, fn) -> None:
        """Call ``fn(lo, hi)`` over a partition of ``range(n)``.

        Every range runs; once all have finished, the error of the lowest
        range that raised, if any, is raised.
        """
        if n <= 0:
            return
        per = -(-n // self.workers)  # ceil
        bounds = list(range(0, n, per)) + [n]
        ranges = zip(bounds[:-1], bounds[1:])
        # the shared queue: next() over list iterators is atomic only under
        # the GIL (not in a free-threaded build), so a lock guards it
        lock = threading.Lock()
        errors = {}

        def drain(r) -> None:
            """Run range ``r``, then ranges from the queue until it is empty."""
            while r is not None:
                try:
                    fn(*r)
                except Exception as err:
                    errors[r[0]] = err
                with lock:
                    r = next(ranges, None)

        # the caller starts on range 0 and each thread on one of the next
        starts = list(itertools.islice(ranges, self._threads + 1))
        futures = [self._executor.submit(drain, r) for r in starts[1:]]
        try:
            drain(starts[0])
        finally:
            wait(futures)  # no range may still be writing when this returns
        for f in futures:
            f.result()
        if errors:
            raise errors[min(errors)]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def map_ranges(pool: WorkerPool | None, n: int, fn) -> None:
    """Call ``fn(lo, hi)`` over a partition of ``range(n)``: the pool's
    ranges when there is a pool, else the one inline range ``fn(0, n)``."""
    if pool is None:
        fn(0, n)
    else:
        pool.map_ranges(n, fn)


class Scratch:
    """Named float64 work arrays: the first request for a name allocates it,
    later requests with the same shape return the same array.

    What a caller reads from a scratch array is overwritten by the next call
    that writes it, so one scratch serves a loop whose every pass is done
    with the previous pass's arrays before it writes them again: the epochs
    of one ``fit``, each of which discards its tape before the next
    forward.  A fresh ``Scratch()`` per call allocates like ``np.empty``.
    """

    def __init__(self):
        self._arrays: dict[str, Array] = {}

    def __call__(self, name: str, shape: tuple) -> Array:
        a = self._arrays.get(name)
        if a is None or a.shape != shape:
            a = self._arrays[name] = np.empty(shape)
        return a

    def written(self, name: str, shape: tuple) -> Array:
        """The array an earlier call requested as ``name`` with ``shape``;
        KeyError when there is none, so a reader never gets a fresh one."""
        a = self._arrays.get(name)
        if a is None or a.shape != shape:
            raise KeyError(f"no scratch array {name!r} of shape {shape}")
        return a


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class Rng:
    """Counter-based random stream built on Philox.

    Output position ``i`` of draw number ``c`` depends only on
    ``(seed, stream, c, i)``, never on thread scheduling: the flat output is
    generated in fixed-size chunks, each keyed by its chunk index, so a pool
    may fill chunks in any order (or in parallel) with identical results.
    """

    CHUNK = 1 << 14

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
        self.stream = stream & 0xFFFFFFFFFFFFFFFF
        self._calls = 0

    def spawn(self, child_id: int) -> "Rng":
        """Independent child stream keyed by (this stream, child_id)."""
        return Rng(self.seed, _splitmix64(self.stream ^ _splitmix64(child_id + 1)))

    # A chunk of CHUNK uniforms takes CHUNK // 2 Philox words, and Philox
    # yields four words per step of its low counter word, so drawing a full
    # chunk advances that word by CHUNK // 8; advancing by this wraps it back
    # to 0 and carries one into the chunk index, where the next chunk's
    # generator starts.
    _NEXT_CHUNK = 2**64 - CHUNK // 8

    def _chunk_generator(self, call: int, chunk: int) -> np.random.Philox:
        counter = np.array([0, chunk, call, 0], dtype=np.uint64)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Philox(counter=counter, key=key)

    def uniforms(self, n: int, pool: WorkerPool | None = None) -> Array:
        """n doubles uniform on [0, 1), each a multiple of 2^-32.

        Each 64-bit Philox word gives two uniforms, its low 32-bit half and
        then its high half, scaled by 2^-32 (exactly: a 32-bit integer times
        a power of two is a double).  The draw ``U < P`` is thus Bernoulli(P)
        to within 2^-32 of P, a distributional contract checked by
        ``verify.check_bernoulli_draws``.
        """
        out = np.empty(n, dtype=np.float64)
        call = self._calls
        self._calls += 1
        nchunks = -(-n // self.CHUNK)

        def work(lo: int, hi: int) -> None:
            # one generator per range, advanced to each next chunk's counter:
            # the same draws as a generator built per chunk, built once
            bits = self._chunk_generator(call, lo)
            for c in range(lo, hi):
                if c > lo:
                    bits.advance(self._NEXT_CHUNK)
                start = c * self.CHUNK
                stop = min(start + self.CHUNK, n)
                words = bits.random_raw(-(-(stop - start) // 2))
                # little-endian words viewed as 32-bit halves: low half first
                # on any byte order
                halves = words.astype("<u8", copy=False).view("<u4")
                np.multiply(halves[:stop - start], 2.0**-32, out=out[start:stop])

        map_ranges(pool, nchunks, work)
        return out

    def uniform_tensor(self, shape, low: float, high: float) -> Array:
        """Tensor with entries uniform on [low, high)."""
        n = int(np.prod(shape))
        return (low + (high - low) * self.uniforms(n)).reshape(shape)


# Row blocks of a BLAS product.  OpenBLAS spreads one call over its threads
# once rows * K * N reaches 2^20 (it stays on one thread at 2^19), and its
# helper thread then busy-waits on another core for about 0.1 s after the
# call, which is a core the worker pool no longer has.  So a product is taken
# in blocks of at most MATMUL_BLOCK_WORK multiply-adds, but never of fewer
# than MATMUL_MIN_BLOCK_ROWS rows: a product with fewer rows (a weight
# gradient, whose rows are a layer's width) stays one call, because splitting
# those changed the last bits of some on this build, where blocks of 256 rows
# and more left every training and predict product bit for bit as it was.
MATMUL_BLOCK_WORK = 1 << 19
MATMUL_MIN_BLOCK_ROWS = 256

# Values in one [T, samples, width] array of a predict block at the model's
# widest layer: ``SpikingClassifier.predict_logits`` runs its whole layer
# chain one block of samples at a time, so a block's arrays stay in L2, and
# a block holds no fewer than MATMUL_MIN_BLOCK_ROWS / T samples.  At T=8 and
# width 32 this is 256 samples.  On a 2-vCPU VM, blocks of 512 predicted
# train_ref about as fast, but the pool thread's malloc arena kept more of
# their memory: the benchmark's peak RSS rose 1.4-2.2% over a whole-batch
# predict, against 0.3-0.6% with 256.
PREDICT_BLOCK_VALUES = 1 << 16


def matmul(a, b) -> Array:
    """Matrix product through BLAS; the hot path of training and inference.

    The leading operand may carry extra leading axes, which are flattened
    into rows: the result is ``rows @ b`` (taken in row blocks sized by
    ``MATMUL_BLOCK_WORK``) reshaped back, so it equals the product of
    the flattened operand bit for bit.  BLAS picks its own
    blocking and summation order, which can depend on the operand shapes
    (a row's bits may change with the number of rows), on the CPU and on
    the BLAS build.  On one machine with one build the result is repeatable
    (and was measured identical across BLAS thread counts).  Against
    :func:`matmul_fixed_order` it agrees elementwise within
    ``K * eps * (|a| @ |b|)``, checked by ``verify.check_matmul_vs_fixed_order``.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if b.ndim != 2:
        raise ShapeMismatchError(f"matmul: right operand must be 2-D, got {b.shape}")
    k = a.shape[-1]
    if k != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul: inner extents {a.shape} x {b.shape} do not agree"
        )
    rows = a.reshape(-1, k)
    out = np.empty((rows.shape[0], b.shape[1]))
    block = max(MATMUL_BLOCK_WORK // max(k * b.shape[1], 1), MATMUL_MIN_BLOCK_ROWS)
    for lo in range(0, rows.shape[0], block):
        hi = lo + block
        np.matmul(rows[lo:hi], b, out=out[lo:hi])
    return out.reshape(*a.shape[:-1], b.shape[1])


def matmul_fixed_order(a, b) -> Array:
    """Oracle matrix product with a fixed left-to-right summation order over K.

    Accumulating K rank-1 updates in index order keeps the result
    bit-identical to the naive triple loop, whatever the operand shapes or
    the machine's BLAS.  No runtime path calls it; checks compare
    :func:`matmul` against it.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if b.ndim != 2:
        raise ShapeMismatchError(f"matmul: right operand must be 2-D, got {b.shape}")
    lead = a.shape[:-1]
    k = a.shape[-1]
    if k != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul: inner extents {a.shape} x {b.shape} do not agree"
        )
    rows = a.reshape(-1, k)
    out = np.zeros((rows.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(k):
        out += rows[:, i : i + 1] * b[i : i + 1, :]
    return out.reshape(*lead, b.shape[1])


def sigmoid(x, out: Array | None = None) -> Array:
    """Logistic function 1 / (1 + exp(-x)), written into ``out`` when given.

    Formed as written, in place: negate, exp, add 1, take the reciprocal.
    Below about -709 exp(-x) overflows to inf (not an error here) and the
    result is exactly 0.  NaN stays NaN.  Against ``scipy.special.expit``
    it agrees within 4 ulp of expit's value, checked by
    ``verify.check_sigmoid_vs_expit``.
    """
    x = _as_tensor(x)
    if out is None:
        out = np.empty_like(x)
    with np.errstate(over="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(1.0, out, out=out)
    return out


def bernoulli_sample(p, rng: Rng, pool: WorkerPool | None = None) -> Array:
    """0/1 tensor, each element 1 with its probability in ``p``."""
    p = _as_tensor(p)
    # written so that NaN, which fails every comparison, fails the check
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("bernoulli_sample: probabilities must lie in [0, 1] (no NaN)")
    u = rng.uniforms(p.size, pool).reshape(p.shape)
    return (u < p).astype(np.float64)


def l2_norm(x) -> float:
    """Euclidean norm over all elements."""
    x = _as_tensor(x)
    return np.sqrt(np.sum(x * x))


def save_tensor(x, path) -> None:
    """Write a tensor as CSV: one row per leading slice, 17 significant digits.

    The header lists the extents, or reads ``()`` for a 0-d tensor, whose
    one value is the one row.
    """
    x = _as_tensor(x)
    rows = x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x.reshape(1, -1)
    shape = ",".join(str(d) for d in x.shape) if x.ndim else "()"
    with open(path, "w") as fh:
        fh.write(f"# shape: {shape}\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_tensor(path) -> Array:
    """Inverse of :func:`save_tensor`; round-trips bit-exactly."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# shape:"):
            raise ValueError(f"{path}:1: missing '# shape:' header")
        try:
            spec = header.split(":", 1)[1].strip()
            shape = () if spec == "()" else tuple(int(s) for s in spec.split(","))
            if any(d < 1 for d in shape):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}:1: malformed shape header") from None
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                values.extend(float(v) for v in line.split(","))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    n = int(np.prod(shape))
    if len(values) != n:
        raise ValueError(f"{path}: expected {n} values for shape {shape}, got {len(values)}")
    return np.array(values, dtype=np.float64).reshape(shape)
