"""Seeded synthetic temporal-classification datasets and their CSV format.

Two pattern families: rate-coded (each class drives its own feature subset
with a constant mean current) and phase-coded (each class pulses at its own
time offsets).  Generation is a pure function of the spec, including the
seed, so fixtures are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Array, Rng

PATTERN_KINDS = ("rate-coded", "phase-coded")

# The Rng stream datasets draw from, one that no other draw of the package
# uses (stream 0's first call, for one, is ``Rng(seed).uniforms``'s).
DATA_STREAM = 100


@dataclass
class DatasetSpec:
    n_classes: int = 2
    time_steps: int = 8
    n_features: int = 16
    samples_per_class: int = 128
    noise_std: float = 0.3
    pattern: str = "rate-coded"
    seed: int = 42

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.time_steps < 2:
            raise ValueError("need at least 2 time steps")
        if self.n_features < 2:
            raise ValueError("need at least 2 features")
        if self.samples_per_class < 1:
            raise ValueError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.pattern not in PATTERN_KINDS:
            raise ValueError(f"pattern must be one of {PATTERN_KINDS}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


@dataclass
class LabeledBatch:
    x: Array  # [T, B, N] input currents
    y: Array  # [B] class labels

    @property
    def batch_size(self) -> int:
        return self.x.shape[1]


def _clean_signal(spec: DatasetSpec) -> Array:
    """Noise-free class templates, shape [K, T, N]."""
    K, T, N = spec.n_classes, spec.time_steps, spec.n_features
    templates = np.zeros((K, T, N))
    if spec.pattern == "rate-coded":
        # class k drives its own slice of the feature axis with mean current
        # mu_k; amplitudes differ per class so centroids stay distinct even
        # when K does not divide N evenly.
        per = N // K
        for k in range(K):
            lo = k * per
            hi = (k + 1) * per if k < K - 1 else N
            templates[k, :, lo:hi] = 1.0 + 0.25 * k
    else:
        # class k places a strong pulse at time offsets congruent to k.
        for k in range(K):
            for t in range(k % T, T, K):
                templates[k, t, :] = 1.5
    return templates


def generate(spec: DatasetSpec) -> tuple[LabeledBatch, LabeledBatch]:
    """Build the train/test batches (80/20 split, shuffled per seed)."""
    K, T, N = spec.n_classes, spec.time_steps, spec.n_features
    gen = Rng(spec.seed, DATA_STREAM).generator()
    B = K * spec.samples_per_class
    y = np.arange(B, dtype=np.int64) % K
    x = _clean_signal(spec)[y]  # [B, T, N]: sample i is of class i % K
    if spec.noise_std > 0:
        x += spec.noise_std * gen.standard_normal((B, T, N))
    x = x.transpose(1, 0, 2)
    order = gen.permutation(B)
    x, y = x[:, order, :], y[order]
    n_train = int(round(0.8 * B))
    train = LabeledBatch(x=np.ascontiguousarray(x[:, :n_train, :]), y=y[:n_train].copy())
    test = LabeledBatch(x=np.ascontiguousarray(x[:, n_train:, :]), y=y[n_train:].copy())
    return train, test


def nearest_centroid_accuracy(train: LabeledBatch, test: LabeledBatch) -> float:
    """Accuracy of a nearest-centroid rule on time-averaged inputs.

    Independent sanity oracle: on a separable spec this must reach 100%
    before any training-based acceptance threshold is trusted.
    """
    mean_train = train.x.mean(axis=0)
    mean_test = test.x.mean(axis=0)
    classes = np.unique(train.y)
    centroids = np.stack([mean_train[train.y == k].mean(axis=0) for k in classes])
    d2 = ((mean_test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    preds = classes[np.argmin(d2, axis=1)]
    return float(np.mean(preds == test.y))


def save(batch: LabeledBatch, path) -> None:
    """Dataset CSV: one row per (sample, t); the label rides on the t=0 row."""
    T, B, N = batch.x.shape
    with open(path, "w") as fh:
        fh.write(f"# dataset K,T,N0,B: {int(batch.y.max()) + 1},{T},{N},{B}\n")
        for b in range(B):
            for t in range(T):
                row = ",".join(format(v, ".17g") for v in batch.x[t, b])
                if t == 0:
                    row += f",{int(batch.y[b])}"
                fh.write(row + "\n")


def load(path) -> LabeledBatch:
    """Inverse of :func:`save`; rejects malformed files with a line number,
    a label outside the header's K classes among them."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# dataset"):
            raise ValueError(f"{path}:1: missing '# dataset' header")
        try:
            K, T, N, B = (int(v) for v in header.split(":", 1)[1].split(","))
            if min(K, T, N, B) < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}:1: malformed dataset header") from None
        x = np.empty((T, B, N))
        y = np.empty(B, dtype=np.int64)
        for b in range(B):
            for t in range(T):
                lineno = 2 + b * T + t
                line = fh.readline()
                if not line.strip():
                    raise ValueError(f"{path}:{lineno}: unexpected end of file")
                parts = line.strip().split(",")
                expected = N + 1 if t == 0 else N
                if len(parts) != expected:
                    raise ValueError(
                        f"{path}:{lineno}: expected {expected} fields, got {len(parts)}"
                    )
                try:
                    x[t, b] = [float(v) for v in parts[:N]]
                    if t == 0:
                        y[b] = int(parts[N])
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
                if t == 0 and not 0 <= y[b] < K:
                    raise ValueError(
                        f"{path}:{lineno}: label {y[b]} outside [0, {K}) of the header's K"
                    )
    return LabeledBatch(x=x, y=y)
