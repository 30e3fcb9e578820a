"""Wall-clock comparison of the sequential and parallel forward passes.

Each grid point feeds bit-identical random input to both kinds, times
forward-only passes, discards warmup repetitions, and reports medians.  The
sequential arm is ``neuron.lif_sequential``; the parallel arm is the pooled
sampled ``neuron.mpe_psn_forward``, a pass that no ``fit`` or ``predict``
runs (``fit`` runs it without a pool, ``predict`` runs the spikes-only
pass), so the ratio times neither training nor inference.  Both arms
allocate their outputs alike, through ``numerics.empty``: each timed rep
writes into the memory of the previous rep's dead arrays, and the
discarded warm-up rep pays the kernel's first-touch page faults, so the
ratio compares compute with compute.  Multi-core CPU threading stands in for
GPU parallelism, so only the growth trend of the seq/par ratio is
meaningful, never absolute magnitudes.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from . import neuron
from .numerics import Rng, WorkerPool

KINDS = ("sequential", "parallel")


@dataclass
class BenchRecord:
    T: int
    N: int
    B: int
    workers: int
    reps: int
    seq_median_ns: int
    par_median_ns: int

    @property
    def ratio(self) -> float:
        return self.seq_median_ns / self.par_median_ns

    CSV_HEADER = "T,N,B,workers,reps,seq_median_ns,par_median_ns,ratio"

    def csv_row(self) -> str:
        return (
            f"{self.T},{self.N},{self.B},{self.workers},{self.reps},"
            f"{self.seq_median_ns},{self.par_median_ns},{format(self.ratio, '.17g')}"
        )


def time_forward(
    kind: str,
    T: int,
    B: int,
    N: int,
    reps: int = 5,
    seed: int = 0,
    pool: WorkerPool | None = None,
) -> list[int]:
    """Per-rep wall-clock nanoseconds for one forward kind after one
    discarded warmup pass; the parallel kind runs over ``pool`` (one range
    without a pool)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if min(T, B, N) < 1:
        raise ValueError("grid values must be >= 1")
    if reps < 5:
        raise ValueError("need at least 5 repetitions")
    params = neuron.NeuronParams()
    I = Rng(seed, stream=7).uniform_tensor((T, B, N), -2.0, 2.0)
    sample_rng = Rng(seed, stream=11)
    timings = []
    for rep in range(1 + reps):
        start = time.perf_counter_ns()
        if kind == "sequential":
            neuron.lif_sequential(I, params)
        else:
            neuron.mpe_psn_forward(I, params, "sampled", sample_rng, pool)
        if rep:
            timings.append(time.perf_counter_ns() - start)
    return timings


def measure_point(
    T: int, N: int, B: int, workers: int, reps: int, seed: int
) -> BenchRecord:
    with WorkerPool(workers) as pool:
        seq = time_forward("sequential", T, B, N, reps, seed)
        par = time_forward("parallel", T, B, N, reps, seed, pool)
    return BenchRecord(
        T=T,
        N=N,
        B=B,
        workers=workers,
        reps=reps,
        seq_median_ns=int(statistics.median(seq)),
        par_median_ns=int(statistics.median(par)),
    )


def sweep(
    T_grid,
    N_grid,
    B: int = 1,
    workers: int = 1,
    reps: int = 5,
    seed: int = 0,
    log=print,
) -> list[BenchRecord]:
    """Measure every (T, N) grid point and log the trend summary."""
    T_grid, N_grid = list(T_grid), list(N_grid)
    if not T_grid or not N_grid:
        raise ValueError("grids must be non-empty")
    records: list[BenchRecord] = []
    for T in T_grid:
        for N in N_grid:
            try:
                rec = measure_point(T, N, B, workers, reps, seed)
            except MemoryError:
                log(f"# skipped T={T} N={N}: allocation failed")
                continue
            records.append(rec)
    for line in trend_summary(records):
        log(line)
    return records


def csv_text(records) -> str:
    rows = [BenchRecord.CSV_HEADER] + [r.csv_row() for r in records]
    return "\n".join(rows) + "\n"


def ratio_matrix(records, T_grid, N_grid) -> str:
    """Gnuplot-compatible matrix of ratios: rows follow T, columns follow N."""
    by_point = {(r.T, r.N): r.ratio for r in records}
    lines = ["# ratio matrix, rows=T " + ",".join(map(str, T_grid))
             + ", cols=N " + ",".join(map(str, N_grid))]
    for T in T_grid:
        row = [by_point.get((T, N)) for N in N_grid]
        lines.append(" ".join("nan" if v is None else format(v, ".6g") for v in row))
    return "\n".join(lines) + "\n"


def trend_summary(records) -> list[str]:
    """Monotone-trend check of the ratio over N at the largest measured T.

    One inversion is tolerated as noise; the check is informative only with
    >= 4 usable cores, since at most ``min(workers, usable cores)`` threads,
    counting the caller, run a pool's ranges.
    """
    if not records:
        return ["# no records"]
    t_max = max(r.T for r in records)
    row = sorted((r for r in records if r.T == t_max), key=lambda r: r.N)
    ratios = [r.ratio for r in row]
    inversions = sum(1 for a, b in zip(ratios[:-1], ratios[1:]) if b < a)
    lines = [
        f"# trend at T={t_max}: ratios over N = "
        + ", ".join(f"{r.N}:{r.ratio:.3f}" for r in row),
        f"# inversions along N: {inversions} (<=1 expected with >=4 usable cores)",
    ]
    if len(row) >= 2:
        ok = row[-1].ratio > row[0].ratio
        lines.append(
            f"# ratio growth N={row[0].N} -> N={row[-1].N}: "
            f"{row[0].ratio:.3f} -> {row[-1].ratio:.3f} ({'ok' if ok else 'NOT increasing'})"
        )
    return lines
