"""Benchmark of the mpepsn package: training step, inference and wide forward.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_ref --seed 0 --seconds 50 --trace 0

Workloads (see workloads.py):

* ``train_ref``    README quickstart, T=8: many small tensors, tape overhead
                   and the Python-loop matmul dominate.
* ``forward_wide`` neuron forward only at T=32, N=2^18: elementwise, expit,
                   Philox and the worker pool; no tape and no matmul.
* ``train_longT``  T=128, MPE-PSN against LIF with backprop through time:
                   the paper's crossover; loads the tape and large-K matmul.
                   Runnable, but not listed in BENCHMARK.json: its ten-run
                   spread exceeded the 25% bound (see below).

Each run is one process with pool workers and BLAS threads capped at the
number of usable cores.  It sets up ``SETUP_REPS`` times (setup_s is the
import time plus the median set-up), then repeats the workload's iteration
until ``--seconds`` have passed, and prints one line per metric (median,
the highest percentile with at least ten samples beyond it, the gated
value and the sample count), then a JSON line with the gated metrics.

A gated timing is the median of its run's samples.  The benchmark shares a
machine whose speed changes for seconds to minutes at a time: on a 2-vCPU
VM, a train_ref step takes about 19 ms or about 31 ms, and a pure-Python
loop and a small-array numpy kernel slow down at the same moments, by 1.3x
and 1.8x.  Over sets of ten runs, the quartiles of the raw train_ref
medians spread by 8-55% of their median, and those of its 10th
percentiles by 12-36%, because some runs never reach full speed.  So the
training workloads (``calibrate = True``) scale each sample to full speed:
next to every training step and every timed call, the run times
``workloads.reference_ms``, a fixed kernel of the same kind of work that
uses no mpepsn code, and the gated value is the median of
``ms * REF_MS / reference ms``.  Over three sets of ten 50-s runs the
calibrated step times spread by 1.5-8% and the predicts by 7-15%, where
the raw medians spread by 8-41%.  The raw median and tail are printed
beside it.  forward_wide is not calibrated: its passes stream 64 MB arrays
through the pool and do not slow down with the kernel (calibrating them
widened their spread from 4-11% to 15-28%); its raw medians spread by
4-17%.  train_longT steps take about a second, so a run holds about a
dozen; over ten 30-s runs they spread by 18-27% under every statistic
tried.  In the calibrated workloads setup_s is scaled by ``REF_MS`` over
the median reference time of the whole run, since set-up happens once, in
a second or two: over three sets of ten train_ref runs its median moved by
up to 33% raw and by up to 15% scaled.

Gated end-to-end metrics carry workload-neutral names, because every
workload reports every one of them:

* ``mpe_psn_ms``  train_step_ms.mpe_psn (train_*), forward_ms.mpe_psn (forward_wide)
* ``lif_ms``      train_step_ms.lif (train_*), forward_ms.lif (forward_wide)
* ``infer_ms``    predict_ms (train_*), expectation-mode forward (forward_wide)
* ``est_l2.final`` mean per-layer ||u_hat - u|| at the last epoch of the first
                   MPE-PSN fit (train_*), of the first sampled pass (forward_wide)

``spike_disagree_pct`` and ``train_acc`` are printed but not gated: on the
trained models spike disagreement moves by 35-75% from seed to seed, and
``train_acc`` is 1.0 on every seed of train_ref, where it is checked >= 0.9.

With ``--trace 1`` the run alternates untraced and traced iterations.  The
traced ones wrap the public functions of numerics, neuron, autograd, losses,
network and datagen from outside the package (tracer.py) and report
per-iteration layer times and exact counts, plus the tracing overhead.
Spans and the full result set, with the environment, are written to
``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

T_START = time.perf_counter()
NPROC = len(os.sched_getaffinity(0))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 5
# Reference-kernel milliseconds at about full speed on a 2-vCPU Xeon VM;
# calibrated times are wall times scaled to a machine where it takes this.
REF_MS = 1.5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mpe_psn_ms": "ms",
    "lif_ms": "ms",
    "infer_ms": "ms",
    "est_l2.final": "norm",
}

# (metric, unit, key in the tracer's per-iteration totals)
PER_LAYER = [
    ("numerics.matmul.calls", "count", "numerics.matmul.calls"),
    ("numerics.matmul.s", "s", "numerics.matmul.s"),
    ("numerics.matmul.gflop", "GFLOP", "numerics.matmul.gflop"),
    ("numerics.rng.draws", "count", "numerics.rng.draws"),
    ("numerics.rng.s", "s", "numerics.rng.s"),
    ("numerics.sigmoid.s", "s", "numerics.sigmoid.s"),
    ("numerics.bernoulli_sample.s", "s", "numerics.bernoulli_sample.s"),
    ("numerics.pool.calls", "count", "numerics.pool.calls"),
    ("numerics.pool.busy_s", "s", "numerics.pool.s"),
    ("neuron.mpe_psn_forward.s", "s", "neuron.mpe_psn_forward.s"),
    ("neuron.mpe_psn_forward.bytes_out", "B", "neuron.mpe_psn_forward.bytes_out"),
    ("neuron.lif_sequential.s", "s", "neuron.lif_sequential.s"),
    ("autograd.backward.s", "s", "autograd.backward.s"),
    ("autograd.backward.self_s", "s", "autograd.backward.self_s"),
    ("losses.cls_loss.s", "s", "losses.cls_loss.s"),
    ("losses.mem_loss.s", "s", "losses.mem_loss.s"),
    ("network.model_forward.self_s", "s", "network.model_forward.self_s"),
    ("network.tape_forward.mpe_psn.s", "s", "network.tape_forward.mpe_psn.s"),
    ("network.tape_forward.lif.s", "s", "network.tape_forward.lif.s"),
    ("network.diagnostics.s", "s", "network.diagnostics.s"),
    ("network.sgd_step.s", "s", "network.sgd_step.s"),
    ("network.predict.s", "s", "network.predict.s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import mpepsn from this checkout's ``src``, never from elsewhere.

    BLAS threads are capped at ``NPROC`` first, since numpy reads the cap
    when it is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    if not os.path.isfile(os.path.join(SRC, "mpepsn", "__init__.py")):
        sys.exit(f"perfbench: no mpepsn package under {SRC}")
    sys.path.insert(0, SRC)
    import types

    import mpepsn
    from mpepsn import autograd, datagen, losses, network, neuron, numerics

    if os.path.dirname(os.path.dirname(os.path.abspath(mpepsn.__file__))) != SRC:
        sys.exit(f"perfbench: mpepsn was imported from {mpepsn.__file__}, not {SRC}")
    return types.SimpleNamespace(numerics=numerics, neuron=neuron, autograd=autograd,
                                 losses=losses, network=network, datagen=datagen)


def environment(pool_workers: int) -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
        except (OSError, AttributeError):
            pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_cap": NPROC,
        "blas_threads": threads,
        "pool_workers": pool_workers,
    }


def tail(values):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)
    return f"p{p}", sorted(values)[rank - 1]


def gated_time(values, refs) -> float:
    """Median of the samples, each scaled to the machine's full speed
    (``REF_MS`` over its reference time) when it has a reference time."""
    if None in refs:
        return statistics.median(values)
    return statistics.median(ms * REF_MS / ref for ms, ref in zip(values, refs))


def set_up(cls, mp, seed: int, clock, tracer):
    """Build the workload ``SETUP_REPS`` times, keeping the last build."""
    times, wl, pool = [], None, None
    for rep in range(SETUP_REPS):
        if pool is not None:
            pool.close()
        wl = pool = None
        if tracer is not None:
            tracer.install(("setup", rep))
        start = time.perf_counter()
        pool = mp.numerics.WorkerPool(NPROC)
        wl = cls(mp, seed, pool, clock, tracer)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
    return wl, pool, times


def measure(wl, seconds: float, tracer, runs):
    """Repeat iterations for ``seconds``; with a tracer, every second one is traced.

    ``runs`` holds the untraced and the traced ``Run``, keyed by whether
    it is traced.  Returns the wall time of each iteration, less the time
    spent in reference-kernel calls, keyed the same.
    """
    walls = {False: [], True: []}
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        t0, ref_s = time.perf_counter(), runs[traced].ref_s
        wl.iteration(runs[traced])
        walls[traced].append(time.perf_counter() - t0 - (runs[traced].ref_s - ref_s))
        if traced:
            tracer.uninstall()
        if i == 0:
            wl.quality(runs[False])
        i += 1
        # A trace run needs a traced iteration and an untraced one after the
        # first, which also does the one-time quality work.
        if time.perf_counter() - start >= seconds and (
            tracer is None or (walls[True] and len(walls[False]) >= 2)
        ):
            break
    wl.final_checks(runs[False])
    return walls


def ratios(cls, gated, forward_only: bool) -> dict:
    """Derived speed ratios as (value, numerator, denominator); 0 when not measured."""
    lif, mpe = cls.gated["lif_ms"], cls.gated["mpe_psn_ms"]
    pair = (0.0, None, None)
    if lif in gated and mpe in gated:
        pair = (gated[lif] / gated[mpe], lif, mpe)
    return {
        "bench.speedup.lif_over_mpe": pair,
        "bench.speedup.seq_over_par": pair if forward_only else (0.0, None, None),
    }


def layer_metrics(tracer, walls, derived) -> dict:
    """Per-layer metrics of a trace run: medians over the traced iterations."""
    iters = tracer.per_tag(sorted({span[4] for span in tracer.spans
                                   if isinstance(span[4], int)}))
    layer = {name: (statistics.median(iters.get(key, [0.0])), unit)
             for name, unit, key in PER_LAYER}
    for phase in ("mpe_psn", "lif"):
        nodes = tracer.samples.get("autograd.tape_nodes." + phase, [0])
        layer["autograd.tape_nodes." + phase] = (statistics.median(nodes), "count")
    setup = tracer.per_tag([("setup", rep) for rep in range(SETUP_REPS)])
    layer["datagen.generate.s"] = (statistics.median(setup.get("datagen.generate.s", [0.0])), "s")
    for name, (value, _, _) in derived.items():
        layer[name] = (value, "x")
    layer["bench.trace_overhead"] = (
        statistics.median(walls[True]) / statistics.median(walls[False][1:]), "x")
    return layer


VALUE_UNITS = {"est_l2.epoch1": "norm", "est_l2.final": "norm", "train_acc": "frac",
               "heldout_acc": "frac", "spike_disagree_pct": "%"}


def print_report(args, cls, env, run, walls, gated, metrics, import_s, derived, workers):
    row = "{:34s} {:6s} {:>12s} {:>18s} {:>12s} {:>6s}  {}"
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} iterations: {len(walls[False])} untraced, "
          f"{len(walls[True])} traced")
    if cls.calibrate:
        refs = [r for v in run.refs.values() for r in v]
        print(f"# gated times calibrated: reference kernel median {statistics.median(refs):.4f} ms"
              f" over {len(refs)} calls, {REF_MS} ms at full speed")
    print(row.format("metric", "unit", "median", "tail", "gated", "n", "gated as"))
    gated_as = {name: metric for metric, name in cls.gated.items()}
    for name in sorted(run.samples):
        samples = run.samples[name]
        t = tail(samples)
        print(row.format(name, "ms", f"{statistics.median(samples):.4f}",
                         f"{t[0]}={t[1]:.4f}" if t else "-", f"{gated[name]:.4f}",
                         str(len(samples)), gated_as.get(name, "-")))
    print(row.format("setup_s", "s", "-", "-", f"{metrics['setup_s']:.4f}", str(SETUP_REPS),
                     f"setup_s (import {import_s:.4f} s + median set-up"
                     f"{', scaled by the run median reference' if cls.calibrate else ''})"))
    print(row.format("peak_rss_mb", "MB", f"{metrics['peak_rss_mb']:.1f}", "-", "-", "1",
                     "peak_rss_mb"))
    for name, value in sorted(run.values.items()):
        print(row.format(name, VALUE_UNITS.get(name, "-"), f"{value:.4f}", "-", "-", "1",
                         name if name in END_TO_END else "-"))
    for name, (value, num, den) in derived.items():
        if num is None:
            print(f"# {name}: not measured on this workload")
            continue
        note = ""
        if name == "bench.speedup.seq_over_par":
            note = (f"; pool of {workers} workers, whereas acceptance criterion 6 "
                    f"asks for > 1.0 with 4 workers")
        print(f"# {name} = {value:.4f} ({num} {gated[num]:.4f} ms / {den} {gated[den]:.4f} ms"
              f" as gated{note}); not gated")


def main(argv=None) -> int:
    args = parse_args(argv)
    mp = import_package()
    import_s = time.perf_counter() - T_START

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    clock = tracing.StepClock(mp.autograd.ParamRegistry)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.define_layer_wrappers(tracer, mp)

    wl, pool, setup_times = set_up(cls, mp, args.seed, clock, tracer)
    runs = {False: workloads.Run(calibrate=cls.calibrate), True: workloads.Run()}
    walls = measure(wl, args.seconds, tracer, runs)
    pool.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run = runs[False]
    env = environment(pool.workers)
    gated = {name: gated_time(v, run.refs[name]) for name, v in run.samples.items()}
    setup_s = import_s + statistics.median(setup_times)
    if cls.calibrate:
        setup_s *= REF_MS / statistics.median(r for v in run.refs.values() for r in v)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        **{metric: gated[name] for metric, name in cls.gated.items()},
        "est_l2.final": run.values.get("est_l2.final"),
    }
    derived = ratios(cls, gated, forward_only=cls is workloads.ForwardWide)
    print_report(args, cls, env, run, walls, gated, metrics, import_s, derived, pool.workers)

    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    print(f"# operations: {attempted} attempted, {failed} failed")
    for r in runs.values():
        for what in r.failures:
            print(f"# FAILED: {what}")

    result = {"env": env, "args": vars(args), "samples": run.samples, "refs": run.refs,
              "values": run.values,
              "setup_times_s": setup_times, "import_s": import_s}
    if tracer is not None:
        layer = layer_metrics(tracer, walls, derived)
        for name, (value, unit) in layer.items():
            print(f"{name:34s} {unit:6s} {value:16.6f}")
        print(f"# bench.trace_overhead: traced iteration {statistics.median(walls[True]):.4f} s"
              f" / untraced {statistics.median(walls[False][1:]):.4f} s")
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["spans"] = tracer.spans
    else:
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    result["metrics"] = out_metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
