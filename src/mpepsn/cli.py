"""Command-line entry point: verify, train, bench, and estimate subcommands.

Exit codes: 0 success, 1 property/training failure, 2 usage error.  All
file outputs are written atomically (temp file + rename).  Defaults mirror
the documented configuration (tau_m 0.25, lambda 0.01, alpha 1.0), so
`verify` and `train` run it with zero flags.  Each subcommand accepts only
the flags it reads: neuron constants go to `train` and `estimate`, the
worker count to `bench`, and `verify` checks the default neuron.  The
MPE_PSN_WORKERS environment variable (default: the usable cores) sizes the
pool of `bench` without `--workers` and of every predict, which includes
`train`'s held-out scoring (`train` checks it before its first epoch);
outputs do not depend on it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from . import bench, datagen, network, neuron, numerics, verify
from .losses import KAPPA_AXES
from .network import SpikingClassifier, TrainingDivergedError
from .neuron import MODES
from .numerics import Rng


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the output the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)


def _add_neuron(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-m", type=float, default=0.25)
    p.add_argument("--v-th-init", type=_finite, default=1.0)
    p.add_argument("--mode", choices=MODES, default="sampled")


def _checked(convert, expected: str, ok=lambda value: True):
    """An argparse type: ``convert(text)`` if that passes ``ok``, else a usage
    error that names the flag and says what was ``expected``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_int_list = _checked(lambda text: [int(v) for v in text.split(",") if v], "comma-separated ints")
# An extent of the generated input: 0 passes, so the shape check rejects it
# with the whole shape; a negative one fails here, before numpy sees it.
_extent = _checked(int, "an integer >= 0", lambda value: value >= 0)
# A threshold: at NaN no neuron ever fires, and at an infinity none or all do.
_finite = _checked(float, "a finite number", math.isfinite)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mpepsn")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the oracle-equivalence and gradient suites")
    _add_common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("train", help="train the reference classifier")
    _add_common(p)
    _add_neuron(p)
    p.add_argument("--alpha", type=float, default=1.0, help="surrogate-gradient width")
    p.add_argument("--time-steps", type=int, default=8)
    p.add_argument("--neurons", type=int, default=32, help="hidden layer width")
    p.add_argument("--batch", type=int, default=128, help="samples per class")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--kappa-axis", choices=KAPPA_AXES, default="time")
    p.add_argument("--kappa-init", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--synaptic-delay", type=int, choices=(0, 1), default=0)
    p.add_argument("--mem-loss", choices=("on", "off"), default="on")
    p.add_argument("--neuron-kind", choices=network.NEURON_KINDS, default="mpe_psn")
    p.add_argument("--dataset", type=str, default=None, help="dataset CSV path")
    p.set_defaults(run=cmd_train)

    p = sub.add_parser(
        "bench", help="sequential vs parallel speed-ratio sweep",
        description="Time lif_sequential against the pooled sampled mpe_psn_forward over "
                    "a (T, N) grid.  No fit or predict runs that pooled pass: fit runs it "
                    "without a pool, predict runs the spikes-only pass.")
    _add_common(p)
    p.add_argument("--workers", type=_int_list, default=None,
                   help="comma-separated worker counts (falls back to MPE_PSN_WORKERS, "
                        "then the usable cores)")
    p.add_argument("--time-steps", type=_int_list, default=[1, 8, 32])
    p.add_argument("--neurons", type=_int_list, default=[1 << 10, 1 << 14, 1 << 18])
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--matrix-out", type=str, default=None,
                   help="write a gnuplot-compatible ratio matrix here")
    p.set_defaults(run=cmd_bench)

    p = sub.add_parser("estimate", help="inspect the membrane-potential estimator")
    _add_common(p)
    _add_neuron(p)
    p.add_argument("--time-steps", type=_extent, default=8)
    p.add_argument("--neurons", type=_extent, default=64)
    p.add_argument("--batch", type=_extent, default=4)
    p.add_argument("--input", type=str, default=None, help="tensor CSV path")
    p.set_defaults(run=cmd_estimate)

    return ap


def cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    results = verify.run_all(args.trials, args.seed)
    for res in results:
        print(res.line())
        for d in res.details:
            print(f"  {d}")
    if args.out:
        rows = [verify.CSV_HEADER] + [r.csv_row() for r in results]
        _atomic_write(args.out, "\n".join(rows) + "\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_train(args) -> int:
    numerics.resolve_workers()  # a bad MPE_PSN_WORKERS fails before any epoch runs
    if args.dataset:
        full = datagen.load(args.dataset)
        split = int(round(0.8 * full.batch_size))
        train_batch = datagen.LabeledBatch(full.x[:, :split], full.y[:split])
        test_batch = datagen.LabeledBatch(full.x[:, split:], full.y[split:])
    else:
        spec = datagen.DatasetSpec(
            time_steps=args.time_steps, samples_per_class=args.batch, seed=42
        )
        train_batch, test_batch = datagen.generate(spec)
    lam = 0.0 if args.mem_loss == "off" else args.lam
    model = SpikingClassifier(
        hidden_sizes=(args.neurons,),
        neuron_kind=args.neuron_kind,
        tau_m=args.tau_m,
        v_th_init=args.v_th_init,
        alpha=args.alpha,
        mode=args.mode,
        synaptic_delay=args.synaptic_delay,
        lam=lam,
        kappa_axis=args.kappa_axis,
        kappa_init=args.kappa_init,
        epochs=args.epochs,
        lr=args.lr,
        momentum=args.momentum,
        seed=args.seed,
    )
    # a dataset of 2 samples or fewer leaves the held-out split empty
    held_out = (test_batch.x, test_batch.y) if test_batch.batch_size else ()
    try:
        history = model.fit(train_batch.x, train_batch.y, *held_out).history_
    except TrainingDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        history = err.history
        if args.out and history:
            _log_to_file(history, len(model.hidden_sizes), args.out)
        return 1
    if args.out:
        _log_to_file(history, len(model.hidden_sizes), args.out)
    last = history[-1]
    print(
        f"final epoch={last.epoch} loss_total={last.loss_total:.6f} "
        f"train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f} "
        f"l2_norms={['%.4f' % v for v in last.l2_norms]} "
        f"spike_rates={['%.2f' % v for v in last.spike_rates]}"
    )
    return 0


def _log_to_file(history, n_layers: int, path: str) -> None:
    lines = [network.EpochDiagnostics.csv_header(n_layers)]
    lines += [d.csv_row() for d in history]
    _atomic_write(path, "\n".join(lines) + "\n")


def cmd_bench(args) -> int:
    worker_counts = [numerics.resolve_workers(w) for w in args.workers or [None]]
    for workers in worker_counts:
        suffix = f"_w{workers}" if len(worker_counts) > 1 else ""
        records = bench.sweep(
            args.time_steps,
            args.neurons,
            B=args.batch,
            workers=workers,
            reps=args.reps,
            seed=args.seed,
        )
        if args.out:
            _atomic_write(_suffixed(args.out, suffix), bench.csv_text(records))
        if args.matrix_out:
            text = bench.ratio_matrix(records, args.time_steps, args.neurons)
            _atomic_write(_suffixed(args.matrix_out, suffix), text)
    return 0


def _suffixed(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext}"


def cmd_estimate(args) -> int:
    params = neuron.NeuronParams(tau_m=args.tau_m, v_th=args.v_th_init)
    if args.input:
        I = network.check_input(numerics.load_tensor(args.input), args.input)
    else:
        I = network.check_input(Rng(args.seed, stream=7).uniform_tensor(
            (args.time_steps, args.batch, args.neurons), -2.0, 2.0
        ), "input of --time-steps, --batch and --neurons")
    rng = Rng(args.seed, stream=3) if args.mode == "sampled" else None
    tr = neuron.mpe_psn_forward(I, params, args.mode, rng)
    P, u_hat = numerics.sigmoid(I), tr.u_hat
    u_seq, _ = neuron.lif_sequential(I, params)
    print(f"input shape: {I.shape}, mode: {args.mode}")
    print(f"P: min={P.min():.6f} mean={P.mean():.6f} max={P.max():.6f}")
    if args.mode == "sampled":
        print(f"sampled spike fraction: {tr.b.mean():.6f}")
    else:
        print(f"expected spike fraction: {P.mean():.6f}")
    print("per-time-step l2_norm(u_hat - u_oracle):")
    lines = ["t,l2_norm"]
    for t in range(I.shape[0]):
        l2 = float(numerics.l2_norm(u_hat[t] - u_seq[t]))
        print(f"  t={t}: {l2:.6f}")
        lines.append(f"{t},{format(l2, '.17g')}")
    if args.out:
        _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
