"""Acceptance suite: one test per numbered criterion, one printed verdict each.

The reference task and reference model are fixed by seed, so every number
asserted here is reproducible with a plain ``pytest tests/test_acceptance.py``.
Criterion 6 compares wall-clock medians and is therefore the only test whose
verdict depends on the hardware it runs on (it needs real multi-core
parallelism to clear the absolute-ratio bar).
"""

import numpy as np
import pytest

from mpepsn import bench, datagen, losses, numerics, verify
from mpepsn.autograd import Var
from mpepsn.cli import main as cli_main
from mpepsn.network import SpikingClassifier
from mpepsn.numerics import WORKERS_ENV_VAR


_capsys = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {name}: {verdict}"
    if detail:
        line += f" ({detail})"
    with _capsys.disabled():
        print(line, flush=True)
    assert ok, line


def reference_model(lam: float) -> SpikingClassifier:
    return SpikingClassifier(
        hidden_sizes=(32,), lam=lam, epochs=200, lr=0.1, momentum=0.9, seed=0
    )


@pytest.fixture(scope="module")
def reference_runs():
    """Reference-task training with the membrane loss on and off (same seed)."""
    train_b, test_b = datagen.generate(datagen.DatasetSpec())
    runs = {}
    for key, lam in (("mem_on", 0.01), ("mem_off", 0.0)):
        model = reference_model(lam).fit(train_b.x, train_b.y)
        runs[key] = model
    return runs


@pytest.fixture(scope="module")
def bench_points():
    """Speed-ratio measurements at fixed T=32 with a 4-worker pool."""
    small = bench.measure_point(T=32, N=1 << 10, B=1, workers=4, reps=5, seed=0)
    large = bench.measure_point(T=32, N=1 << 18, B=1, workers=4, reps=5, seed=0)
    return small, large


def test_criterion_1_t0_exactness():
    res = verify.check_t0_exactness(trials=1000)
    report(1, "t=0 exactness vs sequential oracle", res.passed,
           f"{res.trials} trials, {res.failures} failures")


def test_criterion_2_teacher_forced_equivalence():
    res = verify.check_teacher_forced(trials=1000)
    report(2, "teacher-forced equivalence", res.passed,
           f"{res.trials} trials, {res.failures} failures")


def test_criterion_3_gradient_integrity():
    grads = verify.check_gradients(graphs=100, step=1e-5, tol=1e-4)
    chain = verify.check_surrogate_chain()
    report(3, "gradient integrity", grads.passed and chain.passed,
           f"max_rel={grads.max_err:.3g}, chain_err={chain.max_err:.3g}")


def test_criterion_4_mem_loss_effect(reference_runs):
    on = reference_runs["mem_on"].history_
    off = reference_runs["mem_off"].history_
    first = float(np.mean(on[0].l2_norms))
    final = float(np.mean(on[-1].l2_norms))
    ablation = float(np.mean(off[-1].l2_norms))
    ok = final < first and final < ablation
    report(4, "membrane loss shrinks estimation L2", ok,
           f"epoch1={first:.1f}, final={final:.1f}, ablation={ablation:.1f}")


def test_criterion_5_learnability(reference_runs):
    best = max(d.train_acc for d in reference_runs["mem_on"].history_)
    report(5, "reference task reaches 90% train accuracy", best >= 0.9,
           f"best train_acc={best:.4f} within 200 epochs")


def test_criterion_6_benchmark_trend(bench_points):
    small, large = bench_points
    growth = large.ratio > small.ratio
    absolute = large.ratio > 1.0
    report(6, "speed ratio grows with N and exceeds 1.0 at the top",
           growth and absolute,
           f"ratio(N=2^10)={small.ratio:.3f}, ratio(N=2^18)={large.ratio:.3f}")


def test_criterion_7_determinism(tmp_path, monkeypatch, capsys):
    # 256 held-out samples of width 64 at T=8 are two predict blocks, so
    # each epoch's held-out scoring runs on a pool of MPE_PSN_WORKERS
    train_args = ["train", "--batch", "640", "--neurons", "64", "--epochs", "20"]
    verify_args = ["verify", "--trials", "100"]
    outputs = {"train": set(), "verify": set()}
    pooled, map_ranges, kind = [], numerics.WorkerPool.map_ranges, None

    def record(pool, n, fn):
        pooled.append((kind, pool.workers))
        return map_ranges(pool, n, fn)

    monkeypatch.setattr(numerics.WorkerPool, "map_ranges", record)
    for workers in ("1", "4"):
        monkeypatch.setenv(WORKERS_ENV_VAR, workers)
        for rep in range(2):
            for kind, args in (("train", train_args), ("verify", verify_args)):
                path = tmp_path / f"{kind}_{workers}_{rep}.csv"
                assert cli_main(args + ["--out", str(path)]) == 0
                outputs[kind].add(path.read_bytes())
    capsys.readouterr()
    assert ("train", 4) in pooled
    ok = len(outputs["train"]) == 1 and len(outputs["verify"]) == 1
    report(7, "byte-identical outputs across runs and worker counts", ok,
           f"distinct train logs={len(outputs['train'])}, "
           f"distinct verify reports={len(outputs['verify'])}")


def test_criterion_8_degenerate_lambda_identities():
    l_cls, l_mem = Var(np.asarray(0.7)), Var(np.asarray(0.3))
    ok = (losses.total_loss(l_cls, l_mem, 0.0) is l_cls
          and losses.total_loss(l_cls, l_mem, 1.0) is l_mem)
    report(8, "lambda=0 and lambda=1 reduce to the pure losses exactly", ok)


def test_criterion_9_spike_rate_reporting(reference_runs):
    from mpepsn.network import diagnostics

    o = np.zeros((4, 2, 5))
    o[0, 0, :] = 1.0  # 5 of 40 positions fired -> 12.5%
    rates, _ = diagnostics([o], np.zeros((4, 2, 2)), np.zeros(2, dtype=int))
    exact = rates[0] == 100.0 * o.mean() == 12.5
    trained = reference_runs["mem_on"].history_[-1].spike_rates
    bounded = all(0.0 <= r <= 100.0 for r in trained)
    report(9, "spike rate is 100*mean(o) and bounded in [0, 100]",
           exact and bounded, f"constructed={rates[0]}, trained={trained}")
