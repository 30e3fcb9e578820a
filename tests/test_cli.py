import argparse
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpepsn import cli, numerics
from mpepsn.network import SpikingClassifier
from mpepsn.numerics import save_tensor


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRAIN_SMALL = (
    "train", "--batch", "8", "--neurons", "8", "--epochs", "5",
)

# every option of every subcommand, with a value that parses
KEPT = {
    "verify": {"--seed": "1", "--out": "o.csv", "--trials": "3"},
    "train": {
        "--seed": "1", "--out": "o.csv", "--tau-m": "0.5", "--v-th-init": "0.9",
        "--alpha": "2", "--mode": "expectation", "--time-steps": "4", "--neurons": "8",
        "--batch": "8", "--lambda": "0.1", "--kappa-axis": "neuron", "--kappa-init": "0.5",
        "--epochs": "3", "--lr": "0.01", "--momentum": "0", "--synaptic-delay": "1",
        "--mem-loss": "off", "--neuron-kind": "lif_sequential", "--dataset": "d.csv",
    },
    "bench": {
        "--seed": "1", "--out": "o.csv", "--workers": "1,2", "--time-steps": "2,4",
        "--neurons": "16", "--batch": "2", "--reps": "5", "--matrix-out": "m.dat",
        "--json": "b.json",
    },
    "estimate": {
        "--seed": "1", "--out": "o.csv", "--tau-m": "0.5", "--v-th-init": "0.9",
        "--mode": "expectation", "--time-steps": "4", "--neurons": "8", "--batch": "2",
        "--input": "i.csv",
    },
}
# neuron and worker flags a subcommand would ignore, so it rejects them
REMOVED = {
    "verify": {"--tau-m": "0.5", "--v-th-init": "0.9", "--alpha": "3", "--workers": "7",
               "--mode": "expectation", "--inject-fault": "u0-shift"},
    "train": {"--workers": "2"},
    "bench": {"--tau-m": "0.9", "--v-th-init": "0.9", "--alpha": "3", "--mode": "expectation"},
    "estimate": {"--alpha": "3", "--workers": "2"},
}
FLAG_CASES = [
    (command, flag, value, accepted)
    for accepted, table in ((True, KEPT), (False, REMOVED))
    for command, flags in table.items()
    for flag, value in flags.items()
]


@pytest.mark.parametrize("command,flag,value,accepted", FLAG_CASES)
def test_subcommand_accepts_only_flags_it_reads(command, flag, value, accepted):
    parser = cli.build_parser()
    if accepted:
        assert parser.parse_args([command, flag, value]).command == command
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, flag, value])
        assert exc.value.code == 2


def test_flag_table_covers_every_option():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        flags = {f for a in p._actions for f in a.option_strings if f not in ("-h", "--help")}
        assert flags == set(KEPT[command])
    assert sum(map(len, KEPT.values())) == 40


class TestVerify:
    def test_clean_run(self, capsys, tmp_path):
        out_path = tmp_path / "verify.csv"
        code, out, _ = run(capsys, "verify", "--trials", "25", "--out", str(out_path))
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 11
        assert all(l.startswith("PASS") for l in lines)
        csv = out_path.read_text().splitlines()
        assert csv[0] == "check,trials,failures,max_err,status"
        assert len(csv) == 12

    def test_injected_fault_fails(self, capsys, t0_fault):
        code, out, _ = run(capsys, "verify", "--trials", "25")
        assert code == 1
        assert "FAIL t0_exactness" in out

    def test_zero_trials_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "0")
        assert code == 2
        assert "trials" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--bogus"])
        assert exc.value.code == 2


class TestTrain:
    def test_writes_log_and_summary(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        code, out, _ = run(capsys, *TRAIN_SMALL, "--out", str(log))
        assert code == 0
        assert "final epoch=5" in out
        lines = log.read_text().splitlines()
        assert lines[0].startswith("epoch,loss_cls,loss_mem,loss_total")
        assert len(lines) == 6

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *TRAIN_SMALL, "--out", str(a))[0] == 0
        assert run(capsys, *TRAIN_SMALL, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_env_invariance(self, capsys, tmp_path, monkeypatch):
        # 256 held-out samples of width 64 at T=8 are two predict blocks, so
        # each epoch's held-out scoring runs on a pool of MPE_PSN_WORKERS
        args = ("train", "--batch", "640", "--neurons", "64", "--epochs", "5")
        pooled, map_ranges = [], numerics.WorkerPool.map_ranges

        def record(pool, n, fn):
            pooled.append(pool.workers)
            return map_ranges(pool, n, fn)

        monkeypatch.setattr(numerics.WorkerPool, "map_ranges", record)
        logs = []
        for workers in ("1", "4"):
            monkeypatch.setenv(numerics.WORKERS_ENV_VAR, workers)
            log = tmp_path / f"w{workers}.csv"
            assert run(capsys, *args, "--out", str(log))[0] == 0
            logs.append(log.read_bytes())
        assert 4 in pooled
        assert logs[0] == logs[1]

    def test_non_integer_worker_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(numerics.WORKERS_ENV_VAR, "abc")
        code, _, err = run(capsys, *TRAIN_SMALL)
        assert code == 2
        assert f"{numerics.WORKERS_ENV_VAR} must be an integer >= 1, got 'abc'" in err

    def test_bad_worker_env_fails_before_training(self, capsys, monkeypatch):
        def forward(*args, **kwargs):
            raise AssertionError("model_forward ran")

        monkeypatch.setenv(numerics.WORKERS_ENV_VAR, "abc")
        monkeypatch.setattr(SpikingClassifier, "model_forward", forward)
        code, _, err = run(capsys, *TRAIN_SMALL)
        assert code == 2
        assert numerics.WORKERS_ENV_VAR in err

    def test_blas_thread_count_invariance(self, tmp_path):
        # numpy reads the BLAS thread cap at import, so each run needs its own
        # process.  The default widths (rows T*B = 1640, 16 -> 32 -> 2) give
        # products large enough for OpenBLAS to split over threads; those of
        # TRAIN_SMALL stay on one thread whatever the cap.
        src = str(Path(cli.__file__).resolve().parents[1])
        logs = []
        for threads in ("1", "2"):
            log = tmp_path / f"blas{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "mpepsn.cli", "train", "--epochs", "20", "--out", str(log)],
                env=env, check=True, capture_output=True,
            )
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_mem_loss_off_zeroes_blend(self, capsys, tmp_path):
        log = tmp_path / "off.csv"
        code, _, _ = run(capsys, *TRAIN_SMALL, "--mem-loss", "off", "--out", str(log))
        assert code == 0
        header, first = log.read_text().splitlines()[:2]
        cols = dict(zip(header.split(","), first.split(",")))
        assert cols["loss_total"] == cols["loss_cls"]
        assert float(cols["loss_mem"]) > 0.0

    def test_divergence_exits_1_with_partial_log(self, capsys, tmp_path):
        log = tmp_path / "diverged.csv"
        with np.errstate(all="ignore"):
            code, _, err = run(
                capsys, *TRAIN_SMALL, "--lr", "1e160", "--epochs", "50", "--out", str(log)
            )
        assert code == 1
        assert "non-finite loss" in err
        assert log.exists()
        assert len(log.read_text().splitlines()) >= 2

    @pytest.mark.parametrize("flags", [(), ("--neuron-kind", "lif_sequential"),
                                       ("--mem-loss", "off")])
    def test_overflowing_currents_exit_1(self, capsys, tmp_path, flags):
        """Finite input whose currents overflow is divergence, not a usage
        error, although the held-out split overflows as well."""
        from mpepsn import datagen

        train_b, _ = datagen.generate(datagen.DatasetSpec(samples_per_class=8))
        train_b.x[:] = np.sign(train_b.x) * 1.5e308
        path = tmp_path / "data.csv"
        datagen.save(train_b, path)
        log = tmp_path / "diverged.csv"
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "train", "--dataset", str(path), "--neurons", "8",
                               "--out", str(log), *flags)
        assert code == 1
        assert "at epoch 1: first non-finite value in layer 0 current I" in err
        assert not log.exists()  # no epoch finished

    def test_dataset_round_trip(self, capsys, tmp_path):
        from mpepsn import datagen

        train_b, _ = datagen.generate(datagen.DatasetSpec(samples_per_class=8))
        path = tmp_path / "data.csv"
        datagen.save(train_b, path)
        code, out, _ = run(
            capsys, "train", "--dataset", str(path), "--neurons", "8", "--epochs", "3"
        )
        assert code == 0
        assert "final epoch=3" in out

    @pytest.mark.parametrize("samples", [1, 2])
    def test_dataset_too_small_to_split_trains_without_held_out_set(
            self, capsys, tmp_path, samples):
        """The 20% held-out split of 2 samples or fewer is empty: the run
        trains on every sample, scores no empty batch and logs test_acc nan."""
        from mpepsn import datagen

        train_b, _ = datagen.generate(datagen.DatasetSpec(samples_per_class=8))
        path, log = tmp_path / "data.csv", tmp_path / "log.csv"
        datagen.save(datagen.LabeledBatch(train_b.x[:, :samples], train_b.y[:samples]), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "train", "--dataset", str(path), "--neurons", "8",
                               "--epochs", "2", "--out", str(log))
        assert code == 0
        assert "test_acc=nan" in out
        header, *rows = log.read_text().splitlines()
        col = header.split(",").index("test_acc")
        assert [r.split(",")[col] for r in rows] == ["nan", "nan"]

    def test_non_finite_dataset_exits_2(self, capsys, tmp_path):
        from mpepsn import datagen

        train_b, _ = datagen.generate(datagen.DatasetSpec(samples_per_class=8))
        train_b.x[2, 3, 4] = np.nan
        path = tmp_path / "data.csv"
        datagen.save(train_b, path)
        code, _, err = run(capsys, "train", "--dataset", str(path), "--neurons", "8")
        assert code == 2
        assert "x has 1 non-finite" in err

    @pytest.mark.parametrize("flags, named", [
        (("--epochs", "0"), "epochs must be >= 1, got 0"),
        (("--epochs", "-1"), "epochs must be >= 1, got -1"),
        (("--neurons", "0"), "hidden_sizes must hold positive integers, got (0,)"),
    ])
    def test_empty_run_or_layer_exits_2(self, capsys, tmp_path, flags, named):
        log = tmp_path / "log.csv"
        code, out, err = run(capsys, *TRAIN_SMALL, *flags, "--out", str(log))
        assert code == 2
        assert err == f"error: {named}\n"
        assert out == "" and not log.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, capsys, tmp_path, value):
        # named before any epoch, not a "non-finite loss" divergence later
        log = tmp_path / "log.csv"
        code, out, err = run(capsys, *TRAIN_SMALL, "--alpha", value, "--out", str(log))
        assert code == 2
        assert err == f"error: alpha must be finite and > 0, got {value}\n"
        assert out == "" and not log.exists()

    def test_lif_kind(self, capsys):
        code, out, _ = run(capsys, *TRAIN_SMALL, "--neuron-kind", "lif_sequential", "--epochs", "3")
        assert code == 0
        assert "final epoch=3" in out


class TestBench:
    def test_single_point(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        matrix = tmp_path / "matrix.dat"
        code, out, _ = run(
            capsys, "bench", "--time-steps", "2", "--neurons", "16",
            "--out", str(out_path), "--matrix-out", str(matrix),
        )
        assert code == 0
        csv = out_path.read_text().splitlines()
        assert csv[0] == "T,N,B,workers,reps,seq_median_ns,par_median_ns,ratio"
        assert len(csv) == 2
        rows = matrix.read_text().splitlines()
        assert rows[0].startswith("# ratio matrix")
        assert len(rows) == 2
        assert "trend" in out

    def test_workers_list_suffixes_files(self, capsys, tmp_path):
        out_path, json_path = tmp_path / "bench.csv", tmp_path / "bench.json"
        code, _, _ = run(
            capsys, "bench", "--time-steps", "2", "--neurons", "16",
            "--workers", "1,2", "--out", str(out_path), "--json", str(json_path),
        )
        assert code == 0
        for suffix in ("_w1", "_w2"):
            assert (tmp_path / f"bench{suffix}.csv").exists()
            assert (tmp_path / f"bench{suffix}.json").exists()
        assert not out_path.exists() and not json_path.exists()

    def test_json_holds_the_records_and_the_environment(self, capsys, tmp_path):
        json_path, csv_path = tmp_path / "bench.json", tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--time-steps", "2,3", "--neurons", "16", "--workers", "2",
            "--json", str(json_path), "--out", str(csv_path),
        )
        assert code == 0
        doc = json.loads(json_path.read_text())
        env = doc["environment"]
        assert env["workers"] == 2 and env["nproc"] == numerics._usable_cores()
        assert env["numpy"] == np.__version__
        assert {"python", "blas", "blas_version", "blas_config"} <= set(env)
        # the CSV's records, field for field, with each ratio
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        assert [[str(r[k]) if k != "ratio" else format(r[k], ".17g") for k in rows[0]]
                for r in doc["records"]] == rows[1:]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_outputs_follow_umask(capsys, tmp_path, umask_022):
    log, bench_csv = tmp_path / "log.csv", tmp_path / "bench.csv"
    assert run(capsys, *TRAIN_SMALL, "--out", str(log))[0] == 0
    assert run(capsys, "bench", "--time-steps", "2", "--neurons", "16",
               "--out", str(bench_csv))[0] == 0
    for path in (log, bench_csv):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


class TestEstimate:
    def test_zero_input_reports_half_probability(self, capsys, tmp_path):
        path = tmp_path / "in.csv"
        save_tensor(np.zeros((3, 1, 4)), path)
        out_csv = tmp_path / "est.csv"
        code, out, _ = run(
            capsys, "estimate", "--input", str(path), "--mode", "expectation",
            "--out", str(out_csv),
        )
        assert code == 0
        assert "P: min=0.500000 mean=0.500000 max=0.500000" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,l2_norm"
        assert len(lines) == 4

    def test_random_spec_runs(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--time-steps", "4", "--neurons", "8", "--batch", "2"
        )
        assert code == 0
        assert "sampled spike fraction" in out

    @pytest.mark.parametrize("flag", ["--time-steps", "--batch", "--neurons"])
    def test_empty_generated_input_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "estimate", flag, "0")
        assert code == 2
        assert "expected [T, B, N] input with T, B, N >= 1, got shape" in err
        assert "input of --time-steps, --batch and --neurons" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--time-steps", "--batch", "--neurons"])
    @pytest.mark.parametrize("value", ["-1", "-7", "two"])
    def test_negative_extent_usage_error_names_the_flag(self, capsys, flag, value):
        # rejected while parsing, before numpy sees a negative dimension
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an integer >= 0, got '{value}'" in err
        assert "negative dimensions" not in err

    @pytest.mark.parametrize("command", ["estimate", "train"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_usage_error_names_the_flag(self, capsys, command, value):
        # no estimate is printed: no spike fires at a NaN or infinite threshold
        with pytest.raises(SystemExit) as exc:
            cli.main([command, f"--v-th-init={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument --v-th-init: expected a finite number, got '{value}'" in err
        assert out == ""

    def test_bad_rank_input_usage_error(self, capsys, tmp_path):
        path = tmp_path / "in.csv"
        save_tensor(np.zeros((3, 4)), path)
        code, _, err = run(capsys, "estimate", "--input", str(path))
        assert code == 2
        assert "T, B, N" in err

    def test_non_finite_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "in.csv"
        I = np.zeros((3, 1, 4))
        I[1, 0, 2] = np.nan
        save_tensor(I, path)
        code, out, err = run(capsys, "estimate", "--input", str(path))
        assert code == 2
        assert f"{path} has 1 non-finite" in err
        assert "l2_norm" not in out

    def test_missing_input_file_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error" in err
