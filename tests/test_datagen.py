import hashlib

import numpy as np
import pytest

from mpepsn.datagen import (
    DatasetSpec,
    LabeledBatch,
    generate,
    load,
    nearest_centroid_accuracy,
    save,
)


class TestSpecValidation:
    def test_defaults(self):
        s = DatasetSpec()
        assert (s.n_classes, s.time_steps, s.n_features) == (2, 8, 16)
        assert (s.samples_per_class, s.noise_std, s.pattern, s.seed) == (
            128, 0.3, "rate-coded", 42,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 1},
            {"time_steps": 1},
            {"n_features": 1},
            {"noise_std": -0.1},
            {"pattern": "burst-coded"},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DatasetSpec(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2**64), ("samples_per_class", 0), ("samples_per_class", -1),
    ])
    def test_rejects_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatasetSpec(**{field: value})


class TestGenerate:
    def test_shapes_and_split(self):
        train, test = generate(DatasetSpec())
        assert train.x.shape == (8, 205, 16) and train.y.shape == (205,)
        assert test.x.shape == (8, 51, 16) and test.y.shape == (51,)
        assert train.batch_size == 205

    def test_reproducible(self):
        a, _ = generate(DatasetSpec())
        b, _ = generate(DatasetSpec())
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        a, _ = generate(DatasetSpec())
        b, _ = generate(DatasetSpec(seed=43))
        assert not np.array_equal(a.x, b.x)

    def test_noiseless_rate_coded_templates(self):
        train, _ = generate(DatasetSpec(noise_std=0.0))
        for b in range(train.batch_size):
            k = int(train.y[b])
            sample = train.x[:, b, :]
            lo, hi = k * 8, (k + 1) * 8
            assert np.all(sample[:, lo:hi] == 1.0 + 0.25 * k)
            mask = np.ones(16, dtype=bool)
            mask[lo:hi] = False
            assert not sample[:, mask].any()

    def test_phase_coded_pulses(self):
        train, _ = generate(DatasetSpec(pattern="phase-coded", noise_std=0.0))
        for b in range(3):
            k = int(train.y[b])
            sample = train.x[:, b, :]
            pulsed = np.flatnonzero(sample[:, 0] == 1.5)
            assert np.all(pulsed % 2 == k)

    def test_labels_balanced(self):
        train, test = generate(DatasetSpec())
        counts = np.bincount(np.concatenate([train.y, test.y]))
        np.testing.assert_array_equal(counts, [128, 128])


    @pytest.mark.parametrize("spec, digest", [
        (DatasetSpec(), "b3c44892a05b6c1f4b9601a2b473fdf2b2ff1ae9cbe5c6bced8ce1bd562fc562"),
        (DatasetSpec(n_classes=3, pattern="phase-coded", seed=5),
         "bb5c760d47a90cc206718f96064ff7ec24ab1e8a2cb92ba30002934f920962f7"),
    ], ids=["rate-coded", "phase-coded"])
    def test_pinned_bytes(self, spec, digest):
        # sha256 over x then y of the train batch, then of the test batch
        h = hashlib.sha256()
        for batch in generate(spec):
            h.update(batch.x.tobytes())
            h.update(batch.y.tobytes())
        assert h.hexdigest() == digest


class TestCentroidOracle:
    def test_separable_spec_reaches_100(self):
        train, test = generate(DatasetSpec())
        assert nearest_centroid_accuracy(train, test) == 1.0

    def test_pure_noise_near_chance(self):
        spec = DatasetSpec(noise_std=5.0, samples_per_class=64, seed=7)
        train, test = generate(spec)
        acc = nearest_centroid_accuracy(train, test)
        assert acc < 0.95


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        train, _ = generate(DatasetSpec(samples_per_class=4))
        path = tmp_path / "d.csv"
        save(train, path)
        loaded = load(path)
        np.testing.assert_array_equal(loaded.x, train.x)
        np.testing.assert_array_equal(loaded.y, train.y)

    def test_header(self, tmp_path):
        batch = LabeledBatch(x=np.zeros((2, 3, 4)), y=np.array([0, 1, 1]))
        path = tmp_path / "d.csv"
        save(batch, path)
        assert path.read_text().splitlines()[0] == "# dataset K,T,N0,B: 2,2,4,3"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n")
        with pytest.raises(ValueError, match=":1"):
            load(path)

    @pytest.mark.parametrize("header", ["2,-1,1,1", "2,1,0,1", "0,1,1,1", "2,1,1"])
    def test_malformed_header_reports_line(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(f"# dataset K,T,N0,B: {header}\n0,0\n")
        with pytest.raises(ValueError, match=r"d\.csv:1: malformed dataset header"):
            load(path)

    def test_truncation_reports_line(self, tmp_path):
        batch = LabeledBatch(x=np.zeros((2, 2, 3)), y=np.array([0, 1]))
        path = tmp_path / "d.csv"
        save(batch, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match=":5"):
            load(path)

    @pytest.mark.parametrize("label", ["2", "7", "-1"])
    def test_label_outside_header_classes_reports_line(self, tmp_path, label):
        batch = LabeledBatch(x=np.zeros((2, 3, 1)), y=np.array([0, 1, 1]))
        path = tmp_path / "d.csv"
        save(batch, path)
        lines = path.read_text().splitlines()
        lines[3] = "0," + label  # sample 1 at t = 0: K = 2 in the header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"d\.csv:4: label {label} outside \[0, 2\)"):
            load(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        batch = LabeledBatch(x=np.zeros((2, 1, 3)), y=np.array([1]))
        path = tmp_path / "d.csv"
        save(batch, path)
        lines = path.read_text().splitlines()
        lines[2] = "1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3"):
            load(path)
