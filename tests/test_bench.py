import numpy as np
import pytest

from mpepsn import bench, neuron
from mpepsn.bench import BenchRecord, measure_point, sweep, time_forward, trend_summary
from mpepsn.numerics import Rng


class TestRecord:
    def test_ratio(self):
        rec = BenchRecord(T=8, N=64, B=1, workers=1, reps=5, seq_median_ns=200, par_median_ns=100)
        assert rec.ratio == 2.0

    def test_csv_row_matches_header(self):
        rec = BenchRecord(T=8, N=64, B=1, workers=2, reps=5, seq_median_ns=200, par_median_ns=100)
        assert len(rec.csv_row().split(",")) == len(BenchRecord.CSV_HEADER.split(","))
        assert rec.csv_row().startswith("8,64,1,2,5,200,100,")


class TestTimeForward:
    def test_rep_count_and_positive(self):
        times = time_forward("sequential", T=4, B=1, N=32, reps=5)
        assert len(times) == 5
        assert all(t > 0 for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            time_forward("vectorized", 4, 1, 32)
        with pytest.raises(ValueError):
            time_forward("sequential", 4, 1, 32, reps=3)
        with pytest.raises(ValueError):
            time_forward("sequential", 0, 1, 32)

    def test_both_kinds_consume_identical_input(self):
        # the harness feeds one seeded tensor to both kinds; at T=1 the two
        # forwards must then produce bit-identical membrane traces
        I = Rng(0, stream=7).uniform_tensor((1, 1, 256), -2.0, 2.0)
        u_seq, o_seq = neuron.lif_sequential(I, neuron.NeuronParams())
        tr = neuron.mpe_psn_forward(I, neuron.NeuronParams(), "sampled", Rng(0, stream=11))
        np.testing.assert_array_equal(tr.u, u_seq)
        np.testing.assert_array_equal(tr.o, o_seq)


class TestSweep:
    def test_single_point_grid(self):
        lines = []
        records = sweep([2], [16], reps=5, log=lines.append)
        assert len(records) == 1
        assert records[0].ratio > 0.0
        content = bench.csv_text(records).splitlines()
        assert content[0] == BenchRecord.CSV_HEADER
        assert len(content) == 2
        assert any("trend" in line for line in lines)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [16])

    def test_measure_point_fields(self):
        rec = measure_point(T=2, N=16, B=1, workers=1, reps=5, seed=0)
        assert (rec.T, rec.N, rec.B, rec.workers, rec.reps) == (2, 16, 1, 1, 5)
        assert rec.seq_median_ns > 0 and rec.par_median_ns > 0


class TestTrendSummary:
    def rec(self, T, N, seq, par):
        return BenchRecord(T=T, N=N, B=1, workers=4, reps=5, seq_median_ns=seq, par_median_ns=par)

    def test_growth_reported_ok(self):
        lines = trend_summary([self.rec(8, 10, 100, 100), self.rec(8, 1000, 300, 100)])
        assert any("ok" in line and "NOT" not in line for line in lines)

    def test_shrink_flagged(self):
        lines = trend_summary([self.rec(8, 10, 300, 100), self.rec(8, 1000, 100, 100)])
        assert any("NOT increasing" in line for line in lines)

    def test_uses_largest_t(self):
        records = [self.rec(2, 10, 500, 100), self.rec(8, 10, 100, 100), self.rec(8, 1000, 200, 100)]
        lines = trend_summary(records)
        assert "T=8" in lines[0]

    def test_empty(self):
        assert trend_summary([]) == ["# no records"]
