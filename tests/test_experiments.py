"""Harness tests: determinism, CSV schema, metric sanity, CLI plumbing."""

import tempfile

import numpy as np
import pytest
import yaml

from jbmocz import experiments
from jbmocz.cli import load_config, main
from jbmocz.experiments import (
    ExperimentConfig,
    MetricRow,
    jutted_params,
    run_ber_ofdm,
    run_ber_sequence,
    run_design_curves,
    run_experiment,
    run_loopback,
    run_papr_table,
    run_rotation_mse,
    run_stability_report,
    write_csv,
)


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="mystery")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ber_sequence", ebn0_db=())

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="papr_table", trials=0)

    def test_scheme_selection(self):
        cfg = ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=32)
        assert cfg.constellation() == jutted_params(32)
        explicit = ExperimentConfig(kind="ber_sequence", num_zeros=8,
                                    radius=1.3, asymmetry=1.2)
        assert explicit.constellation().radius == 1.3

    def test_unpinned_design_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=7).constellation()

    def test_ofdm_payload_not_whole_polar_blocks_rejected(self):
        # 500 bits used to be counted over 512 and divided by 500
        with pytest.raises(ValueError, match="payload_bits"):
            ExperimentConfig(kind="ber_ofdm", payload_bits=500)

    @pytest.mark.parametrize("kind, channel", [
        ("ber_sequence", "flat"), ("ber_sequence", "fadnig"), ("ber_ofdm", "awgn"),
        ("rotation_mse", "awgn"),
    ])
    def test_unimplemented_channel_rejected(self, kind, channel):
        # ber_sequence used to run any unknown channel name as fading
        with pytest.raises(ValueError, match="channel"):
            ExperimentConfig(kind=kind, channel=channel)

    @pytest.mark.parametrize("field, value", [
        ("num_zeros", 32), ("payload_bits", 64), ("idft_size", 128),
    ])
    def test_loopback_fixed_packet_fields_rejected(self, field, value):
        # loopback used to run its fixed K=127 packet whatever these said
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(kind="loopback", **{field: value})

    def test_design_curves_radius_rejected(self):
        # the radius used to be ignored: each asymmetry gets a radius search
        with pytest.raises(ValueError, match="radius"):
            ExperimentConfig(kind="design_curves", radius=1.3)

    def test_design_curves_scalar_asymmetry_rejected(self):
        # a scalar used to be ignored in favour of the default sweep
        with pytest.raises(ValueError, match="asymmetry"):
            ExperimentConfig(kind="design_curves", asymmetry=1.1)

    @pytest.mark.parametrize("overrides, field", [
        (dict(num_zeros=32, info_bits=16), "info_bits"),                    # uncoded: K
        (dict(num_zeros=32, coding="polar", info_bits=32), "info_bits"),    # polar: 16
        (dict(num_zeros=64, coding="polar"), "num_zeros"),
        (dict(num_zeros=32, coding="ldpc"), "coding"),
    ])
    def test_sequence_coding_mismatch_rejected(self, overrides, field):
        # these used to fail deep in encode_bits, or ran uncoded
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(kind="ber_sequence", **overrides)

    def test_ofdm_num_zeros_rejected(self):
        with pytest.raises(ValueError, match="num_zeros"):
            ExperimentConfig(kind="ber_ofdm", num_zeros=64)

    @pytest.mark.parametrize("field, value", [
        ("scheme", "huffman"), ("radius", 1.3), ("asymmetry", 1.2), ("coding", "polar"),
        ("rotation", "uniform"), ("correct", True),
    ])
    def test_ofdm_unread_fields_rejected(self, field, value):
        # ber_ofdm used to run its fixed packet whatever these said
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(kind="ber_ofdm", num_zeros=32, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("channel_taps", 3), ("pdp", "exp"), ("rotation", 0.5),
    ])
    def test_rotation_mse_unread_fields_rejected(self, field, value):
        # rotation_mse used to draw one tap and a uniform rotation regardless
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(kind="rotation_mse", num_zeros=31, **{field: value})

    def test_rotation_mse_too_few_estimator_bins_rejected(self):
        # the CLI default (64, 1024) is too coarse for K=32; the run used to
        # die inside make_template
        with pytest.raises(ValueError, match="estimator_bins"):
            load_config("rotation_mse", overrides={"num_zeros": 32})
        ExperimentConfig(kind="rotation_mse", num_zeros=31, estimator_bins=(64,))

    @pytest.mark.parametrize("schemes", [(), ("fm", "fmx")])
    def test_ofdm_schemes_rejected(self, schemes):
        # no schemes used to write a CSV with a header and no rows; an
        # unknown one failed only in the worker, after setup
        with pytest.raises(ValueError, match="ofdm_schemes"):
            ExperimentConfig(kind="ber_ofdm", num_zeros=32, ofdm_schemes=schemes)

    def test_rotation_mse_no_estimator_bins_rejected(self):
        # used to synthesize and send every trial, then return no rows
        with pytest.raises(ValueError, match="estimator_bins"):
            ExperimentConfig(kind="rotation_mse", num_zeros=31, estimator_bins=())

    def test_matching_info_bits_accepted(self):
        ExperimentConfig(kind="ber_sequence", num_zeros=16, info_bits=16)
        ExperimentConfig(kind="ber_sequence", num_zeros=32, coding="polar", info_bits=16)


class TestDeterminism:
    def test_byte_identical_csv_across_thread_counts(self, tmp_path):
        outs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            cfg = ExperimentConfig(kind="ber_sequence", scheme="huffman", num_zeros=16,
                                   channel="awgn", ebn0_db=(2.0, 6.0), trials=9000,
                                   seed=11, threads=threads)
            path = tmp_path / name
            write_csv(run_ber_sequence(cfg), path, header_note="note")
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_ofdm_csv_identical_across_thread_counts(self, tmp_path):
        outs = []
        for threads in (1, 3):
            cfg = ExperimentConfig(kind="ber_ofdm", num_zeros=32, ebn0_db=(10.0,),
                                   trials=530, payload_bits=64, seed=12, threads=threads)
            path = tmp_path / f"t{threads}.csv"
            write_csv(run_ber_ofdm(cfg), path, header_note="note")
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("block", [1, 7])
    def test_ofdm_rows_independent_of_packet_block(self, monkeypatch, block):
        # the draw loop keeps the random stream packet-ordered, so the block
        # size of the batched compute cannot change a number
        cfg = ExperimentConfig(kind="ber_ofdm", num_zeros=32, ebn0_db=(8.0,), trials=45,
                               payload_bits=48, seed=4)
        expected = run_ber_ofdm(cfg)
        monkeypatch.setattr(experiments, "OFDM_BLOCK_PACKETS", block)
        assert run_ber_ofdm(cfg) == expected

    def test_repeat_run_identical(self):
        cfg = ExperimentConfig(kind="rotation_mse", scheme="jutted", num_zeros=31,
                               ebn0_db=(4.0,), trials=500, seed=7,
                               estimator_bins=(64,))
        a = run_rotation_mse(cfg)
        b = run_rotation_mse(cfg)
        assert a == b


# ber_ofdm rows recorded with the packet-at-a-time receiver the batched
# one replaced (per channel: seed 2026, 600 packets, 128 payload bits, all
# three schemes, random step-back)
GOLDEN_OFDM = {
    ("fading", 12.0): """\
experiment,param_name,param_value,metric,value,trials,seed
ber-ofdm-fm,ebn0_db,12,ber,0.1363932292,600,2026
ber-ofdm-fm,ebn0_db,12,bler,0.293125,600,2026
ber-ofdm-fm_chest,ebn0_db,12,ber,0.15125,600,2026
ber-ofdm-fm_chest,ebn0_db,12,bler,0.3270833333,600,2026
ber-ofdm-tm,ebn0_db,12,ber,0.0605859375,600,2026
ber-ofdm-tm,ebn0_db,12,bler,0.1352083333,600,2026
""",
    ("flat", 6.0): """\
experiment,param_name,param_value,metric,value,trials,seed
ber-ofdm-fm,ebn0_db,6,ber,0.06731770833,600,2026
ber-ofdm-fm,ebn0_db,6,bler,0.1677083333,600,2026
ber-ofdm-fm_chest,ebn0_db,6,ber,0.2865364583,600,2026
ber-ofdm-fm_chest,ebn0_db,6,bler,0.6783333333,600,2026
ber-ofdm-tm,ebn0_db,6,ber,0.03180989583,600,2026
ber-ofdm-tm,ebn0_db,6,bler,0.07895833333,600,2026
""",
}


@pytest.mark.parametrize("channel, ebn0", list(GOLDEN_OFDM))
def test_ofdm_golden_csv(tmp_path, channel, ebn0):
    # 600 packets: chunks of 256, 256 and 88, so the last block is partial
    cfg = ExperimentConfig(kind="ber_ofdm", num_zeros=32, channel=channel, ebn0_db=(ebn0,),
                           trials=600, seed=2026, payload_bits=128)
    path = tmp_path / "golden.csv"
    write_csv(run_ber_ofdm(cfg), path)
    assert path.read_text() == GOLDEN_OFDM[(channel, ebn0)]


class TestBerSequenceRows:
    def test_noiseless_is_error_free(self):
        cfg = ExperimentConfig(kind="ber_sequence", scheme="huffman", num_zeros=16,
                               channel="awgn", ebn0_db=(200.0,), trials=200, seed=0)
        rows = run_ber_sequence(cfg)
        assert all(r.value == 0.0 for r in rows)

    def test_monotone_in_ebn0(self):
        # >= 1e5 bits per point; allow a single inversion
        cfg = ExperimentConfig(kind="ber_sequence", scheme="huffman", num_zeros=32,
                               channel="awgn", ebn0_db=(0.0, 3.0, 6.0, 9.0),
                               trials=4000, seed=1)
        bers = [r.value for r in run_ber_sequence(cfg) if r.metric == "ber"]
        inversions = sum(a < b for a, b in zip(bers, bers[1:]))
        assert inversions <= 1

    def test_values_in_range(self):
        cfg = ExperimentConfig(kind="ber_sequence", scheme="jutted", num_zeros=32,
                               coding="polar", channel="fading", channel_taps=3,
                               rotation="uniform", correct=True,
                               ebn0_db=(5.0,), trials=300, seed=2)
        for row in run_ber_sequence(cfg):
            assert np.isfinite(row.value) and 0.0 <= row.value <= 1.0


class TestOtherRunners:
    @pytest.mark.slow
    def test_design_curves_rows(self):
        cfg = ExperimentConfig(kind="design_curves", num_zeros=8,
                               asymmetry=(1.0, 1.15), seed=0)
        rows = run_design_curves(cfg)
        by = {(r.param_value, r.metric): r.value for r in rows}
        # asymmetry 1.0 anchors the relative stability scale
        assert by[(1.0, "c_min")] / by[(1.0, "c_min")] == 1.0
        assert by[(1.15, "c_min")] <= by[(1.0, "c_min")]
        assert by[(1.15, "papr_db")] >= by[(1.0, "papr_db")]
        assert by[(1.0, "r_star")] > 1.0

    def test_papr_table(self):
        rows = run_papr_table(ExperimentConfig(kind="papr_table"))
        values = {r.experiment: r.value for r in rows}
        assert values["papr-jutted-numeric"] == pytest.approx(7.27, abs=0.1)
        assert all(np.isfinite(v) for v in values.values())

    def test_stability_report(self):
        cfg = ExperimentConfig(kind="stability_report", num_zeros=8,
                               radius=1.176, asymmetry=1.0)
        rows = run_stability_report(cfg)
        by = {r.metric: r.value for r in rows}
        assert by["c_bar"] == pytest.approx(1.149, abs=0.005)
        assert by["c_min"] == pytest.approx(1.048, abs=0.005)

    def test_ofdm_runner_emits_all_schemes(self):
        cfg = ExperimentConfig(kind="ber_ofdm", num_zeros=32, ebn0_db=(12.0,),
                               trials=40, seed=3)
        rows = run_ber_ofdm(cfg)
        names = {r.experiment for r in rows}
        assert names == {"ber-ofdm-fm", "ber-ofdm-fm_chest", "ber-ofdm-tm"}
        assert all(0.0 <= r.value <= 1.0 for r in rows)

    def test_loopback_noiseless(self, tmp_path):
        cfg = ExperimentConfig(kind="loopback", seed=5)
        report = run_loopback(cfg, iq_path=str(tmp_path / "pkt.iq"))
        assert report.header_errors == 0
        assert report.payload_errors == 0
        assert (tmp_path / "pkt.iq").exists()

    def test_loopback_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_loopback(ExperimentConfig(kind="loopback", seed=5))
        assert report.payload_errors == 0
        assert list(tmp_path.iterdir()) == []

    def test_dispatch(self):
        rows = run_experiment(ExperimentConfig(kind="papr_table"))
        assert all(isinstance(r, MetricRow) for r in rows)


class TestCsv:
    def test_schema_and_notes(self, tmp_path):
        rows = [MetricRow("exp", "ebn0_db", 4.0, "ber", 0.125, 100, 7)]
        path = tmp_path / "out.csv"
        write_csv(rows, path, header_note="energy convention")
        lines = path.read_text().splitlines()
        assert lines[0] == "# energy convention"
        assert lines[1] == "experiment,param_name,param_value,metric,value,trials,seed"
        assert lines[2] == "exp,ebn0_db,4,ber,0.125,100,7"


class TestCli:
    def test_papr_table_command(self, tmp_path):
        out = tmp_path / "papr.csv"
        assert main(["papr-table", "--out", str(out)]) == 0
        assert out.exists()
        body = out.read_text()
        assert "papr-jutted-numeric" in body

    def test_config_file_and_overrides(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump({
            "scheme": "huffman", "num_zeros": 16, "channel": "awgn",
            "ebn0_db": [3.0], "trials": 400,
        }))
        out = tmp_path / "seq.csv"
        assert main(["ber-seq", "--config", str(config), "--seed", "9",
                     "--out", str(out)]) == 0
        content = out.read_text()
        assert ",9" in content and "ber-seq-huffman" in content

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("warp_factor: 9\n")
        with pytest.raises(ValueError):
            load_config("papr_table", str(config))

    def test_stability_command(self, tmp_path):
        out = tmp_path / "stab.csv"
        assert main(["stability", "--out", str(out)]) == 0
        assert "c_bar" in out.read_text()
