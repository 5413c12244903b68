"""Harness tests: determinism, CSV schema, metric sanity, CLI plumbing."""

import dataclasses
import hashlib
import mmap
import os
import platform
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from jbmocz import experiments
from jbmocz.channel import ImpairmentSpec, apply_ofdm_channel, complex_noise, draw_cir
from jbmocz.cli import COMMANDS, ENERGY_NOTE, load_config, main
from jbmocz.experiments import (
    EXPERIMENTS,
    BerOfdmConfig,
    BerSequenceConfig,
    DesignCurvesConfig,
    LoopbackConfig,
    PaprTableConfig,
    RotationMseConfig,
    StabilityReportConfig,
    MetricRow,
    jutted_params,
    loopback_rows,
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
from jbmocz.phy import OfdmConfig, estimate_noise_var, ofdm_demodulate, ofdm_modulate, read_iq
from jbmocz.rotation import apply_rotation
from jbmocz.stability import MIN_SAMPLE_COUNT, codebook_stabilities
from jbmocz.zeros import ConstellationParams, encode_coeffs


def wrong_values(rule):
    """Values of the wrong type for a key's rule: a bool for a numeric kind
    (and a string for a finite number), 2 for a bool, 1 for a path; an
    empty list, or a list of one wrong value, where a list is due."""
    wrong = {"int": [True], "number": [True, "1.5"], "level": [True], "bool": [2],
             "path": [1], None: [True]}[rule.kind]
    return [[], wrong[:1]] if rule.many else wrong


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="mystery"):
            load_config("mystery")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="ebn0_db"):
            BerSequenceConfig(ebn0_db=())

    def test_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            BerSequenceConfig(trials=0)

    def test_scheme_selection(self):
        cfg = BerSequenceConfig(scheme="jutted", num_zeros=32)
        assert cfg.constellation() == jutted_params(32)
        explicit = BerSequenceConfig(num_zeros=8, radius=1.3, asymmetry=1.2)
        assert explicit.constellation().radius == 1.3

    def test_unpinned_design_rejected(self):
        # rejected when the config is built, not when the run starts
        with pytest.raises(ValueError):
            BerSequenceConfig(scheme="jutted", num_zeros=7)

    def test_ofdm_payload_not_whole_polar_blocks_rejected(self):
        # 500 bits used to be counted over 512 and divided by 500
        with pytest.raises(ValueError, match="payload_bits"):
            BerOfdmConfig(payload_bits=500)

    @pytest.mark.parametrize("kind, channel", [
        ("ber_sequence", "flat"), ("ber_sequence", "fadnig"), ("ber_ofdm", "awgn"),
        ("rotation_mse", "awgn"),
    ])
    def test_unimplemented_channel_rejected(self, kind, channel):
        # ber_sequence used to run any unknown channel name as fading;
        # rotation_mse has no channel key
        with pytest.raises(ValueError, match="channel"):
            load_config(kind, overrides={"channel": channel})

    @pytest.mark.parametrize("field, value", [
        ("num_zeros", 32), ("payload_bits", 64), ("idft_size", 128),
    ])
    def test_loopback_fixed_packet_fields_rejected(self, field, value):
        # loopback used to run its fixed K=127 packet whatever these said
        with pytest.raises(ValueError, match=field):
            load_config("loopback", overrides={field: value})

    def test_design_curves_radius_rejected(self):
        # the radius used to be ignored: each asymmetry gets a radius search
        with pytest.raises(ValueError, match="radius"):
            load_config("design_curves", overrides={"radius": 1.3})

    def test_design_curves_scalar_asymmetry_rejected(self):
        # a scalar used to be ignored in favour of the default sweep
        with pytest.raises(ValueError, match="asymmetry"):
            DesignCurvesConfig(asymmetry=1.1)
        with pytest.raises(ValueError, match="asymmetry"):
            DesignCurvesConfig(asymmetry=())

    @pytest.mark.parametrize("asymmetry", [("a",), (0.5,), (1.1, float("nan")),
                                           (float("inf"),), (True,), (1.0, 1.15, 1.0)])
    def test_design_curves_asymmetry_values_rejected(self, asymmetry):
        # each built, then failed mid-run (True ran as zeta=1), except the
        # repeat, which ran its radius search twice
        with pytest.raises(ValueError, match="asymmetry="):
            DesignCurvesConfig(asymmetry=asymmetry)

    @pytest.mark.parametrize("num_zeros", [8, 31])
    def test_design_curves_short_codewords_rejected(self, num_zeros):
        # the search used to report the grid's first radius for every zeta
        with pytest.raises(ValueError, match="num_zeros"):
            load_config("design_curves", overrides={"num_zeros": num_zeros})

    def test_design_curves_synthesis_limit_rejected(self):
        # K=48 used to build and stop mid-search, at the grid's last radii,
        # with an ArithmeticError naming no key
        with pytest.raises(ValueError, match=r"num_zeros=48, asymmetry=1\.0: .* R\^K"):
            DesignCurvesConfig(num_zeros=48, asymmetry=(1.0,))

    def test_design_curves_below_the_synthesis_limit_builds(self):
        DesignCurvesConfig(num_zeros=47, asymmetry=(1.0,))

    def test_stability_synthesis_limit_rejected(self):
        # the report used to stop with an ArithmeticError naming no key
        with pytest.raises(ValueError, match=r"num_zeros=128, radius=1\.157: R\^K"):
            StabilityReportConfig(scheme="huffman", num_zeros=128, radius=1.157)

    def test_stability_below_the_synthesis_limit_runs(self):
        rows = run_stability_report(
            StabilityReportConfig(scheme="huffman", num_zeros=128, radius=1.156))
        assert [(r.metric, r.trials) for r in rows] == [("c_bar", 256), ("c_min", 66)]

    @pytest.mark.parametrize("overrides, field", [
        (dict(num_zeros=32, info_bits=16), "info_bits"),    # derived: no key
        (dict(num_zeros=32, coding="polar", info_bits=32), "info_bits"),
        (dict(num_zeros=64, coding="polar"), "num_zeros"),
        (dict(num_zeros=32, coding="ldpc"), "coding"),
    ])
    def test_sequence_coding_mismatch_rejected(self, overrides, field):
        # these used to fail deep in encode_bits, or ran uncoded
        with pytest.raises(ValueError, match=field):
            load_config("ber_sequence", overrides=overrides)

    def test_ofdm_num_zeros_rejected(self):
        with pytest.raises(ValueError, match="num_zeros"):
            BerOfdmConfig(num_zeros=64)

    @pytest.mark.parametrize("field, value", [
        ("scheme", "huffman"), ("radius", 1.3), ("asymmetry", 1.2), ("coding", "polar"),
        ("rotation", "uniform"), ("correct", True),
    ])
    def test_ofdm_unread_fields_rejected(self, field, value):
        # ber_ofdm used to run its fixed packet whatever these said
        with pytest.raises(ValueError, match=field):
            load_config("ber_ofdm", overrides={"num_zeros": 32, field: value})

    @pytest.mark.parametrize("field, value", [
        ("channel_taps", 3), ("pdp", "exp"), ("rotation", 0.5), ("coding", "polar"),
        ("info_bits", 31), ("correct", True), ("idft_size", 128), ("payload_bits", 64),
        ("ofdm_schemes", ("fm",)), ("step_back", 2), ("loopback_snr_db", 10.0),
    ])
    def test_rotation_mse_unread_fields_rejected(self, field, value):
        # rotation_mse used to run uncoded codewords through one tap and a
        # uniform rotation, with every estimator size, regardless
        with pytest.raises(ValueError, match=field):
            load_config("rotation_mse", overrides={"num_zeros": 31, field: value})

    @pytest.mark.parametrize("field, value", [
        ("idft_size", 3), ("payload_bits", 7), ("estimator_bins", (8,)), ("cp_len", 4),
        ("sample_rate", 1e6), ("tm_preamble_zeros", 2), ("step_back", 3),
        ("loopback_snr_db", 10.0), ("loopback_step_back", 2), ("pdp", "exp"),
    ])
    def test_sequence_unread_fields_rejected(self, field, value):
        # ber_sequence used to run its codeword link, with equal-power taps
        # and a 1024-bin template, whatever these said
        with pytest.raises(ValueError, match=field):
            load_config("ber_sequence", overrides={"num_zeros": 32, field: value})

    def test_sequence_correct_without_rotation_rejected(self):
        # used to build a template and never apply it
        with pytest.raises(ValueError, match="correct"):
            BerSequenceConfig(num_zeros=32, correct=True)
        BerSequenceConfig(num_zeros=32, rotation=0.3, correct=True)

    # the corrected receiver's template has 1024 bins, and needs 2K+2 of them
    CORRECTED = dict(scheme="huffman", channel="awgn", rotation="uniform", correct=True,
                     ebn0_db=(8.0,), trials=4)

    def test_sequence_correct_template_too_narrow_rejected(self):
        # K=512 used to build and fail in make_template, naming no key
        with pytest.raises(ValueError, match="num_zeros=512: correct=True"):
            BerSequenceConfig(num_zeros=512, **self.CORRECTED)
        BerSequenceConfig(num_zeros=512, **(self.CORRECTED | dict(correct=False)))

    def test_sequence_correct_template_as_wide_as_allowed_runs(self):
        rows = run_ber_sequence(BerSequenceConfig(num_zeros=511, **self.CORRECTED))
        assert [r.metric for r in rows] == ["ber", "bler"]
        assert all(0.0 <= r.value <= 1.0 for r in rows)

    def test_rotation_mse_too_few_estimator_bins_rejected(self):
        # the CLI default (64, 1024) is too coarse for K=32; the run used to
        # die inside make_template
        with pytest.raises(ValueError, match="estimator_bins"):
            load_config("rotation_mse", overrides={"num_zeros": 32})
        RotationMseConfig(num_zeros=31, estimator_bins=(64,))

    @pytest.mark.parametrize("schemes", [(), ("fm", "fmx"), ("fm", "fm"), ("tm", "fm", "tm")])
    def test_ofdm_schemes_rejected(self, schemes):
        # no schemes used to write a CSV with a header and no rows; an
        # unknown one failed only in the worker, after setup; a repeated
        # one ran its receiver twice and wrote its rows twice
        with pytest.raises(ValueError, match="ofdm_schemes"):
            BerOfdmConfig(num_zeros=32, ofdm_schemes=schemes)

    def test_rotation_mse_no_estimator_bins_rejected(self):
        # used to synthesize and send every trial, then return no rows
        with pytest.raises(ValueError, match="estimator_bins"):
            RotationMseConfig(num_zeros=31, estimator_bins=())

    @pytest.mark.parametrize("kind, field, value", [
        ("papr_table", "num_zeros", 5), ("papr_table", "radius", 9.0),
        ("papr_table", "asymmetry", 1.1), ("papr_table", "scheme", "huffman"),
        ("design_curves", "threads", 2), ("design_curves", "trials", 5),
        ("design_curves", "ebn0_db", (3.0,)), ("stability_report", "channel", "bogus"),
    ])
    def test_unread_fields_rejected(self, kind, field, value):
        # papr_table used to run its fixed table, design_curves its serial
        # search and stability_report its noiseless score whatever these said
        with pytest.raises(ValueError, match=field):
            load_config(kind, overrides={field: value})

    @pytest.mark.parametrize("config_class, settings", [
        # used to run zeta=1.0, and the pinned zeta=1.15, with no error
        (BerSequenceConfig, dict(scheme="huffman", num_zeros=32, asymmetry=1.3)),
        (BerSequenceConfig, dict(scheme="jutted", num_zeros=32, asymmetry=1.0)),
        (RotationMseConfig, dict(asymmetry=1.2)),
        (StabilityReportConfig, dict(radius=None, asymmetry=1.3)),
    ])
    def test_asymmetry_without_radius_rejected(self, config_class, settings):
        with pytest.raises(ValueError, match="asymmetry"):
            config_class(**settings)

    @pytest.mark.parametrize("config_class, asymmetry", [
        # used to run zeta=1 under the jutted row name
        (BerSequenceConfig, None), (BerSequenceConfig, 1.0), (RotationMseConfig, None),
        (StabilityReportConfig, 1.0),
    ])
    def test_symmetric_jutted_rejected(self, config_class, asymmetry):
        with pytest.raises(ValueError, match="asymmetry"):
            config_class(scheme="jutted", num_zeros=8, radius=1.2, asymmetry=asymmetry)
        config_class(scheme="jutted", num_zeros=8, radius=1.2, asymmetry=1.1)

    def test_huffman_asymmetry_rejected(self):
        # used to run a jutted constellation under the row name ber-seq-huffman
        with pytest.raises(ValueError, match="asymmetry"):
            BerSequenceConfig(scheme="huffman", num_zeros=8, radius=1.2, asymmetry=1.3)
        BerSequenceConfig(scheme="huffman", num_zeros=8, radius=1.2, asymmetry=1.0)

    def test_awgn_channel_taps_rejected(self):
        # an awgn run never reads channel_taps
        with pytest.raises(ValueError, match="channel_taps"):
            BerSequenceConfig(channel="awgn", channel_taps=3)
        BerSequenceConfig(channel="awgn", channel_taps=5)

    @pytest.mark.parametrize("rotation", ["bogus", "sideways", True, float("nan"),
                                          float("inf")])
    def test_bad_rotation_rejected(self, rotation):
        # "bogus" used to fail in a worker thread mid-run, True ran as a
        # 1-rad rotation, and NaN ran at a BER of 0.51 at 30 dB on AWGN
        with pytest.raises(ValueError, match="rotation"):
            BerSequenceConfig(num_zeros=32, rotation=rotation)
        for good in (None, "uniform", 0.5, 1):
            BerSequenceConfig(num_zeros=32, rotation=good)

    @pytest.mark.parametrize("config_class, field, value", [
        # each used to build and then fail mid-run
        (BerOfdmConfig, "pdp", "rayleigh"),
        (BerOfdmConfig, "step_back", "bogus"),
        (BerOfdmConfig, "channel_taps", 0),
        (BerSequenceConfig, "channel_taps", 0),
        (BerOfdmConfig, "idft_size", 16),
        (BerOfdmConfig, "cp_len", -1),      # ran on a negative noise variance
        (LoopbackConfig, "loopback_step_back", -1),
        (LoopbackConfig, "loopback_step_back", 9),
        (LoopbackConfig, "loopback_step_back", 2.5),
    ])
    def test_channel_and_ofdm_fields_checked_at_build(self, config_class, field, value):
        with pytest.raises(ValueError, match=field):
            config_class(**{field: value})

    @pytest.mark.parametrize("settings, field", [
        # 0 failed mid-run with ZeroDivisionError and 1 in ConstellationParams,
        # even on a tm-only run
        (dict(tm_preamble_zeros=0, ofdm_schemes=("tm",)), "tm_preamble_zeros"),
        (dict(tm_preamble_zeros=1), "tm_preamble_zeros"),
        # the grid-level link is exact only inside the cyclic prefix; these ran
        (dict(step_back=-1), "step_back"),
        (dict(step_back=9), "step_back"),
        (dict(step_back=5, cp_len=4), "step_back"),
        (dict(cp_len=4), "step_back"),                  # random draws up to 5
        (dict(channel_taps=10), "channel_taps"),
        (dict(channel_taps=6, cp_len=4, step_back=0), "channel_taps"),
        # accepted while step-back and span were bounded each on its own
        (dict(tm_preamble_zeros=2, step_back=8), "cp_len"),
        (dict(cp_len=5, channel_taps=6), "cp_len"),
        # a flat channel ran its one unit tap whatever these said
        (dict(channel="flat", channel_taps=10), "channel_taps"),
        (dict(channel="flat", channel_taps=1), "channel_taps"),
        (dict(channel="flat", pdp="exp"), "pdp"),
    ])
    def test_ofdm_link_outside_prefix_rejected(self, settings, field):
        with pytest.raises(ValueError, match=field):
            BerOfdmConfig(**settings)

    def test_ofdm_tm_grid_wider_than_the_idft_rejected(self):
        # tm puts a payload codeword on each subcarrier; 257 of them on a
        # 256-point IDFT used to build and then fail in _grid_link's broadcast
        with pytest.raises(ValueError, match=r"payload_bits=4112\b.*idft_size=256\b"):
            BerOfdmConfig(payload_bits=16 * 257)

    def test_ofdm_tm_grid_as_wide_as_the_idft_accepted(self):
        cfg = BerOfdmConfig(payload_bits=16 * 256, ofdm_schemes=("tm",), trials=1, ebn0_db=(20.0,))
        assert [row.experiment for row in run_ber_ofdm(cfg)] == ["ber-ofdm-tm"] * 2
        # fm and fm_chest send the payload on K+1 subcarriers
        BerOfdmConfig(payload_bits=16 * 257, ofdm_schemes=("fm", "fm_chest"))

    def test_ofdm_link_inside_prefix_accepted(self):
        BerOfdmConfig(step_back=5)
        BerOfdmConfig(cp_len=10, channel_taps=6)
        BerOfdmConfig(cp_len=0, step_back=0, channel_taps=1)
        BerOfdmConfig(channel="flat")  # a flat channel has no span

    @pytest.mark.parametrize("channel", ["fading", "flat"])
    @pytest.mark.parametrize("cp_len", range(11))
    def test_ofdm_prefix_rule(self, cp_len, channel):
        # a config builds exactly when the deepest step-back plus the span
        # stays inside the prefix, where TestGridLink finds the link exact
        # a flat channel takes only the default taps
        tap_counts = range(1, cp_len + 3) if channel == "fading" else [BerOfdmConfig.channel_taps]
        for taps in tap_counts:
            span = taps - 1 if channel == "fading" else 0
            for step_back in ["random", *range(cp_len + 2)]:
                deepest = experiments.OFDM_RANDOM_STEP_BACK if step_back == "random" else step_back
                settings = dict(cp_len=cp_len, channel=channel, channel_taps=taps,
                                step_back=step_back)
                if deepest + span <= cp_len:
                    BerOfdmConfig(**settings)
                else:
                    with pytest.raises(ValueError, match="step_back.*channel_taps.*cp_len"):
                        BerOfdmConfig(**settings)

    @pytest.mark.parametrize("config_class", [BerSequenceConfig, BerOfdmConfig,
                                              RotationMseConfig])
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_nan_and_minus_inf_ebn0_rejected(self, config_class, bad):
        # NaN ran on NaN noise; -inf divided by zero in ber_sequence and ran
        # noiseless in rotation_mse
        with pytest.raises(ValueError, match="ebn0_db"):
            config_class(ebn0_db=(10.0, bad))
        config_class(ebn0_db=(10.0, float("inf")))

    @pytest.mark.parametrize("kind", ["ber_sequence", "ber_ofdm", "rotation_mse"])
    @pytest.mark.parametrize("field, value", [
        ("ebn0_db", 10),          # a YAML scalar: TypeError 'int' object is not iterable
        ("ebn0_db", ["a"]),       # TypeError from np.isnan
        ("ebn0_db", [8.0, True]),
        ("ebn0_db", [8.0, 4.0, 8]),  # ran, giving two rows of one Eb/N0
        ("trials", 2.5),          # built, then failed mid-run
        ("trials", True),
        ("threads", 0),           # built, then ran serially without a word
        ("threads", -1),
        ("threads", 2.0),
        ("threads", True),
    ])
    def test_sweep_key_types_checked_at_build(self, kind, field, value):
        with pytest.raises(ValueError, match=field):
            load_config(kind, overrides={field: value})

    @pytest.mark.parametrize("kind", ["ber_sequence", "ber_ofdm"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_channel_taps_type_checked_at_build(self, kind, value):
        # 2.5 built, then failed mid-run
        with pytest.raises(ValueError, match="channel_taps"):
            load_config(kind, overrides={"channel_taps": value})

    @pytest.mark.parametrize("kind", list(EXPERIMENTS))
    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_seed_type_checked_at_build(self, kind, seed):
        # 1.5 and -1 built, then failed mid-run in SeedSequence; True ran
        with pytest.raises(ValueError, match="seed"):
            load_config(kind, overrides={"seed": seed})

    @pytest.mark.parametrize("kind, field, value", [
        # each built, then failed mid-run, unless noted
        ("ber_sequence", "num_zeros", 64.0),
        ("design_curves", "num_zeros", 8.5),
        ("stability_report", "num_zeros", 8.5),
        ("ber_ofdm", "cp_len", 8.5),                    # ran without a word
        ("ber_ofdm", "idft_size", 256.0),
        ("ber_ofdm", "payload_bits", 64.0),
        ("ber_ofdm", "tm_preamble_zeros", 4.5),
        ("rotation_mse", "estimator_bins", 64),         # a bare TypeError
        ("rotation_mse", "estimator_bins", (100.5,)),   # ran as rotation-mse-n101
        ("rotation_mse", "estimator_bins", (64, 64)),   # ran, two rotation-mse-n64 rows
        ("loopback", "loopback_snr_db", "a"),
        ("ber_sequence", "correct", "false"),           # ran the corrected receiver
        ("ber_sequence", "correct", 2),
        ("papr_table", "out", 1),                       # wrote the CSV to fd 1
        ("loopback", "out", 1),
    ])
    def test_key_types_checked_at_build(self, kind, field, value):
        # a correction needs a rotation, so set one: the key's own rule must reject it
        rotation = {"rotation": "uniform"} if field == "correct" else {}
        with pytest.raises(ValueError, match=field):
            load_config(kind, overrides={field: value, **rotation})

    @pytest.mark.parametrize("config_class, settings, field", [
        # a string raised a bare TypeError; True and inf built and ran, and
        # NaN failed in ConstellationParams without naming the key
        (BerSequenceConfig, dict(radius="1.2"), "radius"),
        (StabilityReportConfig, dict(radius="1.2"), "radius"),
        (StabilityReportConfig, dict(radius=True), "radius"),
        (StabilityReportConfig, dict(radius=float("inf")), "radius"),
        (StabilityReportConfig, dict(radius=float("nan")), "radius"),
        (StabilityReportConfig, dict(scheme="jutted", asymmetry="1.1"), "asymmetry"),
        (StabilityReportConfig, dict(scheme="jutted", asymmetry=float("inf")), "asymmetry"),
        (RotationMseConfig, dict(asymmetry=True), "asymmetry"),
    ])
    def test_float_keys_checked_at_build(self, config_class, settings, field):
        base = dict(scheme="huffman", num_zeros=8, radius=1.2, asymmetry=1.0)
        with pytest.raises(ValueError, match=f"{field}="):
            config_class(**base | settings)

    @pytest.mark.parametrize("kind", list(EXPERIMENTS))
    def test_every_key_has_a_rule(self, kind):
        config_class = EXPERIMENTS[kind][0]
        assert not hasattr(config_class, "keys")
        assert all(isinstance(f.metadata.get("rule"), experiments._Key)
                   for f in dataclasses.fields(config_class))

    @pytest.mark.parametrize("config_class, field, value", [
        pytest.param(config_class, key.name, value, id=f"{kind}-{key.name}-{value!r}")
        for kind, (config_class, _) in EXPERIMENTS.items()
        for key in dataclasses.fields(config_class)
        for value in wrong_values(key.metadata["rule"])
    ])
    def test_rule_rejects_wrong_type(self, config_class, field, value):
        with pytest.raises(ValueError, match=f"^{field}="):
            config_class(**{field: value})

    def test_numpy_int_keys_accepted(self):
        # step_back and loopback_step_back used to reject numpy ints
        BerOfdmConfig(seed=np.int64(3), cp_len=np.int64(8), step_back=np.int64(3))
        LoopbackConfig(loopback_step_back=np.int64(6), loopback_snr_db=np.float64(10.0))
        LoopbackConfig(loopback_snr_db=float("inf"))
        RotationMseConfig(estimator_bins=(np.int64(64), 1024))

    @pytest.mark.parametrize("kind", ["ber_sequence", "ber_ofdm", "rotation_mse"])
    def test_sweep_key_types_accepted(self, kind):
        # the benchmark's warm-up passes a one-point tuple of floats; YAML
        # lists of ints and .inf load too
        load_config(kind, overrides=dict(ebn0_db=(14.0,), trials=1, threads=2))
        load_config(kind, overrides=dict(ebn0_db=[4, 8, float("inf")], trials=np.int64(3)))


class TestDeterminism:
    def test_byte_identical_csv_across_thread_counts(self, tmp_path):
        outs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            cfg = BerSequenceConfig(scheme="huffman", num_zeros=16,
                                    channel="awgn", ebn0_db=(2.0, 6.0), trials=9000,
                                    seed=11, threads=threads)
            path = tmp_path / name
            write_csv(run_ber_sequence(cfg), path, header_note="note")
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_ofdm_csv_identical_across_thread_counts(self, tmp_path):
        outs = []
        for threads in (1, 3):
            cfg = BerOfdmConfig(num_zeros=32, ebn0_db=(10.0,),
                                trials=530, payload_bits=64, seed=12, threads=threads)
            path = tmp_path / f"t{threads}.csv"
            write_csv(run_ber_ofdm(cfg), path, header_note="note")
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("channel", ["fading", "flat"])
    def test_draw_packets_one_call_per_field(self, channel):
        # a chunk's draws are one generator call per field, in a fixed
        # order: the shared fields, then a scheme's own from the state the
        # shared ones leave; both noises are drawn at unit scale, and the
        # scaled unit noise is the noise drawn at the scheme's variance
        pdp = "exp" if channel == "fading" else "uniform"  # a flat channel has no profile
        cfg = BerOfdmConfig(channel=channel, pdp=pdp, payload_bits=48, tm_preamble_zeros=3)
        count, noise_var = 5, 0.3
        rng = np.random.default_rng(9)
        shared = experiments._draw_packets(rng, count, cfg, np.empty((count, 33, 3), complex))
        after_shared = rng.bit_generator.state
        own = experiments._draw_scheme(rng, count, cfg, noise_var, with_chest=True)
        rng = np.random.default_rng(9)
        expected = {"messages": rng.integers(0, 2, (count, 3, 16), dtype=np.uint8)}
        if channel == "fading":
            expected["cirs"] = draw_cir((count, 5), rng, profile="exp")
        before_noise = {"noise": rng.bit_generator.state}
        expected["noise"] = complex_noise((count, 33, 3), 2.0, rng)
        assert rng.bit_generator.state == after_shared
        expected["pre_bits"] = rng.integers(0, 2, (count, 33, 3), dtype=np.uint8)
        before_noise["pre_noise"] = rng.bit_generator.state
        expected["pre_noise"] = complex_noise((count, 33, 4), 2.0, rng)
        # the noise estimate over the (256 - 33) x 4 guard cells: one Gamma
        # draw per packet in the slot the guard cells' normals held
        expected["noise_estimate"] = rng.gamma((256 - 33) * 4, noise_var / ((256 - 33) * 4),
                                               count)
        before_step_backs = rng.bit_generator.state
        expected["step_backs"] = rng.integers(0, experiments.OFDM_RANDOM_STEP_BACK + 1, count)
        draws = shared | own
        assert list(draws) == list(expected)
        for name, value in expected.items():
            assert draws[name].dtype == value.dtype, name
            assert draws[name].shape == value.shape, name
            assert draws[name].tobytes() == value.tobytes(), name
        for name, state in before_noise.items():
            rng.bit_generator.state = state
            at_variance = complex_noise(draws[name].shape, noise_var, rng)
            scaled = experiments._scaled(draws[name], noise_var)
            assert scaled.tobytes() == at_variance.tobytes(), name
        # a fixed step-back draws nothing: it leaves the generator where the
        # random one starts, so the other fields, and with them criterion
        # 8(c)'s TM rows, do not depend on the step-back
        rng.bit_generator.state = after_shared
        fixed = experiments._draw_scheme(rng, count, dataclasses.replace(cfg, step_back=2),
                                         noise_var, with_chest=True)
        assert rng.bit_generator.state == before_step_backs
        assert np.array_equal(fixed.pop("step_backs"), np.full(count, 2))
        for name, value in fixed.items():
            assert np.array_equal(value, expected[name]), name
        # fm and tm draw only their step-backs, first after the shared fields
        rng.bit_generator.state = after_shared
        plain = experiments._draw_scheme(rng, count, cfg, noise_var, with_chest=False)
        rng.bit_generator.state = after_shared
        assert list(plain) == ["step_backs"]
        assert np.array_equal(plain["step_backs"],
                              rng.integers(0, experiments.OFDM_RANDOM_STEP_BACK + 1, count))

    @pytest.mark.parametrize("settings", [
        dict(channel="fading", step_back="random", ebn0_db=(8.0, float("inf"))),
        dict(channel="flat", step_back=4, ebn0_db=(6.0, float("inf"))),
        dict(channel="fading", pdp="exp", channel_taps=3, step_back=2, ebn0_db=(10.0,)),
        dict(channel="flat", step_back="random", ebn0_db=(float("inf"),)),
        # one polar block per packet, the jutted codeword alone
        dict(channel="fading", step_back="random", payload_bits=16, ebn0_db=(8.0,))])
    @pytest.mark.parametrize("schemes", [experiments.OFDM_SCHEMES, ("tm", "fm_chest", "fm")])
    def test_ofdm_scheme_rows_equal_its_own_run(self, settings, schemes):
        # every scheme sees the random stream it would in a sweep of its
        # own, whichever schemes run beside it and in whatever order; 30
        # packets make a full 24-packet chunk and a partial one of 6
        cfg = BerOfdmConfig(**dict(trials=30, payload_bits=64, tm_preamble_zeros=3, seed=21,
                                   ofdm_schemes=schemes) | settings)
        together = run_ber_ofdm(cfg)
        for scheme in schemes:
            alone = run_ber_ofdm(dataclasses.replace(cfg, ofdm_schemes=(scheme,)))
            assert [row for row in together if row.experiment == f"ber-ofdm-{scheme}"] == alone
        assert len(together) == 2 * len(schemes) * len(cfg.ebn0_db)

    def test_rotation_mse_csv_identical_across_thread_counts(self, tmp_path):
        # its values are float sums over chunks; 9000 trials make chunks of
        # 4096, 4096 and 808 per point, summed in chunk order whatever the pool
        outs = []
        for threads in (1, 3):
            cfg = RotationMseConfig(num_zeros=31, ebn0_db=(4.0, 12.0), trials=9000,
                                    seed=13, threads=threads)
            path = tmp_path / f"t{threads}.csv"
            write_csv(run_rotation_mse(cfg), path, header_note="note")
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_repeat_run_identical(self):
        cfg = RotationMseConfig(scheme="jutted", num_zeros=31,
                                ebn0_db=(4.0,), trials=500, seed=7,
                                estimator_bins=(64,))
        a = run_rotation_mse(cfg)
        b = run_rotation_mse(cfg)
        assert a == b


# ber_ofdm rows, seed 2026, all three schemes, recorded with each chunk
# drawn whole (one generator call per field) and decoded once.  The first
# two run 600 packets, 128 payload bits and a random step-back: 25 full
# 24-packet chunks.  The third runs 300 packets on every knob the link
# reads: 12 full chunks and a partial one of 12.  The fm_chest rows were
# re-recorded once when its noise estimate became one Gamma draw per packet
# in place of its guard cells' normals, which moves fm_chest's stream (the
# estimate and the step-backs drawn after it) but not fm's or tm's; over
# seeds 1-16 every fm_chest mean moved by at most 0.13 combined standard
# errors, and TestNoiseEstimateLaw checks the draw's law directly.
GOLDEN_OFDM = {
    "fading-12.0": (dict(channel="fading", ebn0_db=(12.0,)), """\
experiment,param_name,param_value,metric,value,trials,seed
ber-ofdm-fm,ebn0_db,12,ber,0.1473828125,600,2026
ber-ofdm-fm,ebn0_db,12,bler,0.3222916667,600,2026
ber-ofdm-fm_chest,ebn0_db,12,ber,0.1408333333,600,2026
ber-ofdm-fm_chest,ebn0_db,12,bler,0.3172916667,600,2026
ber-ofdm-tm,ebn0_db,12,ber,0.06361979167,600,2026
ber-ofdm-tm,ebn0_db,12,bler,0.1483333333,600,2026
"""),
    "flat-6.0": (dict(channel="flat", ebn0_db=(6.0,)), """\
experiment,param_name,param_value,metric,value,trials,seed
ber-ofdm-fm,ebn0_db,6,ber,0.058359375,600,2026
ber-ofdm-fm,ebn0_db,6,bler,0.148125,600,2026
ber-ofdm-fm_chest,ebn0_db,6,ber,0.2784505208,600,2026
ber-ofdm-fm_chest,ebn0_db,6,bler,0.6627083333,600,2026
ber-ofdm-tm,ebn0_db,6,ber,0.03364583333,600,2026
ber-ofdm-tm,ebn0_db,6,bler,0.0825,600,2026
"""),
    "knobs": (dict(pdp="exp", step_back=3, cp_len=9, idft_size=128, tm_preamble_zeros=6,
                   channel_taps=3, payload_bits=96, ebn0_db=(10.0, float("inf")),
                   trials=300, threads=2), """\
experiment,param_name,param_value,metric,value,trials,seed
ber-ofdm-fm,ebn0_db,10,ber,0.194375,300,2026
ber-ofdm-fm,ebn0_db,10,bler,0.4277777778,300,2026
ber-ofdm-fm,ebn0_db,inf,ber,0.07388888889,300,2026
ber-ofdm-fm,ebn0_db,inf,bler,0.1538888889,300,2026
ber-ofdm-fm_chest,ebn0_db,10,ber,0.250625,300,2026
ber-ofdm-fm_chest,ebn0_db,10,bler,0.5455555556,300,2026
ber-ofdm-fm_chest,ebn0_db,inf,ber,0,300,2026
ber-ofdm-fm_chest,ebn0_db,inf,bler,0,300,2026
ber-ofdm-tm,ebn0_db,10,ber,0.08930555556,300,2026
ber-ofdm-tm,ebn0_db,10,bler,0.1994444444,300,2026
ber-ofdm-tm,ebn0_db,inf,ber,0,300,2026
ber-ofdm-tm,ebn0_db,inf,bler,0,300,2026
"""),
}
# 530 packets of 64 payload bits at seed 12, recorded before the chunks
# decoded in reused buffers: 22 full chunks, then one of 2 packets, which
# reads the leading rows of buffers a full chunk filled; checked at threads 1
# and 3
_SHORT_LAST_CHUNK = """\
experiment,param_name,param_value,metric,value,trials,seed
ber-ofdm-fm,ebn0_db,10,ber,0.1791273585,530,12
ber-ofdm-fm,ebn0_db,10,bler,0.3905660377,530,12
ber-ofdm-fm,ebn0_db,inf,ber,0.07337853774,530,12
ber-ofdm-fm,ebn0_db,inf,bler,0.1514150943,530,12
ber-ofdm-fm_chest,ebn0_db,10,ber,0.2588148585,530,12
ber-ofdm-fm_chest,ebn0_db,10,bler,0.5655660377,530,12
ber-ofdm-fm_chest,ebn0_db,inf,ber,0,530,12
ber-ofdm-fm_chest,ebn0_db,inf,bler,0,530,12
ber-ofdm-tm,ebn0_db,10,ber,0.09257075472,530,12
ber-ofdm-tm,ebn0_db,10,bler,0.2047169811,530,12
ber-ofdm-tm,ebn0_db,inf,ber,0,530,12
ber-ofdm-tm,ebn0_db,inf,bler,0,530,12
"""
for _threads in (1, 3):
    GOLDEN_OFDM[f"short-last-chunk-t{_threads}"] = (
        dict(trials=530, payload_bits=64, ebn0_db=(10.0, float("inf")), seed=12,
             threads=_threads), _SHORT_LAST_CHUNK)


@pytest.mark.parametrize("case", list(GOLDEN_OFDM))
def test_ofdm_golden_csv(tmp_path, case):
    settings, expected = GOLDEN_OFDM[case]
    cfg = BerOfdmConfig(**dict(num_zeros=32, trials=600, seed=2026, payload_bits=128) | settings)
    path = tmp_path / "golden.csv"
    write_csv(run_ber_ofdm(cfg), path)
    assert path.read_text() == expected


def mapping_of(array):
    """The mmap that an array's memory is a view of."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj


class TestSweep:
    # _sweep's job contract, on a toy worker over 10 trials in chunks of 4,
    # 4 and 2 at two Eb/N0 points
    SLOTS = {"a": ((3,), complex), "b": ((2, 5), np.uint8)}
    SIZES = (4, 4, 2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_job_contract(self, threads):
        config = types.SimpleNamespace(seed=11, trials=10, threads=threads, ebn0_db=(3.0, 7.0))
        jobs, first_mapping = [], {}

        def worker(ebn0, rng, n, buffers):
            # every view of every job of this thread is of its first job's mapping
            mapping = mapping_of(buffers["a"])
            first = first_mapping.setdefault(threading.get_ident(), weakref.ref(mapping))
            assert first() is mapping
            assert all(mapping_of(view) is mapping for view in buffers.values())
            views = {name: (view.__array_interface__["data"][0], view.shape, view.dtype)
                     for name, view in buffers.items()}
            jobs.append((threading.get_ident(), ebn0, n, rng.integers(0, 2**62, 4).tolist(), views))
            return n, 1

        counts = experiments._sweep(config, worker, chunk=4, slots=self.SLOTS)
        assert counts == [[10, 3], [10, 3]]
        # each job draws the stream of its (point, chunk) key
        expected = [(ebn0, n, np.random.default_rng(np.random.SeedSequence(
                        11, spawn_key=(point, chunk))).integers(0, 2**62, 4).tolist())
                    for point, ebn0 in enumerate(config.ebn0_db)
                    for chunk, n in enumerate(self.SIZES)]
        assert sorted(job[1:4] for job in jobs) == sorted(expected)
        # at one address per slot, each on a cache line, so a short last
        # chunk gets the leading rows
        starts = {}
        for ident, _, n, _, views in jobs:
            assert {name: view[1:] for name, view in views.items()} == {
                name: ((n,) + shape, np.dtype(dtype))
                for name, (shape, dtype) in self.SLOTS.items()}
            starts.setdefault(ident, set()).add(tuple(view[0] for view in views.values()))
        assert 1 <= len(starts) <= threads
        assert all(len(thread) == 1 for thread in starts.values())
        assert all(start % 64 == 0 for (thread,) in starts.values() for start in thread)
        # and no mapping outlives the sweep
        assert [ref() for ref in first_mapping.values()] == [None] * len(first_mapping)

    def test_no_slots_no_buffers(self):
        config = types.SimpleNamespace(seed=11, trials=10, threads=1, ebn0_db=(3.0,))
        made = []
        experiments._sweep(config, lambda ebn0, rng, n, buffers: made.append(buffers) or (n,),
                           chunk=4)
        assert made == [{}] * 3


class TestOfdmBuffers:
    # each worker thread decodes its chunks in buffers that _sweep makes
    # from run_ber_ofdm's slots, and frees when the run returns
    CONFIG = BerOfdmConfig(num_zeros=32, payload_bits=512, trials=60, ebn0_db=(14.0,), seed=4)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_buffer_outlives_the_run(self, threads, monkeypatch):
        cfg = dataclasses.replace(self.CONFIG, threads=threads)
        # warms the caches (synthesis tables, phase table, polar node plan) on
        # another thread and at another payload size, so that buffers kept
        # past a run would be made during the traced one
        warm = threading.Thread(target=run_ber_ofdm,
                                args=(dataclasses.replace(cfg, payload_bits=64),))
        warm.start()
        warm.join(timeout=60)
        assert not warm.is_alive()
        mappings = []

        def mapping(*args):
            made = mmap.mmap(*args)
            mappings.append(weakref.ref(made))
            return made

        monkeypatch.setattr(experiments, "mmap", types.SimpleNamespace(mmap=mapping))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_ber_ofdm(cfg)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # no heap array, and no thread's mapping of buffers, is left
        assert after - before < 64 * 1024
        assert 1 <= len(mappings) <= threads
        assert [ref() for ref in mappings] == [None] * len(mappings)

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap")
    def test_sweep_does_not_fault_its_heap_in_again(self):
        # the minor page faults of a second 1-thread sweep in a fresh
        # process.  Decoded in new arrays, each chunk freed about 3.7 MB,
        # glibc trimmed the heap and the next chunk faulted it in again:
        # 9,640 faults; in the worker's buffers, about 380, their own pages
        script = (
            "import resource\n"
            "from jbmocz.experiments import BerOfdmConfig, run_ber_ofdm\n"
            "cfg = BerOfdmConfig(num_zeros=32, payload_bits=512, trials=240, ebn0_db=(14.0,),\n"
            "                    channel_taps=5, seed=5)\n"
            "run_ber_ofdm(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_ber_ofdm(cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        package_root = str(Path(experiments.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        faults = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True, timeout=300).stdout
        assert int(faults) < 2000


# rows of the two sequence-level runners recorded with the per-point sweep
# loops that `_sweep` replaced (seed 2026, threads 2)
GOLDEN_SEQUENCE = {
    # 9000 codewords: chunks of 4096, 4096 and 808
    "ber_sequence": (
        BerSequenceConfig(scheme="jutted", num_zeros=32, coding="polar", channel="fading",
                          channel_taps=3, rotation="uniform", correct=True,
                          ebn0_db=(6.0, 10.0), trials=9000, seed=2026, threads=2),
        """\
experiment,param_name,param_value,metric,value,trials,seed
ber-seq-jutted-polar-rotcorr,ebn0_db,6,ber,0.3091666667,9000,2026
ber-seq-jutted-polar-rotcorr,ebn0_db,6,bler,0.7485555556,9000,2026
ber-seq-jutted-polar-rotcorr,ebn0_db,10,ber,0.1811319444,9000,2026
ber-seq-jutted-polar-rotcorr,ebn0_db,10,bler,0.4762222222,9000,2026
"""),
    # criterion 6's corrected path (L = 65 on the 1024-bin grid); 9000
    # codewords as above
    "ber_sequence_awgn_rotcorr": (
        BerSequenceConfig(scheme="jutted", num_zeros=64, channel="awgn", rotation="uniform",
                          correct=True, ebn0_db=(4.0, 8.0), trials=9000, seed=2026, threads=2),
        """\
experiment,param_name,param_value,metric,value,trials,seed
ber-seq-jutted-rotcorr,ebn0_db,4,ber,0.08636979167,9000,2026
ber-seq-jutted-rotcorr,ebn0_db,4,bler,0.9717777778,9000,2026
ber-seq-jutted-rotcorr,ebn0_db,8,ber,0.005557291667,9000,2026
ber-seq-jutted-rotcorr,ebn0_db,8,bler,0.2948888889,9000,2026
"""),
    # 5000 trials: chunks of 4096 and 904
    "rotation_mse": (
        RotationMseConfig(num_zeros=31, ebn0_db=(4.0, float("inf")), trials=5000, seed=2026,
                          threads=2),
        """\
experiment,param_name,param_value,metric,value,trials,seed
rotation-mse-n64,ebn0_db,4,mse,0.4428432916,5000,2026
rotation-mse-n1024,ebn0_db,4,mse,0.4267196786,5000,2026
rotation-mse-n64,ebn0_db,inf,mse,0.0008151567948,5000,2026
rotation-mse-n1024,ebn0_db,inf,mse,3.155546898e-06,5000,2026
"""),
}


@pytest.mark.parametrize("kind", list(GOLDEN_SEQUENCE))
def test_sequence_golden_csv(tmp_path, kind):
    cfg, expected = GOLDEN_SEQUENCE[kind]
    path = tmp_path / "golden.csv"
    write_csv(run_experiment(cfg), path)
    assert path.read_text() == expected


# loopback rows at 20 dB SNR and the deepest step-back (seed 3), with the
# receiver's sync and residual-bin readings and the packet's I/Q bytes
GOLDEN_LOOPBACK = (
    LoopbackConfig(loopback_snr_db=20.0, loopback_step_back=8, seed=3),
    """\
experiment,param_name,param_value,metric,value,trials,seed
loopback-header,num_zeros,127,ber,0,1,3
loopback-payload,num_zeros,127,ber,0,1,3
loopback-payload,num_zeros,127,papr_db,1.478713,1,3
loopback-template,num_zeros,127,papr_db,7.266260149,1,3
""",
    dict(sync_tau=109, residual_bin=7),
    "fc426ce685a1244591c60243e931ef83f5319cdae74261057e55c4205e6021c5",
)


def test_loopback_golden_csv(tmp_path):
    cfg, expected, readings, iq_sha256 = GOLDEN_LOOPBACK
    report = run_loopback(cfg, iq_path=str(tmp_path / "pkt.iq"))
    write_csv(loopback_rows(report, cfg), tmp_path / "golden.csv")
    assert (tmp_path / "golden.csv").read_text() == expected
    assert {key: getattr(report, key) for key in readings} == readings
    assert hashlib.sha256((tmp_path / "pkt.iq").read_bytes()).hexdigest() == iq_sha256


class TestBerSequenceRows:
    def test_noiseless_is_error_free(self):
        cfg = BerSequenceConfig(scheme="huffman", num_zeros=16,
                                channel="awgn", ebn0_db=(200.0,), trials=200, seed=0)
        rows = run_ber_sequence(cfg)
        assert all(r.value == 0.0 for r in rows)

    def test_monotone_in_ebn0(self):
        # >= 1e5 bits per point; allow a single inversion
        cfg = BerSequenceConfig(scheme="huffman", num_zeros=32,
                                channel="awgn", ebn0_db=(0.0, 3.0, 6.0, 9.0),
                                trials=4000, seed=1)
        bers = [r.value for r in run_ber_sequence(cfg) if r.metric == "ber"]
        inversions = sum(a < b for a, b in zip(bers, bers[1:]))
        assert inversions <= 1

    def test_values_in_range(self):
        cfg = BerSequenceConfig(scheme="jutted", num_zeros=32,
                                coding="polar", channel="fading", channel_taps=3,
                                rotation="uniform", correct=True,
                                ebn0_db=(5.0,), trials=300, seed=2)
        for row in run_ber_sequence(cfg):
            assert np.isfinite(row.value) and 0.0 <= row.value <= 1.0


class TestSequenceLink:
    def test_rotation_angles(self):
        # a fixed angle is applied exactly and draws nothing; uniform angles
        # lie in [0, 2 pi)
        coeffs = encode_coeffs(np.random.default_rng(0).integers(0, 2, (500, 32)),
                               jutted_params(32))
        rng_none, rng_fixed = np.random.default_rng(12), np.random.default_rng(12)
        unrotated, angles = experiments._sequence_link(rng_none, coeffs, 3, 0.1, None)
        assert np.all(angles == 0)
        fixed, angles = experiments._sequence_link(rng_fixed, coeffs, 3, 0.1, 0.7)
        assert np.all(angles == 0.7)
        assert np.array_equal(fixed, apply_rotation(unrotated, np.full(500, 0.7)))
        assert rng_fixed.bit_generator.state == rng_none.bit_generator.state
        _, angles = experiments._sequence_link(np.random.default_rng(12), coeffs, None, 0.1,
                                               "uniform")
        assert 0 <= angles.min() and angles.max() < 2 * np.pi
        assert np.mean(angles) == pytest.approx(np.pi, abs=0.2)


class TestGridLink:
    # 33 subcarriers by 3 symbols of a 64-point transform, sent after one
    # leading symbol whose tail a window stepped back past the prefix reads
    N, S, T = 64, 33, 3

    @pytest.mark.parametrize("cp_len", [0, 3, 8, 9])
    def test_matches_sample_level_chain(self, cp_len):
        # without noise the grid link is the sample-level chain, cell for
        # cell, whenever step_back + channel_taps - 1 <= cp_len, and is off
        # once the window reads one sample of the previous symbol
        rng = np.random.default_rng(cp_len)
        for channel_taps in range(1, cp_len + 2):
            for step_back in range(cp_len - channel_taps + 3):
                real, imag = rng.normal(size=(2, self.S, self.T + 1))
                grid = real + 1j * imag
                taps = draw_cir(channel_taps, rng)
                sent = OfdmConfig(self.N, cp_len, 1.0, self.S, self.T + 1)
                rx = apply_ofdm_channel(ofdm_modulate(grid, sent), taps, ImpairmentSpec(), 1.0)
                window = OfdmConfig(self.N, cp_len, 1.0, self.S, self.T)
                start = sent.symbol_len - step_back
                expected = ofdm_demodulate(rx[start : start + window.stream_len], window)
                gains = np.fft.fft(taps, self.N)[None]
                linked = experiments._grid_link(grid[None, :, 1:].copy(),
                                                np.zeros((1, self.S, self.T), complex), gains,
                                                np.array([step_back]), self.N, 1.0)
                error = np.max(np.abs(linked[0] - expected))
                if step_back + channel_taps - 1 <= cp_len:
                    assert error < 1e-12, (channel_taps, step_back)
                else:
                    assert error > 1e-3, (channel_taps, step_back)

    def test_flat_channel_is_one_unit_tap(self):
        rng = np.random.default_rng(5)
        cells = rng.normal(size=(4, self.S, self.T)) + 1j * rng.normal(size=(4, self.S, self.T))
        noise = complex_noise(cells.shape, 2.0, rng)
        step_backs = np.array([0, 1, 5, 8])
        flat = experiments._grid_link(cells.copy(), noise, None, step_backs, self.N, 0.3)
        unit = experiments._grid_link(cells.copy(), noise, np.fft.fft(np.ones((4, 1)), self.N),
                                      step_backs, self.N, 0.3)
        assert np.array_equal(flat, unit)


def ks_statistic(a, b):
    """The two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, points, side="right") / a.size
                         - np.searchsorted(b, points, side="right") / b.size))


def variance_se2(x):
    """The squared standard error of x's sample variance, (m4 - m2^2) / n."""
    dev2 = (x - x.mean()) ** 2
    return (np.mean(dev2 ** 2) - np.mean(dev2) ** 2) / x.size


class TestNoiseEstimateLaw:
    # fm_chest's noise estimate is one Gamma draw per packet, the law of
    # estimate_noise_var over the packet's G x T guard cells.  n packets'
    # draws against n sampled guard blocks, with bounds fixed before the
    # test first ran: means within 4 combined standard errors, variances
    # within 4 standard errors, and the two-sample KS statistic below its
    # 0.1% critical value 1.95 sqrt(2/n)
    PACKETS, BLOCK, NOISE_VAR = 4000, 500, 0.37

    @pytest.mark.parametrize("settings, guard_cells", [
        (dict(), (256 - 33) * (4 + 1)),                                     # defaults: 1115
        (dict(idft_size=128, tm_preamble_zeros=6), (128 - 33) * (6 + 1))])  # knobs golden: 665
    def test_matches_sampled_guard_cells(self, settings, guard_cells):
        cfg, n = BerOfdmConfig(**settings), self.PACKETS
        drawn = experiments._draw_scheme(np.random.default_rng(31), n, cfg, self.NOISE_VAR,
                                         with_chest=True)["noise_estimate"]
        shape = (cfg.idft_size - (cfg.num_zeros + 1), cfg.tm_preamble_zeros + 1)
        assert shape[0] * shape[1] == guard_cells
        rng = np.random.default_rng(32)
        sampled = np.concatenate([
            estimate_noise_var(complex_noise((self.BLOCK,) + shape, self.NOISE_VAR, rng))
            for _ in range(n // self.BLOCK)])
        assert drawn.shape == sampled.shape == (n,)
        mean_se = np.hypot(drawn.std(ddof=1), sampled.std(ddof=1)) / np.sqrt(n)
        assert abs(drawn.mean() - sampled.mean()) <= 4 * mean_se
        assert (abs(drawn.var(ddof=1) - sampled.var(ddof=1))
                <= 4 * np.sqrt(variance_se2(drawn) + variance_se2(sampled)))
        assert ks_statistic(drawn, sampled) < 1.95 * np.sqrt(2 / n)

    def test_no_noise_estimates_zero(self):
        # Eb/N0 = inf runs at noise_var 0, where every estimate is exactly 0
        own = experiments._draw_scheme(np.random.default_rng(33), 50, BerOfdmConfig(), 0.0,
                                       with_chest=True)
        assert own["noise_estimate"].dtype == float
        assert np.array_equal(own["noise_estimate"], np.zeros(50))


class TestOtherRunners:
    @pytest.mark.slow
    def test_design_curves_rows(self):
        # one search per zeta over the whole grid; both optima are interior
        cfg = DesignCurvesConfig(num_zeros=32, asymmetry=(1.0, 1.15), seed=0)
        rows = run_design_curves(cfg)
        by = {(r.param_value, r.metric): r.value for r in rows}
        for zeta, r_star in ((1.0, 1.036), (1.15, 1.044)):
            assert by[(zeta, "r_star")] == pytest.approx(r_star)
            assert by[(zeta, "c_min")] == np.min(codebook_stabilities(
                ConstellationParams(32, by[(zeta, "r_star")], zeta), MIN_SAMPLE_COUNT))
        assert by[(1.15, "c_min")] <= by[(1.0, "c_min")]
        assert by[(1.15, "papr_db")] >= by[(1.0, "papr_db")]

    def test_design_curves_edge_optimum_raises(self, monkeypatch):
        # a grid that does not bracket R* used to give its edge as R*
        monkeypatch.setattr(experiments, "RADIUS_GRID", np.array([1.001, 1.002]))
        cfg = DesignCurvesConfig(num_zeros=32, asymmetry=(1.15,))
        with pytest.warns(RuntimeWarning, match="radius of the grid"):
            with pytest.raises(ValueError, match="num_zeros=32, asymmetry=1.15"):
                run_design_curves(cfg)

    def test_papr_table(self):
        rows = run_papr_table(PaprTableConfig())
        values = {r.experiment: r.value for r in rows}
        assert values["papr-jutted-numeric"] == pytest.approx(7.27, abs=0.1)
        assert all(np.isfinite(v) for v in values.values())

    def test_stability_report(self):
        cfg = StabilityReportConfig(num_zeros=8,
                                    radius=1.176, asymmetry=1.0)
        rows = run_stability_report(cfg)
        by = {r.metric: r.value for r in rows}
        assert by["c_bar"] == pytest.approx(1.149, abs=0.005)
        assert by["c_min"] == pytest.approx(1.048, abs=0.005)

    def test_sampled_stability_report_counts(self):
        # above K=16 c_bar scores 256 sampled codewords and c_min the two
        # extremes and 64 more; the c_min row used to say 256
        rows = run_stability_report(StabilityReportConfig(num_zeros=24, radius=1.1))
        assert {r.metric: r.trials for r in rows} == {"c_bar": 256, "c_min": 66}

    def test_ofdm_runner_emits_all_schemes(self):
        cfg = BerOfdmConfig(num_zeros=32, ebn0_db=(12.0,),
                            trials=40, seed=3)
        rows = run_ber_ofdm(cfg)
        names = {r.experiment for r in rows}
        assert names == {"ber-ofdm-fm", "ber-ofdm-fm_chest", "ber-ofdm-tm"}
        assert all(0.0 <= r.value <= 1.0 for r in rows)

    def test_loopback_noiseless(self, tmp_path):
        cfg = LoopbackConfig(seed=5)
        report = run_loopback(cfg, iq_path=str(tmp_path / "pkt.iq"))
        assert report.header_errors == 0
        assert report.payload_errors == 0
        assert (tmp_path / "pkt.iq").exists()

    @pytest.mark.parametrize("seed", range(4))
    def test_loopback_sync_miss_counts_bit_errors(self, seed):
        # at -20 dB sync_search misses; its windows used to run off the
        # capture, which failed the run
        cfg = LoopbackConfig(seed=seed, loopback_snr_db=-20.0)
        rows = loopback_rows(run_loopback(cfg), cfg)
        assert len(rows) == 4
        assert all(0.0 <= r.value <= 1.0 for r in rows if r.metric == "ber")

    def test_loopback_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_loopback(LoopbackConfig(seed=5))
        assert report.payload_errors == 0
        assert list(tmp_path.iterdir()) == []

    def test_dispatch(self):
        rows = run_experiment(PaprTableConfig())
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


# The config `jbmocz <cmd>` runs with no config file: the per-kind CLI
# defaults merged over the one shared config class they replace, restricted
# to the keys each kind still has.  design_curves' asymmetry was None there,
# which its runner read as this six-point sweep.  stability_report's scheme
# was jutted, a name its symmetric radius and asymmetry never ran.
RESOLVED_DEFAULTS = {
    "ber_sequence": dict(seed=0, out=None, scheme="jutted", num_zeros=64, radius=None,
                         asymmetry=None, threads=1, coding="none", channel="fading",
                         channel_taps=5, pdp="uniform", rotation=None, correct=False,
                         ebn0_db=(0.0, 4.0, 8.0, 12.0, 16.0), trials=20000,
                         ofdm_schemes=("fm", "fm_chest", "tm")),
    "ber_ofdm": dict(seed=0, out=None, threads=1, num_zeros=32, channel="fading",
                     channel_taps=5, pdp="uniform", ebn0_db=(8.0, 12.0, 16.0, 20.0),
                     trials=1000, idft_size=256, cp_len=9, payload_bits=512,
                     ofdm_schemes=("fm", "fm_chest", "tm"), tm_preamble_zeros=4,
                     step_back="random"),
    "rotation_mse": dict(seed=0, out=None, scheme="jutted", num_zeros=31, radius=None,
                         asymmetry=None, threads=1, ebn0_db=(0.0, 4.0, 8.0, 12.0, 16.0),
                         trials=10000, estimator_bins=(64, 1024)),
    "design_curves": dict(seed=0, out=None, num_zeros=32,
                          asymmetry=(1.0, 1.03, 1.06, 1.09, 1.12, 1.15)),
    "papr_table": dict(seed=0, out=None),
    "stability_report": dict(seed=0, out=None, scheme="huffman", num_zeros=8, radius=1.176,
                             asymmetry=1.0),
    "loopback": dict(seed=0, out=None, loopback_snr_db=None, loopback_step_back=6),
}


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

    def test_config_file_not_a_mapping(self, tmp_path):
        config = tmp_path / "list.yaml"
        config.write_text("- seed\n- 3\n")
        with pytest.raises(ValueError, match="must hold a key-value mapping"):
            load_config("papr_table", str(config))

    def test_kind_key_rejected(self, tmp_path):
        # a kind key used to be dropped, so a ber_ofdm file ran as any kind
        config = tmp_path / "ofdm.yaml"
        config.write_text("kind: ber_ofdm\n")
        with pytest.raises(ValueError, match="kind"):
            load_config("rotation_mse", str(config))

    def test_kind_defaults_and_benchmark_configs_load(self):
        # each kind's class reproduces the defaults the CLI ran before the
        # per-kind classes, and the rejections of unread fields leave the
        # benchmark's inputs loadable
        assert set(EXPERIMENTS) == set(RESOLVED_DEFAULTS)
        for kind in EXPERIMENTS:
            assert dataclasses.asdict(load_config(kind)) == RESOLVED_DEFAULTS[kind], kind
        configs = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
        for name, kind in (("ofdm_k32", "ber_ofdm"), ("seq_k32_polar_rot", "ber_sequence"),
                           ("seq_k64_fading", "ber_sequence")):
            config = load_config(kind, str(configs / f"{name}.yaml"))
            # the overrides of the benchmark's warm-up run
            load_config(kind, str(configs / f"{name}.yaml"),
                        dict(trials=1, ebn0_db=config.ebn0_db[:1],
                             ofdm_schemes=config.ofdm_schemes[:1]))

    def test_numeric_out_rejected(self, tmp_path, monkeypatch):
        # out: 1 used to make write_csv open file descriptor 1
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "out.yaml"
        config.write_text("out: 1\n")
        with pytest.raises(ValueError, match="out="):
            main(["papr-table", "--config", str(config)])
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_readme_names_every_key(self, command):
        # each subcommand's bullet under "Config files" gives every key but
        # seed and out as `key: default`
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Config files")[1].split("\n## ")[0]
        config_class = EXPERIMENTS[COMMANDS[command]][0]
        head = f"\n- `{command}` (`{config_class.__name__}`):"
        assert section.count(head) == 1
        bullet = section.split(head)[1].split("\n- ")[0].split("\n\n")[0]
        named = {}
        for name, text in re.findall(r"`([a-z_0-9]+): ([^`]+)`", bullet):
            value = yaml.safe_load(" ".join(text.split()))
            named[name] = tuple(value) if isinstance(value, list) else value
        assert named == {f.name: f.default for f in dataclasses.fields(config_class)
                         if f.name not in ("seed", "out")}

    def test_loopback_command(self, tmp_path):
        # the CLI's own branch: the I/Q file beside the CSV, and the rows of
        # loopback_rows for the same config
        out = tmp_path / "x.csv"
        assert main(["loopback", "--out", str(out)]) == 0
        config = LoopbackConfig(out=str(out))
        expected = tmp_path / "expected.csv"
        write_csv(loopback_rows(run_loopback(config), config), expected, header_note=ENERGY_NOTE)
        assert out.read_bytes() == expected.read_bytes()
        assert read_iq(str(out) + ".iq").shape == (2600,)

    def test_stability_command(self, tmp_path):
        out = tmp_path / "stab.csv"
        assert main(["stability", "--out", str(out)]) == 0
        assert "c_bar" in out.read_text()
