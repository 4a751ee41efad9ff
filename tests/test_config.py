"""Tests for the plain-text key=value config format."""

import math
from pathlib import Path

import pytest

from burstlink.channel import ChannelProfile
from burstlink.config import (
    SweepSpec,
    channel_profile_from_kv,
    channel_profile_to_kv,
    frame_config_from_kv,
    load_sweep_config,
    parse_kv_text,
    sweep_spec_from_text,
)
from burstlink.framing import FrameConfig
from burstlink.sync import DetectorConfig

EXAMPLE_SWEEP = Path(__file__).resolve().parent.parent / "configs" / "example_sweep.cfg"


class TestKvText:
    def test_parse_basic(self):
        kv = parse_kv_text("a = 1\n# comment\nb=two words\n\nc = 3 # trailing\n")
        assert kv == {"a": "1", "b": "two words", "c": "3"}

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_kv_text("a = 1\nnot a pair\n")

    def test_repeated_key_names_both_lines(self):
        # Keeping the last value would run this file at 30 dB without a word.
        with pytest.raises(ValueError, match="line 4: key snr_db is already set on line 1"):
            parse_kv_text("snr_db = 10\n\nlambda_list = 1\nsnr_db = 30\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("snr_db =\n", "line 1: expected 'key = value', got 'snr_db ='"),
            ("lambda_list = 1\n= 5\n", "line 2: expected 'key = value', got '= 5'"),
            ("lambda_list = 1,x\n", "lambda_list = 1,x: invalid literal for int"),
            ("trials_per_cell = 1.5\n", "trials_per_cell = 1.5: invalid literal for int"),
        ],
    )
    def test_parse_errors_name_the_line_or_key(self, text, message):
        with pytest.raises(ValueError) as exc:
            sweep_spec_from_text(text)
        assert str(exc.value).startswith(message)

    def test_format_lists(self):
        assert sweep_spec_from_text("lambda_list = 1, 2,4\n").lambda_list == (1, 2, 4)


class TestFrameConfigKv:
    def test_round_trip(self):
        cfg = FrameConfig(pilot_reps=6, modulation=64, payload_symbols=256)
        text = "pilot_reps = 6\nmodulation = 64\npayload_symbols = 256\n"
        assert frame_config_from_kv(parse_kv_text(text)) == cfg


class TestChannelProfileKv:
    def test_round_trip_with_inf(self):
        profile = ChannelProfile(
            delta_f_hz=1200.0,
            drift_hz_per_s=50.0,
            snr_db=math.inf,
            coherence_symbols=128,
            fading="block-rician",
            rician_k=4.0,
            freq_walk_std_hz=150.0,
            seed=9,
        )
        kv = {k: str(v) for k, v in channel_profile_to_kv(profile).items()}
        back = channel_profile_from_kv(kv)
        assert back == profile

    def test_infinite_coherence_parsed(self):
        profile = channel_profile_from_kv({"coherence_symbols": "inf", "snr_db": "20"})
        assert math.isinf(profile.coherence_symbols)
        assert profile.snr_db == 20.0


class TestSweepSpec:
    def test_text_round_trip(self):
        spec = SweepSpec(
            lambda_list=(1, 4, 8),
            modulations=(4, 16),
            profiles=(ChannelProfile(delta_f_hz=900.0, snr_db=20.0, seed=3),),
            frames_per_trial=12,
            trials_per_cell=2,
            master_seed=77,
        )
        text = (
            "lambda_list = 1,4,8\nmodulations = 4,16\ncfo_hz = 900.0\nsnr_db = 20.0\n"
            "channel_seed = 3\nframes_per_trial = 12\ntrials_per_cell = 2\nmaster_seed = 77\n"
        )
        back = sweep_spec_from_text(text)
        assert back.lambda_list == spec.lambda_list
        assert back.modulations == spec.modulations
        assert back.profiles == spec.profiles
        assert back.frames_per_trial == spec.frames_per_trial
        assert back.trials_per_cell == spec.trials_per_cell
        assert back.master_seed == spec.master_seed

    def test_defaults_fill_missing_keys(self):
        spec = sweep_spec_from_text("snr_db = 15\n")
        assert spec.lambda_list == (1, 2, 4, 6, 8)
        assert spec.modulations == (4, 8, 16, 64)
        assert spec.profiles[0].snr_db == 15.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(lambda_list=())
        with pytest.raises(ValueError):
            SweepSpec(frames_per_trial=0)

    def test_frame_config_override(self):
        spec = sweep_spec_from_text("pilot_block_len = 8\npayload_symbols = 128\n")
        cfg = spec.frame_config(2, 16)
        assert cfg.pilot_block_len == 8
        assert cfg.payload_symbols == 128
        assert cfg.pilot_reps == 2
        assert cfg.modulation == 16

    def test_detector_fields_parsed(self):
        spec = sweep_spec_from_text("rho_threshold = 0.6\nmf_threshold_factor = 0.4\n")
        assert spec.detector.rho_threshold == 0.6
        assert spec.detector.mf_threshold_factor == 0.4

    def test_unknown_keys_rejected_by_name(self):
        # "snr" is not "snr_db": it must not run silently at the default inf.
        with pytest.raises(ValueError, match="snr, bogus_key"):
            sweep_spec_from_text("snr = 10\nlambda_list = 1\nbogus_key = 3\n")

    def test_crc_bits_is_an_unknown_key(self):
        # The CRC width is fixed at 32 bits; it is not a setting.
        with pytest.raises(ValueError, match=r"unknown config key\(s\): crc_bits"):
            sweep_spec_from_text("crc_bits = 32\n")

    @pytest.mark.parametrize(
        "key,grid_key", [("pilot_reps", "lambda_list"), ("modulation", "modulations")]
    )
    def test_grid_frame_keys_rejected_by_name(self, key, grid_key):
        # The grid sets these per cell, so a fixed value would be dropped.
        with pytest.raises(ValueError, match=f"{key} is set per sweep cell; use {grid_key}"):
            sweep_spec_from_text(f"{key} = 4\nlambda_list = 1,8\nmodulations = 4\n")

    @pytest.mark.parametrize(
        "line,key,value",
        [("lambda_list = 1,1", "lambda_list", 1), ("modulations = 4,16,4", "modulations", 4)],
    )
    def test_repeated_grid_entry_rejected_by_name(self, line, key, value):
        # The same cell twice runs with the same seed, and report then
        # rejects the event log for its repeated frames.
        with pytest.raises(ValueError, match=f"{key} repeats the entry {value}"):
            sweep_spec_from_text(line + "\n")

    def test_written_config_and_example_load(self):
        spec = SweepSpec(
            frame_template=FrameConfig(pilot_reps=1, modulation=4, pilot_block_len=8),
            detector=DetectorConfig(rho_threshold=0.6),
        )
        text = "pilot_block_len = 8\nrho_threshold = 0.6\n"
        assert sweep_spec_from_text(text) == spec
        assert load_sweep_config(str(EXAMPLE_SWEEP)).master_seed == 42
