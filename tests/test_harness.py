"""Tests for trial execution, sweeps, persistence, and SigMF metadata."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from burstlink import sync
from burstlink.channel import ChannelProfile
from burstlink.config import SweepSpec
from burstlink.framing import FrameConfig
from burstlink.harness import (
    EVENT_COLUMNS,
    RESULT_COLUMNS,
    emit_sigmf,
    events_to_csv,
    generate_payload,
    goodput_improvement_table,
    read_cf32,
    read_events_csv,
    results_from_event_rows,
    results_to_csv,
    run_id,
    run_sweep,
    run_trial_events,
    sigmf_to_json,
    validate_sigmf,
    write_cf32,
    write_events_csv,
    write_results_csv,
    write_sigmf,
)


class TestPayload:
    def test_empty(self):
        assert generate_payload(0, 1) == b""

    def test_deterministic(self):
        assert generate_payload(64, 42) == generate_payload(64, 42)
        assert generate_payload(64, 42) != generate_payload(64, 43)

    def test_byte_histogram_uniform(self):
        # Chi-square over 256 bins; 3-sigma bound is 255 + 3*sqrt(510).
        data = np.frombuffer(generate_payload(1_000_000, 7), dtype=np.uint8)
        counts = np.bincount(data, minlength=256)
        expected = len(data) / 256
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 255 + 3 * math.sqrt(2 * 255)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_payload(-1, 0)


CLEAN = ChannelProfile()


class TestRunTrial:
    def test_loopback_all_pass(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        result = run_trial_events(cfg, CLEAN, frames=5, seed=1).result
        assert result.crc_pass == result.frames_detected == result.frames_sent == 5
        assert result.evm_percent < 0.1
        assert result.duration_s == pytest.approx(5 * 448e-6)
        assert result.goodput_bps == pytest.approx(92 * 8 / 448e-6)

    def test_same_seed_bit_identical(self):
        cfg = FrameConfig(pilot_reps=2, modulation=64)
        profile = ChannelProfile(delta_f_hz=1500.0, snr_db=18.0, seed=9)
        a = run_trial_events(cfg, profile, frames=8, seed=3).result
        b = run_trial_events(cfg, profile, frames=8, seed=3).result
        assert a == b

    def test_failures_counted_not_fatal(self):
        cfg = FrameConfig(pilot_reps=1, modulation=64)
        profile = ChannelProfile(snr_db=-5.0, seed=2)
        result = run_trial_events(cfg, profile, frames=4, seed=5).result
        assert result.frames_sent == 4
        assert result.crc_pass <= result.frames_detected <= 4
        assert sum(result.failure_counts.values()) == 4 - result.crc_pass

    def test_seed42_rows_match_recorded_digests(self):
        # Pins outputs byte for byte, not just run to run (criterion 08): the
        # first seed-42 trial-impaired rows of the benchmark must hash to the
        # digests it recorded.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        bl = workloads.import_program()
        expected = workloads.load_expected()
        assert expected["seed"] == workloads.DEFAULT_SEED
        for k, digest in enumerate(expected["trial-impaired"]["result_rows"][:8]):
            run = workloads.run_trial(bl, workloads.DEFAULT_SEED, k)
            row = workloads.trial_row_text(bl, run)
            assert workloads.sha256_bytes(row.encode()) == digest, f"trial {k}: {row}"

    def test_agc_runs_once_per_trial(self, monkeypatch):
        # The receiver levels all of a trial's frame windows in one AGC call.
        shapes = []
        real_agc = sync.agc

        def counting_agc(buf, *args, **kwargs):
            shapes.append(buf.samples.shape)
            return real_agc(buf, *args, **kwargs)

        monkeypatch.setattr(sync, "agc", counting_agc)
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        run = run_trial_events(cfg, CLEAN, frames=3, seed=7)
        assert len(run.events) == 3
        assert len(shapes) == 1
        assert shapes[0][0] == 3

    def test_events_match_aggregate(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        run = run_trial_events(cfg, CLEAN, frames=3, seed=7)
        assert len(run.events) == 3
        assert all(e.crc_ok for e in run.events)

    def test_dense_pilots_beat_sparse_for_64qam_on_fast_channel(self):
        profile = ChannelProfile(
            delta_f_hz=1000.0,
            drift_hz_per_s=1.4e6,
            snr_db=20.0,
            coherence_symbols=128,
            freq_walk_std_hz=150.0,
            seed=5,
        )
        sparse = run_trial_events(
            FrameConfig(pilot_reps=1, modulation=64), profile, frames=20, seed=8
        ).result
        dense = run_trial_events(
            FrameConfig(pilot_reps=6, modulation=64), profile, frames=20, seed=8
        ).result
        assert dense.goodput_bps > sparse.goodput_bps


class TestSweep:
    def test_row_count_matches_grid(self):
        spec = SweepSpec(
            lambda_list=(1, 2, 4, 6, 8),
            modulations=(4, 8, 16, 64),
            profiles=(CLEAN,),
            frames_per_trial=1,
            trials_per_cell=3,
            master_seed=1,
        )
        runs = run_sweep(spec)
        assert len(runs) == 60

    def test_rerun_and_worker_count_invariance(self):
        spec = SweepSpec(
            lambda_list=(1, 4),
            modulations=(4, 64),
            profiles=(ChannelProfile(delta_f_hz=1000.0, snr_db=20.0, seed=3),),
            frames_per_trial=4,
            trials_per_cell=2,
            master_seed=99,
        )
        serial = results_to_csv([r.result for r in run_sweep(spec, workers=1)])
        again = results_to_csv([r.result for r in run_sweep(spec, workers=1)])
        pooled = results_to_csv([r.result for r in run_sweep(spec, workers=4)])
        assert serial == again == pooled

    def test_goodput_improvement_table(self):
        profile = ChannelProfile(
            delta_f_hz=1000.0,
            drift_hz_per_s=1.4e6,
            snr_db=20.0,
            coherence_symbols=128,
            freq_walk_std_hz=150.0,
            seed=5,
        )
        spec = SweepSpec(
            lambda_list=(1, 4, 6),
            modulations=(4, 64),
            profiles=(profile,),
            frames_per_trial=15,
            trials_per_cell=2,
            master_seed=64,
        )
        results = [r.result for r in run_sweep(spec)]
        table = goodput_improvement_table(results)
        assert set(table) == {4, 64}
        # High-order modulation gains from denser pilots on this channel.
        assert table[64]["best_pilot_reps"] in (4, 6)
        assert table[64]["gain_percent"] > 100.0
        assert table[64]["best_bps"] > table[64]["baseline_bps"]

    def test_master_seed_changes_results(self):
        spec = SweepSpec(
            lambda_list=(1,),
            modulations=(16,),
            profiles=(ChannelProfile(snr_db=10.0, seed=3),),
            frames_per_trial=4,
            trials_per_cell=1,
            master_seed=1,
        )
        spec2 = SweepSpec(
            lambda_list=(1,),
            modulations=(16,),
            profiles=(ChannelProfile(snr_db=10.0, seed=3),),
            frames_per_trial=4,
            trials_per_cell=1,
            master_seed=2,
        )
        a = run_sweep(spec)[0].result
        b = run_sweep(spec2)[0].result
        assert a.seed != b.seed


# Written out by hand so the test pins the on-disk schema independently of
# the code that derives the column constants.
FROZEN_RESULT_COLUMNS = (
    "profile_index", "modulation", "pilot_reps", "trial", "seed",
    "frames_sent", "frames_detected", "crc_pass",
    "fail_no_training", "fail_no_frame", "fail_truncated", "fail_unequalizable", "fail_crc",
    "data_bytes_per_frame", "duration_s", "goodput_bps", "throughput_bps",
    "evm_percent", "evm_decision_percent", "sinr_db", "mean_residual_phase_deg",
    "snr_db", "cfo_hz", "drift_hz_per_s", "coherence_symbols", "fading", "rician_k",
    "freq_walk_std_hz",
)

FROZEN_EVENT_COLUMNS = (
    "profile_index", "modulation", "pilot_reps", "trial", "seed", "frames",
    "symbol_period_s", "data_bytes_per_frame", "data_symbols", "bits_per_symbol",
    "frame_airtime_s", "snr_db", "cfo_hz", "drift_hz_per_s", "theta_in_rad",
    "coherence_symbols", "fading", "rician_k", "freq_walk_std_hz",
    "frame_index", "detected", "crc_ok", "failure",
    "err_energy_tx", "ref_energy_tx", "err_energy_dec", "sig_energy_dec",
    "n_symbols", "residual_freq_hz", "residual_phase_deg",
)


class TestPersistence:
    def _runs(self):
        spec = SweepSpec(
            lambda_list=(1, 4),
            modulations=(16,),
            profiles=(ChannelProfile(delta_f_hz=800.0, snr_db=17.0, seed=5),),
            frames_per_trial=5,
            trials_per_cell=2,
            master_seed=11,
        )
        return run_sweep(spec)

    def test_csv_columns_frozen(self):
        runs = self._runs()
        text = results_to_csv([r.result for r in runs])
        assert tuple(text.splitlines()[0].split(",")) == FROZEN_RESULT_COLUMNS
        text_e = events_to_csv(runs)
        assert tuple(text_e.splitlines()[0].split(",")) == FROZEN_EVENT_COLUMNS
        assert RESULT_COLUMNS == FROZEN_RESULT_COLUMNS
        assert EVENT_COLUMNS == FROZEN_EVENT_COLUMNS

    def test_report_from_log_equals_live(self, tmp_path):
        runs = self._runs()
        live = results_to_csv([r.result for r in runs])
        path = tmp_path / "events.csv"
        write_events_csv(runs, str(path))
        rows = read_events_csv(str(path))
        assert len(rows) == 4 * 5
        recomputed = results_to_csv(results_from_event_rows(rows))
        assert recomputed == live

    def test_results_file_round_trip(self, tmp_path):
        runs = self._runs()
        path = tmp_path / "r.csv"
        write_results_csv([r.result for r in runs], str(path))
        assert path.read_text() == results_to_csv([r.result for r in runs])

    def test_cf32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = (rng.normal(size=500) + 1j * rng.normal(size=500)).astype(np.complex64)
        path = tmp_path / "iq.cf32"
        write_cf32(samples, str(path))
        back = read_cf32(str(path))
        assert np.array_equal(back, samples)
        assert path.stat().st_size == 500 * 8


class TestSigmf:
    def _doc(self, **kwargs):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        result = run_trial_events(cfg, CLEAN, frames=2, seed=1).result
        return emit_sigmf(result, cfg, sample_rate_hz=4e6, **kwargs), result

    def test_required_fields_present(self):
        doc, _ = self._doc(environment="indoor", link_distance_m=30.0)
        glob = doc["global"]
        assert glob["core:datatype"] == "cf32_le"
        assert glob["experiment:modulation"] == "16qam"
        assert glob["experiment:pilot_repetitions"] == 4
        assert glob["experiment:altitude_m"] is None
        assert glob["experiment:link_distance_m"] == 30.0
        assert glob["experiment:environment"] == "indoor"
        assert validate_sigmf(doc) == []

    def test_json_round_trip(self):
        doc, _ = self._doc()
        text = sigmf_to_json(doc)
        parsed = json.loads(text)
        assert parsed == doc
        assert sigmf_to_json(parsed) == text

    def test_missing_field_detected(self):
        doc, _ = self._doc()
        del doc["global"]["experiment:altitude_m"]
        problems = validate_sigmf(doc)
        assert any("experiment:altitude_m" in p for p in problems)

    def test_write_rejects_invalid(self, tmp_path):
        with pytest.raises(ValueError, match="invalid SigMF"):
            write_sigmf({"global": {}}, str(tmp_path / "x.sigmf-meta"))

    def test_file_write_and_validate(self, tmp_path):
        doc, result = self._doc(environment="g2g")
        path = tmp_path / (run_id(result) + ".sigmf-meta")
        write_sigmf(doc, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == doc

    def test_run_id_format(self):
        _, result = self._doc()
        assert run_id(result) == "run-p0-16qam-l4-t0"
