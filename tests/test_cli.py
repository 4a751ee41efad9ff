"""Tests for the command-line interface."""

import json

import pytest

from burstlink.cli import main
from burstlink.harness import EVENT_COLUMNS

SWEEP_CFG = """
lambda_list = 1,4
modulations = 4,16
frames_per_trial = 4
trials_per_cell = 2
master_seed = 7
snr_db = 25
cfo_hz = 1200
fading = none
"""


def test_sim_prints_csv(capsys):
    code = main(["sim", "--mod", "16qam", "--pilot-reps", "4", "--snr-db", "inf",
                 "--frames", "3", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("profile_index,modulation,pilot_reps")
    assert len(lines) == 2


def test_sim_goodput_matches_airtime_arithmetic(capsys):
    code = main(["sim", "--mod", "16qam", "--pilot-reps", "4", "--snr-db", "inf",
                 "--frames", "10", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    # All frames pass in loopback: goodput = payload_bytes * 8 / frame airtime.
    assert float(cells["goodput_bps"]) == pytest.approx(92 * 8 / 448e-6)
    assert int(cells["crc_pass"]) == 10


def test_sim_writes_outputs(tmp_path):
    out = tmp_path / "r.csv"
    events = tmp_path / "e.csv"
    sigmf = tmp_path / "t.sigmf-meta"
    iq = tmp_path / "t.cf32"
    code = main(["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2", "--seed", "3",
                 "--out", str(out), "--events-out", str(events),
                 "--sigmf-out", str(sigmf), "--iq-out", str(iq),
                 "--environment", "indoor", "--link-distance-m", "5"])
    assert code == 0
    assert out.read_text().startswith("profile_index")
    assert len(events.read_text().splitlines()) == 3
    doc = json.loads(sigmf.read_text())
    assert doc["global"]["experiment:modulation"] == "4qam"
    assert iq.stat().st_size > 0
    # The metadata counts the cf32 samples of the I/Q dump, 8 bytes each.
    assert doc["annotations"][0]["core:sample_count"] == iq.stat().st_size // 8


def test_sim_sigmf_sample_rate_follows_the_symbol_period(tmp_path):
    # 250 ns symbols at 4 samples per symbol: 16 MHz, one cf32 (8 bytes) per sample.
    sigmf, iq = tmp_path / "t.sigmf-meta", tmp_path / "t.cf32"
    assert main(["sim", "--mod", "16", "--pilot-reps", "2", "--frames", "2",
                 "--symbol-period-s", "2.5e-7", "--iq-out", str(iq),
                 "--sigmf-out", str(sigmf)]) == 0
    doc = json.loads(sigmf.read_text())
    assert doc["global"]["core:sample_rate"] == 16e6
    assert doc["annotations"][0]["core:sample_count"] == iq.stat().st_size // 8


@pytest.mark.parametrize("iq_out", [False, True])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_sim_rejects_fewer_than_one_trial(tmp_path, capsys, trials, iq_out):
    argv = ["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2", "--trials", trials,
            "--out", str(tmp_path / "r.csv"), "--events-out", str(tmp_path / "e.csv")]
    if iq_out:
        argv += ["--iq-out", str(tmp_path / "t.cf32")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --trials must be >= 1\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_determinism_and_seed_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["sweep", "--config", str(cfg), "--seed", "8", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_sweep_report_round_trip(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "live.csv"
    events = tmp_path / "events.csv"
    rep = tmp_path / "rep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--events-out", str(events)]) == 0
    assert main(["report", str(events), "--out", str(rep)]) == 0
    assert rep.read_bytes() == out.read_bytes()


def test_sweep_sigmf_sample_count_follows_the_frame(tmp_path):
    # A non-default frame: 128 payload symbols, 8-symbol pilot blocks, 4x
    # oversampled 250 ns symbols. Each frame is 320 symbols of 4 samples.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "lambda_list = 2\nmodulations = 16\nframes_per_trial = 3\ntrials_per_cell = 1\n"
        "payload_symbols = 128\npilot_block_len = 8\nsymbol_period_s = 2.5e-07\n"
    )
    sig_dir = tmp_path / "sigmf"
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                 "--sigmf-out", str(sig_dir)]) == 0
    (meta,) = sig_dir.iterdir()
    doc = json.loads(meta.read_text())
    assert doc["global"]["core:sample_rate"] == 16e6
    assert doc["annotations"][0]["core:sample_count"] == 3 * 320 * 4


def test_sweep_emits_sigmf_directory(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    sig_dir = tmp_path / "sigmf"
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                 "--sigmf-out", str(sig_dir)]) == 0
    files = sorted(p.name for p in sig_dir.iterdir())
    assert len(files) == 8
    assert files[0].endswith(".sigmf-meta")
    code = main(["validate-sigmf"] + [str(sig_dir / f) for f in files])
    assert code == 0


def test_validate_sigmf_reports_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"global": {"core:datatype": "cf32_le"}}))
    code = main(["validate-sigmf", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "experiment:modulation" in err


def test_validate_sigmf_unreadable_file(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    assert main(["validate-sigmf", str(bad)]) == 1


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--mod", "16qam", "--no-such-flag"])
    assert exc.value.code == 2


def test_bad_modulation_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--mod", "banana"])
    assert exc.value.code == 2


def test_invalid_config_value_errors(capsys):
    code = main(["sim", "--mod", "32"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("capture", ["--iq-out", "--sigmf-out"])
def test_multi_trial_capture_rejected(tmp_path, capsys, capture):
    target = tmp_path / "capture"
    code = main(["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2",
                 "--trials", "2", capture, str(target)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not target.exists()


def _sim_row(capsys, *flags):
    argv = ["sim", "--mod", "16qam", "--pilot-reps", "4", "--snr-db", "20",
            "--frames", "3", *flags]
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_channel_seed_is_its_own_flag(capsys):
    base = _sim_row(capsys, "--seed", "5", "--channel-seed", "1")
    same = _sim_row(capsys, "--seed", "5", "--channel-seed", "1")
    other = _sim_row(capsys, "--seed", "5", "--channel-seed", "2")
    assert same == base
    assert other != base
    # --channel-seed must not overwrite the trial seed that --seed sets.
    assert base["seed"] == other["seed"] == "5"


@pytest.mark.parametrize("flags", [["--fading", "bogus"], ["--delay-spread-s", "1e-6"]])
def test_invalid_channel_flag_is_an_error(capsys, flags):
    code = main(["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2", *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-6"])
def test_sim_rejects_a_symbol_period_that_is_not_finite_and_positive(tmp_path, capsys, value):
    out, iq = tmp_path / "r.csv", tmp_path / "t.cf32"
    code = main(["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2",
                 f"--symbol-period-s={value}", "--out", str(out), "--iq-out", str(iq)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: symbol_period_s must be finite and positive")
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_a_nan_symbol_period(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + "symbol_period_s = nan\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out / "r.csv"),
                 "--events-out", str(out / "e.csv"), "--sigmf-out", str(out / "sigmf")]) == 1
    assert capsys.readouterr().err.startswith("error: symbol_period_s must be finite and positive")
    assert not out.exists()


# Each value once made sim exit 0 with a row the model cannot explain (every
# frame lost, or the value silently read as another) or, for a finite SNR
# beyond the float range, end in a traceback.
@pytest.mark.parametrize(
    "flags, key",
    [
        (["--snr-db", "nan"], "snr_db"),
        (["--snr-db=-inf"], "snr_db"),
        (["--cfo-hz", "nan"], "cfo_hz"),
        (["--cfo-hz", "inf"], "cfo_hz"),
        (["--drift-hz-per-s=-inf"], "drift_hz_per_s"),
        (["--theta-in-rad", "inf"], "theta_in_rad"),
        (["--fading", "block-rician", "--rician-k", "nan"], "rician_k"),
        (["--fading", "block-rician", "--rician-k", "inf"], "rician_k"),
        (["--freq-walk-std-hz=-5"], "freq_walk_std_hz"),
        (["--freq-walk-std-hz", "inf"], "freq_walk_std_hz"),
        (["--delay-spread-s", "nan"], "delay_spread_s"),
        (["--delay-spread-s=-1e-9"], "delay_spread_s"),
        (["--coherence-symbols", "nan"], "coherence_symbols"),
        (["--rho-threshold", "nan"], "rho_threshold"),
        (["--mf-threshold-factor", "nan"], "mf_threshold_factor"),
        (["--mf-threshold-factor", "inf"], "mf_threshold_factor"),
        (["--snr-db", "4000"], "snr_db"),
        (["--snr-db=-4000"], "snr_db"),
    ],
)
def test_sim_rejects_channel_and_detector_values_the_model_cannot_use(
    tmp_path, capsys, flags, key
):
    out = tmp_path / "r.csv"
    code = main(["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2",
                 "--out", str(out), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be")
    assert not out.exists()


# The edges of the snr_db bound run clean, with RuntimeWarnings as errors.
@pytest.mark.parametrize("snr_db", ["3000", "-3000"])
def test_sim_runs_at_the_snr_bound(capsys, snr_db):
    assert main(["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2",
                 "--snr-db=" + snr_db]) == 0


# A coherence far longer than the stream once overflowed the epoch index.
@pytest.mark.parametrize(
    "flags", [["--fading", "block-rician"], ["--freq-walk-std-hz", "20"]]
)
def test_coherence_longer_than_the_stream_is_one_epoch(capsys, flags):
    huge = _sim_row(capsys, *flags, "--coherence-symbols", "1e300")
    static = _sim_row(capsys, *flags, "--coherence-symbols", "inf")
    assert huge.pop("coherence_symbols") == "1e+300"
    assert static.pop("coherence_symbols") == "inf"
    assert huge == static


def _report_error(tmp_path, capsys, text):
    events = tmp_path / "events.csv"
    events.write_text(text)
    assert main(["report", str(events)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    return captured.err


def test_report_on_empty_event_log_is_an_error(tmp_path, capsys):
    assert "line 1: empty event log" in _report_error(tmp_path, capsys, "")


def test_report_on_short_event_row_is_an_error(tmp_path, capsys):
    # Line 2 is blank, so the short row is line 3 of the file.
    text = ",".join(EVENT_COLUMNS) + "\n\n0,16,4\n"
    assert "line 3: 3 cells" in _report_error(tmp_path, capsys, text)


def test_report_on_unparseable_event_cell_is_an_error(tmp_path, capsys):
    # Each case edits one cell of a row that parses: the one frame of a
    # trial, lost to no-training.
    valid = dict.fromkeys(EVENT_COLUMNS, "0")
    valid.update(fading="none", failure="no-training", frames="1")
    header = ",".join(EVENT_COLUMNS) + "\n"
    (tmp_path / "valid.csv").write_text(header + ",".join(valid.values()) + "\n")
    assert main(["report", str(tmp_path / "valid.csv")]) == 0
    capsys.readouterr()
    cases = [
        ("frame_index", "abc", "invalid literal for int()"),
        ("crc_ok", "yes", "expected 0 or 1, got 'yes'"),
        ("failure", "bogus-kind", "unknown failure kind 'bogus-kind'"),
    ]
    for column, cell, message in cases:
        row = dict(valid, **{column: cell})
        err = _report_error(tmp_path, capsys, header + ",".join(row.values()) + "\n")
        assert f"line 2, column {column}: {message}" in err


@pytest.mark.parametrize(
    "detected, crc_ok, failure",
    [("1", "1", "crc-fail"), ("0", "1", "")],
    ids=["crc-pass-and-crc-fail", "crc-pass-undetected"],
)
def test_report_on_contradictory_outcome_cells_is_an_error(
    tmp_path, capsys, detected, crc_ok, failure
):
    # Each cell parses alone, but no receiver outcome logs the three together.
    row = dict.fromkeys(EVENT_COLUMNS, "0")
    row.update(fading="none", detected=detected, crc_ok=crc_ok, failure=failure)
    text = ",".join(EVENT_COLUMNS) + "\n" + ",".join(row.values()) + "\n"
    err = _report_error(tmp_path, capsys, text)
    assert (
        f"line 2: detected {detected}, crc_ok {crc_ok} and failure {failure!r} "
        "contradict each other"
    ) in err


def _sim_log(tmp_path, name, *flags):
    """The lines of a 3-frame ``sim`` event log, header first."""
    path = tmp_path / name
    argv = ["sim", "--frames", "3", "--out", str(tmp_path / "r.csv"), "--events-out", str(path)]
    assert main(argv + list(flags)) == 0
    return path.read_text().splitlines()


def test_report_on_trial_cells_that_differ_within_a_trial_is_an_error(tmp_path, capsys):
    # Frame 1 of the trial (line 3) claims another frame size than frame 0.
    lines = _sim_log(tmp_path, "sim.csv")
    row = dict(zip(EVENT_COLUMNS, lines[2].split(",")))
    assert row["data_bytes_per_frame"] == "92"
    lines[2] = ",".join(dict(row, data_bytes_per_frame="999").values())
    err = _report_error(tmp_path, capsys, "\n".join(lines) + "\n")
    assert "line 3, column data_bytes_per_frame: '999' differs from '92' on line 2" in err


def test_report_on_concatenated_logs_of_two_seeds_is_an_error(tmp_path, capsys):
    # Both logs hold trial 0 of the same cell; the second's first row is line 5.
    first = _sim_log(tmp_path, "a.csv", "--seed", "1")
    second = _sim_log(tmp_path, "b.csv", "--seed", "2")
    err = _report_error(tmp_path, capsys, "\n".join(first + second[1:]) + "\n")
    assert "line 5, column seed: '2' differs from '1' on line 2" in err


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda rows: rows + [rows[1]], "frame 1 is repeated"),
        (lambda rows: rows[:2], "frame 2 is missing"),
        (lambda rows: rows[1:], "frame 0 is missing"),
    ],
    ids=["repeated-row", "last-row-missing", "first-row-missing"],
)
def test_report_on_trial_without_each_frame_once_is_an_error(tmp_path, capsys, edit, fault):
    # A 3-frame trial whose log repeats or lost a row would otherwise
    # re-aggregate to another frame count.
    header, *rows = _sim_log(tmp_path, "sim.csv")
    err = _report_error(tmp_path, capsys, "\n".join([header] + edit(rows)) + "\n")
    trial = "trial profile_index 0, modulation 16, pilot_reps 4, trial 0"
    assert f"events.csv: {trial}: {fault}" in err


def test_report_on_frame_index_past_the_trial_is_an_error(tmp_path, capsys):
    # Frames 0..2 are all present; a fourth row claims frame 3.
    header, *rows = _sim_log(tmp_path, "sim.csv")
    row = dict(zip(EVENT_COLUMNS, rows[2].split(",")))
    rows.append(",".join(dict(row, frame_index="3").values()))
    err = _report_error(tmp_path, capsys, "\n".join([header] + rows) + "\n")
    assert "frame index 3 is outside a trial of 3 frames" in err


def test_sweep_with_grid_frame_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + "pilot_reps = 4\nmodulation = 64\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    assert "pilot_reps is set per sweep cell; use lambda_list" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_sweep_with_repeated_grid_entry_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("lambda_list = 1,4", "lambda_list = 1,1"))
    out, events = tmp_path / "r.csv", tmp_path / "events.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--events-out", str(events)])
    assert code == 1
    assert "lambda_list repeats the entry 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_sweep_with_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("snr_db = 25", "snr = 25"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    assert "unknown config key(s): snr" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
