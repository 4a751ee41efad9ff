"""Tests for the command-line interface."""

import concurrent.futures
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from burstlink import cli
from burstlink.cli import main
from burstlink.harness import EVENT_COLUMNS, RESULT_COLUMNS

ROOT = Path(__file__).resolve().parent.parent

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


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of each pool ``run_sweep`` opens; the pool runs
    its jobs in this process, so nothing is forked."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, jobs):
            return map(fn, jobs)

    # run_sweep imports the pool class from concurrent.futures when it opens a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_sweep_pool_is_no_larger_than_the_grid(tmp_path, pool_sizes):
    # SWEEP_CFG has 2 x 2 cells of 2 trials: 8 jobs, so 8 workers at most;
    # a one-job grid runs serially whatever --workers says.
    cfg, one = tmp_path / "sweep.cfg", tmp_path / "one.cfg"
    cfg.write_text(SWEEP_CFG)
    one.write_text("lambda_list = 1\nmodulations = 4\nframes_per_trial = 2\ntrials_per_cell = 1\n")
    outs = [tmp_path / f"{k}.csv" for k in range(3)]
    assert main(["sweep", "--config", str(cfg), "--workers", "16", "--out", str(outs[0])]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(outs[1])]) == 0
    assert main(["sweep", "--config", str(one), "--workers", "16", "--out", str(outs[2])]) == 0
    assert pool_sizes == [8]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[2].read_text().splitlines()) == 2


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, pool_sizes, workers):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--workers", workers, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --workers must be >= 1\n"
    assert captured.out == ""
    assert not out.exists()
    assert pool_sizes == []


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


def test_one_parser_serves_every_call(capsys):
    # The parser is built once per process; no call's flags reach the next.
    assert cli.build_parser() is cli.build_parser()
    assert main(["sim", "--frames", "2", "--snr-db", "5"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--frames", "2", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["sim", "--frames", "2"]) == 0
    header, first, _, last = capsys.readouterr().out.splitlines()
    snr_db = header.split(",").index("snr_db")
    assert (first.split(",")[snr_db], last.split(",")[snr_db]) == ("5.0", "inf")


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


def test_module_entry_runs_in_a_fresh_interpreter():
    # ``import burstlink`` imports no module, so ``burstlink.cli`` alone must
    # load every module it needs.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "burstlink.cli", "sim",
         "--frames", "2", "--mod", "4", "--pilot-reps", "1"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ",".join(RESULT_COLUMNS)


# A 3-frame trial on the README's impaired profile, then ``report`` on its log.
_COLD_START = """
import os, sys, tempfile
from burstlink.cli import main
with tempfile.TemporaryDirectory() as tmp:
    events, out = os.path.join(tmp, "events.csv"), os.path.join(tmp, "results.csv")
    assert main(["sim", "--mod", "64qam", "--pilot-reps", "6", "--snr-db", "20",
                 "--cfo-hz", "1500", "--drift-hz-per-s", "100", "--fading", "block-rician",
                 "--rician-k", "10", "--coherence-symbols", "128", "--frames", "3",
                 "--out", out, "--events-out", events]) == 0
    assert main(["report", events, "--out", out]) == 0
print(*(m for m in ("multiprocessing", "concurrent.futures.process", "numpy.ma")
        if m in sys.modules))
"""


def test_a_fresh_trial_and_report_load_no_pool_and_no_masked_arrays():
    # Only run_sweep's pool needs multiprocessing, and nothing on the trial
    # or report path needs numpy.ma, so a fresh interpreter loads neither.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _COLD_START],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_module_qualified_name_in_the_readme_resolves():
    modules = "channel|cli|config|framing|harness|metrics|sync|waveform"
    cited = re.findall(
        rf"`(?:burstlink\.)?({modules})\.([A-Za-z_]\w*)`", (ROOT / "README.md").read_text()
    )
    assert cited
    missing = [
        f"{module}.{name}"
        for module, name in cited
        if not hasattr(importlib.import_module(f"burstlink.{module}"), name)
    ]
    assert missing == []


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


@pytest.mark.parametrize("flags", [["--fading", "bogus"]])
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


@pytest.mark.parametrize("flag", ["--altitude-m", "--link-distance-m"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sim_rejects_a_non_finite_experiment_value(tmp_path, capsys, flag, value):
    # SigMF is JSON, which cannot hold the value; the trial never runs.
    code = main(["sim", "--mod", "4", "--pilot-reps", "1", "--frames", "2",
                 "--out", str(tmp_path / "r.csv"), "--sigmf-out", str(tmp_path / "s.json"),
                 f"{flag}={value}"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--altitude-m", "--link-distance-m"])
def test_sweep_rejects_a_non_finite_experiment_value(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out / "r.csv"),
                 "--events-out", str(out / "e.csv"), "--sigmf-out", str(out / "sigmf"),
                 flag, "nan"]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be finite, got nan\n"
    assert not out.exists()


def test_sweep_fails_before_any_trial_when_the_sigmf_path_is_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    (tmp_path / "sigmf").write_text("")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                 "--events-out", str(tmp_path / "e.csv"), "--sigmf-out", str(tmp_path / "sigmf")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sigmf", "sweep.cfg"]


@pytest.mark.parametrize("flag", ["--out", "--events-out"])
def test_sweep_fails_before_any_trial_on_an_output_in_a_missing_directory(
    tmp_path, capsys, monkeypatch, flag
):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    paths = {"--out": tmp_path / "r.csv", "--events-out": tmp_path / "e.csv"}
    paths[flag] = bad = tmp_path / "nodir" / "x.csv"
    argv = ["sweep", "--config", str(cfg), "--sigmf-out", str(tmp_path / "sigmf")]
    code = main(argv + [str(a) for item in paths.items() for a in item])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {bad}: {tmp_path / 'nodir'} is not a directory\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("flag", ["--out", "--events-out", "--iq-out", "--sigmf-out"])
def test_sim_fails_before_any_trial_on_an_unwritable_output(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "run_trial_events", lambda *a, **k: pytest.fail("a trial ran"))
    (tmp_path / "taken").mkdir()
    for path, fault in [("nodir/x", f"{tmp_path / 'nodir'} is not a directory"),
                        ("taken", "it is a directory")]:
        target = tmp_path / path
        assert main(["sim", "--frames", "2", flag, str(target)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {target}: {fault}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


# Each pair once made sim exit 0 with one output written over the other.
@pytest.mark.parametrize(("first", "second", "spelling"), [
    ("--out", "--events-out", "x.csv"),
    ("--out", "--sigmf-out", "./x.csv"),
    ("--events-out", "--iq-out", "link/x.csv"),
])
def test_sim_fails_before_any_trial_on_two_outputs_at_one_path(
    tmp_path, capsys, monkeypatch, first, second, spelling
):
    monkeypatch.setattr(cli, "run_trial_events", lambda *a, **k: pytest.fail("a trial ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path)
    assert main(["sim", "--frames", "3", first, "x.csv", second, spelling]) == 1
    assert capsys.readouterr().err == f"error: {first} and {second} both name x.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]


# The --sigmf-out case once ran the whole grid, then failed to write --out
# over the directory it had made there.
@pytest.mark.parametrize(("flag", "spelling"), [
    ("--events-out", "./out/r.csv"), ("--sigmf-out", "out/r.csv"), ("--config", "out/../out/r.csv"),
])
def test_sweep_fails_before_any_trial_on_an_output_at_another_path(
    tmp_path, capsys, monkeypatch, flag, spelling
):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    config = spelling if flag == "--config" else "sweep.cfg"
    (tmp_path / config).write_text(SWEEP_CFG)
    argv = ["sweep", "--config", config, "--out", "out/r.csv"]
    assert main(argv + ([] if flag == "--config" else [flag, spelling])) == 1
    assert capsys.readouterr().err == f"error: --out and {flag} both name out/r.csv\n"
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert written == (["out", "out/r.csv"] if flag == "--config" else ["out", "sweep.cfg"])
    assert (tmp_path / config).read_text() == SWEEP_CFG


def test_report_refuses_to_write_over_its_event_log(tmp_path, capsys):
    _sim_log(tmp_path, "e.csv")
    events = tmp_path / "e.csv"
    (tmp_path / "hard.csv").hardlink_to(events)
    before = events.read_bytes()
    for out in (events, tmp_path / "hard.csv"):
        assert main(["report", str(events), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out and the event log both name {out}\n"
    assert events.read_bytes() == before
    assert main(["report", str(events)]) == 0


def test_validate_sigmf_names_a_file_that_is_not_utf8_and_goes_on(tmp_path, capsys):
    bad, good = tmp_path / "bin.sigmf-meta", tmp_path / "ok.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["sim", "--frames", "2", "--sigmf-out", str(good)]) == 0
    capsys.readouterr()
    assert main(["validate-sigmf", str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{bad}: unreadable ('utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte)\n"
    )
    assert captured.out == f"{good}: ok\n"


def test_report_names_an_event_log_that_is_not_utf8(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_bytes(",".join(EVENT_COLUMNS).encode() + b"\n\xff\n")
    assert main(["report", str(events)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {events}: not UTF-8 text ('utf-8' codec")


def test_sweep_names_a_config_that_is_not_utf8(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes(SWEEP_CFG.encode() + b"# \xff\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text ('utf-8' codec")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark Notepad and Excel write


@pytest.mark.parametrize("head", ["# a comment first\n", ""], ids=["comment", "key"])
def test_sweep_reads_a_config_that_starts_with_a_bom(tmp_path, capsys, head):
    outputs = []
    for name, prefix in (("plain", b""), ("bom", BOM)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(prefix + (head + SWEEP_CFG.lstrip()).encode())
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]


def test_report_reads_an_event_log_that_starts_with_a_bom(tmp_path, capsys):
    _sim_log(tmp_path, "e.csv")
    events = tmp_path / "e.csv"
    with_bom = tmp_path / "bom.csv"
    with_bom.write_bytes(BOM + events.read_bytes())
    capsys.readouterr()
    assert main(["report", str(events)]) == 0
    plain = capsys.readouterr()
    assert main(["report", str(with_bom)]) == 0
    assert capsys.readouterr() == plain


def test_validate_sigmf_reads_a_file_that_starts_with_a_bom(tmp_path, capsys):
    doc = tmp_path / "t.sigmf-meta"
    assert main(["sim", "--frames", "2", "--sigmf-out", str(doc)]) == 0
    with_bom = tmp_path / "bom.sigmf-meta"
    with_bom.write_bytes(BOM + doc.read_bytes())
    capsys.readouterr()
    assert main(["validate-sigmf", str(with_bom)]) == 0
    assert capsys.readouterr().out == f"{with_bom}: ok\n"


def test_sweep_rejects_a_nan_symbol_period(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + "symbol_period_s = nan\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out / "r.csv"),
                 "--events-out", str(out / "e.csv"), "--sigmf-out", str(out / "sigmf")]) == 1
    assert capsys.readouterr().err.startswith("error: symbol_period_s must be finite and positive")
    assert not out.exists()


# Each value once made sim exit 0 with a row the model cannot explain (every
# frame lost, or the value silently read as another), for a finite SNR
# beyond the float range end in a traceback, or, for a negative seed, end in
# an error that named no key. The negative rician_k and fractional coherence
# rows check that the flags reach those two profile checks as well; rician_k
# is checked without fading too, where the row would log a value no sample read.
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
        (["--fading", "block-rician", "--rician-k=-1"], "rician_k"),
        (["--coherence-symbols", "2.5"], "coherence_symbols"),
        (["--coherence-symbols", "nan"], "coherence_symbols"),
        (["--rho-threshold", "nan"], "rho_threshold"),
        (["--mf-threshold-factor", "nan"], "mf_threshold_factor"),
        (["--mf-threshold-factor", "inf"], "mf_threshold_factor"),
        (["--snr-db", "4000"], "snr_db"),
        (["--snr-db=-4000"], "snr_db"),
        (["--seed", "-1"], "seed"),
        (["--rician-k=-1"], "rician_k"),
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


def test_report_on_wrong_event_log_header_is_an_error(tmp_path, capsys):
    # A results CSV is not an event log; line 1 is blank, so its header is line 2.
    text = "\n" + ",".join(RESULT_COLUMNS) + "\n"
    assert "line 2: unrecognized event log header" in _report_error(tmp_path, capsys, text)


def test_report_on_short_event_row_is_an_error(tmp_path, capsys):
    # Line 2 is blank, so the short row is line 3 of the file.
    text = ",".join(EVENT_COLUMNS) + "\n\n0,16,4\n"
    assert "line 3: 3 cells" in _report_error(tmp_path, capsys, text)


def test_report_on_unparseable_event_cell_is_an_error(tmp_path, capsys):
    # Each case edits one cell of a row that parses: the one frame of a
    # trial, lost to no-training, of 4QAM at lambda=1 behind a static channel.
    valid = dict.fromkeys(EVENT_COLUMNS, "0")
    valid.update(fading="none", failure="no-training", frames="1", modulation="4",
                 pilot_reps="1", symbol_period_s="1e-06", data_bytes_per_frame="56",
                 data_symbols="240", bits_per_symbol="2", frame_airtime_s=repr(448 * 1e-06),
                 coherence_symbols="inf")
    header = ",".join(EVENT_COLUMNS) + "\n"
    (tmp_path / "valid.csv").write_text(header + ",".join(valid.values()) + "\n")
    assert main(["report", str(tmp_path / "valid.csv")]) == 0
    capsys.readouterr()
    cases = [
        ({"frame_index": "abc"}, "frame_index", "invalid literal for int()"),
        ({"crc_ok": "yes"}, "crc_ok", "expected 0 or 1, got 'yes'"),
        ({"failure": "bogus-kind"}, "failure", "unknown failure kind 'bogus-kind'"),
        # A row's trial columns are read before its event columns.
        ({"modulation": "x", "frame_index": "abc"}, "modulation", "invalid literal for int()"),
    ]
    for cells, column, message in cases:
        row = dict(valid, **cells)
        err = _report_error(tmp_path, capsys, header + ",".join(row.values()) + "\n")
        assert f"line 2, column {column}: {message}" in err


@pytest.mark.parametrize("char", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
def test_report_error_lines_count_newlines_only(tmp_path, capsys, char):
    # str.splitlines() also ends a line at each of these characters.
    header, *rows = _sim_log(tmp_path, "sim.csv")
    row = dict(zip(EVENT_COLUMNS, rows[1].split(",")))
    rows[1] = ",".join(dict(row, failure=char).values())
    err = _report_error(tmp_path, capsys, "\n".join([header] + rows) + "\n")
    assert f"line 3, column failure: unknown failure kind {char!r}" in err


def test_report_error_after_a_form_feed_names_the_file_line(tmp_path, capsys):
    # The form feed ends line 2's last cell, which float() reads past.
    header, *rows = _sim_log(tmp_path, "sim.csv")
    rows[0] += "\x0c"
    row = dict(zip(EVENT_COLUMNS, rows[2].split(",")))
    rows[2] = ",".join(dict(row, err_energy_tx="abc").values())
    err = _report_error(tmp_path, capsys, "\n".join([header] + rows) + "\n")
    assert "line 4, column err_energy_tx: could not convert string to float: 'abc'" in err


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


def _edited_log(tmp_path, column, cell, rows=None):
    """A ``sim --mod 4 --pilot-reps 1 --frames 2 --seed 1`` log with ``cell`` in
    ``column`` of each data row, or of the rows numbered in ``rows`` (0 first)."""
    header, *lines = _sim_log(tmp_path, "sim.csv", "--mod", "4", "--pilot-reps", "1",
                              "--frames", "2", "--seed", "1")
    for k in range(len(lines)) if rows is None else rows:
        row = dict(zip(EVENT_COLUMNS, lines[k].split(",")))
        lines[k] = ",".join(dict(row, **{column: cell}).values())
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("fading", "bogus", "fading must be one of ('none', 'block-rayleigh', 'block-rician'), "
                            "got 'bogus'"),
        ("snr_db", "nan", "snr_db must be inf or within +/-3000, got nan"),
        ("rician_k", "-1.0", "rician_k must be >= 0, got -1.0"),
        ("cfo_hz", "inf", "cfo_hz must be finite, got inf"),
        ("coherence_symbols", "0.5", "coherence_symbols must be >= 1"),
        ("n_symbols", "5", "expected 0 or 240, got '5'"),
        ("data_symbols", "7", "7 symbols of 2 bits are not whole bytes that hold the CRC"),
        ("data_symbols", "16", "16 symbols of 2 bits are not whole bytes that hold the CRC"),
        ("bits_per_symbol", "4", "expected 2, got 4"),
        ("data_bytes_per_frame", "57", "expected 56, got 57"),
        ("modulation", "5", "unsupported modulation order 5"),
        ("pilot_reps", "3", "pilot_reps must be one of (1, 2, 4, 6, 8), got 3"),
        ("symbol_period_s", "0.0", "expected a finite period > 0, got 0.0"),
        ("frame_airtime_s", "nan", "expected a whole number of symbol periods above "
                                   "data_symbols, got nan"),
        ("frame_airtime_s", "0.0002", "expected a whole number of symbol periods above "
                                      "data_symbols, got 0.0002"),
        ("frame_airtime_s", "4.485e-04", "expected a whole number of symbol periods above "
                                         "data_symbols, got 0.0004485"),
    ],
)
def test_report_on_a_trial_no_run_logs_is_an_error(tmp_path, capsys, column, cell, message):
    # Each cell parses, but no run logs it with the row's other cells.
    err = _report_error(tmp_path, capsys, _edited_log(tmp_path, column, cell))
    assert f"line 2, column {column}: {message}" in err


def test_report_names_the_first_row_whose_n_symbols_no_run_logs(tmp_path, capsys):
    err = _report_error(tmp_path, capsys, _edited_log(tmp_path, "n_symbols", "239", rows=[1]))
    assert "line 3, column n_symbols: expected 0 or 240, got '239'" in err


def test_report_reads_n_symbols_as_int_does(tmp_path, capsys):
    # The check looks the written texts up, and reads any other as int() does.
    text = _edited_log(tmp_path, "n_symbols", "+2_40", rows=[0])
    reference = tmp_path / "r.csv"
    (tmp_path / "edited.csv").write_text(text)
    assert main(["report", str(tmp_path / "edited.csv"), "--out", str(tmp_path / "e.csv")]) == 0
    assert (tmp_path / "e.csv").read_bytes() == reference.read_bytes()


def test_report_reads_back_a_sweep_of_another_frame_geometry(tmp_path):
    # The log carries no frame geometry: shorter training, preamble and pilot
    # blocks, and a longer payload, give other frame cells that still read.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "lambda_list = 2,6\nmodulations = 4,64\nframes_per_trial = 3\ntrials_per_cell = 1\n"
        "payload_symbols = 260\npilot_block_len = 12\ntraining_rep_len = 16\n"
        "training_reps = 3\ngolay_len = 32\nsnr_db = 20\nsymbol_period_s = 2.5e-07\n"
    )
    out, events, rep = tmp_path / "r.csv", tmp_path / "events.csv", tmp_path / "rep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--events-out", str(events)]) == 0
    assert main(["report", str(events), "--out", str(rep)]) == 0
    assert rep.read_bytes() == out.read_bytes()


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


# A single-tap channel has no delay spread, so neither the key nor the flag
# exists: a config or command line that sets one is refused, not ignored.
def test_delay_spread_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + "delay_spread_s = 0\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                 "--events-out", str(tmp_path / "events.csv")])
    assert code == 1
    assert "unknown config key(s): delay_spread_s" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_delay_spread_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--mod", "4", "--pilot-reps", "1", "--delay-spread-s", "0"])
    assert exc.value.code == 2


def test_sweep_with_a_bad_cell_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    # 8QAM at lambda=1 gives 708 data bits, not whole bytes; the 4QAM cells
    # before it in the grid are valid.
    ran = []
    monkeypatch.setattr("burstlink.harness.run_trial_events", lambda **job: ran.append(job))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "payload_symbols = 252\nmodulations = 4,8\nlambda_list = 1,2\ntrials_per_cell = 2\n"
    )
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sweep cell pilot_reps=1, modulation=8: data field of 708 bits" in err
    assert not out.exists()
    assert ran == []


# Each must fail before any trial: a zero pilot block would report every
# frame unequalizable behind numpy warnings, a zero or negative training
# repetition would fail mid-trial with numpy's own error, and a Golay length
# that is not a power of two would fail when the first trial built its tables.
@pytest.mark.parametrize(
    "line, message",
    [
        ("pilot_block_len = 0", "pilot_block_len must be >= 1, got 0"),
        ("training_rep_len = 0", "training_rep_len must be >= 1, got 0"),
        ("training_rep_len = -2", "training_rep_len must be >= 1, got -2"),
        ("golay_len = 48", "Golay length must be a power of two in [2, 4096], got 48"),
    ],
)
def test_sweep_with_a_bad_frame_geometry_fails_at_load(tmp_path, capsys, line, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + line + "\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                 "--events-out", str(tmp_path / "e.csv"), "--sigmf-out", str(tmp_path / "sigmf")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: sweep cell pilot_reps=1, modulation=4: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]
