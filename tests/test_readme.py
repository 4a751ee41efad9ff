"""The README's examples run as written: every CLI command, and the receive snippet."""

import argparse
import glob
import re
import shlex
import shutil
from pathlib import Path

import numpy as np

from burstlink import framing, sync
from burstlink.cli import build_parser, main
from burstlink.framing import FrameConfig, assemble_frames, crc_attach
from burstlink.harness import transmit_burst
from burstlink.sync import receive_frames
from burstlink.waveform import PulseShapeConfig

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _cli_commands() -> list[list[str]]:
    """Each ``burstlink ...`` line of the CLI section's code blocks, with
    ``\\`` continuations joined and ``#`` comments dropped."""
    blocks = re.findall(r"^```\n(.*?)^```", _section("CLI"), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("burstlink ")]


def _expand(arg: str) -> list[str]:
    if "*" not in arg:
        return [arg]
    matches = sorted(glob.glob(arg))
    assert matches, f"{arg} matches no file"
    return matches


def test_every_cli_example_runs(tmp_path, monkeypatch, capsys):
    commands = _cli_commands()
    assert [c[0] for c in commands] == ["sim", "sim", "sweep", "report", "validate-sigmf"]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main([a for arg in argv for a in _expand(arg)]) == 0, argv
        assert capsys.readouterr().err == "", argv
    # The README's comment on the report line.
    assert (tmp_path / "results2.csv").read_bytes() == (tmp_path / "results.csv").read_bytes()


def test_every_flag_the_cli_section_names_exists():
    # ``--k`` stands for any config key.
    parser = build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        o for sub in subcommands.choices.values() for a in sub._actions for o in a.option_strings
    }
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _section("CLI"))) - {"--k"}
    assert named, "the CLI section names no flag"
    assert named <= options, sorted(named - options)


def test_receive_example_yields_the_payload():
    (snippet,) = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert "receive_frames(samples" in snippet
    cfg = FrameConfig(pilot_reps=4, modulation=16)
    payload = np.random.default_rng(3).bytes(cfg.payload_bytes)
    samples = transmit_burst(assemble_frames([crc_attach(payload)], cfg), PulseShapeConfig())
    scope = {"np": np, "framing": framing, "sync": sync, "receive_frames": receive_frames,
             "samples": samples, "cfg": cfg}
    exec(snippet, scope)
    assert scope["data"] == payload
