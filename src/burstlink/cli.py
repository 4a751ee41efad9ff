"""Command-line front end.

Subcommands:
  sim             run trials of a single (modulation, pilot-reps) cell
  sweep           run a full grid from a config file
  report          recompute trial metrics from a per-frame event log
  validate-sigmf  structural check of SigMF metadata documents
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from operator import itemgetter

from .channel import ChannelProfile
from .config import TEXT_ENCODING, config_keys, load_sweep_config
from .framing import FrameConfig
from .harness import (
    emit_sigmf,
    read_events_csv,
    results_from_event_rows,
    results_to_csv,
    run_id,
    run_sweep,
    run_trial_events,
    validate_sigmf,
    write_cf32,
    write_events_csv,
    write_results_csv,
    write_sigmf,
)
from .sync import DetectorConfig
from .waveform import PulseShapeConfig


def _parse_modulation(text: str) -> int:
    value = text.lower().removesuffix("qam")
    try:
        order = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad modulation {text!r}") from None
    return order


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One ``--key`` flag per config key of ``cls``, stored under the key so
    that ``--channel-seed`` and ``--seed`` stay apart. Unset flags are left
    out of the namespace, and the dataclass supplies their defaults."""
    for key, (_, parse) in config_keys(cls).items():
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=parse, default=argparse.SUPPRESS
        )


def _config_from_args(cls, args: argparse.Namespace):
    values = vars(args)
    return cls(
        **{name: values[key] for key, (name, _) in config_keys(cls).items() if key in values}
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first call; treat it as read-only."""
    parser = argparse.ArgumentParser(
        prog="burstlink",
        description="Burst-mode QAM link simulator with configurable pilot density",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run trials of one configuration cell")
    sim.add_argument("--mod", type=_parse_modulation, default=16)
    sim.add_argument("--pilot-reps", type=int, default=4)
    sim.add_argument("--frames", type=int, default=50)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--symbol-period-s", type=float, default=1e-6)
    sim.add_argument("--out", help="write the result CSV here instead of stdout")
    sim.add_argument("--events-out", help="write the per-frame event log CSV here")
    sim.add_argument("--sigmf-out", help="write SigMF metadata here")
    sim.add_argument("--iq-out", help="dump the received I/Q stream (cf32_le) here")
    sim.add_argument("--environment", default=None)
    sim.add_argument("--altitude-m", type=float, default=None)
    sim.add_argument("--link-distance-m", type=float, default=None)
    _add_config_flags(sim, ChannelProfile)
    _add_config_flags(sim, DetectorConfig)
    sim.set_defaults(run=_cmd_sim)

    sweep = sub.add_parser("sweep", help="run a sweep grid from a config file")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seed", type=int, default=None, help="override master_seed")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--events-out")
    sweep.add_argument("--sigmf-out", help="directory for per-trial SigMF metadata")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--environment", default=None)
    sweep.add_argument("--altitude-m", type=float, default=None)
    sweep.add_argument("--link-distance-m", type=float, default=None)
    sweep.set_defaults(run=_cmd_sweep)

    report = sub.add_parser("report", help="recompute metrics from an event log")
    report.add_argument("events", help="event log CSV written by sim/sweep")
    report.add_argument("--out", help="write the recomputed result CSV here")
    report.set_defaults(run=_cmd_report)

    validate = sub.add_parser("validate-sigmf", help="check SigMF metadata files")
    validate.add_argument("files", nargs="+")
    validate.set_defaults(run=_cmd_validate_sigmf)

    return parser


def _check_experiment_flags(args: argparse.Namespace) -> None:
    """Reject a non-finite SigMF experiment value before any trial runs:
    JSON cannot hold it."""
    for key in ("altitude_m", "link_distance_m"):
        value = getattr(args, key)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")


def _check_output_paths(files: dict[str, str | None], others: dict[str, str | None]) -> None:
    """Before any trial runs, reject two named paths that are one file (by
    inode, or for a path not yet made by ``realpath``), and an output file
    that could not be created. ``files`` maps options to the output files
    they name; ``others`` to inputs and output directories."""
    seen: dict = {}
    for name, path in filter(itemgetter(1), (files | others).items()):
        try:  # an existing file is known by its inode, which hard links share
            stat = os.stat(path)
            key = stat.st_dev, stat.st_ino
        except OSError:
            key = os.path.realpath(path)
        first, first_path = seen.setdefault(key, (name, path))
        if first != name:
            raise ValueError(f"{first} and {name} both name {first_path}")
    for path in filter(None, files.values()):
        if not os.path.isdir(folder := os.path.dirname(path) or "."):
            raise ValueError(f"cannot write {path}: {folder} is not a directory")
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: it is a directory")


def _write_results(results, path: str | None) -> None:
    if path:
        write_results_csv(results, path)
    else:
        sys.stdout.write(results_to_csv(results))


def _cmd_sim(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.trials > 1 and (args.iq_out or args.sigmf_out):
        raise ValueError("--iq-out and --sigmf-out record one trial; use --trials 1")
    _check_experiment_flags(args)
    _check_output_paths(
        {"--out": args.out, "--events-out": args.events_out, "--iq-out": args.iq_out,
         "--sigmf-out": args.sigmf_out},
        {},
    )
    profile = _config_from_args(ChannelProfile, args)
    detector = _config_from_args(DetectorConfig, args)
    cfg = FrameConfig(pilot_reps=args.pilot_reps, modulation=args.mod)
    runs = []
    for trial in range(args.trials):
        seed = args.seed + trial
        runs.append(
            run_trial_events(
                cfg,
                profile,
                args.frames,
                seed,
                detector=detector,
                symbol_period_s=args.symbol_period_s,
                trial=trial,
                capture_stream=bool(args.iq_out or args.sigmf_out),
            )
        )
    _write_results([r.result for r in runs], args.out)
    if args.events_out:
        write_events_csv(runs, args.events_out)
    stream = runs[0].rx_stream
    if args.iq_out:
        write_cf32(stream, args.iq_out)
    if args.sigmf_out:
        doc = emit_sigmf(runs[0].result, PulseShapeConfig().interpolation, args.environment,
                         args.altitude_m, args.link_distance_m, len(stream))
        write_sigmf(doc, args.sigmf_out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    _check_experiment_flags(args)
    spec = load_sweep_config(args.config)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    _check_output_paths(
        {"--out": args.out, "--events-out": args.events_out},
        {"--sigmf-out": args.sigmf_out, "--config": args.config},
    )
    if args.sigmf_out:
        os.makedirs(args.sigmf_out, exist_ok=True)
    runs = run_sweep(spec, workers=args.workers)
    write_results_csv([r.result for r in runs], args.out)
    if args.events_out:
        write_events_csv(runs, args.events_out)
    if args.sigmf_out:
        for run in runs:
            path = os.path.join(args.sigmf_out, run_id(run.result) + ".sigmf-meta")
            doc = emit_sigmf(run.result, spec.pulse.interpolation, args.environment,
                             args.altitude_m, args.link_distance_m)
            write_sigmf(doc, path)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _check_output_paths({"--out": args.out}, {"the event log": args.events})
    _write_results(results_from_event_rows(read_events_csv(args.events)), args.out)
    return 0


def _cmd_validate_sigmf(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        try:
            with open(path, "r", encoding=TEXT_ENCODING) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = 1
            continue
        problems = validate_sigmf(doc)
        if problems:
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: ok")
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
