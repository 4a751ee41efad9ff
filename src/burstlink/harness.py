"""Experiment orchestration: trials, sweeps, persistence, SigMF metadata.

A trial transmits a burst of back-to-back frames through one channel
profile and aggregates the receiver's per-frame measurements. A sweep runs
one trial per (profile, modulation, pilot_reps, trial) cell with seeds
derived from the master seed and the cell coordinates, so results are
byte-identical no matter how many workers execute them.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import groupby, islice
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ChannelProfile, apply_channel
from .config import SweepSpec, channel_profile_to_kv
from .framing import FrameConfig, assemble_frames, block_indices, crc_attach
from .metrics import FrameEvents, TrialResult, aggregate_events
from .sync import FAILURE_KINDS, OUTCOMES, DetectorConfig, receive_frames
from .waveform import PulseShapeConfig, shape_and_upsample

_PAYLOAD_STREAM = 0x50


def generate_payload(byte_count: int, seed) -> bytes:
    """Deterministic pseudo-random payload bytes."""
    if byte_count < 0:
        raise ValueError("byte_count must be >= 0")
    if byte_count == 0:
        return b""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, byte_count, dtype=np.uint8).tobytes()


def _derive_seed(parts: list[int]) -> int:
    ss = np.random.SeedSequence([p & 0x7FFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def transmit_burst(frames_symbols: np.ndarray, pulse: PulseShapeConfig) -> np.ndarray:
    """Shape (F, S) frames, one per row, back to back at unit average power."""
    shaped = shape_and_upsample(np.reshape(frames_symbols, -1), pulse)
    return shaped * math.sqrt(pulse.interpolation)


@dataclass(frozen=True)
class TrialRun:
    """A trial's aggregate result plus its per-frame event log."""

    result: TrialResult
    events: FrameEvents
    rx_stream: np.ndarray | None = None


# The trial snapshot each result carries, in event-log column order, with the
# type each value is stored as. Channel columns are the profile's config keys.
# Numeric values are coerced so a snapshot round-tripped through the event log
# serializes identically to a live one.
SNAPSHOT_COLUMNS = {
    "profile_index": int,
    "modulation": int,
    "pilot_reps": int,
    "trial": int,
    "frames": int,
    "symbol_period_s": float,
    "data_bytes_per_frame": int,
    "data_symbols": int,
    "bits_per_symbol": int,
    "frame_airtime_s": float,
    "snr_db": float,
    "cfo_hz": float,
    "drift_hz_per_s": float,
    "theta_in_rad": float,
    "coherence_symbols": float,
    "fading": str,
    "rician_k": float,
    "freq_walk_std_hz": float,
}


def _config_snapshot(
    cfg: FrameConfig,
    profile: ChannelProfile,
    frames: int,
    symbol_period_s: float,
    profile_index: int = 0,
    trial: int = 0,
) -> dict:
    values = channel_profile_to_kv(profile)
    values.update(
        profile_index=profile_index,
        modulation=cfg.modulation,
        pilot_reps=cfg.pilot_reps,
        trial=trial,
        frames=frames,
        symbol_period_s=symbol_period_s,
        data_bytes_per_frame=cfg.payload_bytes,
        data_symbols=cfg.data_symbols,
        bits_per_symbol=cfg.bits_per_symbol,
        frame_airtime_s=cfg.total_symbols * symbol_period_s,
    )
    return {column: kind(values[column]) for column, kind in SNAPSHOT_COLUMNS.items()}


def run_trial_events(
    cfg: FrameConfig,
    profile: ChannelProfile,
    frames: int,
    seed: int,
    detector: DetectorConfig = DetectorConfig(),
    pulse: PulseShapeConfig = PulseShapeConfig(),
    symbol_period_s: float = 1e-6,
    profile_index: int = 0,
    trial: int = 0,
    capture_stream: bool = False,
) -> TrialRun:
    """Transmit ``frames`` back-to-back frames, receive each, and aggregate.

    The channel runs continuously over the whole burst stream: fading epochs
    and the oscillator trajectory straddle frame boundaries the way they
    would on air. Duration is airtime, frames times symbols times the symbol
    period.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if not 0.0 < symbol_period_s < math.inf:
        raise ValueError(f"symbol_period_s must be finite and positive, got {symbol_period_s}")
    payloads = [
        generate_payload(cfg.payload_bytes, [seed, _PAYLOAD_STREAM, k])
        for k in range(frames)
    ]
    frame_syms = assemble_frames([crc_attach(p) for p in payloads], cfg)
    tx = transmit_burst(frame_syms, pulse)

    n_signal = frame_syms.size * pulse.interpolation
    half_delay = (pulse.tap_count - 1) // 2
    occupied = slice(half_delay, half_delay + n_signal)
    trial_profile = replace(profile, seed=_derive_seed([profile.seed, seed]))
    rx, _ = apply_channel(
        tx,
        trial_profile,
        symbol_period_s / pulse.interpolation,
        samples_per_symbol=pulse.interpolation,
        occupied=occupied,
    )

    # Window k is rx[k*span : (k+1)*span + tail], overlapping the next by the
    # filter tail; the stream holds exactly frames*span + tail samples.
    span = cfg.total_symbols * pulse.interpolation
    windows = sliding_window_view(rx, span + pulse.tap_count - 1)[::span]
    batch = receive_frames(windows, cfg, detector, pulse, symbol_period_s)

    # Energies are row sums over the (F, data_symbols) arrays; a frame that
    # never reached the demapper logs zeros.
    tx_data = np.take(frame_syms, block_indices(cfg)[1], axis=1)
    demapped = batch.demapped

    def energy(z: np.ndarray) -> tuple[float, ...]:
        return tuple(np.where(demapped, np.sum(np.abs(z) ** 2, axis=-1), 0.0).tolist())

    failures = ("",) + FAILURE_KINDS
    events = FrameEvents(
        tuple(range(frames)),
        tuple(batch.detected.tolist()),
        tuple(batch.crc_ok.tolist()),
        tuple(failures[code] for code in batch.failure.tolist()),
        energy(batch.equalized - tx_data),
        energy(tx_data),
        energy(batch.equalized - batch.decisions),
        energy(batch.decisions),
        tuple(np.where(demapped, cfg.data_symbols, 0).tolist()),
        tuple(batch.estimate.residual_freq_hz.tolist()),
        tuple(batch.estimate.mean_residual_phase_deg.tolist()),
    )

    snapshot = _config_snapshot(
        cfg, profile, frames, symbol_period_s, profile_index, trial
    )
    result = aggregate_events(events, snapshot, seed)
    return TrialRun(result=result, events=events, rx_stream=rx if capture_stream else None)


def _sweep_jobs(spec: SweepSpec) -> list[dict]:
    jobs = []
    for prof_idx, profile in enumerate(spec.profiles):
        for modulation in spec.modulations:
            for lam in spec.lambda_list:
                for trial in range(spec.trials_per_cell):
                    jobs.append(
                        {
                            "cfg": spec.frame_config(lam, modulation),
                            "profile": profile,
                            "frames": spec.frames_per_trial,
                            "seed": _derive_seed(
                                [spec.master_seed, prof_idx, modulation, lam, trial]
                            ),
                            "detector": spec.detector,
                            "pulse": spec.pulse,
                            "symbol_period_s": spec.symbol_period_s,
                            "profile_index": prof_idx,
                            "trial": trial,
                        }
                    )
    return jobs


def _run_job(job: dict) -> TrialRun:
    return run_trial_events(**job)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[TrialRun]:
    """Execute the full grid. Results are ordered by cell enumeration and do
    not depend on the worker count."""
    jobs = _sweep_jobs(spec)
    if workers <= 1:
        return [_run_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))


# ---------------------------------------------------------------------------
# CSV persistence. Column orders are frozen; floats use repr() so identical
# results serialize to identical bytes.
# ---------------------------------------------------------------------------

# Each results column is a failure count (``_FAILURE_COLUMNS``), a snapshot key
# or a TrialResult field; ``_result_cell`` looks it up in that order.
RESULT_COLUMNS = (
    "profile_index",
    "modulation",
    "pilot_reps",
    "trial",
    "seed",
    "frames_sent",
    "frames_detected",
    "crc_pass",
    "fail_no_training",
    "fail_no_frame",
    "fail_truncated",
    "fail_unequalizable",
    "fail_crc",
    "data_bytes_per_frame",
    "duration_s",
    "goodput_bps",
    "throughput_bps",
    "evm_percent",
    "evm_decision_percent",
    "sinr_db",
    "mean_residual_phase_deg",
    "snr_db",
    "cfo_hz",
    "drift_hz_per_s",
    "coherence_symbols",
    "fading",
    "rician_k",
    "freq_walk_std_hz",
)

_EVENT_FIELDS = tuple(f.name for f in fields(FrameEvents))
# Per-trial event-log columns: the snapshot with the trial seed after "trial".
_TRIAL_COLUMNS = tuple(
    c for col in SNAPSHOT_COLUMNS for c in ((col, "seed") if col == "trial" else (col,))
)
EVENT_COLUMNS = _TRIAL_COLUMNS + _EVENT_FIELDS
_TRIAL_KEY = ("profile_index", "modulation", "pilot_reps", "trial")  # names a trial


def _parse_bool(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _parse_failure(text: str) -> str:
    if text and text not in FAILURE_KINDS:
        raise ValueError(f"unknown failure kind {text!r}")
    return text


_FIELD_PARSERS = {"tuple[int, ...]": int, "tuple[float, ...]": float,
                  "tuple[str, ...]": str, "tuple[bool, ...]": _parse_bool}
_COLUMN_PARSERS = {
    **SNAPSHOT_COLUMNS,
    "seed": int,
    **{f.name: _FIELD_PARSERS[f.type] for f in fields(FrameEvents)},
    "failure": _parse_failure,
}

_FAILURE_COLUMNS = {
    "fail_no_training": "no-training",
    "fail_no_frame": "no-frame",
    "fail_truncated": "truncated",
    "fail_unequalizable": "unequalizable",
    "fail_crc": "crc-fail",
}


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _result_cell(result: TrialResult, column: str):
    if column in _FAILURE_COLUMNS:
        return result.failure_counts.get(_FAILURE_COLUMNS[column], 0)
    if column in result.config:
        return result.config[column]
    return getattr(result, column)


def results_to_csv(results: list[TrialResult]) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for result in results:
        lines.append(",".join(_cell_text(_result_cell(result, c)) for c in RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


def write_results_csv(results: list[TrialResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(results_to_csv(results))


def events_to_csv(runs: list[TrialRun]) -> str:
    lines = [",".join(EVENT_COLUMNS)]
    for run in runs:
        trial_row = dict(run.result.config, seed=run.result.seed)
        prefix = "".join(_cell_text(trial_row[c]) + "," for c in _TRIAL_COLUMNS)
        columns = (map(_cell_text, getattr(run.events, name)) for name in _EVENT_FIELDS)
        lines.extend(prefix + ",".join(cells) for cells in zip(*columns))
    return "\n".join(lines) + "\n"


def write_events_csv(runs: list[TrialRun], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(events_to_csv(runs))


def read_events_csv(path: str) -> list[tuple[dict, int, FrameEvents]]:
    """Parse an event log into one ``(snapshot, seed, events)`` per trial, in
    first-appearance order, each trial's frames in index order. A missing
    header, a row with the wrong cell count, a cell that does not parse, or a
    row whose outcome cells contradict each other or whose trial columns
    differ from its trial's first row raises ``ValueError`` naming the first
    such line (and the column, for a cell); a trial whose frame indices are not
    ``range(frames)`` names the trial and its first missing or repeated frame."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next((n for n, line in enumerate(lines, 1) if line), None)
    if start is None:
        raise ValueError(f"{path} line 1: empty event log, expected a header")
    if tuple(lines[start - 1].split(",")) != EVENT_COLUMNS:
        raise ValueError(f"{path} line {start}: unrecognized event log header")
    try:
        trials = _read_trials(filter(None, lines[start:]))
    except ValueError:
        # Some row is at fault: read the rows one at a time to name the first.
        first_rows: dict[tuple, tuple[int, list[str]]] = {}
        for lineno, line in filter(itemgetter(1), enumerate(lines[start:], start + 1)):
            try:
                [(snapshot, _, _)] = _read_trials([line])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}{exc}") from None
            key, cells = tuple(snapshot[c] for c in _TRIAL_KEY), line.split(",")
            first, was = first_rows.setdefault(key, (lineno, cells))
            for column, a, b in zip(_TRIAL_COLUMNS, was, cells):
                if a != b:
                    raise ValueError(
                        f"{path} line {lineno}, column {column}: {b!r} differs from {a!r} "
                        f"on line {first}, a row of the same trial"
                    ) from None
        raise
    for snapshot, _, events in trials:
        if events.frame_index != tuple(range(frames := snapshot["frames"])):
            # The first index that leaves 0, 1, ...; ``frames`` after the last
            # row stands for a trial that ends early.
            k, i = next((k, i) for k, i in enumerate(events.frame_index + (frames,))
                        if i != k or i >= frames)
            if k < i <= frames:
                fault = f"frame {k} is missing"
            elif 0 <= i < k:
                fault = f"frame {i} is repeated"
            else:
                fault = f"frame index {i} is outside a trial of {frames} frames"
            key = ", ".join(f"{c} {snapshot[c]}" for c in _TRIAL_KEY)
            raise ValueError(f"{path}: trial {key}: {fault}")
    return trials


def _read_trials(lines) -> list[tuple[dict, int, FrameEvents]]:
    """Parse each trial's column text once and its event cells a column at a
    time. A fault raises ``ValueError`` with the message after its line number."""
    # Group whole lines and split a trial's rows only while parsing that trial.
    by_trial: dict[str, list[str]] = {}
    for text, group in groupby(lines, lambda line: line.rsplit(",", len(_EVENT_FIELDS))[0]):
        by_trial.setdefault(text, []).extend(group)
    trials = []
    for text, group in by_trial.items():
        rows = [line.rsplit(",", len(_EVENT_FIELDS)) for line in group]
        cells = text.split(",")
        if len(cells) != len(_TRIAL_COLUMNS) or set(map(len, rows)) != {len(_EVENT_FIELDS) + 1}:
            count = len(cells) + len(rows[0]) - 1
            raise ValueError(f": {count} cells, header has {len(EVENT_COLUMNS)}")
        values = _parse_columns(_TRIAL_COLUMNS, zip(cells))
        snapshot = {c: v for c, (v,) in zip(_TRIAL_COLUMNS, values)}
        events = FrameEvents(*_parse_columns(_EVENT_FIELDS, islice(zip(*rows), 1, None)))
        if outcomes := set(zip(events.detected, events.crc_ok, events.failure)) - OUTCOMES:
            d, c, f = outcomes.pop()
            raise ValueError(f": detected {d:d}, crc_ok {c:d} and failure {f!r} contradict"
                             " each other")
        if list(events.frame_index) != sorted(events.frame_index):  # stable, by frame index
            events = FrameEvents(*zip(*sorted(zip(*vars(events).values()), key=itemgetter(0))))
        trials.append((snapshot, snapshot.pop("seed"), events))
    if len({tuple(s[c] for c in _TRIAL_KEY) for s, _, _ in trials}) < len(trials):
        raise ValueError(": trial columns differ between rows of one trial")
    return trials


def _parse_columns(names: tuple[str, ...], columns):
    """Parse each column of cells with its column's parser; a fault names the
    column. A parser other than int or float runs once per distinct cell."""
    for name, cells in zip(names, columns):
        parse = _COLUMN_PARSERS[name]
        try:
            if parse is not int and parse is not float:
                parse = {text: parse(text) for text in set(cells)}.__getitem__
            yield tuple(map(parse, cells))
        except ValueError as exc:
            raise ValueError(f", column {name}: {exc}") from None


def results_from_event_rows(trials: list[tuple[dict, int, FrameEvents]]) -> list[TrialResult]:
    """Aggregate each trial ``read_events_csv`` returns, in its order."""
    return [aggregate_events(events, snapshot, seed) for snapshot, seed, events in trials]


def goodput_improvement_table(results: list[TrialResult]) -> dict[int, dict]:
    """Per-modulation gain from one pilot repetition to the best setting.

    Averages goodput over trials per (modulation, pilot_reps) cell, then
    reports the best cell and its percent improvement over pilot_reps=1.
    """
    cells: dict[tuple[int, int], list[float]] = {}
    for result in results:
        key = (result.config["modulation"], result.config["pilot_reps"])
        cells.setdefault(key, []).append(result.goodput_bps)
    means = {key: sum(v) / len(v) for key, v in cells.items()}

    table: dict[int, dict] = {}
    for modulation in sorted({mod for mod, _ in means}):
        by_reps = {reps: g for (mod, reps), g in means.items() if mod == modulation}
        if 1 not in by_reps:
            continue
        base = by_reps[1]
        best_reps = max(by_reps, key=lambda r: (by_reps[r], -r))
        gain = (by_reps[best_reps] - base) / base * 100.0 if base > 0 else math.inf
        table[modulation] = {
            "baseline_bps": base,
            "best_pilot_reps": best_reps,
            "best_bps": by_reps[best_reps],
            "gain_percent": gain,
        }
    return table


# ---------------------------------------------------------------------------
# SigMF metadata
# ---------------------------------------------------------------------------

SIGMF_DATATYPE = "cf32_le"

REQUIRED_EXPERIMENT_FIELDS = (
    "experiment:modulation",
    "experiment:pilot_repetitions",
    "experiment:altitude_m",
    "experiment:link_distance_m",
    "experiment:environment",
)


def emit_sigmf(
    result: TrialResult,
    sample_rate_hz: float,
    environment: str | None = None,
    altitude_m: float | None = None,
    link_distance_m: float | None = None,
    sample_count: int | None = None,
) -> dict:
    """SigMF-style metadata document for one trial recording.

    Modulation, pilot repetitions and the default sample count (the trial's
    frames at ``sample_rate_hz``) come from the trial snapshot. The experiment
    fields are always present; unknown values serialize as null. The document
    round-trips through JSON unchanged.
    """
    cfg = result.config
    modulation, pilot_reps = cfg["modulation"], cfg["pilot_reps"]
    if sample_count is None:
        frame_symbols = round(cfg["frame_airtime_s"] / cfg["symbol_period_s"])
        samples_per_symbol = int(round(sample_rate_hz * cfg["symbol_period_s"]))
        sample_count = result.frames_sent * frame_symbols * samples_per_symbol
    global_block = {
        "core:datatype": SIGMF_DATATYPE,
        "core:sample_rate": sample_rate_hz,
        "core:version": "1.0.0",
        "core:description": (
            f"{modulation}QAM burst link trial, {pilot_reps} pilot "
            f"repetitions, {result.frames_sent} frames"
        ),
        "core:num_channels": 1,
        "experiment:modulation": f"{modulation}qam",
        "experiment:pilot_repetitions": pilot_reps,
        "experiment:altitude_m": altitude_m,
        "experiment:link_distance_m": link_distance_m,
        "experiment:environment": environment,
        "experiment:snr_db": _json_float(cfg["snr_db"]),
        "experiment:cfo_hz": cfg["cfo_hz"],
        "experiment:seed": result.seed,
        "experiment:goodput_bps": result.goodput_bps,
        "experiment:throughput_bps": result.throughput_bps,
        "experiment:evm_percent": _json_float(result.evm_percent),
        "experiment:mean_residual_phase_deg": _json_float(
            result.mean_residual_phase_deg
        ),
    }
    captures = [{"core:sample_start": 0}]
    annotations = [
        {
            "core:sample_start": 0,
            "core:sample_count": sample_count,
            "core:label": f"{modulation}qam-p{pilot_reps}",
        }
    ]
    return {"global": global_block, "captures": captures, "annotations": annotations}


def _json_float(value):
    """JSON has no inf/nan; encode those as strings, keep numbers as-is."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def sigmf_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def validate_sigmf(doc: dict) -> list[str]:
    """Structural checks; returns a list of problems, empty when valid."""
    problems = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    glob = doc.get("global")
    if not isinstance(glob, dict):
        problems.append("missing 'global' object")
        glob = {}
    for key in ("core:datatype", "core:sample_rate", "core:version"):
        if key not in glob:
            problems.append(f"missing global field '{key}'")
    for key in REQUIRED_EXPERIMENT_FIELDS:
        if key not in glob:
            problems.append(f"missing experiment field '{key}'")
    if not isinstance(doc.get("captures"), list):
        problems.append("missing 'captures' list")
    if not isinstance(doc.get("annotations"), list):
        problems.append("missing 'annotations' list")
    return problems


def write_sigmf(doc: dict, path: str) -> None:
    problems = validate_sigmf(doc)
    if problems:
        raise ValueError("refusing to write invalid SigMF: " + "; ".join(problems))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sigmf_to_json(doc))


def run_id(result: TrialResult) -> str:
    cfg = result.config
    return (
        f"run-p{cfg['profile_index']}-{cfg['modulation']}qam"
        f"-l{cfg['pilot_reps']}-t{cfg['trial']}"
    )


def write_cf32(samples: np.ndarray, path: str) -> None:
    """Raw I/Q dump: interleaved little-endian float32 pairs (cf32_le)."""
    arr = np.asarray(samples, dtype=np.complex64).astype("<c8")
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())


def read_cf32(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return np.frombuffer(fh.read(), dtype="<c8").astype(np.complex64)
