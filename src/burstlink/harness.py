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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ChannelProfile, apply_channel
from .config import SweepSpec, channel_profile_to_kv
from .framing import FrameConfig, assemble_frame, block_indices, crc_attach
from .metrics import FrameEvent, TrialResult, aggregate_events
from .sync import FAILURE_KINDS, DetectorConfig, receive_frames
from .waveform import ComplexBuffer, PulseShapeConfig, shape_and_upsample

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


def transmit_burst(
    frames_symbols: list[np.ndarray],
    pulse: PulseShapeConfig,
    symbol_period_s: float,
) -> ComplexBuffer:
    """Shape a back-to-back burst of frames at unit average power."""
    stream = np.concatenate(frames_symbols)
    shaped = shape_and_upsample(stream, pulse, symbol_period_s)
    return ComplexBuffer(
        shaped.samples * math.sqrt(pulse.interpolation), shaped.sample_period
    )


@dataclass(frozen=True)
class TrialRun:
    """A trial's aggregate result plus its per-frame event log."""

    result: TrialResult
    events: list[FrameEvent]
    rx_stream: ComplexBuffer | None = None


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
    detector: DetectorConfig | None = None,
    pulse: PulseShapeConfig | None = None,
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
    detector = detector or DetectorConfig()
    pulse = pulse or PulseShapeConfig()
    payloads = [
        generate_payload(cfg.payload_bytes, [seed, _PAYLOAD_STREAM, k])
        for k in range(frames)
    ]
    frame_syms = [assemble_frame(crc_attach(p), cfg) for p in payloads]
    tx = transmit_burst(frame_syms, pulse, symbol_period_s)

    n_signal = len(frame_syms) * cfg.total_symbols * pulse.interpolation
    half_delay = (pulse.tap_count - 1) // 2
    occupied = slice(half_delay, half_delay + n_signal)
    trial_profile = replace(profile, seed=_derive_seed([profile.seed, seed]))
    rx, _ = apply_channel(
        tx, trial_profile, samples_per_symbol=pulse.interpolation, occupied=occupied
    )

    # Window k is rx.samples[k*span : (k+1)*span + tail], overlapping the next by
    # the filter tail; the stream holds exactly frames*span + tail samples.
    span = cfg.total_symbols * pulse.interpolation
    windows = sliding_window_view(rx.samples, span + pulse.tap_count - 1)[::span]
    batch = receive_frames(ComplexBuffer(windows, rx.sample_period), cfg, detector, pulse)

    # Energies are row sums over the (F, data_symbols) arrays; a frame that
    # never reached the demapper logs zeros.
    tx_data = np.take(np.stack(frame_syms), block_indices(cfg)[1], axis=1)
    demapped = batch.demapped

    def energy(z: np.ndarray) -> list[float]:
        return np.where(demapped, np.sum(np.abs(z) ** 2, axis=-1), 0.0).tolist()

    failures = ("",) + FAILURE_KINDS
    events = [
        FrameEvent(*cells)
        for cells in zip(
            range(frames),
            batch.detected.tolist(),
            batch.crc_ok.tolist(),
            [failures[code] for code in batch.failure.tolist()],
            energy(batch.equalized - tx_data),
            energy(tx_data),
            energy(batch.equalized - batch.decisions),
            energy(batch.decisions),
            np.where(demapped, cfg.data_symbols, 0).tolist(),
            batch.estimate.residual_freq_hz.tolist(),
            batch.estimate.mean_residual_phase_deg.tolist(),
        )
    ]

    snapshot = _config_snapshot(
        cfg, profile, frames, symbol_period_s, profile_index, trial
    )
    result = aggregate_events(
        events,
        data_bytes_per_frame=cfg.payload_bytes,
        data_symbols=cfg.data_symbols,
        bits_per_symbol=cfg.bits_per_symbol,
        frame_airtime_s=cfg.total_symbols * symbol_period_s,
        config=snapshot,
        seed=seed,
    )
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

_EVENT_FIELDS = tuple(f.name for f in fields(FrameEvent))
# Per-trial event-log columns: the snapshot with the trial seed after "trial".
_TRIAL_COLUMNS = tuple(
    c for col in SNAPSHOT_COLUMNS for c in ((col, "seed") if col == "trial" else (col,))
)
EVENT_COLUMNS = _TRIAL_COLUMNS + _EVENT_FIELDS

_FIELD_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda text: text == "1"}
_COLUMN_PARSERS = {
    **SNAPSHOT_COLUMNS,
    "seed": int,
    **{f.name: _FIELD_PARSERS[f.type] for f in fields(FrameEvent)},
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


def result_row(result: TrialResult) -> dict:
    row = dict(result.config)
    row.update(
        seed=result.seed,
        frames_sent=result.frames_sent,
        frames_detected=result.frames_detected,
        crc_pass=result.crc_pass,
        duration_s=result.duration_s,
        goodput_bps=result.goodput_bps,
        throughput_bps=result.throughput_bps,
        evm_percent=result.evm_percent,
        evm_decision_percent=result.evm_decision_percent,
        sinr_db=result.sinr_db,
        mean_residual_phase_deg=result.mean_residual_phase_deg,
    )
    for column, kind in _FAILURE_COLUMNS.items():
        row[column] = result.failure_counts.get(kind, 0)
    return row


def results_to_csv(results: list[TrialResult]) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for result in results:
        row = result_row(result)
        lines.append(",".join(_cell_text(row[c]) for c in RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


def write_results_csv(results: list[TrialResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(results_to_csv(results))


def events_to_csv(runs: list[TrialRun]) -> str:
    lines = [",".join(EVENT_COLUMNS)]
    for run in runs:
        trial_row = dict(run.result.config, seed=run.result.seed)
        prefix = ",".join(_cell_text(trial_row[c]) for c in _TRIAL_COLUMNS)
        for event in run.events:
            cells = (_cell_text(getattr(event, name)) for name in _EVENT_FIELDS)
            lines.append(prefix + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def write_events_csv(runs: list[TrialRun], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(events_to_csv(runs))


def read_events_csv(path: str) -> list[dict]:
    """Parse an event log; a missing header, a row whose cell count differs
    from the header's or a cell that does not parse raises ``ValueError``
    naming the line (and the column, for a cell)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((n, ln) for n, ln in enumerate(fh.read().splitlines(), 1) if ln)
    header = next(lines, None)
    if header is None:
        raise ValueError(f"{path} line 1: empty event log, expected a header")
    if tuple(header[1].split(",")) != EVENT_COLUMNS:
        raise ValueError(f"{path} line {header[0]}: unrecognized event log header")
    parsers = [_COLUMN_PARSERS[c] for c in EVENT_COLUMNS]
    rows = []
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != len(EVENT_COLUMNS):
            raise ValueError(
                f"{path} line {lineno}: {len(cells)} cells, header has {len(EVENT_COLUMNS)}"
            )
        try:
            rows.append({c: parse(v) for c, parse, v in zip(EVENT_COLUMNS, parsers, cells)})
        except ValueError:
            for c, parse, v in zip(EVENT_COLUMNS, parsers, cells):
                try:
                    parse(v)
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}, column {c}: {exc}") from None
            raise
    return rows


def results_from_event_rows(rows: list[dict]) -> list[TrialResult]:
    """Re-aggregate trial results from a persisted event log.

    Grouping preserves first-appearance order, so a log written by
    ``write_events_csv`` reproduces the live result rows exactly.
    """
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for row in rows:
        key = (row["profile_index"], row["modulation"], row["pilot_reps"], row["trial"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    results = []
    for key in order:
        group = sorted(groups[key], key=lambda r: r["frame_index"])
        first = group[0]
        events = [FrameEvent(**{name: r[name] for name in _EVENT_FIELDS}) for r in group]
        snapshot = {c: first[c] for c in SNAPSHOT_COLUMNS}
        results.append(
            aggregate_events(
                events,
                data_bytes_per_frame=first["data_bytes_per_frame"],
                data_symbols=first["data_symbols"],
                bits_per_symbol=first["bits_per_symbol"],
                frame_airtime_s=first["frame_airtime_s"],
                config=snapshot,
                seed=first["seed"],
            )
        )
    return results


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
    cfg: FrameConfig,
    sample_rate_hz: float,
    environment: str | None = None,
    altitude_m: float | None = None,
    link_distance_m: float | None = None,
    data_file: str | None = None,
    sample_count: int | None = None,
) -> dict:
    """SigMF-style metadata document for one trial recording.

    The experiment fields are always present; unknown values serialize as
    null. The document round-trips through JSON unchanged.
    """
    global_block = {
        "core:datatype": SIGMF_DATATYPE,
        "core:sample_rate": sample_rate_hz,
        "core:version": "1.0.0",
        "core:description": (
            f"{cfg.modulation}QAM burst link trial, {cfg.pilot_reps} pilot "
            f"repetitions, {result.frames_sent} frames"
        ),
        "core:num_channels": 1,
        "experiment:modulation": f"{cfg.modulation}qam",
        "experiment:pilot_repetitions": cfg.pilot_reps,
        "experiment:altitude_m": altitude_m,
        "experiment:link_distance_m": link_distance_m,
        "experiment:environment": environment,
        "experiment:snr_db": _json_float(result.config.get("snr_db")),
        "experiment:cfo_hz": result.config.get("cfo_hz"),
        "experiment:seed": result.seed,
        "experiment:goodput_bps": result.goodput_bps,
        "experiment:throughput_bps": result.throughput_bps,
        "experiment:evm_percent": _json_float(result.evm_percent),
        "experiment:mean_residual_phase_deg": _json_float(
            result.mean_residual_phase_deg
        ),
    }
    if data_file is not None:
        global_block["core:dataset"] = data_file
    captures = [{"core:sample_start": 0}]
    annotations = [
        {
            "core:sample_start": 0,
            "core:sample_count": sample_count
            if sample_count is not None
            else result.frames_sent
            * cfg.total_symbols
            * int(round(sample_rate_hz * result.config.get("symbol_period_s", 1e-6))),
            "core:label": f"{cfg.modulation}qam-p{cfg.pilot_reps}",
        }
    ]
    return {"global": global_block, "captures": captures, "annotations": annotations}


def _json_float(value):
    """JSON has no inf/nan; encode those as strings, keep numbers as-is."""
    if value is None:
        return None
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
        f"run-p{cfg.get('profile_index', 0)}-{cfg.get('modulation')}qam"
        f"-l{cfg.get('pilot_reps')}-t{cfg.get('trial', 0)}"
    )


def write_cf32(samples: np.ndarray, path: str) -> None:
    """Raw I/Q dump: interleaved little-endian float32 pairs (cf32_le)."""
    arr = np.asarray(samples, dtype=np.complex64).astype("<c8")
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())


def read_cf32(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return np.frombuffer(fh.read(), dtype="<c8").astype(np.complex64)
