"""Experiment orchestration: trials, sweeps, persistence, SigMF metadata.

A trial transmits a burst of back-to-back frames through one channel
profile and aggregates the receiver's per-frame measurements. A sweep runs
one trial per (profile, modulation, pilot_reps, trial) cell with seeds
derived from the master seed and the cell coordinates, so results are
byte-identical no matter how many workers execute them.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import sys
import threading
from dataclasses import dataclass, fields, replace
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import get_args, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ChannelProfile, apply_channel, noise_draw
from .config import SweepSpec, channel_profile_to_kv, config_keys, read_text
from .framing import CRC_BYTES, FrameConfig, assemble_frames, block_indices, crc_attach
from .metrics import FrameEvents, TrialResult, aggregate_events
from .sync import FAILURE_KINDS, OUTCOMES, DetectorConfig, receive_frames
from .waveform import PulseShapeConfig, shape_and_upsample

_PAYLOAD_STREAM = 0x50


def generate_payload(byte_count: int, seed) -> bytes:
    """Deterministic pseudo-random payload bytes: the raw PCG64 words of
    ``seed``, little-endian, which are ``default_rng(seed).integers(0, 256,
    byte_count, dtype=np.uint8)`` (each word's low half first, each half's
    low byte first) without the generator's per-call cost."""
    if byte_count < 0:
        raise ValueError("byte_count must be >= 0")
    words = np.random.PCG64(seed).random_raw(-(-byte_count // 8))
    return words.astype("<u8", copy=False).tobytes()[:byte_count]


def _derive_seed(parts: list[int]) -> int:
    ss = np.random.SeedSequence([p & 0x7FFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


# glibc's mallopt parameter numbers, from <malloc.h>.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory() -> None:
    """Pin glibc's heap thresholds once per process: blocks under 32 MiB come
    from the heap, and up to 64 MiB of free heap top is kept. Under glibc's
    dynamic thresholds, where a trial's arrays land, and so its page faults
    and speed, depends on what the process allocated before; setting both
    turns them off. Does nothing where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _fill(draw, out: np.ndarray, raised: list) -> None:
    """``draw(out=out)`` on the noise helper, keeping its exception in ``raised``."""
    try:
        draw(out=out)
    except BaseException as exc:
        raised.append(exc)


def transmit_burst(frames_symbols: np.ndarray, pulse: PulseShapeConfig) -> np.ndarray:
    """Shape (F, S) frames, one per row, back to back at unit average power."""
    shaped = shape_and_upsample(frames_symbols, pulse)
    return shaped * math.sqrt(pulse.interpolation)


@dataclass(frozen=True)
class TrialRun:
    """A trial's aggregate result plus its per-frame event log, live or read
    back by ``read_events_csv``; only a live trial can carry its ``rx_stream``."""

    result: TrialResult
    events: FrameEvents
    rx_stream: np.ndarray | None = None


# The trial snapshot each result carries, in event-log column order, with the
# type each value is stored as. Channel columns are the profile's config keys
# but ``channel_seed``, which each trial replaces with one derived from it.
# Numeric values are coerced so a snapshot round-tripped through the event log
# serializes identically to a live one.
SNAPSHOT_COLUMNS = {
    "profile_index": int,
    "modulation": int,
    "pilot_reps": int,
    "trial": int,
    "seed": int,
    "frames": int,
    "symbol_period_s": float,
    "data_bytes_per_frame": int,
    "data_symbols": int,
    "bits_per_symbol": int,
    "frame_airtime_s": float,
    **{k: parse for k, (_, parse) in config_keys(ChannelProfile).items() if k != "channel_seed"},
}


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
    _keep_freed_memory()
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 < symbol_period_s < math.inf:
        raise ValueError(f"symbol_period_s must be finite and positive, got {symbol_period_s}")
    trial_profile = replace(profile, seed=_derive_seed([profile.seed, seed]))
    n_signal = frames * cfg.total_symbols * pulse.interpolation
    # The noise depends only on the seed, so outside pool workers (whose every
    # core already runs a trial) it is drawn on a helper thread while this
    # one builds and shapes the burst, into a block allocated here. The helper
    # runs only the fill, for which numpy releases the GIL. Every process that
    # multiprocessing starts has it loaded, so a process without it is no worker.
    mp = sys.modules.get("multiprocessing")
    noise = helper = None
    raised: list[BaseException] = []  # the draw's exception, raised here after the join
    if not math.isinf(profile.snr_db) and (mp is None or mp.parent_process() is None):
        noise = np.empty((2, n_signal + pulse.tap_count - 1))  # the TX stream's length
        draw = noise_draw(trial_profile.seed)
        helper = threading.Thread(target=_fill, args=(draw, noise, raised))
        helper.start()
    try:
        payloads = [
            generate_payload(cfg.payload_bytes, [seed, _PAYLOAD_STREAM, k])
            for k in range(frames)
        ]
        frame_syms = assemble_frames([crc_attach(p) for p in payloads], cfg)
        tx = transmit_burst(frame_syms, pulse)
    finally:
        if helper is not None:
            helper.join()
    if raised:
        raise raised[0]

    half_delay = (pulse.tap_count - 1) // 2
    occupied = slice(half_delay, half_delay + n_signal)
    rx, _ = apply_channel(
        tx,
        trial_profile,
        symbol_period_s / pulse.interpolation,
        samples_per_symbol=pulse.interpolation,
        occupied=occupied,
        noise=noise,
    )
    del noise  # free the block before the receive stage, the trial's memory peak

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
        tuple(batch.residual_freq_hz.tolist()),
        tuple(batch.mean_residual_phase_deg.tolist()),
    )

    values = channel_profile_to_kv(profile)
    values.update(
        profile_index=profile_index,
        modulation=cfg.modulation,
        pilot_reps=cfg.pilot_reps,
        trial=trial,
        seed=seed,
        frames=frames,
        symbol_period_s=symbol_period_s,
        data_bytes_per_frame=cfg.payload_bytes,
        data_symbols=cfg.data_symbols,
        bits_per_symbol=cfg.bits_per_symbol,
        frame_airtime_s=cfg.total_symbols * symbol_period_s,
    )
    snapshot = {column: kind(values[column]) for column, kind in SNAPSHOT_COLUMNS.items()}
    result = aggregate_events(events, snapshot)
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
    workers = min(workers, len(jobs))  # a pool forks all its workers at the first submit
    if workers <= 1:
        return [_run_job(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pools only

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))


# ---------------------------------------------------------------------------
# CSV persistence. Column orders are frozen; a cell's text follows its column's
# declared type and floats use repr(), so equal results serialize to equal bytes.
# ---------------------------------------------------------------------------

_FAILURE_COLUMNS = {
    "fail_no_training": "no-training",
    "fail_no_frame": "no-frame",
    "fail_truncated": "truncated",
    "fail_unequalizable": "unequalizable",
    "fail_crc": "crc-fail",
}

# Each results column is a failure count (``_FAILURE_COLUMNS``), a snapshot key
# or a TrialResult field, and never two of them (``_result_cells``).
RESULT_COLUMNS = (
    "profile_index",
    "modulation",
    "pilot_reps",
    "trial",
    "seed",
    "frames_sent",
    "frames_detected",
    "crc_pass",
    *_FAILURE_COLUMNS,
    "data_bytes_per_frame",
    "duration_s",
    "goodput_bps",
    "throughput_bps",
    "evm_percent",
    "evm_decision_percent",
    "sinr_db",
    "mean_residual_phase_deg",
    *(key for key in config_keys(ChannelProfile) if key not in (
        "channel_seed",  # each trial replaces it with one derived from it and the trial seed
        "theta_in_rad",  # a new column moves the CSV's bytes: it waits for a digest re-record
    )),
)

_EVENT_FIELDS = tuple(f.name for f in fields(FrameEvents))
_TRIAL_COLUMNS = tuple(SNAPSHOT_COLUMNS)  # a trial's columns in the event log
EVENT_COLUMNS = _TRIAL_COLUMNS + _EVENT_FIELDS
_TRIAL_KEY = ("profile_index", "modulation", "pilot_reps", "trial")  # names a trial


class _CellTable(dict):
    """Cell text -> value; any other text raises ``ValueError``: ``fault``, then its repr."""

    def __init__(self, values: dict, fault: str) -> None:
        super().__init__(values)
        self.fault = fault

    def __missing__(self, text: str):
        raise ValueError(f"{self.fault} {text!r}")


_BITS = _CellTable({"0": False, "1": True}, "expected 0 or 1, got")
_FAILURES = _CellTable({k: k for k in ("",) + FAILURE_KINDS}, "unknown failure kind")
# Each cell type's text form and parser. A float cell is the repr() of the value
# as a float, so a numpy scalar is written as the number it holds. ``str`` parses
# as a failure kind; the snapshot's ``fading`` keeps its ``SNAPSHOT_COLUMNS`` parser.
_CODECS = {int: (str, int), float: (lambda value: repr(float(value)), float),
           bool: ({False: "0", True: "1"}.__getitem__, _BITS.__getitem__),
           str: (str, _FAILURES.__getitem__)}
_EVENT_TEXTS, _EVENT_PARSERS = zip(
    *(_CODECS[get_args(hint)[0]] for hint in get_type_hints(FrameEvents).values()))
_TRIAL_TEXTS = {column: _CODECS[kind][0] for column, kind in SNAPSHOT_COLUMNS.items()}
_RESULT_TYPES = {**dict.fromkeys(_FAILURE_COLUMNS, int), **SNAPSHOT_COLUMNS,
                 **get_type_hints(TrialResult)}
_RESULT_TEXTS = {column: _CODECS[_RESULT_TYPES[column]][0] for column in RESULT_COLUMNS}
_ENERGY_FIELDS = {"err_energy_tx", "ref_energy_tx", "err_energy_dec", "sig_energy_dec"}


def _result_cells(result: TrialResult) -> dict:
    """Each results column's value, by name; the three sources share no name."""
    failures = {c: result.failure_counts.get(kind, 0) for c, kind in _FAILURE_COLUMNS.items()}
    return {**result.config, **vars(result), **failures}


def results_to_csv(results: list[TrialResult]) -> str:
    rows = ([text(cells[c]) for c, text in _RESULT_TEXTS.items()]
            for cells in map(_result_cells, results))
    return "\n".join([",".join(RESULT_COLUMNS), *map(",".join, rows)]) + "\n"


def write_results_csv(results: list[TrialResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(results_to_csv(results))


def events_to_csv(runs: list[TrialRun]) -> str:
    lines = [",".join(EVENT_COLUMNS)]
    for run in runs:
        prefix = "".join(text(run.result.config[c]) + "," for c, text in _TRIAL_TEXTS.items())
        columns = map(map, _EVENT_TEXTS, vars(run.events).values())  # each column's cell texts
        lines.extend(prefix + ",".join(cells) for cells in zip(*columns))
    return "\n".join(lines) + "\n"


def write_events_csv(runs: list[TrialRun], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(events_to_csv(runs))


def read_events_csv(path: str) -> list[TrialRun]:
    """Replay an event log as one ``TrialRun`` per trial, in first-appearance
    order, each trial's frames in index order and its result aggregated from
    them; a replayed run has no ``rx_stream``. A missing header, a row with the
    wrong cell count, a cell that does not parse or an energy below 0, or a row
    whose outcome cells contradict each other or whose trial columns differ
    from its trial's first row raises ``ValueError`` naming the first such line
    (and the column, for a cell); a trial whose frame indices are not
    ``range(frames)`` names the trial and its first missing or repeated frame.
    A trial no run logs (``_read_trials``) names the first line at fault and the column.
    Lines end at ``"\\n"`` alone."""
    lines = read_text(path).split("\n")
    start = next((n for n, line in enumerate(lines, 1) if line), None)
    if start is None:
        raise ValueError(f"{path} line 1: empty event log, expected a header")
    if tuple(lines[start - 1].split(",")) != EVENT_COLUMNS:
        raise ValueError(f"{path} line {start}: unrecognized event log header")
    try:
        trials = _read_trials(filter(None, lines[start:]))
    except ValueError:
        # Some row is at fault: read the rows one at a time to name the first. A row's
        # cells must parse, then its trial columns match its trial's first row, and
        # then its trial must be one that a run logs.
        first_rows: dict[tuple, tuple[int, list[str]]] = {}
        for lineno, line in filter(itemgetter(1), enumerate(lines[start:], start + 1)):
            try:
                [(snapshot, _)] = _read_trials([line], check=False)
                key, cells = tuple(snapshot[c] for c in _TRIAL_KEY), line.split(",")
                first, was = first_rows.setdefault(key, (lineno, cells))
                for column, a, b in zip(_TRIAL_COLUMNS, was, cells):
                    if a != b:
                        raise ValueError(f", column {column}: {b!r} differs from {a!r} "
                                         f"on line {first}, a row of the same trial")
                _read_trials([line])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}{exc}") from None
        raise
    for snapshot, events in trials:
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
    return [TrialRun(aggregate_events(events, snapshot), events) for snapshot, events in trials]


def _read_trials(lines, check: bool = True) -> list[tuple[dict, FrameEvents]]:
    """Split each line once and parse each run of a trial's rows as it is read, the trial
    text at its first run, where ``check`` also rejects a trial no run logs: channel
    cells that build no ChannelProfile, frame cells ``_check_frame`` rejects, or an
    ``n_symbols`` other than 0 or ``data_symbols``. A fault raises ``ValueError`` with
    the text after a line number."""
    runs: dict[str, list] = {}  # trial text -> [snapshot, parsers, each run's columns, ...]
    for text, group in groupby((r.rsplit(",", len(_EVENT_FIELDS)) for r in lines), itemgetter(0)):
        rows = list(group)  # a short row's trial text has no comma: one count checks all
        if text not in runs:
            if len(cells := text.split(",")) != len(_TRIAL_COLUMNS):
                raise ValueError(f": {len(cells) + len(rows[0]) - 1} cells, header has "
                                 f"{len(EVENT_COLUMNS)}")
            snapshot = {}
            for (column, parse), cell in zip(SNAPSHOT_COLUMNS.items(), cells):
                try:
                    snapshot[column] = parse(cell)
                except ValueError as exc:
                    raise ValueError(f", column {column}: {exc}") from None
            parsers = _EVENT_PARSERS
            if check:  # each check keeps its verdict for each distinct set of cells
                _check_channel(_CHANNEL_CELLS(snapshot))
                _check_frame(_FRAME_CELLS(snapshot))
                parsers = _event_parsers(snapshot["data_symbols"])
            runs[text] = [snapshot, parsers]
        runs[text].append(tuple(_parse_columns(islice(zip(*rows), 1, None), runs[text][1])))
    trials = []
    for snapshot, _, *parts in runs.values():
        columns = parts[0] if len(parts) == 1 else map(chain.from_iterable, zip(*parts))
        events = FrameEvents(*map(tuple, columns))
        if outcomes := set(zip(events.detected, events.crc_ok, events.failure)) - OUTCOMES:
            d, c, f = outcomes.pop()
            raise ValueError(f": detected {d:d}, crc_ok {c:d} and failure {f!r} contradict"
                             " each other")
        if list(events.frame_index) != sorted(events.frame_index):  # stable, by frame index
            events = FrameEvents(*zip(*sorted(zip(*vars(events).values()), key=itemgetter(0))))
        trials.append((snapshot, events))
    if len({tuple(s[c] for c in _TRIAL_KEY) for s, _ in trials}) < len(trials):
        raise ValueError(": trial columns differ between rows of one trial")
    return trials


# The snapshot columns that build a trial's ChannelProfile (all but ``channel_seed``)
# and its FrameConfig, each with its field, and the frame columns checked together.
_CHANNEL_FIELDS = {k: name for k, (name, _) in config_keys(ChannelProfile).items()
                   if k in SNAPSHOT_COLUMNS}
_FRAME_FIELDS = {"pilot_reps": "pilot_reps", "modulation": "modulation"}
_FRAME_COLUMNS = (*_FRAME_FIELDS, "symbol_period_s", "data_bytes_per_frame", "data_symbols",
                  "bits_per_symbol", "frame_airtime_s")
_CHANNEL_CELLS, _FRAME_CELLS = itemgetter(*_CHANNEL_FIELDS), itemgetter(*_FRAME_COLUMNS)


def _built(cls, columns: dict[str, str], values: dict, **base):
    """``cls`` built from the value of each column (column -> field). Each rule of
    ChannelProfile and FrameConfig reads one field, so a fault names the first column
    that gives it alone, built on ``base``."""
    try:
        return cls(**{name: values[c] for c, name in columns.items()})
    except ValueError as exc:
        fault = f": {exc}"
    for column, name in columns.items():
        try:
            cls(**{**base, name: values[column]})
        except ValueError as exc:
            fault = f", column {column}: {exc}"
            break
    raise ValueError(fault)


# Each check is a pure function of its cells, so its verdict is kept for the next
# trial with the same cells.
@functools.lru_cache(maxsize=64)
def _check_channel(cells: tuple) -> None:
    _built(ChannelProfile, _CHANNEL_FIELDS, dict(zip(_CHANNEL_FIELDS, cells)))


@functools.lru_cache(maxsize=64)
def _check_frame(cells: tuple) -> None:
    """The frame columns must be those of FrameConfig(pilot_reps, modulation) with the
    logged data field, whole bytes that hold the CRC and more. The log carries no frame
    geometry, so the airtime must only be a whole number of symbol periods, more than
    the data symbols."""
    values = dict(zip(_FRAME_COLUMNS, cells))
    bps = _built(FrameConfig, _FRAME_FIELDS, values, pilot_reps=1, modulation=4).bits_per_symbol
    data, period, airtime = (values[c] for c in ("data_symbols", "symbol_period_s",
                                                   "frame_airtime_s"))
    if (data * bps) % 8 or data * bps // 8 <= CRC_BYTES:
        raise ValueError(f", column data_symbols: {data} symbols of {bps} bits are not whole "
                         "bytes that hold the CRC and more")
    for column, value in (("bits_per_symbol", bps),
                          ("data_bytes_per_frame", data * bps // 8 - CRC_BYTES)):
        if values[column] != value:
            raise ValueError(f", column {column}: expected {value}, got {values[column]}")
    if not 0.0 < period < math.inf:
        raise ValueError(f", column symbol_period_s: expected a finite period > 0, got {period!r}")
    if not (data < (periods := airtime / period) < math.inf and round(periods) * period == airtime):
        raise ValueError(f", column frame_airtime_s: expected a whole number of symbol periods "
                         f"above data_symbols, got {airtime!r}")


class _SymbolCounts(_CellTable):
    """``n_symbols`` cell text -> its count, which must be 0 or the trial's ``data_symbols``;
    the canonical texts are looked up, any other is read by ``int``."""

    def __missing__(self, text: str) -> int:
        if (value := int(text)) in self.values():
            return value
        return super().__missing__(text)


@functools.lru_cache(maxsize=64)
def _event_parsers(data_symbols: int) -> tuple:
    """``_EVENT_PARSERS`` for a trial of ``data_symbols``, ``n_symbols`` checked."""
    counts = _SymbolCounts({"0": 0, str(data_symbols): data_symbols},
                           f"expected 0 or {data_symbols}, got")
    return tuple(counts.__getitem__ if name == "n_symbols" else parse
                 for name, parse in zip(_EVENT_FIELDS, _EVENT_PARSERS))


def _parse_columns(columns, parsers):
    """Parse each event column of cells with its column's parser; a fault,
    a negative energy included, names the column."""
    for name, parse, cells in zip(_EVENT_FIELDS, parsers, columns):
        try:
            values = tuple(map(parse, cells))
            if name in _ENERGY_FIELDS and "-" in "".join(cells):  # a negative cell has a "-"
                if negative := [c for c, v in zip(cells, values) if v < 0]:
                    raise ValueError(f"expected an energy >= 0, got {negative[0]!r}")
        except ValueError as exc:
            raise ValueError(f", column {name}: {exc}") from None
        yield values


def results_from_event_rows(runs: list[TrialRun]) -> list[TrialResult]:
    """The result of each run ``read_events_csv`` returns, in its order."""
    return [run.result for run in runs]


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
    samples_per_symbol: int,
    environment: str | None = None,
    altitude_m: float | None = None,
    link_distance_m: float | None = None,
    sample_count: int | None = None,
) -> dict:
    """SigMF-style metadata document for one trial recording.

    Modulation, pilot repetitions, the sample rate (``samples_per_symbol``
    per symbol period) and the default sample count (the trial's frames at
    that rate) come from the trial snapshot. The experiment
    fields are always present; unknown values serialize as null. The document
    round-trips through JSON unchanged.
    """
    cfg = result.config
    modulation, pilot_reps = cfg["modulation"], cfg["pilot_reps"]
    if sample_count is None:
        frame_symbols = round(cfg["frame_airtime_s"] / cfg["symbol_period_s"])
        sample_count = result.frames_sent * frame_symbols * samples_per_symbol
    global_block = {
        "core:datatype": SIGMF_DATATYPE,
        "core:sample_rate": samples_per_symbol / cfg["symbol_period_s"],
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
        "experiment:seed": cfg["seed"],
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
    text = sigmf_to_json(doc)  # before the file opens, so a bad value leaves none
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
