"""Link-quality metrics and per-trial aggregation.

Every metric is a pure function of logged per-frame events, so a trial
re-aggregated from its persisted event log reproduces the live result
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np


def evm_from_energies(err: float, ref: float) -> float:
    """Error vector magnitude in percent, 100 * sqrt(err / ref), from an error
    and a reference energy summed over the same symbols; NaN when ``ref`` is 0."""
    return 100.0 * math.sqrt(err / ref) if ref > 0 else math.nan


def sinr_from_energies(sig: float, err: float) -> float:
    """Decision-aided SINR in dB from the decisions' energy and the error
    energy about them; NaN when ``sig`` is 0, +inf when ``err`` is 0."""
    if sig > 0:
        ratio = sig / err if err else math.inf
        # A ratio that underflows to 0, or has an infinite ``err``, takes the logs apart.
        return 10.0 * (math.log10(ratio) if ratio > 0 else math.log10(sig) - math.log10(err))
    return math.nan


def goodput(crc_pass_count: int, data_bytes_per_frame: int, duration_s: float) -> float:
    """User bits per second over CRC-validated frames (CRC bytes excluded)."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return crc_pass_count * data_bytes_per_frame * 8.0 / duration_s


def throughput(
    frames_detected: int,
    data_symbols: int,
    bits_per_symbol: int,
    duration_s: float,
) -> float:
    """Data-field bits per second over all detected frames, CRC included."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return frames_detected * data_symbols * bits_per_symbol / duration_s


@dataclass(frozen=True)
class FrameEvents:
    """Measurements logged for a trial's frames: one tuple per field, in frame order."""

    frame_index: tuple[int, ...]
    detected: tuple[bool, ...]
    crc_ok: tuple[bool, ...]
    failure: tuple[str, ...]
    err_energy_tx: tuple[float, ...]
    ref_energy_tx: tuple[float, ...]
    err_energy_dec: tuple[float, ...]
    sig_energy_dec: tuple[float, ...]
    n_symbols: tuple[int, ...]
    residual_freq_hz: tuple[float, ...]
    residual_phase_deg: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.frame_index)


@dataclass(frozen=True)
class TrialResult:
    """Aggregated outcome of one trial (a burst of frames through a channel)."""

    frames_sent: int
    frames_detected: int
    crc_pass: int
    goodput_bps: float
    throughput_bps: float
    evm_percent: float
    evm_decision_percent: float
    sinr_db: float
    mean_residual_phase_deg: float
    duration_s: float
    failure_counts: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.crc_pass <= self.frames_detected <= self.frames_sent):
            raise ValueError("counter invariant violated: crc <= detected <= sent")
        if self.goodput_bps > self.throughput_bps + 1e-9:
            raise ValueError("goodput cannot exceed throughput")


def aggregate_events(events: FrameEvents, config: dict) -> TrialResult:
    """Fold a trial's frame events into a TrialResult.

    ``config`` is the trial snapshot: the frame sizes and the airtime that
    goodput, throughput and duration need are read from it, and the result
    carries a copy. Aggregation is associative: EVM and SINR come from summed
    error and reference energies, counters from sums, phases from the mean
    over frames that produced a measurement.
    """
    frames_sent = len(events)
    detected = sum(events.detected)
    passed = sum(events.crc_ok)
    duration = frames_sent * config["frame_airtime_s"]

    kinds = dict.fromkeys(filter(None, events.failure))
    failure_counts = {kind: events.failure.count(kind) for kind in kinds}

    err_tx = sum(events.err_energy_tx)
    ref_tx = sum(events.ref_energy_tx)
    err_dec = sum(events.err_energy_dec)
    sig_dec = sum(events.sig_energy_dec)

    good = through = 0.0
    if duration > 0:
        good = goodput(passed, config["data_bytes_per_frame"], duration)
        through = throughput(detected, config["data_symbols"], config["bits_per_symbol"], duration)

    phases = list(compress(events.residual_phase_deg, events.detected))
    mean_phase = math.nan
    if phases:
        # np.mean's own pairwise sum and division (one double division either
        # way), without its Python wrapper; where a sum of finite phases
        # overflows, the sum of each over the count.
        x = np.array(phases)
        with np.errstate(over="ignore", invalid="ignore"):
            mean_phase = float(np.add.reduce(x)) / len(phases)
            if not math.isfinite(mean_phase) and np.isfinite(x).all():
                mean_phase = float(np.add.reduce(x / len(phases)))

    return TrialResult(
        frames_sent=frames_sent,
        frames_detected=detected,
        crc_pass=passed,
        goodput_bps=good,
        throughput_bps=through,
        evm_percent=evm_from_energies(err_tx, ref_tx),
        evm_decision_percent=evm_from_energies(err_dec, sig_dec),
        sinr_db=sinr_from_energies(sig_dec, err_dec),
        mean_residual_phase_deg=mean_phase,
        duration_s=duration,
        failure_counts=failure_counts,
        config=dict(config),
    )
