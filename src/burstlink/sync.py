"""Receiver synchronization, channel estimation, and the full RX pipeline.

The burst receiver works in stages: AGC, matched filtering, training-field
detection by lag-M autocorrelation, coarse CFO estimation from the
correlation phase, NCO de-rotation, Golay matched-filter frame detection,
then per-pilot-block channel estimation and equalization before the symbols
are demapped and the CRC checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .framing import (
    FrameConfig,
    PacketPayload,
    TruncatedFrameError,
    compute_layout,
    crc_check,
    default_tables,
    parse_frame,
    unpack_wire_bytes,
)
from .waveform import (
    ComplexBuffer,
    GolayPair,
    PulseShapeConfig,
    agc,
    build_constellation,
    demap_symbols,
    generate_golay_pair,
    matched_filter_downsample,
)

FAILURE_KINDS = ("no-training", "no-frame", "truncated", "unequalizable", "crc-fail")

# Gain floor below which a block cannot be equalized without blowing up.
H_MIN = 1e-6

# Samples after which the burst AGC freezes its gain; sized to sit inside
# the training+preamble region at the default interpolation factor.
AGC_FREEZE_SAMPLES = 512
RX_AGC_LOOP_GAIN = 0.05


@dataclass(frozen=True)
class DetectorConfig:
    """Decision thresholds for the two detection stages."""

    rho_threshold: float = 0.7
    mf_threshold_factor: float = 0.5

    def __post_init__(self) -> None:
        # Zero is the degenerate everything-crosses setting; still defined.
        if not 0.0 <= self.rho_threshold < 1.0:
            raise ValueError("rho_threshold must be in [0, 1)")
        if not 0.0 < self.mf_threshold_factor:
            raise ValueError("mf_threshold_factor must be positive")


@dataclass(frozen=True)
class CoarseSyncResult:
    """Training detection outcome and coarse frequency estimate."""

    detect_index: int
    c_peak: complex
    rho_peak: float
    delta_f_est_hz: float
    delta_t_s: float


@dataclass(frozen=True)
class ChannelEstimate:
    """Per-pilot-block channel estimates and residual-offset measurements.

    ``train_gain``/``train_position`` anchor the residual-frequency fit at
    the training field, which is what makes the measurement defined for a
    single pilot repetition.
    """

    h_blocks: tuple[complex, ...]
    block_positions: tuple[float, ...]
    block_spacing_symbols: float
    train_gain: complex | None = None
    train_position: float | None = None
    residual_freq_hz: float = 0.0
    mean_residual_phase_deg: float = 0.0


@dataclass(frozen=True)
class FrameResult:
    """Everything receive_frame can report about one burst."""

    payload: PacketPayload | None
    failure: str | None
    coarse: CoarseSyncResult | None = None
    estimate: ChannelEstimate | None = None
    payload_start: int | None = None
    equalized: np.ndarray | None = None
    decisions: np.ndarray | None = None

    @property
    def detected(self) -> bool:
        """True once frame timing was acquired (payload located and parsed)."""
        return self.failure not in ("no-training", "no-frame", "truncated")

    @property
    def crc_ok(self) -> bool:
        return self.failure is None


class UnequalizableBlockError(ValueError):
    """Raised when a block's channel gain is too small to divide by."""


def autocorrelation_metric(
    x: np.ndarray, lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lag-``lag`` autocorrelation C, window energy P, and metric rho.

    ``C[n]`` sums ``x[k] * conj(x[k - lag])`` over the window of ``lag``
    samples ending at n; ``P[n]`` is the average of the two half-window
    energies, which bounds ``rho = |C| / P`` by 1 (Cauchy-Schwarz) for every
    input. Entries before the first full window are zero, and rho is defined
    as 0 wherever P is 0.
    """
    x = np.asarray(x, dtype=complex)
    n = len(x)
    if n < 2 * lag:
        raise ValueError(f"need at least {2 * lag} samples, got {n}")

    prod = x[lag:] * np.conj(x[:-lag])
    power = np.abs(x) ** 2

    c = np.zeros(n, dtype=complex)
    p = np.zeros(n, dtype=float)
    csum = np.concatenate([[0.0 + 0.0j], np.cumsum(prod)])
    psum = np.concatenate([[0.0], np.cumsum(power)])
    # Window ending at n covers k in [n-lag+1, n]; products exist from k=lag.
    ends = np.arange(2 * lag - 1, n)
    c[ends] = csum[ends - lag + 1] - csum[ends - 2 * lag + 1]
    late = psum[ends + 1] - psum[ends - lag + 1]
    early = psum[ends - lag + 1] - psum[ends - 2 * lag + 1]
    p[ends] = 0.5 * (late + early)

    rho = np.zeros(n, dtype=float)
    nz = p > 0.0
    rho[nz] = np.abs(c[nz]) / p[nz]
    return c, p, rho


def estimate_coarse_cfo(c_peak: complex, delta_t: float) -> float:
    """Frequency offset from the correlation peak phase: angle/(2*pi*dt).

    Uses the principal angle, so the estimate lives in +/- 1/(2*delta_t).
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if c_peak == 0:
        raise ValueError("correlation peak is zero; phase undefined")
    return math.atan2(c_peak.imag, c_peak.real) / (2.0 * math.pi * delta_t)


def detect_training(
    rho: np.ndarray,
    c: np.ndarray,
    cfg: DetectorConfig,
    delta_t: float,
    lag: int,
) -> CoarseSyncResult | None:
    """First threshold crossing of rho, refined within the next ``lag`` samples.

    Among the above-threshold indices in the refinement window the detector
    keeps the largest ``|C|`` (latest on a tie). The unnormalized correlation
    peaks at full training overlap, which is where the frequency estimate is
    valid; rho itself can wobble off-peak under ISI or noise.
    """
    rho = np.asarray(rho)
    c = np.asarray(c)
    if cfg.rho_threshold > 0.0:
        above = rho >= cfg.rho_threshold
    else:
        above = rho > 0.0
    crossings = np.nonzero(above)[0]
    if len(crossings) == 0:
        return None
    first = int(crossings[0])
    window = slice(first, min(first + lag + 1, len(rho)))
    candidates = np.nonzero(above[window])[0]
    mags = np.abs(c[window][candidates])
    best = candidates[max(np.nonzero(mags >= mags.max() * (1.0 - 1e-12))[0])]
    idx = first + int(best)
    c_peak = complex(c[idx])
    if c_peak == 0:
        return None
    return CoarseSyncResult(
        detect_index=idx,
        c_peak=c_peak,
        rho_peak=float(rho[idx]),
        delta_f_est_hz=estimate_coarse_cfo(c_peak, delta_t),
        delta_t_s=delta_t,
    )


def nco_correct(buf: ComplexBuffer, freq_hz: float) -> ComplexBuffer:
    """De-rotate by ``exp(-j*2*pi*f*n*T)``, n counted from the buffer start."""
    if freq_hz == 0.0 or len(buf) == 0:
        return buf
    n = np.arange(len(buf))
    rot = np.exp(-2j * np.pi * freq_hz * n * buf.sample_period)
    return ComplexBuffer(buf.samples * rot, buf.sample_period)


def golay_frame_detect(
    x: np.ndarray,
    pair: GolayPair,
    cfg: DetectorConfig,
    search: tuple[int, int] | None = None,
) -> int | None:
    """Locate the payload start via the summed Golay correlator magnitudes.

    Correlates against the two halves of the a||b preamble at their own
    offsets and sums the aligned magnitudes; the peak reaches ``2 * length``
    for a unit channel. Returns the index of the first payload symbol when
    the peak clears ``mf_threshold_factor * 2 * length``.
    """
    x = np.asarray(x, dtype=complex)
    n_g = pair.length
    if len(x) < 2 * n_g:
        return None
    corr_a = np.abs(np.correlate(x, pair.a.astype(complex), mode="valid"))
    corr_b = np.abs(np.correlate(x, pair.b.astype(complex), mode="valid"))
    metric = corr_a[: len(corr_a) - n_g] + corr_b[n_g:]

    lo, hi = 0, len(metric)
    if search is not None:
        lo = max(0, search[0])
        hi = min(len(metric), search[1])
        if lo >= hi:
            return None
    window = metric[lo:hi]
    peak = int(np.argmax(window)) + lo
    if metric[peak] <= cfg.mf_threshold_factor * 2.0 * n_g:
        return None
    return peak + 2 * n_g


def estimate_channel(rx_pilot: np.ndarray, ref_pilot: np.ndarray) -> complex:
    """Single-tap channel estimate from one pilot block.

    The aligned correlation ``mean(rx * conj(ref))`` is unbiased for
    unit-magnitude reference pilots.
    """
    rx_pilot = np.asarray(rx_pilot)
    ref_pilot = np.asarray(ref_pilot)
    if rx_pilot.shape != ref_pilot.shape:
        raise ValueError(
            f"pilot length mismatch: {rx_pilot.shape} vs {ref_pilot.shape}"
        )
    return complex(np.mean(rx_pilot * np.conj(ref_pilot)))


def equalize_block(data: np.ndarray, h: complex, h_min: float = H_MIN) -> np.ndarray:
    """Divide a block by its channel estimate."""
    if abs(h) <= h_min:
        raise UnequalizableBlockError(f"|H| = {abs(h):.3e} at or below {h_min}")
    return np.asarray(data) / h


def residual_offset(
    est: ChannelEstimate, symbol_period: float
) -> tuple[float, float]:
    """Residual frequency and mean per-gap phase drift from block estimates.

    The residual frequency is the least-squares slope of the unwrapped block
    phases against block position (the training anchor, when present, joins
    the fit; without it a single block yields zero). The mean residual phase
    is the absolute phase the drift accumulates over one correction spacing,
    in degrees.
    """
    gains = list(est.h_blocks)
    positions = list(est.block_positions)
    if est.train_gain is not None and est.train_position is not None:
        gains = [est.train_gain] + gains
        positions = [est.train_position] + positions
    residual_freq = _pilot_slope_hz(gains, positions, symbol_period)
    mean_phase = abs(
        2.0 * math.pi * residual_freq * est.block_spacing_symbols * symbol_period
    )
    return residual_freq, math.degrees(mean_phase)


def _pilot_slope_hz(
    h_blocks: list[complex],
    positions: list[float],
    symbol_period: float,
) -> float:
    """Least-squares phase slope of block gains against position, in Hz."""
    if len(h_blocks) < 2:
        return 0.0
    pos = np.asarray(positions, dtype=float) * symbol_period
    ph = np.unwrap(np.angle(np.asarray(h_blocks)))
    pos_c = pos - pos.mean()
    slope = float(np.dot(pos_c, ph - ph.mean()) / np.dot(pos_c, pos_c))
    return slope / (2.0 * math.pi)


def _choose_training_phase(
    streams: list[np.ndarray],
    det: DetectorConfig,
    delta_t: float,
    lag: int,
) -> tuple[int, CoarseSyncResult, np.ndarray] | None:
    """Run training detection on every decimation phase.

    The training repeats at every phase, so rho alone cannot tell the
    phases apart; the correlation magnitude can, because sample power
    concentrates at the true symbol instants after matched filtering.
    """
    best = None
    for phase, syms in enumerate(streams):
        if len(syms) < 2 * lag:
            continue
        c, _, rho = autocorrelation_metric(syms, lag)
        result = detect_training(rho, c, det, delta_t, lag)
        if result is None:
            continue
        if best is None or abs(result.c_peak) > abs(best[1].c_peak):
            best = (phase, result, syms)
    return best


def receive_frames(
    windows: ComplexBuffer,
    cfg: FrameConfig,
    det: DetectorConfig | None = None,
    pulse: PulseShapeConfig | None = None,
) -> list[FrameResult]:
    """Run the full burst receive pipeline on F frame windows at once.

    ``windows.samples`` has shape ``(F, N)``, one window per row; a strided
    view over one stream is fine, since it is only read. The AGC runs once
    across all rows, then the later stages run on each leveled row, so each
    result equals what the row would give alone. Stage failures come back
    as a ``FrameResult`` with one of the FAILURE_KINDS set; the pipeline
    never raises for link-quality reasons.
    """
    if windows.samples.ndim != 2:
        raise ValueError(f"windows must have shape (F, N), got {windows.samples.shape}")
    det = det or DetectorConfig()
    pulse = pulse or PulseShapeConfig()
    leveled = agc(
        windows, target_power=1.0, loop_gain=RX_AGC_LOOP_GAIN, freeze_after=AGC_FREEZE_SAMPLES
    )
    return [
        _receive_leveled(ComplexBuffer(row, windows.sample_period), cfg, det, pulse)
        for row in leveled.samples
    ]


def receive_frame(
    buf: ComplexBuffer,
    cfg: FrameConfig,
    det: DetectorConfig | None = None,
    pulse: PulseShapeConfig | None = None,
) -> FrameResult:
    """Receive one burst: ``receive_frames`` with F = 1."""
    single = ComplexBuffer(buf.samples[np.newaxis], buf.sample_period)
    return receive_frames(single, cfg, det, pulse)[0]


def _receive_leveled(
    leveled: ComplexBuffer,
    cfg: FrameConfig,
    det: DetectorConfig,
    pulse: PulseShapeConfig,
) -> FrameResult:
    """Every stage after the AGC, on one leveled frame window."""
    tables = default_tables(cfg)
    lag = cfg.training_rep_len
    symbol_period = leveled.sample_period * pulse.interpolation
    delta_t = lag * symbol_period

    choice = _choose_training_phase(
        matched_filter_downsample(leveled, pulse), det, delta_t, lag
    )
    if choice is None:
        return FrameResult(payload=None, failure="no-training")
    _, coarse, symbols = choice

    corrected = nco_correct(
        ComplexBuffer(symbols, symbol_period), coarse.delta_f_est_hz
    ).samples

    # With more than two training repetitions the detector may sit anywhere
    # on the correlation plateau, so the forward search spans the remaining
    # repetitions.
    pair = generate_golay_pair(cfg.golay_len)
    expected_preamble = coarse.detect_index + 1
    payload_start = golay_frame_detect(
        corrected,
        pair,
        det,
        search=(expected_preamble - lag, expected_preamble + cfg.training_reps * lag),
    )
    if payload_start is None:
        return FrameResult(payload=None, failure="no-frame", coarse=coarse)

    # The Golay peak pins frame timing exactly; re-derive the coarse estimate
    # from the last full-overlap training window of the uncorrected stream.
    # That frees the frequency estimate from plateau-pick ambiguity and from
    # AGC-settling tilt across the training field.
    exact_end = payload_start - cfg.preamble_symbols - 1
    if exact_end >= 2 * lag - 1:
        window = symbols[exact_end - lag + 1 : exact_end + 1]
        earlier = symbols[exact_end - 2 * lag + 1 : exact_end - lag + 1]
        c_exact = complex(np.sum(window * np.conj(earlier)))
        if c_exact != 0:
            coarse = replace(
                coarse,
                detect_index=exact_end,
                c_peak=c_exact,
                delta_f_est_hz=estimate_coarse_cfo(c_exact, delta_t),
            )
            corrected = nco_correct(
                ComplexBuffer(symbols, symbol_period), coarse.delta_f_est_hz
            ).samples

    try:
        pilot_blocks, data_blocks = parse_frame(corrected, cfg, payload_start)
    except TruncatedFrameError:
        return FrameResult(payload=None, failure="truncated", coarse=coarse)

    layout = compute_layout(cfg)
    frame_origin = payload_start - layout.payload_start

    # Training-field channel estimate anchors the residual-frequency fit.
    train_gain = None
    train_position = None
    t_start = frame_origin + layout.training_span[0]
    t_stop = frame_origin + layout.training_span[1]
    if t_start >= 0 and t_stop <= len(corrected):
        full_training = np.tile(tables.training, cfg.training_reps)
        train_gain = estimate_channel(corrected[t_start:t_stop], full_training)
        train_position = 0.5 * (t_start + t_stop - 1)

    h_blocks = [estimate_channel(blk, tables.pilot) for blk in pilot_blocks]
    positions = [
        frame_origin + 0.5 * (a + b - 1) for a, b in layout.pilot_spans
    ]

    estimate = ChannelEstimate(
        h_blocks=tuple(h_blocks),
        block_positions=tuple(positions),
        block_spacing_symbols=cfg.payload_symbols / cfg.pilot_reps,
        train_gain=train_gain,
        train_position=train_position,
    )
    # Residual offset is measured before the fine stage corrects it.
    residual_freq, mean_phase = residual_offset(estimate, symbol_period)
    estimate = replace(
        estimate, residual_freq_hz=residual_freq, mean_residual_phase_deg=mean_phase
    )

    # Fine frequency correction: de-rotate by the fitted residual, then
    # re-estimate each block so equalization sees the corrected pilots.
    # With several pilots the fit uses only their phases; with one pilot the
    # training anchor is the only second point available.
    fine_freq = residual_freq
    if cfg.pilot_reps >= 2:
        fine_freq = _pilot_slope_hz(h_blocks, positions, symbol_period)
    if fine_freq != 0.0:
        refined = nco_correct(
            ComplexBuffer(corrected, symbol_period), fine_freq
        ).samples
        pilot_blocks, data_blocks = parse_frame(refined, cfg, payload_start)
        h_blocks = [estimate_channel(blk, tables.pilot) for blk in pilot_blocks]

    equalized_parts = []
    for h, blk in zip(h_blocks, data_blocks):
        try:
            equalized_parts.append(equalize_block(blk, h))
        except UnequalizableBlockError:
            return FrameResult(
                payload=None,
                failure="unequalizable",
                coarse=coarse,
                estimate=estimate,
                payload_start=payload_start,
            )
    equalized = np.concatenate(equalized_parts)

    bits, decisions = demap_symbols(equalized, build_constellation(cfg.modulation))
    payload = unpack_wire_bytes(bits, cfg)

    return FrameResult(
        payload=payload,
        failure=None if crc_check(payload) else "crc-fail",
        coarse=coarse,
        estimate=estimate,
        payload_start=payload_start,
        equalized=equalized,
        decisions=decisions,
    )
