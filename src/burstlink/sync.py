"""Receiver synchronization, channel estimation, and the full RX pipeline.

The burst receiver works in stages: AGC, matched filtering, training-field
detection by lag-M autocorrelation, coarse CFO estimation from the
correlation phase, NCO de-rotation, Golay matched-filter frame detection,
then per-pilot-block channel estimation and equalization before the symbols
are demapped and the CRC checked. Each stage runs once over all the frame
windows of a batch, along the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framing import (
    FrameConfig,
    PacketPayload,
    block_indices,
    compute_layout,
    crc_check,
    default_tables,
    unpack_wire_bytes,
)
from .waveform import (
    GolayPair,
    PulseShapeConfig,
    agc,
    build_constellation,
    demap_symbols,
    generate_golay_pair,
    matched_filter_downsample,
)

FAILURE_KINDS = ("no-training", "no-frame", "truncated", "unequalizable", "crc-fail")

# Row outcome codes of FrameBatch.failure: 0 for a decoded frame, otherwise
# one plus the index of the failure in FAILURE_KINDS.
DECODED, NO_TRAINING, NO_FRAME, TRUNCATED, UNEQUALIZABLE, CRC_FAIL = range(6)


def acquired(failure: np.ndarray | int) -> np.ndarray | bool:
    """Whether outcome codes (an int or an array) mean the frame timing was
    acquired: the payload was located in the window."""
    return (failure == DECODED) | (failure >= UNEQUALIZABLE)


# The (detected, crc_ok, failure) cells an event log records, one triple per
# outcome code, by the same rules as FrameBatch.detected and .crc_ok.
OUTCOMES = frozenset(
    (acquired(code), code == DECODED, kind) for code, kind in enumerate(("",) + FAILURE_KINDS)
)

# Gain floor below which a block cannot be equalized without blowing up.
H_MIN = 1e-6

# Frames per full-width training-detection and demap pass. Both build arrays
# several times their input's size (autocorrelation sums of every phase
# stream, the distance to every constellation point); a whole trial at once
# would only raise peak memory.
_ROW_CHUNK = 8


@dataclass(frozen=True)
class DetectorConfig:
    """Decision thresholds for the two detection stages."""

    rho_threshold: float = 0.7
    mf_threshold_factor: float = 0.5

    def __post_init__(self) -> None:
        # Zero is the degenerate everything-crosses setting; still defined.
        if not 0.0 <= self.rho_threshold < 1.0:
            raise ValueError("rho_threshold must be in [0, 1)")
        if not 0.0 < self.mf_threshold_factor < math.inf:
            raise ValueError("mf_threshold_factor must be positive and finite")


@dataclass(frozen=True, eq=False)
class CoarseSyncResult:
    """Training detection outcome and coarse frequency estimate, one entry
    per row; ``detect_index`` is -1 (and the other entries 0) where nothing
    crossed the threshold."""

    detect_index: np.ndarray
    c_peak: np.ndarray
    rho_peak: np.ndarray
    delta_f_est_hz: np.ndarray


@dataclass(frozen=True, eq=False)
class ChannelEstimate:
    """Per-pilot-block channel estimates and residual-offset measurements,
    one row per frame and blocks along the last axis.

    ``train_gain``/``train_position`` anchor the residual-frequency fit at
    the training field, which is what makes the measurement defined for a
    single pilot repetition; a NaN ``train_position`` means the row has no
    anchor.
    """

    h_blocks: np.ndarray
    block_positions: np.ndarray
    train_gain: np.ndarray
    train_position: np.ndarray
    residual_freq_hz: np.ndarray
    mean_residual_phase_deg: np.ndarray


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """receive_frames' report on F frame windows, one row per window.

    ``failure`` holds outcome codes. ``coarse`` and ``estimate`` carry their
    fields as arrays with a leading frame axis (``train_position`` is NaN
    without a training anchor); ``equalized`` and ``decisions`` have shape
    (F, data_symbols). Stages a row never reached leave zeros, and
    ``payload_start`` is -1 where no preamble was found.
    """

    failure: np.ndarray
    payload_start: np.ndarray
    coarse: CoarseSyncResult
    estimate: ChannelEstimate
    equalized: np.ndarray
    decisions: np.ndarray
    payloads: tuple[PacketPayload | None, ...]

    def __len__(self) -> int:
        return len(self.failure)

    @property
    def detected(self) -> np.ndarray:
        return acquired(self.failure)

    @property
    def crc_ok(self) -> np.ndarray:
        return self.failure == DECODED

    @property
    def demapped(self) -> np.ndarray:
        """Rows with equalized symbols and decisions."""
        return (self.failure == DECODED) | (self.failure == CRC_FAIL)


def autocorrelation_metric(
    x: np.ndarray, lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lag-``lag`` autocorrelation C, window energy P, and metric rho.

    ``C[n]`` sums ``x[k] * conj(x[k - lag])`` over the window of ``lag``
    samples ending at n; ``P[n]`` is the average of the two half-window
    energies, which bounds ``rho = |C| / P`` by 1 (Cauchy-Schwarz) for every
    input. Entries before the first full window are zero, and rho is defined
    as 0 wherever P is 0. Rows of ``x`` (..., n) are measured along the last axis.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    if n < 2 * lag:
        raise ValueError(f"need at least {2 * lag} samples, got {n}")

    prod = x[..., lag:] * np.conj(x[..., :-lag])
    power = np.abs(x) ** 2

    # Running sums led by one zero, accumulated in place.
    csum = np.zeros(x.shape[:-1] + (n - lag + 1,), dtype=complex)
    psum = np.zeros(x.shape[:-1] + (n + 1,))
    np.cumsum(prod, axis=-1, out=csum[..., 1:])
    np.cumsum(power, axis=-1, out=psum[..., 1:])
    # Window ending at e covers k in [e-lag+1, e]; products exist from k=lag,
    # so the ends run from 2*lag-1 to n-1.
    c, p = np.zeros(x.shape, dtype=complex), np.zeros(x.shape)
    np.subtract(csum[..., lag:], csum[..., : n - 2 * lag + 1], out=c[..., 2 * lag - 1 :])
    late = psum[..., 2 * lag :] - psum[..., lag : n - lag + 1]
    early = psum[..., lag : n - lag + 1] - psum[..., : n - 2 * lag + 1]
    np.multiply(0.5, late + early, out=p[..., 2 * lag - 1 :])

    rho = np.zeros(x.shape, dtype=float)
    np.divide(np.abs(c), p, out=rho, where=p > 0.0)
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
) -> CoarseSyncResult:
    """First threshold crossing of rho, refined within the next ``lag`` samples.

    Among the above-threshold indices in the refinement window the detector
    keeps the largest ``|C|`` (latest on a tie). The unnormalized correlation
    peaks at full training overlap, which is where the frequency estimate is
    valid; rho itself can wobble off-peak under ISI or noise. Rows of
    ``rho`` and ``c`` (..., n) are searched along the last axis.
    """
    rho, c = np.asarray(rho), np.asarray(c)
    if cfg.rho_threshold > 0.0:
        above = rho >= cfg.rho_threshold
    else:
        above = rho > 0.0
    width = rho.shape[-1]
    first = np.argmax(above, axis=-1)
    window = first[..., None] + np.arange(lag + 1)
    candidates = window < width
    window = np.minimum(window, width - 1)
    candidates &= np.take_along_axis(above, window, -1)
    mags = np.abs(np.take_along_axis(c, window, -1))
    peak = np.where(candidates, mags, -np.inf).max(axis=-1, keepdims=True)
    keep = candidates & (mags >= peak * (1.0 - 1e-12))
    idx = (first + lag - np.argmax(keep[..., ::-1], axis=-1))[..., None]
    c_peak = np.take_along_axis(c, idx, -1)[..., 0]
    found = above.any(axis=-1) & (c_peak != 0)
    delta_f = np.zeros(found.shape)
    delta_f[found] = [estimate_coarse_cfo(v, delta_t) for v in c_peak[found].tolist()]
    return CoarseSyncResult(
        detect_index=np.where(found, idx[..., 0], -1),
        c_peak=np.where(found, c_peak, 0),
        rho_peak=np.where(found, np.take_along_axis(rho, idx, -1)[..., 0], 0.0),
        delta_f_est_hz=delta_f,
    )


def nco_correct(x: np.ndarray, freq_hz: float | np.ndarray, sample_period: float) -> np.ndarray:
    """De-rotate by ``exp(-j*2*pi*f*n*T)``, n counted from the first sample.

    ``freq_hz`` may hold one frequency per leading index of ``x`` (..., n);
    rows whose frequency is zero pass through unchanged, and with no nonzero
    frequency ``x`` itself comes back.
    """
    freq = np.asarray(freq_hz, dtype=float)
    if not freq.any() or x.shape[-1] == 0:
        return x
    n = np.arange(x.shape[-1])
    rot = np.exp(-2j * np.pi * freq[..., None] * n * sample_period)
    out = x * rot
    still = freq == 0.0
    if still.any():
        out[still] = x[still]
    return out


def golay_frame_detect(
    x: np.ndarray,
    pair: GolayPair,
    cfg: DetectorConfig,
    search: tuple | None = None,
) -> np.ndarray:
    """Locate the payload start via the summed Golay correlator magnitudes.

    Correlates against the two halves of the a||b preamble at their own
    offsets and sums the aligned magnitudes; the peak reaches ``2 * length``
    for a unit channel. Returns, per row of ``x`` (..., n), the index of the
    first payload symbol where the peak clears ``mf_threshold_factor * 2 *
    length`` and -1 where nothing cleared; a NaN never wins. ``search``
    bounds broadcast over the leading shape. Only the search span is
    correlated, row by row (``np.correlate`` has no batched form).
    """
    x = np.asarray(x, dtype=complex)
    n_g = pair.length
    n_metric = x.shape[-1] - 2 * n_g + 1
    lo, hi = (0, n_metric) if search is None else search
    lo = np.broadcast_to(np.maximum(0, lo), x.shape[:-1])
    hi = np.broadcast_to(np.minimum(n_metric, hi), x.shape[:-1])
    a, b = pair.a.astype(complex), pair.b.astype(complex)
    threshold = cfg.mf_threshold_factor * 2.0 * n_g
    starts = np.full(x.shape[:-1], -1, dtype=np.int64)
    for row in np.ndindex(x.shape[:-1]):
        first, stop = int(lo[row]), int(hi[row])
        if first >= stop:
            continue
        span = x[row][first : stop + 2 * n_g - 1]
        corr_a = np.abs(np.correlate(span, a, mode="valid"))
        corr_b = np.abs(np.correlate(span, b, mode="valid"))
        metric = corr_a[: stop - first] + corr_b[n_g:]
        metric[np.isnan(metric)] = -np.inf
        peak = int(np.argmax(metric))
        if metric[peak] > threshold:
            starts[row] = first + peak + 2 * n_g
    return starts


def estimate_channel(rx_pilot: np.ndarray, ref_pilot: np.ndarray) -> np.ndarray:
    """Single-tap channel estimate of each pilot block along the last axis.

    The aligned correlation ``mean(rx * conj(ref))`` is unbiased for
    unit-magnitude reference pilots.
    """
    rx_pilot = np.asarray(rx_pilot)
    ref_pilot = np.asarray(ref_pilot)
    if rx_pilot.shape[-1:] != ref_pilot.shape:
        raise ValueError(
            f"pilot length mismatch: {rx_pilot.shape} vs {ref_pilot.shape}"
        )
    return np.mean(rx_pilot * np.conj(ref_pilot), axis=-1)


def residual_offset(
    h_blocks: np.ndarray, positions: np.ndarray, spacing_symbols: float, symbol_period: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residual frequency and mean per-gap phase drift from block estimates.

    The residual frequency is the least-squares slope of the unwrapped phases
    of ``h_blocks`` against ``positions`` (in symbols), along the last axis;
    a single block yields zero. A training anchor joins the fit as one more
    block. The mean residual phase is the absolute phase the drift
    accumulates over ``spacing_symbols``, in degrees. Both come back with
    one entry per row of blocks.
    """
    residual_freq = _pilot_slope_hz(h_blocks, positions, symbol_period)
    mean_phase = np.abs(2.0 * math.pi * residual_freq * spacing_symbols * symbol_period)
    return residual_freq, np.degrees(mean_phase)


def _pilot_slope_hz(h_blocks, positions, symbol_period: float) -> np.ndarray:
    """Least-squares phase slope of block gains against position, in Hz,
    along the last axis."""
    h_blocks = np.asarray(h_blocks)
    slope = np.zeros(h_blocks.shape[:-1])
    if h_blocks.shape[-1] >= 2:
        pos = np.asarray(positions, dtype=float) * symbol_period
        ph = np.unwrap(np.angle(h_blocks), axis=-1)
        pos_c = pos - pos.mean(axis=-1, keepdims=True)
        ph_c = ph - ph.mean(axis=-1, keepdims=True)
        # Row-vector matmuls sum like a per-row np.dot, bit for bit.
        num = (pos_c[..., None, :] @ ph_c[..., :, None])[..., 0, 0]
        den = (pos_c[..., None, :] @ pos_c[..., :, None])[..., 0, 0]
        slope = num / den / (2.0 * math.pi)
    return slope


def _choose_training_phase(
    streams: np.ndarray,
    lengths: np.ndarray,
    det: DetectorConfig,
    delta_t: float,
    lag: int,
    head: int,
) -> tuple[np.ndarray, np.ndarray, CoarseSyncResult]:
    """Run training detection on every decimation phase of every row.

    The training repeats at every phase, so rho alone cannot tell the
    phases apart; the correlation magnitude can, because sample power
    concentrates at the true symbol instants after matched filtering.

    ``streams`` (F, P, n) holds phase p of every row in ``streams[:, p]``,
    zero past its ``lengths[p]`` samples, as ``matched_filter_downsample``
    gives it. All rows are searched first over their first ``head`` samples.
    The running sums are sequential, so there the metric equals the
    full-width one bit for bit, and a phase's result is final when it found
    training with ``detect_index + lag < head``: the first crossing and its
    whole refinement window lie in the head. Rows with any phase not final
    are searched again over the full width, ``_ROW_CHUNK`` rows at a time.
    Returns each row's chosen stream, its length, and the coarse results as
    arrays, ``detect_index`` -1 where no phase found training.
    """
    n_rows, width = streams.shape[0], streams.shape[-1]
    phase = np.zeros(n_rows, dtype=np.int64)
    zeros = np.zeros(n_rows)
    coarse = CoarseSyncResult(np.full(n_rows, -1), zeros + 0j, zeros.copy(), zeros.copy())

    def search(rows: np.ndarray, n: int) -> np.ndarray:
        """Detect over the first n samples; keep the final rows, return the rest."""
        c, _, rho = autocorrelation_metric(streams[rows, :, :n], lag)
        # A zero rho never crosses, so the padding cannot be detected.
        rho[:, np.arange(n) >= lengths[:, None]] = 0.0
        found = detect_training(rho, c, det, delta_t, lag)
        hit = found.detect_index >= 0
        final = (hit & (found.detect_index + lag < n)).all(axis=-1) | (n == width)
        best = np.argmax(np.where(hit, np.abs(found.c_peak), -np.inf), axis=-1)[final]
        pick = np.flatnonzero(final), best
        phase[rows[final]] = best
        for name in ("detect_index", "c_peak", "rho_peak", "delta_f_est_hz"):
            getattr(coarse, name)[rows[final]] = getattr(found, name)[pick]
        return rows[~final]

    rows = search(np.arange(n_rows), min(head, width)) if width >= 2 * lag else ()
    for r0 in range(0, len(rows), _ROW_CHUNK):
        search(rows[r0 : r0 + _ROW_CHUNK], width)
    return streams[np.arange(n_rows), phase], lengths[phase], coarse


def receive_frames(
    windows: np.ndarray,
    cfg: FrameConfig,
    det: DetectorConfig = DetectorConfig(),
    pulse: PulseShapeConfig = PulseShapeConfig(),
    symbol_period_s: float = 1e-6,
) -> FrameBatch:
    """Run the full burst receive pipeline on F frame windows at once.

    ``windows`` has shape ``(F, N)``, one window per row of samples at
    ``pulse.interpolation`` samples per ``symbol_period_s``; a strided view
    over one stream is fine, since it is only read. Each stage runs once over
    the rows still in play, along the last axis, so each row equals what its
    window would give alone. A row that fails a stage gets its failure code
    and leaves the later stages; the pipeline never raises for link-quality
    reasons.
    """
    if windows.ndim != 2:
        raise ValueError(f"windows must have shape (F, N), got {windows.shape}")
    n_frames = windows.shape[0]
    tables, layout = default_tables(cfg), compute_layout(cfg)
    pilot_index, data_index, data_block = block_indices(cfg)
    lag = cfg.training_rep_len
    head = (cfg.training_reps + 2) * lag  # the training field, then room to refine
    delta_t = lag * symbol_period_s

    streams, lengths = matched_filter_downsample(agc(windows), pulse)
    symbols, lengths, coarse = _choose_training_phase(streams, lengths, det, delta_t, lag, head)
    failure = np.where(coarse.detect_index < 0, NO_TRAINING, DECODED).astype(np.int8)
    rows = np.flatnonzero(failure == DECODED)
    corrected = nco_correct(symbols, coarse.delta_f_est_hz, symbol_period_s)

    # With more than two training repetitions the detector may sit anywhere
    # on the correlation plateau, so the forward search spans the remaining
    # repetitions; it stops where each row's own stream ends.
    expected = coarse.detect_index[rows] + 1
    start = np.full(n_frames, -1, dtype=np.int64)
    start[rows] = golay_frame_detect(
        corrected[rows],
        generate_golay_pair(cfg.golay_len),
        det,
        search=(
            expected - lag,
            np.minimum(expected + cfg.training_reps * lag, lengths[rows] - 2 * cfg.golay_len + 1),
        ),
    )
    failure[rows[start[rows] < 0]] = NO_FRAME
    rows = rows[start[rows] >= 0]

    # The Golay peak pins frame timing exactly; re-derive the coarse estimate
    # from the last full-overlap training window of the uncorrected stream.
    # That frees the frequency estimate from plateau-pick ambiguity and from
    # AGC-settling tilt across the training field.
    exact_end = start - cfg.preamble_symbols - 1
    redo = rows[exact_end[rows] >= 2 * lag - 1]
    window = exact_end[redo, None] + np.arange(1 - lag, 1)
    c_exact = np.sum(
        symbols[redo[:, None], window] * np.conj(symbols[redo[:, None], window - lag]), axis=-1
    )
    redo, c_exact = redo[c_exact != 0], c_exact[c_exact != 0]
    coarse.detect_index[redo] = exact_end[redo]
    coarse.c_peak[redo] = c_exact
    coarse.delta_f_est_hz[redo] = [estimate_coarse_cfo(c, delta_t) for c in c_exact.tolist()]
    corrected[redo] = nco_correct(symbols[redo], coarse.delta_f_est_hz[redo], symbol_period_s)

    short = start[rows] + cfg.payload_symbols > lengths[rows]
    failure[rows[short]] = TRUNCATED
    rows = rows[~short]

    # Training, pilot and data symbols are gathered by frame-relative index.
    est = ChannelEstimate(
        h_blocks=np.zeros((n_frames, cfg.pilot_reps), dtype=complex),
        block_positions=np.zeros((n_frames, cfg.pilot_reps)),
        train_gain=np.zeros(n_frames, dtype=complex),
        train_position=np.full(n_frames, np.nan),
        residual_freq_hz=np.zeros(n_frames),
        mean_residual_phase_deg=np.zeros(n_frames),
    )
    origin = start[rows] - layout.payload_start
    t_start, t_stop = origin + layout.training_span[0], origin + layout.training_span[1]
    anchored = (t_start >= 0) & (t_stop <= lengths[rows])
    anchor_rows = rows[anchored]
    est.train_gain[anchor_rows] = estimate_channel(
        corrected[anchor_rows[:, None], np.arange(*layout.training_span) + origin[anchored, None]],
        np.tile(tables.training, cfg.training_reps),
    )
    est.train_position[anchor_rows] = 0.5 * (t_start + t_stop - 1)[anchored]
    pilot_at = origin[:, None, None] + pilot_index
    est.h_blocks[rows] = estimate_channel(corrected[rows[:, None, None], pilot_at], tables.pilot)
    centers = np.array([0.5 * (a + b - 1) for a, b in layout.pilot_spans])
    est.block_positions[rows] = origin[:, None] + centers
    # A non-finite estimate (a NaN or inf sample under a pilot block or the
    # training anchor) cannot be fitted or divided by.
    finite = np.isfinite(est.h_blocks[rows]).all(axis=-1) & np.isfinite(est.train_gain[rows])
    failure[rows[~finite]] = UNEQUALIZABLE
    rows, origin, anchored = rows[finite], origin[finite], anchored[finite]
    pilot_at = pilot_at[finite]

    # Residual offset is measured before the fine stage corrects it; the
    # training anchor joins the fit as the first block on the rows where it
    # lies in the window. The two groups are fitted apart, each over whole rows.
    h_fit = np.concatenate([est.train_gain[:, None], est.h_blocks], axis=-1)
    at_fit = np.concatenate([est.train_position[:, None], est.block_positions], axis=-1)
    spacing = cfg.payload_symbols / cfg.pilot_reps
    for group, first in ((rows[anchored], 0), (rows[~anchored], 1)):
        est.residual_freq_hz[group], est.mean_residual_phase_deg[group] = residual_offset(
            h_fit[group, first:], at_fit[group, first:], spacing, symbol_period_s
        )

    # Fine frequency correction: de-rotate by the fitted residual, then
    # re-estimate each block so equalization sees the corrected pilots.
    # With several pilots the fit uses only their phases; with one pilot the
    # training anchor is the only second point available.
    fine_freq = est.residual_freq_hz[rows]
    if cfg.pilot_reps >= 2:
        fine_freq = _pilot_slope_hz(est.h_blocks[rows], est.block_positions[rows], symbol_period_s)
    refined = nco_correct(corrected[rows], fine_freq, symbol_period_s)
    local = np.arange(len(rows))[:, None]
    gains = estimate_channel(refined[local[..., None], pilot_at], tables.pilot)
    flat = (np.abs(gains) <= H_MIN).any(axis=-1)
    failure[rows[flat]] = UNEQUALIZABLE

    demapped = rows[~flat]
    equalized = np.zeros((n_frames, cfg.data_symbols), dtype=complex)
    decisions = np.zeros_like(equalized)
    equalized[demapped] = (
        refined[local[~flat], origin[~flat, None] + data_index] / gains[~flat][:, data_block]
    )
    constellation = build_constellation(cfg.modulation)
    bits = np.empty((len(demapped), cfg.data_bits), dtype=np.uint8)
    for r0 in range(0, len(demapped), _ROW_CHUNK):
        chunk = demapped[r0 : r0 + _ROW_CHUNK]
        bits[r0 : r0 + _ROW_CHUNK], decisions[chunk] = demap_symbols(
            equalized[chunk], constellation
        )
    payloads: list[PacketPayload | None] = [None] * n_frames
    for k, payload in zip(demapped.tolist(), unpack_wire_bytes(bits, cfg)):
        payloads[k] = payload
        if not crc_check(payload):
            failure[k] = CRC_FAIL
    return FrameBatch(failure, start, coarse, est, equalized, decisions, tuple(payloads))

