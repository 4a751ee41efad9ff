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
from numpy.lib.stride_tricks import sliding_window_view

from .framing import FrameConfig, block_indices, crc_check, default_tables, unpack_wire_bytes
from .waveform import (
    PulseShapeConfig,
    agc,
    build_constellation,
    demap_symbols,
    generate_golay_pair,
    matched_filter,
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

# Frames per full-width training-detection pass. It builds arrays several
# times its input's size (the autocorrelation sums of every phase stream); a
# whole trial at once would only raise peak memory.
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
class FrameBatch:
    """receive_frames' report on F frame windows, one row per window.

    ``failure`` holds outcome codes. Every array has a leading frame axis:
    pilot blocks lie along the last axis of ``h_blocks``/``block_positions``,
    and ``equalized``/``decisions`` have shape (F, data_symbols). Stages a
    row never reached leave zeros, ``payload_start`` is -1 where no preamble
    was found, and ``train_position`` is NaN where the row has no training
    anchor for the residual-frequency fit. ``detect_index``, ``c_peak`` and
    ``rho_peak`` are the training detector's, -1 and zeros where it found
    nothing, and ``delta_f_est_hz`` is the coarse estimate from ``c_peak``.
    Where the coarse estimate is re-derived from the exact training window,
    ``detect_index``, ``c_peak`` and ``delta_f_est_hz`` come from it.
    """

    failure: np.ndarray
    payload_start: np.ndarray
    detect_index: np.ndarray
    c_peak: np.ndarray
    rho_peak: np.ndarray
    delta_f_est_hz: np.ndarray
    h_blocks: np.ndarray
    block_positions: np.ndarray
    train_gain: np.ndarray
    train_position: np.ndarray
    residual_freq_hz: np.ndarray
    mean_residual_phase_deg: np.ndarray
    equalized: np.ndarray
    decisions: np.ndarray
    payloads: tuple[bytes | None, ...]

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

    # Not ``*``: from 256 KiB numpy runs it as ``conj(...) * x``, which rounds differently.
    prod = np.multiply(x[..., lag:], np.conj(x[..., :-lag]))
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
    rho: np.ndarray, c: np.ndarray, cfg: DetectorConfig, lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First threshold crossing of rho, refined within the next ``lag`` samples.
    Only a positive rho crosses, so a zero threshold finds the first energy.
    Returns per row ``(detect_index, c_peak, rho_peak)``: the index and the
    C and rho there, or -1 and zeros where nothing crossed.

    Among the above-threshold indices in the refinement window the detector
    keeps the largest ``|C|`` (latest on a tie). The unnormalized correlation
    peaks at full training overlap, which is where ``estimate_coarse_cfo``
    is valid; rho itself can wobble off-peak under ISI or noise. Rows of
    ``rho`` and ``c`` (..., n) are searched along the last axis.
    """
    rho, c = np.asarray(rho), np.asarray(c)
    above = (rho >= cfg.rho_threshold) & (rho > 0.0)
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
    return (
        np.where(found, idx[..., 0], -1),
        np.where(found, c_peak, 0),
        np.where(found, np.take_along_axis(rho, idx, -1)[..., 0], 0.0),
    )


def nco_correct(
    x: np.ndarray, freq_hz: float | np.ndarray, sample_period: float, index=None
) -> np.ndarray:
    """De-rotate by ``exp(-j*2*pi*f*n*T)``, n counted from the first sample
    or, if given, ``index``: each entry's own sample index, broadcast against
    ``x``. Entries are rotated alone, so part of a stream rotated at its own
    indices is that part of the whole rotated, bit for bit.

    ``freq_hz`` may hold one frequency per leading index of ``x`` (..., n);
    rows whose frequency is zero pass through unchanged, and with no nonzero
    frequency ``x`` itself comes back.
    """
    freq = np.asarray(freq_hz, dtype=float)
    if not freq.any() or x.shape[-1] == 0:
        return x
    n = np.arange(x.shape[-1]) if index is None else index
    rot = np.exp(-2j * np.pi * freq[..., None] * n * sample_period)
    out = x * rot
    still = freq == 0.0
    if still.any():
        out[still] = x[still]
    return out


def golay_frame_detect(
    x: np.ndarray, pair: tuple[np.ndarray, np.ndarray], cfg: DetectorConfig,
    search: tuple | None = None,
) -> np.ndarray:
    """Locate the payload start via the summed Golay correlator magnitudes.

    Correlates against the two halves of the a||b preamble at their own
    offsets and sums the aligned magnitudes; the peak reaches ``2 * length``
    for a unit channel. Returns, per row of ``x`` (..., n), the index of the
    first payload symbol where the peak clears ``mf_threshold_factor * 2 *
    length`` and -1 where nothing cleared; a NaN never wins. ``search``
    bounds broadcast over the leading shape. All rows are correlated at every
    offset at once (``np.vecdot``, bit for bit ``np.correlate``), so a caller
    passes only the span it searches.
    """
    x = np.asarray(x, dtype=complex)
    a, b = pair
    n_g = len(a)
    n_metric = x.shape[-1] - 2 * n_g + 1
    if n_metric < 1:
        return np.full(x.shape[:-1], -1, dtype=np.int64)
    lo, hi = (0, n_metric) if search is None else search
    at = np.arange(n_metric)
    outside = (at < np.asarray(lo)[..., None]) | (at >= np.asarray(hi)[..., None])
    windows = sliding_window_view(x, n_g, axis=-1)
    with np.errstate(invalid="ignore"):  # vecdot warns on an inf sample; np.correlate did not
        corr_a = np.abs(np.vecdot(a, windows[..., :n_metric, :]))
        corr_b = np.abs(np.vecdot(b, windows[..., n_g:, :]))
    metric = corr_a + corr_b
    metric[np.isnan(metric) | outside] = -np.inf
    cleared = metric.max(axis=-1) > cfg.mf_threshold_factor * 2.0 * n_g
    return np.where(cleared, np.argmax(metric, axis=-1) + 2 * n_g, -1)


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


def _search_training(
    streams: np.ndarray, lengths: np.ndarray, det: DetectorConfig, lag: int, n: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Training detection over the first ``n`` samples of every decimation
    phase of every row: ``streams`` (F, P, >= n), phase p zero past
    ``lengths[p]``. The training repeats at every phase, so rho alone cannot
    tell the phases apart; |C| can, because sample power concentrates at the
    true symbol instants after matched filtering. The running sums are
    sequential, so over n samples the metric is the full-width one bit for
    bit, and a row is final when n is the full width ``lengths[0]`` or every
    phase found training with ``detect_index + lag < n`` (its refinement
    window lies in those samples). Returns per row whether it is final, the
    phase of largest |C| and ``detect_training``'s arrays at that phase.
    """
    c, _, rho = autocorrelation_metric(streams[:, :, :n], lag)
    # A zero rho never crosses, so the padding cannot be detected.
    rho[:, np.arange(n) >= lengths[:, None]] = 0.0
    index, c_peak, rho_peak = detect_training(rho, c, det, lag)
    hit = index >= 0
    final = (hit & (index + lag < n)).all(axis=-1) | (n >= lengths[0])
    best = np.argmax(np.where(hit, np.abs(c_peak), -np.inf), axis=-1)
    at = np.arange(len(best)), best
    return final, best, (index[at], c_peak[at], rho_peak[at])


def _choose_training_phase(
    x: np.ndarray, pulse: PulseShapeConfig, det: DetectorConfig, lag: int, head: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Matched-filter the sample rows ``x`` (F, N) and pick each row's
    training phase, filtering only what the search reads: every phase over
    the first ``head`` symbols, then a row final there at its chosen phase
    only. The other rows are filtered at every phase past the head and
    searched over the full width, ``_ROW_CHUNK`` rows at a time. Returns each
    row's chosen symbol stream, zero past its length, that length, and
    ``detect_training``'s arrays there, -1 and zeros where no phase found training.
    """
    (n_rows, n), sps = x.shape, pulse.interpolation
    width = -(-n // sps)
    head = min(head, width)
    heads, lengths = matched_filter_downsample(x, pulse, 0, head)
    final, phase = np.ones(n_rows, bool), np.zeros(n_rows, np.int64)
    peaks = np.full(n_rows, -1), np.zeros(n_rows, complex), np.zeros(n_rows)
    if width >= 2 * lag:
        final, phase, peaks = _search_training(heads, lengths, det, lag, head)
    past = matched_filter(x, pulse, np.where(final, head * sps + phase, -1), width - head, sps)
    symbols = np.concatenate([heads[np.arange(n_rows), phase], past], axis=-1, dtype=complex)
    rest = np.flatnonzero(~final)
    for r0 in range(0, len(rest), _ROW_CHUNK):
        rows = rest[r0 : r0 + _ROW_CHUNK]
        later, _ = matched_filter_downsample(x[rows], pulse, head)
        streams = np.concatenate([heads[rows], later], axis=-1)
        _, phase[rows], found = _search_training(streams, lengths, det, lag, width)
        for kept, value in zip(peaks, found):
            kept[rows] = value
        symbols[rows] = streams[np.arange(len(rows)), phase[rows]]
    return symbols, lengths[phase], peaks


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
    tables = default_tables(cfg)
    pilot_index, data_index, data_block = block_indices(cfg)
    pilot_col, data_col = pilot_index - cfg.payload_start, data_index - cfg.payload_start
    lag = cfg.training_rep_len
    head = (cfg.training_reps + 2) * lag  # the training field, then room to refine
    delta_t = lag * symbol_period_s

    symbols, lengths, (detect_index, c_peak, rho_peak) = _choose_training_phase(
        agc(windows), pulse, det, lag, head
    )
    failure = np.where(detect_index < 0, NO_TRAINING, DECODED).astype(np.int8)
    rows = np.flatnonzero(failure == DECODED)
    delta_f_est_hz = np.zeros(n_frames)
    delta_f_est_hz[rows] = [estimate_coarse_cfo(v, delta_t) for v in c_peak[rows].tolist()]

    # With more than two training repetitions the detector may sit anywhere
    # on the correlation plateau, so the forward search spans the remaining
    # repetitions; it stops where each row's own stream ends. Only the
    # symbols it reads are de-rotated here, at their own indices.
    expected = detect_index[rows] + 1
    first = np.maximum(expected - lag, 0)
    stop = np.minimum(expected + cfg.training_reps * lag, lengths[rows] - 2 * cfg.golay_len + 1)
    at = first[:, None] + np.arange((stop - first).max(initial=0) + 2 * cfg.golay_len - 1)
    at = np.minimum(at, symbols.shape[-1] - 1)  # past a row's own span: never searched
    span = nco_correct(symbols[rows[:, None], at], delta_f_est_hz[rows], symbol_period_s, at)
    found = golay_frame_detect(span, generate_golay_pair(cfg.golay_len), det, (0, stop - first))
    start = np.full(n_frames, -1, dtype=np.int64)
    start[rows] = np.where(found >= 0, first + found, -1)
    failure[rows[start[rows] < 0]] = NO_FRAME
    rows = rows[start[rows] >= 0]

    # The Golay peak pins frame timing exactly, so each located frame is
    # gathered once as a row of the columns later stages read, stream symbol
    # ``at`` in its frame column's place: the training field, then from
    # column T the payload, at ``pilot_col`` and ``data_col``; the preamble
    # is not read again. Columns before a row's window repeat its first
    # symbol and are never read.
    t_end = cfg.training_symbols
    origin = start[rows] - cfg.payload_start
    at = origin[:, None] + np.r_[:t_end, cfg.payload_start : cfg.total_symbols]
    frames = symbols[rows[:, None], np.clip(at, 0, symbols.shape[-1] - 1)]

    # Re-derive the coarse estimate from the last full-overlap training
    # window of the uncorrected frame. That frees the frequency estimate
    # from plateau-pick ambiguity and from AGC-settling tilt across the
    # training field.
    redo = np.flatnonzero(origin >= 2 * lag - t_end)
    late, early = frames[redo, t_end - lag : t_end], frames[redo, t_end - 2 * lag : t_end - lag]
    c_exact = np.sum(np.multiply(late, np.conj(early)), axis=-1)  # as in autocorrelation_metric
    redo, c_exact = redo[c_exact != 0], c_exact[c_exact != 0]
    detect_index[rows[redo]] = origin[redo] + t_end - 1
    c_peak[rows[redo]] = c_exact
    delta_f_est_hz[rows[redo]] = [estimate_coarse_cfo(c, delta_t) for c in c_exact.tolist()]
    frames = nco_correct(frames, delta_f_est_hz[rows], symbol_period_s, at)

    short = start[rows] + cfg.payload_symbols > lengths[rows]
    failure[rows[short]] = TRUNCATED
    rows, origin, at, frames = rows[~short], origin[~short], at[~short], frames[~short]

    h_blocks = np.zeros((n_frames, cfg.pilot_reps), dtype=complex)
    block_positions = np.zeros((n_frames, cfg.pilot_reps))
    train_gain, train_position = np.zeros(n_frames, dtype=complex), np.full(n_frames, np.nan)
    residual_freq_hz, mean_residual_phase_deg = np.zeros(n_frames), np.zeros(n_frames)
    # The training anchor is in the window where the frame starts in it; the
    # truncation check has already put the frame's end there.
    anchored = origin >= 0
    train_gain[rows[anchored]] = estimate_channel(
        frames[anchored, :t_end], np.tile(tables.training, cfg.training_reps)
    )
    train_position[rows[anchored]] = origin[anchored] + 0.5 * (t_end - 1)
    # np.take gathers C-ordered, so each block's mean sums in pilot order.
    h_blocks[rows] = estimate_channel(np.take(frames[:, t_end:], pilot_col, axis=1), tables.pilot)
    block_positions[rows] = origin[:, None] + pilot_index.mean(axis=-1)
    # A non-finite estimate (a NaN or inf sample under a pilot block or the
    # training anchor) cannot be fitted or divided by.
    finite = np.isfinite(h_blocks[rows]).all(axis=-1) & np.isfinite(train_gain[rows])
    failure[rows[~finite]] = UNEQUALIZABLE
    rows, at, frames, anchored = rows[finite], at[finite], frames[finite], anchored[finite]

    # Residual offset is measured before the fine stage corrects it; the
    # training anchor joins the fit as the first block on the rows where it
    # lies in the window. The two groups are fitted apart, each over whole rows.
    h_fit = np.concatenate([train_gain[:, None], h_blocks], axis=-1)
    at_fit = np.concatenate([train_position[:, None], block_positions], axis=-1)
    spacing = cfg.payload_symbols / cfg.pilot_reps
    for group, first in ((rows[anchored], 0), (rows[~anchored], 1)):
        residual_freq_hz[group], mean_residual_phase_deg[group] = residual_offset(
            h_fit[group, first:], at_fit[group, first:], spacing, symbol_period_s
        )

    # Fine frequency correction: de-rotate by the fitted residual, then
    # re-estimate each block so equalization sees the corrected pilots.
    # With several pilots the fit uses only their phases; with one pilot the
    # training anchor is the only second point available.
    fine_freq = residual_freq_hz[rows]
    if cfg.pilot_reps >= 2:
        fine_freq = _pilot_slope_hz(h_blocks[rows], block_positions[rows], symbol_period_s)
    # Only the pilot and data columns are read from here on.
    refined = nco_correct(frames[:, t_end:], fine_freq, symbol_period_s, at[:, t_end:])
    gains = estimate_channel(np.take(refined, pilot_col, axis=1), tables.pilot)
    flat = (np.abs(gains) <= H_MIN).any(axis=-1)
    failure[rows[flat]] = UNEQUALIZABLE

    demapped = rows[~flat]
    equalized = np.zeros((n_frames, cfg.data_symbols), dtype=complex)
    decisions = np.zeros_like(equalized)
    equalized[demapped] = refined[~flat][:, data_col] / gains[~flat][:, data_block]
    constellation = build_constellation(cfg.modulation)
    bits, decisions[demapped] = demap_symbols(equalized[demapped], constellation)
    payloads: list[bytes | None] = [None] * n_frames
    for k, field in zip(demapped.tolist(), unpack_wire_bytes(bits, cfg)):
        payloads[k] = field
        if not crc_check(field):
            failure[k] = CRC_FAIL
    return FrameBatch(
        failure, start, detect_index, c_peak, rho_peak, delta_f_est_hz, h_blocks,
        block_positions, train_gain, train_position, residual_freq_hz,
        mean_residual_phase_deg, equalized, decisions, tuple(payloads),
    )

