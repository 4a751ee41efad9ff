"""Symbol- and sample-level signal primitives.

Constellations with Gray labeling, Golay complementary sequences for frame
detection, square-root raised-cosine pulse shaping, matched filtering, and a
square-law AGC loop. Everything here is a pure function of its inputs; the
builders that depend only on a config are cached and return read-only arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

BITS_PER_SYMBOL = {4: 2, 8: 3, 16: 4, 64: 6}


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power QAM constellation with an explicit bit labeling.

    ``points[bit_labels[g]]`` is the symbol transmitted for the bit group
    whose unsigned integer value is ``g`` (MSB first within the group).
    """

    order: int
    points: np.ndarray
    bits_per_symbol: int
    bit_labels: tuple[int, ...]


@dataclass(frozen=True)
class GolayPair:
    """Complementary pair of +/-1 sequences of length ``length``."""

    a: np.ndarray
    b: np.ndarray
    length: int


@dataclass(frozen=True)
class PulseShapeConfig:
    """Square-root raised-cosine shaping parameters.

    ``interpolation`` is the integer upsampling factor (samples per symbol).
    """

    # Span 24 keeps the TX/RX filter cascade's symbol-instant ISI near 6e-4
    # RMS; short spans leave an ISI floor that dominates loopback EVM.
    roll_off: float = 0.25
    span_symbols: int = 24
    interpolation: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.roll_off <= 1.0:
            raise ValueError(f"roll_off must be in (0, 1], got {self.roll_off}")
        if self.span_symbols < 1:
            raise ValueError("span_symbols must be >= 1")
        if self.interpolation < 2:
            raise ValueError("interpolation factor must be >= 2")

    @property
    def tap_count(self) -> int:
        return self.span_symbols * self.interpolation + 1


def read_only(array: np.ndarray) -> np.ndarray:
    """Freeze an array a cached builder returns, so no caller can alter the
    entry every later caller shares."""
    array.flags.writeable = False
    return array


def _gray_to_index(code: int) -> int:
    """Decode a Gray code word to its sequential level index."""
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def _axis_levels(bits: int) -> np.ndarray:
    n = 1 << bits
    return np.arange(-(n - 1), n, 2, dtype=float)


def _grid_constellation(i_bits: int, q_bits: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Rectangular grid with per-axis Gray labeling.

    The first ``i_bits`` of a group select the in-phase level, the remaining
    ``q_bits`` the quadrature level. Points are stored row-major over the
    grid; ``labels[g]`` maps group value g to its point index.
    """
    i_levels = _axis_levels(i_bits)
    q_levels = _axis_levels(q_bits)
    n_i, n_q = len(i_levels), len(q_levels)

    points = np.empty(n_i * n_q, dtype=complex)
    for ii in range(n_i):
        for qq in range(n_q):
            points[ii * n_q + qq] = i_levels[ii] + 1j * q_levels[qq]
    points /= np.sqrt(np.mean(np.abs(points) ** 2))

    labels = [0] * (n_i * n_q)
    for group in range(n_i * n_q):
        i_code = group >> q_bits
        q_code = group & ((1 << q_bits) - 1)
        idx = _gray_to_index(i_code) * n_q + _gray_to_index(q_code)
        labels[group] = idx
    return points, tuple(labels)


@functools.cache
def build_constellation(order: int) -> Constellation:
    """Build the normalized constellation for a supported QAM order.

    Square orders (4, 16, 64) use per-axis Gray labeling; 8QAM is a 4x2
    rectangular grid (two Gray bits on I, one on Q) scaled to unit average
    power, so nearest neighbors always differ in exactly one bit.
    """
    if order not in BITS_PER_SYMBOL:
        raise ValueError(
            f"unsupported modulation order {order}; expected one of {tuple(BITS_PER_SYMBOL)}"
        )
    bps = BITS_PER_SYMBOL[order]
    q_bits = bps // 2
    i_bits = bps - q_bits
    points, labels = _grid_constellation(i_bits, q_bits)
    return Constellation(
        order=order, points=read_only(points), bits_per_symbol=bps, bit_labels=labels
    )


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Map a 0/1 bit sequence to constellation symbols, MSB first per group."""
    bits = np.asarray(bits, dtype=np.uint8)
    bps = constellation.bits_per_symbol
    if bits.size % bps:
        raise ValueError(
            f"bit count {bits.size} not divisible by {bps} bits per symbol"
        )
    if bits.size == 0:
        return np.empty(0, dtype=complex)
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    values = groups @ weights
    labels = np.asarray(constellation.bit_labels)
    return constellation.points[labels[values]]


def demap_symbols(
    symbols: np.ndarray, constellation: Constellation
) -> tuple[np.ndarray, np.ndarray]:
    """Hard-decide symbols by nearest constellation point.

    Returns the decided bits (MSB first per symbol) and the decided points,
    both from one distance matrix. Ties go to the lowest point index, which
    makes the decision deterministic. ``symbols`` of shape (..., D) give
    bits of shape (..., D * bits_per_symbol) and decisions of shape (..., D).
    """
    symbols = np.asarray(symbols, dtype=complex)
    d2 = np.abs(symbols[..., None] - constellation.points) ** 2
    nearest = np.argmin(d2, axis=-1)

    labels = np.asarray(constellation.bit_labels)
    inverse = np.empty_like(labels)
    inverse[labels] = np.arange(len(labels))
    values = inverse[nearest]

    bps = constellation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    bits = ((values[..., None] >> shifts) & 1).astype(np.uint8)
    return bits.reshape(symbols.shape[:-1] + (-1,)), constellation.points[nearest]


@functools.cache
def generate_golay_pair(length: int) -> GolayPair:
    """Generate a +/-1 Golay complementary pair by recursive doubling.

    The aperiodic autocorrelations of the two sequences sum to 2*length at
    lag zero and exactly zero at every other lag.
    """
    if length < 2 or length > 4096 or (length & (length - 1)) != 0:
        raise ValueError(f"Golay length must be a power of two in [2, 4096], got {length}")
    a = np.array([1], dtype=np.int64)
    b = np.array([1], dtype=np.int64)
    while len(a) < length:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return GolayPair(a=read_only(a), b=read_only(b), length=length)


def complementary_autocorrelation(pair: GolayPair) -> np.ndarray:
    """Sum of the aperiodic autocorrelations of the pair, lags 0..length-1."""
    n = pair.length
    out = np.empty(n, dtype=np.int64)
    for lag in range(n):
        out[lag] = int(np.dot(pair.a[lag:], pair.a[: n - lag])) + int(
            np.dot(pair.b[lag:], pair.b[: n - lag])
        )
    return out


@functools.cache
def design_srrc(cfg: PulseShapeConfig) -> np.ndarray:
    """Unit-energy square-root raised-cosine taps from the closed form.

    The removable singularities at t = 0 and |t| = T/(4*beta) are evaluated
    with their analytic limits so the taps are bit-reproducible.
    """
    beta = cfg.roll_off
    n = cfg.tap_count
    # Symbol-normalized time axis, symmetric around zero.
    t = (np.arange(n) - (n - 1) / 2) / cfg.interpolation

    taps = np.empty(n, dtype=float)
    at_zero = t == 0.0
    at_sing = np.isclose(np.abs(t), 1.0 / (4.0 * beta), rtol=0.0, atol=1e-12)
    regular = ~(at_zero | at_sing)

    taps[at_zero] = 1.0 - beta + 4.0 * beta / np.pi
    taps[at_sing] = (beta / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
    )
    tr = t[regular]
    num = np.sin(np.pi * tr * (1.0 - beta)) + 4.0 * beta * tr * np.cos(
        np.pi * tr * (1.0 + beta)
    )
    den = np.pi * tr * (1.0 - (4.0 * beta * tr) ** 2)
    taps[regular] = num / den

    return read_only(taps / np.sqrt(np.sum(taps**2)))


def shape_and_upsample(symbols: np.ndarray, cfg: PulseShapeConfig) -> np.ndarray:
    """Zero-stuff by the interpolation factor and convolve with SRRC taps.

    Output length is ``interpolation * n_symbols + tap_count - 1``; empty
    input yields an empty array.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.size == 0:
        return np.empty(0, dtype=complex)
    stuffed = np.zeros(symbols.size * cfg.interpolation, dtype=complex)
    stuffed[:: cfg.interpolation] = symbols
    return np.convolve(stuffed, design_srrc(cfg))


def matched_filter_downsample(
    x: np.ndarray, cfg: PulseShapeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter with the SRRC taps once and decimate at every phase.

    Samples ``x`` of shape (..., N) give ``streams`` of shape (..., P,
    ceil(N/P)), P the interpolation factor, and ``lengths`` of shape (P,):
    ``streams[..., p, :lengths[p]]`` are the symbol-rate samples at sampling
    phase p, ``lengths[p] = ceil((N - p)/P)``, and zeros follow them.
    ``streams`` is a view of one zero-padded filter output. The combined
    group delay of the shaping/matched pair (tap_count - 1 samples) is
    trimmed, so for samples from ``shape_and_upsample`` the symbols sit at
    phase 0. Each row is filtered on its own (``np.convolve`` is 1-D).
    """
    taps, n, sps = design_srrc(cfg), x.shape[-1], cfg.interpolation
    width = -(-n // sps)
    trimmed = np.zeros(x.shape[:-1] + (width * sps,), dtype=np.result_type(x, taps))
    for row in np.ndindex(x.shape[:-1]):
        if n:
            trimmed[row][:n] = np.convolve(x[row], taps)[cfg.tap_count - 1 :]
    streams = trimmed.reshape(x.shape[:-1] + (width, sps)).swapaxes(-1, -2)
    return streams, (n - np.arange(sps) + sps - 1) // sps


# Burst AGC loop gain, and the sample after which the gain freezes; sized to
# sit inside the training+preamble region at the default interpolation factor.
AGC_LOOP_GAIN = 0.05
AGC_FREEZE_SAMPLES = 512


def agc(x: np.ndarray) -> np.ndarray:
    """Burst-mode square-law AGC to unit power.

    The gain is updated per sample, ``g *= 1 + AGC_LOOP_GAIN * (1 - |y|^2)``,
    clamped to [1e-6, 1e6] so an all-zero input stays all-zero, and held from
    sample ``AGC_FREEZE_SAMPLES`` on: acquire on the training and preamble,
    then keep the payload scaling constant.

    ``x`` may have shape ``(..., N)``: the loop runs along the last
    axis with one gain per leading index, each step one array operation over
    all of them, so every row comes out exactly as it would alone.
    """
    out = np.empty_like(x)
    gain = np.ones(x.shape[:-1])
    limit = min(AGC_FREEZE_SAMPLES, x.shape[-1])
    with np.errstate(invalid="ignore"):  # gain * inf is inf + nan*j: a NaN, not a warning
        for k in range(limit):
            y = gain * x[..., k]
            out[..., k] = y
            err = 1.0 - (y.real * y.real + y.imag * y.imag)
            gain = np.minimum(np.maximum(gain * (1.0 + AGC_LOOP_GAIN * err), 1e-6), 1e6)
        out[..., limit:] = gain[..., None] * x[..., limit:]
    return out
