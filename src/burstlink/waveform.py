"""Symbol- and sample-level signal primitives.

Constellations with Gray labeling, Golay complementary sequences for frame
detection, square-root raised-cosine pulse shaping, matched filtering, and a
square-law AGC loop. Everything here is a pure function of its inputs; the
builders that depend only on a config are cached and return read-only arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BITS_PER_SYMBOL = {4: 2, 8: 3, 16: 4, 64: 6}


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power QAM constellation with an explicit bit labeling.

    ``points[bit_labels[g]]`` is the symbol transmitted for the bit group
    whose unsigned integer value is ``g`` (MSB first within the group), and
    ``point_bits[p]`` is the bit group of point ``p``, MSB first.
    """

    points: np.ndarray
    bits_per_symbol: int
    bit_labels: np.ndarray
    point_bits: np.ndarray


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


@functools.cache
def build_constellation(order: int) -> Constellation:
    """Build the unit-average-power constellation for a supported QAM order.

    With ``bps`` bits per symbol, ``q_bits = bps // 2``, ``n_q = 2**q_bits``
    and ``n_i = order // n_q`` (a 4x2 grid for 8QAM), point ``p = i * n_q +
    q`` is ``(2i - (n_i - 1)) + 1j * (2q - (n_q - 1))``, scaled once to unit
    average power, and carries the bit group ``gray(i) << q_bits | gray(q)``
    with ``gray(k) = k ^ (k >> 1)``, so nearest neighbours differ in one bit.
    """
    if order not in BITS_PER_SYMBOL:
        raise ValueError(
            f"unsupported modulation order {order}; expected one of {tuple(BITS_PER_SYMBOL)}"
        )
    bps = BITS_PER_SYMBOL[order]
    q_bits = bps // 2
    n_q = 1 << q_bits
    i, q = np.divmod(np.arange(order), n_q)
    points = (2 * i - ((order >> q_bits) - 1)) + 1j * (2 * q - (n_q - 1))
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    groups = (i ^ i >> 1) << q_bits | (q ^ q >> 1)
    # The inverse permutation by scatter: np.argsort pages in about 0.3 MB of
    # numpy's sort code, which shows in every process's peak RSS.
    labels = np.empty_like(groups)
    labels[groups] = np.arange(order)
    point_bits = ((groups[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.uint8)
    return Constellation(
        points=read_only(points),
        bits_per_symbol=bps,
        bit_labels=read_only(labels),
        point_bits=read_only(point_bits),
    )


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Map a 0/1 bit sequence to constellation symbols, MSB first per group."""
    bits = np.asarray(bits, dtype=np.uint8)
    bps = constellation.bits_per_symbol
    if bits.size % bps:
        raise ValueError(
            f"bit count {bits.size} not divisible by {bps} bits per symbol"
        )
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    values = groups @ weights
    return constellation.points[constellation.bit_labels[values]]


# The slice is the full search's decision wherever margin * spacing >
# _SLICE_BOUND * (|re| + |im| + reach)**2 + tiny. The search's float d² is
# within a relative 1e-15 of the exact one (a rounding per component of s - p,
# under 1 ulp in hypot, one in the square); any other grid point's exact d²
# exceeds the slice's by at least 2 * spacing * margin; neither exceeds
# (|re| + |im| + reach)**2, reach the largest |point|. So 1e-12 leaves a factor
# of 1,000, which covers the rounded midpoints too; tiny covers subnormal d².
_SLICE_BOUND = 1e-12


def _slice_axis(x: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the sorted level nearest each value (``np.searchsorted``'s over
    the midpoints for a non-NaN value, at a third of its cost), and the
    value's distance to the nearest midpoint."""
    mid = (levels[1:] + levels[:-1]) / 2
    index = np.zeros(len(x), dtype=np.intp)
    for m in mid:
        index += x > m
    edges = np.concatenate(([-np.inf], mid, [np.inf]))
    return index, np.minimum(x - edges[index], edges[index + 1] - x)


def _levels(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a NaN-free ``x``, bit for bit ``np.unique(x)``,
    which imports all of ``numpy.ma`` at its first call."""
    x = np.sort(x)
    return np.concatenate((x[:1], x[1:][x[1:] != x[:-1]]))


def _slice_grid(s: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each symbol's point index sliced per axis, and a mask of the symbols
    whose slice is not provably nearest: all of them unless ``points`` is a
    row-major grid of its distinct I and Q levels."""
    li, lq = _levels(points.real), _levels(points.imag)
    if not np.array_equal(points, (li[:, None] + 1j * lq).ravel()):
        return np.zeros(len(s), dtype=np.intp), np.ones(len(s), dtype=bool)
    spacing = min(np.diff(li).min(initial=np.inf), np.diff(lq).min(initial=np.inf))
    re, im = s.real.copy(), s.imag.copy()  # contiguous copies make each pass faster
    with np.errstate(all="ignore"):  # NaN, inf and overflow fail the test below
        (i, margin_i), (q, margin_q) = _slice_axis(re, li), _slice_axis(im, lq)
        bound = _SLICE_BOUND * (np.abs(re) + np.abs(im) + np.abs(points).max()) ** 2
        sure = np.minimum(margin_i, margin_q) * spacing > bound + np.finfo(float).tiny
    return i * len(lq) + q, ~sure


def demap_symbols(
    symbols: np.ndarray, constellation: Constellation
) -> tuple[np.ndarray, np.ndarray]:
    """Hard-decide symbols by nearest constellation point.

    Returns the decided bits (MSB first per symbol) and the decided points.
    A grid constellation's symbols are sliced per axis; those the slice
    cannot prove, and every symbol of any other constellation, take the full
    search over every point, whose ties go to the lowest point index. The
    two agree bit for bit. ``symbols`` of shape (..., D) give bits of shape
    (..., D * bits_per_symbol) and decisions of shape (..., D).
    """
    symbols = np.asarray(symbols, dtype=complex)
    flat, points = symbols.ravel(), constellation.points
    nearest, search = _slice_grid(flat, points)
    if search.any():  # the masked passes cost more than the check when nothing is left
        nearest[search] = np.argmin(np.abs(flat[search, None] - points) ** 2, axis=-1)
    nearest = nearest.reshape(symbols.shape)
    width = math.prod(symbols.shape[-1:]) * constellation.bits_per_symbol  # D, 1 if 0-d
    bits = np.take(constellation.point_bits, nearest, axis=0)  # 10x faster than indexing
    return bits.reshape(symbols.shape[:-1] + (width,)), points[nearest]


@functools.cache
def generate_golay_pair(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Generate a +/-1 Golay complementary pair ``(a, b)`` by recursive doubling.

    The aperiodic autocorrelations of the two sequences sum to 2*length at
    lag zero and exactly zero at every other lag.
    """
    if length < 2 or length > 4096 or (length & (length - 1)) != 0:
        raise ValueError(f"Golay length must be a power of two in [2, 4096], got {length}")
    a = np.array([1], dtype=np.int64)
    b = np.array([1], dtype=np.int64)
    while len(a) < length:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return read_only(a), read_only(b)


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


def shape_and_upsample(frames: np.ndarray, cfg: PulseShapeConfig) -> np.ndarray:
    """Zero-stuff (F, S) frames back to back by the interpolation factor and
    convolve the stream with the SRRC taps; a 1-D input is one frame.

    The result is ``np.convolve`` of the stuffed stream bit for bit, taken as
    ``matched_filter`` takes it: ``interpolation * frames.size + tap_count -
    1`` outputs, none for empty input. An output whose window lies in the
    leading symbol columns every row shares (bit-equal) is computed for row
    0 and copied to the others.
    """
    frames = np.atleast_2d(np.ascontiguousarray(frames, dtype=complex))
    if frames.size == 0:
        return np.empty(0, dtype=complex)
    taps, p, t = design_srrc(cfg), cfg.interpolation, cfg.tap_count
    f, width, n = len(frames), frames.shape[1] * p, frames.size * p
    stuffed = np.zeros(n + t - 1, dtype=complex)  # zeros past n only pad the tail windows
    stuffed[:n].reshape(f, width)[:, ::p] = frames
    if n < t:
        return np.convolve(stuffed[:n], taps)
    words = frames.view(np.uint64)  # two words per symbol
    shared = int(np.argmin(np.append((words == words[0]).all(axis=0), False))) // 2
    lo = t - 1
    common = max(shared * p - lo, 0)  # a row's first outputs that read only shared columns
    out = np.empty(n + t - 1, dtype=complex)
    reverse = taps[::-1].astype(complex)
    # Row r's output lo + r * width + k reads window r * width + k: both
    # reshapes split the leading axis, so they stay views.
    windows = sliding_window_view(stuffed, t).reshape(f, width, t)
    rows = out[lo : lo + n].reshape(f, width)
    with np.errstate(invalid="ignore"):  # vecdot warns on an inf sample; np.convolve does not
        np.vecdot(reverse, windows[0, :common], out=rows[0, :common])
        rows[1:, :common] = rows[0, :common]
        np.vecdot(reverse, windows[:, common:], out=rows[:, common:])  # the rest, in one call
    out[:lo] = np.convolve(stuffed[:t], taps)[:lo]
    out[n:] = np.convolve(stuffed[n - t : n], taps)[t:]
    return out


def matched_filter_downsample(
    x: np.ndarray, cfg: PulseShapeConfig, first: int = 0, count: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``matched_filter``'s outputs for symbols ``first`` to ``first +
    count`` (to the end by default) at every decimation phase.

    Samples ``x`` of shape (..., N) give ``streams`` of shape (..., P,
    count), P the interpolation factor, and ``lengths`` of shape (P,):
    symbol k at phase p is filter output ``k * P + p``, phase p holds
    ``lengths[p] = ceil((N - p)/P)`` symbols, and zeros follow them. The
    combined group delay of the shaping/matched pair (tap_count - 1 samples)
    is trimmed, so for samples from ``shape_and_upsample`` the symbols sit
    at phase 0.
    """
    n, sps = x.shape[-1], cfg.interpolation
    count = -(-n // sps) - first if count is None else count
    out = matched_filter(x.reshape(math.prod(x.shape[:-1]), n), cfg, first * sps, count * sps)
    streams = out.reshape(x.shape[:-1] + (count, sps)).swapaxes(-1, -2)
    return streams, (n - np.arange(sps) + sps - 1) // sps


def matched_filter(
    x: np.ndarray, cfg: PulseShapeConfig, start, count: int, step: int = 1
) -> np.ndarray:
    """Outputs ``start[r] + step * k``, k < ``count``, of each row r of the
    trimmed SRRC convolution ``np.convolve(x[r], taps)[tap_count - 1:]``,
    bit for bit, filtering only those: (F, count) for samples (F, N).
    ``start`` is one int for all rows or one per row; a negative start leaves
    its row zero, as every output from N on is. Full overlaps are
    ``np.vecdot`` with the reversed taps as its first (conjugated) operand,
    the dot product ``np.convolve`` takes, in one call when all rows share a
    start. Output j > N - tap_count overlaps the first N - j reversed taps
    with ``x[r, j:]``: one vecdot per column over the rows of each start, and
    ``np.convolve``'s partial sum, which a zero-padded window is not. A row
    shorter than the taps takes ``np.convolve``, which swaps its operands."""
    taps, t, n = design_srrc(cfg), cfg.tap_count, x.shape[-1]
    reverse = taps[::-1].astype(np.result_type(x, taps))
    out = np.zeros((len(x), count), dtype=reverse.dtype)
    windows = sliding_window_view(x, t, axis=-1) if n >= t else None
    starts = np.broadcast_to(start, len(x))
    with np.errstate(invalid="ignore"):  # vecdot warns on an inf sample; np.convolve does not
        for s in set(starts[starts >= 0].tolist()):
            members = np.flatnonzero(starts == s)
            shared = len(members) == len(x)
            rows = slice(None) if shared else members
            body = min(max(-((t - 1 - n + s) // step), 0), count)  # outputs up to N - t
            stop = min(max(-((s - n) // step), 0), count)  # outputs before N
            if windows is None:  # on a row shorter than its taps np.convolve swaps its operands
                for row in members if stop else ():
                    out[row, :stop] = np.convolve(x[row], taps)[s + t - 1 :: step][:stop]
                continue
            for r in [rows] if shared else members:  # an index array would copy the window view
                np.vecdot(reverse, windows[r, s : s + body * step : step], out=out[r, :body])
            for k in range(body, stop):  # output j overlaps the taps with x[j:]
                j = s + k * step
                out[rows, k] = np.vecdot(reverse[: n - j], x[rows, j:])
    return out


# Burst AGC loop gain, and the sample after which the gain freezes; sized to
# sit inside the training+preamble region at the default interpolation factor.
AGC_LOOP_GAIN = 0.05
AGC_FREEZE_SAMPLES = 512
AGC_GAIN_BOUNDS = (1e-6, 1e6)  # the clamp, so an all-zero input stays all-zero


def agc(x: np.ndarray) -> np.ndarray:
    """Burst-mode square-law AGC to unit power.

    The gain is updated per sample, ``g *= 1 + AGC_LOOP_GAIN * (1 - |y|^2)``,
    clamped to ``AGC_GAIN_BOUNDS`` and held from sample ``AGC_FREEZE_SAMPLES``
    on: acquire on the training and preamble, then keep the payload scaling
    constant. After an inf or NaN sample before the freeze the gain is NaN.

    ``x`` may have shape ``(..., N)``: the loop runs along the last
    axis with one gain per leading index, each step one array operation over
    all of them, so every row comes out exactly as it would alone. The gains
    are first computed unclamped, and only the rows whose gains leave the
    bounds (a non-finite sample sends them out too) again with the clamp.
    """
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1])
    limit = min(AGC_FREEZE_SAMPLES, x.shape[-1])
    # Sample k's real and imaginary parts as one contiguous (2, R) block.
    samples = np.stack([rows[:, :limit].real.T, rows[:, :limit].imag.T], axis=1)
    with np.errstate(all="ignore"):  # an inf or NaN sample warns, here and in the products
        gains = _agc_gains(samples, clamp=False)
        redo = (np.clip(gains, *AGC_GAIN_BOUNDS) != gains).any(axis=0)  # NaN != NaN too
        if redo.any():
            gains[:, redo] = _agc_gains(samples[:, :, redo], clamp=True)
            gains[1:][np.logical_or.accumulate(~np.isfinite(samples).all(axis=1), axis=0)] = np.nan
        out = np.empty(rows.shape, rows.dtype)
        out[:, :limit] = gains[:limit].T * rows[:, :limit]
        out[:, limit:] = gains[limit][:, None] * rows[:, limit:]
    if redo.any():
        # IEEE 754 leaves a NaN product's sign to the multiply loop: a row whose
        # gain is NaN gets the one quiet NaN wherever it has a NaN.
        parts = out.view(out.real.dtype)
        parts[np.isnan(gains[limit])[:, None] & np.isnan(parts)] = np.nan
    return out.reshape(x.shape)


def _agc_gains(samples: np.ndarray, clamp: bool) -> np.ndarray:
    """The AGC gain before each (2, R) step of ``samples`` (limit, 2, R), then the frozen gain.

    Each step is seven in-place calls, y = g*s, y*y, e = 1 - (re^2 + im^2) and
    g * (1 + loop_gain*e), and the clamp two more; the constants are arrays, as
    a Python float costs every small ufunc call a conversion.
    """
    r = samples.shape[-1]
    gains, y, e = np.ones((len(samples) + 1, r)), np.empty((2, r)), np.empty(r)
    one, loop_gain, low, high = (np.full(r, v) for v in (1.0, AGC_LOOP_GAIN, *AGC_GAIN_BOUNDS))
    y0, y1 = y
    mul, add, sub = np.multiply, np.add, np.subtract
    for s, g, nxt in zip(samples, gains, gains[1:]):
        mul(g, s, y)
        mul(y, y, y)
        add(y0, y1, e)
        sub(one, e, e)
        mul(loop_gain, e, e)
        add(one, e, e)
        mul(g, e, nxt)
        if clamp:
            np.maximum(nxt, low, out=nxt)
            np.minimum(nxt, high, out=nxt)
    return gains
