"""Deterministic, seedable link impairments.

Models the oscillator and propagation effects a free-running burst link has
to survive: carrier frequency offset with linear drift and an optional
per-epoch frequency random walk, an initial phase offset, block fading with
a configurable coherence length, and additive white Gaussian noise.

Sign convention: a positive frequency offset rotates samples by
``exp(+j*2*pi*f*n*T)``, so the receiver's estimator reports the profile's
``delta_f_hz`` with matching sign and ``sync.nco_correct`` (which rotates by
``exp(-j*2*pi*f*n*T)``) undoes it exactly.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .waveform import read_only

FADING_MODES = ("none", "block-rayleigh", "block-rician")

# Substream tags so fading, noise, and oscillator walk draws never collide.
_STREAM_FADING = 0xFA
_STREAM_NOISE = 0x0E
_STREAM_WALK = 0x3A

# Bound on a finite snr_db: 10**(snr_db/10) overflows a float above about
# 3082.5 dB and rounds to 0 below about -3233 dB.
SNR_DB_LIMIT = 3000.0

# Profile fields that only a finite value gives a meaning.
_FINITE_FIELDS = ("delta_f_hz", "drift_hz_per_s", "theta_in_rad", "rician_k", "freq_walk_std_hz")


@dataclass(frozen=True)
class ChannelProfile:
    """Impairment parameters for one link condition.

    ``snr_db`` and ``coherence_symbols`` accept ``math.inf`` for the
    noiseless / static cases. ``freq_walk_std_hz`` is the standard deviation
    of the per-coherence-epoch random-walk step added to the oscillator
    frequency on top of the linear drift. A field's config key and ``sim``
    flag is its name unless its ``key`` metadata names it otherwise. Field
    order is the event log's channel column order: append a new field.
    """

    snr_db: float = math.inf
    delta_f_hz: float = field(default=0.0, metadata={"key": "cfo_hz"})
    drift_hz_per_s: float = 0.0
    theta_in_rad: float = 0.0
    coherence_symbols: float = math.inf
    fading: str = "none"
    rician_k: float = 10.0
    freq_walk_std_hz: float = 0.0
    seed: int = field(default=0, metadata={"key": "channel_seed"})

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _FINITE_FIELDS and not math.isfinite(value):
                raise ValueError(f"{f.metadata.get('key', f.name)} must be finite, got {value}")
        if not (abs(self.snr_db) <= SNR_DB_LIMIT or self.snr_db == math.inf):
            raise ValueError(f"snr_db must be inf or within +/-{SNR_DB_LIMIT:g}, got {self.snr_db}")
        for name in ("rician_k", "freq_walk_std_hz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}, got {self.fading!r}")
        if not self.coherence_symbols >= 1:
            raise ValueError("coherence_symbols must be >= 1")
        if math.isfinite(self.coherence_symbols) and self.coherence_symbols % 1:
            raise ValueError(
                f"coherence_symbols must be a whole number or inf, got {self.coherence_symbols}"
            )


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, stream])


def _epoch_lengths(n_samples: int, profile: ChannelProfile, samples_per_symbol: int) -> np.ndarray:
    """Sample count of each coherence epoch from sample 0, the last one cut at
    the stream's end. An epoch at least as long as the stream, an infinite
    one included, is one epoch."""
    epoch_len = int(min(profile.coherence_symbols * samples_per_symbol, n_samples))
    return np.diff(np.arange(0, n_samples, epoch_len), append=n_samples)


def _oscillator_phase(
    delta_f_hz: float, drift_hz_per_s: float, theta_in_rad: float, n: int, sample_period: float
) -> np.ndarray:
    """Closed-form phase of the deterministic oscillator: linear CFO plus drift."""
    t = np.arange(n) * sample_period
    phase = 2.0 * np.pi * (delta_f_hz * t + 0.5 * drift_hz_per_s * t * t)
    phase += theta_in_rad
    return phase


@functools.lru_cache(maxsize=1)
def oscillator_rotation(
    delta_f_hz: float, drift_hz_per_s: float, theta_in_rad: float, n: int, sample_period: float
) -> np.ndarray:
    """``exp(1j * phase)`` of the deterministic oscillator over ``n`` samples.

    Keyed on the oscillator's own numbers, not on a profile, so trials that
    differ only in their seed share one read-only array. One entry is kept:
    ``sim --trials`` and each sweep worker repeat one key back to back.
    """
    phase = _oscillator_phase(delta_f_hz, drift_hz_per_s, theta_in_rad, n, sample_period)
    return read_only(np.exp(1j * phase))


def apply_cfo_phase(
    samples: np.ndarray,
    profile: ChannelProfile,
    sample_period: float,
    samples_per_symbol: int = 1,
) -> np.ndarray:
    """Rotate samples by the oscillator phase trajectory.

    The instantaneous frequency is ``delta_f + drift_rate * t`` plus, when
    ``freq_walk_std_hz`` is set, a random walk that steps once per coherence
    epoch. The deterministic part integrates in closed form to a quadratic
    phase, whose rotation is cached (``oscillator_rotation``); the walk part
    is drawn from the seed and integrates piecewise linearly.
    """
    n = len(samples)
    if n == 0:
        return samples
    oscillator = (profile.delta_f_hz, profile.drift_hz_per_s, profile.theta_in_rad)
    if profile.freq_walk_std_hz > 0.0:
        phase = _oscillator_phase(*oscillator, n, sample_period)
        lengths = _epoch_lengths(n, profile, samples_per_symbol)
        walk = _rng(profile.seed, _STREAM_WALK)
        steps = walk.normal(0.0, profile.freq_walk_std_hz, len(lengths))
        walk_freq = np.cumsum(steps)  # frequency offset during each epoch
        freq_per_sample = np.repeat(walk_freq, lengths)
        # Integrate the piecewise-constant walk frequency over time.
        walk_phase = 2.0 * np.pi * sample_period * (
            np.cumsum(freq_per_sample) - freq_per_sample
        )
        return samples * np.exp(1j * (phase + walk_phase))

    # Multiply by a fresh copy: numpy may reuse a fresh temporary as the output
    # and swap the operands, and complex multiply is not bitwise commutative,
    # so only this form matches ``samples * np.exp(...)``.
    return samples * oscillator_rotation(*oscillator, n, sample_period).copy()


def apply_block_fading(
    samples: np.ndarray,
    profile: ChannelProfile,
    samples_per_symbol: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply each coherence epoch by a fresh unit-power complex gain.

    Epochs are aligned to the first sample on symbol boundaries, not frame
    boundaries, so frames of a continuous burst stream straddle epochs.
    Returns the faded samples and the ground-truth gain sequence.
    """
    if profile.fading == "none":
        raise ValueError("apply_block_fading requires a fading mode other than 'none'")
    n = len(samples)
    if n == 0:
        return samples, np.empty(0, dtype=complex)
    lengths = _epoch_lengths(n, profile, samples_per_symbol)
    rng = _rng(profile.seed, _STREAM_FADING)
    gains = (rng.normal(size=len(lengths)) + 1j * rng.normal(size=len(lengths))) / np.sqrt(2.0)
    if profile.fading == "block-rician":
        k = profile.rician_k
        gains = np.sqrt(k / (k + 1.0)) + gains * np.sqrt(1.0 / (k + 1.0))
    # Keep the gains a fresh temporary of the stream's length: from 256 KiB on
    # numpy reuses it as the output, which fixes the operand order the digests
    # pin (complex multiply is not bitwise commutative).
    return samples * np.repeat(gains, lengths), gains


def noise_draw(seed: int) -> Callable[..., np.ndarray]:
    """The draw of the noise under ``seed``: ``noise_draw(seed)(out=block)``
    fills a (2, n) float64 block with the standard normals ``apply_awgn``
    scales into an n-sample stream's noise, and returns it; one (2, n) draw is
    the same stream as two n-sample draws. Building the generator holds the
    GIL; numpy releases it for the whole fill, so a caller can run the
    returned draw on a helper thread."""
    return _rng(seed, _STREAM_NOISE).standard_normal


def apply_awgn(
    samples: np.ndarray,
    snr_db: float,
    seed: int,
    occupied: slice | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Add circular complex Gaussian noise at the requested SNR.

    Signal power is measured from the samples themselves, over ``occupied`` when
    given (so trailing filter tails do not skew the calibration). An
    infinite SNR is the identity. ``noise``, when given, is the block
    ``noise_draw(seed)`` filled for this stream, taken in place of drawing it
    here.
    """
    if len(samples) == 0:
        raise ValueError("cannot add noise to an empty stream")
    if math.isinf(snr_db):
        return samples
    if noise is not None and noise.shape != (2, len(samples)):
        raise ValueError(f"noise block has shape {noise.shape}, expected {(2, len(samples))}")
    region = samples[occupied] if occupied is not None else samples
    signal_power = float(np.mean(np.abs(region) ** 2))
    noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    if noise is None:
        noise = noise_draw(seed)(out=np.empty((2, len(samples))))
    # The noise is built in its own array and the signal added in place, with
    # no complex temporaries.
    scale = np.sqrt(noise_power / 2.0)
    noisy = np.empty(len(samples), dtype=complex)
    np.multiply(scale, noise[0], out=noisy.real)
    np.multiply(scale, noise[1], out=noisy.imag)
    noisy += samples
    return noisy


def apply_channel(
    samples: np.ndarray,
    profile: ChannelProfile,
    sample_period: float,
    samples_per_symbol: int = 1,
    occupied: slice | None = None,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full impairment chain: block fading, oscillator rotation, then noise.

    Returns the impaired samples and the ground-truth fading gains (empty
    when fading is off). Fully deterministic for a given profile; ``noise``
    is passed to ``apply_awgn``.
    """
    gains = np.empty(0, dtype=complex)
    out = samples
    if profile.fading != "none":
        out, gains = apply_block_fading(out, profile, samples_per_symbol)
    out = apply_cfo_phase(out, profile, sample_period, samples_per_symbol)
    out = apply_awgn(out, profile.snr_db, profile.seed, occupied, noise)
    return out, gains
