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

import math
from dataclasses import dataclass, field

import numpy as np

from .waveform import ComplexBuffer

FADING_MODES = ("none", "block-rayleigh", "block-rician")

# Substream tags so fading, noise, and oscillator walk draws never collide.
_STREAM_FADING = 0xFA
_STREAM_NOISE = 0x0E
_STREAM_WALK = 0x3A


@dataclass(frozen=True)
class ChannelProfile:
    """Impairment parameters for one link condition.

    ``snr_db`` and ``coherence_symbols`` accept ``math.inf`` for the
    noiseless / static cases. ``freq_walk_std_hz`` is the standard deviation
    of the per-coherence-epoch random-walk step added to the oscillator
    frequency on top of the linear drift. A field's config key and ``sim``
    flag is its name unless its ``key`` metadata names it otherwise.
    """

    delta_f_hz: float = field(default=0.0, metadata={"key": "cfo_hz"})
    drift_hz_per_s: float = 0.0
    theta_in_rad: float = 0.0
    snr_db: float = math.inf
    coherence_symbols: float = math.inf
    fading: str = "none"
    rician_k: float = 10.0
    freq_walk_std_hz: float = 0.0
    delay_spread_s: float = 0.0
    seed: int = field(default=0, metadata={"key": "channel_seed"})

    def __post_init__(self) -> None:
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}, got {self.fading!r}")
        if not self.coherence_symbols >= 1:
            raise ValueError("coherence_symbols must be >= 1")
        if math.isfinite(self.coherence_symbols) and self.coherence_symbols % 1:
            raise ValueError(
                f"coherence_symbols must be a whole number or inf, got {self.coherence_symbols}"
            )
        if self.fading == "block-rician" and self.rician_k < 0:
            raise ValueError("rician_k must be >= 0")

    def validate_for_sample_period(self, sample_period: float) -> None:
        """Single-tap assumption: delay spread well under the sample period."""
        if self.delay_spread_s >= sample_period / 10.0:
            raise ValueError(
                f"delay spread {self.delay_spread_s} violates the single-tap "
                f"assumption for sample period {sample_period}"
            )


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, stream])


def epoch_length_samples(profile: ChannelProfile, samples_per_symbol: int) -> int | None:
    """Coherence epoch length in samples, or None for an infinite epoch."""
    if math.isinf(profile.coherence_symbols):
        return None
    return int(profile.coherence_symbols) * samples_per_symbol


def _epoch_index(n_samples: int, epoch_len: int | None) -> np.ndarray:
    if epoch_len is None:
        return np.zeros(n_samples, dtype=np.int64)
    return np.arange(n_samples, dtype=np.int64) // epoch_len


def apply_cfo_phase(
    buf: ComplexBuffer,
    profile: ChannelProfile,
    samples_per_symbol: int = 1,
) -> ComplexBuffer:
    """Rotate samples by the oscillator phase trajectory.

    The instantaneous frequency is ``delta_f + drift_rate * t`` plus, when
    ``freq_walk_std_hz`` is set, a random walk that steps once per coherence
    epoch. The deterministic part integrates in closed form to a quadratic
    phase; the walk part integrates piecewise linearly.
    """
    n = len(buf)
    if n == 0:
        return buf
    t = np.arange(n) * buf.sample_period
    phase = 2.0 * np.pi * (profile.delta_f_hz * t + 0.5 * profile.drift_hz_per_s * t * t)
    phase += profile.theta_in_rad

    if profile.freq_walk_std_hz > 0.0:
        epoch_len = epoch_length_samples(profile, samples_per_symbol)
        idx = _epoch_index(n, epoch_len)
        n_epochs = int(idx[-1]) + 1
        steps = _rng(profile.seed, _STREAM_WALK).normal(
            0.0, profile.freq_walk_std_hz, n_epochs
        )
        walk_freq = np.cumsum(steps)  # frequency offset during each epoch
        freq_per_sample = walk_freq[idx]
        # Integrate the piecewise-constant walk frequency over time.
        walk_phase = 2.0 * np.pi * buf.sample_period * (
            np.cumsum(freq_per_sample) - freq_per_sample
        )
        phase = phase + walk_phase

    return ComplexBuffer(buf.samples * np.exp(1j * phase), buf.sample_period)


def draw_block_gains(profile: ChannelProfile, n_epochs: int) -> np.ndarray:
    """Per-epoch complex gains with unit mean-square magnitude."""
    rng = _rng(profile.seed, _STREAM_FADING)
    scatter = (rng.normal(size=n_epochs) + 1j * rng.normal(size=n_epochs)) / np.sqrt(2.0)
    if profile.fading == "block-rayleigh":
        return scatter
    if profile.fading == "block-rician":
        k = profile.rician_k
        return np.sqrt(k / (k + 1.0)) + scatter * np.sqrt(1.0 / (k + 1.0))
    raise ValueError("fading mode 'none' has no gains to draw")


def apply_block_fading(
    buf: ComplexBuffer,
    profile: ChannelProfile,
    samples_per_symbol: int = 1,
) -> tuple[ComplexBuffer, np.ndarray]:
    """Multiply each coherence epoch by a fresh complex gain.

    Epochs are aligned to the buffer start on symbol boundaries, not frame
    boundaries, so frames of a continuous burst stream straddle epochs.
    Returns the faded buffer and the ground-truth gain sequence.
    """
    if profile.fading == "none":
        raise ValueError("apply_block_fading requires a fading mode other than 'none'")
    n = len(buf)
    if n == 0:
        return buf, np.empty(0, dtype=complex)
    epoch_len = epoch_length_samples(profile, samples_per_symbol)
    idx = _epoch_index(n, epoch_len)
    gains = draw_block_gains(profile, int(idx[-1]) + 1)
    return ComplexBuffer(buf.samples * gains[idx], buf.sample_period), gains


def apply_awgn(
    buf: ComplexBuffer,
    snr_db: float,
    seed: int,
    occupied: slice | None = None,
) -> ComplexBuffer:
    """Add circular complex Gaussian noise at the requested SNR.

    Signal power is measured from the buffer itself, over ``occupied`` when
    given (so trailing filter tails do not skew the calibration). An
    infinite SNR is the identity.
    """
    if len(buf) == 0:
        raise ValueError("cannot add noise to an empty buffer")
    if math.isinf(snr_db):
        return buf
    region = buf.samples[occupied] if occupied is not None else buf.samples
    signal_power = float(np.mean(np.abs(region) ** 2))
    noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    rng = _rng(seed, _STREAM_NOISE)
    n = len(buf)
    noise = np.sqrt(noise_power / 2.0) * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return ComplexBuffer(buf.samples + noise, buf.sample_period)


def apply_channel(
    buf: ComplexBuffer,
    profile: ChannelProfile,
    samples_per_symbol: int = 1,
    occupied: slice | None = None,
) -> tuple[ComplexBuffer, np.ndarray]:
    """Full impairment chain: block fading, oscillator rotation, then noise.

    Returns the impaired buffer and the ground-truth fading gains (empty
    when fading is off). Fully deterministic for a given profile.
    """
    profile.validate_for_sample_period(buf.sample_period)
    gains = np.empty(0, dtype=complex)
    out = buf
    if profile.fading != "none":
        out, gains = apply_block_fading(out, profile, samples_per_symbol)
    out = apply_cfo_phase(out, profile, samples_per_symbol)
    out = apply_awgn(out, profile.snr_db, profile.seed, occupied)
    return out, gains
