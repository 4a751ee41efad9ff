"""Tests for the seedable impairment engine."""

import math
from dataclasses import replace

import numpy as np
import pytest

from burstlink.channel import (
    _STREAM_NOISE,
    ChannelProfile,
    _rng,
    apply_awgn,
    apply_block_fading,
    apply_cfo_phase,
    apply_channel,
    noise_draw,
    oscillator_rotation,
)
from burstlink.config import load_sweep_config
from burstlink.framing import FrameConfig
from burstlink.harness import run_trial_events
from burstlink.sync import nco_correct

T_S = 1e-6


def unit_tone(n):
    return np.exp(1j * 0.123 * np.arange(n))


class TestCfoPhase:
    def test_no_impairment_is_identity(self):
        buf = unit_tone(256)
        out = apply_cfo_phase(buf, ChannelProfile(), T_S)
        assert np.allclose(out, buf)

    def test_pi_initial_phase_negates(self):
        buf = unit_tone(64)
        out = apply_cfo_phase(buf, ChannelProfile(theta_in_rad=np.pi), T_S)
        assert np.allclose(out, -buf, atol=1e-12)

    def test_drift_ramps_instantaneous_frequency(self):
        # Finite-difference oracle on the phase sequence: frequency should ramp
        # linearly from delta_f to delta_f + drift * t_end.
        fs = 1e6
        n = int(1e6)
        profile = ChannelProfile(delta_f_hz=500.0, drift_hz_per_s=100.0)
        out = apply_cfo_phase(np.ones(n, dtype=complex), profile, 1 / fs)
        phase = np.unwrap(np.angle(out))
        inst_freq = np.diff(phase) * fs / (2 * np.pi)
        assert inst_freq[0] == pytest.approx(500.0, abs=1.0)
        assert inst_freq[-1] == pytest.approx(600.0, abs=1.0)

    def test_commutes_with_scalar_gain(self):
        buf = unit_tone(128)
        profile = ChannelProfile(delta_f_hz=1234.0, theta_in_rad=0.7)
        assert np.allclose(
            apply_cfo_phase(3.5 * buf, profile, T_S), 3.5 * apply_cfo_phase(buf, profile, T_S)
        )

    def test_nco_correct_inverts_cfo(self):
        buf = unit_tone(512)
        f = 4000.0
        rotated = apply_cfo_phase(buf, ChannelProfile(delta_f_hz=f), T_S)
        back = nco_correct(rotated, f, T_S)
        assert np.max(np.abs(back - buf)) < 1e-9

    def test_frequency_walk_deterministic_and_continuous(self):
        profile = ChannelProfile(
            freq_walk_std_hz=200.0, coherence_symbols=64, seed=3
        )
        buf = unit_tone(1024)
        a = apply_cfo_phase(buf, profile, T_S, samples_per_symbol=4)
        b = apply_cfo_phase(buf, profile, T_S, samples_per_symbol=4)
        assert np.array_equal(a, b)
        # The walk integrates to a continuous phase: no sample-to-sample jumps.
        dphi = np.abs(np.diff(np.unwrap(np.angle(a / buf))))
        assert np.max(dphi) < 0.1

    @pytest.mark.parametrize("n", [1_000, 1_030])
    def test_frequency_walk_matches_the_gathered_walk(self, n):
        # Repeating each epoch's walk frequency equals gathering it per sample,
        # as bytes; 1,030 samples end in a partial epoch.
        profile = ChannelProfile(
            delta_f_hz=300.0, drift_hz_per_s=50.0, theta_in_rad=0.2,
            freq_walk_std_hz=200.0, coherence_symbols=64, seed=3,
        )
        samples = np.random.default_rng(n).normal(size=2 * n).view(complex)
        t = np.arange(n) * T_S
        phase = 2.0 * np.pi * (300.0 * t + 0.5 * 50.0 * t * t)
        phase += 0.2
        idx = np.arange(n, dtype=np.int64) // (64 * 4)
        steps = np.random.default_rng([3, 0x3A]).normal(0.0, 200.0, idx[-1] + 1)
        freq = np.cumsum(steps)[idx]
        walk_phase = 2.0 * np.pi * T_S * (np.cumsum(freq) - freq)
        want = samples * np.exp(1j * (phase + walk_phase))
        got = apply_cfo_phase(samples, profile, T_S, samples_per_symbol=4)
        assert got.tobytes() == want.tobytes()


class TestBlockFading:
    def test_infinite_coherence_single_gain(self):
        profile = ChannelProfile(fading="block-rayleigh", seed=1)
        buf = unit_tone(300)
        out, gains = apply_block_fading(buf, profile)
        assert len(gains) == 1
        assert np.allclose(out, gains[0] * buf)

    def test_rayleigh_unit_mean_square(self):
        profile = ChannelProfile(
            fading="block-rayleigh", coherence_symbols=1, seed=2
        )
        _, gains = apply_block_fading(np.ones(100_000, dtype=complex), profile)
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_rician_unit_mean_square_and_concentration(self):
        profile = ChannelProfile(
            fading="block-rician", rician_k=10.0, coherence_symbols=1, seed=3
        )
        _, gains = apply_block_fading(np.ones(100_000, dtype=complex), profile)
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.02)
        # Strong line-of-sight component keeps gains near unit magnitude.
        assert np.std(np.abs(gains)) < 0.35

    def test_same_seed_identical_gains(self):
        profile = ChannelProfile(fading="block-rayleigh", coherence_symbols=16, seed=7)
        buf = unit_tone(4096)
        _, g1 = apply_block_fading(buf, profile, samples_per_symbol=4)
        _, g2 = apply_block_fading(buf, profile, samples_per_symbol=4)
        assert np.array_equal(g1, g2)

    def test_epochs_align_to_symbol_grid(self):
        profile = ChannelProfile(fading="block-rayleigh", coherence_symbols=8, seed=9)
        buf = unit_tone(256)
        out, gains = apply_block_fading(buf, profile, samples_per_symbol=4)
        epoch_len = 8 * 4
        for e in range(len(gains)):
            seg = out[e * epoch_len : (e + 1) * epoch_len]
            ref = buf[e * epoch_len : (e + 1) * epoch_len]
            assert np.allclose(seg, gains[e] * ref)

    @pytest.mark.parametrize("n", [1_000, 40_000], ids=["below-256KiB", "above-256KiB"])
    @pytest.mark.parametrize("coherence", [7, 128, 10_000, math.inf])
    def test_output_bits_match_the_gathered_gains(self, n, coherence):
        # Repeating each epoch's gain equals gathering it per sample, as bytes,
        # on either side of numpy's 256 KiB temporary elision; 7 and 128
        # symbols end in a partial epoch, the others are one epoch.
        profile = ChannelProfile(
            fading="block-rician", rician_k=10.0, coherence_symbols=coherence, seed=5
        )
        samples = np.random.default_rng(n).normal(size=2 * n).view(complex)
        out, gains = apply_block_fading(samples, profile, samples_per_symbol=4)
        idx = np.zeros(n, dtype=np.int64)
        if coherence * 4 < n:
            idx = np.arange(n, dtype=np.int64) // (int(coherence) * 4)
        want = samples * gains[idx]  # outside the assert, which would keep the temporary
        assert len(gains) == idx[-1] + 1
        assert out.tobytes() == want.tobytes()

    def test_fading_none_rejected(self):
        with pytest.raises(ValueError, match="fading"):
            apply_block_fading(unit_tone(10), ChannelProfile())

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="fading"):
            ChannelProfile(fading="rayleigh")

    def test_negative_rician_k_rejected(self):
        with pytest.raises(ValueError, match="rician_k must be >= 0"):
            ChannelProfile(fading="block-rician", rician_k=-1.0)
        # Without fading no sample reads it, but the snapshot would log it.
        with pytest.raises(ValueError, match="rician_k must be >= 0"):
            ChannelProfile(fading="none", rician_k=-1.0)


class TestAwgn:
    def test_infinite_snr_is_identity(self):
        buf = unit_tone(100)
        out = apply_awgn(buf, math.inf, seed=0)
        assert out is buf

    def test_zero_db_noise_power_calibration(self):
        buf = np.exp(1j * 0.7 * np.arange(100_000))
        out = apply_awgn(buf, 0.0, seed=4)
        noise_power = np.mean(np.abs(out - buf) ** 2)
        assert noise_power == pytest.approx(1.0, rel=0.02)

    def test_different_seeds_different_noise(self):
        buf = unit_tone(1000)
        a = apply_awgn(buf, 10.0, seed=1)
        b = apply_awgn(buf, 10.0, seed=2)
        assert not np.array_equal(a, b)
        pa = np.mean(np.abs(a - buf) ** 2)
        pb = np.mean(np.abs(b - buf) ** 2)
        assert pa == pytest.approx(pb, rel=0.2)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            apply_awgn(np.array([], dtype=complex), 10.0, 0)

    def test_occupied_span_sets_reference_power(self):
        samples = np.concatenate([2.0 * np.ones(5000), np.zeros(5000)]).astype(complex)
        out = apply_awgn(samples, 0.0, seed=5, occupied=slice(0, 5000))
        noise_power = np.mean(np.abs(out - samples) ** 2)
        assert noise_power == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("n", [1, 7, 89_728])
    def test_drawn_block_is_the_seeded_draw(self, n):
        block = np.empty((2, n))
        assert noise_draw(9)(out=block) is block
        want = _rng(9, _STREAM_NOISE).standard_normal((2, n))
        assert block.tobytes() == want.tobytes()

    def test_a_drawn_block_gives_the_same_bits(self):
        buf = unit_tone(3001)
        block = noise_draw(6)(out=np.empty((2, len(buf))))
        want = apply_awgn(buf, 12.0, seed=6, occupied=slice(10, 2990))
        got = apply_awgn(buf, 12.0, seed=6, occupied=slice(10, 2990), noise=block)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 99), (2, 101), (1, 100), (100,)])
    def test_a_block_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"noise block has shape .*, expected \(2, 100\)"):
            apply_awgn(unit_tone(100), 10.0, seed=1, noise=np.zeros(shape))


class TestCompositeChannel:
    def test_full_determinism(self):
        profile = ChannelProfile(
            delta_f_hz=900.0,
            drift_hz_per_s=50.0,
            theta_in_rad=0.4,
            snr_db=15.0,
            coherence_symbols=32,
            fading="block-rician",
            rician_k=5.0,
            seed=11,
        )
        buf = unit_tone(2048)
        a, ga = apply_channel(buf, profile, T_S, samples_per_symbol=4)
        b, gb = apply_channel(buf, profile, T_S, samples_per_symbol=4)
        assert np.array_equal(a, b)
        assert np.array_equal(ga, gb)

    def test_coherence_validation(self):
        with pytest.raises(ValueError, match="coherence"):
            ChannelProfile(coherence_symbols=0)

    def test_fractional_coherence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="coherence_symbols"):
            ChannelProfile(coherence_symbols=100.5)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("coherence_symbols = 100.5\n")
        with pytest.raises(ValueError, match="coherence_symbols"):
            load_sweep_config(str(cfg))

    def test_whole_and_infinite_coherence_accepted(self, tmp_path):
        assert ChannelProfile(coherence_symbols=128.0).coherence_symbols == 128
        assert math.isinf(ChannelProfile(coherence_symbols=math.inf).coherence_symbols)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("coherence_symbols = 128.0\n")
        assert load_sweep_config(str(cfg)).profiles[0].coherence_symbols == 128
        cfg.write_text("coherence_symbols = inf\n")
        assert math.isinf(load_sweep_config(str(cfg)).profiles[0].coherence_symbols)


def reference_channel(samples, profile, samples_per_symbol, sample_period, occupied):
    """The channel chain with the rotation and noise written out inline, each
    product in the operand order of the uncached form."""
    n = len(samples)
    faded, _gains = apply_block_fading(samples, profile, samples_per_symbol)
    t = np.arange(n) * sample_period
    phase = 2.0 * np.pi * (profile.delta_f_hz * t + 0.5 * profile.drift_hz_per_s * t * t)
    phase += profile.theta_in_rad
    rotated = faded * np.exp(1j * phase)
    signal_power = float(np.mean(np.abs(rotated[occupied]) ** 2))
    noise_power = signal_power / (10.0 ** (profile.snr_db / 10.0))
    rng = np.random.default_rng([profile.seed, 0x0E])
    noise = np.sqrt(noise_power / 2.0) * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return rotated + noise


class TestOscillatorRotation:
    PROFILE = ChannelProfile(
        delta_f_hz=1500.0,
        drift_hz_per_s=100.0,
        theta_in_rad=0.3,
        snr_db=20.0,
        coherence_symbols=128,
        fading="block-rician",
        seed=7,
    )

    def test_trials_of_one_profile_compute_it_once(self):
        oscillator_rotation.cache_clear()
        cfg = FrameConfig(modulation=16, pilot_reps=4)
        a = run_trial_events(cfg, self.PROFILE, 3, seed=1)
        b = run_trial_events(cfg, self.PROFILE, 3, seed=2)
        info = oscillator_rotation.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert a.events != b.events

    def test_walking_oscillator_differs_per_seed(self):
        oscillator_rotation.cache_clear()
        ones = np.ones(4096, dtype=complex)
        walk = ChannelProfile(delta_f_hz=300.0, freq_walk_std_hz=50.0, coherence_symbols=64)
        a = apply_cfo_phase(ones, replace(walk, seed=1), T_S, samples_per_symbol=4)
        b = apply_cfo_phase(ones, replace(walk, seed=2), T_S, samples_per_symbol=4)
        assert not np.allclose(a, b)
        assert oscillator_rotation.cache_info().misses == 0

    def test_cached_array_is_read_only(self):
        rotation = oscillator_rotation(1500.0, 100.0, 0.3, 64, 1e-6)
        assert rotation is oscillator_rotation(1500.0, 100.0, 0.3, 64, 1e-6)
        with pytest.raises(ValueError, match="read-only"):
            rotation[0] = 0.0

    @pytest.mark.parametrize("n", [9_056, 89_696], ids=["below-256KiB", "above-256KiB"])
    def test_output_bits_match_the_uncached_expression(self, n):
        # numpy reuses a fresh temporary of at least 256 KiB (16,384 complex
        # samples) as the product's output, which can swap the operands.
        oscillator_rotation.cache_clear()
        samples = np.random.default_rng(n).normal(size=2 * n).view(complex)
        occupied = slice(48, n - 48)
        expected = reference_channel(samples, self.PROFILE, 4, 2.5e-7, occupied)
        for _ in range(2):  # the first call fills the cache, the second reads it
            out, _gains = apply_channel(
                samples, self.PROFILE, 2.5e-7, samples_per_symbol=4, occupied=occupied
            )
            assert out.tobytes() == expected.tobytes()
