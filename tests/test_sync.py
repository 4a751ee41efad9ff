"""Tests for synchronization, channel estimation, and the RX pipeline."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burstlink.channel import ChannelProfile, apply_channel
from burstlink.framing import FrameConfig, assemble_frame, compute_layout, crc_attach, default_tables
from burstlink.sync import (
    CRC_FAIL,
    DECODED,
    FAILURE_KINDS,
    NO_TRAINING,
    TRUNCATED,
    UNEQUALIZABLE,
    ChannelEstimate,
    DetectorConfig,
    autocorrelation_metric,
    detect_training,
    estimate_channel,
    estimate_coarse_cfo,
    golay_frame_detect,
    nco_correct,
    receive_frames,
    residual_offset,
)
from burstlink.waveform import ComplexBuffer, PulseShapeConfig, generate_golay_pair, shape_and_upsample

M = 32
T_SYM = 1e-6
DELTA_T = M * T_SYM


def training_sequence():
    cfg = FrameConfig(pilot_reps=1, modulation=4)
    return default_tables(cfg).training


def two_rep_burst(tail_symbols=64, seed=0):
    """Training repeated twice followed by random unit-power symbols."""
    rng = np.random.default_rng(seed)
    train = np.tile(training_sequence(), 2)
    tail = np.exp(1j * rng.uniform(0, 2 * np.pi, tail_symbols))
    return np.concatenate([train, tail])


class TestAutocorrelationMetric:
    def test_exact_repetition_peaks_at_one(self):
        x = two_rep_burst()
        c, p, rho = autocorrelation_metric(x, M)
        assert rho[2 * M - 1] == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(rho) == 2 * M - 1

    def test_cfo_rotation_sets_peak_angle(self):
        df = 3000.0
        x = two_rep_burst()
        n = np.arange(len(x))
        xr = x * np.exp(1j * 2 * np.pi * df * n * T_SYM)
        c, _, rho = autocorrelation_metric(xr, M)
        assert rho[2 * M - 1] == pytest.approx(1.0, abs=1e-12)
        assert np.angle(c[2 * M - 1]) == pytest.approx(2 * np.pi * df * DELTA_T, abs=1e-9)

    def test_constant_phase_invariance(self):
        x = two_rep_burst()
        c0, _, rho0 = autocorrelation_metric(x, M)
        c1, _, rho1 = autocorrelation_metric(x * np.exp(1j * 1.1), M)
        assert np.allclose(rho0, rho1)
        assert np.allclose(c0, c1)

    def test_rho_bounded_by_one_for_any_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=400) + 1j * rng.normal(size=400)
            # Adversarial scale steps that break trailing-window normalizations.
            x[: 200] *= rng.uniform(0.01, 100)
            _, _, rho = autocorrelation_metric(x, M)
            assert np.all(rho <= 1.0 + 1e-9)
            assert np.all(rho >= 0.0)

    def test_rows_match_one_row_calls(self):
        # (F, P, M) phase streams, as the receiver passes them.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4, 150)) + 1j * rng.normal(size=(3, 4, 150))
        batched = autocorrelation_metric(x, M)
        for row in np.ndindex(3, 4):
            for got, want in zip(batched, autocorrelation_metric(x[row], M)):
                assert np.array_equal(got[row], want)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            autocorrelation_metric(np.ones(2 * M - 1, dtype=complex), M)


class TestDetectTraining:
    def test_clean_detection_index(self):
        offset = 100
        rng = np.random.default_rng(4)
        lead = np.exp(1j * rng.uniform(0, 2 * np.pi, offset)) * 0.0
        x = np.concatenate([lead, two_rep_burst()])
        c, _, rho = autocorrelation_metric(x, M)
        res = detect_training(rho, c, DetectorConfig(), DELTA_T, M)
        assert res.detect_index == offset + 2 * M - 1
        assert res.rho_peak <= 1.0 + 1e-9

    def test_noise_only_not_found(self):
        rng = np.random.default_rng(5)
        x = (rng.normal(size=10_000) + 1j * rng.normal(size=10_000)) / np.sqrt(2)
        c, _, rho = autocorrelation_metric(x, M)
        res = detect_training(rho, c, DetectorConfig(rho_threshold=0.7), DELTA_T, M)
        assert res.detect_index == -1
        assert res.c_peak == 0 and res.rho_peak == 0 and res.delta_f_est_hz == 0

    def test_zero_threshold_detects_earliest_energy(self):
        x = np.concatenate([np.zeros(50, dtype=complex), two_rep_burst()])
        c, p, rho = autocorrelation_metric(x, M)
        det = DetectorConfig(rho_threshold=0.0)
        res = detect_training(rho, c, det, DELTA_T, M)
        first_energy = np.nonzero(rho > 0)[0][0]
        assert first_energy <= res.detect_index <= first_energy + M

    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(8)
        noise = (rng.normal(size=200) + 1j * rng.normal(size=200)) / np.sqrt(2)
        late = np.concatenate([noise[:40], two_rep_burst(tail_symbols=96)])
        x = np.stack([np.concatenate([two_rep_burst(), noise[:72]]), noise, late])
        c, _, rho = autocorrelation_metric(x, M)
        batched = detect_training(rho, c, DetectorConfig(), DELTA_T, M)
        assert batched.detect_index.tolist() == [2 * M - 1, -1, 40 + 2 * M - 1]
        for k in range(len(x)):
            one = detect_training(rho[k], c[k], DetectorConfig(), DELTA_T, M)
            for f in fields(one):
                got = getattr(batched, f.name)
                got = got[k] if isinstance(got, np.ndarray) else got
                assert np.array_equal(got, getattr(one, f.name))


class TestEstimateCoarseCfo:
    def test_zero_angle(self):
        assert estimate_coarse_cfo(5.0 + 0j, DELTA_T) == 0.0

    def test_quarter_turn_at_32us(self):
        value = estimate_coarse_cfo(np.exp(1j * np.pi / 2), 32e-6)
        assert value == pytest.approx(7812.5)

    def test_wraps_beyond_half_range(self):
        half = 1.0 / (2 * DELTA_T)
        df = half * 1.02
        x = two_rep_burst()
        n = np.arange(len(x))
        xr = x * np.exp(1j * 2 * np.pi * df * n * T_SYM)
        c, _, rho = autocorrelation_metric(xr, M)
        res = detect_training(rho, c, DetectorConfig(), DELTA_T, M)
        assert res.delta_f_est_hz == pytest.approx(df - 2 * half, rel=1e-6)

    def test_zero_peak_rejected(self):
        with pytest.raises(ValueError, match="phase undefined"):
            estimate_coarse_cfo(0j, DELTA_T)
        with pytest.raises(ValueError, match="delta_t"):
            estimate_coarse_cfo(1 + 0j, 0.0)


class TestNcoCorrect:
    def test_zero_frequency_identity(self):
        buf = ComplexBuffer(np.exp(1j * 0.2 * np.arange(50)), T_SYM)
        assert nco_correct(buf, 0.0) is buf

    def test_rotation_composition(self):
        buf = ComplexBuffer(np.exp(1j * 0.2 * np.arange(200)), T_SYM)
        once = nco_correct(nco_correct(buf, 700.0), 1300.0)
        combined = nco_correct(buf, 2000.0)
        assert np.max(np.abs(once.samples - combined.samples)) < 1e-9


class TestGolayDetect:
    def test_clean_preamble_locates_payload_start(self):
        pair = generate_golay_pair(64)
        preamble = np.concatenate([pair.a, pair.b]).astype(complex)
        t0 = 37
        x = np.concatenate([np.zeros(t0), preamble, np.zeros(40)])
        start = golay_frame_detect(x, pair, DetectorConfig())
        assert start == t0 + 128

    def test_channel_gain_scales_peak_not_index(self):
        pair = generate_golay_pair(64)
        preamble = np.concatenate([pair.a, pair.b]).astype(complex)
        t0 = 21
        h = 0.8 * np.exp(1j * 0.9)
        x = np.concatenate([np.zeros(t0), h * preamble, np.zeros(40)])
        assert golay_frame_detect(x, pair, DetectorConfig()) == t0 + 128
        # Gain below the threshold factor drops the frame.
        x_small = np.concatenate([np.zeros(t0), 0.4 * preamble, np.zeros(40)])
        assert golay_frame_detect(x_small, pair, DetectorConfig()) == -1

    def test_noise_only_not_found(self):
        pair = generate_golay_pair(64)
        rng = np.random.default_rng(6)
        for seed in range(5):
            x = (rng.normal(size=10_000) + 1j * rng.normal(size=10_000)) / np.sqrt(2)
            assert golay_frame_detect(x, pair, DetectorConfig()) == -1

    def test_search_window_restricts_peak(self):
        pair = generate_golay_pair(64)
        preamble = np.concatenate([pair.a, pair.b]).astype(complex)
        x = np.concatenate([np.zeros(100), preamble, np.zeros(100)])
        assert golay_frame_detect(x, pair, DetectorConfig(), search=(0, 50)) == -1
        assert golay_frame_detect(x, pair, DetectorConfig(), search=(60, 140)) == 228


class TestEstimateChannel:
    def test_identity(self):
        ref = default_tables(FrameConfig(pilot_reps=1, modulation=4)).pilot
        assert estimate_channel(ref, ref) == pytest.approx(1.0)

    def test_linear_in_gain(self):
        ref = default_tables(FrameConfig(pilot_reps=1, modulation=4)).pilot
        h = 0.5 * np.exp(1j * np.pi / 4)
        assert estimate_channel(h * ref, ref) == pytest.approx(h, abs=1e-12)

    def test_length_mismatch_rejected(self):
        ref = np.ones(16, dtype=complex)
        with pytest.raises(ValueError, match="mismatch"):
            estimate_channel(np.ones(15, dtype=complex), ref)

    def test_error_variance_matches_sigma2_over_np(self):
        # Var(H_hat - H) = sigma^2 / N_p for unit-magnitude pilots in AWGN.
        rng = np.random.default_rng(7)
        ref = default_tables(FrameConfig(pilot_reps=1, modulation=4)).pilot
        n_p = len(ref)
        snr_db = 20.0
        sigma2 = 10 ** (-snr_db / 10)
        h = 0.9 * np.exp(1j * 0.3)
        trials = 10_000
        noise = np.sqrt(sigma2 / 2) * (
            rng.normal(size=(trials, n_p)) + 1j * rng.normal(size=(trials, n_p))
        )
        rx = h * ref[None, :] + noise
        estimates = (rx * np.conj(ref)[None, :]).mean(axis=1)
        var = np.mean(np.abs(estimates - h) ** 2)
        assert var == pytest.approx(sigma2 / n_p, rel=0.1)


class TestResidualOffset:
    def test_equal_estimates_zero(self):
        est = ChannelEstimate(
            h_blocks=np.array([1 + 0j, 1 + 0j, 1 + 0j]),
            block_positions=np.array([10.0, 100.0, 190.0]),
            block_spacing_symbols=90.0,
        )
        freq, phase = residual_offset(est, T_SYM)
        assert freq == pytest.approx(0.0, abs=1e-9)
        assert phase == pytest.approx(0.0, abs=1e-9)

    def test_linear_phase_slope(self):
        # pi/18 per 128 symbols at 1 us symbols -> 217.01 Hz.
        positions = np.array([0.0, 128.0, 256.0, 384.0])
        est = ChannelEstimate(
            h_blocks=np.exp(1j * (np.pi / 18) * np.arange(4)),
            block_positions=positions,
            block_spacing_symbols=128.0,
        )
        freq, phase_deg = residual_offset(est, T_SYM)
        assert freq == pytest.approx((np.pi / 18) / (2 * np.pi * 128e-6), rel=1e-9)
        assert freq == pytest.approx(217.01388, rel=1e-6)
        assert phase_deg == pytest.approx(10.0, rel=1e-9)

    def test_single_block_without_anchor_is_zero(self):
        est = ChannelEstimate(
            h_blocks=np.array([np.exp(1j * 0.5)]),
            block_positions=np.array([50.0]),
            block_spacing_symbols=256.0,
        )
        assert residual_offset(est, T_SYM) == (0.0, 0.0)

    def test_single_block_with_training_anchor(self):
        est = ChannelEstimate(
            h_blocks=np.array([np.exp(1j * 0.2)]),
            block_positions=np.array([232.0]),
            block_spacing_symbols=256.0,
            train_gain=np.array(1.0 + 0j),
            train_position=np.array(32.0),
        )
        freq, phase_deg = residual_offset(est, T_SYM)
        expected = 0.2 / (2 * np.pi * 200e-6)
        assert freq == pytest.approx(expected, rel=1e-9)
        assert phase_deg == pytest.approx(
            math.degrees(2 * np.pi * expected * 256e-6), rel=1e-9
        )


def tx_buffer(frame_symbols, pulse):
    shaped = shape_and_upsample(frame_symbols, pulse, T_SYM)
    return ComplexBuffer(shaped.samples * np.sqrt(pulse.interpolation), shaped.sample_period)


def outcome_windows(cfg, pulse, n, seed):
    """One n-sample window per receiver outcome; returns the (6, n) windows
    and the expected failures, ``None`` for the decoded row."""
    rng = np.random.default_rng(seed)
    layout = compute_layout(cfg)
    sps = pulse.interpolation

    def frame():
        return assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)

    def faint(count):
        return 0.02 * (rng.normal(size=count) + 1j * rng.normal(size=count))

    clean = tx_buffer(frame(), pulse).samples
    # A constant in place of the Golay preamble keeps the power the AGC sees
    # but correlates with neither sequence.
    no_preamble = frame()
    no_preamble[slice(*layout.preamble_span)] = 1.0
    dead = tx_buffer(frame(), pulse).samples.copy()
    a, b = layout.pilot_spans[-1]
    dead[a * sps : b * sps + pulse.tap_count] = 0
    corrupt = frame()
    a = layout.data_spans[0][0]
    corrupt[a + 5 : a + 9] = -corrupt[a + 5 : a + 9]
    impaired, _ = apply_channel(
        tx_buffer(corrupt, pulse),
        ChannelProfile(snr_db=25.0, delta_f_hz=1500.0, theta_in_rad=0.4, seed=seed),
        samples_per_symbol=sps,
    )
    rows = {
        None: clean,
        "no-training": (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2),
        "no-frame": tx_buffer(no_preamble, pulse).samples,
        # Starts 60 symbols late, so the payload runs past the window's end.
        "truncated": np.concatenate([faint(60 * sps), clean]),
        "unequalizable": dead,
        # Two samples early: off the decimation grid, so phase 2 wins.
        "crc-fail": np.concatenate([impaired.samples[2:], faint(8)]),
    }
    return np.stack([x[:n] for x in rows.values()]), list(rows)


def receive_one(buf, cfg):
    """``receive_frames`` on a single window, passed as a (1, N) buffer."""
    return receive_frames(ComplexBuffer(buf.samples[np.newaxis], buf.sample_period), cfg)


def assert_same_row(batch, k, single):
    """Row k of ``batch`` equals the one row of ``single``, array for array."""
    assert batch.payloads[k] == single.payloads[0]
    pairs = (batch, single), (batch.coarse, single.coarse), (batch.estimate, single.estimate)
    for got, want in pairs:
        for f in fields(got):
            g, w = getattr(got, f.name), getattr(want, f.name)
            if isinstance(g, np.ndarray):
                np.testing.assert_array_equal(g[k], w[0], err_msg=f.name)


class TestReceiveFrame:
    @pytest.mark.parametrize("reps,mod", [(1, 4), (4, 16), (8, 64), (6, 8)])
    def test_loopback_identity(self, reps, mod):
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        rng = np.random.default_rng(reps + mod)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frame(crc_attach(data), cfg)
        res = receive_one(tx_buffer(frame, PulseShapeConfig()), cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0].data_bytes == data

    @pytest.mark.parametrize("reps,mod", [(4, 16), (1, 64), (8, 4), (2, 8)])
    def test_cfo_and_phase_recovered(self, reps, mod):
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        rng = np.random.default_rng(10 + reps + mod)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frame(crc_attach(data), cfg)
        pulse = PulseShapeConfig()
        df = 0.3 / (2 * DELTA_T)
        profile = ChannelProfile(delta_f_hz=df, theta_in_rad=1.0, seed=2)
        rx, _ = apply_channel(tx_buffer(frame, pulse), profile, samples_per_symbol=pulse.interpolation)
        res = receive_one(rx, cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0].data_bytes == data
        assert res.coarse.delta_f_est_hz[0] == pytest.approx(df, rel=1e-3)

    @pytest.mark.parametrize("reps", (3, 4))
    def test_longer_training_fields_decode(self, reps):
        # More than two repetitions create a correlation plateau; the frame
        # timing from the preamble must pin the frequency estimate anyway.
        cfg = FrameConfig(pilot_reps=4, modulation=64, training_reps=reps)
        rng = np.random.default_rng(60 + reps)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frame(crc_attach(data), cfg)
        res = receive_one(tx_buffer(frame, PulseShapeConfig()), cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0].data_bytes == data

    def test_nondefault_geometry_decodes(self):
        cfg = FrameConfig(
            pilot_reps=4,
            modulation=16,
            payload_symbols=128,
            pilot_block_len=8,
            golay_len=32,
        )
        rng = np.random.default_rng(61)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frame(crc_attach(data), cfg)
        res = receive_one(tx_buffer(frame, PulseShapeConfig()), cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0].data_bytes == data

    def test_tiny_buffer_reports_no_training(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        res = receive_one(ComplexBuffer(np.ones(10, dtype=complex), 0.25e-6), cfg)
        assert res.failure[0] == NO_TRAINING

    def test_pure_noise_reports_no_training(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(11)
        noise = (rng.normal(size=4096) + 1j * rng.normal(size=4096)) / np.sqrt(2)
        res = receive_one(ComplexBuffer(noise, 0.25e-6), cfg)
        assert res.failure[0] == NO_TRAINING
        assert not res.detected[0]

    def test_truncated_buffer_reported(self):
        cfg = FrameConfig(pilot_reps=2, modulation=4)
        rng = np.random.default_rng(12)
        frame = assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)
        pulse = PulseShapeConfig()
        buf = tx_buffer(frame, pulse)
        cut = ComplexBuffer(buf.samples[: len(buf) - 60 * pulse.interpolation], buf.sample_period)
        res = receive_one(cut, cfg)
        assert res.failure[0] == TRUNCATED

    def test_dead_pilot_block_reports_unequalizable(self):
        cfg = FrameConfig(pilot_reps=2, modulation=4)
        rng = np.random.default_rng(13)
        frame = assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)
        layout = compute_layout(cfg)
        pulse = PulseShapeConfig()
        buf = tx_buffer(frame, pulse)
        samples = buf.samples.copy()
        # Zero the samples carrying the second pilot block.
        a, b = layout.pilot_spans[1]
        lo = a * pulse.interpolation
        hi = b * pulse.interpolation + pulse.tap_count
        samples[lo:hi] = 0
        res = receive_one(ComplexBuffer(samples, buf.sample_period), cfg)
        assert res.failure[0] == UNEQUALIZABLE
        assert res.detected[0]

    def test_corrupted_data_reports_crc_fail(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        rng = np.random.default_rng(14)
        frame = assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)
        layout = compute_layout(cfg)
        bad = frame.copy()
        a, _ = layout.data_spans[0]
        bad[a + 5 : a + 9] = -bad[a + 5 : a + 9]
        res = receive_one(tx_buffer(bad, PulseShapeConfig()), cfg)
        assert res.failure[0] == CRC_FAIL
        assert res.detected[0]
        assert not res.crc_ok[0]

    @pytest.mark.parametrize("offset", (203, 450, 77))
    def test_frame_at_arbitrary_sample_offset(self, offset):
        # Leading noise shifts the frame off the decimation grid, so the
        # receiver has to pick the right sampling phase on its own.
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(offset)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frame(crc_attach(data), cfg)
        pulse = PulseShapeConfig()
        burst = tx_buffer(frame, pulse)
        lead = 0.02 * (rng.normal(size=offset) + 1j * rng.normal(size=offset))
        tail = 0.02 * (rng.normal(size=160) + 1j * rng.normal(size=160))
        samples = np.concatenate([lead, burst.samples, tail])
        res = receive_one(ComplexBuffer(samples, burst.sample_period), cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0].data_bytes == data

    def test_batch_matches_per_window_receiver(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        pulse = PulseShapeConfig()
        rng = np.random.default_rng(16)
        clean = tx_buffer(assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg), pulse)
        impaired, _ = apply_channel(
            tx_buffer(assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg), pulse),
            ChannelProfile(snr_db=18.0, delta_f_hz=1500.0, theta_in_rad=0.4, seed=6),
            samples_per_symbol=pulse.interpolation,
        )
        n = len(clean)
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        windows = np.stack([clean.samples, noise, impaired.samples])
        batch = receive_frames(ComplexBuffer(windows, clean.sample_period), cfg)
        assert batch.failure.tolist() == [DECODED, NO_TRAINING, DECODED]
        for k, w in enumerate(windows):
            assert_same_row(batch, k, receive_one(ComplexBuffer(w, clean.sample_period), cfg))

    # lambda=1 fits through the training anchor only. A frame's windows hold
    # 1888 samples; 1887 give phase streams of 472 and 471 symbols.
    @pytest.mark.parametrize("reps,n", [(1, 1888), (8, 1888), (4, 1887)])
    def test_every_outcome_in_one_batch_matches_single_windows(self, reps, n):
        cfg = FrameConfig(pilot_reps=reps, modulation=16)
        pulse = PulseShapeConfig()
        first, kinds = outcome_windows(cfg, pulse, n, seed=30 + reps)
        second, _ = outcome_windows(cfg, pulse, n, seed=40 + reps)
        pool = np.concatenate([first, second])
        period = 1e-6 / pulse.interpolation
        singles = [receive_frames(ComplexBuffer(w[np.newaxis], period), cfg) for w in pool]
        codes = [DECODED if kind is None else 1 + FAILURE_KINDS.index(kind) for kind in kinds]
        assert [int(s.failure[0]) for s in singles] == codes + codes

        # Any stack of pool rows, in any order and with repeats, gives each
        # row what its window gives alone. The whole pool in order is twelve
        # rows, so the chunked stages see a full and a partial chunk.
        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=len(pool)))
        @example(list(range(len(pool))))
        def stack_matches_single_windows(picks):
            batch = receive_frames(ComplexBuffer(pool[picks], period), cfg)
            assert len(batch) == len(picks)
            for k, i in enumerate(picks):
                assert_same_row(batch, k, singles[i])

        stack_matches_single_windows()

    def test_each_phase_stream_keeps_its_own_length(self):
        # Without its first sample the frame sits on phase 3. In 1787 samples
        # phase 3 holds 446 symbols, one short of the payload's end, while
        # the other phases hold 447; one more sample completes the payload.
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(50)
        frame = assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)
        buf = tx_buffer(frame, PulseShapeConfig())
        short = receive_one(ComplexBuffer(buf.samples[1:1788], buf.sample_period), cfg)
        assert short.failure[0] == TRUNCATED
        full = receive_one(ComplexBuffer(buf.samples[1:1789], buf.sample_period), cfg)
        assert full.detected[0]
        assert full.payload_start[0] == 191

    def test_nan_sample_never_wins_the_golay_peak(self):
        # One NaN at sample 1000 reaches symbols 226..250 through the matched
        # filter: data symbols after the preamble, but inside the Golay
        # search span. The frame is still located; its data fail the CRC.
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(21)
        frame = assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)
        buf = tx_buffer(frame, PulseShapeConfig())
        assert receive_one(buf, cfg).payload_start[0] == 192
        samples = buf.samples.copy()
        samples[1000] = np.nan
        res = receive_one(ComplexBuffer(samples, buf.sample_period), cfg)
        assert res.payload_start[0] == 192
        assert res.detected[0]
        assert res.failure[0] == CRC_FAIL

    def test_nan_in_a_pilot_block_reports_unequalizable(self):
        # One NaN at sample 1368 reaches symbols 318..342 through the matched
        # filter, which covers pilot block 2 (symbols 320..335). Its estimate
        # is NaN, so the row stops before the residual fit and logs zero
        # residuals, like any row that stopped at an earlier stage.
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(21)
        frame = assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)
        buf = tx_buffer(frame, PulseShapeConfig())
        samples = buf.samples.copy()
        samples[1368] = np.nan
        res = receive_one(ComplexBuffer(samples, buf.sample_period), cfg)
        assert res.payload_start[0] == 192
        assert res.failure[0] == UNEQUALIZABLE
        assert np.isnan(res.estimate.h_blocks[0, 2])
        assert res.estimate.residual_freq_hz[0] == 0.0
        assert res.estimate.mean_residual_phase_deg[0] == 0.0
        assert not res.demapped[0]

    def test_batch_needs_two_dimensional_windows(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        with pytest.raises(ValueError, match="shape"):
            receive_frames(ComplexBuffer(np.ones(64, dtype=complex), 0.25e-6), cfg)

    def test_residual_measurement_under_linear_drift(self):
        cfg = FrameConfig(pilot_reps=8, modulation=4)
        rng = np.random.default_rng(15)
        frame = assemble_frame(crc_attach(rng.bytes(cfg.payload_bytes)), cfg)
        pulse = PulseShapeConfig()
        profile = ChannelProfile(delta_f_hz=2000.0, drift_hz_per_s=3e5, seed=4)
        rx, _ = apply_channel(tx_buffer(frame, pulse), profile, samples_per_symbol=pulse.interpolation)
        res = receive_one(rx, cfg)
        assert res.failure[0] == DECODED
        # Drift leaves a positive measured residual frequency.
        assert res.estimate.residual_freq_hz[0] > 10.0
        assert res.estimate.mean_residual_phase_deg[0] > 0.0
