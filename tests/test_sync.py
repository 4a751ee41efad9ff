"""Tests for synchronization, channel estimation, and the RX pipeline."""

import hashlib
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burstlink import sync, waveform
from burstlink.channel import ChannelProfile, apply_channel
from burstlink.framing import (
    SUPPORTED_PILOT_REPS,
    FrameConfig,
    assemble_frames,
    block_indices,
    crc_attach,
    default_tables,
)
from burstlink.harness import run_trial_events, transmit_burst
from burstlink.sync import (
    CRC_FAIL,
    DECODED,
    FAILURE_KINDS,
    NO_FRAME,
    NO_TRAINING,
    TRUNCATED,
    UNEQUALIZABLE,
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
from burstlink.waveform import (
    BITS_PER_SYMBOL,
    PulseShapeConfig,
    agc,
    generate_golay_pair,
    matched_filter,
    matched_filter_downsample,
)

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
        index, _, rho_peak = detect_training(rho, c, DetectorConfig(), M)
        assert index == offset + 2 * M - 1
        assert rho_peak <= 1.0 + 1e-9

    def test_noise_only_not_found(self):
        rng = np.random.default_rng(5)
        x = (rng.normal(size=10_000) + 1j * rng.normal(size=10_000)) / np.sqrt(2)
        c, _, rho = autocorrelation_metric(x, M)
        index, c_peak, rho_peak = detect_training(rho, c, DetectorConfig(rho_threshold=0.7), M)
        assert index == -1
        assert c_peak == 0 and rho_peak == 0

    def test_zero_threshold_detects_earliest_energy(self):
        x = np.concatenate([np.zeros(50, dtype=complex), two_rep_burst()])
        c, p, rho = autocorrelation_metric(x, M)
        det = DetectorConfig(rho_threshold=0.0)
        index, _, _ = detect_training(rho, c, det, M)
        first_energy = np.nonzero(rho > 0)[0][0]
        assert first_energy <= index <= first_energy + M

    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(8)
        noise = (rng.normal(size=200) + 1j * rng.normal(size=200)) / np.sqrt(2)
        late = np.concatenate([noise[:40], two_rep_burst(tail_symbols=96)])
        x = np.stack([np.concatenate([two_rep_burst(), noise[:72]]), noise, late])
        c, _, rho = autocorrelation_metric(x, M)
        batched = detect_training(rho, c, DetectorConfig(), M)
        assert batched[0].tolist() == [2 * M - 1, -1, 40 + 2 * M - 1]
        for k in range(len(x)):
            one = detect_training(rho[k], c[k], DetectorConfig(), M)
            for got, want in zip(batched, one):
                assert np.array_equal(got[k], want)


# The receiver searches the first (training_reps + 2) * lag symbols of each
# phase stream before it falls back to the full width.
HEAD = (FrameConfig(pilot_reps=1, modulation=4).training_reps + 2) * M


def phase_streams(rows, lengths):
    """Phase streams (F, P, n), zero past each phase's length, and those
    lengths, from rows (kind, seed, offset, spot): noise, all zeros, or two
    training repetitions at ``offset`` with a random gain per phase over
    noise; "nan" and "inf" rows are training rows with that value at symbol
    ``spot`` of every phase, and a "split" row moves the training of its
    later phases to ``spot``."""
    width = max(lengths)
    block = np.zeros((len(rows), len(lengths), width), dtype=complex)
    for r, (kind, seed, offset, spot) in enumerate(rows):
        if kind == "zeros":
            continue
        rng = np.random.default_rng(seed)
        block[r] = rng.normal(size=(len(lengths), width, 2)) @ [0.3, 0.3j]
        if kind != "noise":
            split = kind == "split"
            for p, gain in enumerate(rng.normal(size=(len(lengths), 2)) @ [1, 1j]):
                at = min(spot, width - 2 * M) if split and 2 * p >= len(lengths) else offset
                block[r, p, at : at + 2 * M] += gain * two_rep_burst(tail_symbols=0)
        if kind in ("nan", "inf"):
            block[r, :, spot] = np.nan if kind == "nan" else np.inf
    for p, n in enumerate(lengths):
        block[:, p, n:] = 0
    return block, np.array(lengths)


def search(streams, n):
    # An inf sample makes inf * 0 products in the running sums; both passes
    # meet the same ones.
    with np.errstate(invalid="ignore"):
        return sync._search_training(*streams, DetectorConfig(), M, n)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_peaks(got, want, rows=slice(None)):
    """Equal ``detect_training`` arrays (detect_index, c_peak, rho_peak)."""
    for a, b in zip(got, want, strict=True):
        assert_same_bits(a[rows], b[rows])


def assert_same_choice(got, want):
    (symbols, lengths, peaks), (want_symbols, want_lengths, want_peaks) = got, want
    assert_same_bits(symbols, want_symbols)
    assert_same_bits(lengths, want_lengths)
    assert_same_peaks(peaks, want_peaks)


PULSE = PulseShapeConfig()


def full_width_choice(x, pulse, det, lag, head):
    """Reference acquisition: every phase of every row filtered over the full
    width by ``matched_filter_downsample``, then searched over all of it."""
    streams, lengths = matched_filter_downsample(x, pulse)
    rows, width = np.arange(len(x)), streams.shape[-1]
    phase = np.zeros(len(x), dtype=np.int64)
    peaks = np.full(len(x), -1), np.zeros(len(x), complex), np.zeros(len(x))
    if width >= 2 * lag:
        _, phase, peaks = sync._search_training(streams, lengths, det, lag, width)
    return streams[rows, phase], lengths[phase], peaks


def late_frame(offset, seed=0, cfg=FrameConfig(pilot_reps=1, modulation=4), width=1888):
    """A frame window: ``offset`` samples of faint noise, then a frame,
    cut or zero-padded to ``width`` samples."""
    rng = np.random.default_rng(seed)
    burst = transmit_burst(assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg), PULSE)
    lead = 0.35 * (rng.normal(size=(offset, 2)) @ [1, 1j])
    return np.concatenate([lead, burst, np.zeros(width, dtype=complex)])[:width]


def choose_phase(x, chooser=sync._choose_training_phase):
    return chooser(x, PULSE, DetectorConfig(), M, HEAD)


def run_benchmark_trial():
    """A 50-frame trial of the benchmark's trial-impaired cell, seed 42 * 64."""
    profile = ChannelProfile(
        snr_db=20.0, delta_f_hz=1500.0, drift_hz_per_s=100.0, coherence_symbols=128,
        fading="block-rician", rician_k=10.0,
    )
    return run_trial_events(FrameConfig(pilot_reps=4, modulation=16), profile, 50, 2688)


class TestTrainingHeadSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(("training", "split", "noise", "zeros", "nan", "inf")),
                st.integers(0, 2**32 - 1),
                st.integers(0, 471 - 2 * M),
                st.integers(0, 470),
            ),
            min_size=1,
            max_size=6,
        ),
        short_phases=st.integers(0, 4),
    )
    # Training at 66 first crosses inside the 128-symbol head but peaks past
    # it; the split row's later phases hold training only past the head.
    @example(rows=[("training", 0, 66, 0)], short_phases=0)
    @example(rows=[("split", 0, 0, 316)], short_phases=0)
    def test_head_search_equals_full_width_search(self, rows, short_phases):
        # A row the head search calls final has the full-width result.
        lengths = [472] * (4 - short_phases) + [471] * short_phases
        streams = phase_streams(rows, lengths)
        final, phase, peaks = search(streams, HEAD)
        full_final, full_phase, full_peaks = search(streams, max(lengths))
        assert full_final.all()
        assert_same_bits(phase[final], full_phase[final])
        assert_same_peaks(peaks, full_peaks, final)

    def test_training_past_the_head_is_found_by_the_full_width_pass(self, monkeypatch):
        # Training 10 symbols in is final in the head. Training 66 symbols in
        # first crosses inside the head but peaks past it, and training 200
        # symbols in lies past it: only those two rows are filtered at every
        # phase past the head, never over the head again, and searched in one
        # full-width pass.
        widths, calls = [], []

        def spy(x, lag):
            widths.append(x.shape[-1])
            return autocorrelation_metric(x, lag)

        def spy_filter(x, pulse, start, count, step=1):
            calls.append((len(x), np.asarray(start).tolist(), count, step))
            return matched_filter(x, pulse, start, count, step)

        monkeypatch.setattr(sync, "autocorrelation_metric", spy)
        monkeypatch.setattr(sync, "matched_filter", spy_filter)
        monkeypatch.setattr(waveform, "matched_filter", spy_filter)
        x = agc(np.stack([late_frame(4 * offset) for offset in (10, 66, 200)]))
        got = choose_phase(x)
        past, width = 4 * HEAD, 472
        assert widths == [HEAD, width]
        heads, chosen, fallback = calls
        assert heads == (3, 0, past, 1)
        assert (chosen[0], chosen[1][1:], chosen[2:]) == (3, [-1, -1], (width - HEAD, 4))
        assert past <= chosen[1][0] < past + 4
        assert fallback == (2, past, 4 * (width - HEAD), 1)
        assert got[2][0].tolist() == [offset + 2 * M - 1 for offset in (10, 66, 200)]
        assert_same_choice(got, choose_phase(x, full_width_choice))

    def test_benchmark_trial_filters_every_phase_over_the_head_once(self, monkeypatch):
        # The benchmark times the matched filter at matched_filter_downsample.
        # A seed-42 trial-impaired trial (seed 42 * 64) calls it once, for
        # every row's head; no row there needs the full-width pass.
        calls = []

        def spy(x, pulse, first=0, count=None):
            calls.append((len(x), first, count))
            return matched_filter_downsample(x, pulse, first, count)

        monkeypatch.setattr(sync, "matched_filter_downsample", spy)
        run_benchmark_trial()
        assert calls == [(50, 0, 128)]  # the 128-symbol head

    def test_benchmark_trial_takes_the_fast_agc_and_filter_paths(self, monkeypatch):
        # On the same trial no row's AGC gain reaches a clamp bound, so the
        # gain recursion runs once, unclamped, over all 50 rows and never
        # with the clamp; the chosen-phase filter's rows share one start, so
        # its tail is one exact-overlap vecdot per column over all rows:
        # np.convolve runs only for TX shaping's two edges.
        passes, convolves = [], []
        agc_gains, convolve = waveform._agc_gains, np.convolve

        def spy_gains(samples, clamp):
            passes.append((samples.shape[-1], clamp))
            return agc_gains(samples, clamp)

        def spy_convolve(a, v, mode="full"):
            convolves.append((len(a), len(v)))
            return convolve(a, v, mode)

        monkeypatch.setattr(waveform, "_agc_gains", spy_gains)
        monkeypatch.setattr(np, "convolve", spy_convolve)
        run_benchmark_trial()
        assert passes == [(50, False)]
        assert convolves == [(PULSE.tap_count, PULSE.tap_count)] * 2

    def test_benchmark_trial_derotates_only_the_columns_read(self, monkeypatch):
        # The Golay search span, then the located frames' 64 training and 256
        # payload columns (not the 128 preamble columns), then the fine
        # correction over the payload columns alone.
        shapes = []
        nco = sync.nco_correct

        def spy(x, *args):
            shapes.append(x.shape)
            return nco(x, *args)

        monkeypatch.setattr(sync, "nco_correct", spy)
        run_benchmark_trial()
        assert shapes == [(50, 223), (50, 320), (50, 256)]


def assert_same_batch(got, want):
    assert got.payloads == want.payloads
    for f in fields(got):
        if isinstance(getattr(got, f.name), np.ndarray):
            assert_same_bits(getattr(got, f.name), getattr(want, f.name))


class TestAcquisitionBitIdentity:
    # The receiver filters every phase over the training-search head and the
    # chosen phase past it; filtering everything first must give the same bits.
    @settings(max_examples=100, deadline=None)
    @given(
        cell=st.tuples(
            st.sampled_from(SUPPORTED_PILOT_REPS), st.sampled_from(tuple(BITS_PER_SYMBOL))
        ),
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.one_of(st.integers(0, 40), st.integers(0, 600)),
                st.sampled_from((None,) * 4 + (np.nan, np.inf)),
                st.integers(0, 1887),
            ),
            min_size=1,
            max_size=4,
        ),
        # The head is whole filter overlaps from HEAD * 4 + 96 = 608 samples.
        width=st.one_of(st.just(1888), st.integers(200, 1888)),
    )
    @example(cell=(4, 16), rows=[(0, 264, None, 0)], width=1888)
    @example(cell=(1, 4), rows=[(1, 0, np.inf, 300), (2, 5, np.nan, 1000)], width=608)
    @example(cell=(1, 4), rows=[(1, 0, None, 0)], width=607)
    def test_acquisition_and_batch_equal_full_filtering(self, cell, rows, width):
        # Rows (seed, offset, bad, spot): a frame over a CFO and noise channel
        # behind ``offset`` samples of faint noise, with sample ``spot`` set
        # to ``bad``. The first example's training first crosses inside the
        # head but peaks past it, so that row falls back to full filtering.
        cfg = FrameConfig(pilot_reps=cell[0], modulation=cell[1])
        windows = []
        for seed, offset, bad, spot in rows:
            profile = ChannelProfile(snr_db=25.0, delta_f_hz=1500.0, theta_in_rad=0.4, seed=seed)
            rx, _ = apply_channel(late_frame(offset, seed, cfg, width), profile, T_SYM / 4, 4)
            if bad is not None:
                rx[spot % width] = bad
            windows.append(rx)
        windows = np.stack(windows)
        x = agc(windows)
        assert_same_choice(choose_phase(x), choose_phase(x, full_width_choice))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sync, "_choose_training_phase", full_width_choice)
            want = receive_frames(windows, cfg)
        assert_same_batch(receive_frames(windows, cfg), want)


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
        _, c_peak, _ = detect_training(rho, c, DetectorConfig(), M)
        assert estimate_coarse_cfo(complex(c_peak), DELTA_T) == pytest.approx(
            df - 2 * half, rel=1e-6
        )

    def test_zero_peak_rejected(self):
        with pytest.raises(ValueError, match="phase undefined"):
            estimate_coarse_cfo(0j, DELTA_T)
        with pytest.raises(ValueError, match="delta_t"):
            estimate_coarse_cfo(1 + 0j, 0.0)


class TestNcoCorrect:
    def test_zero_frequency_identity(self):
        x = np.exp(1j * 0.2 * np.arange(50))
        assert nco_correct(x, 0.0, T_SYM) is x

    def test_rotation_composition(self):
        x = np.exp(1j * 0.2 * np.arange(200))
        once = nco_correct(nco_correct(x, 700.0, T_SYM), 1300.0, T_SYM)
        combined = nco_correct(x, 2000.0, T_SYM)
        assert np.max(np.abs(once - combined)) < 1e-9

    def test_rows_match_one_row_calls(self):
        x = np.exp(1j * np.outer([0.2, -0.1, 0.3], np.arange(64)))
        out = nco_correct(x, np.array([0.0, 700.0, 0.0]), T_SYM)
        assert_same_bits(out[0], x[0])
        assert_same_bits(out[2], x[2])
        assert_same_bits(out[1], nco_correct(x[1], 700.0, T_SYM))

    def test_part_rotated_at_its_own_indices_is_that_part_of_the_whole(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 472, 2)) @ [1, 1j]
        freq = np.array([1500.0, 0.0, -7300.0])
        at = np.array([[5], [0], [200]]) + np.arange(223)
        part = nco_correct(x[np.arange(3)[:, None], at], freq, T_SYM, at)
        assert_same_bits(part, np.take_along_axis(nco_correct(x, freq, T_SYM), at, -1))


class TestGolayDetect:
    def test_clean_preamble_locates_payload_start(self):
        pair = generate_golay_pair(64)
        preamble = np.concatenate(pair).astype(complex)
        t0 = 37
        x = np.concatenate([np.zeros(t0), preamble, np.zeros(40)])
        start = golay_frame_detect(x, pair, DetectorConfig())
        assert start == t0 + 128

    def test_channel_gain_scales_peak_not_index(self):
        pair = generate_golay_pair(64)
        preamble = np.concatenate(pair).astype(complex)
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
        preamble = np.concatenate(pair).astype(complex)
        x = np.concatenate([np.zeros(100), preamble, np.zeros(100)])
        assert golay_frame_detect(x, pair, DetectorConfig(), search=(0, 50)) == -1
        assert golay_frame_detect(x, pair, DetectorConfig(), search=(60, 140)) == 228

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400), bad=st.sampled_from((np.nan, np.inf))
    )
    def test_rows_match_per_row_correlation(self, seed, n, bad):
        # The reference correlates each row's own search span with np.correlate.
        pair, det = generate_golay_pair(32), DetectorConfig()
        rng = np.random.default_rng(seed)
        x = 0.3 * (rng.normal(size=(4, n, 2)) @ [1, 1j])
        preamble = np.concatenate(pair)
        for row, at in enumerate(rng.integers(0, max(n - 63, 1), size=4)):
            x[row, at : at + 64] += rng.uniform(0.2, 1.5) * preamble[: n - at]
        if n:
            x[0, rng.integers(n)] = bad
        lo, hi = rng.integers(-10, n + 10, size=(2, 4))
        want = np.full(4, -1)
        for row in range(4):
            first, stop = max(lo[row], 0), min(hi[row], n - 63)
            if first < stop:
                span = x[row, first : stop + 63]
                metric = np.abs(np.correlate(span, pair[0], "valid"))[: stop - first]
                metric += np.abs(np.correlate(span, pair[1], "valid"))[32:]
                metric[np.isnan(metric)] = -np.inf
                peak = int(np.argmax(metric))
                if metric[peak] > det.mf_threshold_factor * 64:
                    want[row] = first + peak + 64
        assert_same_bits(golay_frame_detect(x, pair, det, search=(lo, hi)), want)


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
        freq, phase = residual_offset(
            np.array([1 + 0j, 1 + 0j, 1 + 0j]), np.array([10.0, 100.0, 190.0]), 90.0, T_SYM
        )
        assert freq == pytest.approx(0.0, abs=1e-9)
        assert phase == pytest.approx(0.0, abs=1e-9)

    def test_linear_phase_slope(self):
        # pi/18 per 128 symbols at 1 us symbols -> 217.01 Hz.
        positions = np.array([0.0, 128.0, 256.0, 384.0])
        h_blocks = np.exp(1j * (np.pi / 18) * np.arange(4))
        freq, phase_deg = residual_offset(h_blocks, positions, 128.0, T_SYM)
        assert freq == pytest.approx((np.pi / 18) / (2 * np.pi * 128e-6), rel=1e-9)
        assert freq == pytest.approx(217.01388, rel=1e-6)
        assert phase_deg == pytest.approx(10.0, rel=1e-9)

    def test_single_block_without_anchor_is_zero(self):
        got = residual_offset(np.array([np.exp(1j * 0.5)]), np.array([50.0]), 256.0, T_SYM)
        assert got == (0.0, 0.0)

    def test_single_block_with_training_anchor(self):
        # The anchor joins the fit as the first block.
        freq, phase_deg = residual_offset(
            np.array([1.0 + 0j, np.exp(1j * 0.2)]), np.array([32.0, 232.0]), 256.0, T_SYM
        )
        expected = 0.2 / (2 * np.pi * 200e-6)
        assert freq == pytest.approx(expected, rel=1e-9)
        assert phase_deg == pytest.approx(
            math.degrees(2 * np.pi * expected * 256e-6), rel=1e-9
        )


def outcome_windows(cfg, pulse, n, seed):
    """One n-sample window per receiver outcome; returns the (6, n) windows
    and the expected failures, ``None`` for the decoded row."""
    rng = np.random.default_rng(seed)
    pilot_index, data_index, _ = block_indices(cfg)
    sps = pulse.interpolation

    def frame():
        return assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]

    def faint(count):
        return 0.02 * (rng.normal(size=count) + 1j * rng.normal(size=count))

    clean = transmit_burst(frame(), pulse)
    # A constant in place of the Golay preamble keeps the power the AGC sees
    # but correlates with neither sequence.
    no_preamble = frame()
    no_preamble[cfg.training_symbols : cfg.payload_start] = 1.0
    dead = transmit_burst(frame(), pulse)
    a, b = pilot_index[-1, 0], pilot_index[-1, -1] + 1
    dead[a * sps : b * sps + pulse.tap_count] = 0
    corrupt = frame()
    a = data_index[0]
    corrupt[a + 5 : a + 9] = -corrupt[a + 5 : a + 9]
    impaired, _ = apply_channel(
        transmit_burst(corrupt, pulse),
        ChannelProfile(snr_db=25.0, delta_f_hz=1500.0, theta_in_rad=0.4, seed=seed),
        T_SYM / sps,
        samples_per_symbol=sps,
    )
    rows = {
        None: clean,
        "no-training": (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2),
        "no-frame": transmit_burst(no_preamble, pulse),
        # Starts 60 symbols late, so the payload runs past the window's end.
        "truncated": np.concatenate([faint(60 * sps), clean]),
        "unequalizable": dead,
        # Two samples early: off the decimation grid, so phase 2 wins.
        "crc-fail": np.concatenate([impaired[2:], faint(8)]),
    }
    return np.stack([x[:n] for x in rows.values()]), list(rows)


def receive_one(samples, cfg):
    """``receive_frames`` on a single window, passed as a (1, N) array."""
    return receive_frames(samples[np.newaxis], cfg)


def assert_same_row(batch, k, single):
    """Row k of ``batch`` equals the one row of ``single``, array for array."""
    assert batch.payloads[k] == single.payloads[0]
    for f in fields(batch):
        got, want = getattr(batch, f.name), getattr(single, f.name)
        if isinstance(got, np.ndarray):
            np.testing.assert_array_equal(got[k], want[0], err_msg=f.name)


class TestReceiveFrame:
    @pytest.mark.parametrize("reps,mod", [(1, 4), (4, 16), (8, 64), (6, 8)])
    def test_loopback_identity(self, reps, mod):
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        rng = np.random.default_rng(reps + mod)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frames([crc_attach(data)], cfg)[0]
        res = receive_one(transmit_burst(frame, PulseShapeConfig()), cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0] == crc_attach(data)

    @pytest.mark.parametrize("reps,mod", [(4, 16), (1, 64), (8, 4), (2, 8)])
    def test_cfo_and_phase_recovered(self, reps, mod):
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        rng = np.random.default_rng(10 + reps + mod)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frames([crc_attach(data)], cfg)[0]
        pulse = PulseShapeConfig()
        df = 0.3 / (2 * DELTA_T)
        profile = ChannelProfile(delta_f_hz=df, theta_in_rad=1.0, seed=2)
        rx, _ = apply_channel(
            transmit_burst(frame, pulse), profile, T_SYM / pulse.interpolation,
            samples_per_symbol=pulse.interpolation,
        )
        res = receive_one(rx, cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0] == crc_attach(data)
        assert res.delta_f_est_hz[0] == pytest.approx(df, rel=1e-3)

    @pytest.mark.parametrize("reps", (3, 4))
    def test_longer_training_fields_decode(self, reps):
        # More than two repetitions create a correlation plateau; the frame
        # timing from the preamble must pin the frequency estimate anyway.
        cfg = FrameConfig(pilot_reps=4, modulation=64, training_reps=reps)
        rng = np.random.default_rng(60 + reps)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frames([crc_attach(data)], cfg)[0]
        res = receive_one(transmit_burst(frame, PulseShapeConfig()), cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0] == crc_attach(data)

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
        frame = assemble_frames([crc_attach(data)], cfg)[0]
        res = receive_one(transmit_burst(frame, PulseShapeConfig()), cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0] == crc_attach(data)

    def test_tiny_buffer_reports_no_training(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        res = receive_one(np.ones(10, dtype=complex), cfg)
        assert res.failure[0] == NO_TRAINING

    def test_pure_noise_reports_no_training(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(11)
        noise = (rng.normal(size=4096) + 1j * rng.normal(size=4096)) / np.sqrt(2)
        res = receive_one(noise, cfg)
        assert res.failure[0] == NO_TRAINING
        assert not res.detected[0]

    @settings(max_examples=60, deadline=None)
    @given(
        cell=st.tuples(
            st.sampled_from(SUPPORTED_PILOT_REPS), st.sampled_from(tuple(BITS_PER_SYMBOL))
        ),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        rho_threshold=st.floats(0.0, 0.9),
        n_rows=st.integers(1, 3),
    )
    def test_noise_never_passes_crc(self, cell, seed, scale, rho_threshold, n_rows):
        # Complex Gaussian windows at the harness width, at any scale and
        # threshold: no row decodes, every row gets a failure kind, and numpy
        # warns of nothing on the way.
        cfg = FrameConfig(pilot_reps=cell[0], modulation=cell[1])
        width = cfg.total_symbols * PULSE.interpolation + PULSE.tap_count - 1
        assert width == 1888
        rng = np.random.default_rng(seed)
        noise = scale * (rng.normal(size=(n_rows, width, 2)) @ [1, 1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = receive_frames(noise, cfg, DetectorConfig(rho_threshold=rho_threshold))
        assert np.isin(res.failure, range(NO_TRAINING, CRC_FAIL + 1)).all()

    def test_truncated_buffer_reported(self):
        cfg = FrameConfig(pilot_reps=2, modulation=4)
        rng = np.random.default_rng(12)
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        pulse = PulseShapeConfig()
        samples = transmit_burst(frame, pulse)
        res = receive_one(samples[: len(samples) - 60 * pulse.interpolation], cfg)
        assert res.failure[0] == TRUNCATED

    def test_dead_pilot_block_reports_unequalizable(self):
        cfg = FrameConfig(pilot_reps=2, modulation=4)
        rng = np.random.default_rng(13)
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        pilot_index, _, _ = block_indices(cfg)
        pulse = PulseShapeConfig()
        samples = transmit_burst(frame, pulse)
        # Zero the samples carrying the second pilot block.
        a, b = pilot_index[1, 0], pilot_index[1, -1] + 1
        lo = a * pulse.interpolation
        hi = b * pulse.interpolation + pulse.tap_count
        samples[lo:hi] = 0
        res = receive_one(samples, cfg)
        assert res.failure[0] == UNEQUALIZABLE
        assert res.detected[0]

    @pytest.mark.parametrize("reps,mod", [(4, 16), (8, 64), (2, 16)])
    def test_each_data_segment_is_equalized_by_its_own_pilot_block(self, reps, mod):
        # The gain halves from the last pilot block on: data equalized by any
        # earlier block's gain lands off the grid (4QAM would not notice).
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        rng = np.random.default_rng(70 + reps + mod)
        for _ in range(10):
            data = rng.bytes(cfg.payload_bytes)
            frame = assemble_frames([crc_attach(data)], cfg)
            frame[:, block_indices(cfg)[0][-1][0] :] *= 0.5
            res = receive_one(transmit_burst(frame, PulseShapeConfig()), cfg)
            assert res.failure[0] == DECODED
            assert res.payloads[0] == crc_attach(data)

    def test_corrupted_data_reports_crc_fail(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        rng = np.random.default_rng(14)
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        bad = frame.copy()
        a = block_indices(cfg)[1][0]
        bad[a + 5 : a + 9] = -bad[a + 5 : a + 9]
        res = receive_one(transmit_burst(bad, PulseShapeConfig()), cfg)
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
        frame = assemble_frames([crc_attach(data)], cfg)[0]
        pulse = PulseShapeConfig()
        burst = transmit_burst(frame, pulse)
        lead = 0.02 * (rng.normal(size=offset) + 1j * rng.normal(size=offset))
        tail = 0.02 * (rng.normal(size=160) + 1j * rng.normal(size=160))
        samples = np.concatenate([lead, burst, tail])
        res = receive_one(samples, cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0] == crc_attach(data)

    def test_batch_matches_per_window_receiver(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        pulse = PulseShapeConfig()
        rng = np.random.default_rng(16)
        clean = transmit_burst(assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg), pulse)
        impaired, _ = apply_channel(
            transmit_burst(assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg), pulse),
            ChannelProfile(snr_db=18.0, delta_f_hz=1500.0, theta_in_rad=0.4, seed=6),
            T_SYM / pulse.interpolation,
            samples_per_symbol=pulse.interpolation,
        )
        n = len(clean)
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        windows = np.stack([clean, noise, impaired])
        batch = receive_frames(windows, cfg)
        assert batch.failure.tolist() == [DECODED, NO_TRAINING, DECODED]
        for k, w in enumerate(windows):
            assert_same_row(batch, k, receive_one(w, cfg))

    # lambda=1 fits through the training anchor only. A frame's windows hold
    # 1888 samples; 1887 give phase streams of 472 and 471 symbols.
    @pytest.mark.parametrize("reps,n", [(1, 1888), (8, 1888), (4, 1887)])
    def test_every_outcome_in_one_batch_matches_single_windows(self, reps, n):
        cfg = FrameConfig(pilot_reps=reps, modulation=16)
        pulse = PulseShapeConfig()
        first, kinds = outcome_windows(cfg, pulse, n, seed=30 + reps)
        second, _ = outcome_windows(cfg, pulse, n, seed=40 + reps)
        pool = np.concatenate([first, second])
        singles = [receive_one(w, cfg) for w in pool]
        codes = [DECODED if kind is None else 1 + FAILURE_KINDS.index(kind) for kind in kinds]
        assert [int(s.failure[0]) for s in singles] == codes + codes

        # Any stack of pool rows, in any order and with repeats, gives each
        # row what its window gives alone. The whole pool in order is twelve
        # rows, so the chunked stages see a full and a partial chunk.
        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=len(pool)))
        @example(list(range(len(pool))))
        def stack_matches_single_windows(picks):
            batch = receive_frames(pool[picks], cfg)
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
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        samples = transmit_burst(frame, PulseShapeConfig())
        short = receive_one(samples[1:1788], cfg)
        assert short.failure[0] == TRUNCATED
        full = receive_one(samples[1:1789], cfg)
        assert full.detected[0]
        assert full.payload_start[0] == 191

    @pytest.mark.parametrize("seed", range(2688, 2696))
    def test_trial_size_batch_matches_single_windows(self, seed):
        # A 50-frame trial of the benchmark's impaired 16QAM cell, received as
        # one batch: at this size the acquisition products pass numpy's
        # temporary-elision threshold (256 KiB), which a 12-row stack never
        # reaches, and each row must still equal its window received alone.
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        profile = ChannelProfile(
            snr_db=20.0, delta_f_hz=1500.0, drift_hz_per_s=100.0, coherence_symbols=128,
            fading="block-rician", rician_k=10.0,
        )
        rx = run_trial_events(cfg, profile, 50, seed, capture_stream=True).rx_stream
        span = cfg.total_symbols * PULSE.interpolation
        windows = np.lib.stride_tricks.sliding_window_view(rx, span + PULSE.tap_count - 1)[::span]
        assert windows.shape == (50, 1888)
        batch = receive_frames(windows, cfg)
        for k, w in enumerate(windows):
            assert_same_row(batch, k, receive_one(w, cfg))

    def test_nan_sample_never_wins_the_golay_peak(self):
        # One NaN at sample 1000 reaches symbols 226..250 through the matched
        # filter: data symbols after the preamble, but inside the Golay
        # search span. The frame is still located; its data fail the CRC.
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(21)
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        samples = transmit_burst(frame, PulseShapeConfig())
        assert receive_one(samples, cfg).payload_start[0] == 192
        samples[1000] = np.nan
        res = receive_one(samples, cfg)
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
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        samples = transmit_burst(frame, PulseShapeConfig())
        samples[1368] = np.nan
        res = receive_one(samples, cfg)
        assert res.payload_start[0] == 192
        assert res.failure[0] == UNEQUALIZABLE
        assert np.isnan(res.h_blocks[0, 2])
        assert res.residual_freq_hz[0] == 0.0
        assert res.mean_residual_phase_deg[0] == 0.0
        assert not res.demapped[0]

    @pytest.mark.parametrize("sample, failure", [(300, NO_TRAINING), (1368, UNEQUALIZABLE)])
    def test_inf_sample_is_a_typed_failure(self, sample, failure):
        # An inf sample becomes inf + nan*j in the AGC, with no warning (the
        # suite turns RuntimeWarnings into errors). At sample 300 it spoils
        # the training field; at 1368 it spoils pilot block 2.
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        rng = np.random.default_rng(21)
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        samples = transmit_burst(frame, PulseShapeConfig())
        samples[sample] = np.inf
        res = receive_one(samples, cfg)
        assert res.failure[0] == failure
        assert not res.demapped[0]

    def test_batch_needs_two_dimensional_windows(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        with pytest.raises(ValueError, match="shape"):
            receive_frames(np.ones(64, dtype=complex), cfg)

    @pytest.mark.parametrize("reps, residual_hz", [(4, 137.6443562915157), (1, 0.0)])
    def test_window_past_the_training_start_fits_without_the_anchor(self, reps, residual_hz):
        # Without its first 4 samples the window starts one symbol into the
        # training field, so the training anchor is not in it. The residual
        # is fitted over the pilot blocks alone: at lambda=1 there is only
        # one point, so it is zero. The value at lambda=4 was recorded before
        # the residual fit took arrays.
        cfg = FrameConfig(pilot_reps=reps, modulation=16)
        pulse = PulseShapeConfig()
        rng = np.random.default_rng(42)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frames([crc_attach(data)], cfg)[0]
        profile = ChannelProfile(snr_db=30.0, delta_f_hz=900.0, seed=4)
        rx, _ = apply_channel(
            transmit_burst(frame, pulse), profile, T_SYM / pulse.interpolation,
            samples_per_symbol=pulse.interpolation,
        )
        res = receive_one(rx[4:], cfg)
        assert res.failure[0] == DECODED
        assert res.payloads[0] == crc_attach(data)
        assert np.isnan(res.train_position[0])
        freq, phase_deg = residual_offset(
            res.h_blocks[:1], res.block_positions[:1], cfg.payload_symbols / reps, T_SYM
        )
        assert_same_bits(res.residual_freq_hz[:1], freq)
        assert_same_bits(res.mean_residual_phase_deg[:1], phase_deg)
        assert res.residual_freq_hz[0] == pytest.approx(residual_hz, rel=1e-12, abs=0.0)

    def test_residual_measurement_under_linear_drift(self):
        cfg = FrameConfig(pilot_reps=8, modulation=4)
        rng = np.random.default_rng(15)
        frame = assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]
        pulse = PulseShapeConfig()
        profile = ChannelProfile(delta_f_hz=2000.0, drift_hz_per_s=3e5, seed=4)
        rx, _ = apply_channel(
            transmit_burst(frame, pulse), profile, T_SYM / pulse.interpolation,
            samples_per_symbol=pulse.interpolation,
        )
        res = receive_one(rx, cfg)
        assert res.failure[0] == DECODED
        # Drift leaves a positive measured residual frequency.
        assert res.residual_freq_hz[0] > 10.0
        assert res.mean_residual_phase_deg[0] > 0.0


def pinned_windows(cfg, seed):
    """Ten seeded windows of one length, over 20 dB channels with CFOs up to
    15 kHz: a frame 12 symbols in; windows cut 4, 40 and 64 symbols into the frame;
    a frame 40 symbols in that runs past the window's end; a NaN sample
    under pilot block 2; an inf sample under the data; a frame without its
    preamble; noise; and a frame at -5 dB."""
    pulse = PulseShapeConfig()
    sps = pulse.interpolation
    rng = np.random.default_rng(seed)
    n = (cfg.total_symbols + 24) * sps

    def noise(count, scale):
        return scale * (rng.normal(size=count) + 1j * rng.normal(size=count))

    def frame():
        return assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes))], cfg)[0]

    def window(symbols, lead=12, cut=0, df=1500.0, snr_db=20.0, bad=None):
        x = np.concatenate([noise(lead * sps, 0.3), transmit_burst(symbols, pulse)])[cut * sps :]
        profile = ChannelProfile(
            snr_db=snr_db, delta_f_hz=df, theta_in_rad=0.4, seed=int(rng.integers(1 << 16))
        )
        x, _ = apply_channel(x, profile, T_SYM / sps, samples_per_symbol=sps)
        if bad is not None:
            symbol, value = bad  # frame symbol s leaves the filter near sample 4 s + 48
            x[(lead - cut + symbol) * sps + 48] = value
        return np.concatenate([x, noise(n, 0.02)])[:n]

    no_preamble = frame()
    no_preamble[cfg.training_symbols : cfg.payload_start] = 1.0
    pilot_2 = block_indices(cfg)[0][2, 8]  # the middle of pilot block 2
    return np.stack(
        [
            window(frame(), df=-9000.0),
            window(frame(), lead=0, cut=4, df=4000.0),
            window(frame(), lead=0, cut=40),
            window(frame(), lead=0, cut=64),
            window(frame(), lead=40, df=12000.0),
            window(frame(), bad=(pilot_2, np.nan)),
            window(frame(), bad=(cfg.payload_start + 40, np.inf)),
            window(no_preamble),
            noise(n, 0.7),
            window(frame(), snr_db=-5.0, df=-15000.0),
        ]
    )


# SHA-256 of each FrameBatch field for pinned_windows(cfg, 18) with three
# training repetitions: a receiver change that moves any field of any row,
# including the rows the seed-42 digests never log, fails here.
FRAME_BATCH_DIGESTS = {
    "failure": "1eb8db32f61c6b3fc4bf0bafefaaa2469082173c8228277e27c9245a78d93f2e",
    "payload_start": "b05f602947337e3c72e735022c4af34599596133b7fe16c30fabe8534db6fd90",
    "equalized": "0a9434cd3de1bae330fbf7a3e728378475ad0d6c44f1c707767ffbbd7f65a660",
    "decisions": "b4c8694e2b9669473d842de2d1650c330980ace5c4b44b921a3412c25490e116",
    "detect_index": "b32b7c85a0885d9bdfbe6767059797d0378b04065cd4d9e8e1426fde0e47fa0a",
    "c_peak": "f253f2128b69096085f17e528130e7f38cdbb91f03364c3058f2adad07a41bd6",
    "rho_peak": "be020e548a97c1e51171237aefaf0fd79178e3c5491afa9784e8386a295f00e5",
    "delta_f_est_hz": "318a6ef56bfc97a2a0cd34256abfaf28755eabf57e8af790285f220a087f36b6",
    "h_blocks": "197fd9469b0f7f6767ae531c27aa37d4f95d37aee52ddd7fdbd107ffb91e76fd",
    "block_positions": "db0081d23446c96eaa5646f9084585a805de2cf26c7f04922f9d29076cb1264a",
    "train_gain": "c22e4c139def3a2076a3b282138404b15c50729dc3dea3007b8b5f4312b28d9d",
    "train_position": "a48959b17d1eb5e99091afae59f4409ef2549b04fcd6102f7a6093a4170e0c95",
    "residual_freq_hz": "b10e06873d1ab2b1f86522d580fb719d0d1e4e2c92815dacc43635cd441ddcda",
    "mean_residual_phase_deg": "8576c74a2f3e43290706d08348e2434c67b489b0e360b163fcf51d1df9b3b6e4",
    "payloads": "29bef69c6f7abcc65bd8310429fe7aa543c02ff33944e2360611e4d2df7cb5ce",
}


class TestFrameBatchDigests:
    def test_every_field_matches_pinned_digest(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16, training_reps=3)
        batch = receive_frames(pinned_windows(cfg, 18), cfg)
        # Frames located before the window's start (origin -4, which still
        # re-derives its coarse estimate from the last two repetitions, and
        # -40, which cannot), a located frame that is truncated, and every
        # failure kind.
        assert batch.failure.tolist() == [DECODED] * 3 + [TRUNCATED] * 2 + [
            UNEQUALIZABLE, CRC_FAIL, NO_FRAME, NO_TRAINING, NO_TRAINING
        ]
        origin = batch.payload_start[:7] - cfg.payload_start
        assert origin.tolist() == [12, -4, -40, 87, 40, 12, 12]
        assert batch.detect_index[[1, 4]].tolist() == [-4 + 95, 40 + 95]
        got = {}
        for f in fields(batch):
            a = getattr(batch, f.name)
            if isinstance(a, np.ndarray):
                data = f"{a.dtype.str}{a.shape}".encode() + a.tobytes()
                got[f.name] = hashlib.sha256(data).hexdigest()
        wire = b"".join(b"-" if p is None else p for p in batch.payloads)
        got["payloads"] = hashlib.sha256(wire).hexdigest()
        assert got == FRAME_BATCH_DIGESTS


class TestGatherOrder:
    """Why the receiver gathers pilot blocks with ``np.take``. A numpy
    upgrade that changes either identity fails here by name."""

    pilot_index = block_indices(FrameConfig(pilot_reps=8, modulation=16))[0]

    def test_fancy_gather_is_not_c_ordered_and_its_mean_sums_in_another_order(self):
        rng = np.random.default_rng(3)
        differ = 0
        for _ in range(10):
            a = rng.normal(size=(50, 448, 2)) @ [1, 1j]
            fancy, took = a[:, self.pilot_index], np.take(a, self.pilot_index, axis=1)
            assert np.array_equal(fancy, took)
            assert took.flags.c_contiguous and not fancy.flags.c_contiguous
            want, got = np.mean(took, axis=-1), np.mean(fancy, axis=-1)
            assert np.allclose(got, want, rtol=0, atol=1e-15)
            differ += int((got != want).sum())
        assert differ >= 2000  # of 4000 block means
