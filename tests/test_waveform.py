"""Tests for constellations, Golay sequences, pulse shaping, and AGC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstlink.waveform import (
    AGC_FREEZE_SAMPLES,
    AGC_LOOP_GAIN,
    PulseShapeConfig,
    agc,
    build_constellation,
    complementary_autocorrelation,
    demap_symbols,
    design_srrc,
    generate_golay_pair,
    map_bits,
    matched_filter_downsample,
    shape_and_upsample,
)

ORDERS = (4, 8, 16, 64)


class TestConstellation:
    @pytest.mark.parametrize("order", ORDERS)
    def test_unit_average_power(self, order):
        c = build_constellation(order)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("order", ORDERS)
    def test_points_distinct_and_labels_bijective(self, order):
        c = build_constellation(order)
        assert len(set(np.round(c.points, 12))) == order
        assert sorted(c.bit_labels) == list(range(order))

    def test_4qam_points(self):
        c = build_constellation(4)
        expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
        got = {complex(np.round(p * np.sqrt(2), 9)) for p in c.points}
        assert got == expected

    def test_16qam_grid_scale(self):
        c = build_constellation(16)
        levels = sorted(set(np.round(c.points.real * np.sqrt(10), 9)))
        assert levels == [-3, -1, 1, 3]

    def test_64qam_grid_scale(self):
        c = build_constellation(64)
        levels = sorted(set(np.round(c.points.real * np.sqrt(42), 9)))
        assert levels == [-7, -5, -3, -1, 1, 3, 5, 7]

    @pytest.mark.parametrize("order", ORDERS)
    def test_gray_neighbors_differ_in_one_bit(self, order):
        c = build_constellation(order)
        labels = np.asarray(c.bit_labels)
        inverse = np.empty_like(labels)
        inverse[labels] = np.arange(order)
        d = np.abs(c.points[:, None] - c.points[None, :])
        dmin = np.min(d[d > 1e-9])
        for i in range(order):
            for j in range(i + 1, order):
                if abs(d[i, j] - dmin) < 1e-9:
                    assert bin(inverse[i] ^ inverse[j]).count("1") == 1

    @pytest.mark.parametrize("order", (2, 3, 32, 128, 0))
    def test_unsupported_order_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            build_constellation(order)


class TestMapDemap:
    def test_4qam_gray_map_distinct_quadrants(self):
        c = build_constellation(4)
        syms = map_bits(np.array([0, 0, 0, 1, 1, 1, 1, 0]), c)
        quadrants = {(np.sign(s.real), np.sign(s.imag)) for s in syms}
        assert len(quadrants) == 4

    def test_empty_input(self):
        c = build_constellation(16)
        assert map_bits(np.array([], dtype=np.uint8), c).size == 0
        bits, decisions = demap_symbols(np.array([], dtype=complex), c)
        assert bits.size == decisions.size == 0

    def test_64qam_closure(self):
        c = build_constellation(64)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 6 * 50).astype(np.uint8)
        syms = map_bits(bits, c)
        assert syms.shape == (50,)
        pts = set(np.round(c.points, 12))
        assert all(complex(np.round(s, 12)) in pts for s in syms)

    def test_non_divisible_length_rejected(self):
        c = build_constellation(16)
        with pytest.raises(ValueError, match="divisible"):
            map_bits(np.zeros(13, dtype=np.uint8), c)

    @pytest.mark.parametrize("order", ORDERS)
    def test_round_trip_identity(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, c.bits_per_symbol * 500).astype(np.uint8)
        assert np.array_equal(demap_symbols(map_bits(bits, c), c)[0], bits)

    @pytest.mark.parametrize("order", ORDERS)
    def test_small_perturbation_keeps_bits(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(order + 1)
        bits = rng.integers(0, 2, c.bits_per_symbol * 200).astype(np.uint8)
        syms = map_bits(bits, c)
        d = np.abs(c.points[:, None] - c.points[None, :])
        dmin = np.min(d[d > 1e-9])
        angle = rng.uniform(0, 2 * np.pi, syms.size)
        perturbed = syms + 0.49 * dmin * np.exp(1j * angle)
        assert np.array_equal(demap_symbols(perturbed, c)[0], bits)

    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_brute_force_search_on_noisy_symbols(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(100 + order)
        bits = rng.integers(0, 2, c.bits_per_symbol * 10_000).astype(np.uint8)
        noisy = map_bits(bits, c) + (
            rng.normal(0, 0.3, 10_000) + 1j * rng.normal(0, 0.3, 10_000)
        )
        # Independent oracle: exhaustive nearest-point search, first index wins.
        d2 = np.abs(noisy[:, None] - c.points[None, :]) ** 2
        nearest = np.argmin(d2, axis=1)
        labels = np.asarray(c.bit_labels)
        inverse = np.empty_like(labels)
        inverse[labels] = np.arange(order)
        values = inverse[nearest]
        shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
        expected = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()
        bits_out, decisions = demap_symbols(noisy, c)
        assert np.array_equal(bits_out, expected)
        assert np.array_equal(decisions, c.points[nearest])


class TestGolay:
    def test_length_two_pair(self):
        pair = generate_golay_pair(2)
        assert pair.a.tolist() == [1, 1]
        assert pair.b.tolist() == [1, -1]
        acorr = complementary_autocorrelation(pair)
        assert acorr.tolist() == [4, 0]

    @pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64, 128, 256, 512))
    def test_complementary_sum_exact(self, n):
        acorr = complementary_autocorrelation(generate_golay_pair(n))
        assert acorr[0] == 2 * n
        assert np.all(acorr[1:] == 0)

    @pytest.mark.parametrize("n", (3, 0, 1, 6, 8192))
    def test_invalid_length_rejected(self, n):
        with pytest.raises(ValueError, match="power of two"):
            generate_golay_pair(n)


class TestSrrc:
    def test_tap_count_odd_and_symmetric(self):
        cfg = PulseShapeConfig(roll_off=0.25, span_symbols=8, interpolation=4)
        taps = design_srrc(cfg)
        assert len(taps) == 33 and len(taps) % 2 == 1
        assert np.array_equal(taps, taps[::-1])

    @pytest.mark.parametrize("roll_off", (0.2, 0.25, 0.35, 1.0))
    def test_unit_energy(self, roll_off):
        taps = design_srrc(PulseShapeConfig(roll_off=roll_off, span_symbols=12, interpolation=4))
        assert abs(np.sum(taps**2) - 1.0) < 1e-9

    def test_singularities_finite(self):
        # roll_off 0.25 at interpolation 4 puts samples exactly on t = 1/(4*beta).
        taps = design_srrc(PulseShapeConfig(roll_off=0.25, span_symbols=8, interpolation=4))
        assert np.all(np.isfinite(taps))

    @pytest.mark.parametrize(
        "span,sidelobe_bound",
        [
            # Bounds computed with the convolution oracle before freezing; the
            # truncation floor is not monotone in span.
            (8, 2e-3),
            (24, 1e-3),
        ],
    )
    def test_cascade_is_nyquist(self, span, sidelobe_bound):
        cfg = PulseShapeConfig(roll_off=0.25, span_symbols=span, interpolation=4)
        taps = design_srrc(cfg)
        cascade = np.convolve(taps, taps)
        center = len(taps) - 1
        instants = cascade[center % cfg.interpolation :: cfg.interpolation]
        peak = np.argmax(np.abs(instants))
        assert abs(instants[peak] - 1.0) < 1e-9
        sidelobes = np.delete(instants, peak)
        assert np.max(np.abs(sidelobes)) < sidelobe_bound

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PulseShapeConfig(roll_off=0.0)
        with pytest.raises(ValueError):
            PulseShapeConfig(interpolation=1)


class TestShaping:
    def test_unit_impulse_gives_tap_copy(self):
        cfg = PulseShapeConfig()
        taps = design_srrc(cfg)
        out = shape_and_upsample(np.array([1.0 + 0j]), cfg)
        assert len(out) == cfg.interpolation + cfg.tap_count - 1
        assert np.allclose(out[: cfg.tap_count], taps)
        assert np.all(out[cfg.tap_count :] == 0)

    def test_empty_input_gives_empty_buffer(self):
        out = shape_and_upsample(np.array([], dtype=complex), PulseShapeConfig())
        assert out.shape == (0,)
        assert out.dtype == complex

    def test_output_length_and_superposition(self):
        cfg = PulseShapeConfig()
        taps = design_srrc(cfg)
        a, b = 0.7 + 0.1j, -0.3 + 1.2j
        out = shape_and_upsample(np.array([a, b]), cfg)
        assert len(out) == 2 * cfg.interpolation + cfg.tap_count - 1
        expected = np.zeros(len(out), dtype=complex)
        expected[: cfg.tap_count] += a * taps
        expected[cfg.interpolation : cfg.interpolation + cfg.tap_count] += b * taps
        assert np.allclose(out, expected)

    def test_matched_filter_recovers_single_symbol_exactly(self):
        cfg = PulseShapeConfig()
        streams, _ = matched_filter_downsample(shape_and_upsample(np.array([0.6 - 0.8j]), cfg), cfg)
        assert abs(streams[0, 0] - (0.6 - 0.8j)) < 1e-12

    def test_matched_filter_round_trip_within_isi_floor(self):
        # The finite-span cascade leaves a small ISI floor; the bound here was
        # measured for the default pulse before being frozen.
        cfg = PulseShapeConfig()
        c = build_constellation(16)
        rng = np.random.default_rng(5)
        syms = map_bits(rng.integers(0, 2, 4 * 400).astype(np.uint8), c)
        streams, _ = matched_filter_downsample(shape_and_upsample(syms, cfg), cfg)
        rec = streams[0, : len(syms)]
        assert np.max(np.abs(rec - syms)) < 2e-3

    def test_wrong_phase_much_worse_than_aligned(self):
        cfg = PulseShapeConfig()
        c = build_constellation(16)
        rng = np.random.default_rng(6)
        syms = map_bits(rng.integers(0, 2, 4 * 400).astype(np.uint8), c)
        shaped = shape_and_upsample(syms, cfg)

        def evm(rx):
            return np.sqrt(np.mean(np.abs(rx[: len(syms)] - syms) ** 2))

        streams, _ = matched_filter_downsample(shaped, cfg)
        aligned = evm(streams[0])
        off = evm(streams[1])
        assert off >= 5 * aligned

    def test_all_zero_buffer(self):
        cfg = PulseShapeConfig()
        streams, lengths = matched_filter_downsample(np.zeros(64, dtype=complex), cfg)
        assert streams.shape == (cfg.interpolation, 16)
        assert lengths.tolist() == [16] * cfg.interpolation
        assert np.all(streams == 0)

    def test_streams_are_phase_slices_of_one_convolution(self):
        # 203 samples: not a multiple of the interpolation factor, so the
        # phases get streams of different lengths, zero-padded to the longest.
        cfg = PulseShapeConfig()
        rng = np.random.default_rng(8)
        x = rng.normal(size=203) + 1j * rng.normal(size=203)
        streams, lengths = matched_filter_downsample(x, cfg)
        full = np.convolve(x, design_srrc(cfg))[cfg.tap_count - 1 :]
        assert streams.shape == (cfg.interpolation, 51)
        assert lengths.tolist() == [51, 51, 51, 50]
        for phase, n in enumerate(lengths):
            assert np.array_equal(streams[phase, :n], full[phase :: cfg.interpolation])
            assert np.all(streams[phase, n:] == 0)


def scalar_agc(x):
    """Reference: the per-sample AGC loop on one 1-D row, in plain Python."""
    out = np.empty_like(x)
    gain = 1.0
    limit = min(AGC_FREEZE_SAMPLES, len(x))
    with np.errstate(invalid="ignore"):
        for n in range(limit):
            y = gain * x[n]
            out[n] = y
            err = 1.0 - (y.real * y.real + y.imag * y.imag)
            gain = min(max(gain * (1.0 + AGC_LOOP_GAIN * err), 1e-6), 1e6)
        out[limit:] = gain * x[limit:]
    return out


class TestAgc:
    # Windows shorter and longer than AGC_FREEZE_SAMPLES; both are long enough
    # for the weak row's gain to climb to its clamp.
    @pytest.mark.parametrize("length", (400, 1200))
    def test_batch_matches_scalar_reference_bit_for_bit(self, length):
        rng = np.random.default_rng(21)
        noise = rng.normal(size=length) + 1j * rng.normal(size=length)
        # Rows: plain noise, all zero, so weak that the gain climbs to the 1e6
        # clamp, so strong that the first update hits the 1e-6 clamp.
        x = np.stack([noise, np.zeros_like(noise), 1e-9 * noise, 1e4 * noise])
        out = agc(x)
        ref = np.stack([scalar_agc(row) for row in x])
        assert np.array_equal(out, ref)
        assert np.max(np.abs(out[2] / x[2])) == pytest.approx(1e6)
        assert np.min(np.abs(out[3] / x[3])) == pytest.approx(1e-6)

    def test_changing_one_row_leaves_the_others_unchanged(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 900)) + 1j * rng.normal(size=(4, 900))
        base = agc(x)
        for row in range(len(x)):
            changed = x.copy()
            changed[row] *= 30.0
            out = agc(changed)
            assert not np.array_equal(out[row], base[row])
            assert np.array_equal(np.delete(out, row, axis=0), np.delete(base, row, axis=0))

    def test_input_at_target_stays_there(self):
        x = np.exp(1j * 0.37 * np.arange(1024))
        out = agc(x)
        assert np.max(np.abs(np.abs(out) ** 2 - 1.0)) < 0.01

    def test_low_input_converges_within_settling_window(self):
        # Settling window for the default loop gain, derived by simulating the
        # loop on a constant-envelope input.
        x = 0.1 * np.exp(1j * 0.11 * np.arange(2048))
        out = agc(x)
        power = np.abs(out) ** 2
        assert np.all(np.abs(power[512:] - 1.0) < 0.01)

    def test_all_zero_input_stays_zero(self):
        out = agc(np.zeros(700, dtype=complex))
        assert np.all(out == 0)

    def test_freeze_holds_gain_constant(self):
        rng = np.random.default_rng(9)
        x = 0.5 * (rng.normal(size=1200) + 1j * rng.normal(size=1200))
        out = agc(x)
        ratio = out[AGC_FREEZE_SAMPLES:] / x[AGC_FREEZE_SAMPLES:]
        assert np.allclose(ratio, ratio[0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_matches_scalar_reference_on_drawn_rows(self, data):
        # Rows of any scale, some longer than AGC_FREEZE_SAMPLES, some with one
        # inf or NaN sample; compared as bytes so NaNs compare too.
        n_rows = data.draw(st.integers(1, 6))
        length = data.draw(st.integers(1, 2000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scales = [data.draw(st.floats(1e-8, 1e5)) for _ in range(n_rows)]
        x = np.array(scales)[:, None] * (
            rng.normal(size=(n_rows, length)) + 1j * rng.normal(size=(n_rows, length))
        )
        if data.draw(st.booleans()):
            row, col = data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, length - 1))
            x[row, col] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan, 1j * np.inf]))
        out = agc(x)
        ref = np.stack([scalar_agc(r) for r in x])
        assert out.tobytes() == ref.tobytes()
