"""Tests for constellations, Golay sequences, pulse shaping, and AGC."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from burstlink.framing import FrameConfig, assemble_frames, crc_attach
from burstlink.waveform import (
    AGC_FREEZE_SAMPLES,
    AGC_LOOP_GAIN,
    PulseShapeConfig,
    agc,
    build_constellation,
    demap_symbols,
    design_srrc,
    generate_golay_pair,
    map_bits,
    matched_filter,
    matched_filter_downsample,
    shape_and_upsample,
)
from burstlink.waveform import _levels, _slice_grid

ORDERS = (4, 8, 16, 64)
# SHA-256 of the bytes of points, bit_labels and point_bits for each order.
PINNED_TABLES = {
    4: (
        "396fa67b42551008ee291dff4a9d5b2e5ec5a845576e65fb6feac5500271efb1",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
        "0fe12ed7a2eb6806814ba347f882ee9e6ed89336d8033001e52ad0d8d629bdd3",
    ),
    8: (
        "fb0e9b34c7f56db4410153ecee997ba2b02d99dffc31352045713f4356eaf89d",
        "a5b25c509529a2e5cb46058f8d55a600719f03c0867ed9ac60662437cc1a88f0",
        "33a36cce3c8aed816b7d87f97e9396b1b0c55ba9a69e4b7d44f3c4c6a090d9f4",
    ),
    16: (
        "fadc5967faf0cb3c51e73103d8a453da1358cbf554a72c7a2d2cbdfc3be31a8b",
        "134b98cb8cdcf912139838cc05cb233e9c8c2182593cffe2c769e5a180ef42ab",
        "f513a6aafdef0967635fd607d3a486d2c9bc7d92cb9874dd409a0ced8079c860",
    ),
    64: (
        "5bf9650888696536af317351095ea3560cc283c48f4f53012720f9b6b4acae5c",
        "f8b0e4657686e41e7e1be7956ac6b4b87c5753456cfd1758f472d0ceeda105ba",
        "9508ca9012086657773533a42e0a7f72fad0fae7602502b5adb3807ec58944df",
    ),
}


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

    @pytest.mark.parametrize("order", ORDERS)
    def test_tables_match_pinned_digests(self, order):
        # Every recorded digest was made with these bytes; a rewrite of the
        # builder must reproduce them exactly.
        c = build_constellation(order)
        tables = c.points, c.bit_labels, c.point_bits
        assert [t.dtype for t in tables] == [np.complex128, np.int64, np.uint8]
        assert [t.shape for t in tables] == [(order,), (order,), (order, c.bits_per_symbol)]
        assert tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables) == PINNED_TABLES[order]

    @pytest.mark.parametrize("order", ORDERS)
    def test_labels_follow_the_definition(self, order):
        # Point p = i * n_q + q carries the group gray(i) << q_bits | gray(q).
        c = build_constellation(order)
        bps = c.bits_per_symbol
        q_bits = bps // 2
        for p in range(order):
            i, q = divmod(p, 1 << q_bits)
            group = (i ^ i >> 1) << q_bits | (q ^ q >> 1)
            assert c.bit_labels[group] == p
            assert c.point_bits[p].tolist() == [group >> b & 1 for b in range(bps - 1, -1, -1)]

    @pytest.mark.parametrize("order", (2, 3, 32, 128, 0))
    def test_unsupported_order_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            build_constellation(order)


def full_search(symbols, c):
    """The demapper before the grid slicer: the distance to every point."""
    symbols = np.asarray(symbols, dtype=complex)
    nearest = np.argmin(np.abs(symbols[..., None] - c.points) ** 2, axis=-1)
    return c.point_bits[nearest].reshape(symbols.shape[:-1] + (-1,)), c.points[nearest]


def demap_outcome(demap, symbols, c):
    """Bits and decisions as bytes, or the first warning, raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            bits, decisions = demap(symbols, c)
        except RuntimeWarning as warning:
            return str(warning)
    return bits.shape, bits.tobytes(), decisions.shape, decisions.tobytes()


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

    def test_zero_rows_keep_their_width(self):
        bits, decisions = demap_symbols(np.zeros((0, 5), complex), build_constellation(16))
        assert bits.shape == (0, 20)
        assert decisions.shape == (0, 5)

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

    @pytest.mark.parametrize("order", ORDERS)
    @settings(max_examples=60, deadline=None)
    @given(
        exponents=st.lists(
            st.one_of(st.floats(-300, 300), st.floats(-3, 1)), min_size=1, max_size=40
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_magnitude_matches_the_full_search(self, order, exponents, seed):
        c = build_constellation(order)
        rng = np.random.default_rng(seed)
        angle = rng.uniform(0, 2 * np.pi, len(exponents))
        symbols = 10.0 ** np.array(exponents) * np.exp(1j * angle)
        assert demap_outcome(demap_symbols, symbols, c) == demap_outcome(full_search, symbols, c)

    @pytest.mark.parametrize("order", ORDERS)
    def test_slicer_levels_are_the_unique_levels(self, order):
        points = build_constellation(order).points
        for axis in (points.real, points.imag):
            got, want = _levels(axis), np.unique(axis)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]) | st.floats(allow_nan=False),
                    max_size=40))
    def test_levels_are_np_unique_of_any_nan_free_array(self, values):
        x = np.array(values, dtype=float)
        assert _levels(x).tobytes() == np.unique(x).tobytes()

    @pytest.mark.parametrize("order", ORDERS)
    def test_midpoints_and_their_neighbours_match_the_full_search(self, order):
        # Exact float midpoints between levels, the floats either side of
        # them, and the levels themselves, on both axes.
        c = build_constellation(order)
        axes = []
        for levels in (np.unique(c.points.real), np.unique(c.points.imag)):
            mid = (levels[1:] + levels[:-1]) / 2
            axes.append(np.concatenate(
                [levels, mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)]
            ))
        symbols = axes[0][:, None] + 1j * axes[1]
        assert demap_outcome(demap_symbols, symbols, c) == demap_outcome(full_search, symbols, c)

    @pytest.mark.parametrize("order", ORDERS)
    def test_non_finite_and_huge_components_match_the_full_search(self, order):
        c = build_constellation(order)
        special = np.array([np.nan, np.inf, -np.inf, 1e150, -1e150, 0.3, 0.0])
        symbols = np.empty((7, 7), dtype=complex)
        symbols.real, symbols.imag = special[:, None], special
        got = demap_outcome(demap_symbols, symbols, c)
        assert not isinstance(got, str)
        assert got == demap_outcome(full_search, symbols, c)

    @pytest.mark.parametrize("order", ORDERS)
    def test_rotated_constellation_takes_the_full_search(self, order):
        c = build_constellation(order)
        rotated = dataclasses.replace(c, points=c.points * np.exp(0.3j))
        rng = np.random.default_rng(order)
        symbols = rng.normal(size=(5, 40)) + 1j * rng.normal(size=(5, 40))
        assert _slice_grid(symbols.ravel(), rotated.points)[1].all()
        assert demap_outcome(demap_symbols, symbols, rotated) == demap_outcome(
            full_search, symbols, rotated
        )

    @pytest.mark.parametrize("order", ORDERS)
    def test_noisy_symbols_take_no_full_search(self, order):
        # Symbols clear of every decision boundary are all sliced, so no
        # distance to every point is computed for them.
        c = build_constellation(order)
        rng = np.random.default_rng(order)
        noise = 0.05 * (rng.normal(size=500) + 1j * rng.normal(size=500))
        symbols = rng.choice(c.points, 500) + noise
        assert not _slice_grid(symbols, c.points)[1].any()
        assert demap_outcome(demap_symbols, symbols, c) == demap_outcome(full_search, symbols, c)


class TestGolay:
    def test_length_two_pair(self):
        pair = generate_golay_pair(2)
        assert pair[0].tolist() == [1, 1]
        assert pair[1].tolist() == [1, -1]
        a, b = pair
        acorr = np.correlate(a, a, "full")[1:] + np.correlate(b, b, "full")[1:]
        assert acorr.tolist() == [4, 0]

    @pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64, 128, 256, 512))
    def test_complementary_sum_exact(self, n):
        a, b = generate_golay_pair(n)
        acorr = np.correlate(a, a, "full")[n - 1 :] + np.correlate(b, b, "full")[n - 1 :]
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
        with pytest.raises(ValueError, match="span_symbols must be >= 1"):
            PulseShapeConfig(span_symbols=0)


def zero_stuffed_convolution(frames, cfg):
    """Reference: the frames' symbols back to back, zero-stuffed by the
    interpolation factor, through one ``np.convolve`` with the SRRC taps."""
    symbols = np.asarray(frames, dtype=complex).reshape(-1)
    if symbols.size == 0:
        return np.empty(0, dtype=complex)
    stuffed = np.zeros(symbols.size * cfg.interpolation, dtype=complex)
    stuffed[:: cfg.interpolation] = symbols
    return np.convolve(stuffed, design_srrc(cfg))


def random_frames(n_frames, pilot_reps, modulation, seed):
    cfg = FrameConfig(pilot_reps=pilot_reps, modulation=modulation)
    rng = np.random.default_rng(seed)
    return assemble_frames([crc_attach(rng.bytes(cfg.payload_bytes)) for _ in range(n_frames)], cfg)


class TestShaping:
    # Each case is compared as bytes with the zero-stuffed convolution of the
    # whole stream: the shared-prefix outputs, the frame boundaries and the
    # stream's head and tail.
    @pytest.mark.parametrize("n_frames", (1, 2, 50))
    @pytest.mark.parametrize(("pilot_reps", "modulation"), ((4, 16), (8, 64)))
    def test_frames_match_the_zero_stuffed_convolution(self, n_frames, pilot_reps, modulation):
        cfg = PulseShapeConfig()
        frames = random_frames(n_frames, pilot_reps, modulation, seed=n_frames)
        want = zero_stuffed_convolution(frames, cfg).tobytes()
        assert shape_and_upsample(frames, cfg).tobytes() == want
        if n_frames > 1:  # the training and preamble columns are shared
            assert np.array_equal(frames[1:, :64], np.broadcast_to(frames[0, :64], (n_frames - 1, 64)))

    def test_rows_sharing_no_prefix(self):
        cfg = PulseShapeConfig()
        frames = random_frames(3, 4, 16, seed=11)
        frames[1, 0] = frames[1, 0].conjugate()  # only the imaginary word differs
        assert shape_and_upsample(frames, cfg).tobytes() == zero_stuffed_convolution(frames, cfg).tobytes()

    def test_rows_identical_in_every_column(self):
        cfg = PulseShapeConfig()
        frames = np.repeat(random_frames(1, 2, 16, seed=12), 4, axis=0)
        assert shape_and_upsample(frames, cfg).tobytes() == zero_stuffed_convolution(frames, cfg).tobytes()

    @pytest.mark.parametrize(
        "symbols", ([], [1.0 + 0j], [0.7 + 0.1j, -0.3 + 1.2j]), ids=("empty", "one", "two")
    )
    def test_inputs_shorter_than_the_taps(self, symbols):
        cfg = PulseShapeConfig()
        symbols = np.array(symbols, dtype=complex)
        assert shape_and_upsample(symbols, cfg).tobytes() == zero_stuffed_convolution(symbols, cfg).tobytes()

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
        # A range of symbols is those columns of every phase, to the end by default.
        middle, _ = matched_filter_downsample(x, cfg, 10, 20)
        assert middle.tobytes() == streams[:, 10:30].tobytes()
        assert matched_filter_downsample(x, cfg, 10)[0].tobytes() == streams[:, 10:].tobytes()
        empty, lengths = matched_filter_downsample(np.zeros((2, 0), dtype=complex), cfg)
        assert empty.shape == (2, cfg.interpolation, 0)
        assert lengths.tolist() == [0] * cfg.interpolation

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
        bad=st.sampled_from((None, np.nan, np.inf, -np.inf)),
        in_tail=st.booleans(),
        step=st.sampled_from((1, PulseShapeConfig().interpolation)),
        per_row=st.booleans(),
        data=st.data(),
    )
    def test_matched_filter_equals_the_full_filter(
        self, n, seed, bad, in_tail, step, per_row, data
    ):
        # Each output matched_filter gives equals the full filter's, as bytes,
        # for any length (shorter than the taps too), start and step, with an
        # inf or NaN sample, anywhere or in the last tap_count samples that
        # the tail outputs read; a negative start and outputs from N on are
        # zero. Per-row starts come from a set of three, -1 among them, so
        # rows share a start, all of them at times.
        cfg = PulseShapeConfig()
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        if bad is not None:
            first = max(n - cfg.tap_count, 0) if in_tail else 0
            x[data.draw(st.integers(0, 2)), data.draw(st.integers(first, n - 1))] = bad
        trimmed = np.zeros((3, -(-n // cfg.interpolation) * cfg.interpolation), dtype=complex)
        for row in range(3):  # zero from sample N on
            trimmed[row, :n] = np.convolve(x[row], design_srrc(cfg))[cfg.tap_count - 1 :]
        span = st.integers(-2, trimmed.shape[-1] + 2)
        starts = st.sampled_from((-1, data.draw(span), data.draw(span)))
        start = [data.draw(starts) for _ in range(3)] if per_row else [data.draw(span)] * 3
        count = data.draw(st.integers(0, -(-trimmed.shape[-1] // step) + 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matched_filter(x, cfg, np.array(start) if per_row else start[0], count, step)
        padded = np.concatenate([trimmed, np.zeros((3, step * count + 2))], axis=-1)
        for row, s in enumerate(start):
            want = padded[row, s : s + step * count : step] if s >= 0 else np.zeros(count)
            assert got[row].tobytes() == want.astype(complex).tobytes()


class TestMatchedFilterKernel:
    """The numpy identities the receiver's partial filtering rests on. A
    numpy or BLAS upgrade that breaks one fails here by name."""

    cfg = PulseShapeConfig()
    taps = design_srrc(cfg)
    t = cfg.tap_count
    x = np.random.default_rng(1).normal(size=(1888, 2)) @ [1, 1j]

    def test_vecdot_with_reversed_taps_is_the_full_overlap_convolution(self):
        full = np.convolve(self.x, self.taps)[self.t - 1 : len(self.x)]
        windows = sliding_window_view(self.x, self.t)
        assert np.vecdot(self.taps[::-1].astype(complex), windows).tobytes() == full.tobytes()

    @pytest.mark.parametrize("n", (97, 98, 200, 1888))
    def test_vecdot_over_the_last_samples_is_the_tail_convolution(self, n):
        # For N >= tap_count, output j in [N - t + 1, N) of the trimmed
        # filter overlaps the first N - j reversed taps with x[j:]; vecdot
        # there sums as np.convolve's partial sum does, so the kernel's tail
        # is one vecdot per output column over all rows sharing a start.
        t, x = self.t, self.x[:n]
        full = np.convolve(x, self.taps)
        reverse = self.taps[::-1].astype(complex)
        for j in range(n - t + 1, n):
            assert np.vecdot(reverse[: n - j], x[j:]).tobytes() == full[j + t - 1].tobytes()

    def test_tail_comes_from_a_slice_of_tap_count_samples(self):
        # On a slice shorter than its taps np.convolve swaps its operands,
        # and here the last bit of an output then differs. So a row shorter
        # than the taps keeps np.convolve, which swaps its operands the same
        # way; from tap_count samples on the tail is the exact-overlap vecdot.
        n, t = len(self.x), self.t
        last = np.convolve(self.x, self.taps)[n:]
        assert np.convolve(self.x[n - t :], self.taps)[t:].tobytes() == last.tobytes()
        short = np.convolve(self.x[n - t + 1 :], self.taps)[t - 1 :]
        assert np.allclose(short, last, rtol=0, atol=1e-14)
        assert short.tobytes() != last.tobytes()

    def test_vecdot_over_a_zero_padded_tail_is_not_the_convolution(self):
        # Padding the row with tap_count - 1 zeros makes every tail output a
        # full overlap, but vecdot then sums in another order than
        # np.convolve's partial sums, so the tail takes the exact overlap of
        # the row's last samples instead.
        rng, t = np.random.default_rng(2), self.t
        differ = 0
        for _ in range(20):
            x = rng.normal(size=(t, 2)) @ [1, 1j]
            padded = np.concatenate([x, np.zeros(t - 1)])
            windows = sliding_window_view(padded, t)[1:]
            tail = np.vecdot(self.taps[::-1].astype(complex), windows)
            want = np.convolve(x, self.taps)[t:]
            assert np.allclose(tail, want, rtol=0, atol=1e-14)
            differ += tail.tobytes() != want.tobytes()
        assert differ >= 15

    def test_vecdot_warns_on_inf_where_convolve_does_not(self):
        x = self.x.copy()
        x[500] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.convolve(x, self.taps)
            matched_filter(x[None], self.cfg, 0, len(x))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            np.vecdot(self.taps[::-1].astype(complex), sliding_window_view(x, self.t))


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
    if np.isnan(gain):  # as in agc: every NaN of a NaN-gain row is the one quiet NaN
        parts = out.view(np.float64)
        parts[np.isnan(parts)] = np.nan
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

    @pytest.mark.parametrize("n_rows", (1, 3))
    @pytest.mark.parametrize("bad", (np.inf, 1j * np.inf), ids=("inf", "j-inf"))
    def test_nan_after_an_inf_sample_matches_bit_for_bit(self, n_rows, bad):
        # Two special samples in every row, which the drawn-row test never
        # places. Over several rows, a loop on a contiguous copy of the head
        # gives these NaNs another sign bit than the strided multiply does.
        rng = np.random.default_rng(23)
        x = rng.normal(size=(n_rows, 700)) + 1j * rng.normal(size=(n_rows, 700))
        x[:, 5] = bad
        x[:, 9] = np.nan
        ref = np.stack([scalar_agc(row) for row in x])
        assert agc(x).tobytes() == ref.tobytes()

    def test_more_than_one_leading_axis(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 3, 600)) + 1j * rng.normal(size=(2, 3, 600))
        x *= np.array([[1e-7, 1.0, 30.0], [0.0, 1e4, 0.2]])[..., None]
        out = agc(x)
        for row in np.ndindex(x.shape[:-1]):
            assert out[row].tobytes() == scalar_agc(x[row]).tobytes()

    def test_changing_one_row_leaves_the_others_unchanged(self):
        # The last row's gain climbs to the 1e6 clamp, so the clamped loop
        # redoes it; scaling a noise row by 30 sends that row there too.
        rng = np.random.default_rng(22)
        x = rng.normal(size=(5, 900)) + 1j * rng.normal(size=(5, 900))
        x[4] *= 1e-9
        base = agc(x)
        for row in range(len(x)):
            changed = x.copy()
            changed[row] *= 30.0
            out = agc(changed)
            assert not np.array_equal(out[row], base[row])
            assert np.array_equal(np.delete(out, row, axis=0), np.delete(base, row, axis=0))

    SPECIALS = (
        np.inf, -np.inf, np.nan, 1j * np.inf, complex(-0.0, 0.0), complex(0.0, -0.0),
        complex(-0.0, -0.0),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(((), (0,), (1,), (4,), (2, 3))),
        length=st.integers(0, 1200),
        scales=st.permutations((1.0, 0.3, 3.0, 0.0, 1e-9, 1e4)),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 1199), st.sampled_from(SPECIALS)),
            max_size=4,
        ),
    )
    # No rows at all, a window one sample shorter than the freeze with
    # special values, and a one-sample window whose rows stay in the bounds.
    @example(shape=(0,), length=1200, scales=(1.0,) * 6, seed=0, specials=[])
    @example(shape=(0,), length=300, scales=(1.0,) * 6, seed=0, specials=[])
    @example(shape=(2, 3), length=AGC_FREEZE_SAMPLES - 1, scales=(1.0, 0.3, 3.0, 0.0, 1e-9, 1e4),
             seed=5, specials=[(1, 7, np.nan), (4, 0, complex(-0.0, 0.0))])
    @example(shape=(4,), length=1, scales=(1.0, 0.3, 3.0, 0.0, 1e-9, 1e4), seed=6, specials=[])
    # An inf makes the gain NaN, and the first frozen sample is NaN times NaN,
    # whose sign the multiply loop picks.
    @example(shape=(), length=513, scales=(1.0, 0.3, 3.0, 0.0, 1e-9, 1e4), seed=0,
             specials=[(0, 0, np.inf), (0, 512, np.nan)])
    # A 1e-9 row whose gain sits at the 1e6 clamp from sample 284 meets an inf
    # at sample 400: clamped first, then NaN. And a NaN at the last sample
    # before the freeze, which makes only the frozen gain NaN.
    @example(shape=(2,), length=700, scales=(1e-9, 1.0, 0.3, 3.0, 0.0, 1e4), seed=0,
             specials=[(0, 400, np.inf)])
    @example(shape=(2,), length=600, scales=(1.0, 0.3, 3.0, 0.0, 1e-9, 1e4), seed=0,
             specials=[(0, AGC_FREEZE_SAMPLES - 1, np.nan)])
    def test_fast_and_clamped_rows_in_one_call(self, shape, length, scales, seed, specials):
        # Noise rows at scale 0.3 to 3 keep their gains within the bounds and
        # take the unclamped recursion alone; the zero and 1e-9 rows (their
        # gains reach 1e6 after about 280 samples) and the 1e4 row (its first
        # update falls below 1e-6) are computed again with the clamp, and so
        # is a row with an inf or NaN sample before the freeze, whose gain is
        # NaN from the next sample on. Signed zeros test the zero signs of the
        # gain-times-sample product. Compared as bytes.
        rows = int(np.prod(shape))
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=(rows, length)) + 1j * rng.normal(size=(rows, length))
        x = np.array(scales[:rows])[:, None] * noise
        for row, col, value in specials if x.size else ():
            x[row % rows, col % length] = value
        x = x.reshape(shape + (length,))
        out = agc(x)
        assert out.shape == x.shape
        for row in np.ndindex(shape):
            assert out[row].tobytes() == scalar_agc(x[row]).tobytes()

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
