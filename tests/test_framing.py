"""Tests for frame layout, assembly/parsing, and CRC framing."""

import numpy as np
import pytest

from burstlink.framing import (
    FrameConfig,
    PacketPayload,
    assemble_frames,
    block_indices,
    compute_layout,
    crc_attach,
    crc_check,
    default_tables,
    unpack_wire_bytes,
)
from burstlink.waveform import (
    PulseShapeConfig,
    build_constellation,
    demap_symbols,
    design_srrc,
    generate_golay_pair,
)

PILOT_DATA_TABLE = {1: (16, 240), 2: (32, 224), 4: (64, 192), 6: (96, 160), 8: (128, 128)}


def crc32_bitwise(data: bytes) -> int:
    """Reference CRC-32 (reflected, poly 0xEDB88320), bit by bit."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


class TestFrameConfig:
    @pytest.mark.parametrize("reps,expected", PILOT_DATA_TABLE.items())
    def test_pilot_data_split(self, reps, expected):
        cfg = FrameConfig(pilot_reps=reps, modulation=16)
        assert (cfg.pilot_symbols, cfg.data_symbols) == expected

    def test_byte_budget_16qam_four_reps(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        assert cfg.frame_bytes == 96
        assert cfg.payload_bytes == 92

    def test_byte_budget_4qam_one_rep(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        assert cfg.frame_bytes == 60
        assert cfg.payload_bytes == 56

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="pilot_reps"):
            FrameConfig(pilot_reps=3, modulation=16)
        with pytest.raises(ValueError, match="modulation"):
            FrameConfig(pilot_reps=1, modulation=32)
        with pytest.raises(ValueError, match="room for data"):
            FrameConfig(pilot_reps=8, modulation=4, payload_symbols=128)
        # The CRC is always CRC-32: its width is not a field.
        with pytest.raises(TypeError):
            FrameConfig(pilot_reps=1, modulation=4, crc_bits=32)


class TestLayout:
    @pytest.mark.parametrize("reps", PILOT_DATA_TABLE)
    @pytest.mark.parametrize("mod", (4, 8, 16, 64))
    def test_spans_tile_frame_exactly(self, reps, mod):
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        layout = compute_layout(cfg)
        spans = [layout.training_span, layout.preamble_span]
        for pilot, data in zip(layout.pilot_spans, layout.data_spans):
            spans.extend([pilot, data])
        pos = 0
        for start, stop in spans:
            assert start == pos
            assert stop >= start
            pos = stop
        assert pos == layout.total_symbols == cfg.total_symbols

    def test_pilot_span_count_and_length(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        layout = compute_layout(cfg)
        assert len(layout.pilot_spans) == 4
        assert all(b - a == 16 for a, b in layout.pilot_spans)

    def test_uneven_data_split_longer_segments_first(self):
        cfg = FrameConfig(pilot_reps=6, modulation=4)
        lengths = [b - a for a, b in compute_layout(cfg).data_spans]
        assert lengths == [27, 27, 27, 27, 26, 26]

    def test_two_rep_pilot_offsets(self):
        cfg = FrameConfig(pilot_reps=2, modulation=16)
        layout = compute_layout(cfg)
        base = layout.payload_start
        offsets = [a - base for a, _ in layout.pilot_spans]
        assert offsets == [0, 128]


class TestCrc:
    def test_round_trip(self):
        payload = crc_attach(b"some payload bytes")
        assert crc_check(payload)

    def test_single_bit_flip_detected(self):
        payload = crc_attach(bytes(range(64)))
        data = bytearray(payload.data_bytes)
        data[10] ^= 0x04
        assert not crc_check(PacketPayload(bytes(data), payload.crc))

    def test_known_vector(self):
        assert crc_attach(b"123456789").crc == 0xCBF43926

    def test_matches_independent_bitwise_oracle(self):
        rng = np.random.default_rng(11)
        for n in (0, 1, 7, 32, 200):
            data = rng.bytes(n)
            assert crc_attach(data).crc == crc32_bitwise(data)


class TestAssembleParse:
    @pytest.mark.parametrize("reps", PILOT_DATA_TABLE)
    @pytest.mark.parametrize("mod", (4, 8, 16, 64))
    def test_round_trip_identity(self, reps, mod):
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        rng = np.random.default_rng(reps * 100 + mod)
        data = rng.bytes(cfg.payload_bytes)
        frame = assemble_frames([crc_attach(data)], cfg)[0]
        assert len(frame) == cfg.total_symbols

        pilots, datas, _ = block_indices(cfg)
        assert np.allclose(frame[pilots], default_tables(cfg).pilot)
        bits, _ = demap_symbols(frame[datas], build_constellation(mod))
        (payload,) = unpack_wire_bytes(bits[np.newaxis], cfg)
        assert payload.data_bytes == data
        assert crc_check(payload)

    def test_wrong_payload_size_names_required_count(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        with pytest.raises(ValueError, match="92 bytes"):
            assemble_frames([crc_attach(b"x" * 10)], cfg)

    @pytest.mark.parametrize("mod", (4, 8, 16, 64))
    def test_each_assembled_row_is_its_own_frame(self, mod):
        cfg = FrameConfig(pilot_reps=4, modulation=mod)
        rng = np.random.default_rng(mod)
        payloads = [crc_attach(rng.bytes(cfg.payload_bytes)) for _ in range(5)]
        frames = assemble_frames(payloads, cfg)
        assert frames.shape == (5, cfg.total_symbols)
        for row, payload in zip(frames, payloads):
            assert np.array_equal(row, assemble_frames([payload], cfg)[0])
        assert assemble_frames([], cfg).shape == (0, cfg.total_symbols)

    def test_wrong_payload_size_names_its_index(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        good = crc_attach(b"x" * cfg.payload_bytes)
        with pytest.raises(ValueError, match="payload 2 must be exactly 92 bytes.*got 91"):
            assemble_frames([good, good, crc_attach(b"x" * 91), good], cfg)

    def test_tables_are_deterministic(self):
        cfg = FrameConfig(pilot_reps=1, modulation=4)
        t1, t2 = default_tables(cfg), default_tables(cfg)
        assert np.array_equal(t1.training, t2.training)
        assert np.array_equal(t1.pilot, t2.pilot)
        assert np.array_equal(t1.preamble, t2.preamble)
        assert np.allclose(np.abs(t1.pilot), 1.0)
        assert np.allclose(np.abs(t1.training), 1.0)


# Each cached builder, called on a freshly built argument, and the arrays in
# its result.
BUILDERS = {
    "design_srrc": (lambda: design_srrc(PulseShapeConfig()), lambda taps: [taps]),
    "build_constellation": (lambda: build_constellation(16), lambda c: [c.points]),
    "generate_golay_pair": (lambda: generate_golay_pair(64), lambda p: [p.a, p.b]),
    "default_tables": (
        lambda: default_tables(FrameConfig(pilot_reps=4, modulation=16)),
        lambda t: [t.training, t.pilot, t.preamble],
    ),
    "compute_layout": (lambda: compute_layout(FrameConfig(pilot_reps=4, modulation=16)), None),
}


class TestCachedBuilders:
    @pytest.mark.parametrize("name", BUILDERS)
    def test_second_call_returns_same_object(self, name):
        build, _ = BUILDERS[name]
        assert build() is build()

    @pytest.mark.parametrize("name", [n for n in BUILDERS if n != "compute_layout"])
    def test_cached_arrays_are_read_only(self, name):
        build, arrays = BUILDERS[name]
        for array in arrays(build()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
