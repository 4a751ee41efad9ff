"""Tests for frame layout, assembly/parsing, and CRC framing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstlink.framing import (
    SUPPORTED_PILOT_REPS,
    FrameConfig,
    assemble_frames,
    block_indices,
    crc_attach,
    crc_check,
    default_tables,
    unpack_wire_bytes,
)
from burstlink.waveform import (
    BITS_PER_SYMBOL,
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

    @pytest.mark.parametrize(
        "geometry,message",
        [
            ({"pilot_block_len": 0}, "pilot_block_len must be >= 1, got 0"),
            ({"pilot_block_len": -3}, "pilot_block_len must be >= 1, got -3"),
            ({"training_rep_len": 0}, "training_rep_len must be >= 1, got 0"),
            ({"training_rep_len": -2}, "training_rep_len must be >= 1, got -2"),
            ({"training_reps": 1}, "training_reps must be >= 2"),
            ({"golay_len": 1}, r"power of two in \[2, 4096\], got 1$"),
            ({"golay_len": 48}, r"power of two in \[2, 4096\], got 48"),
            ({"golay_len": 8192}, r"power of two in \[2, 4096\], got 8192"),
            ({"payload_symbols": 258}, "data field of 484 bits is not byte aligned"),
            ({"pilot_reps": 2, "payload_symbols": 40}, "data field too small to hold the CRC"),
        ],
    )
    def test_bad_geometry_rejected_when_built(self, geometry, message):
        # Built anyway, most of these would fail later: in a size property,
        # in the first trial's table build, or mid-receive with a numpy error.
        with pytest.raises(ValueError, match=message):
            FrameConfig(**{"pilot_reps": 1, "modulation": 4, **geometry})

    @settings(max_examples=400, deadline=None)
    @given(
        pilot_reps=st.sampled_from(SUPPORTED_PILOT_REPS + (3,)),
        modulation=st.sampled_from(tuple(BITS_PER_SYMBOL) + (32,)),
        payload_symbols=st.integers(-2, 600),
        pilot_block_len=st.integers(-1, 24),
        training_rep_len=st.integers(-1, 48),
        training_reps=st.integers(1, 4),
        golay_len=st.sampled_from((1, 2, 8, 48, 64, 256)),
    )
    def test_a_built_config_is_a_usable_frame(self, **geometry):
        try:
            cfg = FrameConfig(**geometry)
        except ValueError:
            return
        assert cfg.frame_bytes * 8 == cfg.data_bits
        assert cfg.payload_bytes >= 1
        assert len(default_tables(cfg).preamble) == cfg.preamble_symbols
        pilots, data, _ = block_indices(cfg)
        tiled = np.sort(np.concatenate([pilots.ravel(), data]))
        assert np.array_equal(tiled, np.arange(cfg.payload_start, cfg.total_symbols))


class TestLayout:
    @pytest.mark.parametrize("reps", PILOT_DATA_TABLE)
    @pytest.mark.parametrize("mod", (4, 8, 16, 64))
    def test_spans_tile_frame_exactly(self, reps, mod):
        # The pilot and data indices fill the frame from the end of the
        # training and preamble on, each symbol once.
        cfg = FrameConfig(pilot_reps=reps, modulation=mod)
        pilots, data, block = block_indices(cfg)
        assert data.shape == block.shape == (cfg.data_symbols,)
        tiled = np.sort(np.concatenate([pilots.ravel(), data]))
        assert np.array_equal(tiled, np.arange(cfg.payload_start, cfg.total_symbols))
        # Each pilot block is one run, and the data after it are its segment.
        assert (np.diff(pilots, axis=-1) == 1).all()
        assert np.array_equal(np.diff(data) > 1, np.diff(block) > 0)
        assert (data > pilots[block, -1]).all()

    @pytest.mark.parametrize(
        "geometry",
        [{}, {"payload_symbols": 128, "pilot_block_len": 8},
         {"payload_symbols": 260, "pilot_block_len": 12, "training_rep_len": 16,
          "training_reps": 3, "golay_len": 32}],
        ids=["default", "short", "uneven"],
    )
    def test_data_indices_are_the_frame_less_its_pilots(self, geometry):
        # The data indices are np.setdiff1d's, in dtype and values, for every
        # buildable (pilot_reps, modulation) of each geometry.
        built = 0
        for reps in SUPPORTED_PILOT_REPS:
            for mod in BITS_PER_SYMBOL:
                try:
                    cfg = FrameConfig(pilot_reps=reps, modulation=mod, **geometry)
                except ValueError:  # a data field that is not whole bytes
                    continue
                pilots, data, _ = block_indices(cfg)
                want = np.setdiff1d(np.arange(cfg.payload_start, cfg.total_symbols), pilots)
                assert data.dtype == want.dtype
                assert np.array_equal(data, want)
                built += 1
        assert built >= len(SUPPORTED_PILOT_REPS) * 2

    def test_pilot_span_count_and_length(self):
        cfg = FrameConfig(pilot_reps=4, modulation=16)
        pilots, _, _ = block_indices(cfg)
        assert pilots.shape == (4, 16)

    def test_uneven_data_split_longer_segments_first(self):
        cfg = FrameConfig(pilot_reps=6, modulation=4)
        _, _, block = block_indices(cfg)
        assert np.bincount(block).tolist() == [27, 27, 27, 27, 26, 26]

    def test_two_rep_pilot_offsets(self):
        cfg = FrameConfig(pilot_reps=2, modulation=16)
        pilots, _, _ = block_indices(cfg)
        assert (pilots[:, 0] - cfg.payload_start).tolist() == [0, 128]

    def test_payload_start_is_derived_not_settable(self):
        cfg = FrameConfig(pilot_reps=2, modulation=16, training_reps=3, golay_len=32)
        assert cfg.payload_start == 3 * 32 + 2 * 32
        assert cfg.total_symbols == cfg.payload_start + cfg.payload_symbols
        with pytest.raises(TypeError):
            FrameConfig(pilot_reps=2, modulation=16, payload_start=0)


class TestCrc:
    def test_round_trip(self):
        field = crc_attach(b"some payload bytes")
        assert crc_check(field)

    def test_single_bit_flip_detected(self):
        field = bytearray(crc_attach(bytes(range(64))))
        field[10] ^= 0x04
        assert not crc_check(bytes(field))

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=300), pick=st.data())
    def test_any_single_bit_flip_in_the_field_is_detected(self, data, pick):
        field = crc_attach(data)
        assert crc_check(field)
        bit = pick.draw(st.integers(0, 8 * len(field) - 1), label="bit")
        flipped = bytearray(field)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert not crc_check(bytes(flipped))

    def test_known_vector(self):
        assert crc_attach(b"123456789")[-4:] == (0xCBF43926).to_bytes(4, "little")

    def test_matches_independent_bitwise_oracle(self):
        rng = np.random.default_rng(11)
        for n in (0, 1, 7, 32, 200):
            data = rng.bytes(n)
            assert crc_attach(data) == data + crc32_bitwise(data).to_bytes(4, "little")


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
        (field,) = unpack_wire_bytes(bits[np.newaxis], cfg)
        assert field == crc_attach(data)
        assert crc_check(field)

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
    "generate_golay_pair": (lambda: generate_golay_pair(64), list),
    "default_tables": (
        lambda: default_tables(FrameConfig(pilot_reps=4, modulation=16)),
        lambda t: [t.training, t.pilot, t.preamble],
    ),
    "block_indices": (lambda: block_indices(FrameConfig(pilot_reps=4, modulation=16)), list),
}


class TestCachedBuilders:
    @pytest.mark.parametrize("name", BUILDERS)
    def test_second_call_returns_same_object(self, name):
        build, _ = BUILDERS[name]
        assert build() is build()

    @pytest.mark.parametrize("name", BUILDERS)
    def test_cached_arrays_are_read_only(self, name):
        build, arrays = BUILDERS[name]
        for array in arrays(build()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
