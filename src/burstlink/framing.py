"""Frame construction and deconstruction.

A frame is a fixed symbol layout: a repeated training field for coarse
frequency acquisition, a Golay a||b preamble for frame detection, then a
payload section interleaving pilot blocks with data segments. The number of
pilot repetitions controls how often the receiver can re-estimate the
channel inside one frame, at the cost of data capacity.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from .waveform import (
    BITS_PER_SYMBOL,
    build_constellation,
    generate_golay_pair,
    map_bits,
    read_only,
)

SUPPORTED_PILOT_REPS = (1, 2, 4, 6, 8)

CRC_BYTES = 4

# Seeds for the fixed pseudo-random training and pilot tables, shared by
# transmitter and receiver.
_TRAINING_SEED = 0x7261696E
_PILOT_SEED = 0x70696C74

_QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class FrameConfig:
    """All frame-structure parameters, checked when built: one that exists is a usable frame.

    ``payload_symbols`` counts the pilot+data section only; training and
    preamble are on top of it.
    """

    pilot_reps: int
    modulation: int
    payload_symbols: int = 256
    pilot_block_len: int = 16
    training_rep_len: int = 32
    training_reps: int = 2
    golay_len: int = 64

    def __post_init__(self) -> None:
        if self.pilot_reps not in SUPPORTED_PILOT_REPS:
            raise ValueError(
                f"pilot_reps must be one of {SUPPORTED_PILOT_REPS}, got {self.pilot_reps}"
            )
        if self.modulation not in BITS_PER_SYMBOL:
            raise ValueError(f"unsupported modulation order {self.modulation}")
        for name in ("pilot_block_len", "training_rep_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.pilot_block_len * self.pilot_reps >= self.payload_symbols:
            raise ValueError(
                "pilot symbols must leave room for data: "
                f"{self.pilot_block_len}*{self.pilot_reps} >= {self.payload_symbols}"
            )
        if self.training_reps < 2:
            raise ValueError("training_reps must be >= 2 for lag correlation")
        generate_golay_pair(self.golay_len)  # rejects a length it cannot build
        if self.data_bits % 8:
            raise ValueError(
                f"data field of {self.data_bits} bits is not byte aligned for this config"
            )
        if self.payload_bytes <= 0:
            raise ValueError("data field too small to hold the CRC")

    @property
    def bits_per_symbol(self) -> int:
        return BITS_PER_SYMBOL[self.modulation]

    @property
    def pilot_symbols(self) -> int:
        return self.pilot_block_len * self.pilot_reps

    @property
    def data_symbols(self) -> int:
        return self.payload_symbols - self.pilot_symbols

    @property
    def training_symbols(self) -> int:
        return self.training_rep_len * self.training_reps

    @property
    def preamble_symbols(self) -> int:
        return 2 * self.golay_len

    @property
    def payload_start(self) -> int:
        """Index of the first payload symbol: training, then preamble, come first."""
        return self.training_symbols + self.preamble_symbols

    @property
    def total_symbols(self) -> int:
        return self.payload_start + self.payload_symbols

    @property
    def data_bits(self) -> int:
        return self.data_symbols * self.bits_per_symbol

    @property
    def frame_bytes(self) -> int:
        """Data-field bytes per frame, CRC included."""
        return self.data_bits // 8

    @property
    def payload_bytes(self) -> int:
        """User bytes per frame, CRC excluded."""
        return self.frame_bytes - CRC_BYTES


@dataclass(frozen=True)
class SymbolTables:
    """Fixed symbol tables known to both ends of the link."""

    training: np.ndarray  # one training repetition, unit-magnitude QPSK
    pilot: np.ndarray  # one pilot block, unit-magnitude QPSK
    preamble: np.ndarray  # Golay a||b as +/-1 BPSK


@functools.cache
def block_indices(cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The payload layout as frame-relative symbol indices: pilot block,
    data segment, pilot block, ... from ``cfg.payload_start`` to the end.

    Returns the pilot symbols of each block, shape (pilot_reps,
    pilot_block_len); the data symbols in frame order, shape
    (data_symbols,); and, per data symbol, the pilot block it follows. When
    the data budget does not divide evenly over the pilot repetitions, the
    earlier data segments take the remainder (longer segments first).
    """
    base, rem = divmod(cfg.data_symbols, cfg.pilot_reps)
    segment = base + (np.arange(cfg.pilot_reps) < rem)
    pilot_end = cfg.payload_start + np.cumsum(segment + cfg.pilot_block_len) - segment
    pilots = pilot_end[:, None] + np.arange(-cfg.pilot_block_len, 0)
    is_data = np.arange(cfg.total_symbols) >= cfg.payload_start
    is_data[pilots] = False
    data = np.flatnonzero(is_data)  # np.setdiff1d's values and dtype, without numpy.ma
    block = np.repeat(np.arange(cfg.pilot_reps), segment)
    return read_only(pilots), read_only(data), read_only(block)


def _qpsk_table(length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return read_only(_QPSK_POINTS[rng.integers(0, 4, length)])


@functools.cache
def default_tables(cfg: FrameConfig) -> SymbolTables:
    """Training/pilot/preamble tables for a config, fixed by module seeds."""
    preamble = np.concatenate(generate_golay_pair(cfg.golay_len)).astype(complex)
    return SymbolTables(
        training=_qpsk_table(cfg.training_rep_len, _TRAINING_SEED),
        pilot=_qpsk_table(cfg.pilot_block_len, _PILOT_SEED),
        preamble=read_only(preamble),
    )


def crc_attach(data: bytes) -> bytes:
    """The data field: the bytes, then their little-endian CRC-32 (0xCBF43926 check value)."""
    return bytes(data) + zlib.crc32(data).to_bytes(CRC_BYTES, "little")


def crc_check(field: bytes) -> bool:
    """Whether a data field's last four bytes are the CRC-32 of the rest."""
    return zlib.crc32(field[:-CRC_BYTES]).to_bytes(CRC_BYTES, "little") == field[-CRC_BYTES:]


def assemble_frames(fields: list[bytes], cfg: FrameConfig) -> np.ndarray:
    """Build F frames of symbols, shape (F, total_symbols), one row per data field.

    Each field (payload bytes plus the 4 CRC bytes, as ``crc_attach`` gives)
    must exactly fill the data symbol budget at the configured modulation.
    """
    for k, field in enumerate(fields):
        if len(field) != cfg.frame_bytes:
            raise ValueError(
                f"payload {k} must be exactly {cfg.payload_bytes} bytes for this config "
                f"({cfg.data_symbols} data symbols at {cfg.bits_per_symbol} b/sym, "
                f"CRC included), got {len(field) - CRC_BYTES}"
            )

    # Each frame's wire bits fill whole symbols, so one mapping serves all rows.
    wire = b"".join(fields)
    bits = np.unpackbits(np.frombuffer(wire, dtype=np.uint8))
    data_syms = map_bits(bits, build_constellation(cfg.modulation))

    tables = default_tables(cfg)
    pilots, data, _ = block_indices(cfg)
    frames = np.empty((len(fields), cfg.total_symbols), dtype=complex)
    frames[:, : cfg.training_symbols] = np.tile(tables.training, cfg.training_reps)
    frames[:, cfg.training_symbols : cfg.payload_start] = tables.preamble
    frames[:, pilots] = tables.pilot
    frames[:, data] = data_syms.reshape(len(fields), cfg.data_symbols)
    return frames


def unpack_wire_bytes(bits: np.ndarray, cfg: FrameConfig) -> list[bytes]:
    """Inverse of the assemble-side bit packing.

    ``bits`` of shape (F, data_bits) give a list of F data fields, one per row.
    """
    wire = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1)
    if wire.shape[-1] != cfg.frame_bytes:
        raise ValueError(f"expected {cfg.frame_bytes} wire bytes, got {wire.shape[-1]}")
    return [row.tobytes() for row in wire.reshape(-1, cfg.frame_bytes)]
