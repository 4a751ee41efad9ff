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
    """All frame-structure parameters.

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
        if self.pilot_block_len * self.pilot_reps >= self.payload_symbols:
            raise ValueError(
                "pilot symbols must leave room for data: "
                f"{self.pilot_block_len}*{self.pilot_reps} >= {self.payload_symbols}"
            )
        if self.training_reps < 2:
            raise ValueError("training_reps must be >= 2 for lag correlation")

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
    def total_symbols(self) -> int:
        return self.training_symbols + self.preamble_symbols + self.payload_symbols

    @property
    def data_bits(self) -> int:
        return self.data_symbols * self.bits_per_symbol

    @property
    def frame_bytes(self) -> int:
        """Data-field bytes per frame, CRC included."""
        bits = self.data_bits
        if bits % 8:
            raise ValueError(
                f"data field of {bits} bits is not byte aligned for this config"
            )
        return bits // 8

    @property
    def payload_bytes(self) -> int:
        """User bytes per frame, CRC excluded."""
        n = self.frame_bytes - CRC_BYTES
        if n <= 0:
            raise ValueError("data field too small to hold the CRC")
        return n


@dataclass(frozen=True)
class FrameLayout:
    """Index spans (start, stop) tiling one frame exactly."""

    training_span: tuple[int, int]
    preamble_span: tuple[int, int]
    pilot_spans: tuple[tuple[int, int], ...]
    data_spans: tuple[tuple[int, int], ...]
    total_symbols: int

    @property
    def payload_start(self) -> int:
        return self.preamble_span[1]


@dataclass(frozen=True)
class PacketPayload:
    """User data bytes with their 32-bit CRC."""

    data_bytes: bytes
    crc: int


@dataclass(frozen=True)
class SymbolTables:
    """Fixed symbol tables known to both ends of the link."""

    training: np.ndarray  # one training repetition, unit-magnitude QPSK
    pilot: np.ndarray  # one pilot block, unit-magnitude QPSK
    preamble: np.ndarray  # Golay a||b as +/-1 BPSK


@functools.cache
def compute_layout(cfg: FrameConfig) -> FrameLayout:
    """Symbol spans for one frame: training, preamble, then pilot/data pairs.

    When the data budget does not divide evenly over the pilot repetitions,
    the earlier data segments take the remainder (longer segments first).
    """
    t_end = cfg.training_symbols
    p_end = t_end + cfg.preamble_symbols

    base, rem = divmod(cfg.data_symbols, cfg.pilot_reps)
    pilot_spans = []
    data_spans = []
    pos = p_end
    for i in range(cfg.pilot_reps):
        pilot_spans.append((pos, pos + cfg.pilot_block_len))
        pos += cfg.pilot_block_len
        seg = base + (1 if i < rem else 0)
        data_spans.append((pos, pos + seg))
        pos += seg
    assert pos == p_end + cfg.payload_symbols

    return FrameLayout(
        training_span=(0, t_end),
        preamble_span=(t_end, p_end),
        pilot_spans=tuple(pilot_spans),
        data_spans=tuple(data_spans),
        total_symbols=pos,
    )


@functools.cache
def block_indices(cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame-relative symbol indices for gathering a frame's blocks at once.

    Returns the pilot symbols of each block, shape (pilot_reps,
    pilot_block_len); the data symbols in frame order, shape
    (data_symbols,); and, per data symbol, the pilot block it follows.
    """
    layout = compute_layout(cfg)
    pilots = np.array([np.arange(a, b) for a, b in layout.pilot_spans])
    data = np.concatenate([np.arange(a, b) for a, b in layout.data_spans])
    block = np.repeat(np.arange(cfg.pilot_reps), [b - a for a, b in layout.data_spans])
    return read_only(pilots), read_only(data), read_only(block)


def _qpsk_table(length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return read_only(_QPSK_POINTS[rng.integers(0, 4, length)])


@functools.cache
def default_tables(cfg: FrameConfig) -> SymbolTables:
    """Training/pilot/preamble tables for a config, fixed by module seeds."""
    pair = generate_golay_pair(cfg.golay_len)
    preamble = np.concatenate([pair.a, pair.b]).astype(complex)
    return SymbolTables(
        training=_qpsk_table(cfg.training_rep_len, _TRAINING_SEED),
        pilot=_qpsk_table(cfg.pilot_block_len, _PILOT_SEED),
        preamble=read_only(preamble),
    )


def crc_attach(data_bytes: bytes) -> PacketPayload:
    """Wrap bytes with their CRC-32 (reflected, 0xCBF43926 check value)."""
    return PacketPayload(data_bytes=bytes(data_bytes), crc=zlib.crc32(data_bytes) & 0xFFFFFFFF)


def crc_check(payload: PacketPayload) -> bool:
    return (zlib.crc32(payload.data_bytes) & 0xFFFFFFFF) == payload.crc


def assemble_frames(payloads: list[PacketPayload], cfg: FrameConfig) -> np.ndarray:
    """Build F frames of symbols, shape (F, total_symbols), one row per payload.

    Each payload's bytes plus the 4 CRC bytes must exactly fill the data
    symbol budget at the configured modulation.
    """
    for k, payload in enumerate(payloads):
        if len(payload.data_bytes) != cfg.payload_bytes:
            raise ValueError(
                f"payload {k} must be exactly {cfg.payload_bytes} bytes for this config "
                f"({cfg.data_symbols} data symbols at {cfg.bits_per_symbol} b/sym, "
                f"CRC included), got {len(payload.data_bytes)}"
            )

    # Each frame's wire bits fill whole symbols, so one mapping serves all rows.
    wire = b"".join(p.data_bytes + p.crc.to_bytes(CRC_BYTES, "little") for p in payloads)
    bits = np.unpackbits(np.frombuffer(wire, dtype=np.uint8))
    data_syms = map_bits(bits, build_constellation(cfg.modulation))

    tables = default_tables(cfg)
    layout = compute_layout(cfg)
    pilots, data, _ = block_indices(cfg)
    frames = np.empty((len(payloads), layout.total_symbols), dtype=complex)
    frames[:, slice(*layout.training_span)] = np.tile(tables.training, cfg.training_reps)
    frames[:, slice(*layout.preamble_span)] = tables.preamble
    frames[:, pilots] = tables.pilot
    frames[:, data] = data_syms.reshape(len(payloads), cfg.data_symbols)
    return frames


def unpack_wire_bytes(bits: np.ndarray, cfg: FrameConfig) -> list[PacketPayload]:
    """Inverse of the assemble-side bit packing: bytes then little-endian CRC.

    ``bits`` of shape (F, data_bits) give a list of F payloads, one per row.
    """
    wire = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1)
    if wire.shape[-1] != cfg.frame_bytes:
        raise ValueError(f"expected {cfg.frame_bytes} wire bytes, got {wire.shape[-1]}")
    return [
        PacketPayload(
            data_bytes=row[: cfg.payload_bytes].tobytes(),
            crc=int.from_bytes(row[cfg.payload_bytes :].tobytes(), "little"),
        )
        for row in wire.reshape(-1, cfg.frame_bytes)
    ]
