"""Burst-mode QAM link simulator.

A software baseband for a configurable burst link: frame assembly with
adjustable pilot density, coarse and fine carrier-frequency-offset
correction, pilot-aided single-tap equalization, link-quality metrics, a
seedable impairment channel, and a sweep harness with CSV and SigMF output.
"""

from .channel import ChannelProfile, apply_awgn, apply_block_fading, apply_cfo_phase, apply_channel
from .config import SweepSpec, load_sweep_config
from .framing import (
    FrameConfig,
    FrameLayout,
    PacketPayload,
    SymbolTables,
    assemble_frames,
    compute_layout,
    crc_attach,
    crc_check,
    default_tables,
)
from .harness import (
    emit_sigmf,
    generate_payload,
    run_sweep,
    run_trial_events,
    validate_sigmf,
)
from .metrics import TrialResult, evm, goodput, sinr_estimate, throughput
from .sync import (
    ChannelEstimate,
    CoarseSyncResult,
    DetectorConfig,
    FrameBatch,
    autocorrelation_metric,
    detect_training,
    estimate_channel,
    estimate_coarse_cfo,
    golay_frame_detect,
    nco_correct,
    receive_frames,
    residual_offset,
)
from .waveform import (
    Constellation,
    GolayPair,
    PulseShapeConfig,
    agc,
    build_constellation,
    demap_symbols,
    design_srrc,
    generate_golay_pair,
    map_bits,
    matched_filter_downsample,
    shape_and_upsample,
)

__version__ = "0.1.0"
