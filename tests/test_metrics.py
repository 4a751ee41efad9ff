"""Tests for link-quality metrics and trial aggregation."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burstlink.metrics import (
    FrameEvents,
    TrialResult,
    aggregate_events,
    evm_from_energies,
    goodput,
    sinr_from_energies,
    throughput,
)


def energy(z) -> float:
    return float(np.sum(np.abs(z) ** 2))


class TestEvm:
    def test_identical_symbols_zero(self):
        s = np.array([1 + 1j, -1 + 0.5j])
        assert evm_from_energies(energy(s - s), energy(s)) == 0.0

    def test_ten_percent_example(self):
        rx, ref = np.array([1.1 + 0j]), np.array([1.0 + 0j])
        assert evm_from_energies(energy(rx - ref), energy(ref)) == pytest.approx(10.0)

    def test_awgn_matches_snr_formula(self):
        # EVM = 100 / sqrt(SNR_linear) for unit-power references in AWGN.
        rng = np.random.default_rng(0)
        n = 100_000
        ref = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        sigma2 = 10 ** (-20 / 10)
        rx = ref + np.sqrt(sigma2 / 2) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        assert evm_from_energies(energy(rx - ref), energy(ref)) == pytest.approx(10.0, rel=0.05)

    def test_no_reference_energy_is_nan(self):
        assert math.isnan(evm_from_energies(0.0, 0.0))


class TestSinr:
    def test_exact_decisions_give_infinity(self):
        s = np.array([1 + 0j, 0 + 1j])
        assert sinr_from_energies(energy(s), energy(s - s)) == math.inf

    def test_no_decision_energy_is_nan(self):
        assert math.isnan(sinr_from_energies(0.0, 0.0))

    def test_ratio_that_reaches_zero_is_no_domain_error(self):
        # sig / err is 0 for an infinite err, or when it underflows; the dB
        # value is then the difference of the two logs.
        assert sinr_from_energies(1.0, math.inf) == -math.inf
        assert sinr_from_energies(5e-324, 1e10) == pytest.approx(-3333.06, abs=0.01)

    def test_awgn_construction(self):
        rng = np.random.default_rng(1)
        n = 100_000
        ref = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        sigma2 = 10 ** (-15 / 10)
        rx = ref + np.sqrt(sigma2 / 2) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        assert sinr_from_energies(energy(ref), energy(rx - ref)) == pytest.approx(15.0, abs=0.3)

    def test_consistent_with_evm(self):
        rng = np.random.default_rng(2)
        n = 50_000
        ref = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        rx = ref + 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        sinr = sinr_from_energies(energy(ref), energy(rx - ref))
        from_evm = -20 * math.log10(evm_from_energies(energy(rx - ref), energy(ref)) / 100)
        assert sinr == pytest.approx(from_evm, abs=0.2)


class TestRates:
    def test_goodput_arithmetic(self):
        assert goodput(1000, 120, 2.0) == pytest.approx(480_000.0)

    def test_zero_passes(self):
        assert goodput(0, 120, 2.0) == 0.0

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            goodput(1, 1, 0.0)
        with pytest.raises(ValueError):
            throughput(1, 1, 1, -1.0)

    def test_throughput_counts_detected_frames(self):
        assert throughput(0, 192, 4, 1.0) == 0.0
        assert throughput(10, 192, 4, 1.0) == pytest.approx(7680.0)

    def test_goodput_throughput_ratio_when_all_pass(self):
        # 16QAM, 4 reps: 192 data symbols = 96 wire bytes, 92 without CRC.
        frames, duration = 50, 50 * 448e-6
        tput = throughput(frames, 192, 4, duration)
        gput = goodput(frames, 92, duration)
        assert gput == pytest.approx(tput * 92 / 96)

    def test_half_crc_failures_halve_goodput(self):
        duration = 1.0
        full = goodput(100, 92, duration)
        half = goodput(50, 92, duration)
        assert half == pytest.approx(0.5 * full)


FRAME_DEFAULTS = dict(detected=True, crc_ok=True, failure="", err=0.01, ref=10.0, phase=1.0)


def make_events(*frames):
    """One trial's FrameEvents: one dict per frame, over FRAME_DEFAULTS."""
    rows = []
    for i, frame in enumerate(frames):
        f = {**FRAME_DEFAULTS, **frame}
        energies = (f["err"], f["ref"], f["err"], f["ref"]) if f["detected"] else (0.0,) * 4
        n_symbols = 100 if f["detected"] else 0
        outcome = (f["detected"], f["crc_ok"], f["failure"])
        rows.append((i, *outcome, *energies, n_symbols, 0.0, f["phase"]))
    return FrameEvents(*zip(*rows))


# The frame facts aggregation reads from a trial snapshot: 16QAM, 192 data
# symbols carrying 92 payload bytes, 448 us of airtime per frame.
SNAPSHOT = {
    "data_bytes_per_frame": 92,
    "data_symbols": 192,
    "bits_per_symbol": 4,
    "frame_airtime_s": 448e-6,
}


class TestAggregation:
    def test_counters_and_rates(self):
        events = make_events(
            {},
            dict(crc_ok=False, failure="crc-fail"),
            dict(detected=False, crc_ok=False, failure="no-training"),
        )
        result = aggregate_events(events, SNAPSHOT)
        assert result.frames_sent == 3
        assert result.frames_detected == 2
        assert result.crc_pass == 1
        assert result.duration_s == pytest.approx(3 * 448e-6)
        assert result.goodput_bps == pytest.approx(92 * 8 / (3 * 448e-6))
        assert result.throughput_bps == pytest.approx(2 * 192 * 4 / (3 * 448e-6))
        assert result.failure_counts == {"crc-fail": 1, "no-training": 1}

    def test_energy_pooled_evm(self):
        events = make_events(dict(err=0.01, ref=1.0), dict(err=0.03, ref=1.0))
        result = aggregate_events(events, SNAPSHOT)
        assert result.evm_percent == pytest.approx(100 * math.sqrt(0.04 / 2.0))

    def test_aggregation_is_order_independent(self):
        events = make_events(*(dict(err=0.01 * (i + 1)) for i in range(5)))
        reversed_events = FrameEvents(
            *(getattr(events, f.name)[::-1] for f in dataclasses.fields(events))
        )
        a = aggregate_events(events, SNAPSHOT)
        b = aggregate_events(reversed_events, SNAPSHOT)
        assert a.evm_percent == b.evm_percent
        assert a.goodput_bps == b.goodput_bps

    def test_counter_invariant_enforced(self):
        with pytest.raises(ValueError, match="invariant"):
            TrialResult(
                frames_sent=1,
                frames_detected=2,
                crc_pass=0,
                goodput_bps=0,
                throughput_bps=0,
                evm_percent=0,
                evm_decision_percent=0,
                sinr_db=0,
                mean_residual_phase_deg=0,
                duration_s=1.0,
            )

    def test_goodput_above_throughput_rejected(self):
        counts = dict(frames_sent=2, frames_detected=1, crc_pass=1)
        rates = dict(evm_percent=0, evm_decision_percent=0, sinr_db=0, mean_residual_phase_deg=0)
        with pytest.raises(ValueError, match="goodput cannot exceed throughput"):
            TrialResult(**counts, **rates, goodput_bps=2.0, throughput_bps=1.0, duration_s=1.0)


# Lengths about numpy's 8-way unrolled sum and its 128-element pairwise block.
_EDGE_LENGTHS = [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 300]


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from(_EDGE_LENGTHS) | st.integers(1, 300),
    special=st.booleans(),
    huge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, special=False, huge=True, seed=0)  # 1e308 + 1e308 overflows
def test_mean_phase_is_np_mean_bit_for_bit(n, special, huge, seed):
    # Magnitudes from subnormal to 1e307, so the order of the additions
    # shows in the last bits; with ``special``, some cells are inf or NaN; with
    # ``huge``, up to two cells are 1e308, so a sum of finite cells may overflow.
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-180, 180, n) * 10.0 ** rng.integers(-325, 306, n)
    if huge:
        phases[:2] = 1e308
    if special:
        phases[rng.integers(0, n, rng.integers(1, 4))] = rng.choice([np.inf, -np.inf, np.nan])
    events = make_events(*(dict(phase=p) for p in phases.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning, whatever the cells
        got = aggregate_events(events, SNAPSHOT).mean_residual_phase_deg
    # A sum may overflow, or meet inf and -inf: numpy warns for either. Where a
    # sum of finite cells overflows, the mean is the sum of each over n.
    with np.errstate(over="ignore", invalid="ignore"):
        want = float(np.mean(phases))
        if not math.isfinite(want) and np.isfinite(phases).all():
            want = float(np.sum(phases / n))
            assert math.isfinite(want)
    assert struct.pack("<d", got) == struct.pack("<d", want)
