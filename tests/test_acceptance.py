"""Acceptance suite.

One test per criterion (criterion 6 splits into its three clauses); each
prints a PASS/FAIL line with the measured values at the stated tolerance.
Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from burstlink.channel import ChannelProfile
from burstlink.config import SweepSpec
from burstlink.framing import (
    FrameConfig,
    assemble_frame,
    compute_layout,
    crc_attach,
    default_tables,
)
from burstlink.harness import (
    emit_sigmf,
    results_to_csv,
    run_sweep,
    run_trial_events,
    sigmf_to_json,
    validate_sigmf,
)
from burstlink.metrics import evm as evm_metric
from burstlink.metrics import sinr_estimate
from burstlink.sync import (
    DECODED,
    DetectorConfig,
    autocorrelation_metric,
    detect_training,
    receive_frames,
)
from burstlink.waveform import (
    ComplexBuffer,
    PulseShapeConfig,
    build_constellation,
    complementary_autocorrelation,
    demap_symbols,
    generate_golay_pair,
    map_bits,
    shape_and_upsample,
)

ALL_LAMBDAS = (1, 2, 4, 6, 8)
ALL_MODS = (4, 8, 16, 64)
T_SYM = 1e-6


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def tx_buffer(symbols, pulse):
    shaped = shape_and_upsample(symbols, pulse, T_SYM)
    return ComplexBuffer(
        shaped.samples * math.sqrt(pulse.interpolation), shaped.sample_period
    )


# ---------------------------------------------------------------------------
# 1. Loopback identity
# ---------------------------------------------------------------------------


def test_criterion_01_loopback_identity():
    pulse = PulseShapeConfig()
    rng = np.random.default_rng(1)
    worst_evm = 0.0
    worst_time = 0.0
    for reps in ALL_LAMBDAS:
        for mod in ALL_MODS:
            started = time.perf_counter()
            cfg = FrameConfig(pilot_reps=reps, modulation=mod)
            layout = compute_layout(cfg)
            for _ in range(3):
                data = rng.bytes(cfg.payload_bytes)
                frame = assemble_frame(crc_attach(data), cfg)
                buf = tx_buffer(frame, pulse)
                res = receive_frames(ComplexBuffer(buf.samples[np.newaxis], buf.sample_period), cfg)
                assert res.failure[0] == DECODED, (reps, mod, res.failure[0])
                assert res.payloads[0].data_bytes == data, (reps, mod)
                tx_data = np.concatenate([frame[a:b] for a, b in layout.data_spans])
                worst_evm = max(worst_evm, evm_metric(res.equalized[0], tx_data))
            worst_time = max(worst_time, time.perf_counter() - started)
    ok = worst_evm < 0.1 and worst_time < 10.0
    report(
        "01",
        ok,
        f"all 20 cells CRC-clean with byte-identical payloads, worst EVM "
        f"{worst_evm:.4f}% (< 0.1%), worst cell time {worst_time:.2f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 2. Coarse CFO accuracy
# ---------------------------------------------------------------------------


def _cfo_case(rng, df, snr_db=None):
    cfg = FrameConfig(pilot_reps=1, modulation=4)
    lag = cfg.training_rep_len
    train = np.tile(default_tables(cfg).training, 2)
    data = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
    x = np.concatenate([train, data])
    n = np.arange(len(x))
    x = x * np.exp(1j * (2 * np.pi * df * n * T_SYM + rng.uniform(0, 2 * np.pi)))
    if snr_db is not None:
        sigma = math.sqrt(10 ** (-snr_db / 10) / 2)
        x = x + sigma * (rng.normal(size=len(x)) + 1j * rng.normal(size=len(x)))
    c, _, rho = autocorrelation_metric(x, lag)
    return detect_training(rho, c, DetectorConfig(), lag * T_SYM, lag)


def test_criterion_02_coarse_cfo_accuracy():
    delta_t = 32 * T_SYM
    half_range = 1.0 / (2 * delta_t)

    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(1000):
        df = rng.uniform(-0.8, 0.8) * half_range
        res = _cfo_case(rng, df)
        worst_rel = max(worst_rel, abs(res.delta_f_est_hz - df) / abs(df))

    rng = np.random.default_rng(1)
    errors = []
    for _ in range(1000):
        df = rng.uniform(-0.8, 0.8) * half_range
        res = _cfo_case(rng, df, snr_db=10.0)
        assert res.detect_index >= 0
        errors.append(res.delta_f_est_hz - df)
    rms_frac = math.sqrt(np.mean(np.square(errors))) / half_range

    ok = worst_rel < 1e-6 and rms_frac < 0.02
    report(
        "02",
        ok,
        f"noiseless worst relative error {worst_rel:.2e} (< 1e-6); "
        f"10 dB RMS error {100 * rms_frac:.2f}% of 1/(2*dt) (< 2%)",
    )


# ---------------------------------------------------------------------------
# 3. Golay exactness
# ---------------------------------------------------------------------------


def test_criterion_03_golay_exactness():
    sizes = [2**k for k in range(1, 10)]
    for n in sizes:
        acorr = complementary_autocorrelation(generate_golay_pair(n))
        assert acorr.dtype.kind == "i"
        assert acorr[0] == 2 * n and np.all(acorr[1:] == 0), n
    report("03", True, f"complementary sums exactly (2N, 0, ..., 0) for N in {sizes}")


# ---------------------------------------------------------------------------
# 4. Pilot/data split table
# ---------------------------------------------------------------------------


def test_criterion_04_pilot_data_table():
    expected = {1: (16, 240), 2: (32, 224), 4: (64, 192), 6: (96, 160), 8: (128, 128)}
    got = {}
    for reps in ALL_LAMBDAS:
        cfg = FrameConfig(pilot_reps=reps, modulation=16)
        layout = compute_layout(cfg)
        pilots = sum(b - a for a, b in layout.pilot_spans)
        datas = sum(b - a for a, b in layout.data_spans)
        got[reps] = (pilots, datas)
    report("04", got == expected, f"pilot/data pairs {got}")


# ---------------------------------------------------------------------------
# 5. Residual phase vs pilot repetitions
# ---------------------------------------------------------------------------


def test_criterion_05_residual_phase_trend():
    # Linear-drift profile. Within one frame the dominant residual is the
    # coarse estimator's noise-limited error, a per-frame constant, so the
    # accumulated phase between corrections scales as 1/lambda; the SNR is
    # the knob that places lambda=1 inside [5, 15] degrees.
    profile = ChannelProfile(
        delta_f_hz=800.0,
        drift_hz_per_s=200.0,
        theta_in_rad=0.3,
        snr_db=15.0,
        seed=17,
    )
    means = {}
    for reps in (1, 2, 4, 8):
        cfg = FrameConfig(pilot_reps=reps, modulation=4)
        values = [
            run_trial_events(cfg, profile, frames=12, seed=100 + t).result.mean_residual_phase_deg
            for t in range(30)
        ]
        means[reps] = float(np.mean(values))
    seq = [means[k] for k in (1, 2, 4, 8)]
    ok = (
        5.0 <= means[1] <= 15.0
        and all(a > b for a, b in zip(seq, seq[1:]))
        and means[8] < 1.0
    )
    report(
        "05",
        ok,
        "mean residual phase "
        + " > ".join(f"{v:.2f}" for v in seq)
        + f" deg; lambda=1 in [5, 15], strictly decreasing, lambda=8 < 1",
    )


# ---------------------------------------------------------------------------
# 6. Goodput trade-off shape
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tradeoff_goodput():
    # Oscillator stress profile: strong linear drift whose within-frame
    # quadratic phase defeats the single-pilot extrapolated fit for 16QAM
    # and 64QAM but not the short pilot spacings, plus a per-epoch frequency
    # walk. For 4QAM the lambda=1 fit still holds: it runs through the
    # training anchor and the lone pilot, and its quadratic residual at the
    # last data symbol (pi x 1.4e6 x 415.5 us x 247.5 us ~ 26 deg) stays
    # inside 4QAM's 45 deg decision margin. Trials stay at 20 frames so the
    # accumulated drift (1.4e6 Hz/s x 20 x 448 us ~ 12.5 kHz on top of the
    # 1 kHz offset) never leaves the coarse estimator's +/- 15.6 kHz
    # unambiguous range.
    profile = ChannelProfile(
        delta_f_hz=1000.0,
        drift_hz_per_s=1.4e6,
        snr_db=20.0,
        coherence_symbols=128,
        freq_walk_std_hz=150.0,
        seed=5,
    )
    spec = SweepSpec(
        lambda_list=ALL_LAMBDAS,
        modulations=ALL_MODS,
        profiles=(profile,),
        frames_per_trial=20,
        trials_per_cell=6,
        master_seed=2026,
    )
    runs = run_sweep(spec, workers=1)
    table = {}
    for run in runs:
        key = (run.result.config["modulation"], run.result.config["pilot_reps"])
        table.setdefault(key, []).append(run.result.goodput_bps)
    return {key: float(np.mean(vals)) for key, vals in table.items()}


def test_criterion_06a_high_order_gain(tradeoff_goodput):
    g = tradeoff_goodput
    ratios = {}
    for mod in (16, 64):
        best = max(g[(mod, 4)], g[(mod, 6)])
        ratios[mod] = best / max(g[(mod, 1)], 1e-9)
    ok = all(r >= 2.0 for r in ratios.values())
    report(
        "06a",
        ok,
        f"best-of-lambda {{4,6}} over lambda=1: 16QAM x{ratios[16]:.2f}, "
        f"64QAM x{ratios[64]:.2f} (both >= 2x)",
    )


def _spread(row):
    return (max(row) - min(row)) / max(row)


def test_criterion_06b_4qam_flatness(tradeoff_goodput):
    # The payload section is a fixed 256 symbols (criterion 04), so 4QAM's
    # zero-loss goodput halves from lambda=1 to lambda=8 by layout alone.
    # Flatness is therefore judged on goodput over that capacity: pilot
    # density must not decide whether 4QAM frames survive.
    g = tradeoff_goodput
    raw = [g[(4, reps)] for reps in ALL_LAMBDAS]
    capacity = []
    for reps in ALL_LAMBDAS:
        cfg = FrameConfig(pilot_reps=reps, modulation=4)
        capacity.append(cfg.payload_bytes * 8 / (cfg.total_symbols * T_SYM))
    normalized = [r / c for r, c in zip(raw, capacity)]
    spread = _spread(normalized)
    report(
        "06b",
        spread <= 0.25,
        f"4QAM goodput/capacity spread (max-min)/max = {spread:.3f} across "
        f"lambda {ALL_LAMBDAS} (required <= 0.25); normalized = "
        + ", ".join(f"{v:.3f}" for v in normalized)
        + "; raw kbps = "
        + ", ".join(f"{v / 1e3:.0f}" for v in raw)
        + f" (raw spread {_spread(raw):.3f}); zero-loss kbps = "
        + ", ".join(f"{v / 1e3:.0f}" for v in capacity),
    )


def test_criterion_06c_64qam_overhead_penalty(tradeoff_goodput):
    g = tradeoff_goodput
    peak = max(g[(64, 4)], g[(64, 6)])
    ok = g[(64, 8)] < peak
    report(
        "06c",
        ok,
        f"64QAM lambda=8 goodput {g[(64, 8)] / 1e3:.0f} kbps below its "
        f"lambda {{4,6}} peak {peak / 1e3:.0f} kbps",
    )


# ---------------------------------------------------------------------------
# 7. EVM-SINR identity
# ---------------------------------------------------------------------------


def test_criterion_07_evm_sinr_identity():
    # Error-free-decision trial: decision-aided SINR must equal the EVM form.
    cfg = FrameConfig(pilot_reps=4, modulation=16)
    result = run_trial_events(
        cfg, ChannelProfile(snr_db=30.0, seed=3), frames=10, seed=42
    ).result
    assert result.crc_pass == result.frames_sent
    identity_gap = abs(
        result.sinr_db - (-20.0 * math.log10(result.evm_decision_percent / 100.0))
    )

    rng = np.random.default_rng(7)
    worst_gap = 0.0
    n = 100_000
    for snr_db in (10.0, 15.0, 20.0, 25.0):
        ref = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        sigma = math.sqrt(10 ** (-snr_db / 10) / 2)
        rx = ref + sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
        worst_gap = max(worst_gap, abs(sinr_estimate(rx, ref) - snr_db))

    ok = identity_gap < 0.2 and worst_gap < 0.3
    report(
        "07",
        ok,
        f"identity gap {identity_gap:.3e} dB (< 0.2); worst injected-SNR gap "
        f"{worst_gap:.3f} dB over 1e5 symbols (< 0.3)",
    )


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------


def test_criterion_08_determinism():
    profile = ChannelProfile(delta_f_hz=1500.0, snr_db=18.0, coherence_symbols=256,
                             fading="block-rician", rician_k=8.0, seed=21)
    spec = SweepSpec(
        lambda_list=(1, 4),
        modulations=(4, 64),
        profiles=(profile,),
        frames_per_trial=6,
        trials_per_cell=2,
        master_seed=313,
    )

    def render(runs):
        csv_text = results_to_csv([r.result for r in runs])
        sigmf_text = "".join(
            sigmf_to_json(
                emit_sigmf(
                    r.result,
                    spec.frame_config(
                        r.result.config["pilot_reps"], r.result.config["modulation"]
                    ),
                    sample_rate_hz=4e6,
                    environment="bench",
                )
            )
            for r in runs
        )
        return csv_text, sigmf_text

    csv1, sig1 = render(run_sweep(spec, workers=1))
    csv2, sig2 = render(run_sweep(spec, workers=1))
    csv8, sig8 = render(run_sweep(spec, workers=8))
    ok = csv1 == csv2 == csv8 and sig1 == sig2 == sig8
    report(
        "08",
        ok,
        "sweep CSV and SigMF outputs byte-identical across two runs and "
        "worker counts {1, 8}",
    )


# ---------------------------------------------------------------------------
# 9. Oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_09_oracle_equivalence():
    # Demapper vs exhaustive nearest-point search.
    for mod in ALL_MODS:
        c = build_constellation(mod)
        rng = np.random.default_rng(200 + mod)
        bits = rng.integers(0, 2, c.bits_per_symbol * 10_000).astype(np.uint8)
        noisy = map_bits(bits, c) + 0.25 * (
            rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        )
        d2 = np.abs(noisy[:, None] - c.points[None, :]) ** 2
        nearest = np.argmin(d2, axis=1)
        labels = np.asarray(c.bit_labels)
        inverse = np.empty_like(labels)
        inverse[labels] = np.arange(mod)
        shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
        expected = (
            ((inverse[nearest][:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()
        )
        assert np.array_equal(demap_symbols(noisy, c)[0], expected), mod

    # Channel-estimator error variance against sigma^2 / N_p.
    rng = np.random.default_rng(33)
    ref = default_tables(FrameConfig(pilot_reps=1, modulation=4)).pilot
    n_p = len(ref)
    sigma2 = 10 ** (-20.0 / 10.0)
    h = 0.8 * np.exp(1j * 1.2)
    trials = 10_000
    noise = math.sqrt(sigma2 / 2) * (
        rng.normal(size=(trials, n_p)) + 1j * rng.normal(size=(trials, n_p))
    )
    estimates = ((h * ref[None, :] + noise) * np.conj(ref)[None, :]).mean(axis=1)
    var = float(np.mean(np.abs(estimates - h) ** 2))
    ratio = var / (sigma2 / n_p)
    ok = abs(ratio - 1.0) <= 0.10
    report(
        "09",
        ok,
        f"demapper identical to brute-force search on 1e4 noisy symbols per "
        f"constellation; estimator variance ratio to sigma^2/N_p = {ratio:.3f} "
        f"(within 10%)",
    )


# ---------------------------------------------------------------------------
# 10. SigMF validity
# ---------------------------------------------------------------------------


def test_criterion_10_sigmf_validity():
    cfg = FrameConfig(pilot_reps=2, modulation=8)
    result = run_trial_events(cfg, ChannelProfile(seed=2), frames=2, seed=9).result
    docs = [
        emit_sigmf(result, cfg, sample_rate_hz=4e6, environment="indoor",
                   altitude_m=12.0, link_distance_m=30.0),
        emit_sigmf(result, cfg, sample_rate_hz=4e6),
    ]
    required = (
        "experiment:modulation",
        "experiment:pilot_repetitions",
        "experiment:altitude_m",
        "experiment:link_distance_m",
        "experiment:environment",
    )
    for doc in docs:
        text = sigmf_to_json(doc)
        parsed = json.loads(text)
        assert parsed == doc
        assert sigmf_to_json(parsed) == text
        assert validate_sigmf(parsed) == []
        for key in required:
            assert key in parsed["global"], key
    report(
        "10",
        True,
        "emitted metadata parses as JSON, carries all experiment fields "
        "(null allowed), and round-trips unchanged",
    )
