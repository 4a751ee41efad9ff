"""The receiver's estimators against their closed-form bounds.

Each test draws many independent cases and compares a measured statistic
with the value the estimator's theory predicts, within a band that states
how far apart the two may be.
"""

import math

import numpy as np
import pytest

from burstlink.framing import FrameConfig, default_tables
from burstlink.sync import (
    DetectorConfig,
    autocorrelation_metric,
    detect_training,
    estimate_coarse_cfo,
)

T_SYM = 1e-6


def coarse_cfo_draws(rng, draws, snr_db):
    """``draws`` bursts built as criterion 02 builds each one: the 4QAM
    training field twice (L = 32) and 64 unit-modulus data symbols, at one
    sample per symbol, rotated by an offset uniform over +/-0.8 of
    1/(2 * L * T) from a uniform initial phase, in complex white noise of
    power 10**(-snr_db/10). Returns the offsets and ``detect_training``'s
    arrays."""
    cfg = FrameConfig(pilot_reps=1, modulation=4)
    lag = cfg.training_rep_len
    train = np.tile(default_tables(cfg).training, 2)
    data = np.exp(1j * rng.uniform(0, 2 * np.pi, (draws, 64)))
    x = np.concatenate([np.broadcast_to(train, (draws, len(train))), data], axis=-1)
    df = rng.uniform(-0.8, 0.8, draws) / (2 * lag * T_SYM)
    phase = 2 * np.pi * df[:, None] * np.arange(x.shape[-1]) * T_SYM
    x = x * np.exp(1j * (phase + rng.uniform(0, 2 * np.pi, (draws, 1))))
    sigma = math.sqrt(10 ** (-snr_db / 10) / 2)
    x = x + sigma * (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape))
    c, _, rho = autocorrelation_metric(x, lag)
    return df, detect_training(rho, c, DetectorConfig(), lag)


@pytest.mark.parametrize("snr_db", (5.0, 10.0, 15.0, 20.0))
def test_coarse_cfo_rms_error_meets_its_bound(snr_db):
    # Schmidl & Cox (IEEE Trans. Commun. 1997): the lag-L correlation's phase
    # has variance (1 + 1/(2 SNR)) / (L SNR), the second term from the
    # noise-by-noise product. An offset error is that phase over pi, as a
    # fraction of 1/(2 L T). At 5 dB 6-9 % of draws never reach rho = 0.7
    # and are not detected; the RMS is over detected draws only, which must
    # still be most of them.
    lag, snr = 32, 10 ** (snr_db / 10)
    half_range = 1 / (2 * lag * T_SYM)
    df, (index, c_peak, _) = coarse_cfo_draws(np.random.default_rng(1), 1000, snr_db)
    hit = index >= 0
    assert hit.sum() >= 800
    est = np.array([estimate_coarse_cfo(c, lag * T_SYM) for c in c_peak[hit].tolist()])
    rms = math.sqrt(np.mean(np.square(est - df[hit]))) / half_range
    bound = math.sqrt((1 + 1 / (2 * snr)) / (lag * snr)) / math.pi
    assert 0.9 <= rms / bound <= 1.1, f"RMS {rms:.4%} against the bound {bound:.4%}"
