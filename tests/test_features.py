import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripwatch.errors import (
    BadWindowLength,
    InvalidConfig,
    NonFiniteInput,
    OutOfOrderTimestamp,
)
from gripwatch.features import (
    DwtConfig,
    StreamingExtractor,
    batch_features,
    extract_stream,
    haar_decompose,
    window_stats,
)
from gripwatch.tactile import ForceSample

SQRT2 = math.sqrt(2)

windows = st.integers(1, 9).flatmap(
    lambda half: st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=2 * half, max_size=2 * half
    )
)


def brute_m(window, n_w):
    a = [(window[2 * j] + window[2 * j + 1]) / SQRT2 for j in range(n_w // 2)]
    return sum(a) / n_w


def brute_sigma(window, n_w):
    d = [(window[2 * j] - window[2 * j + 1]) / SQRT2 for j in range(n_w // 2)]
    dbar = sum(d) / len(d)
    return math.sqrt(sum((v - dbar) ** 2 for v in d) / n_w)


def samples_from(values):
    return [ForceSample(i * 0.1, [v, 0.0, 0.0], v) for i, v in enumerate(values)]


def test_constant_window_has_zero_detail():
    decomp = haar_decompose([1, 1, 1, 1], DwtConfig(n_w=4))
    assert np.allclose(decomp.approximations, [SQRT2, SQRT2])
    assert np.allclose(decomp.details, [0, 0])


def test_two_sample_window():
    decomp = haar_decompose([3, 1], DwtConfig(n_w=2))
    assert decomp.approximations[0] == pytest.approx(2 * SQRT2)
    assert decomp.details[0] == pytest.approx(SQRT2)


def test_detail_sign_convention():
    decomp = haar_decompose([0, 2], DwtConfig(n_w=2))
    assert decomp.approximations[0] == pytest.approx(SQRT2)
    assert decomp.details[0] == pytest.approx(-SQRT2)


def test_bad_window_length():
    with pytest.raises(BadWindowLength):
        haar_decompose([1, 2, 3], DwtConfig(n_w=4))


def test_non_finite_window():
    with pytest.raises(NonFiniteInput):
        haar_decompose([1, np.inf], DwtConfig(n_w=2))


def test_odd_n_w_rejected():
    with pytest.raises(InvalidConfig):
        DwtConfig(n_w=5)
    with pytest.raises(InvalidConfig):
        DwtConfig(n_w=0)


def test_m_both_denominator_modes():
    m, _ = window_stats(np.ones(4))
    assert m == pytest.approx(SQRT2 / 2)
    assert m == pytest.approx(brute_m([1, 1, 1, 1], 4), abs=1e-15)


def test_sigma_both_denominator_modes():
    # details [sqrt2, -sqrt2] from window [1, -1, -1, 1]
    window = [1, -1, -1, 1]
    assert np.allclose(haar_decompose(window, DwtConfig(n_w=4)).details, [SQRT2, -SQRT2])
    _, sigma = window_stats(np.array(window, dtype=float))
    assert sigma == pytest.approx(1.0)
    assert sigma == pytest.approx(brute_sigma(window, 4), abs=1e-15)


def test_constant_window_zero_sigma_and_m():
    assert window_stats(np.zeros(6)) == (0.0, 0.0)


@settings(max_examples=200)
@given(window=windows)
def test_window_stats_match_brute_force_oracle(window):
    n_w = len(window)
    m, sigma = window_stats(np.array(window))
    assert m == pytest.approx(brute_m(window, n_w), abs=1e-9)
    assert sigma == pytest.approx(brute_sigma(window, n_w), abs=1e-9)


@settings(max_examples=200)
@given(window=windows)
def test_energy_conservation_and_reconstruction(window):
    n_w = len(window)
    decomp = haar_decompose(window, DwtConfig(n_w=n_w))
    energy_in = sum(x * x for x in window)
    energy_out = np.sum(decomp.approximations**2) + np.sum(decomp.details**2)
    assert energy_out == pytest.approx(energy_in, abs=1e-9 * max(1.0, energy_in))
    rebuilt = np.empty(n_w)
    rebuilt[0::2] = (decomp.approximations + decomp.details) / SQRT2
    rebuilt[1::2] = (decomp.approximations - decomp.details) / SQRT2
    assert np.allclose(rebuilt, window, atol=1e-9)


@settings(max_examples=100)
@given(window=windows, offset=st.floats(-50, 50, allow_nan=False))
def test_constant_offset_shifts_approximations_only(window, offset):
    n_w = len(window)
    cfg = DwtConfig(n_w=n_w)
    base = haar_decompose(window, cfg)
    shifted = haar_decompose([x + offset for x in window], cfg)
    assert np.allclose(shifted.details, base.details, atol=1e-9)
    assert np.allclose(
        shifted.approximations, base.approximations + offset * SQRT2, atol=1e-9
    )
    _, sigma = window_stats(np.array(window))
    _, sigma_shifted = window_stats(np.array(window) + offset)
    assert sigma_shifted == pytest.approx(sigma, abs=1e-9)


def test_sigma_zero_iff_pairwise_constant():
    pairwise = np.array([3, 3, -1, -1, 7, 7], dtype=float)
    assert window_stats(pairwise)[1] == 0.0
    uneven = np.array([3, 3, -1, 0, 7, 7], dtype=float)
    assert window_stats(uneven)[1] > 0


@pytest.mark.parametrize(
    "n_samples,expected", [(13, 0), (14, 1), (100, 87)]
)
def test_stream_warmup_and_emission_count(n_samples, expected):
    values = np.linspace(0, 1, n_samples)
    out = list(extract_stream(samples_from(values), DwtConfig(n_w=14)))
    assert len(out) == expected
    if expected:
        assert out[0].timestamp == pytest.approx(13 * 0.1)
        assert out[-1].timestamp == pytest.approx((n_samples - 1) * 0.1)


def test_stream_rejects_out_of_order_timestamps():
    extractor = StreamingExtractor(DwtConfig(n_w=4))
    extractor.push(ForceSample(1.0, [0, 0, 0], 0.0))
    with pytest.raises(OutOfOrderTimestamp):
        extractor.push(ForceSample(0.5, [0, 0, 0], 0.0))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rejected_sample_leaves_the_extractor_unchanged():
    values = np.linspace(1.0, 2.0, 10)
    clean = StreamingExtractor(DwtConfig(n_w=4))
    noisy = StreamingExtractor(DwtConfig(n_w=4))
    bad = (
        ForceSample(-1.0, [0, 0, 0], 0.0),  # older than the last sample
        ForceSample(99.0, [np.nan, 0, 0], 1.0),
        ForceSample(99.0, [0, 0, 0], np.inf),
        ForceSample(99.0, [1e200, 0, 0], 1e200),  # sigma overflows
    )
    for i, sample in enumerate(samples_from(values)):
        expected = clean.push(sample)
        if i:
            for b in bad:
                with pytest.raises((OutOfOrderTimestamp, NonFiniteInput)):
                    noisy.push(b)
        got = noisy.push(sample)
        assert (got is None and expected is None) or np.array_equal(got, expected)


def test_streaming_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    values = rng.normal(5.0, 2.0, size=300)
    cfg = DwtConfig(n_w=14)
    out = list(extract_stream(samples_from(values), cfg))
    assert len(out) == 300 - 13
    for k, phi in enumerate(out):
        window = values[k : k + 14]
        assert phi.m == pytest.approx(brute_m(window, 14), abs=1e-12)
        assert phi.sigma == pytest.approx(brute_sigma(window, 14), abs=1e-12)
        assert phi.f_a == pytest.approx(values[k + 13])


def test_batch_features_match_streaming():
    rng = np.random.default_rng(11)
    n = 120
    f_tip = rng.normal(size=(n, 3))
    f_a = np.linalg.norm(f_tip, axis=1)
    t = np.arange(n) * 0.01
    labels = rng.integers(0, 2, size=n)
    cfg = DwtConfig(n_w=8)
    X, y, t_out = batch_features(t, f_tip, f_a, cfg, labels=labels)
    assert np.array_equal(y, labels[7:])
    extractor = StreamingExtractor(cfg)
    rows = [extractor.push(ForceSample(t[i], f_tip[i], f_a[i])) for i in range(n)]
    assert rows[:7] == [None] * 7
    # one kernel on both paths: the same rows, bit for bit
    assert np.array_equal(np.stack(rows[7:]), X)
    streamed = list(extract_stream([ForceSample(t[i], f_tip[i], f_a[i]) for i in range(n)], cfg))
    assert [phi.timestamp for phi in streamed] == t_out.tolist()
    assert np.array_equal([[phi.m, phi.sigma] for phi in streamed], X[:, 4:])


def test_batch_features_short_series_is_empty():
    X, y, t = batch_features(np.arange(5), np.zeros((5, 3)), np.zeros(5), DwtConfig(n_w=14))
    assert len(X) == 0 and len(t) == 0
