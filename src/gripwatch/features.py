"""Causal sliding-window Haar decomposition and per-step feature vectors.

At every time step k (after warm-up) the window is the most recent ``n_w``
force-amplitude samples. A single-level orthonormal Haar transform splits it
into approximation and detail coefficients; the emitted feature vector is
[F_a, F_x, F_y, F_z, m, sigma] where m is a moving average of the
approximations and sigma the standard deviation of the details.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadWindowLength, InvalidConfig, NonFiniteInput, OutOfOrderTimestamp
from .tactile import ForceSample

SQRT2 = float(np.sqrt(2.0))

FEATURE_NAMES = ("fa", "fx", "fy", "fz", "m", "sigma")


@dataclass(frozen=True)
class DwtConfig:
    n_w: int = 14

    def __post_init__(self):
        if self.n_w < 2 or self.n_w % 2 != 0:
            raise InvalidConfig(f"n_w must be a positive even integer, got {self.n_w}")


@dataclass(frozen=True)
class HaarDecomposition:
    approximations: np.ndarray  # a_phi, length n_w/2
    details: np.ndarray  # d_psi, length n_w/2

    def __post_init__(self):
        object.__setattr__(
            self, "approximations", np.asarray(self.approximations, dtype=float)
        )
        object.__setattr__(self, "details", np.asarray(self.details, dtype=float))


@dataclass(frozen=True)
class FeatureVector:
    timestamp: float
    f_a: float
    f_tip: np.ndarray
    m: float
    sigma: float
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "f_tip", np.asarray(self.f_tip, dtype=float))
        self.f_tip.setflags(write=False)

    def as_array(self) -> np.ndarray:
        """Feature layout [fa, fx, fy, fz, m, sigma]."""
        return np.array(
            [self.f_a, self.f_tip[0], self.f_tip[1], self.f_tip[2], self.m, self.sigma]
        )


def haar_decompose(window, config: DwtConfig) -> HaarDecomposition:
    """Single-level orthonormal Haar transform of one window.

    Pairs (2j, 2j+1) are taken in temporal order, oldest sample first.
    """
    x = np.asarray(window, dtype=float)
    if x.shape != (config.n_w,):
        raise BadWindowLength(f"expected window of length {config.n_w}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("window contains NaN/Inf")
    a = (x[0::2] + x[1::2]) / SQRT2
    d = (x[0::2] - x[1::2]) / SQRT2
    return HaarDecomposition(a, d)


def compute_m(decomp: HaarDecomposition, config: DwtConfig) -> float:
    """Moving average of the approximation coefficients: their sum over n_w."""
    return float(np.sum(decomp.approximations) / config.n_w)

def compute_sigma(decomp: HaarDecomposition, config: DwtConfig) -> float:
    """Standard deviation of the detail coefficients.

    The mean is taken over the n_w/2 coefficients and the sum of squared
    deviations is divided by the window length n_w.
    """
    d = decomp.details
    return float(np.sqrt(np.sum((d - d.mean()) ** 2) / config.n_w))


class StreamingExtractor:
    """Stateful per-fingertip extractor with a ring buffer of f_a values.

    Not thread-safe; use one instance per stream. The first n_w - 1 samples
    are warm-up and emit nothing.
    """

    def __init__(self, config: DwtConfig | None = None):
        self.config = config or DwtConfig()
        self._buf = np.zeros(self.config.n_w)
        self._pos = 0
        self._count = 0
        self._last_t = None

    def push(self, sample: ForceSample, label: int | None = None) -> FeatureVector | None:
        if self._last_t is not None and sample.timestamp < self._last_t:
            raise OutOfOrderTimestamp(
                f"timestamp {sample.timestamp} < previous {self._last_t}"
            )
        if not np.isfinite(sample.f_a):
            raise NonFiniteInput("non-finite force amplitude")
        self._last_t = sample.timestamp
        self._buf[self._pos] = sample.f_a
        self._pos = (self._pos + 1) % self.config.n_w
        self._count += 1
        if self._count < self.config.n_w:
            return None
        window = np.concatenate([self._buf[self._pos:], self._buf[: self._pos]])
        decomp = haar_decompose(window, self.config)
        return FeatureVector(
            timestamp=sample.timestamp,
            f_a=sample.f_a,
            f_tip=sample.f_tip,
            m=compute_m(decomp, self.config),
            sigma=compute_sigma(decomp, self.config),
            label=label,
        )


def extract_stream(samples, config: DwtConfig | None = None, labels=None):
    """Run a StreamingExtractor over an iterable of ForceSample.

    Yields one FeatureVector per input sample once the window is full.
    """
    extractor = StreamingExtractor(config)
    if labels is None:
        for sample in samples:
            phi = extractor.push(sample)
            if phi is not None:
                yield phi
    else:
        for sample, label in zip(samples, labels):
            phi = extractor.push(sample, label)
            if phi is not None:
                yield phi


def sliding_windows(values: np.ndarray, n_w: int) -> np.ndarray:
    """All length-n_w windows of a series, one row per end position."""
    return np.lib.stride_tricks.sliding_window_view(np.ascontiguousarray(values), n_w)


def batch_features(t, f_tip, f_a, config: DwtConfig, labels=None):
    """Vectorized equivalent of extract_stream over whole series.

    Returns (X, y, t_out) where X is an (N - n_w + 1, 6) matrix in the
    FEATURE_NAMES layout and y is None when labels is None.
    """
    f_a = np.asarray(f_a, dtype=float)
    n_w = config.n_w
    if len(f_a) < n_w:
        empty_y = None if labels is None else np.empty(0, dtype=int)
        return np.empty((0, 6)), empty_y, np.empty(0)
    if not np.all(np.isfinite(f_a)):
        raise NonFiniteInput("force amplitudes contain NaN/Inf")
    w = sliding_windows(f_a, n_w)
    a = (w[:, 0::2] + w[:, 1::2]) / SQRT2
    d = (w[:, 0::2] - w[:, 1::2]) / SQRT2
    m = a.sum(axis=1) / n_w
    sigma = np.sqrt(((d - d.mean(axis=1, keepdims=True)) ** 2).sum(axis=1) / n_w)
    tail = slice(n_w - 1, None)
    X = np.column_stack([f_a[tail], np.asarray(f_tip)[tail], m, sigma])
    y = None if labels is None else np.asarray(labels, dtype=int)[tail]
    return X, y, np.asarray(t)[tail]


def detail_energies(values: np.ndarray, n_w: int) -> np.ndarray:
    """Sum of squared Haar detail coefficients per sliding window."""
    w = sliding_windows(np.asarray(values, dtype=float), n_w)
    d = (w[:, 0::2] - w[:, 1::2]) / SQRT2
    return (d**2).sum(axis=1)
