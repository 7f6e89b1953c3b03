"""Causal sliding-window Haar decomposition and window features.

At every time step k (after warm-up) the window is the most recent ``n_w``
force-amplitude samples. A single-level orthonormal Haar transform splits it
into approximation and detail coefficients; the feature row is
[F_a, F_x, F_y, F_z, m, sigma] where m is a moving average of the
approximations and sigma the standard deviation of the details.

``window_stats`` is the one implementation of m and sigma: the batch path
applies it to every window of a series at once, the streaming path to one
window per pushed sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


class HaarDecomposition(NamedTuple):
    approximations: np.ndarray  # a_phi, n_w/2 per window
    details: np.ndarray  # d_psi, n_w/2 per window


class FeatureVector(NamedTuple):
    """One streamed window, as ``extract_stream`` yields it."""

    timestamp: float
    f_a: float
    f_tip: np.ndarray
    m: float
    sigma: float


def haar_pairs(windows: np.ndarray) -> HaarDecomposition:
    """Single-level orthonormal Haar transform along the last axis.

    Pairs (2j, 2j+1) are taken in temporal order, oldest sample first.
    """
    even, odd = windows[..., 0::2], windows[..., 1::2]
    return HaarDecomposition((even + odd) / SQRT2, (even - odd) / SQRT2)


def window_stats(windows: np.ndarray):
    """(m, sigma) of each window on the last axis, of length n_w.

    m is the sum of the approximation coefficients over n_w. sigma takes the
    mean over the n_w/2 detail coefficients and divides the sum of squared
    deviations by the window length n_w.
    """
    n_w = windows.shape[-1]
    a, d = haar_pairs(windows)
    m = a.sum(axis=-1) / n_w
    sigma = np.sqrt(((d - d.mean(axis=-1, keepdims=True)) ** 2).sum(axis=-1) / n_w)
    return m, sigma


def haar_decompose(window, config: DwtConfig) -> HaarDecomposition:
    """Haar transform of one window, with its length and values checked."""
    x = np.asarray(window, dtype=float)
    if x.shape != (config.n_w,):
        raise BadWindowLength(f"expected window of length {config.n_w}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("window contains NaN/Inf")
    return haar_pairs(x)


class StreamingExtractor:
    """Stateful per-fingertip extractor over the last n_w f_a values.

    Not thread-safe; use one instance per stream. The first n_w - 1 samples
    are warm-up and emit nothing. A rejected sample leaves the state as it
    was.
    """

    def __init__(self, config: DwtConfig | None = None):
        self.config = config or DwtConfig()
        self._window = np.zeros(self.config.n_w)
        self._count = 0
        self._last_t = None

    def push(self, sample: ForceSample) -> np.ndarray | None:
        """The sample's feature row in FEATURE_NAMES layout, or None in warm-up."""
        if self._last_t is not None and sample.timestamp < self._last_t:
            raise OutOfOrderTimestamp(
                f"timestamp {sample.timestamp} < previous {self._last_t}"
            )
        # Checked apart so that a non-finite amplitude never reaches the
        # window statistics, where numpy would warn about it.
        if not math.isfinite(sample.f_a):
            raise NonFiniteInput("non-finite force amplitude")
        window = np.append(self._window[1:], sample.f_a)
        m, sigma = window_stats(window)
        row = np.array([sample.f_a, *sample.f_tip, m, sigma])
        if not np.isfinite(row).all():
            raise NonFiniteInput("non-finite force or window statistics")
        self._window, self._last_t = window, sample.timestamp
        self._count += 1
        return row if self._count >= self.config.n_w else None


def extract_stream(samples, config: DwtConfig | None = None):
    """Run a StreamingExtractor over an iterable of ForceSample.

    Yields one FeatureVector per input sample once the window is full.
    """
    extractor = StreamingExtractor(config)
    for sample in samples:
        row = extractor.push(sample)
        if row is not None:
            yield FeatureVector(sample.timestamp, row[0], row[1:4], row[4], row[5])


def sliding_windows(values: np.ndarray, n_w: int) -> np.ndarray:
    """All length-n_w windows of a series, one row per end position."""
    return np.lib.stride_tricks.sliding_window_view(np.ascontiguousarray(values), n_w)


def batch_features(t, f_tip, f_a, config: DwtConfig, labels=None):
    """The feature rows of whole series, one per window end.

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
    m, sigma = window_stats(sliding_windows(f_a, n_w))
    tail = slice(n_w - 1, None)
    X = np.column_stack([f_a[tail], np.asarray(f_tip)[tail], m, sigma])
    y = None if labels is None else np.asarray(labels, dtype=int)[tail]
    return X, y, np.asarray(t)[tail]


def detail_energies(values: np.ndarray, n_w: int) -> np.ndarray:
    """Sum of squared Haar detail coefficients per sliding window."""
    d = haar_pairs(sliding_windows(np.asarray(values, dtype=float), n_w)).details
    return (d**2).sum(axis=1)
