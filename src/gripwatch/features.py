"""Causal sliding-window Haar decomposition and window features.

At every time step k (after warm-up) the window is the most recent ``n_w``
force-amplitude samples. A single-level orthonormal Haar transform splits it
into approximation and detail coefficients; the feature row is
[F_a, F_x, F_y, F_z, m, sigma] where m is a moving average of the
approximations and sigma the standard deviation of the details.

``window_stats`` is the one implementation of m and sigma: the batch path
applies it to every window of a series at once, and each fingertip's online
detector to its latest window, frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadWindowLength, InvalidConfig, NonFiniteInput
from .files import is_integer

SQRT2 = float(np.sqrt(2.0))

FEATURE_NAMES = ("fa", "fx", "fy", "fz", "m", "sigma")


@dataclass(frozen=True)
class DwtConfig:
    n_w: int = 14

    def __post_init__(self):
        if not (is_integer(self.n_w) and self.n_w >= 2 and self.n_w % 2 == 0):
            raise InvalidConfig(f"n_w must be a positive even integer, got {self.n_w!r}")


class HaarDecomposition(NamedTuple):
    approximations: np.ndarray  # a_phi, n_w/2 per window
    details: np.ndarray  # d_psi, n_w/2 per window


class FeatureVector(NamedTuple):
    """One window of a series, as ``extract_stream`` returns it."""

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
    d_mean = d.sum(axis=-1, keepdims=True) / d.shape[-1]  # d.mean's bits, less overhead
    sigma = np.sqrt(((d - d_mean) ** 2).sum(axis=-1) / n_w)
    return m, sigma


def haar_decompose(window, config: DwtConfig) -> HaarDecomposition:
    """Haar transform of one window, with its length and values checked."""
    x = np.asarray(window, dtype=float)
    if x.shape != (config.n_w,):
        raise BadWindowLength(f"expected window of length {config.n_w}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("window contains NaN/Inf")
    return haar_pairs(x)


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


def extract_stream(samples, config: DwtConfig | None = None) -> list[FeatureVector]:
    """One FeatureVector per window end of a ForceSample series: the rows
    ``batch_features`` computes from the samples' arrays."""
    samples = list(samples)
    t = [s.timestamp for s in samples]
    f_tip = np.array([s.f_tip for s in samples], dtype=float).reshape(-1, 3)
    X, _, t_out = batch_features(t, f_tip, [s.f_a for s in samples], config or DwtConfig())
    return [FeatureVector(t_k, x[0], x[1:4], x[4], x[5]) for t_k, x in zip(t_out.tolist(), X)]


def detail_energies(values: np.ndarray, n_w: int) -> np.ndarray:
    """Sum of squared Haar detail coefficients per sliding window."""
    d = haar_pairs(sliding_windows(np.asarray(values, dtype=float), n_w)).details
    return (d**2).sum(axis=1)
