"""Online per-fingertip instability detector.

Each fingertip owns an independent detector state: the last n_w force
amplitudes of its stream (the window the model was trained with), the model
and a contact threshold tau. A frame is scored through the batch path's
kernels: ``aggregate_tip_force``, ``window_stats``, ``predict_score_batch``.
Frames with force amplitude below tau are reported as no-contact without
consulting the classifier.
When tau is not given it is estimated as three times the amplitude noise
floor observed over the first frames of the stream (assumed contact-free).
A stream that ends before the calibration prefix is complete calibrates tau
from the frames it has, in ``finish``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfig, NonFiniteInput, OutOfOrderTimestamp
from .features import window_stats
from .models import LinearModel, predict_score_batch, sigmoid
from .tactile import FingertipGeometry, TaxelFrame, aggregate_tip_force

NO_CONTACT = "no_contact"
STABLE = "stable"
UNSTABLE = "unstable"

TAU_CALIBRATION_FRAMES = 50
TAU_NOISE_MULTIPLIER = 3.0
TAU_FLOOR = 1e-9


def _check_tau(tau: float | None) -> None:
    if tau is not None and not 0 <= tau < np.inf:  # None: calibrate tau
        raise InvalidConfig(f"tau must be finite and >= 0, got {tau}")


class Detection(NamedTuple):
    timestamp: float
    fingertip_id: str
    state: str
    p_stable: float | None  # logreg models only
    sigma: float


class FingertipDetector:
    """Sequential detector for a single fingertip stream. Not thread-safe. A
    rejected frame leaves the state as it was."""

    def __init__(self, model: LinearModel, geometry: FingertipGeometry, tau: float | None = None):
        _check_tau(tau)
        self.model = model
        self.geometry = geometry
        self.tau = tau
        self._window = np.zeros(model.dwt_config.n_w)  # the last n_w f_a, oldest first
        self._count = 0  # frames accepted; the first n_w - 1 are warm-up
        self._last_t = -math.inf
        self._pending = []  # (timestamp, fingertip, row) held back while tau calibrates
        self._calibration = [] if tau is None else None

    def process(self, frame: TaxelFrame) -> list[Detection]:
        """Feed one frame; returns zero or more detections.

        Output lags input during warm-up and, with automatic tau, during the
        calibration prefix (those detections are emitted retroactively).
        """
        f_tip, f_a = aggregate_tip_force(frame, self.geometry)
        if frame.timestamp < self._last_t:
            raise OutOfOrderTimestamp(f"timestamp {frame.timestamp} < previous {self._last_t}")
        if not math.isfinite(f_a):  # before window_stats, where numpy would warn about it
            raise NonFiniteInput("non-finite force amplitude")
        window = np.append(self._window[1:], f_a)
        m, sigma = window_stats(window)
        if not math.isfinite(sigma):  # a finite f_a bounds f_tip and m; sigma can still overflow
            raise NonFiniteInput("non-finite window statistics")
        self._window, self._last_t, self._count = window, frame.timestamp, self._count + 1
        row = np.array([f_a, *f_tip, m, sigma]) if self._count >= len(window) else None
        if self._calibration is None:
            return [] if row is None else [self._classify(frame.timestamp, frame.fingertip_id, row)]
        self._calibration.append(f_a)
        if row is not None:
            self._pending.append((frame.timestamp, frame.fingertip_id, row))
        return [] if len(self._calibration) < TAU_CALIBRATION_FRAMES else self.finish()

    def finish(self) -> list[Detection]:
        """End of stream: the detections held back, after tau is calibrated
        from the frames seen if it is still calibrating. ``process`` ends here
        too once the calibration prefix is complete."""
        if self._calibration:
            noise_std = float(np.std(self._calibration))
            self.tau = max(TAU_NOISE_MULTIPLIER * noise_std, TAU_FLOOR)
            self._calibration = None
        out = [self._classify(*pending) for pending in self._pending]
        self._pending = []
        return out

    def _classify(self, timestamp: float, fingertip_id: str, row: np.ndarray) -> Detection:
        """One detection from a feature row in FEATURE_NAMES layout."""
        sigma = float(row[5])
        if row[0] < self.tau:
            return Detection(timestamp, fingertip_id, NO_CONTACT, None, sigma)
        score = float(predict_score_batch(self.model, row[None])[0])
        state = STABLE if score > 0.0 else UNSTABLE
        p = float(sigmoid(score)) if self.model.train_config.kind == "logreg" else None
        return Detection(timestamp, fingertip_id, state, p, sigma)


class MultiFingerDetector:
    """Routes interleaved frames to one independent detector per fingertip."""

    def __init__(self, model: LinearModel, geometry: FingertipGeometry, tau: float | None = None):
        _check_tau(tau)  # here too: the fingertip detectors are built at their first frame
        self._model = model
        self._geometry = geometry
        self._tau = tau
        self._detectors: dict[str, FingertipDetector] = {}

    def process(self, frame: TaxelFrame) -> list[Detection]:
        detector = self._detectors.get(frame.fingertip_id)
        if detector is None:
            detector = FingertipDetector(self._model, self._geometry, tau=self._tau)
            self._detectors[frame.fingertip_id] = detector
        return detector.process(frame)

    def finish(self) -> list[Detection]:
        """End of stream: the detections still held back for tau calibration,
        fingertip by fingertip in order of first appearance."""
        return [d for detector in self._detectors.values() for d in detector.finish()]


def detect_stream(frames, model, geometry, tau=None):
    """Run the detector over an iterable of frames, yielding detections."""
    detector = MultiFingerDetector(model, geometry, tau=tau)
    for frame in frames:
        yield from detector.process(frame)
    yield from detector.finish()
