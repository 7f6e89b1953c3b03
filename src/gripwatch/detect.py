"""Online per-fingertip instability detector.

Each fingertip owns an independent detector state: a feature extractor, a
trained model, and a contact threshold tau. Frames with force amplitude
below tau are reported as no-contact without consulting the classifier.
When tau is not given it is estimated as three times the amplitude noise
floor observed over the first frames of the stream (assumed contact-free).
A stream that ends before the calibration prefix is complete calibrates tau
from the frames it has, in ``finish``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput
from .features import DwtConfig, StreamingExtractor
from .models import LinearModel, predict_score_batch, sigmoid
from .tactile import FingertipGeometry, TaxelFrame, aggregate_tip_force

NO_CONTACT = "no_contact"
STABLE = "stable"
UNSTABLE = "unstable"

TAU_CALIBRATION_FRAMES = 50
TAU_NOISE_MULTIPLIER = 3.0
TAU_FLOOR = 1e-9


@dataclass(frozen=True)
class Detection:
    timestamp: float
    fingertip_id: str
    state: str
    p_stable: float | None  # logreg models only
    sigma: float


class FingertipDetector:
    """Sequential detector for a single fingertip stream. Not thread-safe."""

    def __init__(
        self,
        model: LinearModel,
        geometry: FingertipGeometry,
        tau: float | None = None,
        dwt_config: DwtConfig | None = None,
    ):
        self.model = model
        self.geometry = geometry
        self.dwt_config = dwt_config or DwtConfig()
        self.tau = tau
        self._extractor = StreamingExtractor(self.dwt_config)
        self._pending = []  # (timestamp, fingertip, row) held back while tau calibrates
        self._calibration = [] if tau is None else None

    def process(self, frame: TaxelFrame) -> list[Detection]:
        """Feed one frame; returns zero or more detections.

        Output lags input during warm-up and, with automatic tau, during the
        calibration prefix (those detections are emitted retroactively).
        """
        # A NaN timestamp compares false against everything, so it would
        # pass the extractor's ordering check and then disable it.
        if not math.isfinite(frame.timestamp):
            raise NonFiniteInput(f"non-finite timestamp {frame.timestamp}")
        sample = aggregate_tip_force(frame, self.geometry)
        row = self._extractor.push(sample)

        if self._calibration is not None:
            self._calibration.append(sample.f_a)
            if row is not None:
                self._pending.append((frame.timestamp, frame.fingertip_id, row))
            if len(self._calibration) < TAU_CALIBRATION_FRAMES:
                return []
            return self._calibrate()

        if row is None:
            return []
        return [self._classify(frame.timestamp, frame.fingertip_id, row)]

    def finish(self) -> list[Detection]:
        """End of stream: if tau is still calibrating, calibrate it from the
        frames seen so far and return the detections held back for it."""
        if not self._calibration:
            return []
        return self._calibrate()

    def _calibrate(self) -> list[Detection]:
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
        p = float(sigmoid(score)) if self.model.kind == "logreg" else None
        return Detection(timestamp, fingertip_id, state, p, sigma)


class MultiFingerDetector:
    """Routes interleaved frames to one independent detector per fingertip."""

    def __init__(self, model_for, geometry, tau=None, dwt_config=None):
        # model_for: either a LinearModel shared by all fingertips, or a
        # callable fingertip_id -> LinearModel for per-finger models.
        self._model_for = model_for if callable(model_for) else (lambda _: model_for)
        self._geometry = geometry
        self._tau = tau
        self._dwt_config = dwt_config
        self._detectors: dict[str, FingertipDetector] = {}

    def process(self, frame: TaxelFrame) -> list[Detection]:
        detector = self._detectors.get(frame.fingertip_id)
        if detector is None:
            detector = FingertipDetector(
                self._model_for(frame.fingertip_id),
                self._geometry,
                tau=self._tau,
                dwt_config=self._dwt_config,
            )
            self._detectors[frame.fingertip_id] = detector
        return detector.process(frame)

    def finish(self) -> list[Detection]:
        """End of stream: the detections still held back for tau calibration,
        fingertip by fingertip in order of first appearance."""
        return [d for detector in self._detectors.values() for d in detector.finish()]


def detect_stream(frames, model, geometry, tau=None, dwt_config=None):
    """Run the detector over an iterable of frames, yielding detections."""
    detector = MultiFingerDetector(model, geometry, tau=tau, dwt_config=dwt_config)
    for frame in frames:
        yield from detector.process(frame)
    yield from detector.finish()
