"""Raw tactile frames and aggregation of per-taxel forces into one fingertip force."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, LengthMismatch, NonFiniteInput
from .files import (
    is_integer, is_number, is_number_array, malformed, number_array, read_json, write_json
)

DEFAULT_N_S = 30

# How far a rotation may be from SO(3), in R^T R - I (max entry) and in its
# determinant: room for a JSON round trip.
SO3_TOL = 1e-6


@dataclass(frozen=True)
class TaxelFrame:
    """One timestamped reading of all taxels on a fingertip, and the one place
    a frame is checked: a finite timestamp, stored as a float; a string id; an
    (n_s, 3) array of numbers, stored read-only as floats, each row a force in
    its own taxel frame, in raw sensor units (sensors are uncalibrated); and a
    label that is None or the int 0 or 1. ``aggregate_taxels`` checks that
    the taxels are finite."""

    timestamp: float
    fingertip_id: str
    taxels: np.ndarray
    label: int | None = None

    def __post_init__(self):
        if not is_number(self.timestamp):
            raise InvariantViolation(f"timestamp must be a number, got {self.timestamp!r}")
        timestamp = float(self.timestamp)  # OverflowError past the float range
        if not math.isfinite(timestamp):
            raise NonFiniteInput(f"non-finite timestamp {timestamp}")
        if not isinstance(self.fingertip_id, str):
            raise InvariantViolation(f"fingertip id must be a string, got {self.fingertip_id!r}")
        taxels = np.asarray(self.taxels)
        if not is_number_array(taxels) or taxels.ndim != 2 or taxels.shape[1] != 3:
            raise InvariantViolation(
                f"taxels must be (n_s, 3) numbers, got {taxels.dtype} {taxels.shape}"
            )
        if self.label is not None and not (is_integer(self.label) and self.label in (0, 1)):
            raise InvariantViolation(f"label must be 0 or 1, got {self.label!r}")
        taxels = taxels.astype(float, copy=False)
        taxels.setflags(write=False)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "taxels", taxels)

    @property
    def n_s(self) -> int:
        return self.taxels.shape[0]


@dataclass(frozen=True)
class FingertipGeometry:
    """Fixed rotations mapping each taxel frame into the fingertip frame, and
    the one place their invariants are checked."""

    rotations: np.ndarray  # (n_s, 3, 3), each row-stacked matrix in SO(3)

    def __post_init__(self):
        rotations = np.asarray(self.rotations)
        if not is_number_array(rotations) or rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
            raise InvariantViolation(
                f"rotations must be (n_s, 3, 3) numbers, got {rotations.dtype} {rotations.shape}"
            )
        rotations = rotations.astype(float, copy=False)
        if not np.isfinite(rotations).all():
            raise InvariantViolation("rotations contain NaN/Inf")
        # Huge entries overflow to inf and nan here; the <= tests refuse both.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.abs(rotations.transpose(0, 2, 1) @ rotations - np.eye(3)).max(axis=(1, 2))
            det_error = np.abs(np.linalg.det(rotations) - 1.0)
        bad = np.flatnonzero(~((residual <= SO3_TOL) & (det_error <= SO3_TOL)))
        if len(bad):
            raise InvariantViolation(f"rotations not in SO(3) at indices {bad.tolist()}")
        rotations.setflags(write=False)
        object.__setattr__(self, "rotations", rotations)

    @property
    def n_s(self) -> int:
        return self.rotations.shape[0]

    @cached_property
    def stacked(self) -> np.ndarray:
        """The transposed rotations as one read-only (3 n_s, 3) matrix: the
        tip force of a frame is its flattened taxels times this matrix."""
        stacked = self.rotations.transpose(0, 2, 1).reshape(3 * self.n_s, 3)
        stacked.setflags(write=False)
        return stacked

    @classmethod
    def identity(cls, n_s: int = DEFAULT_N_S) -> "FingertipGeometry":
        return cls(np.broadcast_to(np.eye(3), (n_s, 3, 3)).copy())


class ForceSample(NamedTuple):
    """Aggregated fingertip force at one time step, as ``extract_stream`` reads it."""

    timestamp: float
    f_tip: np.ndarray  # [F_x, F_y, F_z] in the fingertip frame
    f_a: float  # Euclidean norm of f_tip


def aggregate_tip_force(frame: TaxelFrame, geometry: FingertipGeometry):
    """(f_tip (3,), f_a) of one frame: its per-taxel forces rotated into the
    fingertip frame and summed, and their norm."""
    f_tip, f_a = aggregate_taxels(frame.taxels[None], geometry)
    return f_tip[0], float(f_a[0])


def aggregate_taxels(taxels: np.ndarray, geometry: FingertipGeometry):
    """Vectorized aggregation of an (N, n_s, 3) taxel array.

    Returns (f_tip (N, 3), f_a (N)) arrays, one row per sample.
    """
    if taxels.shape[1] != geometry.n_s:
        raise LengthMismatch(
            f"samples have {taxels.shape[1]} taxels, geometry has {geometry.n_s}"
        )
    if not np.isfinite(taxels).all():
        raise NonFiniteInput("taxel forces contain NaN/Inf")
    # One flat (N, 3 n_s) x (3 n_s, 3) contraction, several times faster than
    # the 3-index "ijk,nik->nj"; same products, and on the identity geometry
    # the same sums. einsum, not @: BLAS would allocate its packing buffer
    # and raise the process's peak memory.
    f_tip = np.einsum("nm,mj->nj", taxels.reshape(len(taxels), -1), geometry.stacked)
    # What np.linalg.norm(f_tip, axis=1) computes for real input, bit for
    # bit, without that function's per-call checks, which on a one-frame
    # batch cost as much as the arithmetic.
    return f_tip, np.sqrt((f_tip * f_tip).sum(axis=1))


def aggregate_series(frames, geometry: FingertipGeometry):
    """Vectorized aggregation of a frame sequence.

    Returns (timestamps, f_tip (N, 3), f_a (N)) arrays in stream order.
    """
    if not frames:
        return np.empty(0), np.empty((0, 3)), np.empty(0)
    f_tip, f_a = aggregate_taxels(np.stack([f.taxels for f in frames]), geometry)
    return np.array([f.timestamp for f in frames]), f_tip, f_a


def save_geometry(geometry: FingertipGeometry, path) -> None:
    write_json(
        path,
        {"n_s": geometry.n_s, "rotations": [r.reshape(9).tolist() for r in geometry.rotations]},
    )


def load_geometry(path) -> FingertipGeometry:
    """The geometry a file holds; any malformed content is one ParseError."""
    payload = read_json(path, "geometry")
    with malformed("malformed geometry file"):
        n_s, flat = payload["n_s"], payload["rotations"]
        if not is_integer(n_s) or n_s != len(flat):
            raise ValueError(f"n_s must be {len(flat)}, the number of rotations, got {n_s!r}")
        return FingertipGeometry(number_array(flat).reshape(n_s, 3, 3))
