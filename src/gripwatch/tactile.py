"""Raw tactile frames and aggregation of per-taxel forces into one fingertip force."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, LengthMismatch, NonFiniteInput, ParseError

DEFAULT_N_S = 30

# SO(3) membership tolerances: exact for in-memory matrices, looser for
# matrices that went through a JSON round trip.
SO3_TOL_EXACT = 1e-9
SO3_TOL_FILE = 1e-6


@dataclass(frozen=True)
class TaxelFrame:
    """One timestamped reading of all taxels on a fingertip.

    ``taxels`` is an (n_s, 3) array of force components, each row expressed in
    its own taxel frame. Units are raw sensor units (sensors are uncalibrated).
    """

    timestamp: float
    fingertip_id: str
    taxels: np.ndarray
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "taxels", np.asarray(self.taxels, dtype=float))
        if self.taxels.ndim != 2 or self.taxels.shape[1] != 3:
            raise InvariantViolation(
                f"taxels must be (n_s, 3), got {self.taxels.shape}"
            )
        self.taxels.setflags(write=False)

    @property
    def n_s(self) -> int:
        return self.taxels.shape[0]


@dataclass(frozen=True)
class FingertipGeometry:
    """Fixed rotations mapping each taxel frame into the fingertip frame."""

    rotations: np.ndarray  # (n_s, 3, 3), each row-stacked matrix in SO(3)

    def __post_init__(self):
        object.__setattr__(self, "rotations", np.asarray(self.rotations, dtype=float))
        if self.rotations.ndim != 3 or self.rotations.shape[1:] != (3, 3):
            raise InvariantViolation(
                f"rotations must be (n_s, 3, 3), got {self.rotations.shape}"
            )
        self.rotations.setflags(write=False)

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


@dataclass(frozen=True)
class ForceSample:
    """Aggregated fingertip force at one time step."""

    timestamp: float
    f_tip: np.ndarray  # [F_x, F_y, F_z] in the fingertip frame
    f_a: float  # Euclidean norm of f_tip

    def __post_init__(self):
        object.__setattr__(self, "f_tip", np.asarray(self.f_tip, dtype=float))
        self.f_tip.setflags(write=False)


@dataclass(frozen=True)
class GeometryViolation:
    index: int
    orthogonality_residual: float  # max-entry norm of R^T R - I
    determinant: float


def validate_geometry(
    geometry: FingertipGeometry, tol: float = SO3_TOL_EXACT
) -> list[GeometryViolation]:
    """Return one violation per rotation matrix that is not in SO(3).

    An empty list means every matrix is orthogonal with determinant +1
    within ``tol``.
    """
    violations = []
    for i, r in enumerate(geometry.rotations):
        residual = np.max(np.abs(r.T @ r - np.eye(3)))
        det = float(np.linalg.det(r))
        if residual > tol or abs(det - 1.0) > tol:
            violations.append(GeometryViolation(i, float(residual), det))
    return violations


def aggregate_tip_force(frame: TaxelFrame, geometry: FingertipGeometry) -> ForceSample:
    """Sum one frame's per-taxel forces rotated into the fingertip frame."""
    f_tip, f_a = aggregate_taxels(frame.taxels[None], geometry)
    return ForceSample(frame.timestamp, f_tip[0], float(f_a[0]))


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
    payload = {
        "n_s": geometry.n_s,
        "rotations": [r.reshape(9).tolist() for r in geometry.rotations],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_geometry(path, tol: float = SO3_TOL_FILE) -> FingertipGeometry:
    """Load a geometry file and validate SO(3) membership at file tolerance."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        raise ParseError(f"cannot read geometry file: {exc}") from exc
    try:
        n_s = int(payload["n_s"])
        flat = payload["rotations"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"geometry file missing field: {exc}") from exc
    if len(flat) != n_s:
        raise ParseError(f"expected {n_s} rotations, found {len(flat)}")
    try:
        rotations = np.array(flat, dtype=float).reshape(n_s, 3, 3)
    except ValueError as exc:
        raise ParseError(f"malformed rotation entries: {exc}") from exc
    geometry = FingertipGeometry(rotations)
    violations = validate_geometry(geometry, tol=tol)
    if violations:
        idx = [v.index for v in violations]
        raise InvariantViolation(f"rotations not in SO(3) at indices {idx}")
    return geometry
