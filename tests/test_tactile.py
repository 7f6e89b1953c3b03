import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gripwatch.errors import InvariantViolation, LengthMismatch, NonFiniteInput, ParseError
from gripwatch.tactile import (
    FingertipGeometry,
    TaxelFrame,
    aggregate_series,
    aggregate_tip_force,
    load_geometry,
    save_geometry,
    validate_geometry,
)

finite_forces = arrays(
    np.float64,
    (2, 3),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def test_zero_forces_identity_rotations():
    frame = TaxelFrame(0.0, "ft0", np.zeros((30, 3)))
    out = aggregate_tip_force(frame, FingertipGeometry.identity(30))
    assert np.allclose(out.f_tip, 0.0)
    assert out.f_a == 0.0


def test_two_taxels_identity_sums():
    frame = TaxelFrame(1.0, "ft0", [[1, 0, 0], [1, 0, 0]])
    out = aggregate_tip_force(frame, FingertipGeometry.identity(2))
    assert np.allclose(out.f_tip, [2, 0, 0])
    assert out.f_a == pytest.approx(2.0)
    assert out.timestamp == 1.0


def test_single_taxel_rotated_90_about_z():
    frame = TaxelFrame(0.0, "ft0", [[1, 0, 0]])
    geometry = FingertipGeometry(rot_z(np.pi / 2)[None])
    out = aggregate_tip_force(frame, geometry)
    assert np.allclose(out.f_tip, [0, 1, 0], atol=1e-12)
    assert out.f_a == pytest.approx(1.0)


def test_length_mismatch():
    frame = TaxelFrame(0.0, "ft0", np.zeros((3, 3)))
    with pytest.raises(LengthMismatch):
        aggregate_tip_force(frame, FingertipGeometry.identity(2))


def test_non_finite_input():
    frame = TaxelFrame(0.0, "ft0", [[np.nan, 0, 0]])
    with pytest.raises(NonFiniteInput):
        aggregate_tip_force(frame, FingertipGeometry.identity(1))


@settings(max_examples=50)
@given(a=finite_forces, b=finite_forces, alpha=st.floats(-5, 5), beta=st.floats(-5, 5))
def test_aggregation_is_linear(a, b, alpha, beta):
    geometry = FingertipGeometry(np.stack([rot_z(0.3), rot_z(-1.1)]))
    combined = aggregate_tip_force(TaxelFrame(0, "f", alpha * a + beta * b), geometry)
    fa = aggregate_tip_force(TaxelFrame(0, "f", a), geometry)
    fb = aggregate_tip_force(TaxelFrame(0, "f", b), geometry)
    assert np.allclose(combined.f_tip, alpha * fa.f_tip + beta * fb.f_tip, atol=1e-9)


@settings(max_examples=50)
@given(
    f=arrays(np.float64, (3,), elements=st.floats(-50, 50, allow_nan=False)),
    angle=st.floats(-np.pi, np.pi),
)
def test_rotation_preserves_amplitude(f, angle):
    out = aggregate_tip_force(TaxelFrame(0, "f", f[None]), FingertipGeometry(rot_z(angle)[None]))
    assert out.f_a == pytest.approx(np.linalg.norm(f), abs=1e-9)


@settings(max_examples=30)
@given(
    forces=arrays(np.float64, (4, 3), elements=st.floats(-10, 10, allow_nan=False)),
    perm=st.permutations(range(4)),
)
def test_permutation_equivariance(forces, perm):
    rots = np.stack([rot_z(0.1 * i) for i in range(4)])
    perm = list(perm)
    out = aggregate_tip_force(TaxelFrame(0, "f", forces), FingertipGeometry(rots))
    out_p = aggregate_tip_force(
        TaxelFrame(0, "f", forces[perm]), FingertipGeometry(rots[perm])
    )
    assert np.allclose(out.f_tip, out_p.f_tip, atol=1e-9)


def test_aggregate_series_matches_per_frame():
    rng = np.random.default_rng(3)
    frames = [TaxelFrame(i * 0.1, "f", rng.normal(size=(5, 3))) for i in range(20)]
    geometry = FingertipGeometry(np.stack([rot_z(0.2 * i) for i in range(5)]))
    t, f_tip, f_a = aggregate_series(frames, geometry)
    for i, frame in enumerate(frames):
        single = aggregate_tip_force(frame, geometry)
        assert np.allclose(f_tip[i], single.f_tip)
        assert f_a[i] == pytest.approx(single.f_a)
    assert np.allclose(f_tip, [sum(r @ x for r, x in zip(geometry.rotations, f.taxels)) for f in frames])

    # The identity geometry (the study's) gives exactly the 3-index contraction,
    # and f_a is exactly np.linalg.norm's.
    taxels = rng.normal(scale=5.0, size=(50, 30, 3))
    frames = [TaxelFrame(i * 0.1, "f", taxels[i]) for i in range(50)]
    identity = FingertipGeometry.identity(30)
    _, f_tip, f_a = aggregate_series(frames, identity)
    assert np.array_equal(f_tip, np.einsum("ijk,nik->nj", identity.rotations, taxels))
    assert np.array_equal(f_a, np.linalg.norm(f_tip, axis=1))

    # Random rotations agree with it up to summation order.
    q, r = np.linalg.qr(rng.normal(size=(30, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0] *= -1.0
    rotated = FingertipGeometry(q)
    assert validate_geometry(rotated) == []
    _, f_tip, _ = aggregate_series(frames, rotated)
    expected = np.einsum("ijk,nik->nj", rotated.rotations, taxels)
    assert np.max(np.abs(f_tip - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_validate_geometry_identity_is_clean():
    assert validate_geometry(FingertipGeometry.identity(5)) == []


def test_validate_geometry_flags_reflection():
    rots = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
    rots[1] = np.diag([1.0, 1.0, -1.0])
    violations = validate_geometry(FingertipGeometry(rots))
    assert [v.index for v in violations] == [1]
    assert violations[0].determinant == pytest.approx(-1.0)


def test_validate_geometry_scaled_identity_residual():
    # R = 1.1 I gives R^T R - I = 0.21 I, so the max-entry residual is 0.21
    violations = validate_geometry(FingertipGeometry((1.1 * np.eye(3))[None]))
    assert len(violations) == 1
    assert violations[0].orthogonality_residual == pytest.approx(0.21, abs=1e-12)


def test_geometry_file_round_trip(tmp_path):
    rots = np.stack([rot_z(0.4 * i) for i in range(4)])
    path = tmp_path / "geom.json"
    save_geometry(FingertipGeometry(rots), path)
    loaded = load_geometry(path)
    assert np.allclose(loaded.rotations, rots, atol=1e-15)


def test_geometry_file_rejects_non_rotation(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text('{"n_s": 1, "rotations": [[2,0,0, 0,1,0, 0,0,1]]}\n')
    with pytest.raises(InvariantViolation):
        load_geometry(path)


def test_geometry_file_rejects_garbage(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_geometry(path)
