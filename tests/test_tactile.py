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
    f_tip, f_a = aggregate_tip_force(frame, FingertipGeometry.identity(30))
    assert np.allclose(f_tip, 0.0)
    assert f_a == 0.0


def test_two_taxels_identity_sums():
    frame = TaxelFrame(1.0, "ft0", [[1, 0, 0], [1, 0, 0]])
    f_tip, f_a = aggregate_tip_force(frame, FingertipGeometry.identity(2))
    assert np.allclose(f_tip, [2, 0, 0])
    assert f_a == pytest.approx(2.0)


def test_single_taxel_rotated_90_about_z():
    frame = TaxelFrame(0.0, "ft0", [[1, 0, 0]])
    geometry = FingertipGeometry(rot_z(np.pi / 2)[None])
    f_tip, f_a = aggregate_tip_force(frame, geometry)
    assert np.allclose(f_tip, [0, 1, 0], atol=1e-12)
    assert f_a == pytest.approx(1.0)


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
    combined, _ = aggregate_tip_force(TaxelFrame(0, "f", alpha * a + beta * b), geometry)
    tip_a, _ = aggregate_tip_force(TaxelFrame(0, "f", a), geometry)
    tip_b, _ = aggregate_tip_force(TaxelFrame(0, "f", b), geometry)
    assert np.allclose(combined, alpha * tip_a + beta * tip_b, atol=1e-9)


@settings(max_examples=50)
@given(
    f=arrays(np.float64, (3,), elements=st.floats(-50, 50, allow_nan=False)),
    angle=st.floats(-np.pi, np.pi),
)
def test_rotation_preserves_amplitude(f, angle):
    geometry = FingertipGeometry(rot_z(angle)[None])
    _, f_a = aggregate_tip_force(TaxelFrame(0, "f", f[None]), geometry)
    assert f_a == pytest.approx(np.linalg.norm(f), abs=1e-9)


@settings(max_examples=30)
@given(
    forces=arrays(np.float64, (4, 3), elements=st.floats(-10, 10, allow_nan=False)),
    perm=st.permutations(range(4)),
)
def test_permutation_equivariance(forces, perm):
    rots = np.stack([rot_z(0.1 * i) for i in range(4)])
    perm = list(perm)
    f_tip, _ = aggregate_tip_force(TaxelFrame(0, "f", forces), FingertipGeometry(rots))
    f_tip_p, _ = aggregate_tip_force(
        TaxelFrame(0, "f", forces[perm]), FingertipGeometry(rots[perm])
    )
    assert np.allclose(f_tip, f_tip_p, atol=1e-9)


def test_aggregate_series_matches_per_frame():
    rng = np.random.default_rng(3)
    frames = [TaxelFrame(i * 0.1, "f", rng.normal(size=(5, 3))) for i in range(20)]
    geometry = FingertipGeometry(np.stack([rot_z(0.2 * i) for i in range(5)]))
    t, f_tip, f_a = aggregate_series(frames, geometry)
    for i, frame in enumerate(frames):
        single_tip, single_a = aggregate_tip_force(frame, geometry)
        assert np.allclose(f_tip[i], single_tip)
        assert f_a[i] == pytest.approx(single_a)
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
    _, f_tip, _ = aggregate_series(frames, rotated)
    expected = np.einsum("ijk,nik->nj", rotated.rotations, taxels)
    assert np.max(np.abs(f_tip - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_geometry_refuses_a_reflection():
    rots = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
    rots[1] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvariantViolation, match=r"not in SO\(3\) at indices \[1\]$"):
        FingertipGeometry(rots)


def test_geometry_refuses_a_scaled_identity():
    # R = 1.1 I: R^T R - I = 0.21 I and det R = 1.331
    with pytest.raises(InvariantViolation, match=r"at indices \[0\]$"):
        FingertipGeometry((1.1 * np.eye(3))[None])


def test_geometry_accepts_identity_and_qr_rotations():
    q, r = np.linalg.qr(np.random.default_rng(5).normal(size=(30, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0] *= -1.0
    for rotations in (FingertipGeometry.identity(5).rotations, q):
        geometry = FingertipGeometry(rotations)
        assert not geometry.rotations.flags.writeable
        # far inside the tolerance, so that a JSON round trip cannot leave it
        residual = np.abs(geometry.rotations.transpose(0, 2, 1) @ geometry.rotations - np.eye(3))
        assert residual.max() < 1e-14 and np.abs(np.linalg.det(rotations) - 1.0).max() < 1e-14


def test_geometry_file_round_trip(tmp_path):
    rots = np.stack([rot_z(0.4 * i) for i in range(4)])
    path = tmp_path / "geom.json"
    save_geometry(FingertipGeometry(rots), path)
    loaded = load_geometry(path)
    assert np.allclose(loaded.rotations, rots, atol=1e-15)


def test_geometry_file_rejects_non_rotation(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text('{"n_s": 1, "rotations": [[2,0,0, 0,1,0, 0,0,1]]}\n')
    with pytest.raises(ParseError, match=r"^malformed geometry file: .* at indices \[0\]$"):
        load_geometry(path)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_geometry_file_rejects_a_non_finite_rotation_entry(tmp_path, entry):
    # numpy would warn on the way through the SO(3) check; the suite makes
    # that warning an error
    path = tmp_path / "geom.json"
    rotations = f"[[1,0,0, 0,1,0, 0,0,1], [{entry},0,0, 0,1,0, 0,0,1]]"
    path.write_text(f'{{"n_s": 2, "rotations": {rotations}}}\n')
    with pytest.raises(ParseError, match="^malformed geometry file: rotations contain NaN/Inf$"):
        load_geometry(path)


def test_geometry_file_rejects_garbage(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_geometry(path)
