import math

import numpy as np
import pytest

import oracles
from spinorspace import (
    IDENTITY_ROTATION,
    KSQuadruple,
    SingularGaugeError,
    SpinorRotation,
    axis_phase,
    build_frame,
    canonical_phase_plus,
    compose,
    conjugate,
    direction_from_ks,
    frame_symmetry,
    hat,
    ks_from_rotation,
    left_transport,
    normalize_ks,
    psi_from_direction,
    quadruple_from_spinor,
    rotated_direction,
    rotation_from_unit_ks,
    scaled_residual,
    so3_from_rotation,
    spinor_from_quadruple,
    su2_matrix,
)
from spinorspace.core import COLUMNS, FLOATS
from spinorspace.ks_covariance import DIRECTION_MATCH_TOLERANCE, symmetry4

INV_SQRT2 = math.sqrt(0.5)


def random_unit_quadruple(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return KSQuadruple(v[0], v[1], v[2], v[3])


def random_rotation(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return SpinorRotation(v[3], v[0], v[1], v[2])


def sigma_dot(v):
    return v[0] * oracles.SIGMA1 + v[1] * oracles.SIGMA2 + v[2] * oracles.SIGMA3


# ------------------------------------------------------------- normalization

def test_normalize_ks_frozen():
    assert normalize_ks(KSQuadruple(0.0, 2.0, 0.0, 0.0)).as_tuple() == (0.0, 1.0, 0.0, 0.0)
    assert normalize_ks(KSQuadruple(0.0, 1.0, 0.0, 0.0)).as_tuple() == (0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        normalize_ks(KSQuadruple(0.0, 0.0, 0.0, 0.0))
    rng = np.random.default_rng(50)
    for _ in range(200):
        q = KSQuadruple(*rng.uniform(-3.0, 3.0, size=4))
        n = normalize_ks(q)
        assert abs(n.norm_sq - 1.0) <= 1e-15
        back = math.sqrt(q.norm_sq) * n.as_array()
        assert scaled_residual(back, q.as_array()) <= 1e-15


def test_normalize_ks_extreme_magnitudes():
    # The squares of these entries overflow, underflow or go subnormal.
    assert direction_from_ks(KSQuadruple(1e200, 0.0, 0.0, 0.0)).tolist() == [0.0, 0.0, -1.0]
    assert normalize_ks(KSQuadruple(1e-170, 0.0, 0.0, 0.0)).as_tuple() == (1.0, 0.0, 0.0, 0.0)
    tiny = normalize_ks(KSQuadruple(1e-160, 1e-160, 0.0, 0.0)).as_tuple()
    assert scaled_residual(tiny, (INV_SQRT2, INV_SQRT2, 0.0, 0.0)) <= 1e-15
    rng = np.random.default_rng(52)
    for _ in range(50):
        v = rng.normal(size=4)
        unit = normalize_ks(KSQuadruple(*v)).as_tuple()
        for k in (1000, -1000):
            scaled = normalize_ks(KSQuadruple(*(math.ldexp(x, k) for x in v))).as_tuple()
            assert scaled_residual(scaled, unit) <= 1e-15
    with pytest.raises(ValueError, match="zero quadruple"):
        normalize_ks(KSQuadruple(0.0, 0.0, 0.0, 0.0))


def test_hat_involution_exact():
    q = KSQuadruple(0.3, -0.7, 1.1, -2.5)
    assert hat(q).as_tuple() == (0.3, -0.7, -1.1, 2.5)
    rng = np.random.default_rng(51)
    for _ in range(200):
        q = KSQuadruple(*rng.uniform(-3.0, 3.0, size=4))
        assert hat(hat(q)).as_tuple() == q.as_tuple()


def test_rotation_round_trip():
    q = KSQuadruple(0.5, -0.5, 0.5, -0.5)
    assert ks_from_rotation(rotation_from_unit_ks(q)).as_tuple() == q.as_tuple()
    rng = np.random.default_rng(52)
    for _ in range(200):
        u = random_unit_quadruple(rng)
        back = ks_from_rotation(rotation_from_unit_ks(u))
        assert scaled_residual(back.as_array(), u.as_array()) <= 1e-15


# ---------------------------------------------------------------- directions

def test_direction_frozen():
    assert direction_from_ks(KSQuadruple(0.0, 1.0, 0.0, 0.0)).tolist() == [0.0, 0.0, 1.0]
    n = direction_from_ks(KSQuadruple(0.0, INV_SQRT2, 0.0, INV_SQRT2))
    assert scaled_residual(n, np.array([1.0, 0.0, 0.0])) <= 1e-15
    # scale invariance: the direction sees only the ray
    a = direction_from_ks(KSQuadruple(0.9, -1.2, 0.3, 2.0))
    b = direction_from_ks(KSQuadruple(2.7, -3.6, 0.9, 6.0))
    assert scaled_residual(a, b) <= 1e-15


def test_direction_is_minus_third_column_of_hat():
    rng = np.random.default_rng(53)
    for _ in range(300):
        u = random_unit_quadruple(rng)
        n = direction_from_ks(u)
        assert abs(float(n @ n) - 1.0) <= 1e-14
        # independent route through the trace-form orthogonal matrix
        h = hat(u)
        o = oracles.so3_of_unitaries(oracles.b_matrix(h.q4, h.q1, h.q2, h.q3))
        assert scaled_residual(n, -o[:, 2]) <= 1e-13
        # and through the pseudovector projection of the quadruple's spinor
        from spinorspace import project_xi
        r, x = project_xi(spinor_from_quadruple(u))
        assert scaled_residual(n, x / r) <= 1e-13


# ----------------------------------------------------------------- transport

def test_left_transport_identity_exact():
    q = KSQuadruple(0.3, -0.4, 0.5, 0.6)
    assert left_transport(IDENTITY_ROTATION, q).as_tuple() == q.as_tuple()


def test_left_transport_routes():
    rng = np.random.default_rng(54)
    for _ in range(300):
        c = random_rotation(rng)
        u = random_unit_quadruple(rng)
        moved = left_transport(c, u)
        # quaternion-side route: conjugate by hat, compose, hat back
        via_quat = hat(ks_from_rotation(compose(c, rotation_from_unit_ks(hat(u)))))
        assert scaled_residual(moved.as_array(), via_quat.as_array()) <= 1e-13
        # complex-matrix route through the spinor the quadruple encodes
        col = oracles.b_matrix(c.c4, c.c1, c.c2, c.c3) @ oracles.column(spinor_from_quadruple(u))
        assert scaled_residual(moved.as_array(), oracles.storage_of_column(col)) <= 1e-13
        assert abs(moved.norm_sq - u.norm_sq) <= 1e-13
        assert scaled_residual(direction_from_ks(moved),
                               so3_from_rotation(c) @ direction_from_ks(u)) <= 1e-12


# -------------------------------------------------------------------- frames

def test_build_frame_default_axis_is_trivial():
    u = KSQuadruple(0.5, 0.5, 0.5, 0.5)
    f = build_frame(u)
    assert f.w.as_tuple() == u.as_tuple()
    assert f.align.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert f.direction.tolist() == [1.0, 0.0, 0.0]
    assert f.delta == 0.0


def test_build_frame_singular_axis():
    with pytest.raises(SingularGaugeError):
        build_frame(KSQuadruple(0.3, 0.5, -0.4, 0.2), axis=(0.0, 0.0, -1.0))


def test_frame_defining_identities():
    rng = np.random.default_rng(55)
    for _ in range(150):
        u = random_unit_quadruple(rng)
        while True:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            if axis[2] >= -0.99:
                break
        delta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        f = build_frame(u, axis, delta)
        n = f.direction
        assert scaled_residual(n, direction_from_ks(u)) <= 1e-13
        b_w = su2_matrix(rotation_from_unit_ks(hat(f.w)))
        # the frame conjugates the axis operator onto minus the direction operator
        got = b_w @ sigma_dot(axis) @ b_w.conj().T
        want = -sigma_dot(n)
        assert float(np.max(np.abs(got - want))) <= 1e-12
        # equivalently the axis is -O(hat w)^T n
        o_w = so3_from_rotation(rotation_from_unit_ks(hat(f.w)))
        assert scaled_residual(axis, -(o_w.T @ n)) <= 1e-12


def test_rotated_direction_lands_on_frame_quadruple():
    rng = np.random.default_rng(56)
    for _ in range(150):
        u = random_unit_quadruple(rng)
        while True:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            if axis[2] >= -0.99:
                break
        f = build_frame(u, axis)
        n_prime = rotated_direction(f.w, f.align, f.direction)
        assert scaled_residual(n_prime, direction_from_ks(f.w)) <= 1e-12


def _so3_exact(mp, c):
    """so3_entries of the quadruple c normalized exactly, in mpmath at its precision."""
    norm = mp.sqrt(sum(mp.mpf(x) ** 2 for x in c))
    c4, c1, c2, c3 = (mp.mpf(x) / norm for x in c)
    return [[1 - 2 * (c2 * c2 + c3 * c3), 2 * (c1 * c2 - c4 * c3), 2 * (c1 * c3 + c4 * c2)],
            [2 * (c1 * c2 + c4 * c3), 1 - 2 * (c1 * c1 + c3 * c3), 2 * (c2 * c3 - c4 * c1)],
            [2 * (c1 * c3 - c4 * c2), 2 * (c2 * c3 + c4 * c1), 1 - 2 * (c1 * c1 + c2 * c2)]]


def _rotated_exact(mp, w, rot, n):
    """rotated_direction's O(hat w) O(rot) O(hat w)^T n, in mpmath at its precision."""
    w4, w1, w2, w3 = w.as_tuple()
    o, r = _so3_exact(mp, (w4, w1, -w2, -w3)), _so3_exact(mp, rot.as_tuple())
    m = [sum(o[k][i] * n[k] for k in range(3)) for i in range(3)]
    t = [sum(r[i][k] * m[k] for k in range(3)) for i in range(3)]
    return [sum(o[i][k] * t[k] for k in range(3)) for i in range(3)]


def _error(mp, got, want) -> float:
    """The largest gap between the floats got and the mpmath values want."""
    return max(float(abs(mp.mpf(g) - x)) for g, x in zip(got.tolist(), want))


def test_rotated_direction_against_a_50_digit_reference():
    # rotated_direction normalizes hat(w) rot hat(w)^-1 before so3_entries, whose
    # output's norm error is about twice its input's. Without that normalization the
    # worst below reads 2.27e-15 on this draw.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in oracles.hard_directions(rng, 2000):
        w = KSQuadruple(*(10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=4)))
        rot = SpinorRotation(*oracles.haar_quadruple(rng))
        worst = max(worst, _error(mp, rotated_direction(w, rot, n), _rotated_exact(mp, w, rot, n)))
        # with the identity, hat(w) hat(w)^-1 has no vector part, and n comes back as it is
        assert rotated_direction(w, IDENTITY_ROTATION, n).tolist() == list(n)
    assert worst <= 2.0 ** -49


def test_frame_delta_dresses_but_direction_fixed():
    u = KSQuadruple(0.5, 0.5, 0.5, 0.5)
    axis = (0.0, 0.6, 0.8)
    f0 = build_frame(u, axis, 0.0)
    f1 = build_frame(u, axis, 1.3)
    assert scaled_residual(f0.direction, f1.direction) <= 1e-15
    assert np.array_equal(f0.axis, f1.axis)
    assert scaled_residual(f0.w.as_array(), f1.w.as_array()) > 0.1
    # stripping the align factor exposes the pure internal phase
    from spinorspace import conjugate
    bare0 = compose(rotation_from_unit_ks(hat(f0.w)), conjugate(f0.align))
    bare1 = compose(rotation_from_unit_ks(hat(f1.w)), conjugate(f1.align))
    lhs = compose(bare0, axis_phase(1.3))
    assert scaled_residual(np.array(lhs.as_tuple()), np.array(bare1.as_tuple())) <= 1e-13


def test_frame_symmetry_transport():
    rng = np.random.default_rng(57)
    for _ in range(150):
        u = random_unit_quadruple(rng)
        beta = float(rng.uniform(-math.pi, math.pi))
        delta = float(rng.uniform(-math.pi, math.pi))
        partner = hat(ks_from_rotation(
            compose(rotation_from_unit_ks(hat(u)), axis_phase(beta))))
        c = frame_symmetry(u, partner, delta)
        n = direction_from_ks(u)
        assert scaled_residual(so3_from_rotation(c) @ n, n) <= 1e-12
        lhs = (oracles.b_matrix(c.c4, c.c1, c.c2, c.c3)
               @ su2_matrix(rotation_from_unit_ks(hat(u)))
               @ su2_matrix(axis_phase(delta)))
        rhs = su2_matrix(rotation_from_unit_ks(hat(partner)))
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


def test_frame_symmetry_same_quadruple_is_identity():
    rng = np.random.default_rng(58)
    for _ in range(100):
        u = random_unit_quadruple(rng)
        c = frame_symmetry(u, u)
        assert scaled_residual(np.array(c.as_tuple()),
                               np.array([1.0, 0.0, 0.0, 0.0])) <= 1e-13


def test_frame_symmetry_direction_mismatch():
    with pytest.raises(ValueError):
        frame_symmetry(KSQuadruple(1.0, 0.0, 0.0, 0.0), KSQuadruple(0.0, 1.0, 0.0, 0.0))


def test_frame_symmetry_takes_the_tolerance_itself():
    # Over (0, 0, 1) and (1e-9, 0, 1), a mismatch of exactly DIRECTION_MATCH_TOLERANCE,
    # which still matches, on floats and on columns.
    u, w = (0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, float.fromhex("0x1.12e0be826d695p-31"))
    a, b = direction_from_ks(KSQuadruple(*u)), direction_from_ks(KSQuadruple(*w))
    assert (a.tolist(), b.tolist()) == ([0.0, 0.0, 1.0], [1e-9, 0.0, 1.0])
    assert FLOATS.residual(a.tolist(), b.tolist()) == DIRECTION_MATCH_TOLERANCE
    rot = frame_symmetry(KSQuadruple(*u), KSQuadruple(*w))
    columns = symmetry4(COLUMNS, tuple(np.array([x]) for x in u),
                        tuple(np.array([x]) for x in w), 0.0)
    assert SpinorRotation(*(float(c[0]) for c in columns)) == rot
    assert scaled_residual(np.array(rot.as_tuple()), np.array([1.0, 0.0, 5e-10, 0.0])) <= 1e-15


def test_frame_of_spinor_round_trip():
    # quadruples coming from actual constructors feed the frame machinery
    from spinorspace import xi_from_cartesian
    rng = np.random.default_rng(59)
    for _ in range(100):
        v = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(v) < 0.1:
            continue
        q = quadruple_from_spinor(xi_from_cartesian(tuple(v)))
        f = build_frame(q)
        assert scaled_residual(f.direction, v / np.linalg.norm(v)) <= 1e-12


# ------------------------------------- kernels against the value-type chains

def _composed_normalize(q):
    inv = 1.0 / math.sqrt(q.norm_sq)
    return KSQuadruple(q.q4 * inv, q.q1 * inv, q.q2 * inv, q.q3 * inv)


def _composed_direction(q):
    q4, q1, q2, q3 = _composed_normalize(q).as_tuple()
    return [2.0 * (q1 * q3 + q2 * q4), 2.0 * (q1 * q4 - q2 * q3),
            q1 * q1 + q2 * q2 - q3 * q3 - q4 * q4]


def _composed_frame(q, axis, delta):
    u = _composed_normalize(q)
    align = canonical_phase_plus(psi_from_direction(axis, 0.0)).rotation
    w_rot = compose(compose(rotation_from_unit_ks(hat(u)), axis_phase(delta)), align)
    return hat(ks_from_rotation(w_rot)), _composed_direction(u), align


def _composed_symmetry(u, w, delta):
    u_rot = rotation_from_unit_ks(hat(_composed_normalize(u)))
    w_rot = rotation_from_unit_ks(hat(_composed_normalize(w)))
    return compose(compose(w_rot, axis_phase(-delta)), conjugate(u_rot))


def test_frames_equal_their_value_type_compositions():
    # normalize_ks, the directions and the singular split bit for bit; the frame
    # quadruple, its align and frame_symmetry within oracles.close_to_chain;
    # rotated_direction against the 50-digit reference, last, as it needs mpmath.
    rng = np.random.default_rng(71)
    close = oracles.close_to_chain
    singular, turns = 0, []
    for n in oracles.hard_directions(rng, 1000):
        q = KSQuadruple(*(10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=4)))
        delta = float(rng.uniform(-20.0, 20.0))
        assert normalize_ks(q) == _composed_normalize(q)
        assert direction_from_ks(q).tolist() == _composed_direction(q)
        try:
            want = _composed_frame(q, n, delta)
        except SingularGaugeError:
            singular += 1
            with pytest.raises(SingularGaugeError):
                build_frame(q, n, delta)
            continue
        f = build_frame(q, n, delta)
        assert f.direction.tolist() == want[1]
        assert close(f.w, want[0]) and close(f.align, want[2])
        # a partner over the direction of q, at another scale
        turned = compose(rotation_from_unit_ks(hat(normalize_ks(q))),
                         axis_phase(float(rng.uniform(-math.pi, math.pi))))
        partner = KSQuadruple(*(10.0 ** rng.uniform(-3.0, 3.0)
                                * hat(ks_from_rotation(turned)).as_array()))
        assert close(frame_symmetry(q, partner, delta), _composed_symmetry(q, partner, delta))
        turns.append((f.w, SpinorRotation(*oracles.haar_quadruple(rng)), n))
    # axes at the (+) chart's singular weight: about a sixth of the draws
    assert 50 < singular < 300
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    assert max(_error(mp, rotated_direction(w, rot, n), _rotated_exact(mp, w, rot, n))
               for w, rot, n in turns) <= 1e-15


def test_frame_axis_is_a_copy():
    axis = np.array([0.0, 0.0, 1.0])
    f = build_frame(KSQuadruple(0.3, 0.5, -0.4, 0.2), axis)
    axis[2] = 5.0
    assert f.axis.tolist() == [0.0, 0.0, 1.0]
