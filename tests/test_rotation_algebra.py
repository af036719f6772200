import math
import warnings

import numpy as np
import pytest

import oracles
from spinorspace import (
    IDENTITY_ROTATION,
    VECTOR_PARAMETER_LIMIT,
    KSQuadruple,
    Spinor,
    SpinorRotation,
    compose,
    conjugate,
    elementary_so4,
    extract_so3,
    linear_system_matrix,
    quadruple_from_spinor,
    rotate_spinor,
    rotation_from_axis_angle,
    rotation_from_vector_parameter,
    s_factorization_check,
    s_matrix,
    s_outside_su2_image,
    scaled_residual,
    so3_from_rotation,
    so3_from_vector_parameter,
    su2_matrix,
    su2_real4,
    vector_parameter,
)
from spinorspace.core import COLUMNS
from spinorspace.rotation_algebra import real4_fit, vector_parameter_entries

INV_SQRT2 = math.sqrt(0.5)
SQRT2 = math.sqrt(2.0)


def random_rotation(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return SpinorRotation(v[3], v[0], v[1], v[2])


# ---------------------------------------------------------------- SO(3) maps

def test_so3_from_rotation_frozen():
    assert np.array_equal(so3_from_rotation(IDENTITY_ROTATION), np.eye(3))
    half_turn = so3_from_rotation(SpinorRotation(0.0, 0.0, 0.0, 1.0))
    assert scaled_residual(half_turn, np.diag([-1.0, -1.0, 1.0])) <= 1e-15


def test_so3_from_rotation_matches_trace_oracle():
    rng = np.random.default_rng(30)
    for _ in range(300):
        r = random_rotation(rng)
        direct = so3_from_rotation(r)
        via_trace = oracles.so3_of_unitaries(oracles.b_matrix(r.c4, r.c1, r.c2, r.c3))
        assert scaled_residual(direct, via_trace) <= 1e-13
        assert scaled_residual(direct.T @ direct, np.eye(3)) <= 1e-13
        assert abs(np.linalg.det(direct) - 1.0) <= 1e-13


def test_so3_double_cover_sign():
    rng = np.random.default_rng(31)
    for _ in range(200):
        r = random_rotation(rng)
        neg = SpinorRotation(-r.c4, -r.c1, -r.c2, -r.c3)
        assert scaled_residual(so3_from_rotation(r), so3_from_rotation(neg)) <= 1e-14


def test_rotation_from_axis_angle():
    r = rotation_from_axis_angle((0.0, 0.0, 1.0), math.pi)
    assert abs(r.c4) <= 1e-16 and abs(r.c3 - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        rotation_from_axis_angle((0.0, 0.0, 0.0), 1.0)
    rng = np.random.default_rng(32)
    for _ in range(200):
        axis = rng.normal(size=3)
        angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        got = so3_from_rotation(rotation_from_axis_angle(tuple(axis), angle))
        want = oracles.rodrigues(axis / np.linalg.norm(axis), angle)
        assert scaled_residual(got, want) <= 1e-13


def test_extreme_magnitudes():
    # The squares of these entries overflow, underflow or go subnormal; no
    # numpy overflow warning may escape either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for axis, plain in (((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
                            ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
                            ((1e-170, 1e-170, 0.0), (1.0, 1.0, 0.0))):
            got = rotation_from_axis_angle(axis, 1.0).as_tuple()
            assert scaled_residual(got, rotation_from_axis_angle(plain, 1.0).as_tuple()) <= 1e-15
        half_turn = rotation_from_vector_parameter((1e200, 0.0, 0.0)).as_tuple()
        assert scaled_residual(half_turn, (0.0, 1.0, 0.0, 0.0)) <= 1e-15
        o = so3_from_vector_parameter((1e200, 0.0, 0.0))
        assert scaled_residual(o, np.diag([1.0, -1.0, -1.0])) <= 1e-15
        # From |C| ~ 9.5e153 to 1.34e154, 2 (K + K^2) overflows but |C|^2 does not.
        rng = np.random.default_rng(35)
        band = [np.array(v) for v in ((1e154, 0.0, 0.0), (3e150, 1e154, 0.0))]
        for _ in range(50):
            v = rng.normal(size=3)
            band.append(v / np.linalg.norm(v) * float(rng.uniform(7e153, 1.2e154)))
        for v in band:
            n = v / np.linalg.norm(v)
            o = so3_from_vector_parameter(v)
            assert scaled_residual(o, 2.0 * np.outer(n, n) - np.eye(3)) <= 1e-15
        rng = np.random.default_rng(34)
        for _ in range(50):
            v = rng.normal(size=3)
            angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
            want = np.array(rotation_from_axis_angle(v, angle).as_tuple())
            for k in (1000, -1000):
                got = rotation_from_axis_angle(np.ldexp(v, k), angle).as_tuple()
                assert scaled_residual(got, want) <= 1e-15
            # a huge vector parameter is a half turn about its direction
            n = v / np.linalg.norm(v)
            c = rotation_from_vector_parameter(np.ldexp(v, 1000))
            assert scaled_residual(c.as_tuple(), (0.0, *n)) <= 1e-15
            o = so3_from_vector_parameter(np.ldexp(v, 1000))
            assert scaled_residual(o, 2.0 * np.outer(n, n) - np.eye(3)) <= 1e-15
            assert scaled_residual(o, so3_from_rotation(c)) <= 1e-15


def test_so3_from_vector_parameter_frozen():
    assert np.array_equal(so3_from_vector_parameter(np.zeros(3)), np.eye(3))
    quarter = so3_from_vector_parameter(np.array([0.0, 0.0, 1.0]))
    assert scaled_residual(quarter, oracles.rz(0.5 * math.pi)) <= 1e-15


def test_so3_from_vector_parameter_exact_for_tiny_c():
    # Below |C| = 1e-300 the K^2 terms round to zero, so O is I + 2 K(C) exactly.
    rng = np.random.default_rng(36)
    for _ in range(2000):
        c = rng.normal(size=3)
        c *= 10.0 ** rng.uniform(-320.0, -300.0) / np.linalg.norm(c)
        k = np.array([[0.0, -c[2], c[1]], [c[2], 0.0, -c[0]], [-c[1], c[0], 0.0]])
        assert np.array_equal(so3_from_vector_parameter(c), np.eye(3) + 2.0 * k), c.tolist()


def _so3_exact(c: list) -> list:
    """I + 2 (K + K^2) / (1 + |C|^2) for tiny C, correctly rounded entry by entry.

    With C = m 2^-1074 for integers m, each entry is a ratio of integers, and
    Python's integer division rounds it correctly, subnormals included.
    """
    m = [int(math.ldexp(v, 1074)) for v in c]
    unit, sq = 1 << 1074, sum(v * v for v in m)
    den = (1 << 2148) + sq
    k = [[0, -m[2], m[1]], [m[2], 0, -m[0]], [-m[1], m[0], 0]]
    return [[((i == j) * (den - 2 * sq) + 2 * (k[i][j] * unit + m[i] * m[j])) / den
             for j in range(3)] for i in range(3)]


def test_so3_from_vector_parameter_exact_where_products_are_subnormal():
    # |C_i| log-uniform in 1e-300..1e-150, a quarter with one zero entry: the
    # products C_i C_j fall into the subnormal range, where 2 (C_i C_j) loses
    # the last bit that (2 C_i) C_j keeps.
    rng = np.random.default_rng(13)
    c = rng.choice([-1.0, 1.0], size=(1500, 3)) * 10.0 ** rng.uniform(-300.0, -150.0, (1500, 3))
    zero = rng.random(1500) < 0.25
    c[zero, rng.integers(0, 3, size=zero.sum())] = 0.0
    off = [v for v in c.tolist() if so3_from_vector_parameter(v).tolist() != _so3_exact(v)]
    assert off == []


def test_vector_parameter_chart():
    rng = np.random.default_rng(33)
    for _ in range(300):
        c = rng.normal(size=3) * float(rng.uniform(0.1, 5.0))
        lift = np.concatenate(([1.0], c))
        lift = lift / np.linalg.norm(lift)
        r = SpinorRotation(lift[0], lift[1], lift[2], lift[3])
        assert scaled_residual(so3_from_vector_parameter(c), so3_from_rotation(r)) <= 1e-13
        assert scaled_residual(vector_parameter(r), c) <= 1e-13
    with pytest.raises(ValueError):
        vector_parameter(SpinorRotation(0.0, 0.0, 0.0, 1.0))
    # the gate scales with |C|: barely-representable charts still convert
    big = SpinorRotation(1.0, 0.0, 0.0, 0.9 * VECTOR_PARAMETER_LIMIT)
    assert np.isfinite(vector_parameter(big)).all()


def test_vector_parameter_takes_the_limit_itself():
    # |c4| equal to the limit is inside the chart, one ulp below it is not. The
    # normalization keeps c4 exact: 1 + 1e-18 rounds to 1.
    rot = SpinorRotation(VECTOR_PARAMETER_LIMIT, 1.0, 0.0, 0.0)
    assert rot.c4 == VECTOR_PARAMETER_LIMIT
    quotient = 1.0 / VECTOR_PARAMETER_LIMIT  # 1e9, rounded
    assert vector_parameter(rot).tolist() == [quotient, 0.0, 0.0]
    c4 = np.array([VECTOR_PARAMETER_LIMIT, -VECTOR_PARAMETER_LIMIT])
    got = vector_parameter_entries(COLUMNS, c4, np.ones(2), np.zeros(2), np.zeros(2))
    assert np.array(got).T.tolist() == [[quotient, 0.0, 0.0], [-quotient, -0.0, -0.0]]
    below = math.nextafter(VECTOR_PARAMETER_LIMIT, 0.0)
    with pytest.raises(ValueError):
        vector_parameter(SpinorRotation(below, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        vector_parameter_entries(COLUMNS, np.array([1.0, -below]), np.ones(2), np.zeros(2),
                                 np.zeros(2))


def test_extract_so3_dual_route():
    assert scaled_residual(extract_so3(np.eye(2, dtype=complex)), np.eye(3)) <= 1e-15
    rng = np.random.default_rng(34)
    for _ in range(300):
        r = random_rotation(rng)
        assert scaled_residual(extract_so3(su2_matrix(r)), so3_from_rotation(r)) <= 1e-13


@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (2,), (2, 4), ()])
def test_extract_so3_rejects_other_shapes(shape):
    # A stack of 3x3 matrices has a multiple of 4 entries too: it must not be read as 2x2s.
    with pytest.raises(ValueError):
        extract_so3(np.zeros(shape))


# ------------------------------------------------------------- spinor action

def test_rotate_spinor_matches_matrix_action():
    rng = np.random.default_rng(35)
    for _ in range(300):
        r = random_rotation(rng)
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        got = rotate_spinor(r, s)
        want = oracles.b_matrix(r.c4, r.c1, r.c2, r.c3) @ oracles.column(s)
        assert abs(got.c1 - want[0]) <= 1e-13 and abs(got.c2 - want[1]) <= 1e-13


def test_su2_real4_frozen():
    assert np.array_equal(su2_real4(IDENTITY_ROTATION), np.eye(4))
    m = su2_real4(SpinorRotation(0.0, 0.0, 0.0, 1.0))
    want = np.zeros((4, 4))
    # storage order (q4, q1, q2, q3): the c3 generator sends it to (q3, q2, -q1, -q4)
    want[0, 3] = 1.0
    want[1, 2] = 1.0
    want[2, 1] = -1.0
    want[3, 0] = -1.0
    assert np.array_equal(m, want)


def test_su2_real4_is_the_spinor_action():
    rng = np.random.default_rng(36)
    for _ in range(300):
        r = random_rotation(rng)
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        q = quadruple_from_spinor(s).as_array()
        via_real = su2_real4(r) @ q
        via_complex = oracles.storage_of_column(
            oracles.b_matrix(r.c4, r.c1, r.c2, r.c3) @ oracles.column(s))
        assert scaled_residual(via_real, via_complex) <= 1e-13


def test_su2_real4_homomorphism_and_orthogonality():
    rng = np.random.default_rng(37)
    for _ in range(200):
        a, b = random_rotation(rng), random_rotation(rng)
        assert scaled_residual(su2_real4(compose(a, b)),
                               su2_real4(a) @ su2_real4(b)) <= 1e-13
        m = su2_real4(a)
        assert scaled_residual(m.T @ m, np.eye(4)) <= 1e-13
        assert abs(np.linalg.det(m) - 1.0) <= 1e-13


def test_linear_system_matrix():
    rng = np.random.default_rng(38)
    for _ in range(200):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        g = linear_system_matrix(quadruple_from_spinor(s))
        assert np.array_equal(g, oracles.action_matrix(s))
        q = quadruple_from_spinor(s).as_array()
        assert np.array_equal(g @ np.array([1.0, 0.0, 0.0, 0.0]), q)
        # columns are orthogonal with common norm |q|^2
        gram = g.T @ g
        assert scaled_residual(gram, float(q @ q) * np.eye(4)) <= 1e-13


# ------------------------------------------------------------ SO(4) elements

def test_elementary_so4_frozen():
    for label in ("2-3", "3-1", "1-2", "4-1", "4-2", "4-3"):
        assert np.array_equal(elementary_so4(label, 0.0), np.eye(4))
    quarter = elementary_so4("4-2", 0.5 * math.pi)
    q = np.array([4.0, 1.0, 2.0, 3.0])  # storage (q4, q1, q2, q3)
    assert scaled_residual(quarter @ q, np.array([-2.0, 1.0, 4.0, 3.0])) <= 1e-15
    with pytest.raises(ValueError):
        elementary_so4("1-4", 1.0)


def test_elementary_so4_orthogonal():
    rng = np.random.default_rng(39)
    for label in ("2-3", "3-1", "1-2", "4-1", "4-2", "4-3"):
        for _ in range(30):
            m = elementary_so4(label, float(rng.uniform(-7.0, 7.0)))
            assert scaled_residual(m.T @ m, np.eye(4)) <= 1e-15
            assert abs(np.linalg.det(m) - 1.0) <= 1e-14


def test_s_matrix_frozen():
    s = s_matrix()
    assert scaled_residual(s.T @ s, np.eye(4)) <= 1e-15
    assert abs(np.linalg.det(s) - 1.0) <= 1e-14
    got = s @ np.array([0.0, 1.0, 0.0, 1.0])
    assert scaled_residual(got, np.array([0.0, 0.0, 0.0, SQRT2])) <= 1e-15


def test_s_factorization():
    scan = s_factorization_check()
    assert scan.best_angles == (0.25 * math.pi, 0.25 * math.pi)
    assert scan.best_residual <= 1e-15
    assert len(scan.residuals) == 64
    others = [r for b1, b2, r in scan.residuals if (b1, b2) != scan.best_angles]
    assert min(others) > 0.1
    direct = elementary_so4("4-2", 0.25 * math.pi) @ elementary_so4("3-1", 0.25 * math.pi)
    assert scaled_residual(s_matrix(), direct) <= 1e-15


def test_s_outside_su2_image():
    cert = s_outside_su2_image()
    assert abs(cert.residual - SQRT2) <= 1e-15
    assert cert.residual > 0.1
    assert cert.parameter == "c2"
    assert cert.witness_entries == ((0, 2), (1, 3))
    assert abs(cert.implied_values[0] + INV_SQRT2) <= 1e-15
    assert abs(cert.implied_values[1] - INV_SQRT2) <= 1e-15
    # the same fit applied to a genuine member recovers it with zero residual
    rng = np.random.default_rng(40)
    r = random_rotation(rng)
    fit, residual = real4_fit(su2_real4(r))
    assert residual[0] <= 1e-13
    fit = fit[0]
    want = np.array([r.c4, r.c1, r.c2, r.c3])
    if fit @ want < 0.0:
        fit = -fit
    assert scaled_residual(fit, want) <= 1e-13


def test_real4_fit_matches_lstsq():
    # np.linalg.lstsq on the 16 x 4 pattern is the independent reference of the fit
    # B^T t / 4, on Gaussian targets and on su2_real4 members: within 1e-15, scaled.
    rng = np.random.default_rng(42)
    basis = np.column_stack([su2_real4(SpinorRotation(*e)).ravel() for e in np.eye(4)])
    members = [su2_real4(random_rotation(rng)) for _ in range(2000)]
    for targets in (rng.normal(size=(2000, 4, 4)), np.array(members)):
        fit, residual = real4_fit(targets)
        for f, r, t in zip(fit, residual, targets.reshape(-1, 16)):
            best = np.linalg.lstsq(basis, t, rcond=None)[0]
            assert scaled_residual(f, best) <= 1e-15
            assert scaled_residual(r, np.linalg.norm(basis @ best - t)) <= 1e-15


def test_conjugate_inverts():
    rng = np.random.default_rng(41)
    for _ in range(200):
        r = random_rotation(rng)
        assert scaled_residual(su2_real4(conjugate(r)), su2_real4(r).T) <= 1e-13
