import math

import numpy as np
import pytest

import oracles
from spinorspace import (
    IDENTITY_ROTATION,
    SingularGaugeError,
    Spinor,
    SpinorRotation,
    axis_phase,
    canonical_phase_minus,
    canonical_phase_plus,
    compose,
    conjugate,
    extract_so3,
    gauge_minus,
    gauge_plus,
    project_xi,
    psi_from_direction,
    quadruple_from_spinor,
    rotate_spinor,
    rotation_between,
    scaled_residual,
    so3_from_rotation,
    so3_from_vector_parameter,
    stabilizer_check,
    su2_matrix,
    vector_parameter,
)
from spinorspace import gauge_fixing
from spinorspace.core import COLUMNS, FLOATS
from spinorspace.gauge_fixing import SINGULAR_WEIGHT, canonical_plus4

INV_SQRT2 = math.sqrt(0.5)
POLE = np.array([0.0, 0.0, 1.0])


def random_unit_spinor(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return Spinor(complex(v[0], v[1]), complex(v[2], v[3]))


def random_rotation(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return SpinorRotation(v[3], v[0], v[1], v[2])


def direction_of(psi):
    r, x = project_xi(psi)
    return x / r


# ---------------------------------------------------------- direction spinors

def test_psi_from_direction_frozen():
    p = psi_from_direction((0.0, 0.0, 1.0))
    assert p.c1 == 1.0 + 0.0j and p.c2 == 0.0
    p = psi_from_direction((0.0, 0.0, -1.0))
    assert p.c1 == 0.0 and p.c2 == 1.0 + 0.0j
    p = psi_from_direction((1.0, 0.0, 0.0))
    assert p.c1 == INV_SQRT2 + 0.0j and p.c2 == INV_SQRT2 + 0.0j
    with pytest.raises(ValueError):
        psi_from_direction((1.0, 1.0, 0.0))


def test_psi_from_direction_recovers_direction():
    rng = np.random.default_rng(60)
    for _ in range(300):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        gamma = float(rng.uniform(-4.0 * math.pi, 4.0 * math.pi))
        psi = psi_from_direction(tuple(n), gamma)
        assert abs(psi.norm_sq - 1.0) <= 1e-14
        assert scaled_residual(direction_of(psi), n) <= 1e-13


def test_psi_from_direction_near_the_poles():
    # sqrt((1 -+ n3)/2) cancels next to a pole (7e-11 off at 1e-6 rad, 1e-8
    # at 1e-8 rad); the quotient form for the small component does not.
    for pole in (1.0, -1.0):
        for eps in (1e-4, 1e-6, 1e-8):
            for phi in (-2.5, 0.3, 1.9):
                n = np.array([math.sin(eps) * math.cos(phi), math.sin(eps) * math.sin(phi),
                              pole * math.cos(eps)])
                psi = psi_from_direction(tuple(n), 0.7)
                assert abs(psi.norm_sq - 1.0) <= 1e-15
                assert scaled_residual(direction_of(psi), n) <= 1e-12
                r, x = oracles.xi_bilinears(psi)
                assert scaled_residual(x / r, n) <= 1e-12


def test_psi_from_direction_rejects_nonfinite_phase():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="phase gamma"):
            psi_from_direction((0.0, 0.0, 1.0), bad)


def test_psi_from_direction_lift_selection():
    # off the axis, gamma only picks between the two cover lifts
    near_zero = psi_from_direction((1.0, 0.0, 0.0), 0.0)
    other = psi_from_direction((1.0, 0.0, 0.0), 2.0 * math.pi)
    assert abs(near_zero.c1 - INV_SQRT2) <= 1e-15
    assert abs(other.c1 + INV_SQRT2) <= 1e-15
    assert abs(other.c2 + INV_SQRT2) <= 1e-15
    # on the axis the requested phase applies verbatim
    spun = psi_from_direction((0.0, 0.0, 1.0), math.pi)
    assert abs(spun.c1 + 1.0j) <= 1e-15


def test_psi_from_direction_partner_lift_negates():
    # Off the axis, gamma + 2pi selects the other lift: the same spinor negated, bit for bit.
    rng = np.random.default_rng(64)
    directions = rng.normal(size=(3000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    gammas = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3000)
    for n, gamma in zip(directions.tolist(), gammas.tolist()):
        psi, partner = psi_from_direction(n, gamma), psi_from_direction(n, gamma + 2.0 * math.pi)
        assert (partner.c1, partner.c2) == (-psi.c1, -psi.c2)


def _complex_polar(xp, m1, m2, phi):
    """The direction spinor's phase step as it was written before it shared the
    constructors' polar: half-angle phases and float-by-complex products."""
    h = 0.5 * phi
    minus = complex(math.cos(h), -math.sin(h))
    z1, z2 = m1 * minus, m2 * minus.conjugate()
    return z1.real, z1.imag, z2.real, z2.imag


def _own_polar(xp, m1, m2, phi):
    """The same step with each part its own product, m cos or m (-+sin): no 0.0 terms."""
    h = 0.5 * phi
    c, s = math.cos(h), math.sin(h)
    return m1 * c, -(m1 * s), m2 * c, m2 * s


def _direction_outputs(directions, gammas):
    out = []
    for n in directions:
        try:
            out.append(SpinorRotation(*canonical_plus4(FLOATS, n)).as_tuple())
        except SingularGaugeError as error:
            out.append(str(error))
        for gamma in gammas:
            p = psi_from_direction(n, gamma)
            out.append((p.c1.real, p.c1.imag, p.c2.real, p.c2.imag))
    return out


def _hexes(outputs):
    return [o if isinstance(o, str) else [v.hex() for v in o] for o in outputs]


def test_direction_spinor_keeps_the_bits_of_the_complex_product(monkeypatch):
    # == to the complex products, with the signs of zeros of the own-term products.
    rng = np.random.default_rng(62)
    zeros = (0.0, -0.0)
    directions = oracles.hard_directions(rng, 1500)
    directions += [np.array([a, b, c]) for a in zeros for b in zeros for c in (1.0, -1.0)]
    turn = 2.0 * math.pi
    gammas = [0.0, -0.0, turn, -turn, *rng.uniform(-2.0 * turn, 2.0 * turn, 6).tolist()]
    got = _direction_outputs(directions, gammas)
    monkeypatch.setattr(gauge_fixing, "polar", _complex_polar)
    want = _direction_outputs(directions, gammas)
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == 1508 * 11 and bad == [], f"{len(bad)} outputs differ, first at {bad[:5]}"
    monkeypatch.setattr(gauge_fixing, "polar", _own_polar)
    want = _hexes(_direction_outputs(directions, gammas))
    bad = [i for i, (a, b) in enumerate(zip(_hexes(got), want)) if a != b]
    assert bad == [], f"{len(bad)} outputs differ in their bits, first at {bad[:5]}"


# ------------------------------------------------------------ gauge rotations

def test_gauge_plus_frozen():
    assert gauge_plus(Spinor(1.0 + 0.0j, 0.0j)).as_tuple() == (1.0, 0.0, 0.0, 0.0)
    g = gauge_plus(Spinor(INV_SQRT2 + 0.0j, INV_SQRT2 + 0.0j))
    assert g.as_tuple() == (INV_SQRT2, 0.0, -INV_SQRT2, 0.0)
    out = rotate_spinor(g, Spinor(INV_SQRT2 + 0.0j, INV_SQRT2 + 0.0j))
    assert abs(out.c1 - 1.0) <= 3e-16 and out.c2 == 0.0


def test_gauge_minus_frozen():
    assert gauge_minus(Spinor(0.0j, 1.0 + 0.0j)).as_tuple() == (1.0, 0.0, 0.0, 0.0)
    g = gauge_minus(Spinor(INV_SQRT2 + 0.0j, INV_SQRT2 + 0.0j))
    assert g.as_tuple() == (INV_SQRT2, 0.0, INV_SQRT2, 0.0)


def test_gauge_postconditions():
    rng = np.random.default_rng(61)
    for _ in range(300):
        psi = random_unit_spinor(rng)
        phase = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        h = 0.5 * phase
        out = rotate_spinor(gauge_plus(psi, phase), psi)
        assert abs(out.c1 - complex(math.cos(h), -math.sin(h))) <= 1e-13
        assert abs(out.c2) <= 1e-13
        out = rotate_spinor(gauge_minus(psi, phase), psi)
        assert abs(out.c1) <= 1e-13
        assert abs(out.c2 - complex(math.cos(h), math.sin(h))) <= 1e-13
        # oracle route: the explicit matrix does the same thing
        g = gauge_plus(psi, phase)
        col = oracles.b_matrix(g.c4, g.c1, g.c2, g.c3) @ oracles.column(psi)
        assert abs(col[0] - complex(math.cos(h), -math.sin(h))) <= 1e-13
        assert abs(col[1]) <= 1e-13


def test_gauge_rejects_non_unit():
    with pytest.raises(ValueError):
        gauge_plus(Spinor(1.0 + 0.0j, 1.0 + 0.0j))
    with pytest.raises(ValueError):
        gauge_minus(Spinor(0.5 + 0.0j, 0.0j))
    with pytest.raises(ValueError):
        rotation_between(Spinor(1.0 + 0.0j, 0.0j), Spinor(2.0 + 0.0j, 0.0j))


# ----------------------------------------------------------- canonical gauges

def test_canonical_phase_plus_frozen():
    c = canonical_phase_plus(Spinor(1.0 + 0.0j, 0.0j))
    assert c.gamma == 0.0 and c.rotation.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert np.all(c.vector_parameter == 0.0)
    c = canonical_phase_plus(Spinor(INV_SQRT2 + 0.0j, INV_SQRT2 + 0.0j))
    assert c.vector_parameter.tolist() == [0.0, -1.0, 0.0]
    assert c.rotation.c3 == 0.0
    # |C| = tan(pi/4) = 1 at the equator
    assert abs(float(np.linalg.norm(c.vector_parameter)) - 1.0) <= 1e-15


def test_canonical_phase_minus_frozen():
    c = canonical_phase_minus(Spinor(0.0j, 1.0 + 0.0j))
    assert c.gamma == 0.0 and c.rotation.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert np.all(c.vector_parameter == 0.0)
    c = canonical_phase_minus(Spinor(INV_SQRT2 + 0.0j, INV_SQRT2 + 0.0j))
    assert c.vector_parameter.tolist() == [0.0, 1.0, 0.0]


def test_canonical_gauges_off_pole():
    rng = np.random.default_rng(62)
    for _ in range(200):
        psi = random_unit_spinor(rng)
        n = direction_of(psi)
        theta = math.atan2(math.hypot(n[0], n[1]), n[2])
        if not 0.04 <= theta <= math.pi - 0.04:
            continue
        plus = canonical_phase_plus(psi)
        minus = canonical_phase_minus(psi)
        assert abs(plus.rotation.c3) <= 1e-13
        assert abs(minus.rotation.c3) <= 1e-13
        assert scaled_residual(so3_from_rotation(plus.rotation) @ n, POLE) <= 1e-12
        assert scaled_residual(so3_from_rotation(minus.rotation) @ n, -POLE) <= 1e-12
        # the planar parameter IS the rotation's quotient chart
        assert scaled_residual(vector_parameter(plus.rotation),
                               plus.vector_parameter) <= 1e-12
        assert scaled_residual(so3_from_vector_parameter(plus.vector_parameter) @ n,
                               POLE) <= 1e-12
        # magnitude law against the colatitude
        assert abs(float(np.linalg.norm(plus.vector_parameter))
                   - math.tan(0.5 * theta)) <= 1e-12
        assert abs(float(np.linalg.norm(minus.vector_parameter))
                   - math.tan(0.5 * (math.pi - theta))) <= 1e-12


def test_canonical_gauges_singular_at_their_pole():
    with pytest.raises(SingularGaugeError):
        canonical_phase_plus(Spinor(0.0j, 1.0 + 0.0j))
    with pytest.raises(SingularGaugeError):
        canonical_phase_minus(Spinor(1.0 + 0.0j, 0.0j))


def test_canonical_weight_equal_to_the_threshold_is_singular():
    # 1e-6 squares to exactly SINGULAR_WEIGHT. At the kernel: canonical_phase_plus
    # renormalizes this spinor, which moves its weight off the threshold.
    u = (1e-6, 0.0, math.sqrt(1.0 - 1e-12), 0.0)
    assert u[0] * u[0] == SINGULAR_WEIGHT
    with pytest.raises(SingularGaugeError):
        gauge_fixing.canonical4(FLOATS, u, 1)
    regular = (0.6, 0.0, 0.8, 0.0)
    with pytest.raises(SingularGaugeError):
        gauge_fixing.canonical4(COLUMNS, tuple(np.array(row) for row in zip(u, regular)), 1)
    above = (math.nextafter(1e-6, 1.0), *u[1:])
    assert above[0] * above[0] > SINGULAR_WEIGHT
    assert gauge_fixing.canonical4(FLOATS, above, 1)[2][3] == 0.0


def _canonical_gauges(directions):
    """(sign, psi, gauge) of each canonical gauge that is defined at the directions."""
    out = []
    for n in directions:
        psi = psi_from_direction(n)
        for sign, gauge in ((1, canonical_phase_plus), (-1, canonical_phase_minus)):
            try:
                out.append((sign, psi, gauge(psi)))
            except SingularGaugeError:
                pass
    return out


def test_canonical_rotations_are_exactly_planar():
    gauges = _canonical_gauges(oracles.hard_directions(np.random.default_rng(1), 3000))
    assert len(gauges) > 4000
    assert [g.rotation.c3 for _, _, g in gauges if g.rotation.c3 != 0.0] == []


def test_canonical_rotations_against_a_50_digit_reference():
    # The exact canonical rotation of psi / |psi|: with w = u, or swap4(u) for the (-)
    # gauge, it is (s, w1 w4 - w2 w3, -(w1 w3 + w2 w4), 0) / sqrt(s), s = w1^2 + w2^2.
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    gauges = _canonical_gauges(oracles.hard_directions(np.random.default_rng(2), 600))
    errors = []
    for sign, psi, g in gauges:
        u = [mp.mpf(x) for x in (psi.c1.real, psi.c1.imag, psi.c2.real, psi.c2.imag)]
        norm = mp.sqrt(sum(x * x for x in u))
        w1, w2, w3, w4 = (x / norm for x in (u if sign == 1 else (u[2], -u[3], -u[0], u[1])))
        root = mp.sqrt(w1 * w1 + w2 * w2)
        exact = (root * root, w1 * w4 - w2 * w3, -(w1 * w3 + w2 * w4), 0)
        errors += [float(abs(got - want / root))
                   for got, want in zip(g.rotation.as_tuple(), exact)]
    assert max(errors) <= 2.0 ** -51
    assert float(np.sqrt(np.mean(np.square(errors)))) <= 5e-17


# ----------------------------------------------------------- alignment solver

def test_rotation_between_frozen():
    psi = Spinor(complex(0.2, -0.5), complex(0.6, math.sqrt(1.0 - 0.65)))
    norm = math.sqrt(psi.norm_sq)
    psi = Spinor(psi.c1 / norm, psi.c2 / norm)
    assert rotation_between(psi, psi).as_tuple() == (1.0, 0.0, 0.0, 0.0)
    swap = rotation_between(Spinor(1.0 + 0.0j, 0.0j), Spinor(0.0j, 1.0 + 0.0j))
    assert swap.as_tuple() == (0.0, 0.0, 1.0, 0.0)


def test_rotation_between_planted():
    rng = np.random.default_rng(63)
    for _ in range(300):
        psi = random_unit_spinor(rng)
        planted = random_rotation(rng)
        target = rotate_spinor(planted, psi)
        rec = rotation_between(psi, target)
        got = np.array(rec.as_tuple())
        want = np.array(planted.as_tuple())
        assert min(scaled_residual(got, want), scaled_residual(got, -want)) <= 1e-13
        back = rotate_spinor(rec, psi)
        assert abs(back.c1 - target.c1) <= 1e-13 and abs(back.c2 - target.c2) <= 1e-13


def test_rotation_between_matrix_oracle():
    rng = np.random.default_rng(64)
    for _ in range(200):
        psi = random_unit_spinor(rng)
        phi = random_unit_spinor(rng)
        rec = rotation_between(psi, phi)
        # ratio of the two SU(2) matrices with the spinors as first columns
        ratio = oracles.su2_with_first_column(phi) @ oracles.su2_with_first_column(psi).conj().T
        got = su2_matrix(rec)
        assert float(np.max(np.abs(got - ratio))) <= 1e-13
        # second, fully independent route: solve the real linear system
        g = oracles.action_matrix(psi)
        solved = np.linalg.solve(g, oracles.storage_of_column(oracles.column(phi)))
        assert scaled_residual(np.array(rec.as_tuple()), solved) <= 1e-12


# ------------------------------------------------------------- stabilizers

def test_stabilizer_exact_identity():
    rng = np.random.default_rng(65)
    for _ in range(100):
        psi = random_unit_spinor(rng)
        assert stabilizer_check(psi, 1).as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert stabilizer_check(psi, -1).as_tuple() == (-1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        stabilizer_check(Spinor(1.0 + 0.0j, 0.0j), 2)
    with pytest.raises(ValueError):
        stabilizer_check(Spinor(0.0j, 0.0j))


def test_stabilizer_solve_matches_a_linear_solve():
    # np.linalg.solve of the oracle's action matrix is the independent reference of
    # sign G^T q / |q|^2: within 1e-15, scaled.
    rng = np.random.default_rng(66)
    for scale in 10.0 ** rng.uniform(-3.0, 3.0, 500):
        psi = Spinor(complex(*rng.normal(size=2) * scale), complex(*rng.normal(size=2) * scale))
        q = quadruple_from_spinor(psi).as_tuple()
        for sign in (1, -1):
            want = np.linalg.solve(oracles.action_matrix(psi), sign * np.array(q))
            assert scaled_residual(gauge_fixing.stabilizer_solve(q, sign), want) <= 1e-15


@pytest.mark.parametrize("sign", [1, -1])
def test_stabilizer_check_rejects_a_solve_off_identity(monkeypatch, sign):
    # The check must compare the solve with +-identity, not return its constant.
    monkeypatch.setattr(gauge_fixing, "stabilizer_solve", lambda q, s: [0.5 * s * x for x in q])
    with pytest.raises(ArithmeticError, match=rf"did not land on {sign} \* identity"):
        stabilizer_check(Spinor(0.6 + 0.0j, 0.8j), sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_stabilizer_check_rejects_a_nan_solve(monkeypatch, sign):
    # NaN compares false with any bound, so the check must ask for a residual <= it.
    monkeypatch.setattr(gauge_fixing, "stabilizer_solve", lambda q, s: [math.nan * x for x in q])
    with pytest.raises(ArithmeticError):
        stabilizer_check(Spinor(0.6 + 0.0j, 0.8j), sign)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", range(4))
def test_stabilizer_check_rejects_one_nonfinite_entry(monkeypatch, entry, bad, sign):
    # The solve is exact but for one entry. The builtin max(1.0, nan) is 1.0, so a
    # residual taken with max alone passes a NaN anywhere but in the first entry.
    def solve(q, s):
        solved = [float(s), 0.0, 0.0, 0.0]
        solved[entry] = bad
        return tuple(solved)
    monkeypatch.setattr(gauge_fixing, "stabilizer_solve", solve)
    with pytest.raises(ArithmeticError, match=rf"did not land on {sign} \* identity"):
        stabilizer_check(Spinor(0.6 + 0.0j, 0.8j), sign)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("psi", [Spinor(1e-200 + 0.0j, 0.0j), Spinor(1e-320 + 0.0j, 0.0j),
                                 Spinor(5e-324j, -0.0j), Spinor(1e308 + 1e308j, -1e308j),
                                 Spinor(7.244872018900139e+153 + 7.075222611182035e+153j,
                                        7.407922093219855e+153 + 4.727055973752906e+153j)],
                         ids=["tiny", "subnormal", "least", "huge", "top"])
def test_stabilizer_check_off_the_normal_range(psi, sign):
    # |psi|^2 underflows to zero below about 1.5e-162, where the spinor is not
    # zero, and a solve on subnormal entries gives NaN; past 1.3e154 it overflows.
    # At "top", |psi|^2 summed left to right is the largest double, but the
    # solve's (q4^2 + q1^2) + (q2^2 + q3^2) rounds to inf.
    assert stabilizer_check(psi, sign) is stabilizer_check(Spinor(1.0 + 0.0j, 0.0j), sign)


def test_circle_contrast_at_the_pole():
    # every phase rotation fixes the pole direction; only the trivial one
    # fixes the spinor itself
    psi = Spinor(1.0 + 0.0j, 0.0j)
    fixing = 0
    for k in range(16):
        alpha = 2.0 * math.pi * k / 16.0
        rot = axis_phase(alpha)
        assert scaled_residual(extract_so3(su2_matrix(rot)) @ POLE, POLE) <= 1e-15
        moved = rotate_spinor(rot, psi)
        if abs(moved.c1 - psi.c1) <= 1e-12 and abs(moved.c2 - psi.c2) <= 1e-12:
            fixing += 1
    assert fixing == 1


# ------------------------------------- kernels against the value-type chains

def _unit_components(psi):
    u = (psi.c1.real, psi.c1.imag, psi.c2.real, psi.c2.imag)
    norm = math.sqrt(sum(v * v for v in u))
    return tuple(v / norm for v in u)


def _composed_gauge_plus(psi, phase):
    u1, u2, u3, u4 = _unit_components(psi)
    return compose(axis_phase(0.5 * phase), SpinorRotation(u1, u4, -u3, u2))


def _composed_gauge_minus(psi, phase):
    u1, u2, u3, u4 = _unit_components(psi)
    return compose(axis_phase(0.5 * phase), SpinorRotation(u3, u2, u1, -u4))


def _composed_canonical(psi, sign):
    u1, u2, u3, u4 = _unit_components(psi)
    s = u1 * u1 + u2 * u2 if sign > 0 else u3 * u3 + u4 * u4
    if s <= SINGULAR_WEIGHT:
        return SingularGaugeError
    if sign > 0:
        gamma = 2.0 * math.atan2(-u2, u1)
        c = [(u1 * u4 - u2 * u3) / s, -(u1 * u3 + u2 * u4) / s, 0.0]
        return gamma, c, _composed_gauge_plus(psi, gamma)
    gamma = 2.0 * math.atan2(u4, u3)
    c = [-(u1 * u4 - u2 * u3) / s, (u1 * u3 + u2 * u4) / s, 0.0]
    return gamma, c, _composed_gauge_minus(psi, gamma)


def _composed_between(psi, psi_prime):
    u1, u2, u3, u4 = _unit_components(psi)
    v1, v2, v3, v4 = _unit_components(psi_prime)
    return compose(SpinorRotation(v1, -v4, v3, -v2), conjugate(SpinorRotation(u1, -u4, u3, -u2)))


def test_gauges_equal_their_value_type_compositions():
    rng = np.random.default_rng(70)
    close = oracles.close_to_chain
    singular = 0
    for n in oracles.hard_directions(rng, 1000):
        psi = psi_from_direction(n, float(rng.uniform(-20.0, 20.0)))
        other = random_unit_spinor(rng)
        phase = float(rng.uniform(-20.0, 20.0))
        assert close(gauge_plus(psi, phase), _composed_gauge_plus(psi, phase))
        assert close(gauge_minus(psi, phase), _composed_gauge_minus(psi, phase))
        for sign, canonical in ((1, canonical_phase_plus), (-1, canonical_phase_minus)):
            want = _composed_canonical(psi, sign)
            if want is SingularGaugeError:
                singular += 1
                with pytest.raises(SingularGaugeError):
                    canonical(psi)
                continue
            got = canonical(psi)
            # gamma and C are read off psi's parts, bit for bit
            assert (got.gamma, got.vector_parameter.tolist()) == want[:2]
            assert close(got.rotation, want[2])
        assert close(rotation_between(psi, other), _composed_between(psi, other))
        assert close(rotation_between(other, psi), _composed_between(other, psi))
        # m' m^-1 with m' = m is the identity exactly; the composition, which
        # normalizes m and its conjugate apart, need not be
        assert rotation_between(psi, psi) == IDENTITY_ROTATION
        assert close(rotation_between(psi, psi), _composed_between(psi, psi))
        for sign in (1, -1):
            assert stabilizer_check(psi, sign) == SpinorRotation(float(sign), 0.0, 0.0, 0.0)
    # the chart-weight third straddles the 1e-12 guard
    assert 50 < singular < 500


def test_stabilizer_returns_one_constant_per_sign():
    north, south = Spinor(1.0 + 0.0j, 0.0j), Spinor(0.0j, 1.0j)
    assert stabilizer_check(north, 1) is stabilizer_check(south, 1)
    assert stabilizer_check(north, -1) is stabilizer_check(south, -1)
