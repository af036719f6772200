import ast
import cmath
import inspect
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from spinorspace import core
from spinorspace import gauge_fixing as gf
from spinorspace import ks_covariance as ks
from spinorspace import rotation_algebra as ra
from spinorspace import spinor_maps as sm
from spinorspace import verify
from spinorspace import (
    KSQuadruple,
    ParabolicPoint,
    Spinor,
    SphericalPoint,
    cartan_reflect,
    eta_from_cartesian,
    eta_from_parabolic,
    eta_from_spherical,
    eta_from_xi,
    eta_quadruple_projection,
    generate_fixtures,
    phase_rotate,
    project_eta,
    project_xi,
    quadruple_from_spinor,
    scaled_residual,
    spinor_from_quadruple,
    u_to_v,
    xi_constraint_residual,
    xi_from_cartesian,
    xi_from_eta,
    xi_from_parabolic,
    xi_from_spherical,
)

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = math.sqrt(0.5)
DBL_MAX = sys.float_info.max
MIN_NORMAL = sys.float_info.min
TINY = math.ulp(0.0)


def close(z, w, tol=1e-15):
    return abs(z - w) <= tol


# ------------------------------------------------------------- constructors

def test_xi_cartesian_frozen_points():
    s = xi_from_cartesian((0.0, 0.0, 1.0))
    assert s.c1 == SQRT2 and s.c2 == 0.0
    s = xi_from_cartesian((0.0, 0.0, -1.0))
    assert s.c1 == 0.0 and s.c2 == SQRT2
    # unit point on the 1-axis: both radicals equal 1, azimuth 0
    s = xi_from_cartesian((1.0, 0.0, 0.0))
    assert s.c1 == 1.0 + 0.0j and s.c2 == 1.0 + 0.0j
    r, x = oracles.xi_bilinears(s)
    assert abs(r - 1.0) <= 1e-15
    assert float(np.max(np.abs(x - np.array([1.0, 0.0, 0.0])))) <= 1e-15
    z = xi_from_cartesian((0.0, 0.0, 0.0))
    assert z.c1 == 0.0 and z.c2 == 0.0


def test_xi_spherical_frozen_points():
    s = xi_from_spherical(SphericalPoint(1.0, 0.0, 0.0))
    assert s.c1 == SQRT2 and s.c2 == 0.0
    s = xi_from_spherical(SphericalPoint(1.0, 0.5 * math.pi, 0.0))
    assert close(s.c1, 1.0, 3e-16) and close(s.c2, 1.0, 3e-16)
    r, x = oracles.xi_bilinears(s)
    assert abs(r - 1.0) <= 1e-15
    assert float(np.max(np.abs(x - np.array([1.0, 0.0, 0.0])))) <= 1e-15
    # phi + 2pi lands on the other sheet: same point, negated spinor
    t = xi_from_spherical(SphericalPoint(1.0, 0.5 * math.pi, 2.0 * math.pi))
    assert close(t.c1, -1.0, 3e-16) and close(t.c2, -1.0, 3e-16)
    _, xt = oracles.xi_bilinears(t)
    assert float(np.max(np.abs(xt - x))) <= 1e-15


def test_xi_parabolic_frozen_points():
    s = xi_from_parabolic(ParabolicPoint(1.0, 1.0, 0.0))
    assert s.c1 == 1.0 + 0.0j and s.c2 == 1.0 + 0.0j
    r, x = oracles.xi_bilinears(s)
    assert abs(r - 1.0) <= 1e-15 and float(np.max(np.abs(x - [1.0, 0.0, 0.0]))) <= 1e-15
    s = xi_from_parabolic(ParabolicPoint(1.0, 0.0, 0.0))
    assert s.c1 == 1.0 + 0.0j and s.c2 == 0.0
    r, x = oracles.xi_bilinears(s)
    assert abs(r - 0.5) <= 1e-15 and float(np.max(np.abs(x - [0.0, 0.0, 0.5]))) <= 1e-15
    z = xi_from_parabolic(ParabolicPoint(0.0, 0.0, 1.3))
    assert z.c1 == 0.0 and z.c2 == 0.0


def test_eta_cartesian_frozen_points():
    s = eta_from_cartesian((0.0, 0.0, 1.0))
    assert s.c1 == 1.0 + 0.0j and s.c2 == 1.0 + 0.0j
    a, x = oracles.eta_bilinears(s)
    assert float(np.max(np.abs(x - [0.0, 0.0, 1.0]))) <= 1e-15
    assert float(np.max(np.abs(a - [0.0, 1.0, 0.0]))) <= 1e-15
    s = eta_from_cartesian((1.0, 0.0, 0.0))
    assert s.c1 == 0.0 and s.c2 == SQRT2
    a, x = oracles.eta_bilinears(s)
    assert float(np.max(np.abs(x - [1.0, 0.0, 0.0]))) <= 1e-15
    assert float(np.max(np.abs(a - [0.0, 1.0, 0.0]))) <= 1e-15
    z = eta_from_cartesian((0.0, 0.0, 0.0))
    assert z.c1 == 0.0 and z.c2 == 0.0


def test_eta_spherical_frozen_points():
    s = eta_from_spherical(SphericalPoint(1.0, 0.0, 0.0))
    assert s.c1 == 1.0 + 0.0j and s.c2 == 1.0 + 0.0j
    s = eta_from_spherical(SphericalPoint(1.0, 0.5 * math.pi, 0.0))
    assert close(s.c1, 0.0, 3e-16) and close(s.c2, SQRT2, 3e-16)
    z = eta_from_spherical(SphericalPoint(0.0, 1.0, 0.5))
    assert z.c1 == 0.0 and z.c2 == 0.0


def test_eta_parabolic_frozen_points():
    s = eta_from_parabolic(ParabolicPoint(1.0, 1.0, 0.0))
    assert s.c1 == 0.0 and s.c2 == SQRT2
    s = eta_from_parabolic(ParabolicPoint(1.0, 0.0, 0.0))
    assert s.c1 == INV_SQRT2 + 0.0j and s.c2 == INV_SQRT2 + 0.0j
    a, x = oracles.eta_bilinears(s)
    assert float(np.max(np.abs(x - [0.0, 0.0, 0.5]))) <= 1e-15
    assert float(np.max(np.abs(a - [0.0, 0.5, 0.0]))) <= 1e-15
    z = eta_from_parabolic(ParabolicPoint(0.0, 0.0, 0.0))
    assert z.c1 == 0.0 and z.c2 == 0.0


def test_point_validation():
    with pytest.raises(ValueError):
        SphericalPoint(-1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        SphericalPoint(1.0, 3.0 * math.pi, 0.0)
    with pytest.raises(ValueError):
        ParabolicPoint(-0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        xi_from_cartesian((1.0, 0.0, 0.0), sheet=0)
    with pytest.raises(ValueError):
        cartan_reflect(Spinor(1.0 + 0.0j, 0.0j), delta=2)


def test_points_reject_nonfinite_azimuth():
    # wrap_4pi(inf) has no value, so a non-finite azimuth must be caught before wrapping.
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="azimuth phi"):
            SphericalPoint(1.0, 0.5, bad)
        with pytest.raises(ValueError, match="azimuth phi"):
            ParabolicPoint(1.0, 0.5, bad)


def test_sheet_flag_negates():
    # Sheet -1, the phi + 2pi lift, is the sheet +1 spinor negated, bit for bit.
    rng = np.random.default_rng(21)
    points = np.concatenate([rng.uniform(-2.0, 2.0, size=(2000, 3)), _hard_points(rng)])
    for kernel, maker in ((sm.xi_cartesian, xi_from_cartesian),
                          (sm.eta_cartesian, eta_from_cartesian)):
        for v in points.tolist():
            plus, minus = maker(v, 1), maker(v, -1)
            assert (minus.c1, minus.c2) == (-plus.c1, -plus.c2)
        with np.errstate(over="ignore"):  # the squares of the largest points, rescaled after
            plus, minus = (sm.cartesian_columns(kernel, *points.T, sheet) for sheet in (1, -1))
        assert (minus == -plus).all()


def test_xi_keeps_rho_where_its_square_underflows():
    # r^2 is normal at both points, but rho^2 is not: 1e-400 underflows to 0, and
    # 2e-320 is subnormal, with five of its digits gone.
    s = xi_from_cartesian((1e-200, 0.0, 1.0))
    assert s.c2 == 7.071067811865475e-201
    assert project_xi(s)[1][0] == 1e-200
    x1, x2, _ = project_xi(xi_from_cartesian((1e-160, 1e-160, 1.0)))[1]
    assert abs(x1 / 1e-160 - 1.0) <= 4e-16 and abs(x2 / 1e-160 - 1.0) <= 4e-16


def test_squares_equal_to_min_normal_take_no_rerun():
    # rho^2 and r^2 equal to MIN_NORMAL are normal, on floats and on columns. At these
    # points the reruns would move bits, as the direct quotient or squares are subnormal.
    x = 2.0 ** -511  # rho^2 = MIN_NORMAL, and with x3 = 3, r + |x3| = 6
    assert x * x == MIN_NORMAL
    quotient = math.sqrt(MIN_NORMAL / 6.0)
    assert xi_from_cartesian((x, 0.0, 3.0)).c2 == quotient
    parts = sm.xi_cartesian(core.COLUMNS, np.array([x]), np.array([0.0]), np.array([3.0]), 1)
    assert _hex(np.ravel(parts[2:])) == _hex([quotient, 0.0])
    p = tuple(map(float.fromhex, ("-0x1.6a12f4da8bd49p-512", "0x1.0c7261b60bbb4p-513",
                                  "-0x1.50333550d75aap-512")))
    rho_sq = p[0] * p[0] + p[1] * p[1]
    assert rho_sq + p[2] * p[2] == MIN_NORMAL
    for magnitudes in (sm._xi_magnitudes, sm._eta_magnitudes):
        want = _hex(magnitudes(core.FLOATS, *p, rho_sq, math.sqrt(MIN_NORMAL)))
        assert _hex(sm._point_magnitudes(core.FLOATS, *p, magnitudes)) == want
        columns = [np.array([v]) for v in p]
        assert _hex(np.ravel(sm._point_magnitudes(core.COLUMNS, *columns, magnitudes))) == want


def test_xi_small_magnitude_against_exact_values_below_the_normal_rho_squared():
    # rho log-uniform over 1e-323..1e-154, where rho^2 underflows or goes subnormal,
    # and |x3| over 1e-150..1e150, where r^2 is normal. The component that carries rho,
    # c2 for x3 >= 0 and c1 below, against sqrt(rho^2 / (r + |x3|)) e^{-+i phi/2} at
    # 60 digits, relative to that magnitude where it is a normal double.
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 60
    rng = np.random.default_rng(71)
    worst, compared = 0.0, 0
    for _ in range(3000):
        rho = 10.0 ** rng.uniform(-323.0, -154.0)
        azimuth = rng.uniform(-math.pi, math.pi)
        x1, x2 = rho * math.cos(azimuth), rho * math.sin(azimuth)
        x3 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-150.0, 150.0)
        if x1 == x2 == 0.0:
            continue
        a, b, c = (mp.mpf(x) for x in (x1, x2, x3))
        rho_sq = a * a + b * b
        small = mp.sqrt(rho_sq / (mp.sqrt(rho_sq + c * c) + abs(c)))
        if small < MIN_NORMAL:
            continue
        half = mp.atan2(b, a) / 2
        s = xi_from_cartesian((x1, x2, x3))
        got, sign = (s.c2, 1) if x3 >= 0.0 else (s.c1, -1)
        worst = max(worst, float(max(abs(got.real - small * mp.cos(half)),
                                     abs(got.imag - sign * small * mp.sin(half))) / small))
        compared += 1
    assert compared >= 1500
    assert worst <= 2.0 ** -50, worst


# -------------------------------------------------------------- projections

def test_project_xi_frozen():
    r, x = project_xi(Spinor(SQRT2 + 0.0j, 0.0j))
    assert abs(r - 1.0) <= 1e-15 and float(np.max(np.abs(x - [0.0, 0.0, 1.0]))) <= 1e-15
    r, x = project_xi(Spinor(1.0 + 0.0j, 1.0 + 0.0j))
    assert abs(r - 1.0) <= 1e-15 and float(np.max(np.abs(x - [1.0, 0.0, 0.0]))) <= 1e-15
    r, x = project_xi(Spinor(0.0j, 0.0j))
    assert r == 0.0 and np.array_equal(x, np.zeros(3))


def test_project_xi_matches_bilinear_oracle():
    rng = np.random.default_rng(8)
    for _ in range(300):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        r, x = project_xi(s)
        ro, xo = oracles.xi_bilinears(s)
        assert abs(r - ro) <= 1e-13
        assert float(np.max(np.abs(x - xo))) <= 1e-13
        # Hopf norm holds for arbitrary spinors, not just constructor outputs
        assert abs(float(x @ x) - r * r) <= 1e-12 * max(1.0, r * r)


def test_project_eta_frozen():
    p = project_eta(Spinor(0.0j, SQRT2 + 0.0j))
    assert float(np.max(np.abs(p.a - [0.0, 1.0, 0.0]))) <= 1e-15
    assert float(np.max(np.abs(p.x - [1.0, 0.0, 0.0]))) <= 1e-15
    p = project_eta(Spinor(1.0 + 0.0j, 1.0 + 0.0j))
    assert float(np.max(np.abs(p.a - [0.0, 1.0, 0.0]))) <= 1e-15
    assert float(np.max(np.abs(p.x - [0.0, 0.0, 1.0]))) <= 1e-15
    p = project_eta(Spinor(0.0j, 0.0j))
    assert np.array_equal(p.a, np.zeros(3)) and np.array_equal(p.x, np.zeros(3))


def test_project_eta_matches_trace_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        p = project_eta(s)
        ao, xo = oracles.eta_bilinears(s)
        assert float(np.max(np.abs(p.a - ao))) <= 1e-13
        assert float(np.max(np.abs(p.x - xo))) <= 1e-13
        # unconditional identities of the decomposition
        scale = max(1.0, float(p.x @ p.x))
        assert abs(float(p.a @ p.a) - float(p.x @ p.x)) <= 1e-12 * scale
        assert abs(float(p.a @ p.x)) <= 1e-12 * scale
        half = 0.5 * s.norm_sq
        assert abs(float(p.x @ p.x) - half * half) <= 1e-12 * scale


def test_eta_quadruple_projection_routes():
    q = quadruple_from_spinor(eta_from_parabolic(ParabolicPoint(1.0, 1.0, 0.0)))
    assert scaled_residual(q.as_array(), np.array([0.0, 0.0, 0.0, SQRT2])) <= 1e-15
    p = eta_quadruple_projection(q)
    assert float(np.max(np.abs(p.x - [1.0, 0.0, 0.0]))) <= 1e-15
    z = eta_quadruple_projection(KSQuadruple(0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(z.a, np.zeros(3)) and np.array_equal(z.x, np.zeros(3))
    rng = np.random.default_rng(10)
    for _ in range(300):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        via_complex = project_eta(s)
        via_real = eta_quadruple_projection(quadruple_from_spinor(s))
        assert scaled_residual(via_complex.a, via_real.a) <= 1e-13
        assert scaled_residual(via_complex.x, via_real.x) <= 1e-13


def test_eta_quadruple_projection_rescales_overflowing_squares():
    # V1^2 + V4^2 = 2e308 overflows where x1 = -1e308 does not; project_eta rescales the same.
    q = KSQuadruple(1e154, 1e154, 0.0, 0.0)
    p, want = eta_quadruple_projection(q), project_eta(spinor_from_quadruple(q))
    assert p.x.tolist() == want.x.tolist() and p.a.tolist() == want.a.tolist()
    assert p.x[0] == -1e308
    with pytest.raises(OverflowError, match=r"^eta_quadruple_projection\(KSQuadruple\(q4=1e\+200"
                                            r".*bilinears leave the double range"):
        eta_quadruple_projection(KSQuadruple(1e200, 1e200, 0.0, 0.0))


def test_eta_quadruple_projection_is_finite_over_the_double_range():
    # Log-uniform magnitudes from 1e-300 to 1e300, and from 1e152 to 2e154, where squares
    # overflow and the bilinears need not: every result is finite and agrees with
    # project_eta, or both routes raise OverflowError.
    rng = np.random.default_rng(73)
    mags = np.concatenate([rng.uniform(-300.0, 300.0, (2000, 4)),
                           rng.uniform(152.0, 154.3, (500, 4))])
    rows = rng.choice([-1.0, 1.0], size=mags.shape) * 10.0 ** mags
    outcomes = Counter()
    for row in rows.tolist():
        q = KSQuadruple(*row)
        try:
            want = project_eta(spinor_from_quadruple(q))
        except OverflowError:
            outcomes["raised"] += 1
            with pytest.raises(OverflowError):
                eta_quadruple_projection(q)
            continue
        p, kernel = eta_quadruple_projection(q), sm.eta_quadruple_bilinears(*row)
        assert np.isfinite(p.a).all() and np.isfinite(p.x).all()
        assert scaled_residual((*p.a, *p.x), (*want.a, *want.x)) <= 1e-15
        if all(map(math.isfinite, kernel)):  # in range: the kernel's bits
            assert [v.hex() for v in (*p.a, *p.x)] == [v.hex() for v in kernel]
            outcomes["in range"] += 1
        else:
            outcomes["rescaled"] += 1
    assert min(outcomes["raised"], outcomes["rescaled"], outcomes["in range"]) >= 50

def test_top_of_range_keeps_the_entries_that_did_not_overflow():
    # c1's square overflows, but x2 = c1r c2i and a3 = -c1r c2i are small doubles.
    s = Spinor(1.5e154, 1e-200j)
    small = 1.5e154 * 1e-200
    r, x = project_xi(s)
    assert x[1] == small and r == pytest.approx(1.125e308, rel=1e-15)
    p, q = project_eta(s), eta_quadruple_projection(quadruple_from_spinor(s))
    assert p.a[2] == q.a[2] == -small
    assert [v.hex() for v in (*p.a, *p.x)] == [v.hex() for v in (*q.a, *q.x)]


def _top_band(rng, n):
    """n spinors' real parts: one in [1.34e154, 1.9e154], whose square overflows, the
    other three log-uniform over 1e-300..1e154, all with random signs."""
    parts = 10.0 ** rng.uniform(-300.0, 154.0, (n, 4))
    parts[np.arange(n), rng.integers(0, 4, n)] = rng.uniform(1.34e154, 1.9e154, n)
    return parts * rng.choice([-1.0, 1.0], size=(n, 4))


def _fixed(x):
    """The double x times 2^2150 as an exact integer: the scale at which the bilinears
    of doubles times 2^1075, halved, are integers."""
    n, d = x.as_integer_ratio()
    return n << (2151 - d.bit_length())


def _exact_projections(c1r, c1i, c2r, c2i):
    """project_xi, project_eta (also eta_quadruple_projection) and the constraint of the
    quadruple_from_spinor, each entry exact, times 2^2150, as an integer."""
    a, b, c, d = (_fixed(x) >> 1075 for x in (c1r, c1i, c2r, c2i))
    n1, n2 = a * a + b * b, c * c + d * d
    xi = ((n1 + n2) >> 1, a * c + b * d, a * d - b * c, (n1 - n2) >> 1)
    eta = (a * b - c * d, (a * a - b * b + c * c - d * d) >> 1, -(a * d + b * c),
           (c * c - d * d - a * a + b * b) >> 1, a * b + c * d, a * c - b * d)
    return xi, eta, eta, (a * d + b * c,)


def _entries(out):
    """The floats of a projection or a residual: (r, *x), (*a, *x) or (residual,)."""
    if isinstance(out, float):
        return (out,)
    if isinstance(out, tuple):
        return (out[0], *out[1])
    return (*out.a, *out.x)


def test_top_of_range_projections_against_exact_values():
    # Each entry against its exact value: no entry returned as 0.0 whose exact value is
    # at least 2^-1074, a relative error of at most 1e-15 where the exact value is a
    # normal double, and OverflowError where an entry is past the largest double.
    wrong_zeros, worst, outcomes = Counter(), Counter(), Counter()
    for row in _top_band(np.random.default_rng(26), 3000).tolist():
        s = Spinor(complex(row[0], row[1]), complex(row[2], row[3]))
        q = quadruple_from_spinor(s)
        calls = [(project_xi, s), (project_eta, s), (eta_quadruple_projection, q),
                 (xi_constraint_residual, q)]
        for (function, argument), exact in zip(calls, _exact_projections(*row)):
            name = function.__name__
            if max(map(abs, exact)) > _fixed(DBL_MAX):
                with pytest.raises(OverflowError, match=f"^{name}\\("):
                    function(argument)
                outcomes[name, "raised"] += 1
                continue
            outcomes[name, "returned"] += 1
            for got, want in zip(_entries(function(argument)), exact):
                if got == 0.0 and abs(want) >= _fixed(TINY):
                    wrong_zeros[name] += 1
                elif abs(want) >= _fixed(MIN_NORMAL):
                    worst[name] = max(worst[name], abs(_fixed(got) - want) / abs(want))
    assert wrong_zeros == Counter()
    assert max(worst.values()) <= 1e-15, worst
    # The top of the band passes the range: (1.9e154)^2 / 2 > 1.8e308.
    assert min(outcomes.values()) >= 10 and len(outcomes) == 7, outcomes


def test_both_eta_routes_give_the_same_vanishing_a3():
    # project_eta's a3 = -(h1r h2i + h1i h2r) and the quadruple route's -(V1 V4 + V2 V3)
    # are the same sum: a vanishing a3 has one sign on both routes.
    vanishing = []
    for record in generate_fixtures(700, 3):
        if record["model"] == "eta":
            (c1r, c1i), (c2r, c2i) = record["spinor"]
            s = Spinor(complex(c1r, c1i), complex(c2r, c2i))
            a3 = project_eta(s).a[2]
            if a3 == 0.0:
                other = eta_quadruple_projection(quadruple_from_spinor(s)).a[2]
                vanishing.append((a3.hex(), other.hex()))
    assert len(vanishing) == 162
    assert [a for a, _ in vanishing] == [b for _, b in vanishing]


def test_constraint_reruns_what_overflowed_and_raises_past_the_range():
    # U1 U4 = inf and U2 U3 = -inf: the exact value is 0.
    assert xi_constraint_residual(KSQuadruple(1e200, 1e200, -1e200, 1e200)) == 0.0
    # 1e400 is past the largest double.
    with pytest.raises(OverflowError, match=r"^xi_constraint_residual\(KSQuadruple\(q4=1e\+200"
                                            r".*leave the double range, past 1.8e308$"):
        xi_constraint_residual(KSQuadruple(1e200, 1e200, 1e-200, 1e-200))


def test_bridges_at_the_top_of_the_range_against_exact_values():
    # The sums of two parts near 1e308 overflow where their quotients by sqrt(2) need
    # not: each part against (sum) INV_SQRT2 exact, or ValueError past the range.
    for bridge, s in ((eta_from_xi, Spinor(1.2e308, -1.2e308)),
                      (xi_from_eta, Spinor(1.2e308, 1.2e308))):
        out = bridge(s)
        assert out.c1.real == pytest.approx(1.2e308 * SQRT2, rel=1e-15) and out.c2 == 0.0
    rng = np.random.default_rng(27)
    parts = rng.uniform(0.5e308, DBL_MAX, (400, 4)) * rng.choice([-1.0, 1.0], size=(400, 4))
    parts[:100, 1:] = rng.uniform(-1.0, 1.0, (100, 3))
    outcomes = Counter()
    k = Fraction(INV_SQRT2)
    for a, b, c, d in parts.tolist():
        s = Spinor(complex(a, b), complex(c, d))
        x = list(map(Fraction, (a, b, c, d)))
        for name, bridge, signs in (("eta_from_xi", eta_from_xi, (-1, 1, 1, -1)),
                                    ("xi_from_eta", xi_from_eta, (1, -1, -1, 1))):
            # eta = ((a - c, b + d), (c + a, d - b)) k; xi = ((a + c, b - d), (c - a, d + b)) k
            first, second = (x[0], x[1], x[2], x[3]), (x[2], x[3], x[0], x[1])
            exact = [(p + sign * q) * k for p, q, sign in zip(first, second, signs)]
            if max(map(abs, exact)) > DBL_MAX:
                with pytest.raises(ValueError, match=f"^{name}\\(Spinor.*components leave"):
                    bridge(s)
                outcomes[name, "raised"] += 1
                continue
            got = _parts(bridge(s))
            outcomes[name, "returned"] += 1
            for g, e in zip(got, exact):
                assert abs(Fraction(g) - e) <= 1e-15 * abs(e) or abs(e) < MIN_NORMAL
    assert min(outcomes.values()) >= 50 and len(outcomes) == 4, outcomes


def test_constraint_residuals_frozen():
    q = quadruple_from_spinor(xi_from_cartesian((3.0, 4.0, 5.0)))
    assert abs(xi_constraint_residual(q)) <= 1e-12
    assert xi_constraint_residual(KSQuadruple(0.0, 1.0, 0.0, 0.0)) == 0.0
    assert xi_constraint_residual(KSQuadruple(1.0, 1.0, 0.0, 0.0)) == 1.0
    rng = np.random.default_rng(14)
    for _ in range(200):
        v = tuple(rng.uniform(-3.0, 3.0, size=3))
        qx = quadruple_from_spinor(xi_from_cartesian(v))
        qe = quadruple_from_spinor(eta_from_cartesian(v))
        scale = max(1.0, qx.norm_sq)
        assert abs(xi_constraint_residual(qx)) <= 1e-13 * scale
        assert abs(xi_constraint_residual(qe)) <= 1e-13 * scale
        # the V-constraint is exactly -a3 of the bilinear decomposition
        p = eta_quadruple_projection(qe)
        assert abs(xi_constraint_residual(qe) + p.a[2]) <= 1e-13 * scale


def test_phase_rotate_invariance_and_residual_law():
    s = Spinor(1.0 + 0.0j, 1.0 + 0.0j)
    assert phase_rotate(s, 0.0) == s
    # the four alpha values that preserve the constraint
    for alpha in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        moved = phase_rotate(s, alpha)
        assert abs(xi_constraint_residual(quadruple_from_spinor(moved))
                   - math.sin(2.0 * alpha)) <= 5e-16
    moved = phase_rotate(s, 0.25 * math.pi)
    assert abs(xi_constraint_residual(quadruple_from_spinor(moved)) - 1.0) <= 1e-15
    rng = np.random.default_rng(15)
    for _ in range(200):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        alpha = float(rng.uniform(-7.0, 7.0))
        moved = phase_rotate(s, alpha)
        r0, x0 = project_xi(s)
        r1, x1 = project_xi(moved)
        assert abs(r0 - r1) <= 1e-13 * max(1.0, r0)
        assert scaled_residual(x0, x1) <= 1e-13
        # the constraint drifts by the A-law: sin(2a) drift + cos(2a) base
        q = quadruple_from_spinor(s)
        drift = q.q1 * q.q3 - q.q2 * q.q4
        base = xi_constraint_residual(q)
        predicted = math.sin(2.0 * alpha) * drift + math.cos(2.0 * alpha) * base
        got = xi_constraint_residual(quadruple_from_spinor(moved))
        assert abs(got - predicted) <= 1e-13 * max(1.0, abs(got), abs(predicted))


def test_cartan_reflect_parity():
    s = cartan_reflect(Spinor(1.0 + 0.0j, 1.0 + 0.0j), 1)
    assert s.c1 == 1.0j and s.c2 == 1.0j
    e = cartan_reflect(Spinor(0.0j, SQRT2 + 0.0j), 1)
    assert e.c1 == 0.0 and e.c2 == complex(0.0, SQRT2)
    p = project_eta(e)
    assert float(np.max(np.abs(p.a - [0.0, -1.0, 0.0]))) <= 1e-15
    assert float(np.max(np.abs(p.x - [-1.0, 0.0, 0.0]))) <= 1e-15
    z = cartan_reflect(Spinor(0.0j, 0.0j), -1)
    assert z.c1 == 0.0 and z.c2 == 0.0
    rng = np.random.default_rng(16)
    for _ in range(200):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        refl = cartan_reflect(s, -1 if rng.integers(0, 2) else 1)
        r0, x0 = project_xi(s)
        r1, x1 = project_xi(refl)
        assert abs(r0 - r1) <= 1e-13 * max(1.0, r0) and scaled_residual(x0, x1) <= 1e-13
        p0, p1 = project_eta(s), project_eta(refl)
        assert scaled_residual(p1.a, -p0.a) <= 1e-13
        assert scaled_residual(p1.x, -p0.x) <= 1e-13


# ------------------------------------------------------- round trips, sheets

def test_construct_project_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(500):
        v = tuple(rng.uniform(-2.0, 2.0, size=3))
        sheet = -1 if rng.integers(0, 2) else 1
        rv = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        r, x = project_xi(xi_from_cartesian(v, sheet))
        assert abs(r - rv) <= 1e-13 * max(1.0, rv)
        assert scaled_residual(x, np.array(v)) <= 1e-13
        p = project_eta(eta_from_cartesian(v, sheet))
        assert scaled_residual(p.x, np.array(v)) <= 1e-13


def test_coordinate_agreement_off_poles():
    # componentwise agreement is a mid-chart statement; poles are covered by
    # the round-trip test above
    rng = np.random.default_rng(18)
    for _ in range(200):
        r = float(rng.uniform(0.1, 3.0))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(-math.pi + 1e-6, math.pi))
        sp = SphericalPoint(r, theta, phi)
        ct, st = math.cos(theta), math.sin(theta)
        cart = (r * st * math.cos(phi), r * st * math.sin(phi), r * ct)
        pp = ParabolicPoint(math.sqrt(r * (1.0 + ct)), math.sqrt(r * (1.0 - ct)), phi)
        for a, b in ((xi_from_spherical(sp), xi_from_cartesian(cart)),
                     (xi_from_parabolic(pp), xi_from_spherical(sp)),
                     (eta_from_spherical(sp), eta_from_cartesian(cart)),
                     (eta_from_parabolic(pp), eta_from_spherical(sp))):
            assert close(a.c1, b.c1, 1e-13) and close(a.c2, b.c2, 1e-13)


def test_round_trip_over_the_double_range():
    # At most of these magnitudes the squares overflow, underflow or go subnormal.
    rng = np.random.default_rng(21)
    units = [d / np.linalg.norm(d) for d in rng.normal(size=(24, 3))]
    units += [np.array(d) for d in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                                    (0.6, -0.8, 0.0), (0.0, -0.0, 1e-20), (0.0, 1.0, 0.0),
                                    (-0.0, -0.6, 0.8))]
    for k in [*range(-1000, 1001, 40), 1023]:
        for n in units:
            v = tuple(np.ldexp(n, k).tolist())
            for sheet in (1, -1):
                r, x = project_xi(xi_from_cartesian(v, sheet))
                eta = project_eta(eta_from_cartesian(v, sheet))
                assert abs(math.ldexp(r, -k) - float(np.linalg.norm(n))) <= 1e-14
                assert np.max(np.abs(np.ldexp(x, -k) - n)) <= 1e-14
                assert np.max(np.abs(np.ldexp(eta.x, -k) - n)) <= 1e-14
    tiny = (5e-324, 0.0, 0.0)
    for sheet in (1, -1):
        assert tuple(project_xi(xi_from_cartesian(tiny, sheet))[1]) == tiny
        assert tuple(project_eta(eta_from_cartesian(tiny, sheet)).x) == tiny
    # The spinor squares of these points overflow; compare with the points times 2^-100.
    for v in ((1.7e308, 0.0, 0.0), (1e308, 1e308, 0.0)):
        low = tuple(math.ldexp(c, -100) for c in v)
        r, x = project_xi(xi_from_cartesian(v))
        assert scaled_residual(r, math.ldexp(project_xi(xi_from_cartesian(low))[0], 100)) <= 1e-15
        assert scaled_residual(x, v) <= 1e-15
        p = project_eta(eta_from_cartesian(v))
        assert scaled_residual(p.x, v) <= 1e-15
        assert scaled_residual(p.a, np.ldexp(project_eta(eta_from_cartesian(low)).a, 100)) <= 1e-15


def test_double_cover_of_constructors():
    rng = np.random.default_rng(19)
    for _ in range(200):
        r = float(rng.uniform(0.1, 3.0))
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        n_par = math.sqrt(r * (1.0 + math.cos(theta)))
        m_par = math.sqrt(r * (1.0 - math.cos(theta)))
        for build in (lambda p: xi_from_spherical(SphericalPoint(r, theta, p)),
                      lambda p: eta_from_spherical(SphericalPoint(r, theta, p)),
                      lambda p: xi_from_parabolic(ParabolicPoint(n_par, m_par, p)),
                      lambda p: eta_from_parabolic(ParabolicPoint(n_par, m_par, p))):
            base = build(phi)
            other = build(phi + 2.0 * math.pi)
            again = build(phi + 4.0 * math.pi)
            scale = max(1.0, abs(base.c1), abs(base.c2))
            assert abs(other.c1 + base.c1) <= 1e-13 * scale
            assert abs(other.c2 + base.c2) <= 1e-13 * scale
            assert abs(again.c1 - base.c1) <= 1e-13 * scale
            assert abs(again.c2 - base.c2) <= 1e-13 * scale


# ------------------------------------------------------------------ bridges

def test_eta_from_xi_frozen():
    e = eta_from_xi(Spinor(1.0 + 0.0j, 1.0 + 0.0j))
    assert close(e.c1, 0.0) and close(e.c2, SQRT2)
    e = eta_from_xi(Spinor(SQRT2 + 0.0j, 0.0j))
    assert close(e.c1, 1.0) and close(e.c2, 1.0)
    z = eta_from_xi(Spinor(0.0j, 0.0j))
    assert z.c1 == 0.0 and z.c2 == 0.0


def test_xi_from_eta_frozen():
    s = xi_from_eta(Spinor(0.0j, SQRT2 + 0.0j))
    assert close(s.c1, 1.0) and close(s.c2, 1.0)
    z = xi_from_eta(Spinor(0.0j, 0.0j))
    assert z.c1 == 0.0 and z.c2 == 0.0


def test_bridge_involution():
    rng = np.random.default_rng(20)
    for _ in range(500):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        t = xi_from_eta(eta_from_xi(s))
        u = eta_from_xi(xi_from_eta(s))
        scale = max(1.0, abs(s.c1), abs(s.c2))
        assert abs(t.c1 - s.c1) <= 1e-14 * scale and abs(t.c2 - s.c2) <= 1e-14 * scale
        assert abs(u.c1 - s.c1) <= 1e-14 * scale and abs(u.c2 - s.c2) <= 1e-14 * scale


def test_bridge_consistency_with_projections():
    # the same point seen by both models: xi projection x equals eta projection x
    rng = np.random.default_rng(22)
    for _ in range(200):
        v = tuple(rng.uniform(-2.0, 2.0, size=3))
        xi, eta = xi_from_cartesian(v), eta_from_cartesian(v)
        bridged = eta_from_xi(xi)
        p_direct = project_eta(eta)
        p_bridged = project_eta(bridged)
        assert scaled_residual(p_direct.x, p_bridged.x) <= 1e-13
        assert scaled_residual(p_direct.a, p_bridged.a) <= 1e-13


def _sheets(system, rng):
    """The xi and eta constructors of a coordinate system and their arguments at one
    random point, once per sheet: the sheet flag, or the azimuth and its 2pi lift."""
    if system == "cartesian":
        v = tuple(rng.uniform(-2.0, 2.0, size=3))
        return xi_from_cartesian, eta_from_cartesian, [(v, 1), (v, -1)]
    phi = rng.uniform(-math.pi, math.pi)
    if system == "spherical":
        point, first = SphericalPoint, (rng.uniform(0.0, 2.0), rng.uniform(0.0, math.pi))
        makers = xi_from_spherical, eta_from_spherical
    else:
        point, first = ParabolicPoint, tuple(rng.uniform(0.0, 2.0, size=2))
        makers = xi_from_parabolic, eta_from_parabolic
    return (*makers, [(point(*first, phi + lift),) for lift in (0.0, 2.0 * math.pi)])


@pytest.mark.parametrize("system", ["cartesian", "spherical", "parabolic"])
def test_bridge_carries_each_xi_constructor_to_its_eta_constructor(system):
    # eta_from_xi(xi_from_X(p)) is eta_from_X(p) as spinors, on both sheets.
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(1000):
        xi_maker, eta_maker, sheets = _sheets(system, rng)
        for args in sheets:
            worst = max(worst, scaled_residual(_parts(eta_from_xi(xi_maker(*args))),
                                               _parts(eta_maker(*args))))
    assert worst <= 2.0 ** -49, worst


def test_s_bridge_is_the_literal_bridge_matrix():
    # The matrix rotation_algebra reads, built from u_to_v_entries, bit for bit.
    literal = INV_SQRT2 * np.array([
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    assert sm.S_BRIDGE.shape == (4, 4) and sm.S_BRIDGE.dtype == np.float64
    assert sm.S_BRIDGE.view(np.uint64).tolist() == literal.view(np.uint64).tolist()


def test_u_to_v_matches_componentwise_bridge():
    assert scaled_residual(u_to_v(KSQuadruple(0.0, 1.0, 0.0, 1.0)).as_array(),
                           np.array([0.0, 0.0, 0.0, SQRT2])) <= 1e-15
    z = u_to_v(KSQuadruple(0.0, 0.0, 0.0, 0.0))
    assert z.as_tuple() == (0.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(23)
    for _ in range(500):
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        q = quadruple_from_spinor(s)
        # two independent arithmetic routes to the same quadruple
        via_matrix = u_to_v(q).as_array()
        via_complex = quadruple_from_spinor(eta_from_xi(s)).as_array()
        assert scaled_residual(via_matrix, via_complex) <= 1e-14


# ----------------------------------------------------------- column kernels

def _parts(s):
    return s.c1.real, s.c1.imag, s.c2.real, s.c2.imag


def _hard_points(rng):
    """Uniform draws, oracles.hard_directions, axis points with signed zeros,
    the origin, log-uniform magnitudes 2^-1074 .. 2^1023, the top of the range,
    and points whose rho^2 leaves the normal range where r^2 does not."""
    points = list(rng.uniform(-2.0, 2.0, size=(400, 3)))
    points += oracles.hard_directions(rng, 300)
    zeros = (0.0, -0.0)
    points += [np.array([a, b, c]) for a in zeros for b in zeros
               for c in (*zeros, 1.5, -1.5, 5e-324, -5e-324, 1e300, -1e-300)]
    d = rng.normal(size=(600, 3))
    d /= np.max(np.abs(d), axis=1, keepdims=True)
    points += list(np.ldexp(d, rng.integers(-1074, 1024, size=(600, 1))))
    points += [np.array(v) for v in ((1.7e308, 0.0, 0.0), (1e308, 1e308, 0.0),
                                     (-1e308, 0.0, -1e308))]
    # rho^2 under the normal range where r^2 is normal.
    points += [np.array(v) for v in ((1e-200, 0.0, 1.0), (1e-160, -1e-160, -1.0),
                                     (-5e-324, -0.0, 3.0), (-2e-170, 7e-180, 1e100))]
    return np.array(points)


def _hard_spinors(rng):
    """Gaussian spinors, log-uniform magnitudes, spinors whose squares overflow
    (project_xi and project_eta rescale them), and signed zeros."""
    unit = rng.normal(size=(200, 4))
    unit /= np.sqrt(np.sum(unit * unit, axis=1, keepdims=True))
    signed = [[a, b, c, d] for a in (0.0, -0.0) for b in (0.0, -0.0, 1.0)
              for c in (0.0, -0.0) for d in (0.0, -0.0, -2.0)]
    return np.concatenate([rng.normal(size=(400, 4)),
                           np.ldexp(rng.normal(size=(400, 4)), rng.integers(-1074, 500, (400, 1))),
                           1.85e154 * unit, signed])


@pytest.mark.parametrize("kernel, scalar", [(sm.xi_cartesian, xi_from_cartesian),
                                            (sm.eta_cartesian, eta_from_cartesian)],
                         ids=["xi", "eta"])
def test_cartesian_columns_match_the_scalar_rows(kernel, scalar):
    points = _hard_points(np.random.default_rng(31))
    points = np.concatenate([points, points])
    sheets = np.repeat([1, -1], len(points) // 2)
    rows = [_parts(scalar(v, sheet)) for v, sheet in zip(points.tolist(), sheets.tolist())]
    with np.errstate(over="ignore"):  # the squares of the largest points, rescaled after
        columns = sm.cartesian_columns(kernel, *points.T, sheets)
    oracles.assert_rows_equal(columns, rows)


@pytest.mark.parametrize("point_type, kernel, scalar", [
    (SphericalPoint, sm.xi_spherical, xi_from_spherical),
    (SphericalPoint, sm.eta_spherical, eta_from_spherical),
    (ParabolicPoint, sm.polar, xi_from_parabolic),
    (ParabolicPoint, sm.eta_parabolic, eta_from_parabolic),
], ids=["xi-spherical", "eta-spherical", "xi-parabolic", "eta-parabolic"])
def test_polar_columns_match_the_scalar_rows(point_type, kernel, scalar):
    rng = np.random.default_rng(32)
    n = 600
    size = np.concatenate([rng.uniform(0.0, 3.0, n),
                           np.ldexp(rng.random(n), rng.integers(-1074, 1025, n))])
    # The top of the range, where 2 r and N + M overflow: parabolic rows pair
    # size with size[::-1], so these give (1e308, 1e308), (DBL_MAX, 0) and the like.
    size[[0, 1, 2, -3, -2, -1]] = (1e308, DBL_MAX, 2.0 ** 1023, 1e308, 0.0, 1e308)
    second = rng.uniform(0.0, math.pi, 2 * n) if point_type is SphericalPoint else size[::-1]
    phi = rng.uniform(-20.0, 20.0, 2 * n)
    phi[:8] = (0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi, 1e-300)
    points = [point_type(*row) for row in zip(size.tolist(), second.tolist(), phi.tolist())]
    stored = np.array([[getattr(p, f) for f in p.__slots__] for p in points]).T
    with np.errstate(over="ignore"):  # 2 r and N + M of the top rows, taken in halves after
        columns = kernel(sm.COLUMNS, *stored)
    oracles.assert_rows_equal(columns, [_parts(scalar(p)) for p in points])


def test_top_of_range_spherical_and_parabolic_points():
    # 2 r and N + M overflow here, though each spinor lies inside the double range.
    for r in (1e308, 2.0 ** 1023, DBL_MAX):
        xi = xi_from_spherical(SphericalPoint(r, 1.0, 0.0))
        root = 2.0 * math.sqrt(0.5 * r)
        assert close(xi.c1.real / root, math.cos(0.5), 1e-15)
        assert close(xi.c2.real / root, math.sin(0.5), 1e-15)
        assert project_xi(xi)[0] == pytest.approx(r, rel=1e-15)
    for n, m in ((1e308, 1e308), (2.0 ** 1023, 1e308)):
        eta = eta_from_parabolic(ParabolicPoint(n, m, 0.0))
        assert eta.c2.real == pytest.approx((0.5 * n + 0.5 * m) / INV_SQRT2, rel=1e-15)
        assert eta.c1.real == pytest.approx((n - m) * INV_SQRT2, rel=1e-15)


def test_spinor_columns_match_the_scalar_rows():
    s = _hard_spinors(np.random.default_rng(33))
    spinors = [Spinor(complex(a, b), complex(c, d)) for a, b, c, d in s.tolist()]
    quads = [quadruple_from_spinor(t) for t in spinors]
    alpha = np.random.default_rng(34).uniform(-8.0, 8.0, len(s))
    alpha[:3] = (0.0, -0.0, math.pi)
    delta = np.where(np.arange(len(s)) % 2 == 0, 1.0, -1.0)
    # The spinors near 1.85e154 overflow their squares: the projections rescale
    # them, and the quadruple kernel and the constraint overflow as their scalar rows
    # do. eta_quadruple_projection and xi_constraint_residual rescale those rows after
    # the kernel, and keep its bits on every other row
    # (test_eta_quadruple_projection_is_finite_over_the_double_range).
    with np.errstate(over="ignore", invalid="ignore"):
        cases = _spinor_cases(s, spinors, quads, alpha, delta)
    for columns, rows in cases:
        oracles.assert_rows_equal(columns, rows)


def _spinor_cases(s, spinors, quads, alpha, delta):
    q = (s[:, 3], s[:, 0], s[:, 1], s[:, 2])
    return [
        (sm.xi_bilinears(sm.COLUMNS, *s.T), [(r, *x) for r, x in map(project_xi, spinors)]),
        (sm.eta_bilinears(sm.COLUMNS, *s.T), [(*p.a, *p.x) for p in map(project_eta, spinors)]),
        (sm.eta_quadruple_bilinears(*q),
         [sm.eta_quadruple_bilinears(*t.as_tuple()) for t in quads]),
        (sm.eta_of_xi(*s.T), [_parts(eta_from_xi(t)) for t in spinors]),
        (sm.xi_of_eta(*s.T), [_parts(xi_from_eta(t)) for t in spinors]),
        (sm.u_to_v_entries(*q), [u_to_v(t).as_tuple() for t in quads]),
        (sm.phase_rotated(sm.COLUMNS, alpha, *s.T),
         [_parts(phase_rotate(t, a)) for t, a in zip(spinors, alpha.tolist())]),
        (sm.cartan_reflected(delta, *s.T),
         [_parts(cartan_reflect(t, int(d))) for t, d in zip(spinors, delta.tolist())]),
        ([sm.hopf_constraint(*q)], [(sm.hopf_constraint(*t.as_tuple()),) for t in quads]),
    ]


def _hex(values):
    return [float(v).hex() for v in values]


def test_kernels_keep_the_bits_of_complex_arithmetic():
    # The closed forms again in Python's complex arithmetic, on components full of
    # signed zeros: each output is == to it. Its float-by-complex products add
    # 0.0 terms, so the signs of zeros are pinned to the own-term formulas, in
    # which a real or imaginary factor multiplies only the parts it meets.
    values = (0.0, -0.0, 1.5, -2.0)
    k = INV_SQRT2
    for a, b, c, d in itertools.product(values, repeat=4):
        h1, h2 = complex(a, b), complex(c, d)
        s = Spinor(h1, h2)
        w = (complex(0.0, -0.5) * (h1 * h1 - h2 * h2), 0.5 * (h1 * h1 + h2 * h2),
             complex(0.0, 1.0) * (h1 * h2))
        dif, tot, prod = h1 * h1 - h2 * h2, h1 * h1 + h2 * h2, h1 * h2
        own = [0.5 * dif.imag, 0.5 * tot.real, -prod.imag, -0.5 * dif.real, 0.5 * tot.imag,
               prod.real]
        p = project_eta(s)
        assert [*p.a, *p.x] == [z.real for z in w] + [z.imag for z in w]
        assert _hex([*p.a, *p.x]) == _hex(own)
        cross = h1.conjugate() * h2
        assert _hex(project_xi(s)[1][:2]) == _hex([cross.real, cross.imag])
        bridges = [(eta_from_xi(s), (h1 - h2.conjugate()) * k, (h2 + h1.conjugate()) * k),
                   (xi_from_eta(s), (h1 + h2.conjugate()) * k, (h2 - h1.conjugate()) * k)]
        for got, z1, z2 in bridges:
            assert _parts(got) == (z1.real, z1.imag, z2.real, z2.imag)
        own_bridges = [(a - c) * k, (b + d) * k, (c + a) * k, (d - b) * k,
                       (a + c) * k, (b - d) * k, (c - a) * k, (d + b) * k]
        assert _hex(_parts(bridges[0][0]) + _parts(bridges[1][0])) == _hex(own_bridges)
        for delta in (1, -1):
            got = _parts(cartan_reflect(s, delta))
            z1, z2 = complex(0.0, delta) * h1, complex(0.0, delta) * h2
            assert got == (z1.real, z1.imag, z2.real, z2.imag)
            assert _hex(got) == _hex([-delta * b, delta * a, -delta * d, delta * c])
        for alpha in (0.0, -0.0, 0.5 * math.pi, math.pi, -1.0):
            phase = cmath.exp(complex(0.0, alpha))
            z1, z2 = phase * h1, phase * h2
            got = _parts(phase_rotate(s, alpha))
            assert _hex(got) == _hex([z1.real, z1.imag, z2.real, z2.imag])
    for n, m, phi in itertools.product((0.0, -0.0, 1.5), (0.0, 2.0), (0.0, -0.0, 2.0, -3.0, 7.0)):
        p = ParabolicPoint(n, m, phi)
        h = 0.5 * p.phi
        em, ep = complex(math.cos(h), -math.sin(h)), complex(math.cos(h), math.sin(h))
        got = _parts(xi_from_parabolic(p))
        assert got == _parts(Spinor(p.N * em, p.M * ep))
        assert _hex(got) == _hex([p.N * em.real, p.N * em.imag, p.M * ep.real, p.M * ep.imag])


def test_rotation_kernel_keeps_the_bits_of_complex_arithmetic():
    # rotate_spinor's kernel against CPython's complex products, with every
    # component drawn from signed zeros and two magnitudes.
    values = (0.0, -0.0, 1.5, -2.0)
    grid = np.array(list(itertools.product(values, repeat=8))).T
    c4, c1, c2, c3, *z = grid
    rows = []
    for a4, a1, a2, a3, z1r, z1i, z2r, z2i in grid.T.tolist():
        z1, z2 = complex(z1r, z1i), complex(z2r, z2i)
        top = complex(a4, -a3) * z1 + complex(-a2, -a1) * z2
        bottom = complex(a2, -a1) * z1 + complex(a4, a3) * z2
        rows.append((top.real, top.imag, bottom.real, bottom.imag))
    oracles.assert_rows_equal(ra.rotated((c4, c1, c2, c3), *z), rows)
    for row, want in zip(grid.T.tolist()[::257], rows[::257]):
        assert _hex(ra.rotated(row[:4], *row[4:])) == _hex(want)


def test_eta_from_parabolic_past_the_double_range_names_point_and_limit():
    # (N + M) / sqrt(2) passes the largest double, though N and M do not.
    for point in (ParabolicPoint(DBL_MAX, DBL_MAX, 0.0), ParabolicPoint(DBL_MAX, 1e308, 2.0)):
        with pytest.raises(ValueError) as raised:
            eta_from_parabolic(point)
        message = str(raised.value)
        assert message.startswith(f"eta_from_parabolic({point!r})")
        assert "double range" in message and "1.8e308" in message


def test_projections_raise_past_the_double_range():
    # Bilinears of about 5e599 have no double; both projections say so alike.
    big = Spinor(complex(1e300, 0.0), 0.0j)
    for project in (project_xi, project_eta):
        with pytest.raises(OverflowError):
            project(big)


def test_projections_past_the_double_range_name_input_and_limit():
    big = Spinor(complex(1e300, 0.0), 0.0j)
    for project in (project_xi, project_eta):
        with pytest.raises(OverflowError) as raised:
            project(big)
        message = str(raised.value)
        assert message.startswith(f"{project.__name__}({big!r})")
        assert "double range" in message and "1.8e308" in message


# "np.linalg" stands for every call of it: the walk visits the np.linalg of each.
_INEXACT = {"np.arctan2", "np.hypot", "np.exp", "np.linalg", "np.matmul", "np.dot", "np.einsum"}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _is_complex_dtype(node):
    # complex, np.complex128 and the like, a complex literal, or a dtype string such as "c16".
    name = _dotted(node)
    if name is not None:
        value = complex if name == "complex" else None
        if name.startswith("np."):
            value = getattr(np, name[3:], None)
        return isinstance(value, type) and issubclass(value, (complex, np.complexfloating))
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str) and node.value.isidentifier():
            try:
                return np.dtype(node.value).kind == "c"
            except TypeError:
                return False
        return isinstance(node.value, complex)
    return False


# The column code outside spinor_maps: core's kernels and its COLUMNS namespace,
# and the kernels of rotation_algebra, ks_covariance and gauge_fixing.
_KERNELS = (core.unit4, core.qmul, core.axis4, core.conjugate4, core.su2_parts, core.polar,
            core.stacked, ra.so3_entries, ra.trace_so3_entries, ra.real4_entries,
            ra.linear_system_entries, ra.vector_parameter_entries, ra.chart_scaled, ra.chart4,
            ra.chart_so3, ra.plane_entries, ra.rotated, ra.real4_fit,
            ks.unit_ks, ks.hat4, ks.direction4, ks.symmetry4, ks.frame4,
            ks.turned3, gf.psi_parts, gf.gauge_plus4, gf.swap4, gf.canonical4,
            gf.canonical_plus4, gf.between4, gf.stabilizer_solve)


def _column_code():
    core_tree = ast.parse(Path(core.__file__).read_text())
    namespace = [ast.unparse(n) for n in core_tree.body if isinstance(n, ast.Assign)
                 and {"COLUMNS", "_atan2", "_hypot"} & {_dotted(target) for target in n.targets}]
    assert len(namespace) == 3
    return "\n".join([Path(sm.__file__).read_text(), *namespace,
                      *(inspect.getsource(kernel) for kernel in _KERNELS)])


def test_column_code_keeps_to_exact_operations():
    # numpy's atan2, hypot, exp and complex products differ from Python's in the
    # last bits, and the bits of BLAS, LAPACK and einsum follow the shape and layout
    # of their operands. A kernel writes its sums and solves out as products and
    # sums, so one target and a column of n run the same arithmetic.
    tree = ast.parse(_column_code())
    assert sorted({_dotted(n) for n in ast.walk(tree)} & _INEXACT) == []
    assert [ast.unparse(n) for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)] == []
    # No sum starts from a literal zero, as an einsum's zero-filled output does.
    assert [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.BinOp)
            and any(type(v) is ast.Constant and type(v.value) is float and v.value == 0.0
                    for v in (n.left, n.right))] == []
    # Complex values are built only where a Spinor is returned, never on columns.
    spinor_api = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and _dotted(f.returns) == "Spinor"
                  for n in ast.walk(f)}
    assert [ast.unparse(n) for n in ast.walk(tree)
            if id(n) not in spinor_api and _is_complex_dtype(n)] == []


def test_verify_carries_no_complex_values():
    # The checks hold B as the kernels' real columns: no imaginary literal, complex
    # dtype or view, and no complex SU(2) stack through extract_so3 or su2_matrix.
    tree = ast.parse(Path(verify.__file__).read_text())
    assert [ast.unparse(n) for n in ast.walk(tree) if _is_complex_dtype(n)] == []
    assert [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Call)
            and (_dotted(n.func) or "").split(".")[-1] in {"extract_so3", "su2_matrix"}] == []
