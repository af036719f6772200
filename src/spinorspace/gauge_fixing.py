"""Closed-form unitary gauges for direction spinors.

A unit spinor Psi determines a direction; the converse determination is fixed
only up to a phase on the 4pi cover. This module constructs Psi from a
direction with an explicit phase lift, builds the rotations that send Psi to
either pole of the component basis in closed form, singles out the canonical
phase whose gauge rotation has no third parameter component, and solves the
two-spinor alignment and stabilizer problems exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FLOATS,
    IDENTITY_ROTATION,
    MINUS_IDENTITY,
    MIN_NORMAL,
    Spinor,
    SpinorRotation,
    axis4,
    finite_angle,
    finite_vector,
    float_residual,
    polar,
    pow2_scaled,
    qmul,
    quadruple_parts,
    rotation_of,
    sign_flag,
    spinor_of,
    unit4,
    wrap_4pi,
)

# A canonical phase whose chart's component weight is at most this is singular.
SINGULAR_WEIGHT = 1e-12

# The message of a singular chart, by the sign of the gauge.
_UNDEFINED = {1: "(+)-gauge canonical phase undefined: first component weight",
              -1: "(-)-gauge canonical phase undefined: second component weight"}


class SingularGaugeError(ValueError):
    """Raised when a requested gauge is undefined at the given direction."""


# Each function builds a value type only for the result it returns; core.unit4
# states where a chain normalizes. The kernels take their unit spinors as real
# parts (u1, u2, u3, u4), floats or columns, and return the raw products that
# the public functions normalize.

def axis_phase(delta: float) -> SpinorRotation:
    """The rotation (cos delta, 0, 0, sin delta), i.e. B = exp(-i delta sigma^3)."""
    return rotation_of(axis4(FLOATS, finite_angle(delta, "axis phase delta")))


def _unit_spinor(psi: Spinor, who: str) -> tuple:
    """The real parts (u1, u2, u3, u4) of psi, divided by its norm; who names a non-unit psi."""
    return unit4(FLOATS, psi.c1.real, psi.c1.imag, psi.c2.real, psi.c2.imag, who)


def psi_from_direction(n, gamma: float = 0.0) -> Spinor:
    """Unit spinor of a unit direction with a chosen phase lift.

    Psi = (sqrt((1+n3)/2) e^{-i gamma/2}, sqrt((1-n3)/2) e^{+i gamma/2}).
    Off the third axis the azimuth of n fixes gamma modulo 2pi; the argument
    only selects between the two 4pi-cover lifts (the closer one wins). On
    the axis the phase is free and the argument is used verbatim. The smaller
    magnitude is taken in the quotient form rho sqrt(1 / (2 (1 +- n3))),
    which does not cancel near the poles as sqrt((1 -+ n3)/2) does.
    """
    return spinor_of(psi_parts(FLOATS, *finite_vector(n, "direction"),
                               finite_angle(gamma, "phase gamma")))


def psi_parts(xp, v1, v2, v3, gamma) -> tuple:
    """The real parts of psi_from_direction((v1, v2, v3), gamma), floats or columns."""
    n1, n2, n3, _ = unit4(xp, v1, v2, v3, 0.0, "direction must be a unit vector")
    requested = wrap_4pi(gamma)
    # The principal azimuth, or on the axis the requested phase itself. Its partner
    # lift, phase + 2pi, is the same spinor negated, and is the closer one on the 4pi
    # cover where phase lies more than pi from the request.
    phase = xp.where((n1 == 0.0) & (n2 == 0.0), requested, xp.atan2(n2, n1))
    sign = xp.where(abs(wrap_4pi(phase - requested)) > math.pi, -1.0, 1.0)
    # 1 + |n3|: 1 + n3 on the upper half, 1 - n3 on the lower, the sum that does not cancel.
    plus = 1.0 + abs(n3)
    big, small = sign * xp.sqrt(0.5 * plus), sign * xp.hypot(n1, n2) * xp.sqrt(0.5 / plus)
    upper = n3 >= 0.0
    return polar(xp, xp.where(upper, big, small), xp.where(upper, small, big), phase)


def gauge_plus(psi: Spinor, phase: float = 0.0) -> SpinorRotation:
    """Closed-form rotation sending psi to (e^{-i phase/2}, 0).

    The underlying aligner a = (u1, u4, -u3, u2) satisfies B(a) psi = (1, 0)
    with both entries exact in float arithmetic; the phase is applied on top.
    """
    u = _unit_spinor(psi, "gauge_plus requires a unit spinor")
    return rotation_of(gauge_plus4(FLOATS, u, finite_angle(phase, "gauge phase")))


def gauge_minus(psi: Spinor, phase: float = 0.0) -> SpinorRotation:
    """Closed-form rotation sending psi to (0, e^{+i phase/2}): the (+) gauge of i sigma^2 psi*."""
    u = _unit_spinor(psi, "gauge_minus requires a unit spinor")
    return rotation_of(gauge_plus4(FLOATS, swap4(u), finite_angle(phase, "gauge phase")))


def gauge_plus4(xp, u: tuple, phase) -> tuple:
    """The raw rotation of gauge_plus for unit parts u."""
    u1, u2, u3, u4 = u
    return qmul(axis4(xp, 0.5 * phase), (u1, u4, -u3, u2))


def swap4(u: tuple) -> tuple:
    """The components of i sigma^2 psi* = (psi2*, -psi1*), whose (+) chart is the (-)
    chart of psi: negation is exact, so the (+) kernels give the (-) chart's bits."""
    u1, u2, u3, u4 = u
    return u3, -u4, -u1, u2


@dataclass(slots=True, eq=False)
class CanonicalGauge:
    """A distinguished gauge: its rotation has vanishing third parameter.

    gamma is the phase achieving that, vector_parameter the planar quotient
    chart C of the rotation, rotation the gauge rotation itself.
    """

    gamma: float
    vector_parameter: np.ndarray
    rotation: SpinorRotation


def canonical_phase_plus(psi: Spinor) -> CanonicalGauge:
    """The unique phase making the (+)-gauge rotation planar (c3 = 0).

    gamma = 2 atan2(-u2, u1) and C = ((u1 u4 - u2 u3)/s, -(u1 u3 + u2 u4)/s, 0)
    with s = u1^2 + u2^2. Undefined when psi's first component vanishes
    (direction at the south pole): SingularGaugeError.
    """
    return _canonical(psi, 1, "canonical_phase_plus requires a unit spinor")


def canonical_phase_minus(psi: Spinor) -> CanonicalGauge:
    """The unique phase making the (-)-gauge rotation planar (c3 = 0).

    gamma = 2 atan2(u4, u3) and C = (-(u1 u4 - u2 u3)/s, (u1 u3 + u2 u4)/s, 0)
    with s = u3^2 + u4^2; singular when the direction sits at the north pole.
    This is the (+) construction on i sigma^2 psi*.
    """
    return _canonical(psi, -1, "canonical_phase_minus requires a unit spinor")


def _canonical(psi: Spinor, sign: int, who: str) -> CanonicalGauge:
    """The canonical (+) gauge (sign 1) or (-) gauge (sign -1) of psi."""
    gamma, c_vec, rotation = canonical4(FLOATS, _unit_spinor(psi, who), sign)
    return CanonicalGauge(gamma, np.array(c_vec), rotation_of(rotation))


def canonical4(xp, u: tuple, sign: int) -> tuple:
    """The canonical phase gamma, vector parameter C and raw planar rotation of the (+)
    gauge (sign 1) or (-) gauge (sign -1) of unit parts u, from w = u or w = swap4(u); a
    chart weight s = w1^2 + w2^2 at or below SINGULAR_WEIGHT (the threshold itself
    included) raises SingularGaugeError. The rotation is
    gauge_plus4(xp, w, gamma) multiplied out: cos and sin of gamma / 2 are (w1, -w2) / sqrt(s),
    and qmul((w1, 0, 0, -w2), (w1, w4, -w3, w2)) = (s, n1, n2, w1 w2 - w1 w2) is the rotation
    times sqrt(s), so c3 is exactly 0, and C = (n1, n2, 0) / s."""
    w1, w2, w3, w4 = u if sign == 1 else swap4(u)
    s = w1 * w1 + w2 * w2
    regular = s > SINGULAR_WEIGHT
    if regular is not True and not xp.all(regular):
        raise SingularGaugeError(f"{_UNDEFINED[sign]} {s!r}")
    n1, n2 = w1 * w4 - w2 * w3, -(w1 * w3 + w2 * w4)
    root = xp.sqrt(s)
    return 2.0 * xp.atan2(-w2, w1), (n1 / s, n2 / s, 0.0), (root, n1 / root, n2 / root, 0.0)


def canonical_plus4(xp, n) -> tuple:
    """The raw rotation of canonical_phase_plus(psi_from_direction(n)) for finite
    directions n, three components, floats or columns."""
    return canonical4(xp, psi_parts(xp, *n, 0.0), 1)[2]


def rotation_between(psi: Spinor, psi_prime: Spinor) -> SpinorRotation:
    """The rotation carrying one unit spinor to another, phases included.

    A unit spinor is the first column of exactly one SU(2) matrix, with
    parameter quadruple m = (u1, -u4, u3, -u2); the answer is the quaternion
    ratio m' m^{-1}. Equal inputs give the identity exactly.
    """
    who = "rotation_between requires a unit spinor"
    return rotation_of(between4(FLOATS, _unit_spinor(psi, who), _unit_spinor(psi_prime, who)))


def between4(xp, u: tuple, v: tuple) -> tuple:
    """The raw rotation of rotation_between for unit parts u and v: m' m^{-1}, with
    m^{-1} = (u1, u4, -u3, u2)."""
    u1, u2, u3, u4 = u
    v1, v2, v3, v4 = v
    return qmul((v1, -v4, v3, -v2), (u1, u4, -u3, u2))


def stabilizer_check(psi: Spinor, sign: int = 1) -> SpinorRotation:
    """Confirm numerically that only +-identity fixes (or sign-flips) psi.

    Resolves the rotation action along the parameter: G c = sign * q is a
    square nonsingular linear system, solved without using the known answer,
    then checked against it. Returns the exact +-identity rotation, one
    shared constant per sign.
    """
    sign = sign_flag(sign, "sign")
    q4, q1, q2, q3 = q = quadruple_parts(psi.c1.real, psi.c1.imag, psi.c2.real, psi.c2.imag)
    # |q|^2 in stabilizer_solve's order: where it under- or overflows, so does the solve. G
    # is linear in q, so the system on q times an exact power of two has the same solution.
    if not MIN_NORMAL <= (q4 * q4 + q1 * q1) + (q2 * q2 + q3 * q3) < math.inf:
        if not any(q):
            raise ValueError("stabilizer is undefined for the zero spinor")
        q = pow2_scaled(q)
    solved = stabilizer_solve(q, sign)
    if not float_residual(solved, (float(sign), 0.0, 0.0, 0.0)) <= 1e-9:  # a NaN solve fails too
        raise ArithmeticError(
            f"stabilizer solve did not land on {sign} * identity: {solved!r}")
    return IDENTITY_ROTATION if sign == 1 else MINUS_IDENTITY


def stabilizer_solve(q: tuple, sign) -> tuple:
    """c = sign G^T q / |q|^2 solves G c = sign q for the linear_system_entries G of a quadruple
    q, floats or columns, as G^T G = |q|^2 I; G^T q starts with |q|^2, as G starts with q.
    Written out: entry j is column j of G times q, as (a q4 + b q1) + (c q2 + d q3).
    Entries 1-3 cancel exactly while the products are finite: each is s + (-s) for one
    rounded sum s, as x y = y x and rounding is symmetric in IEEE arithmetic. With
    |q|^2 / |q|^2 = 1, the solve misses +-identity only where |q|^2 underflows to 0 or
    overflows to inf."""
    q4, q1, q2, q3 = q
    g0 = (q4 * q4 + q1 * q1) + (q2 * q2 + q3 * q3)
    g1 = (-q1 * q4 + q4 * q1) + (-q3 * q2 + q2 * q3)
    g2 = (q2 * q4 + -q3 * q1) + (-q4 * q2 + q1 * q3)
    g3 = (q3 * q4 + q2 * q1) + (-q1 * q2 + -q4 * q3)
    return sign * g0 / g0, sign * g1 / g0, sign * g2 / g0, sign * g3 / g0


__all__ = [
    "SingularGaugeError", "axis_phase", "psi_from_direction",
    "gauge_plus", "gauge_minus", "CanonicalGauge",
    "canonical_phase_plus", "canonical_phase_minus",
    "rotation_between", "stabilizer_check",
]
