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
    NORM_SLACK,
    Spinor,
    SpinorRotation,
    angle_value,
    compose,
    conjugate,
    finite_angle,
    quadruple_from_spinor,
    scaled_residual,
    wrap_4pi,
)
from .rotation_algebra import linear_system_matrix

# A canonical phase whose chart's component weight is at most this is singular.
SINGULAR_WEIGHT = 1e-12


class SingularGaugeError(ValueError):
    """Raised when a requested gauge is undefined at the given direction."""


def axis_phase(delta: float) -> SpinorRotation:
    """The rotation (cos delta, 0, 0, sin delta), i.e. B = exp(-i delta sigma^3)."""
    delta = finite_angle(delta, "axis phase delta")
    return SpinorRotation(math.cos(delta), 0.0, 0.0, math.sin(delta))


def _unit_components(psi: Spinor, who: str) -> tuple:
    u1, u2 = psi.c1.real, psi.c1.imag
    u3, u4 = psi.c2.real, psi.c2.imag
    norm = math.sqrt(u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4)
    if abs(norm - 1.0) >= NORM_SLACK:
        raise ValueError(f"{who} requires a unit spinor, got norm {norm!r}")
    return u1 / norm, u2 / norm, u3 / norm, u4 / norm


def _cover_distance(a: float, b: float) -> float:
    return abs(wrap_4pi(a - b))


def psi_from_direction(n, gamma: float = 0.0) -> Spinor:
    """Unit spinor of a unit direction with a chosen phase lift.

    Psi = (sqrt((1+n3)/2) e^{-i gamma/2}, sqrt((1-n3)/2) e^{+i gamma/2}).
    Off the third axis the azimuth of n fixes gamma modulo 2pi; the argument
    only selects between the two 4pi-cover lifts (the closer one wins). On
    the axis the phase is free and the argument is used verbatim. The smaller
    magnitude is taken in the quotient form rho sqrt(1 / (2 (1 +- n3))),
    which does not cancel near the poles as sqrt((1 -+ n3)/2) does.
    """
    v = np.asarray(n, dtype=float)
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or abs(norm - 1.0) >= NORM_SLACK:
        raise ValueError(f"direction must be a unit vector, got norm {norm!r}")
    n1, n2, n3 = v / norm
    requested = angle_value(gamma, "phase gamma")
    if n1 == 0.0 and n2 == 0.0:
        lift = requested
    else:
        principal = math.atan2(n2, n1)
        partner = wrap_4pi(principal + 2.0 * math.pi)
        lift = principal
        if _cover_distance(partner, requested) < _cover_distance(principal, requested):
            lift = partner
    rho = math.hypot(n1, n2)
    if n3 >= 0.0:
        upper = math.sqrt(0.5 * (1.0 + n3))
        lower = rho * math.sqrt(0.5 / (1.0 + n3))
    else:
        lower = math.sqrt(0.5 * (1.0 - n3))
        upper = rho * math.sqrt(0.5 / (1.0 - n3))
    h = 0.5 * lift
    phase = complex(math.cos(h), -math.sin(h))
    return Spinor(upper * phase, lower * phase.conjugate())


def gauge_plus(psi: Spinor, phase: float = 0.0) -> SpinorRotation:
    """Closed-form rotation sending psi to (e^{-i phase/2}, 0).

    The underlying aligner a = (u1, u4, -u3, u2) satisfies B(a) psi = (1, 0)
    with both entries exact in float arithmetic; the phase is applied on top.
    """
    u1, u2, u3, u4 = _unit_components(psi, "gauge_plus")
    a = SpinorRotation(u1, u4, -u3, u2)
    return compose(axis_phase(0.5 * finite_angle(phase, "gauge phase")), a)


def gauge_minus(psi: Spinor, phase: float = 0.0) -> SpinorRotation:
    """Closed-form rotation sending psi to (0, e^{+i phase/2})."""
    u1, u2, u3, u4 = _unit_components(psi, "gauge_minus")
    a = SpinorRotation(u3, u2, u1, -u4)
    return compose(axis_phase(0.5 * finite_angle(phase, "gauge phase")), a)


@dataclass(frozen=True, slots=True)
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
    u1, u2, u3, u4 = _unit_components(psi, "canonical_phase_plus")
    s = u1 * u1 + u2 * u2
    if s <= SINGULAR_WEIGHT:
        raise SingularGaugeError(
            f"(+)-gauge canonical phase undefined: first component weight {s!r}")
    gamma = 2.0 * math.atan2(-u2, u1)
    c_vec = np.array([(u1 * u4 - u2 * u3) / s, -(u1 * u3 + u2 * u4) / s, 0.0])
    return CanonicalGauge(gamma=gamma, vector_parameter=c_vec,
                          rotation=gauge_plus(psi, gamma))


def canonical_phase_minus(psi: Spinor) -> CanonicalGauge:
    """The unique phase making the (-)-gauge rotation planar (c3 = 0).

    gamma = 2 atan2(u4, u3) and C = (-(u1 u4 - u2 u3)/s, (u1 u3 + u2 u4)/s, 0)
    with s = u3^2 + u4^2; singular when the direction sits at the north pole.
    """
    u1, u2, u3, u4 = _unit_components(psi, "canonical_phase_minus")
    s = u3 * u3 + u4 * u4
    if s <= SINGULAR_WEIGHT:
        raise SingularGaugeError(
            f"(-)-gauge canonical phase undefined: second component weight {s!r}")
    gamma = 2.0 * math.atan2(u4, u3)
    c_vec = np.array([-(u1 * u4 - u2 * u3) / s, (u1 * u3 + u2 * u4) / s, 0.0])
    return CanonicalGauge(gamma=gamma, vector_parameter=c_vec,
                          rotation=gauge_minus(psi, gamma))


def rotation_between(psi: Spinor, psi_prime: Spinor) -> SpinorRotation:
    """The rotation carrying one unit spinor to another, phases included.

    A unit spinor is the first column of exactly one SU(2) matrix, with
    parameter quadruple m = (u1, -u4, u3, -u2); the answer is the quaternion
    ratio m' m^{-1}. Equal inputs give the identity exactly.
    """
    u1, u2, u3, u4 = _unit_components(psi, "rotation_between")
    v1, v2, v3, v4 = _unit_components(psi_prime, "rotation_between")
    m = SpinorRotation(u1, -u4, u3, -u2)
    m_prime = SpinorRotation(v1, -v4, v3, -v2)
    return compose(m_prime, conjugate(m))


def stabilizer_check(psi: Spinor, sign: int = 1) -> SpinorRotation:
    """Confirm numerically that only +-identity fixes (or sign-flips) psi.

    Resolves the rotation action along the parameter: G c = sign * q is a
    square nonsingular linear system, solved without using the known answer,
    then checked against it. Returns the exact +-identity rotation.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    q = quadruple_from_spinor(psi)
    if q.norm_sq == 0.0:
        raise ValueError("stabilizer is undefined for the zero spinor")
    g = linear_system_matrix(q)
    solved = np.linalg.solve(g, float(sign) * q.as_array())
    expected = np.array([float(sign), 0.0, 0.0, 0.0])
    if scaled_residual(solved, expected) > 1e-9:
        raise ArithmeticError(
            f"stabilizer solve did not land on {sign} * identity: {solved!r}")
    return SpinorRotation(float(sign), 0.0, 0.0, 0.0)


__all__ = [
    "SINGULAR_WEIGHT", "SingularGaugeError", "axis_phase", "psi_from_direction",
    "gauge_plus", "gauge_minus", "CanonicalGauge",
    "canonical_phase_plus", "canonical_phase_minus",
    "rotation_between", "stabilizer_check",
]
