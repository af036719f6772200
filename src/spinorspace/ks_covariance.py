"""Covariant frames on real KS quadruples.

A nonzero quadruple determines a direction through the quadratic map; the hat
involution turns the quadruple into a rotation parameter, and composing with
an axis-aligning gauge rotation produces a frame quadruple w whose 2x2 matrix
conjugates the reference axis operator onto the (negated) direction operator.
Frames over a common direction are related by an explicit stabilizer element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FLOATS,
    MIN_NORMAL,
    KSQuadruple,
    SpinorRotation,
    axis4,
    conjugate4,
    finite_angle,
    finite_vector,
    qmul,
    quadruple_of,
    quadruple_parts,
    rotation_of,
    slot_setters,
    unit4,
)
from .gauge_fixing import canonical_plus4
from .rotation_algebra import rotated, so3_entries

DIRECTION_MATCH_TOLERANCE = 1e-9


# Internals run on (q4, q1, q2, q3) tuples, of floats or of columns. A value
# type is built only for a returned result; core.unit4 states where a chain
# normalizes.


def unit_ks(xp, q: tuple) -> tuple:
    """q divided by its norm; the zero quadruple raises ValueError."""
    q4, q1, q2, q3 = q
    s = q4 * q4 + q1 * q1 + q2 * q2 + q3 * q3
    normal = (MIN_NORMAL <= s) & (s < math.inf)
    if normal is not True and not xp.all(normal):
        # The squares overflowed or left the normal range: rerun on q scaled
        # by the power of two that brings the largest entry into [0.5, 1).
        if not xp.all(normal | (q4 != 0.0) | (q1 != 0.0) | (q2 != 0.0) | (q3 != 0.0)):
            raise ValueError("cannot normalize the zero quadruple")
        k = xp.where(normal, 0, xp.pow2_shift(*q))
        # Written out: a generator here would make xp a cell, slower on every call.
        return unit_ks(xp, (xp.ldexp(q4, k), xp.ldexp(q1, k), xp.ldexp(q2, k), xp.ldexp(q3, k)))
    inv = 1.0 / xp.sqrt(s)
    return (q4 * inv, q1 * inv, q2 * inv, q3 * inv)


def hat4(q: tuple) -> tuple:
    """The involution (q4, q1, -q2, -q3) of hat, on a tuple."""
    return (q[0], q[1], -q[2], -q[3])


def direction4(u: tuple) -> tuple:
    """The direction of direction_from_ks on a unit quadruple."""
    q4, q1, q2, q3 = u
    return (
        2.0 * (q1 * q3 + q2 * q4),
        2.0 * (q1 * q4 - q2 * q3),
        q1 * q1 + q2 * q2 - q3 * q3 - q4 * q4,
    )


def normalize_ks(q: KSQuadruple) -> KSQuadruple:
    """The unit quadruple of a nonzero quadruple; q is it times sqrt(q.norm_sq)."""
    return quadruple_of(unit_ks(FLOATS, q.as_tuple()))


def hat(q: KSQuadruple) -> KSQuadruple:
    """The involution (q4, q1, -q2, -q3); its own inverse."""
    return quadruple_of(hat4(q.as_tuple()))


def rotation_from_unit_ks(q: KSQuadruple) -> SpinorRotation:
    """Read a unit quadruple as a rotation parameter; the storage orders agree."""
    return rotation_of(q.as_tuple())


def ks_from_rotation(rot: SpinorRotation) -> KSQuadruple:
    """Inverse of rotation_from_unit_ks."""
    return quadruple_of(rot.as_tuple())


def direction_from_ks(q: KSQuadruple) -> np.ndarray:
    """Unit direction of a nonzero quadruple.

    n = (2(u1 u3 + u2 u4), 2(u1 u4 - u2 u3), u1^2 + u2^2 - u3^2 - u4^2) on
    the normalized components; equals minus the third column of the
    orthogonal matrix of hat(q).
    """
    return np.array(direction4(unit_ks(FLOATS, q.as_tuple())))


def left_transport(rot: SpinorRotation, q: KSQuadruple) -> KSQuadruple:
    """Move a quadruple with a rotation; norm is preserved exactly in theory.

    B(rot) on the spinor c1 = q1 + i q2, c2 = q3 + i q4 of q, read back as a
    quadruple: the 4x4 orthogonal realization su2_real4(rot) @ q.
    """
    return quadruple_of(quadruple_parts(*rotated(rot.as_tuple(), q.q1, q.q2, q.q3, q.q4)))


@dataclass(frozen=True, slots=True, init=False)
class KSFrame:
    """Frame quadruple w for a direction, with its construction data.

    w's hat, as a 2x2 unitary, conjugates the axis operator A.sigma onto
    -direction.sigma. align is the planar gauge rotation taking the axis to
    the third basis vector; delta dresses the frame along its internal circle.
    """

    w: KSQuadruple
    direction: np.ndarray
    axis: np.ndarray
    delta: float
    align: SpinorRotation

    def __init__(self, w, direction, axis, delta, align):
        set_w, set_direction, set_axis, set_delta, set_align = _FRAME_SETTERS
        set_w(self, w)
        set_direction(self, direction)
        set_axis(self, axis)
        set_delta(self, delta)
        set_align(self, align)


_FRAME_SETTERS = slot_setters(KSFrame)


def build_frame(q: KSQuadruple, axis=(0.0, 0.0, 1.0), delta: float = 0.0) -> KSFrame:
    """Construct the frame quadruple of a nonzero KS quadruple.

    hat(w) = hat(u) . axis_phase(delta) . align, with align the canonical
    planar rotation for the axis spinor. The axis (0, 0, -1) sits in the
    singular gauge and raises SingularGaugeError.
    """
    delta = finite_angle(delta, "frame delta")
    a_vec = finite_vector(axis, "frame axis")
    align = rotation_of(canonical_plus4(FLOATS, a_vec))
    w, direction = frame4(FLOATS, q.as_tuple(), align.as_tuple(), delta)
    return KSFrame(quadruple_of(w), np.array(direction), np.array(a_vec), delta, align)


def turn4(xp, u: tuple, delta) -> tuple:
    """The unit rotation hat(u) D(delta) of a unit quadruple u, D the axis phase: the
    frame rotation of u before its align, at delta in frame4 and at -delta in symmetry4."""
    return qmul(hat4(u), axis4(xp, delta))


def frame4(xp, q: tuple, align: tuple, delta) -> tuple:
    """build_frame's frame quadruple w and direction of q, its unit align and its turn delta."""
    u = unit_ks(xp, q)
    return hat4(unit4(xp, *qmul(turn4(xp, u, delta), align))), direction4(unit_ks(xp, u))


def frame_symmetry(u: KSQuadruple, w: KSQuadruple, delta: float = 0.0) -> SpinorRotation:
    """The rotation carrying the frame of u to the frame of w.

    Both quadruples must lie over the same direction (it is the axis the
    returned rotation stabilizes); a mismatch beyond DIRECTION_MATCH_TOLERANCE
    is an error. Satisfies B(c) B(hat u) D(delta) = B(hat w) with D the axis
    phase, exactly by construction.
    """
    delta = finite_angle(delta, "frame delta")
    return rotation_of(symmetry4(FLOATS, u.as_tuple(), w.as_tuple(), delta))


def symmetry4(xp, u: tuple, w: tuple, delta) -> tuple:
    """The raw quaternion product that frame_symmetry normalizes, for quadruples u, w. A
    direction mismatch equal to DIRECTION_MATCH_TOLERANCE still matches; beyond it raises."""
    un, wn = unit_ks(xp, u), unit_ks(xp, w)
    mismatch = xp.residual(direction4(un), direction4(wn))
    if not mismatch <= DIRECTION_MATCH_TOLERANCE:
        raise ValueError(f"quadruples lie over different directions (mismatch {mismatch:.3e})")
    return qmul(turn4(xp, wn, -delta), conjugate4(hat4(un)))


def rotated_direction(w: KSQuadruple, rot: SpinorRotation, n) -> np.ndarray:
    """Apply a rotation expressed in the frame of w to a direction.

    n' = O(hat w) O(rot) O(hat w)^T n. With rot the frame's align rotation
    and n the frame direction, this lands on the direction of w itself.
    """
    return np.array(turned3(FLOATS, w.as_tuple(), rot.as_tuple(),
                            finite_vector(n, "direction")))


def turned3(xp, w: tuple, c: tuple, n) -> tuple:
    """rotated_direction's O(hat w) O(c) O(hat w)^T n, n three components, floats or
    columns: O(h c h^-1) n for h = hat w, as O(a) O(b) = O(ab) and O(a)^T = O(a^-1).
    c is a rotation's unit quadruple: h c h^-1 has c's norm, and unit4 raises
    ValueError where it is off 1 by NORM_SLACK or more. The mat-vec is written out,
    each row summed as a0 n0 + (a1 n1 + a2 n2)."""
    h = hat4(unit_ks(xp, w))
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = so3_entries(
        *unit4(xp, *qmul(qmul(h, c), conjugate4(h))))
    n1, n2, n3 = n
    return (a11 * n1 + (a12 * n2 + a13 * n3), a21 * n1 + (a22 * n2 + a23 * n3),
            a31 * n1 + (a32 * n2 + a33 * n3))


__all__ = [
    "normalize_ks", "hat",
    "rotation_from_unit_ks", "ks_from_rotation", "direction_from_ks",
    "left_transport", "KSFrame", "build_frame", "frame_symmetry",
    "rotated_direction",
]
