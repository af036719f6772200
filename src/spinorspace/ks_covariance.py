"""Covariant frames on real KS quadruples.

A nonzero quadruple determines a direction through the quadratic map; the hat
involution turns the quadruple into a rotation parameter, and composing with
an axis-aligning gauge rotation produces a frame quadruple w whose 2x2 matrix
conjugates the reference axis operator onto the (negated) direction operator.
Frames over a common direction are related by an explicit stabilizer element.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import KSQuadruple, SpinorRotation, compose, conjugate, finite_angle, scaled_residual
from .gauge_fixing import axis_phase, canonical_phase_plus, psi_from_direction
from .rotation_algebra import so3_from_rotation, su2_real4

DIRECTION_MATCH_TOLERANCE = 1e-9


def normalize_ks(q: KSQuadruple) -> KSQuadruple:
    """The unit quadruple of a nonzero quadruple; q is it times sqrt(q.norm_sq)."""
    s = q.norm_sq
    if not sys.float_info.min <= s < math.inf:
        # The squares overflowed or left the normal range: scale by the power
        # of two that brings the largest entry into [0.5, 1).
        big = max(map(abs, q.as_tuple()))
        if big == 0.0:
            raise ValueError("cannot normalize the zero quadruple")
        q = KSQuadruple(*(math.ldexp(v, -math.frexp(big)[1]) for v in q.as_tuple()))
        s = q.norm_sq
    inv = 1.0 / math.sqrt(s)
    return KSQuadruple(q.q4 * inv, q.q1 * inv, q.q2 * inv, q.q3 * inv)


def hat(q: KSQuadruple) -> KSQuadruple:
    """The involution (q4, q1, -q2, -q3); its own inverse."""
    return KSQuadruple(q.q4, q.q1, -q.q2, -q.q3)


def rotation_from_unit_ks(q: KSQuadruple) -> SpinorRotation:
    """Read a unit quadruple as a rotation parameter; the storage orders agree."""
    return SpinorRotation(q.q4, q.q1, q.q2, q.q3)


def ks_from_rotation(rot: SpinorRotation) -> KSQuadruple:
    """Inverse of rotation_from_unit_ks."""
    return KSQuadruple(rot.c4, rot.c1, rot.c2, rot.c3)


def direction_from_ks(q: KSQuadruple) -> np.ndarray:
    """Unit direction of a nonzero quadruple.

    n = (2(u1 u3 + u2 u4), 2(u1 u4 - u2 u3), u1^2 + u2^2 - u3^2 - u4^2) on
    the normalized components; equals minus the third column of the
    orthogonal matrix of hat(q).
    """
    u = normalize_ks(q)
    q4, q1, q2, q3 = u.as_tuple()
    return np.array([
        2.0 * (q1 * q3 + q2 * q4),
        2.0 * (q1 * q4 - q2 * q3),
        q1 * q1 + q2 * q2 - q3 * q3 - q4 * q4,
    ])


def left_transport(rot: SpinorRotation, q: KSQuadruple) -> KSQuadruple:
    """Move a quadruple with a rotation; norm is preserved exactly in theory.

    Acts by the 4x4 orthogonal realization, equivalently by conjugating the
    hat of q with the rotation on the quaternion side.
    """
    return KSQuadruple(*(su2_real4(rot) @ q.as_array()).tolist())


@dataclass(frozen=True, slots=True)
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


def build_frame(q: KSQuadruple, axis=(0.0, 0.0, 1.0), delta: float = 0.0) -> KSFrame:
    """Construct the frame quadruple of a nonzero KS quadruple.

    hat(w) = hat(u) . axis_phase(delta) . align, with align the canonical
    planar rotation for the axis spinor. The axis (0, 0, -1) sits in the
    singular gauge and raises SingularGaugeError.
    """
    delta = finite_angle(delta, "frame delta")
    u = normalize_ks(q)
    a_vec = np.asarray(axis, dtype=float)
    align = canonical_phase_plus(psi_from_direction(a_vec, 0.0)).rotation
    u_rot = rotation_from_unit_ks(hat(u))
    w_rot = compose(compose(u_rot, axis_phase(delta)), align)
    return KSFrame(
        w=hat(ks_from_rotation(w_rot)),
        direction=direction_from_ks(u),
        axis=a_vec,
        delta=delta,
        align=align,
    )


def frame_symmetry(u: KSQuadruple, w: KSQuadruple, delta: float = 0.0) -> SpinorRotation:
    """The rotation carrying the frame of u to the frame of w.

    Both quadruples must lie over the same direction (it is the axis the
    returned rotation stabilizes); a mismatch beyond DIRECTION_MATCH_TOLERANCE
    is an error. Satisfies B(c) B(hat u) D(delta) = B(hat w) with D the axis
    phase, exactly by construction.
    """
    delta = finite_angle(delta, "frame delta")
    un = normalize_ks(u)
    wn = normalize_ks(w)
    mismatch = scaled_residual(direction_from_ks(un), direction_from_ks(wn))
    if mismatch > DIRECTION_MATCH_TOLERANCE:
        raise ValueError(
            f"quadruples lie over different directions (mismatch {mismatch:.3e})")
    u_rot = rotation_from_unit_ks(hat(un))
    w_rot = rotation_from_unit_ks(hat(wn))
    return compose(compose(w_rot, axis_phase(-delta)), conjugate(u_rot))


def rotated_direction(w: KSQuadruple, rot: SpinorRotation, n) -> np.ndarray:
    """Apply a rotation expressed in the frame of w to a direction.

    n' = O(hat w) O(rot) O(hat w)^T n. With rot the frame's align rotation
    and n the frame direction, this lands on the direction of w itself.
    """
    w_rot = rotation_from_unit_ks(hat(normalize_ks(w)))
    ow = so3_from_rotation(w_rot)
    return ow @ (so3_from_rotation(rot) @ (ow.T @ np.asarray(n, dtype=float)))


__all__ = [
    "DIRECTION_MATCH_TOLERANCE", "normalize_ks", "hat",
    "rotation_from_unit_ks", "ks_from_rotation", "direction_from_ks",
    "left_transport", "KSFrame", "build_frame", "frame_symmetry",
    "rotated_direction",
]
