"""Matrix realizations of the spinor rotation: SU(2), SO(3) and SO(4).

One unit parameter quadruple c = (c4, c) drives three pictures of the same
rotation: the 2x2 unitary B(c) acting on spinors, the 3x3 orthogonal matrix
acting on projected vectors, and the 4x4 orthogonal matrix acting on real KS
quadruples. The module also covers the elementary SO(4) plane rotations, the
fixed bridge matrix S, and the certificate showing S is not itself of the
4x4-from-SU(2) form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    COLUMNS,
    FLOATS,
    KSQuadruple,
    Spinor,
    SpinorRotation,
    finite_angle,
    finite_vector,
    pow2_scaled,
    rotation_of,
    spinor_of,
    stacked,
)
from .spinor_maps import S_BRIDGE

# Rotations within 1e-9 of a half turn have no vector parameter; reject them
# rather than return an exploding quotient.
VECTOR_PARAMETER_LIMIT = 1e-9


def so3_from_rotation(rot: SpinorRotation) -> np.ndarray:
    """The 3x3 orthogonal matrix O = I + 2 (c4 K + K^2), K the cross matrix of c.

    Satisfies project(B(c) xi).x = O @ project(xi).x for every spinor.
    """
    return np.array(so3_entries(rot.c4, rot.c1, rot.c2, rot.c3))


def so3_entries(c4, c1, c2, c3) -> tuple:
    """The rows of so3_from_rotation, with K^2 = c c^T - |c|^2 I written out entry by entry."""
    return (
        (1.0 - 2.0 * (c2 * c2 + c3 * c3), 2.0 * (c1 * c2 - c4 * c3), 2.0 * (c1 * c3 + c4 * c2)),
        (2.0 * (c1 * c2 + c4 * c3), 1.0 - 2.0 * (c1 * c1 + c3 * c3), 2.0 * (c2 * c3 - c4 * c1)),
        (2.0 * (c1 * c3 - c4 * c2), 2.0 * (c2 * c3 + c4 * c1), 1.0 - 2.0 * (c1 * c1 + c2 * c2)),
    )


def trace_so3_entries(b11r, b11i, b12r, b12i, b21r, b21i, b22r, b22i) -> tuple:
    """The rows of extract_so3 on the real parts of B, floats or columns: the sums that
    Re tr(sigma^k B sigma^l B^dag) / 2 reduces to, in r_xy = Re and i_xy = Im of
    B_x conj(B_y), with (3, 3) as ((|B11|^2 + |B22|^2) - (|B12|^2 + |B21|^2)) / 2."""
    r11_22 = b11r * b22r + b11i * b22i
    r12_21 = b12r * b21r + b12i * b21i
    r11_21 = b11r * b21r + b11i * b21i
    r12_22 = b12r * b22r + b12i * b22i
    r11_12 = b11r * b12r + b11i * b12i
    r21_22 = b21r * b22r + b21i * b22i
    i11_22 = b11i * b22r - b11r * b22i
    i12_21 = b12i * b21r - b12r * b21i
    i11_21 = b11i * b21r - b11r * b21i
    i12_22 = b12i * b22r - b12r * b22i
    i11_12 = b11i * b12r - b11r * b12i
    i21_22 = b21i * b22r - b21r * b22i
    outer = (b11r * b11r + b11i * b11i) + (b22r * b22r + b22i * b22i)
    inner = (b12r * b12r + b12i * b12i) + (b21r * b21r + b21i * b21i)
    return ((r12_21 + r11_22, i11_22 - i12_21, r11_21 - r12_22),
            (-i12_21 - i11_22, r11_22 - r12_21, i12_22 - i11_21),
            (r11_12 - r21_22, i11_12 - i21_22, 0.5 * (outer - inner)))


def extract_so3(matrix: np.ndarray) -> np.ndarray:
    """Recover the orthogonal matrix of a 2x2 unitary: O_kl = Re tr(sigma^k B sigma^l B^dag) / 2.

    A stack of unitaries, shape (..., 2, 2), gives the stack of their matrices.
    """
    b = np.ascontiguousarray(matrix, dtype=complex)
    if b.shape[-2:] != (2, 2):
        raise ValueError(f"extract_so3 takes 2x2 matrices, got shape {b.shape}")
    if b.ndim == 2:
        return np.array(trace_so3_entries(*b.view(float).ravel().tolist()))
    columns = np.ascontiguousarray(b.reshape(-1, 4).view(float).T)
    return stacked(trace_so3_entries(*columns)).reshape(b.shape[:-2] + (3, 3))


def vector_parameter(rot: SpinorRotation) -> np.ndarray:
    """Quotient chart C = c / c4 on rotations, defined away from half turns."""
    return np.array(vector_parameter_entries(FLOATS, *rot.as_tuple()))


def vector_parameter_entries(xp, c4, c1, c2, c3) -> tuple:
    """(c1, c2, c3) / c4 of vector_parameter; ValueError where |c4| < VECTOR_PARAMETER_LIMIT,
    within the limit of a half turn. |c4| equal to the limit is inside the chart."""
    chart = abs(c4) >= VECTOR_PARAMETER_LIMIT
    if chart is not True and not xp.all(chart):
        raise ValueError(
            f"rotation too close to a half turn for the vector parameter: c4 = {c4!r}")
    return c1 / c4, c2 / c4, c3 / c4


def chart_scaled(xp, c1, c2, c3) -> tuple:
    """(t, C', t^2 + |C'|^2) for (t, C') = 2^k (1, C), the one scale of both charts, floats
    or columns. k is 0 while every |C_i| < 2, so small C keeps every bit; else 2^k takes the
    largest entry into [1, 2), where no square overflows. Both charts are homogeneous in (1, C)."""
    shift = xp.pow2_shift(1.0, c1, c2, c3) + 1
    t, k1, k2, k3 = (xp.ldexp(v, shift) for v in (1.0, c1, c2, c3))
    return t, (k1, k2, k3), t * t + (k1 * k1 + k2 * k2 + k3 * k3)


def rotation_from_vector_parameter(C) -> SpinorRotation:
    """Inverse chart, fixing the c4 > 0 representative: c4 = 1 / sqrt(1 + |C|^2), c = c4 C."""
    return rotation_of(chart4(FLOATS, *finite_vector(C, "vector parameter")))


def chart4(xp, c1, c2, c3) -> tuple:
    """The raw rotation of rotation_from_vector_parameter, floats or columns: c4 is
    t / sqrt(t^2 + |C'|^2) on the (t, C') of chart_scaled."""
    t, _, norm_sq = chart_scaled(xp, c1, c2, c3)
    c4 = t / xp.sqrt(norm_sq)
    return c4, c4 * c1, c4 * c2, c4 * c3


def so3_from_vector_parameter(C) -> np.ndarray:
    """O = I + 2 (K_C + K_C^2) / (1 + |C|^2), bypassing the unit quadruple."""
    return np.array(chart_so3(FLOATS, *finite_vector(C, "vector parameter")))


def chart_so3(xp, c1, c2, c3) -> tuple:
    """The rows of so3_from_vector_parameter, floats or columns: I + 2 (t K' + K'^2) /
    (t^2 + |C'|^2) on the (t, C') of chart_scaled, K' the cross matrix of C'."""
    t, (k1, k2, k3), n = chart_scaled(xp, c1, c2, c3)
    # 2 K'^2 = 2 (C' C'^T - |C'|^2 I) as (2 C'_i) C'_j: a subnormal C_i C_j keeps its last bit.
    d, a1, a2, a3 = 2.0 * t, 2.0 * k1, 2.0 * k2, 2.0 * k3
    return ((1.0 - (a2 * k2 + a3 * k3) / n, (a2 * k1 - d * k3) / n, (a3 * k1 + d * k2) / n),
            ((a1 * k2 + d * k3) / n, 1.0 - (a3 * k3 + a1 * k1) / n, (a3 * k2 - d * k1) / n),
            ((a1 * k3 - d * k2) / n, (a2 * k3 + d * k1) / n, 1.0 - (a2 * k2 + a1 * k1) / n))


def rotated(c: tuple, z1r, z1i, z2r, z2i) -> tuple:
    """Real parts of B(c) applied to a spinor's real parts, floats or columns.

    The products are CPython's complex(c4, -c3) * z1 + complex(-c2, -c1) * z2 and
    complex(c2, -c1) * z1 + complex(c4, c3) * z2, with x - (-c) y written x + c y:
    IEEE subtraction is the addition of the negation, so the bits are the same.
    """
    c4, c1, c2, c3 = c
    return ((c4 * z1r + c3 * z1i) + (-c2 * z2r + c1 * z2i),
            (c4 * z1i - c3 * z1r) + (-c2 * z2i - c1 * z2r),
            (c2 * z1r + c1 * z1i) + (c4 * z2r - c3 * z2i),
            (c2 * z1i - c1 * z1r) + (c4 * z2i + c3 * z2r))


def rotate_spinor(rot: SpinorRotation, s: Spinor) -> Spinor:
    """Apply B(c) to a spinor without forming the matrix."""
    z1, z2 = s.c1, s.c2
    return spinor_of(rotated(rot.as_tuple(), z1.real, z1.imag, z2.real, z2.imag))


def real4_entries(c4, c1, c2, c3) -> tuple:
    """The rows of su2_real4. Row order (q4', q1', q2', q3'), column order
    (q4, q1, q2, q3); no unit constraint, so the pattern also serves as a fitting basis."""
    return ((c4, -c1, c2, c3),
            (c1, c4, c3, -c2),
            (-c2, -c3, c4, -c1),
            (-c3, c2, c1, c4))


def su2_real4(rot: SpinorRotation) -> np.ndarray:
    """The 4x4 orthogonal matrix acting on (q4, q1, q2, q3) quadruples.

    Conjugate to B(c) under the component bijection: applying it to the
    quadruple of a spinor matches rotate_spinor on the spinor itself.
    """
    return np.array(real4_entries(*rot.as_tuple()))


def linear_system_matrix(q: KSQuadruple) -> np.ndarray:
    """The matrix G with G @ (c4, c1, c2, c3) = su2_real4(c) @ q for all c.

    Same bilinear map as su2_real4, resolved along the parameter instead of
    the point. Columns are orthogonal with squared norm |q|^2, so G is
    invertible for every nonzero quadruple.
    """
    return np.array(linear_system_entries(*q.as_tuple()))


def linear_system_entries(q4, q1, q2, q3) -> tuple:
    """The rows of linear_system_matrix on the entries of a quadruple, floats or columns."""
    return ((q4, -q1, q2, q3),
            (q1, q4, -q3, q2),
            (q2, -q3, -q4, -q1),
            (q3, q2, q1, -q4))


ELEMENTARY_PLANES = {
    "2-3": (2, 3),
    "3-1": (1, 3),
    "1-2": (1, 2),
    "4-1": (4, 1),
    "4-2": (4, 2),
    "4-3": (4, 3),
}


def elementary_so4(label: str, angle: float) -> np.ndarray:
    """Plane rotation S_{i-j}(angle) of the quadruple space.

    Acts as q_i' = cos q_i - sin q_j, q_j' = sin q_i + cos q_j on the index
    pair of the label and as identity elsewhere.
    """
    if label not in ELEMENTARY_PLANES:
        raise ValueError(
            f"unknown plane label {label!r}; valid labels: {sorted(ELEMENTARY_PLANES)}")
    return np.array(plane_entries(FLOATS, *ELEMENTARY_PLANES[label],
                                  finite_angle(angle, "plane angle")))


def plane_entries(xp, i: int, j: int, angle) -> list:
    """The rows of elementary_so4 for the index pair (i, j), floats or columns."""
    pi, pj = i % 4, j % 4  # positions in the (q4, q1, q2, q3) storage order
    c, s = xp.cos(angle), xp.sin(angle)
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    rows[pi][pi], rows[pi][pj], rows[pj][pi], rows[pj][pj] = c, -s, s, c
    return rows


def s_matrix() -> np.ndarray:
    """The fixed U -> V bridge matrix (fresh copy)."""
    return S_BRIDGE.copy()


@dataclass(frozen=True, slots=True)
class FactorizationScan:
    """Result of scanning S_{4-2}(b1) S_{3-1}(b2) products against the bridge matrix."""

    best_angles: tuple
    best_residual: float
    residuals: tuple


def s_factorization_check() -> FactorizationScan:
    """Scan elementary-rotation products for the bridge matrix.

    Tries S_{4-2}(b1) @ S_{3-1}(b2) over the 64 pairs of multiples of pi/4 in
    (-pi, pi] and reports every residual. The two factors act on disjoint
    coordinate pairs, so they commute and the order scanned is the only order
    needed. The winner is (pi/4, pi/4) with residual at rounding level.
    """
    angles = np.arange(-3, 5) * math.pi / 4.0
    left, right = (stacked(plane_entries(COLUMNS, *ELEMENTARY_PLANES[label], angles))
                   for label in ("4-2", "3-1"))
    gaps = np.max(np.abs(left[:, None] @ right[None] - S_BRIDGE), axis=(2, 3))
    scanned = [(b1, b2, gap) for b1, row in zip(angles.tolist(), gaps.tolist())
               for b2, gap in zip(angles.tolist(), row)]
    best = min(scanned, key=lambda row: row[2])  # the first of equal residuals
    return FactorizationScan(best_angles=(best[0], best[1]),
                             best_residual=best[2],
                             residuals=tuple(scanned))


@dataclass(frozen=True, slots=True)
class NonMembershipCertificate:
    """Proof data that the bridge matrix S is not of the su2_real4 pattern.

    best_fit is the unconstrained least-squares parameter quadruple,
    residual the Frobenius distance at that optimum, and the two witness
    entries pin incompatible values of one parameter.
    """

    best_fit: np.ndarray
    residual: float
    parameter: str
    witness_entries: tuple
    implied_values: tuple


def s_outside_su2_image() -> NonMembershipCertificate:
    """Least-squares certificate that the bridge matrix has no SU(2) preimage.

    The 16 pattern entries are linear in (c4, c1, c2, c3) with orthogonal
    coefficient columns, so the fit is exact when and only when the target has
    the pattern. For S the entries (0, 2) and (1, 3) demand c2 = -1/sqrt(2)
    and c2 = +1/sqrt(2) at once, leaving Frobenius residual sqrt(2).
    """
    fit, residual = real4_fit(S_BRIDGE)
    # Pattern entry (0, 2) reads +c2, entry (1, 3) reads -c2.
    return NonMembershipCertificate(
        best_fit=fit[0],
        residual=float(residual[0]),
        parameter="c2",
        witness_entries=((0, 2), (1, 3)),
        implied_values=(float(S_BRIDGE[0, 2]), float(-S_BRIDGE[1, 3])),
    )


# Entry (i, j) of su2_real4 is _SIGN[i, j] c_k, k = _PARAM[i, j]; each row holds every c_k once.
_SIGN, _PARAM = np.sign(real4_entries(1, 2, 3, 4)), abs(np.array(real4_entries(0, 1, 2, 3)))


def real4_fit(targets: np.ndarray) -> tuple:
    """The least-squares su2_real4 parameters (n, 4) and Frobenius residuals (n,) of a 4x4
    target (n = 1) or a stack of n, each row a single target's: B^T t / 4 for the 16 x 4
    map B of the pattern, as B^T B = 4 I."""
    t = np.reshape(targets, (-1, 4, 4)) * _SIGN  # each entry as the c_k it holds
    rows = np.take_along_axis(t, np.argsort(_PARAM)[None], 2)  # [n, row, k]
    fit = ((rows[:, 0] + rows[:, 1]) + (rows[:, 2] + rows[:, 3])) / 4.0
    return fit, np.sqrt(np.sum((fit[:, _PARAM] - t) ** 2, axis=(1, 2)))


def rotation_from_axis_angle(axis, angle: float) -> SpinorRotation:
    """Unit quadruple (cos(angle/2), sin(angle/2) axis_hat)."""
    # sin(h) / |a| times a is unchanged when a is scaled by a power of two.
    a = np.array(pow2_scaled(finite_vector(axis, "rotation axis")))
    norm = math.sqrt(float(a @ a))
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    h = 0.5 * finite_angle(angle, "rotation angle")
    s = math.sin(h) / norm
    return SpinorRotation(math.cos(h), s * a[0], s * a[1], s * a[2])


__all__ = [
    "VECTOR_PARAMETER_LIMIT", "ELEMENTARY_PLANES",
    "so3_from_rotation", "vector_parameter", "rotation_from_vector_parameter",
    "so3_from_vector_parameter", "extract_so3", "rotate_spinor", "su2_real4",
    "linear_system_matrix", "elementary_so4", "s_matrix",
    "FactorizationScan", "s_factorization_check",
    "NonMembershipCertificate", "s_outside_su2_image",
    "rotation_from_axis_angle",
]
