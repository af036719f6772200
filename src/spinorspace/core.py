"""Scalar, spinor, quadruple and rotation-parameter types.

Everything downstream is built from the value types here: two-component
complex spinors, real KS quadruples stored in index-4-first order and unit
quaternion rotation parameters for SU(2). Angles on the 4pi double cover are
plain floats in the canonical window of wrap_4pi. All values are immutable;
all operations are pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Norm deviation absorbed silently by normalizing constructors; anything worse
# is treated as a logic error in the caller.
NORM_SLACK = 1e-6


def wrap_4pi(angle):
    """Reduce an angle, or each entry of a float64 array, modulo 4pi into (-2pi, 2pi].

    The double cover identifies angle with angle + 4pi but keeps angle and
    angle + 2pi distinct (opposite spinor sheet). Exact: fmod is, and so is the
    -+4pi shift of a remainder in (2pi, 4pi) or (-4pi, -2pi] (Sterbenz), so an
    angle in the window comes back unchanged. A float comes back as a float. An
    infinite or NaN angle has no value on the cover and raises ValueError naming it.
    """
    if type(angle) is float:
        if not math.isfinite(angle):
            raise ValueError(f"angle must be finite, got {angle!r}")
        a = math.fmod(angle, FOUR_PI)
        return a - FOUR_PI if a > TWO_PI else a + FOUR_PI if a <= -TWO_PI else a
    finite = np.isfinite(angle)
    if not finite.all():
        raise ValueError(f"angle must be finite, got {np.asarray(angle)[~finite][0].item()!r}")
    a = np.fmod(angle, FOUR_PI)
    return a - (FOUR_PI * (a > TWO_PI) - FOUR_PI * (a <= -TWO_PI))


def finite_angle(phi, name: str) -> float:
    """float(phi), unwrapped; a non-finite value raises ValueError naming the angle."""
    value = float(phi)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def finite_tolerance(tolerance) -> float:
    """float(tolerance); a non-finite one, or a negative one, which no residual
    can meet, raises ValueError naming it."""
    value = finite_angle(tolerance, "tolerance")
    if value < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {value!r}")
    return value


def finite_vector(v, name: str) -> tuple:
    """v as three Python floats, the one reader of three-entry inputs: another shape,
    an entry that float() refuses or a non-finite entry raises ValueError naming the
    vector."""
    entries = v.tolist() if isinstance(v, np.ndarray) else v
    try:
        x1, x2, x3 = entries
        x1, x2, x3 = float(x1), float(x2), float(x3)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must have three entries, got {entries!r}") from None
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
        raise ValueError(f"{name} must be finite, got {[x1, x2, x3]!r}")
    return x1, x2, x3


def angle_value(phi, name: str = "angle") -> float:
    """Canonical value of a double-cover angle; a non-finite one raises ValueError naming it."""
    return wrap_4pi(finite_angle(phi, name))


def slot_setters(cls) -> tuple:
    """The setters of a slotted class's fields, in field order. A frozen value type
    sets its checked fields through them: object.__setattr__ would look each one up
    again, at about 50 ns a field."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


# The five validated value types (these three and spinor_maps' two points) take a
# hand-written __init__ that hands its arguments to __post_init__, which converts,
# validates and sets each field once. The hook keeps its dataclass name because the
# benchmark's traced run times a value type by wrapping __post_init__.
@dataclass(frozen=True, slots=True, init=False)
class Spinor:
    """Two-component complex spinor (carries xi, eta and Psi alike)."""

    c1: complex
    c2: complex

    def __init__(self, c1, c2):
        self.__post_init__(c1, c2)

    def __post_init__(self, c1, c2):
        c1, c2 = complex(c1), complex(c2)
        if not (math.isfinite(c1.real) and math.isfinite(c1.imag)
                and math.isfinite(c2.real) and math.isfinite(c2.imag)):
            raise ValueError("spinor components must be finite")
        set1, set2 = _SPINOR_SETTERS
        set1(self, c1)
        set2(self, c2)

    @property
    def norm_sq(self) -> float:
        return (self.c1.real * self.c1.real + self.c1.imag * self.c1.imag
                + self.c2.real * self.c2.real + self.c2.imag * self.c2.imag)


_SPINOR_SETTERS = slot_setters(Spinor)


def spinor_of(parts) -> Spinor:
    """The Spinor with the real parts (c1.real, c1.imag, c2.real, c2.imag)."""
    c1r, c1i, c2r, c2i = parts
    return Spinor(complex(c1r, c1i), complex(c2r, c2i))


@dataclass(frozen=True, slots=True, init=False)
class KSQuadruple:
    """Real 4-tuple (q4, q1, q2, q3), the paper-order column layout.

    Bijective with Spinor via c1 = q1 + i q2, c2 = q3 + i q4; the round trip
    is exact. The same container holds U, V, u and w quadruples.
    """

    q4: float
    q1: float
    q2: float
    q3: float

    def __init__(self, q4, q1, q2, q3):
        self.__post_init__(q4, q1, q2, q3)

    def __post_init__(self, q4, q1, q2, q3):
        q4, q1, q2, q3 = float(q4), float(q1), float(q2), float(q3)
        if not (math.isfinite(q4) and math.isfinite(q1)
                and math.isfinite(q2) and math.isfinite(q3)):
            raise ValueError("quadruple entries must be finite")
        set4, set1, set2, set3 = _QUADRUPLE_SETTERS
        set4(self, q4)
        set1(self, q1)
        set2(self, q2)
        set3(self, q3)

    def as_tuple(self) -> tuple:
        return (self.q4, self.q1, self.q2, self.q3)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    @property
    def norm_sq(self) -> float:
        return self.q4 * self.q4 + self.q1 * self.q1 + self.q2 * self.q2 + self.q3 * self.q3


_QUADRUPLE_SETTERS = slot_setters(KSQuadruple)


def unit4(xp, c4, c1, c2, c3, who=None) -> tuple:
    """(c4, c1, c2, c3) / norm: the normalization of SpinorRotation, and of a
    spinor's real parts for the gauges, which pass their name as who.

    A norm off 1 by 1e-6 or more raises ValueError. Gauges and frames chain
    quaternion products through this and qmul on plain tuples, and build a
    SpinorRotation only for the rotation they return.
    """
    norm = xp.sqrt(c4 * c4 + c1 * c1 + c2 * c2 + c3 * c3)
    unit = abs(norm - 1.0) < NORM_SLACK
    if unit is not True and not xp.all(unit):
        what = "rotation parameters must be unit norm" if who is None else (
            f"{who} requires a unit spinor")
        raise ValueError(f"{what}, got norm {norm!r}")
    return (c4 / norm, c1 / norm, c2 / norm, c3 / norm)


def qmul(a: tuple, b: tuple) -> tuple:
    """Raw quaternion product of (c4, c1, c2, c3) tuples, as su2_matrix(a) @ su2_matrix(b)."""
    a4, a1, a2, a3 = a
    b4, b1, b2, b3 = b
    return (
        a4 * b4 - a1 * b1 - a2 * b2 - a3 * b3,
        a4 * b1 + b4 * a1 + a2 * b3 - a3 * b2,
        a4 * b2 + b4 * a2 + a3 * b1 - a1 * b3,
        a4 * b3 + b4 * a3 + a1 * b2 - a2 * b1,
    )


def axis4(xp, delta) -> tuple:
    """The rotation about the third axis, unit4(cos delta, 0, 0, sin delta)."""
    return unit4(xp, xp.cos(delta), 0.0, 0.0, xp.sin(delta))


def conjugate4(xp, r: tuple) -> tuple:
    """The inverse rotation of a (c4, c1, c2, c3) tuple, unit4(c4, -c1, -c2, -c3)."""
    return unit4(xp, r[0], -r[1], -r[2], -r[3])


def sign_flag(value, name: str) -> int:
    """int(value) for a +1/-1 flag such as a sheet; anything else raises ValueError naming it."""
    if value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")
    return int(value)


def polar(xp, m1, m2, phi) -> tuple:
    """Real parts of (m1 e^{-i phi/2}, m2 e^{+i phi/2}), the half-angle phases taken as
    (cos, -+sin): xi_from_parabolic at (N, M) = (m1, m2), and the last step of
    every spinor_maps constructor and of gauge_fixing.psi_from_direction."""
    h = 0.5 * phi
    c, s = xp.cos(h), xp.sin(h)
    return m1 * c - 0.0 * -s, m1 * -s + 0.0 * c, m2 * c - 0.0 * s, m2 * s + 0.0 * c


def pow2_shift(values) -> int:
    """The k for which 2^k times the largest magnitude lies in [0.5, 1); 0 for all zeros."""
    return -math.frexp(max(map(abs, values)))[1]


def pow2_scaled(values) -> tuple:
    """values times 2^pow2_shift(values), the library's one rescale for extreme magnitudes.

    Exact, so sums of squares of the result neither overflow nor leave the
    normal range unless the entries span more than the double range, and a
    closed form homogeneous in the entries keeps every bit. All zeros come
    back as they are.
    """
    shift = pow2_shift(values)
    return tuple(math.ldexp(v, shift) for v in values)


# The real-component kernels' namespace on floats. A kernel on the scalar path
# tests a condition as `cond is not True and not xp.all(cond)`: a comparison of
# floats gives the True singleton, so the float path makes no call.
FLOATS = SimpleNamespace(
    sqrt=math.sqrt, sin=math.sin, cos=math.cos, atan2=math.atan2, hypot=math.hypot,
    isfinite=math.isfinite, ldexp=math.ldexp, all=bool, where=lambda cond, a, b: a if cond else b,
    max=max, pow2_shift=lambda *values: pow2_shift(values))


def stacked(parts) -> np.ndarray:
    """Columns of n entries (or constants) as a C-contiguous (n, k) stack, entry [i, j]
    parts[j][i], or rows of them as (n, k, l)."""
    if isinstance(parts[0], (tuple, list)):  # a row of constants broadcasts too
        return np.stack(np.broadcast_arrays(*[stacked(row) for row in parts]), axis=1)
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


_atan2 = np.frompyfunc(math.atan2, 2, 1)
_hypot = np.frompyfunc(math.hypot, 2, 1)

# The kernels' namespace on float64 columns, which gives each row the bits of
# FLOATS. A branch is a `where` between two values that are safe on both sides.
# np.arctan2 and np.hypot differ from math.atan2 and math.hypot in the last bit,
# so COLUMNS calls those per element. On columns, a row whose squares, 2 r or
# N + M overflow raises numpy's overflow warning before it is rescaled.
COLUMNS = SimpleNamespace(
    sqrt=np.sqrt, sin=np.sin, cos=np.cos, atan2=lambda y, x: _atan2(y, x).astype(float),
    hypot=lambda x, y: _hypot(x, y).astype(float), isfinite=np.isfinite, ldexp=np.ldexp,
    all=np.all, where=np.where, max=lambda *values: functools.reduce(np.maximum, values),
    pow2_shift=lambda *values: -np.frexp(np.max(np.abs(np.broadcast_arrays(*values)), axis=0))[1])


@dataclass(frozen=True, slots=True, init=False)
class SpinorRotation:
    """Unit 4-tuple (c4, c1, c2, c3) parameterizing B(c) = c4 I - i sigma^j c_j.

    Construction normalizes inputs whose norm deviates from 1 by less than
    1e-6 and rejects anything worse, so accumulated round-off is absorbed but
    logic errors are not masked.
    """

    c4: float
    c1: float
    c2: float
    c3: float

    def __init__(self, c4, c1, c2, c3):
        self.__post_init__(c4, c1, c2, c3)

    def __post_init__(self, c4, c1, c2, c3):
        c4, c1, c2, c3 = unit4(FLOATS, float(c4), float(c1), float(c2), float(c3))
        set4, set1, set2, set3 = _ROTATION_SETTERS
        set4(self, c4)
        set1(self, c1)
        set2(self, c2)
        set3(self, c3)

    def as_tuple(self) -> tuple:
        return (self.c4, self.c1, self.c2, self.c3)


_ROTATION_SETTERS = slot_setters(SpinorRotation)

IDENTITY_ROTATION = SpinorRotation(1.0, 0.0, 0.0, 0.0)
MINUS_IDENTITY = SpinorRotation(-1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class EtaProjection:
    """Vector-model projection: component j of the decomposition is a_j + i x_j."""

    a: np.ndarray
    x: np.ndarray


def scaled_residual(lhs, rhs) -> float:
    """Magnitude-scaled disagreement: max|lhs - rhs| / max(1, |lhs|, |rhs|).

    Accepts scalars or array-likes.
    """
    left = np.asarray(lhs, dtype=float)
    right = np.asarray(rhs, dtype=float)
    if not left.size:
        return 0.0
    if left.shape != right.shape:
        left, right = np.broadcast_arrays(left, right)
    # Python floats: callers pass a handful of entries, where numpy's
    # per-reduction overhead would dominate.
    a, b = left.ravel().tolist(), right.ravel().tolist()
    gaps = [abs(x - y) for x, y in zip(a, b)]
    if math.isnan(sum(gaps)):
        return math.nan
    return max(gaps) / max(1.0, max(map(abs, a)), max(map(abs, b)))


def spinor_from_quadruple(q: KSQuadruple) -> Spinor:
    """Exact bijection: c1 = q1 + i q2, c2 = q3 + i q4."""
    return Spinor(complex(q.q1, q.q2), complex(q.q3, q.q4))


def quadruple_from_spinor(s: Spinor) -> KSQuadruple:
    """Exact inverse of spinor_from_quadruple."""
    return KSQuadruple(s.c2.imag, s.c1.real, s.c1.imag, s.c2.real)


def su2_parts(c4, c1, c2, c3) -> tuple:
    """The rows of B(c) as real parts: ((c4, -c3, -c2, -c1), (c2, -c1, c4, c3)),
    that is (B11.real, B11.imag, B12.real, B12.imag) and the same of row 2."""
    return (c4, -c3, -c2, -c1), (c2, -c1, c4, c3)


def su2_matrix(rot: SpinorRotation) -> np.ndarray:
    """The 2x2 complex matrix B(c) = c4 I - i sigma^j c_j.

    Entries: [[c4 - i c3, -c2 - i c1], [c2 - i c1, c4 + i c3]]. Unitary with
    det +1 for unit parameters.
    """
    return np.array(su2_parts(*rot.as_tuple())).view(complex)


def compose(r1: SpinorRotation, r2: SpinorRotation) -> SpinorRotation:
    """Quaternion product matching su2_matrix(r1) @ su2_matrix(r2)."""
    return SpinorRotation(*qmul(r1.as_tuple(), r2.as_tuple()))


def conjugate(rot: SpinorRotation) -> SpinorRotation:
    """Inverse rotation (c4, -c)."""
    return SpinorRotation(rot.c4, -rot.c1, -rot.c2, -rot.c3)


__all__ = [
    "wrap_4pi", "angle_value", "Spinor", "KSQuadruple", "SpinorRotation",
    "IDENTITY_ROTATION", "EtaProjection", "scaled_residual",
    "spinor_from_quadruple", "quadruple_from_spinor", "su2_matrix",
    "compose", "conjugate",
]
