"""Scalar, spinor, quadruple and rotation-parameter types.

Everything downstream is built from the value types here: two-component
complex spinors, real KS quadruples stored in index-4-first order and unit
quaternion rotation parameters for SU(2). Angles on the 4pi double cover are
plain floats in the canonical window of wrap_4pi. All values are immutable;
all operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
MIN_NORMAL = sys.float_info.min  # the smallest positive normal double

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
    """float(phi), unwrapped; a str or bytes, which float() would parse, or a non-finite
    value raises ValueError naming the angle. A float comes back as it is."""
    if type(phi) is not float:
        if isinstance(phi, (str, bytes)):
            raise ValueError(f"{name} must be a real number, got {phi!r}")
        phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"{name} must be finite, got {phi!r}")
    return phi


def finite_tolerance(tolerance) -> float:
    """float(tolerance); a str, bytes or bool, a non-finite one, or a negative one,
    which no residual can meet, raises ValueError naming it."""
    if isinstance(tolerance, bool):
        raise ValueError(f"tolerance must be a real number, got {tolerance!r}")
    value = finite_angle(tolerance, "tolerance")
    if value < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {value!r}")
    return value


def integer_value(value, name: str, least: int | None = None) -> int:
    """int(value) for an int or a numpy integer, the one reader of integer inputs: a bool
    (numpy's too), a float, a string or anything else raises ValueError naming it, and
    so does a value below `least` (a seed below 0, a sample count below 1)."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def finite_vector(v, name: str) -> tuple:
    """v as three Python floats, the one reader of three-entry inputs: another shape, a
    str or bytes (whose characters or byte codes would unpack as entries), an entry that
    float() refuses or a non-finite entry raises ValueError naming the vector."""
    if type(v) is not tuple:
        if isinstance(v, (str, bytes)):
            raise ValueError(f"{name} must have three entries, got {v!r}")
        v = v.tolist() if isinstance(v, np.ndarray) else v
    try:
        x1, x2, x3 = v
        x1, x2, x3 = float(x1), float(x2), float(x3)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must have three entries, got {v!r}") from None
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
# benchmark's traced run times a value type by wrapping __post_init__, so a class call
# runs it. The library builds the first three through spinor_of, quadruple_of and
# rotation_of, which bypass the hook: they run its check and set the same fields from
# Python floats, without its float() or complex(), so a site whose parts may be numpy
# scalars keeps the class call. A builder unpacks its parts: a starred call is not inlined.
@dataclass(frozen=True, slots=True, init=False)
class Spinor:
    """Two-component complex spinor (carries xi, eta and Psi alike)."""

    c1: complex
    c2: complex

    def __init__(self, c1, c2):
        self.__post_init__(c1, c2)

    def __post_init__(self, c1, c2):
        c1, c2 = complex(c1), complex(c2)
        _check_spinor(c1.real, c1.imag, c2.real, c2.imag)
        set1, set2 = _SPINOR_SETTERS
        set1(self, c1)
        set2(self, c2)

    @property
    def norm_sq(self) -> float:
        return (self.c1.real * self.c1.real + self.c1.imag * self.c1.imag
                + self.c2.real * self.c2.real + self.c2.imag * self.c2.imag)


_SPINOR_SETTERS = slot_setters(Spinor)


def _check_spinor(c1r, c1i, c2r, c2i) -> None:
    """The one check of a Spinor, on its real parts; the hook sets the complex values it
    has, spinor_of the ones it forms, so unlike _set_quadruple this sets nothing."""
    if not (math.isfinite(c1r) and math.isfinite(c1i)
            and math.isfinite(c2r) and math.isfinite(c2i)):
        raise ValueError("spinor components must be finite")


def spinor_of(parts) -> Spinor:
    """The Spinor with the real parts (c1.real, c1.imag, c2.real, c2.imag)."""
    c1r, c1i, c2r, c2i = parts
    _check_spinor(c1r, c1i, c2r, c2i)
    s = object.__new__(Spinor)
    set1, set2 = _SPINOR_SETTERS
    set1(s, complex(c1r, c1i))
    set2(s, complex(c2r, c2i))
    return s


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
        _set_quadruple(self, float(q4), float(q1), float(q2), float(q3))

    def as_tuple(self) -> tuple:
        return (self.q4, self.q1, self.q2, self.q3)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    @property
    def norm_sq(self) -> float:
        return self.q4 * self.q4 + self.q1 * self.q1 + self.q2 * self.q2 + self.q3 * self.q3


_QUADRUPLE_SETTERS = slot_setters(KSQuadruple)


def _set_quadruple(q: KSQuadruple, q4, q1, q2, q3) -> KSQuadruple:
    """q with the entries (q4, q1, q2, q3), the one check of a KSQuadruple's fields."""
    if not (math.isfinite(q4) and math.isfinite(q1) and math.isfinite(q2) and math.isfinite(q3)):
        raise ValueError("quadruple entries must be finite")
    set4, set1, set2, set3 = _QUADRUPLE_SETTERS
    set4(q, q4)
    set1(q, q1)
    set2(q, q2)
    set3(q, q3)
    return q


def quadruple_of(parts) -> KSQuadruple:
    """The KSQuadruple with the entries (q4, q1, q2, q3)."""
    q4, q1, q2, q3 = parts
    return _set_quadruple(object.__new__(KSQuadruple), q4, q1, q2, q3)


def unit4(xp, c4, c1, c2, c3, who="rotation parameters must be unit norm") -> tuple:
    """(c4, c1, c2, c3) / norm, the one unit-norm check: of SpinorRotation, a spinor's
    real parts for the gauges, and psi_from_direction's direction with a zero c3.

    A norm off 1 by NORM_SLACK or more raises ValueError(f"{who}, got norm ..."): who
    names the input, as in "direction must be a unit vector". No norm is off by NORM_SLACK
    itself: within [0.5, 2], |norm - 1| is exact (Sterbenz) and a multiple of 2^-53, which
    NORM_SLACK (0x1.0c6f7a0b5ed8dp-20) is not, so < and <= agree. Gauges and frames chain
    quaternion products through qmul on plain tuples; a product or negation of unit
    quaternions is unit, so a chain normalizes only where an input enters, where a
    value type is returned (a SpinorRotation normalizes itself, a KSQuadruple does
    not), and before a quadratic map such as ks_covariance.direction4 or
    rotation_algebra.so3_entries, whose output's norm error is about twice its input's.
    """
    norm = xp.sqrt(c4 * c4 + c1 * c1 + c2 * c2 + c3 * c3)
    unit = abs(norm - 1.0) < NORM_SLACK
    if unit is not True and not xp.all(unit):
        raise ValueError(f"{who}, got norm {norm!r}")
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
    """The rotation (cos delta, 0, 0, sin delta) about the third axis."""
    return xp.cos(delta), 0.0, 0.0, xp.sin(delta)


def conjugate4(r: tuple) -> tuple:
    """The inverse (c4, -c1, -c2, -c3) of a (c4, c1, c2, c3) tuple."""
    return r[0], -r[1], -r[2], -r[3]


def sign_flag(value, name: str) -> int:
    """The integer_value +1 or -1 of a flag such as a sheet; anything else raises ValueError."""
    try:
        flag = integer_value(value, name)
    except ValueError:
        flag = 0
    if flag not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")
    return flag


def polar(xp, m1, m2, phi) -> tuple:
    """Real parts of (m1 e^{-i phi/2}, m2 e^{+i phi/2}), the half-angle phases taken as
    (cos, -+sin), each part the one product m c or m (-+s): xi_from_parabolic at
    (N, M) = (m1, m2), and the last step of every spinor_maps constructor and of
    gauge_fixing.psi_from_direction."""
    h = 0.5 * phi
    c, s = xp.cos(h), xp.sin(h)
    return m1 * c, m1 * -s, m2 * c, m2 * s


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


def scaled_residual(lhs, rhs) -> float:
    """Magnitude-scaled disagreement max|lhs - rhs| / max(1, |lhs|, |rhs|), inf where NaN, of
    scalars or array-likes."""
    left, right = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if left.shape != right.shape:
        left, right = np.broadcast_arrays(left, right)
    return float_residual(left.ravel().tolist(), right.ravel().tolist())


def float_residual(lhs, rhs) -> float:
    """scaled_residual of two sequences of Python floats of one length, unchecked, in one loop
    (no numpy, no max calls): a NaN gap, or an infinite entry, makes total / scale NaN."""
    gap, total, scale = 0.0, 0.0, 1.0
    for x, y in zip(lhs, rhs):
        d, x, y = abs(x - y), abs(x), abs(y)
        total += d
        gap = d if d > gap else gap
        scale = x if x > scale else scale
        scale = y if y > scale else scale
    return math.inf if math.isnan(total / scale) else gap / scale


def residual_rows(lhs, rhs, axis=None) -> np.ndarray:
    """Each sample's scaled residual |lhs - rhs| / max(1, |lhs|, |rhs|), NaN scored as inf: each
    entry is a sample with axis None, else its entries over `axis` (an int or a tuple) share one
    scale. numpy's max runs in place where the trailing axis is kept, else as k - 1 maxima of the
    rows of a C-contiguous copy, k reduced entries first: in place numpy would loop per sample."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    gap = np.abs(lhs - rhs)
    size = np.maximum(np.abs(lhs), np.abs(rhs))
    if axis is not None:
        axes = (axis,) if isinstance(axis, int) else axis
        if gap.ndim - 1 not in [i % gap.ndim for i in axes]:
            gap, size = gap.max(axis=axes), size.max(axis=axes)
        else:
            k = math.prod(gap.shape[a] for a in axes)
            gap, size = (np.ascontiguousarray(np.moveaxis(a, axes, range(len(axes))))
                         .reshape(k, -1).max(axis=0) for a in (gap, size))
    rows = gap / np.maximum(size, 1.0)
    return np.where(np.isnan(rows), math.inf, rows)


def worst_residual(lhs, rhs, axis=None) -> float:
    """The largest of residual_rows(lhs, rhs, axis); 0 for an empty batch."""
    return float(np.max(residual_rows(lhs, rhs, axis), initial=0.0))


# The real-component kernels' namespace on floats. A kernel on the scalar path
# tests a condition as `cond is not True and not xp.all(cond)`: a comparison of
# floats gives the True singleton, so the float path makes no call.
FLOATS = SimpleNamespace(
    sqrt=math.sqrt, sin=math.sin, cos=math.cos, atan2=math.atan2, hypot=math.hypot,
    isfinite=math.isfinite, ldexp=math.ldexp, all=bool, where=lambda cond, a, b: a if cond else b,
    residual=float_residual, pow2_shift=lambda *values: pow2_shift(values))


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
    all=np.all, where=np.where, residual=lambda lhs, rhs: worst_residual(lhs, rhs, 0),
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
        _set_rotation(self, float(c4), float(c1), float(c2), float(c3))

    def as_tuple(self) -> tuple:
        return (self.c4, self.c1, self.c2, self.c3)


_ROTATION_SETTERS = slot_setters(SpinorRotation)


def _set_rotation(r: SpinorRotation, c4, c1, c2, c3) -> SpinorRotation:
    """r with the parameters (c4, c1, c2, c3) normalized by unit4, which checks them."""
    c4, c1, c2, c3 = unit4(FLOATS, c4, c1, c2, c3)
    set4, set1, set2, set3 = _ROTATION_SETTERS
    set4(r, c4)
    set1(r, c1)
    set2(r, c2)
    set3(r, c3)
    return r


def rotation_of(parts) -> SpinorRotation:
    """The SpinorRotation of the parameters (c4, c1, c2, c3)."""
    c4, c1, c2, c3 = parts
    return _set_rotation(object.__new__(SpinorRotation), c4, c1, c2, c3)


IDENTITY_ROTATION = SpinorRotation(1.0, 0.0, 0.0, 0.0)
MINUS_IDENTITY = SpinorRotation(-1.0, 0.0, 0.0, 0.0)


# The hot result types set their slots as the value types do; a frozen dataclass's own
# __init__ sets each field through object.__setattr__.
@dataclass(frozen=True, slots=True, init=False)
class EtaProjection:
    """Vector-model projection: component j of the decomposition is a_j + i x_j."""

    a: np.ndarray
    x: np.ndarray

    def __init__(self, a, x):
        set_a, set_x = _ETA_PROJECTION_SETTERS
        set_a(self, a)
        set_x(self, x)


_ETA_PROJECTION_SETTERS = slot_setters(EtaProjection)


def spinor_from_quadruple(q: KSQuadruple) -> Spinor:
    """Exact bijection: c1 = q1 + i q2, c2 = q3 + i q4."""
    return spinor_of((q.q1, q.q2, q.q3, q.q4))


def quadruple_parts(c1r, c1i, c2r, c2i) -> tuple:
    """quadruple_from_spinor on real parts: (q4, q1, q2, q3)."""
    return c2i, c1r, c1i, c2r


def quadruple_from_spinor(s: Spinor) -> KSQuadruple:
    """Exact inverse of spinor_from_quadruple."""
    return quadruple_of((s.c2.imag, s.c1.real, s.c1.imag, s.c2.real))


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
    return rotation_of(qmul(r1.as_tuple(), r2.as_tuple()))


def conjugate(rot: SpinorRotation) -> SpinorRotation:
    """Inverse rotation (c4, -c)."""
    return rotation_of(conjugate4(rot.as_tuple()))


__all__ = [
    "wrap_4pi", "angle_value", "Spinor", "KSQuadruple", "SpinorRotation",
    "IDENTITY_ROTATION", "EtaProjection", "scaled_residual",
    "spinor_from_quadruple", "quadruple_from_spinor", "su2_matrix",
    "compose", "conjugate",
]
