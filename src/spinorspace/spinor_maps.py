"""Constructors and projections of the two spatial spinors.

xi parameterizes the pseudovector model and eta the vector model of 3-space
on the 4pi double cover. Cartesian, spherical and parabolic constructors are
provided for both, together with the bilinear projections back to 3-space,
the two quadratic (Hopf) constraints, and the xi <-> eta / U <-> V bridges.

Each closed form is written once, in real components, as a kernel that runs
on Python floats or on float64 columns. A spinor is its real parts
(c1.real, c1.imag, c2.real, c2.imag). Kernels that need more than arithmetic
take a namespace first: FLOATS behind the public functions, or COLUMNS,
which gives a row of columns the same bits as the public function on that
row. Each real part is the product or sum that defines it: a real or an
imaginary factor multiplies only the parts it meets, without the 0.0 terms of
CPython's complex product, so the sign of a zero follows those terms and an
overflow stays in the part where it happens. On columns numpy supplies only
arithmetic, sqrt, frexp/ldexp and sin/cos, whose rows tests/test_spinor_maps.py
holds equal to math's; atan2 is math's, element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    COLUMNS,
    FLOATS,
    MIN_NORMAL,
    EtaProjection,
    KSQuadruple,
    Spinor,
    angle_value,
    finite_angle,
    finite_vector,
    polar,
    quadruple_of,
    sign_flag,
    slot_setters,
    spinor_of,
)

INV_SQRT2 = math.sqrt(0.5)

_PAST_RANGE = "{}({!r}): the {} leave the double range, past 1.8e308"


# Built as core.Spinor is; the comment there says why.
@dataclass(frozen=True, slots=True, init=False)
class SphericalPoint:
    """(r, theta, phi) with r >= 0, theta in [0, pi], phi on the double cover."""

    r: float
    theta: float
    phi: float

    def __init__(self, r, theta, phi):
        self.__post_init__(r, theta, phi)

    def __post_init__(self, r, theta, phi):
        r, theta = float(r), float(theta)
        if not (math.isfinite(r) and r >= 0.0):
            raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
        if not (0.0 <= theta <= math.pi):
            raise ValueError(f"polar angle must lie in [0, pi], got {theta!r}")
        set_r, set_theta, set_phi = _SPHERICAL_SETTERS
        set_r(self, r)
        set_theta(self, theta)
        set_phi(self, angle_value(phi, "azimuth phi"))


_SPHERICAL_SETTERS = slot_setters(SphericalPoint)


@dataclass(frozen=True, slots=True, init=False)
class ParabolicPoint:
    """(N, M, phi) parabolic parameters, N, M >= 0, phi on the double cover."""

    N: float
    M: float
    phi: float

    def __init__(self, N, M, phi):
        self.__post_init__(N, M, phi)

    def __post_init__(self, N, M, phi):
        N, M = float(N), float(M)
        if not (math.isfinite(N) and N >= 0.0 and math.isfinite(M) and M >= 0.0):
            raise ValueError("parabolic parameters must be finite and nonnegative")
        set_n, set_m, set_phi = _PARABOLIC_SETTERS
        set_n(self, N)
        set_m(self, M)
        set_phi(self, angle_value(phi, "azimuth phi"))


_PARABOLIC_SETTERS = slot_setters(ParabolicPoint)


def _cartesian(xp, x1, x2, x3, sheet, magnitudes) -> tuple:
    """sheet (m1 e^{-i phi/2}, m2 e^{+i phi/2}) of a Cartesian point other than the
    origin, with (m1, m2) = magnitudes(xp, x1, x2, x3, rho^2, r) and phi the principal
    azimuth: sheet -1, the phi + 2pi lift, is the same spinor negated, exactly."""
    m1, m2 = _point_magnitudes(xp, x1, x2, x3, magnitudes)
    # The principal azimuth, which is defined as 0 on the axis (rho = 0).
    phi = xp.where((x1 != 0.0) | (x2 != 0.0), xp.atan2(x2, x1), 0.0)
    return polar(xp, sheet * m1, sheet * m2, phi)


def cartesian_columns(kernel, x1, x2, x3, sheet) -> np.ndarray:
    """kernel (xi_cartesian or eta_cartesian) on float64 columns, as a (4, n)
    array of real parts. Rows at the origin are the zero spinor, as in the
    public constructors."""
    origin = (x1 == 0.0) & (x2 == 0.0) & (x3 == 0.0)
    # The origin's rows are computed at (0, 0, 1), and then dropped.
    parts = kernel(COLUMNS, x1, x2, np.where(origin, 1.0, x3), sheet)
    return np.where(origin, 0.0, parts)


def _point_magnitudes(xp, x1, x2, x3, magnitudes) -> tuple:
    """magnitudes(xp, x1, x2, x3, rho^2, r) of a nonzero point. Where r^2 is below MIN_NORMAL
    or infinite they are rerun on the point times 4^k, 2^k times the true ones, and unscaled;
    r^2 equal to MIN_NORMAL is normal and takes no rerun."""
    rho_sq = x1 * x1 + x2 * x2
    r_sq = rho_sq + x3 * x3
    normal = (MIN_NORMAL <= r_sq) & (r_sq < math.inf)
    if xp.all(normal):
        return magnitudes(xp, x1, x2, x3, rho_sq, xp.sqrt(r_sq))
    k = xp.where(normal, 0, xp.pow2_shift(x1, x2, x3) // 2)
    e = 2 * k
    m1, m2 = _point_magnitudes(xp, xp.ldexp(x1, e), xp.ldexp(x2, e), xp.ldexp(x3, e), magnitudes)
    return xp.ldexp(m1, -k), xp.ldexp(m2, -k)


def _xi_magnitudes(xp, x1, x2, x3, rho_sq, r) -> tuple:
    # r - |x3| cancels near the axis; the quotient form rho^2 / (r + |x3|)
    # is the same number without the cancellation.
    big = r + abs(x3)
    root, quotient = xp.sqrt(big), xp.sqrt(rho_sq / big)
    normal = rho_sq >= MIN_NORMAL
    if normal is not True and not xp.all(normal):
        # rho^2 below MIN_NORMAL has lost bits: take it on (x1, x2) times 2^k. rho^2
        # equal to MIN_NORMAL is normal and keeps the direct quotient.
        k = xp.pow2_shift(x1, x2)
        x1, x2 = xp.ldexp(x1, k), xp.ldexp(x2, k)
        quotient = xp.where(normal, quotient, xp.ldexp(xp.sqrt((x1 * x1 + x2 * x2) / big), -k))
    return xp.where(x3 >= 0.0, (root, quotient), (quotient, root))


def _eta_magnitudes(xp, x1, x2, x3, rho_sq, r) -> tuple:
    # sigma sqrt(r - rho) = x3 / sqrt(r + rho): same value, sign included,
    # no cancellation near the equator plane.
    outer = xp.sqrt(r + xp.sqrt(rho_sq))
    return x3 / outer, outer


def xi_cartesian(xp, x1, x2, x3, sheet) -> tuple:
    """Real parts of xi_from_cartesian((x1, x2, x3), sheet) away from the origin, unvalidated."""
    return _cartesian(xp, x1, x2, x3, sheet, _xi_magnitudes)


def eta_cartesian(xp, x1, x2, x3, sheet) -> tuple:
    """Real parts of eta_from_cartesian((x1, x2, x3), sheet) away from the origin, unvalidated."""
    return _cartesian(xp, x1, x2, x3, sheet, _eta_magnitudes)


def _from_cartesian(v, sheet: int, kernel) -> Spinor:
    sheet = sign_flag(sheet, "sheet")
    x1, x2, x3 = finite_vector(v, "cartesian point")
    if x1 == x2 == x3 == 0.0:
        return Spinor(0.0j, 0.0j)
    return spinor_of(kernel(FLOATS, x1, x2, x3, sheet))


def xi_from_cartesian(v, sheet: int = 1) -> Spinor:
    """Pseudovector-model spinor of a Cartesian point.

    xi = (sqrt(r + x3) e^{-i phi/2}, sqrt(r - x3) e^{+i phi/2}) with r = |v|
    and e^{i phi} = (x1 + i x2)/rho. sheet = -1 selects the phi + 2pi lift,
    which flips the overall sign. The zero vector yields the zero spinor.
    """
    return _from_cartesian(v, sheet, xi_cartesian)


def xi_spherical(xp, r, theta, phi) -> tuple:
    """Real parts of xi_from_spherical at (r, theta) and the canonical azimuth phi."""
    root = xp.sqrt(2.0 * r)
    # 2 r overflows from r = 2^1023 on, where r / 2 is exact and 2 sqrt(r / 2) the root.
    if not xp.all(root < math.inf):
        root = xp.where(root < math.inf, root, 2.0 * xp.sqrt(0.5 * r))
    half = 0.5 * theta
    return polar(xp, root * xp.cos(half), root * xp.sin(half), phi)


def xi_from_spherical(p: SphericalPoint) -> Spinor:
    """xi = (sqrt(r(1+cos theta)) e^{-i phi/2}, sqrt(r(1-cos theta)) e^{+i phi/2}).

    Evaluated through half angles (1 +- cos theta = 2 cos^2/sin^2 (theta/2)),
    which is exact at the poles instead of cancelling there.
    """
    return spinor_of(xi_spherical(FLOATS, p.r, p.theta, p.phi))


def xi_from_parabolic(p: ParabolicPoint) -> Spinor:
    """xi = (N e^{-i phi/2}, M e^{+i phi/2})."""
    return spinor_of(polar(FLOATS, p.N, p.M, p.phi))


def xi_bilinears(xp, c1r, c1i, c2r, c2i) -> tuple:
    """(r, x1, x2, x3) of project_xi on a spinor's real parts."""
    n1 = c1r * c1r + c1i * c1i
    n2 = c2r * c2r + c2i * c2i
    # x1 + i x2 = conj(c1) c2; |x| <= r, so every entry is finite where r is.
    out = 0.5 * (n1 + n2), c1r * c2r + c1i * c2i, c1r * c2i - c1i * c2r, 0.5 * (n1 - n2)
    if not xp.all(xp.isfinite(out[0])):
        return _rescaled(xp, xi_bilinears, out, (c1r, c1i, c2r, c2i))
    return out


def _rescaled(xp, bilinears, first, parts) -> tuple:
    """first, the bilinears of parts, with each entry that is not finite rerun on parts
    times 2^k and unscaled by 2^-2k, k the exact scale that takes a row's largest part
    into [0.5, 1): the spinors at the top of the double range, whose squares overflow.
    The bilinears only add, subtract and multiply, so a finite entry saw no overflow
    and keeps its bits; the rerun would only lose its small terms to underflow."""
    k = xp.pow2_shift(*parts)
    again = bilinears(xp, *(xp.ldexp(p, k) for p in parts))
    return tuple(xp.where(xp.isfinite(b), b, xp.ldexp(c, -2 * k)) for b, c in zip(first, again))


def project_xi(xi: Spinor):
    """Bilinear projection (r, x) with r = xi^dag xi / 2 and x_j = xi^dag sigma^j xi / 2.

    Independent of the global phase; x.x = r^2 holds for every spinor (the
    Hopf norm), so the image lies on the cone over the 2-sphere.
    """
    try:
        r, *x = xi_bilinears(FLOATS, xi.c1.real, xi.c1.imag, xi.c2.real, xi.c2.imag)
    except OverflowError:
        raise OverflowError(_PAST_RANGE.format("project_xi", xi, "bilinears")) from None
    return r, np.array(x)


def hopf_constraint(q4, q1, q2, q3):
    """xi_constraint_residual on the entries (q4, q1, q2, q3), floats or columns."""
    return q1 * q4 + q2 * q3


def xi_constraint_residual(q: KSQuadruple) -> float:
    """The Hopf constraint of both models: U1 U4 + U2 U3 on a U (xi) quadruple,
    V1 V4 + V2 V3 = -a3 on a V (eta) one; identically zero on constructor outputs.
    Past the double range it raises OverflowError, as eta_quadruple_projection does."""
    return _entries_in_range("xi_constraint_residual", lambda *v: (hopf_constraint(*v),), q)[0]


def phase_rotated(xp, alpha, c1r, c1i, c2r, c2i) -> tuple:
    """Real parts of phase_rotate: each component times e^{i alpha} = (cos alpha, sin alpha)."""
    wr, wi = xp.cos(alpha), xp.sin(alpha)
    return wr * c1r - wi * c1i, wr * c1i + wi * c1r, wr * c2r - wi * c2i, wr * c2i + wi * c2r


def phase_rotate(s: Spinor, alpha: float) -> Spinor:
    """Multiply by the global phase e^{i alpha}; projections are unchanged."""
    alpha = finite_angle(alpha, "phase alpha")
    return spinor_of(phase_rotated(FLOATS, alpha, s.c1.real, s.c1.imag, s.c2.real, s.c2.imag))


def eta_from_cartesian(v, sheet: int = 1) -> Spinor:
    """Vector-model spinor of a Cartesian point.

    eta = (sigma sqrt(r - rho) e^{-i phi/2}, sqrt(r + rho) e^{+i phi/2}) with
    rho = sqrt(x1^2 + x2^2) and sigma = sign(x3), taken +1 at x3 = 0.
    """
    return _from_cartesian(v, sheet, eta_cartesian)


def eta_spherical(xp, r, theta, phi) -> tuple:
    """Real parts of eta_from_spherical at (r, theta) and the canonical azimuth phi."""
    root = xp.sqrt(r)
    c, s = xp.cos(0.5 * theta), xp.sin(0.5 * theta)
    return polar(xp, root * (c - s), root * (c + s), phi)


def eta_from_spherical(p: SphericalPoint) -> Spinor:
    """eta = (sigma sqrt(r(1-sin theta)) e^{-i phi/2}, sqrt(r(1+sin theta)) e^{+i phi/2}).

    sigma = sign(cos theta), +1 on the equator. Half angles give both radicals
    with their sign in one stroke: sigma sqrt(1-sin) = cos(theta/2)-sin(theta/2)
    and sqrt(1+sin) = cos(theta/2)+sin(theta/2) on [0, pi].
    """
    return spinor_of(eta_spherical(FLOATS, p.r, p.theta, p.phi))


def eta_parabolic(xp, n, m, phi) -> tuple:
    """Real parts of eta_from_parabolic at (N, M) and the canonical azimuth phi."""
    outer = (n + m) * INV_SQRT2
    # N + M can overflow where (N + M) / sqrt(2) does not; the halves are exact there.
    if not xp.all(outer < math.inf):
        outer = xp.where(outer < math.inf, outer, 2.0 * ((0.5 * n + 0.5 * m) * INV_SQRT2))
    return polar(xp, (n - m) * INV_SQRT2, outer, phi)


def eta_from_parabolic(p: ParabolicPoint) -> Spinor:
    """eta = ((N - M) e^{-i phi/2}, (N + M) e^{+i phi/2}) / sqrt(2).

    The half-space sign is absorbed by the sign of N - M. Where (N + M) / sqrt(2)
    passes the largest double the spinor has no floats, and ValueError says so.
    """
    try:
        return spinor_of(eta_parabolic(FLOATS, p.N, p.M, p.phi))
    except ValueError:  # raised by Spinor, for a component that overflowed
        raise ValueError(_PAST_RANGE.format("eta_from_parabolic", p, "components")) from None


def eta_bilinears(xp, h1r, h1i, h2r, h2i) -> tuple:
    """(a1, a2, a3, x1, x2, x3) of project_eta on a spinor's real parts."""
    sq1r, sq1i = h1r * h1r - h1i * h1i, 2.0 * (h1r * h1i)
    sq2r, sq2i = h2r * h2r - h2i * h2i, 2.0 * (h2r * h2i)
    dr, di = sq1r - sq2r, sq1i - sq2i
    pr, pi = h1r * h2r - h1i * h2i, h1r * h2i + h1i * h2r
    # w1 = (-i/2)(h1^2 - h2^2), w2 = (1/2)(h1^2 + h2^2), w3 = i h1 h2
    out = 0.5 * di, 0.5 * (sq1r + sq2r), -pi, -0.5 * dr, 0.5 * (sq1i + sq2i), pr
    # The sum is not finite where an entry is not; where it overflows on six finite
    # entries, _rescaled keeps them all.
    if not xp.all(xp.isfinite(sum(out))):
        return _rescaled(xp, eta_bilinears, out, (h1r, h1i, h2r, h2i))
    return out


def project_eta(eta: Spinor) -> EtaProjection:
    """Vector-model decomposition a_j + i x_j = tr[sigma^2 sigma^j (eta x eta)] / 2.

    Closed forms in the components (h1, h2):
    a1 + i x1 = -(i/2)(h1^2 - h2^2), a2 + i x2 = (h1^2 + h2^2)/2,
    a3 + i x3 = i h1 h2. a3 vanishes exactly when the V-constraint does, in
    particular on every constructor output.
    """
    try:
        out = eta_bilinears(FLOATS, eta.c1.real, eta.c1.imag, eta.c2.real, eta.c2.imag)
    except OverflowError:
        raise OverflowError(_PAST_RANGE.format("project_eta", eta, "bilinears")) from None
    return EtaProjection(np.array(out[:3]), np.array(out[3:]))


def eta_quadruple_bilinears(v4, v1, v2, v3) -> tuple:
    """(a1, a2, a3, x1, x2, x3) of eta_quadruple_projection on the entries (V4, V1, V2, V3)."""
    return (v1 * v2 - v3 * v4,
            0.5 * (v1 * v1 - v2 * v2 + v3 * v3 - v4 * v4),
            -hopf_constraint(v4, v1, v2, v3),
            0.5 * (v2 * v2 + v3 * v3 - v1 * v1 - v4 * v4),
            v1 * v2 + v3 * v4,
            v1 * v3 - v2 * v4)


def eta_quadruple_projection(q: KSQuadruple) -> EtaProjection:
    """The same decomposition evaluated as explicit V-bilinears.

    x = (V2^2 + V3^2 - V1^2 - V4^2)/2 ... V1 V3 - V2 V4 and
    a = (V1 V2 - V3 V4, (V1^2 - V2^2 + V3^2 - V4^2)/2, -(V1 V4 + V2 V3)),
    an arithmetic route independent of project_eta's complex products. An entry whose
    squares overflow is rerun through _rescaled, as in project_eta; one past the double
    range raises OverflowError.
    """
    out = _entries_in_range("eta_quadruple_projection", eta_quadruple_bilinears, q)
    return EtaProjection(np.array(out[:3]), np.array(out[3:]))


def _entries_in_range(name, bilinears, q: KSQuadruple) -> tuple:
    """bilinears(*q.as_tuple()), each entry that is not finite rerun through _rescaled;
    one past the double range raises OverflowError naming the function `name`."""
    v = q.as_tuple()
    out = bilinears(*v)
    if all(map(math.isfinite, out)):
        return out
    try:
        return _rescaled(FLOATS, lambda xp, *u: bilinears(*u), out, v)
    except OverflowError:
        raise OverflowError(_PAST_RANGE.format(name, q, "bilinears")) from None


def eta_of_xi(c1r, c1i, c2r, c2i) -> tuple:
    """Real parts of eta_from_xi, floats or columns."""
    return _over_sqrt2(c1r - c2r, c1i + c2i, c2r + c1r, c2i - c1i)


def _over_sqrt2(ar, ai, br, bi) -> tuple:
    """The real parts of (a, b) times the real INV_SQRT2, part by part."""
    k = INV_SQRT2
    return ar * k, ai * k, br * k, bi * k


def eta_from_xi(xi: Spinor) -> Spinor:
    """eta = (xi - i sigma^2 xi*) / sqrt(2), componentwise
    ((xi1 - xi2*)/sqrt(2), (xi2 + xi1*)/sqrt(2)). Past the double range it raises
    ValueError, as eta_from_parabolic does."""
    try:
        return spinor_of(eta_of_xi(xi.c1.real, xi.c1.imag, xi.c2.real, xi.c2.imag))
    except ValueError:  # raised by Spinor, for a sum that overflowed
        return _halved("eta_from_xi", eta_of_xi, xi)


def _halved(name, bridge, s: Spinor) -> Spinor:
    """The spinor of bridge's parts of s where a sum overflowed: each part that is not
    finite is rerun on the halved parts and doubled, as eta_parabolic takes N + M; one
    past the double range raises ValueError naming the function `name`."""
    parts = s.c1.real, s.c1.imag, s.c2.real, s.c2.imag
    halves = bridge(*(0.5 * p for p in parts))
    try:
        return spinor_of([b if math.isfinite(b) else 2.0 * h
                          for b, h in zip(bridge(*parts), halves)])
    except ValueError:
        raise ValueError(_PAST_RANGE.format(name, s, "components")) from None


def xi_of_eta(h1r, h1i, h2r, h2i) -> tuple:
    """Real parts of xi_from_eta, floats or columns."""
    return _over_sqrt2(h1r + h2r, h1i - h2i, h2r - h1r, h2i + h1i)


def xi_from_eta(eta: Spinor) -> Spinor:
    """Inverse of eta_from_xi: xi = ((eta1 + eta2*)/sqrt(2), (eta2 - eta1*)/sqrt(2)).
    Past the double range it raises ValueError, as eta_from_xi does."""
    try:
        return spinor_of(xi_of_eta(eta.c1.real, eta.c1.imag, eta.c2.real, eta.c2.imag))
    except ValueError:  # raised by Spinor, for a sum that overflowed
        return _halved("xi_from_eta", xi_of_eta, eta)


def u_to_v_entries(q4, q1, q2, q3) -> tuple:
    """The bridge S applied to (q4, q1, q2, q3), written out; floats or columns."""
    s = INV_SQRT2
    return s * q4 - s * q2, s * q1 - s * q3, s * q4 + s * q2, s * q1 + s * q3


# The fixed orthogonal bridge (V4,V1,V2,V3) = S (U4,U1,U2,U3) as a matrix, for
# rotation_algebra.s_matrix: the entries of u_to_v on the unit quadruples.
S_BRIDGE = np.array(u_to_v_entries(*np.eye(4)))


def u_to_v(q: KSQuadruple) -> KSQuadruple:
    """Apply the fixed orthogonal bridge matrix to a U-quadruple.

    Norm-preserving; agrees with eta_from_xi through the quadruple bijection.
    """
    return quadruple_of(u_to_v_entries(q.q4, q.q1, q.q2, q.q3))


def cartan_reflected(delta, c1r, c1i, c2r, c2i) -> tuple:
    """Real parts of cartan_reflect: i delta times each component, delta +-1.0."""
    return -delta * c1i, delta * c1r, -delta * c2i, delta * c2r


def cartan_reflect(s: Spinor, delta: int = 1) -> Spinor:
    """Reflection through the origin at spinor level: s -> delta * i * s.

    The xi projection is invariant (pseudovector); the eta projection flips
    sign in both parts (vector).
    """
    delta = float(sign_flag(delta, "delta"))
    return spinor_of(cartan_reflected(delta, s.c1.real, s.c1.imag, s.c2.real, s.c2.imag))


__all__ = [
    "SphericalPoint", "ParabolicPoint",
    "xi_from_cartesian", "xi_from_spherical", "xi_from_parabolic",
    "project_xi", "xi_constraint_residual", "phase_rotate",
    "eta_from_cartesian", "eta_from_spherical", "eta_from_parabolic",
    "project_eta", "eta_quadruple_projection", "eta_from_xi", "xi_from_eta",
    "u_to_v", "cartan_reflect",
]
