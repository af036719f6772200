"""Constructors and projections of the two spatial spinors.

xi parameterizes the pseudovector model and eta the vector model of 3-space
on the 4pi double cover. Cartesian, spherical and parabolic constructors are
provided for both, together with the bilinear projections back to 3-space,
the two quadratic (Hopf) constraints, and the xi <-> eta / U <-> V bridges.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    EtaProjection,
    KSQuadruple,
    Spinor,
    angle_value,
    finite_angle,
    half_phases,
    pow2_scaled,
    pow2_shift,
    quadruple_from_spinor,
    sheet_lift,
    sign_flag,
    spinor_from_quadruple,
)

INV_SQRT2 = math.sqrt(0.5)

_MIN_NORMAL = sys.float_info.min

# Fixed orthogonal bridge (V4,V1,V2,V3) = S (U4,U1,U2,U3); shared with
# rotation_algebra.s_matrix so both views use identical entries.
S_BRIDGE = INV_SQRT2 * np.array([
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
])


@dataclass(frozen=True, slots=True)
class SphericalPoint:
    """(r, theta, phi) with r >= 0, theta in [0, pi], phi on the double cover."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        r, theta = float(self.r), float(self.theta)
        if not (math.isfinite(r) and r >= 0.0):
            raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
        if not (0.0 <= theta <= math.pi):
            raise ValueError(f"polar angle must lie in [0, pi], got {theta!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", angle_value(self.phi, "azimuth phi"))


@dataclass(frozen=True, slots=True)
class ParabolicPoint:
    """(N, M, phi) parabolic parameters, N, M >= 0, phi on the double cover."""

    N: float
    M: float
    phi: float

    def __post_init__(self):
        N, M = float(self.N), float(self.M)
        if not (math.isfinite(N) and N >= 0.0 and math.isfinite(M) and M >= 0.0):
            raise ValueError("parabolic parameters must be finite and nonnegative")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "phi", angle_value(self.phi, "azimuth phi"))


def _from_cartesian(v, sheet: int, magnitudes) -> Spinor:
    """Spinor (m1 e^{-i phi/2}, m2 e^{+i phi/2}) of a Cartesian point, with
    (m1, m2) = magnitudes(x3, rho^2, r). The zero vector yields the zero spinor."""
    sheet = sign_flag(sheet, "sheet")
    x1, x2, x3 = float(v[0]), float(v[1]), float(v[2])
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
        raise ValueError(f"cartesian point must be finite, got {[x1, x2, x3]!r}")
    if x1 == x2 == x3 == 0.0:
        return Spinor(0.0j, 0.0j)
    m1, m2 = _point_magnitudes(x1, x2, x3, magnitudes)
    # The principal azimuth, which is defined as 0 on the axis (rho = 0).
    phi = math.atan2(x2, x1) if math.hypot(x1, x2) > 0.0 else 0.0
    em, ep = half_phases(sheet_lift(phi, sheet))
    return Spinor(m1 * em, m2 * ep)


def _point_magnitudes(x1: float, x2: float, x3: float, magnitudes) -> tuple:
    """magnitudes(x3, rho^2, r) of a nonzero point. Where r^2 leaves the normal range
    they are rerun on the point times 4^k, 2^k times the true ones, and unscaled."""
    rho_sq = x1 * x1 + x2 * x2
    r_sq = rho_sq + x3 * x3
    if _MIN_NORMAL <= r_sq < math.inf:
        return magnitudes(x3, rho_sq, math.sqrt(r_sq))
    k = pow2_shift((x1, x2, x3)) // 2
    e = 2 * k
    m1, m2 = _point_magnitudes(math.ldexp(x1, e), math.ldexp(x2, e), math.ldexp(x3, e), magnitudes)
    return math.ldexp(m1, -k), math.ldexp(m2, -k)


def _xi_magnitudes(x3: float, rho_sq: float, r: float) -> tuple:
    # r - |x3| cancels near the axis; the quotient form rho^2 / (r + |x3|)
    # is the same number without the cancellation.
    if x3 >= 0.0:
        plus = r + x3
        return math.sqrt(plus), math.sqrt(rho_sq / plus)
    minus = r - x3
    return math.sqrt(rho_sq / minus), math.sqrt(minus)


def _eta_magnitudes(x3: float, rho_sq: float, r: float) -> tuple:
    # sigma sqrt(r - rho) = x3 / sqrt(r + rho): same value, sign included,
    # no cancellation near the equator plane.
    outer = math.sqrt(r + math.sqrt(rho_sq))
    return x3 / outer, outer


def xi_from_cartesian(v, sheet: int = 1) -> Spinor:
    """Pseudovector-model spinor of a Cartesian point.

    xi = (sqrt(r + x3) e^{-i phi/2}, sqrt(r - x3) e^{+i phi/2}) with r = |v|
    and e^{i phi} = (x1 + i x2)/rho. sheet = -1 selects the phi + 2pi lift,
    which flips the overall sign. The zero vector yields the zero spinor.
    """
    return _from_cartesian(v, sheet, _xi_magnitudes)


def xi_from_spherical(p: SphericalPoint) -> Spinor:
    """xi = (sqrt(r(1+cos theta)) e^{-i phi/2}, sqrt(r(1-cos theta)) e^{+i phi/2}).

    Evaluated through half angles (1 +- cos theta = 2 cos^2/sin^2 (theta/2)),
    which is exact at the poles instead of cancelling there.
    """
    root = math.sqrt(2.0 * p.r)
    half = 0.5 * p.theta
    em, ep = half_phases(p.phi)
    return Spinor(root * math.cos(half) * em, root * math.sin(half) * ep)


def xi_from_parabolic(p: ParabolicPoint) -> Spinor:
    """xi = (N e^{-i phi/2}, M e^{+i phi/2})."""
    em, ep = half_phases(p.phi)
    return Spinor(p.N * em, p.M * ep)


def project_xi(xi: Spinor):
    """Bilinear projection (r, x) with r = xi^dag xi / 2 and x_j = xi^dag sigma^j xi / 2.

    Independent of the global phase; x.x = r^2 holds for every spinor (the
    Hopf norm), so the image lies on the cone over the 2-sphere.
    """
    z1, z2 = xi.c1, xi.c2
    n1 = z1.real * z1.real + z1.imag * z1.imag
    n2 = z2.real * z2.real + z2.imag * z2.imag
    cross = z1.conjugate() * z2
    r = 0.5 * (n1 + n2)
    if not math.isfinite(r):
        e, (r, x) = _rescaled(project_xi, xi)
        return math.ldexp(r, e), np.ldexp(x, e)
    x = np.array([cross.real, cross.imag, 0.5 * (n1 - n2)])
    return r, x


def _rescaled(project, s: Spinor) -> tuple:
    """(e, project(s 2^k)), where the exact scale 2^k takes the largest part
    of s into [0.5, 1) and e = -2k unscales the bilinears.

    For a spinor at the top of the double range, whose squares (about 2r)
    overflow.
    """
    q = quadruple_from_spinor(s).as_tuple()
    return -2 * pow2_shift(q), project(spinor_from_quadruple(KSQuadruple(*pow2_scaled(q))))


def xi_constraint_residual(q: KSQuadruple) -> float:
    """The Hopf constraint of both models: U1 U4 + U2 U3 on a U (xi) quadruple,
    V1 V4 + V2 V3 = -a3 on a V (eta) one; identically zero on constructor outputs."""
    return q.q1 * q.q4 + q.q2 * q.q3


def phase_rotate(s: Spinor, alpha: float) -> Spinor:
    """Multiply by the global phase e^{i alpha}; projections are unchanged."""
    w = cmath.exp(complex(0.0, finite_angle(alpha, "phase alpha")))
    return Spinor(w * s.c1, w * s.c2)


def eta_from_cartesian(v, sheet: int = 1) -> Spinor:
    """Vector-model spinor of a Cartesian point.

    eta = (sigma sqrt(r - rho) e^{-i phi/2}, sqrt(r + rho) e^{+i phi/2}) with
    rho = sqrt(x1^2 + x2^2) and sigma = sign(x3), taken +1 at x3 = 0.
    """
    return _from_cartesian(v, sheet, _eta_magnitudes)


def eta_from_spherical(p: SphericalPoint) -> Spinor:
    """eta = (sigma sqrt(r(1-sin theta)) e^{-i phi/2}, sqrt(r(1+sin theta)) e^{+i phi/2}).

    sigma = sign(cos theta), +1 on the equator. Half angles give both radicals
    with their sign in one stroke: sigma sqrt(1-sin) = cos(theta/2)-sin(theta/2)
    and sqrt(1+sin) = cos(theta/2)+sin(theta/2) on [0, pi].
    """
    root = math.sqrt(p.r)
    c, s = math.cos(0.5 * p.theta), math.sin(0.5 * p.theta)
    em, ep = half_phases(p.phi)
    return Spinor(root * (c - s) * em, root * (c + s) * ep)


def eta_from_parabolic(p: ParabolicPoint) -> Spinor:
    """eta = ((N - M) e^{-i phi/2}, (N + M) e^{+i phi/2}) / sqrt(2).

    The half-space sign is absorbed by the sign of N - M.
    """
    em, ep = half_phases(p.phi)
    return Spinor((p.N - p.M) * INV_SQRT2 * em, (p.N + p.M) * INV_SQRT2 * ep)


def project_eta(eta: Spinor) -> EtaProjection:
    """Vector-model decomposition a_j + i x_j = tr[sigma^2 sigma^j (eta x eta)] / 2.

    Closed forms in the components (h1, h2):
    a1 + i x1 = -(i/2)(h1^2 - h2^2), a2 + i x2 = (h1^2 + h2^2)/2,
    a3 + i x3 = i h1 h2. a3 vanishes exactly when the V-constraint does, in
    particular on every constructor output.
    """
    h1, h2 = eta.c1, eta.c2
    sq1 = h1 * h1
    sq2 = h2 * h2
    w1 = complex(0.0, -0.5) * (sq1 - sq2)
    w2 = 0.5 * (sq1 + sq2)
    w3 = complex(0.0, 1.0) * (h1 * h2)
    if not (cmath.isfinite(w1) and cmath.isfinite(w2) and cmath.isfinite(w3)):
        e, p = _rescaled(project_eta, eta)
        return EtaProjection(a=np.ldexp(p.a, e), x=np.ldexp(p.x, e))
    return EtaProjection(a=np.array([w1.real, w2.real, w3.real]),
                         x=np.array([w1.imag, w2.imag, w3.imag]))


def eta_quadruple_projection(q: KSQuadruple) -> EtaProjection:
    """The same decomposition evaluated as explicit V-bilinears.

    x = (V2^2 + V3^2 - V1^2 - V4^2)/2 ... V1 V3 - V2 V4 and
    a = (V1 V2 - V3 V4, (V1^2 - V2^2 + V3^2 - V4^2)/2, -(V1 V4 + V2 V3)),
    an arithmetic route independent of project_eta's complex products.
    """
    v4, v1, v2, v3 = q.as_tuple()
    a = np.array([
        v1 * v2 - v3 * v4,
        0.5 * (v1 * v1 - v2 * v2 + v3 * v3 - v4 * v4),
        -(v1 * v4 + v2 * v3),
    ])
    x = np.array([
        0.5 * (v2 * v2 + v3 * v3 - v1 * v1 - v4 * v4),
        v1 * v2 + v3 * v4,
        v1 * v3 - v2 * v4,
    ])
    return EtaProjection(a=a, x=x)


def eta_from_xi(xi: Spinor) -> Spinor:
    """eta = (xi - i sigma^2 xi*) / sqrt(2), componentwise
    ((xi1 - xi2*)/sqrt(2), (xi2 + xi1*)/sqrt(2))."""
    return Spinor((xi.c1 - xi.c2.conjugate()) * INV_SQRT2,
                  (xi.c2 + xi.c1.conjugate()) * INV_SQRT2)


def xi_from_eta(eta: Spinor) -> Spinor:
    """Inverse of eta_from_xi: xi = ((eta1 + eta2*)/sqrt(2), (eta2 - eta1*)/sqrt(2))."""
    return Spinor((eta.c1 + eta.c2.conjugate()) * INV_SQRT2,
                  (eta.c2 - eta.c1.conjugate()) * INV_SQRT2)


def u_to_v(q: KSQuadruple) -> KSQuadruple:
    """Apply the fixed orthogonal bridge matrix to a U-quadruple.

    Norm-preserving; agrees with eta_from_xi through the quadruple bijection.
    """
    return KSQuadruple(*(S_BRIDGE @ q.as_array()).tolist())


def cartan_reflect(s: Spinor, delta: int = 1) -> Spinor:
    """Reflection through the origin at spinor level: s -> delta * i * s.

    The xi projection is invariant (pseudovector); the eta projection flips
    sign in both parts (vector).
    """
    delta = sign_flag(delta, "delta")
    w = complex(0.0, float(delta))
    return Spinor(w * s.c1, w * s.c2)


__all__ = [
    "SphericalPoint", "ParabolicPoint",
    "xi_from_cartesian", "xi_from_spherical", "xi_from_parabolic",
    "project_xi", "xi_constraint_residual", "phase_rotate",
    "eta_from_cartesian", "eta_from_spherical", "eta_from_parabolic",
    "project_eta", "eta_quadruple_projection", "eta_from_xi", "xi_from_eta",
    "u_to_v", "cartan_reflect",
]
