"""Seeded verification suites for the library's identities.

Five suites (hopf, covariance, so4, ks, gauge) draw reproducible random
samples and measure the worst scaled residual of each identity they cover.
Each check draws all its inputs at once, calls the library's scalar functions
once per sample into arrays, and reduces a chunk of samples at once. A report
passes when every check lands under its threshold. The fixture replay path
reruns stored golden records through the constructors and holds them to the
tolerance each record carries.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    FOUR_PI,
    TWO_PI,
    KSQuadruple,
    Spinor,
    SpinorRotation,
    compose,
    quadruple_from_spinor,
    spinor_from_quadruple,
    su2_matrix,
)
from . import fixtures as fixture_io
from .gauge_fixing import (
    SingularGaugeError,
    axis_phase,
    canonical_phase_minus,
    canonical_phase_plus,
    gauge_minus,
    gauge_plus,
    psi_from_direction,
    rotation_between,
    stabilizer_check,
)
from .ks_covariance import (
    build_frame,
    direction_from_ks,
    frame_symmetry,
    hat,
    ks_from_rotation,
    left_transport,
    normalize_ks,
    rotated_direction,
    rotation_from_unit_ks,
)
from .rotation_algebra import (
    ELEMENTARY_PLANES,
    PAULI,
    elementary_so4,
    extract_so3,
    rotate_spinor,
    rotation_from_vector_parameter,
    s_factorization_check,
    s_matrix,
    s_outside_su2_image,
    so3_from_rotation,
    so3_from_vector_parameter,
    su2_real4,
    vector_parameter,
)
from .spinor_maps import (
    ParabolicPoint,
    SphericalPoint,
    cartan_reflect,
    eta_from_cartesian,
    eta_from_parabolic,
    eta_from_spherical,
    eta_from_xi,
    eta_quadruple_projection,
    phase_rotate,
    project_eta,
    project_xi,
    u_to_v,
    xi_constraint_residual,
    xi_from_cartesian,
    xi_from_eta,
    xi_from_parabolic,
    xi_from_spherical,
)


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Worst-case scaled residual of one identity over a sample run."""

    name: str
    samples: int
    max_residual: float
    threshold: float
    passed: bool

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"  [{verdict}] {self.name:32s} max residual {self.max_residual:.3e}"
                f"  (n={self.samples}, threshold {self.threshold:.1e})")


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """All check results of one suite run; passes iff every check passed."""

    suite: str
    seed: int
    samples: int
    tolerance: float
    checks: tuple
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)

    def result(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list:
        head = (f"suite {self.suite}: seed {self.seed}, {self.samples} samples, "
                f"tolerance {self.tolerance:.1e}")
        body = [c.line() for c in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        tail = (f"  suite {self.suite}: {verdict}, max residual "
                f"{self.max_residual:.3e}, {self.elapsed:.2f} s")
        return [head] + body + [tail]


# Samples per step of a check: its output arrays and temporaries stay this small.
_CHUNK = 256


def _worst(lhs, rhs, axis=None) -> float:
    """Largest scaled residual |lhs - rhs| / max(1, |lhs|, |rhs|) of a batch.

    With axis None every entry is scaled on its own; otherwise each sample's
    entries over `axis` share one scale, as in core.scaled_residual. An empty
    batch gives 0, a NaN inf.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    gap = np.abs(lhs - rhs)
    size = np.maximum(np.abs(lhs), np.abs(rhs))
    if axis is not None:
        gap, size = gap.max(axis=axis), size.max(axis=axis)
    worst = float(np.max(gap / np.maximum(size, 1.0), initial=0.0))
    return math.inf if math.isnan(worst) else worst


def _chunked(body, inputs) -> float:
    """Worst residual of body over the input arrays, _CHUNK samples at a time."""
    return max((body(*(a[i:i + _CHUNK] for a in inputs))
                for i in range(0, len(inputs[0]), _CHUNK)), default=0.0)


def _check(name, draw):
    """Make a check from a batch body: draw(rng, n) returns the inputs of all
    samples as arrays (n of them, or a fixed set of cases), and the body maps a
    chunk of them to its worst residual."""
    def decorate(body):
        def check(seed, samples, tol):
            inputs = draw(np.random.default_rng(seed), samples)
            worst = _chunked(body, inputs)
            return CheckResult(name, len(inputs[0]), worst, tol, worst <= tol)
        check.__name__ = body.__name__
        return check
    return decorate


def _rows(*arrays):
    """(index, rows) over a chunk, the rows as Python values."""
    return enumerate(zip(*(a.tolist() for a in arrays)))


def _spinor_rows(s, *arrays):
    """As _rows, with the first array's (n, 4) storage as Spinors."""
    spinors = itertools.starmap(Spinor, s.view(complex).tolist())
    return enumerate(zip(spinors, *(a.tolist() for a in arrays)))


def _unit(v: np.ndarray) -> np.ndarray:
    # In place: callers pass fresh draws.
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("nkl,nl->nk", m, v)


def _sigma(v: np.ndarray) -> np.ndarray:
    """v . sigma for a batch of 3-vectors, shape (N, 2, 2)."""
    return np.einsum("nj,jab->nab", v, PAULI)


def _conjugate(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b m b^dag for batches of 2x2 matrices, as real (N, 2, 4) storage."""
    return np.einsum("nab,nbc,ndc->nad", b, m, b.conj()).view(float)


# Input draws: each returns every sample's inputs as a tuple of arrays.

def _spinors(rng, n):
    return (rng.normal(size=(n, 4)),)


def _units(rng, n):
    # Haar rotations, uniform unit spinors and unit KS quadruples alike.
    return (_unit(rng.normal(size=(n, 4))),)


def _unit_and_gaussian(rng, n):
    g = rng.normal(size=(n, 8))
    return _unit(g[:, :4]), g[:, 4:]


def _two_units(rng, n):
    g = _unit(rng.normal(size=(n, 2, 4)))
    return g[:, 0], g[:, 1]


def _points(rng, n):
    d = rng.uniform(-2.0, 2.0, size=(n, 4))
    return d[:, :3], np.where(d[:, 3] < 0.0, -1, 1)  # the point, its sheet


# ---------------------------------------------------------------- hopf suite

@_check("construct_project_round_trip", _points)
def _check_construct_project(v, sheets):
    out = np.empty((len(v), 13))  # xi: r, x, constraint | eta: x, a, constraint, |q|^2
    for i, (point, sheet) in _rows(v, sheets):
        xi = xi_from_cartesian(point, sheet)
        eta = eta_from_cartesian(point, sheet)
        p, qe = project_eta(eta), quadruple_from_spinor(eta)
        row = out[i]
        row[0], row[1:4] = project_xi(xi)
        row[4] = xi_constraint_residual(quadruple_from_spinor(xi))
        row[5:8], row[8:11] = p.x, p.a
        row[11], row[12] = xi_constraint_residual(qe), qe.norm_sq
    r, x, px, pa = out[:, 0], out[:, 1:4], out[:, 5:8], out[:, 8:11]
    half, pxx = 0.5 * out[:, 12], _dot(px, px)
    return max(_worst(x, v, 1), _worst(r, np.sqrt(_dot(v, v))), _worst(out[:, [4, 11]], 0.0),
               _worst(_dot(x, x), r * r), _worst(px, v, 1), _worst(pxx, half * half),
               _worst(_dot(pa, px), 0.0), _worst(_dot(pa, pa), pxx))


@_check("hopf_norms_any_spinor", _spinors)
def _check_hopf_norm_general(s):
    out = np.empty((len(s), 10))  # r, xi x, eta x, eta a
    for i, (spinor,) in _spinor_rows(s):
        p = project_eta(spinor)
        out[i, 0], out[i, 1:4] = project_xi(spinor)
        out[i, 4:7], out[i, 7:] = p.x, p.a
    r, x, px, pa = out[:, 0], out[:, 1:4], out[:, 4:7], out[:, 7:]
    half, pxx = 0.5 * _dot(s, s), _dot(px, px)
    return max(_worst(_dot(x, x), r * r), _worst(pxx, half * half),
               _worst(_dot(pa, px), 0.0), _worst(_dot(pa, pa), pxx))


@_check("eta_projection_dual_route", _spinors)
def _check_projection_dual_route(s):
    out = np.empty((len(s), 4, 3))  # complex route a, x | quadruple route a, x
    for i, (spinor,) in _spinor_rows(s):
        p = project_eta(spinor)
        q = eta_quadruple_projection(quadruple_from_spinor(spinor))
        out[i] = p.a, p.x, q.a, q.x
    return max(_worst(out[:, 0], out[:, 2], 1), _worst(out[:, 1], out[:, 3], 1))


def _spherical_draw(rng, n):
    u = rng.random((n, 3))
    # Componentwise constructor agreement loses digits at the poles where
    # r - |x3| cancels; the round-trip checks cover that region instead.
    theta = 0.05 + (math.pi - 0.1) * u[:, 1]
    phi = np.mod(4.0 * math.pi * u[:, 2] - 2.0 * math.pi, FOUR_PI)
    return 0.1 + 2.9 * u[:, 0], theta, np.where(phi > TWO_PI, phi - FOUR_PI, phi)


@_check("coordinate_agreement", _spherical_draw)
def _check_coordinate_agreement(r, theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    cart = np.column_stack([r * st * np.cos(phi), r * st * np.sin(phi), r * ct])
    par = np.column_stack([np.sqrt(r * (1.0 + ct)), np.sqrt(r * (1.0 - ct))])
    # The principal atan2 lift covers (-pi, pi]; anything else is sheet -1.
    sheets = np.where((phi > -math.pi) & (phi <= math.pi), 1, -1)
    # xi from spherical, cartesian, parabolic | eta from the same three
    out = np.empty((len(r), 6, 2), dtype=complex)
    for i, (ri, ti, pi_, xyz, (big_n, big_m), sheet) in _rows(r, theta, phi, cart, par, sheets):
        sp = SphericalPoint(ri, ti, pi_)
        pp = ParabolicPoint(big_n, big_m, pi_)
        for k, spinor in enumerate((xi_from_spherical(sp), xi_from_cartesian(xyz, sheet),
                                    xi_from_parabolic(pp), eta_from_spherical(sp),
                                    eta_from_cartesian(xyz, sheet), eta_from_parabolic(pp))):
            out[i, k] = spinor.c1, spinor.c2
    parts = out.view(float)
    return _worst(parts[:, [1, 2, 4, 5]], parts[:, [0, 0, 3, 3]])


@_check("projection_phase_invariance",
        lambda rng, n: (rng.normal(size=(n, 4)), rng.uniform(-8.0, 8.0, size=n)))
def _check_phase_invariance(s, alpha):
    out = np.empty((len(s), 2, 4))  # (r, x) before and after the phase
    for i, (spinor, a) in _spinor_rows(s, alpha):
        out[i, 0, 0], out[i, 0, 1:] = project_xi(spinor)
        out[i, 1, 0], out[i, 1, 1:] = project_xi(phase_rotate(spinor, a))
    return max(_worst(out[:, 0, 0], out[:, 1, 0]), _worst(out[:, 0, 1:], out[:, 1, 1:], 1))


# ---------------------------------------------------------- covariance suite

@_check("xi_commuting_square", _unit_and_gaussian)
def _check_xi_commuting_square(c, s):
    out = np.empty((len(c), 2, 4))  # (r, x) of s and of B(c) s
    o = np.empty((len(c), 3, 3))
    for i, (spinor, crow) in _spinor_rows(s, c):
        rot = SpinorRotation(*crow)
        out[i, 0, 0], out[i, 0, 1:] = project_xi(spinor)
        out[i, 1, 0], out[i, 1, 1:] = project_xi(rotate_spinor(rot, spinor))
        o[i] = so3_from_rotation(rot)
    return max(_worst(out[:, 0, 0], out[:, 1, 0]),
               _worst(out[:, 1, 1:], _apply(o, out[:, 0, 1:]), 1))


@_check("eta_commuting_square", _unit_and_gaussian)
def _check_eta_commuting_square(c, s):
    out = np.empty((len(c), 4, 3))  # x, a of s | x, a of B(c) s
    o = np.empty((len(c), 3, 3))
    for i, (spinor, crow) in _spinor_rows(s, c):
        rot = SpinorRotation(*crow)
        o[i] = so3_from_rotation(rot)
        p0, p1 = project_eta(spinor), project_eta(rotate_spinor(rot, spinor))
        out[i] = p0.x, p0.a, p1.x, p1.a
    return max(_worst(out[:, 2], _apply(o, out[:, 0]), 1),
               _worst(out[:, 3], _apply(o, out[:, 1]), 1))


@_check("so3_extraction_orthogonality", _units)
def _check_so3_extraction(c):
    m = np.empty((len(c), 2, 3, 3))  # closed form, trace extraction
    for i, (crow,) in _rows(c):
        rot = SpinorRotation(*crow)
        m[i] = so3_from_rotation(rot), extract_so3(su2_matrix(rot))
    o = m[:, 0]
    return max(_worst(m[:, 1], o, (1, 2)), _worst(np.linalg.det(o), 1.0),
               _worst(np.einsum("nki,nkj->nij", o, o), np.eye(3), (1, 2)))


@_check("vector_parameter_chart", lambda rng, n: (rng.normal(size=(n, 3)) * 1.5,))
def _check_vector_parameter_chart(c_vec):
    back = np.empty((len(c_vec), 3))
    m = np.empty((len(c_vec), 2, 3, 3))  # from C directly, through the quadruple
    for i, (row,) in _rows(c_vec):
        rot = rotation_from_vector_parameter(row)
        back[i] = vector_parameter(rot)
        m[i] = so3_from_vector_parameter(row), so3_from_rotation(rot)
    return max(_worst(back, c_vec, 1), _worst(m[:, 0], m[:, 1], (1, 2)))


@_check("rotation_homomorphisms", _two_units)
def _check_so4_homomorphism(c1, c2):
    m = np.empty((len(c1), 3, 4, 4))  # su2_real4 of c1, c2, c1 c2
    o = np.empty((len(c1), 3, 3, 3))  # so3_from_rotation of the same
    for i, (row1, row2) in _rows(c1, c2):
        r1, r2 = SpinorRotation(*row1), SpinorRotation(*row2)
        for k, rot in enumerate((r1, r2, compose(r1, r2))):
            m[i, k] = su2_real4(rot)
            o[i, k] = so3_from_rotation(rot)
    return max(_worst(m[:, 2], m[:, 0] @ m[:, 1], (1, 2)),
               _worst(np.einsum("nki,nkj->nij", m[:, 0], m[:, 0]), np.eye(4), (1, 2)),
               _worst(o[:, 2], o[:, 0] @ o[:, 1], (1, 2)))


@_check("so4_spinor_conjugacy", _unit_and_gaussian)
def _check_quadruple_spinor_conjugacy(c, q):
    m = np.empty((len(c), 4, 4))
    via_spinor = np.empty((len(c), 4))
    for i, (crow, qrow) in _rows(c, q):
        rot = SpinorRotation(*crow)
        m[i] = su2_real4(rot)
        moved = rotate_spinor(rot, spinor_from_quadruple(KSQuadruple(*qrow)))
        via_spinor[i] = quadruple_from_spinor(moved).as_tuple()
    return _worst(_apply(m, q), via_spinor, 1)


# ----------------------------------------------------------------- so4 suite

@_check("bridge_involution", _spinors)
def _check_bridge_involution(s):
    out = np.empty((len(s), 2, 2), dtype=complex)  # xi(eta(s)), eta(xi(s))
    for i, (spinor,) in _spinor_rows(s):
        t, u = xi_from_eta(eta_from_xi(spinor)), eta_from_xi(xi_from_eta(spinor))
        out[i] = (t.c1, t.c2), (u.c1, u.c2)
    return _worst(out.view(float), s[:, None, :])


@_check("bridge_quadruple_route", _spinors)
def _check_bridge_quadruple_route(s):
    out = np.empty((len(s), 2, 4))  # S U, quadruple of eta_from_xi
    for i, (spinor,) in _spinor_rows(s):
        out[i] = (u_to_v(quadruple_from_spinor(spinor)).as_tuple(),
                  quadruple_from_spinor(eta_from_xi(spinor)).as_tuple())
    return _worst(out[:, 0], out[:, 1], 1)


_PLANE_LABELS = tuple(ELEMENTARY_PLANES)


# The fixed S properties are the same in every chunk, so the max is unchanged.
@_check("s_orthogonal_factorization", lambda rng, n: (rng.random((n, 2)),))
def _check_s_properties(u):
    s = s_matrix()
    scan = s_factorization_check()
    e = np.empty((len(u), 4, 4))
    for i, (ua, ub) in _rows(u[:, 0], u[:, 1]):
        e[i] = elementary_so4(_PLANE_LABELS[min(int(6.0 * ub), 5)], 2.0 * math.pi * ua - math.pi)
    return max(_worst((s.T @ s)[None], np.eye(4), (1, 2)), _worst(np.linalg.det(s), 1.0),
               scan.best_residual, _worst(scan.best_angles, math.pi / 4.0),
               _worst(np.einsum("nki,nkj->nij", e, e), np.eye(4), (1, 2)),
               _worst(np.linalg.det(e), 1.0))


@_check("s_no_su2_preimage", _units)
def _check_s_non_membership(c):
    cert = s_outside_su2_image()
    out = np.empty((len(c), 5))  # fitted parameters, fit residual
    for i, (crow,) in _rows(c):
        refit = s_outside_su2_image(su2_real4(SpinorRotation(*crow)))
        out[i, :4], out[i, 4] = refit.best_fit, refit.residual
    # The fit gap has a closed-form value sqrt(2); landing there implies the
    # certificate's ">0.1" margin with room to spare, which a fail reports as inf.
    gap = _worst(cert.residual, math.sqrt(2.0)) if cert.residual > 0.1 else math.inf
    return max(gap, _worst(cert.implied_values[0], -cert.implied_values[1]),
               _worst(out[:, :4], c, 1), _worst(out[:, 4], 0.0))


_BUILDERS = ((xi_from_spherical, 0), (eta_from_spherical, 0),
             (xi_from_parabolic, 1), (eta_from_parabolic, 1))
_MINUS_ONE = SpinorRotation(-1.0, 0.0, 0.0, 0.0)


@_check("double_cover_sign", lambda rng, n: (rng.random((n, 6)), rng.normal(size=(n, 4))))
def _check_double_cover(u, s):
    r, theta, phi = 0.1 + 2.9 * u[:, 0], math.pi * u[:, 1], 4.0 * math.pi * u[:, 2] - 2.0 * math.pi
    inputs = np.column_stack([r, theta, phi, np.sqrt(r * (1.0 + np.cos(theta))),
                              np.sqrt(r * (1.0 - np.cos(theta)))])
    lifts = np.empty((len(u), 4, 3, 2), dtype=complex)  # each constructor at phi + 0, 2pi, 4pi
    proj = np.empty((len(u), 4, 2, 4))  # (r, x) at phi and phi + 2pi
    flips = np.empty((len(u), 2, 2), dtype=complex)  # xi of a point on sheets +1, -1
    turned = np.empty((len(u), 2), dtype=complex)  # B(-1) s
    cart = 4.0 * u[:, 3:] - 2.0
    for i, (spinor, (rr, th, phi, n_par, m_par), point) in _spinor_rows(s, inputs, cart):
        angles = (phi, phi + 2.0 * math.pi, phi + 4.0 * math.pi)
        points = ([SphericalPoint(rr, th, a) for a in angles],
                  [ParabolicPoint(n_par, m_par, a) for a in angles])
        for b, (build, kind) in enumerate(_BUILDERS):
            for k, where in enumerate(points[kind]):
                lift = build(where)
                lifts[i, b, k] = lift.c1, lift.c2
                if k < 2:
                    proj[i, b, k, 0], proj[i, b, k, 1:] = project_xi(lift)
        flips[i] = [(f.c1, f.c2) for f in (xi_from_cartesian(point, sheet) for sheet in (1, -1))]
        moved = rotate_spinor(_MINUS_ONE, spinor)
        turned[i] = moved.c1, moved.c2
    parts, flips, turned = lifts.view(float), flips.view(float), turned.view(float)
    return max(_worst(parts[:, :, 1], -parts[:, :, 0]), _worst(parts[:, :, 2], parts[:, :, 0]),
               _worst(proj[:, :, 0, 0], proj[:, :, 1, 0]),
               _worst(proj[:, :, 0, 1:], proj[:, :, 1, 1:], 2),
               _worst(flips[:, 1, [0, 3]], -flips[:, 0, [0, 3]]),
               _worst(turned[:, [0, 2]], -s[:, [0, 2]]),
               _worst(so3_from_rotation(_MINUS_ONE)[None], np.eye(3), (1, 2)))


@_check("cartan_reflection_parity", lambda rng, n: (rng.normal(size=(n, 5)),))
def _check_cartan_reflection(g):
    out = np.empty((len(g), 2, 10))  # r, x, eta x, eta a of s and of its reflection
    for i, (spinor, delta) in _spinor_rows(g[:, :4], np.where(g[:, 4] < 0.0, -1, 1)):
        for k, image in enumerate((spinor, cartan_reflect(spinor, delta))):
            p = project_eta(image)
            out[i, k, 0], out[i, k, 1:4] = project_xi(image)
            out[i, k, 4:7], out[i, k, 7:] = p.x, p.a
    before, after = out[:, 0], out[:, 1]
    return max(_worst(before[:, 0], after[:, 0]), _worst(before[:, 1:4], after[:, 1:4], 1),
               _worst(after[:, 4:7], -before[:, 4:7], 1), _worst(after[:, 7:], -before[:, 7:], 1))


# ------------------------------------------------------------------ ks suite

@_check("direction_vs_matrix_hat", _units)
def _check_direction_matrix(u):
    out = np.empty((len(u), 3, 4))  # direction, third column of O(hat u), hat(hat(u))
    for i, (row,) in _rows(u):
        q = KSQuadruple(*row)
        out[i, 0, :3] = direction_from_ks(q)
        out[i, 1, :3] = so3_from_rotation(rotation_from_unit_ks(hat(q)))[:, 2]
        out[i, 2] = hat(hat(q)).as_tuple()
    n = out[:, 0, :3]
    return max(_worst(n, -out[:, 1, :3], 1), _worst(_dot(n, n), 1.0), _worst(out[:, 2], u, 1))


@_check("left_transport_routes", _two_units)
def _check_left_transport(c, u):
    quads = np.empty((len(c), 2, 4))  # transported, via the quaternion product
    dirs = np.empty((len(c), 2, 3))  # direction of the transported and of u
    o = np.empty((len(c), 3, 3))
    for i, (crow, urow) in _rows(c, u):
        rot, q = SpinorRotation(*crow), KSQuadruple(*urow)
        moved = left_transport(rot, q)
        quads[i] = (moved.as_tuple(),
                    hat(ks_from_rotation(compose(rot, rotation_from_unit_ks(hat(q))))).as_tuple())
        dirs[i] = direction_from_ks(moved), direction_from_ks(q)
        o[i] = so3_from_rotation(rot)
    moved = quads[:, 0]
    return max(_worst(moved, quads[:, 1], 1), _worst(_dot(moved, moved), _dot(u, u)),
               _worst(dirs[:, 0], _apply(o, dirs[:, 1]), 1))


def _frame_draw(rng, n):
    u = _unit(rng.normal(size=(n, 4)))
    # The aligning gauge blows up near the south pole; stay on its chart.
    axes = _unit(rng.normal(size=(n, 3)))
    off_chart = axes[:, 2] < -0.99
    while off_chart.any():
        axes[off_chart] = _unit(rng.normal(size=(int(off_chart.sum()), 3)))
        off_chart = axes[:, 2] < -0.99
    return u, axes, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n)


@_check("frame_defining_identities", _frame_draw)
def _check_frame_identities(u, axes, delta):
    dirs = np.empty((len(u), 3, 3))  # frame direction n, rotated n', direction of w
    o_w = np.empty((len(u), 3, 3))
    b_w = np.empty((len(u), 2, 2), dtype=complex)
    for i, (urow, axis, turn) in _rows(u, axes, delta):
        frame = build_frame(KSQuadruple(*urow), axis, turn)
        w_rot = rotation_from_unit_ks(hat(frame.w))
        b_w[i], o_w[i] = su2_matrix(w_rot), so3_from_rotation(w_rot)
        dirs[i] = (frame.direction, rotated_direction(frame.w, frame.align, frame.direction),
                   direction_from_ks(frame.w))
    n, n_prime = dirs[:, 0], dirs[:, 1]
    third = np.broadcast_to(PAULI[2], b_w.shape)
    return max(_worst(_conjugate(b_w, _sigma(axes)), (-_sigma(n)).view(float), (1, 2)),
               _worst(axes, -np.einsum("nkl,nk->nl", o_w, n), 1),
               _worst(_conjugate(b_w, third), (-_sigma(n_prime)).view(float), (1, 2)),
               _worst(n_prime, dirs[:, 2], 1))


@_check("frame_symmetry_transport",
        lambda rng, n: (_units(rng, n)[0], rng.uniform(-math.pi, math.pi, size=(n, 2))))
def _check_frame_symmetry(u, angles):  # angles: the partner's turn beta, the frame's delta
    n = np.empty((len(u), 3))
    o = np.empty((len(u), 3, 3))
    b = np.empty((len(u), 4, 2, 2), dtype=complex)  # B(c), B(hat u), D(delta), B(hat w)
    for i, (urow, (beta, delta)) in _rows(u, angles):
        q = KSQuadruple(*urow)
        u_rot = rotation_from_unit_ks(hat(q))
        partner = hat(ks_from_rotation(compose(u_rot, axis_phase(beta))))
        c = frame_symmetry(q, partner, delta)
        n[i], o[i] = direction_from_ks(q), so3_from_rotation(c)
        b[i] = [su2_matrix(rot) for rot in (c, u_rot, axis_phase(delta),
                                            rotation_from_unit_ks(hat(partner)))]
    lhs = b[:, 0] @ b[:, 1] @ b[:, 2]
    return max(_worst(_apply(o, n), n, 1), _worst(lhs.view(float), b[:, 3].view(float), (1, 2)))


_SWEEP = np.arange(16) * (math.pi / 8.0)


@_check("phase_residual_law", _points)
def _check_phase_residual_law(v, sheets):
    q = np.empty((len(v), 5))  # quadruple of xi, its constraint residual
    moved = np.empty((len(v), len(_SWEEP)))  # residual after each phase
    for i, (point, sheet) in _rows(v, sheets):
        xi = xi_from_cartesian(point, sheet)
        quad = quadruple_from_spinor(xi)
        q[i, :4], q[i, 4] = quad.as_tuple(), xi_constraint_residual(quad)
        for k, alpha in enumerate(_SWEEP.tolist()):
            moved[i, k] = xi_constraint_residual(quadruple_from_spinor(phase_rotate(xi, alpha)))
    q4, q1, q2, q3, base = q.T[:, :, None]
    return _worst(moved, np.sin(2.0 * _SWEEP) * (q1 * q3 - q2 * q4) + np.cos(2.0 * _SWEEP) * base)


def _raises(error, func, *args) -> bool:
    try:
        func(*args)
    except error:
        return True
    return False


def _error_paths(name, *cases):
    """A check that each case (error, func, *args) raises its error; each case is a sample."""
    @_check(name, lambda rng, n: (cases,))
    def _check_error_paths(chunk):
        return 0.0 if all(_raises(*case) for case in chunk) else math.inf
    return _check_error_paths


_check_frame_error_paths = _error_paths(
    "singular_error_paths",
    (SingularGaugeError, build_frame, KSQuadruple(0.3, 0.5, -0.4, 0.2), (0.0, 0.0, -1.0)),
    (ValueError, normalize_ks, KSQuadruple(0.0, 0.0, 0.0, 0.0)),
    (ValueError, frame_symmetry, KSQuadruple(1.0, 0.0, 0.0, 0.0), KSQuadruple(0.0, 1.0, 0.0, 0.0)))


# --------------------------------------------------------------- gauge suite

@_check("gauge_postconditions",
        lambda rng, n: (_units(rng, n)[0], rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n)))
def _check_gauge_postconditions(psi, phase):
    out = np.empty((len(psi), 2, 2), dtype=complex)  # gauge_plus, gauge_minus image
    for i, (spinor, p) in _spinor_rows(psi, phase):
        for k, gauge in enumerate((gauge_plus, gauge_minus)):
            image = rotate_spinor(gauge(spinor, p), spinor)
            out[i, k] = image.c1, image.c2
    want = np.zeros_like(out)
    want[:, 0, 0] = np.exp(-0.5j * phase)
    want[:, 1, 1] = np.exp(0.5j * phase)
    return _worst(out.view(float), want.view(float))


@_check("canonical_gauges", _units)
def _check_canonical_gauges(psi):
    s_plus, s_minus = _dot(psi[:, :2], psi[:, :2]), _dot(psi[:, 2:], psi[:, 2:])
    # Inside the constructors' own singular guard either gauge may raise.
    keep = np.minimum(s_plus, s_minus) >= 1e-9
    psi, s_plus, s_minus = psi[keep], s_plus[keep], s_minus[keep]
    x = np.empty((len(psi), 4))  # r, x
    gauges = np.empty((len(psi), 2, 7))  # per gauge: c3, C, vector_parameter(rotation)
    o = np.empty((len(psi), 2, 3, 3))
    for i, (spinor,) in _spinor_rows(psi):
        x[i, 0], x[i, 1:] = project_xi(spinor)
        for k, gauge in enumerate((canonical_phase_plus(spinor), canonical_phase_minus(spinor))):
            gauges[i, k] = (gauge.rotation.c3, *gauge.vector_parameter,
                            *vector_parameter(gauge.rotation))
            o[i, k] = so3_from_vector_parameter(gauge.vector_parameter)
    n = x[:, 1:] / x[:, :1]
    pole = np.array([0.0, 0.0, 1.0])
    cp, cm = _dot(gauges[:, 0, 1:4], gauges[:, 0, 1:4]), _dot(gauges[:, 1, 1:4], gauges[:, 1, 1:4])
    # |C|^2 weighted by the component masses is pole-safe where the raw
    # tan(theta/2) magnitude check is not, and covers the full sphere.
    worst = max(_worst(gauges[:, :, 0], 0.0),
                _worst(_apply(o[:, 0], n), pole, 1), _worst(_apply(o[:, 1], n), -pole, 1),
                _worst(cp * s_plus, s_minus), _worst(cm * s_minus, s_plus))
    theta = np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2])
    # tan grows like 1/(pi - theta): by theta ~ pi - 0.04 a last-place angle
    # error already costs ~1e-14 scaled, so stop there.
    win = (theta >= 0.04) & (theta <= math.pi - 0.04)
    theta, g = theta[win], gauges[win]
    return max(worst, _worst(np.sqrt(cp[win]), np.tan(0.5 * theta)),
               _worst(np.sqrt(cm[win]), np.tan(0.5 * (math.pi - theta))),
               _worst(g[:, :, 4:], g[:, :, 1:4], 2))


@_check("rotation_between_planted", _two_units)
def _check_rotation_between(psi, c):
    out = np.empty((len(psi), 2, 4))  # recovered rotation, planted rotation
    images = np.empty((len(psi), 2, 2), dtype=complex)  # target, recovered image
    for i, (spinor, crow) in _spinor_rows(psi, c):
        rot = SpinorRotation(*crow)
        target = rotate_spinor(rot, spinor)
        rec = rotation_between(spinor, target)
        back = rotate_spinor(rec, spinor)
        out[i] = rec.as_tuple(), rot.as_tuple()
        images[i] = (target.c1, target.c2), (back.c1, back.c2)
    got, want = out[:, 0], out[:, 1]
    # Either sign of the planted parameters is the same rotation. Take the one
    # with positive overlap: in a pass it is the nearer sign; a fail can only grow.
    want = want * np.where(_dot(got, want) < 0.0, -1.0, 1.0)[:, None]
    parts = images.view(float)
    return max(_worst(got, want, 1), _worst(parts[:, 1], parts[:, 0]))


@_check("stabilizer_exact_identity", _units)
def _check_stabilizer(psi):
    got = np.empty((len(psi), 2, 4))
    for i, (spinor,) in _spinor_rows(psi):
        got[i] = stabilizer_check(spinor, 1).as_tuple(), stabilizer_check(spinor, -1).as_tuple()
    return 0.0 if (got == [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]).all() else 1.0


@_check("stabilizer_circle_contrast", lambda rng, n: (2.0 * math.pi * np.arange(16) / 16.0,))
def _check_circle_contrast(sweep):
    # The vector-level small group of the pole is a full circle, the
    # spinor-level one a single point of the sweep.
    psi = Spinor(1.0 + 0.0j, 0.0 + 0.0j)
    o = np.empty((len(sweep), 3, 3))
    moved = np.empty((len(sweep), 2), dtype=complex)
    for k, (angle,) in _rows(sweep):
        rot = axis_phase(angle)
        o[k] = extract_so3(su2_matrix(rot))
        image = rotate_spinor(rot, psi)
        moved[k] = image.c1, image.c2
    fixing = np.count_nonzero(np.all(np.abs(moved - [psi.c1, psi.c2]) <= 1e-12, axis=1))
    return _worst(o[:, :, 2], np.array([0.0, 0.0, 1.0]), 1) if fixing == 1 else math.inf


_check_gauge_error_paths = _error_paths(
    "singular_gauge_paths",
    (SingularGaugeError, canonical_phase_plus, psi_from_direction((0.0, 0.0, -1.0))),
    (SingularGaugeError, canonical_phase_minus, psi_from_direction((0.0, 0.0, 1.0))))


_SUITE_CHECKS = {
    "hopf": (
        (_check_construct_project, 1.0),
        (_check_hopf_norm_general, 0.1),
        (_check_projection_dual_route, 0.1),
        (_check_coordinate_agreement, 0.1),
        (_check_phase_invariance, 0.1),
    ),
    "covariance": (
        (_check_xi_commuting_square, 1.0),
        (_check_eta_commuting_square, 1.0),
        (_check_so3_extraction, 1.0),
        (_check_vector_parameter_chart, 0.5),
        (_check_so4_homomorphism, 1.0),
        (_check_quadruple_spinor_conjugacy, 1.0),
    ),
    "so4": (
        (_check_bridge_involution, 1.0),
        (_check_bridge_quadruple_route, 1.0),
        (_check_s_properties, 0.05),
        (_check_s_non_membership, 0.02),
        (_check_double_cover, 0.2),
        (_check_cartan_reflection, 0.5),
    ),
    "ks": (
        (_check_direction_matrix, 1.0),
        (_check_left_transport, 0.3),
        (_check_frame_identities, 0.1),
        (_check_frame_symmetry, 0.1),
        (_check_phase_residual_law, 0.05),
        (_check_frame_error_paths, 0.0),
    ),
    "gauge": (
        (_check_gauge_postconditions, 1.0),
        (_check_canonical_gauges, 0.3),
        (_check_rotation_between, 0.3),
        (_check_stabilizer, 0.1),
        (_check_circle_contrast, 0.0),
        (_check_gauge_error_paths, 0.0),
    ),
}

SUITE_NAMES = tuple(_SUITE_CHECKS)


def run_suite(suite: str, samples: int = 1000, seed: int = 42,
              tolerance: float = 1e-12) -> VerificationReport:
    """Run one named suite; each check draws its fraction of samples, at least one."""
    if suite not in _SUITE_CHECKS:
        raise ValueError(f"unknown suite {suite!r}; valid: {', '.join(SUITE_NAMES)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    start = time.perf_counter()
    checks = []
    for index, (func, fraction) in enumerate(_SUITE_CHECKS[suite]):
        n = max(1, int(samples * fraction))
        checks.append(func([seed, index], n, tolerance))
    return VerificationReport(suite=suite, seed=seed, samples=samples,
                              tolerance=tolerance, checks=tuple(checks),
                              elapsed=time.perf_counter() - start)


def run_all(samples: int = 1000, seed: int = 42,
            tolerance: float = 1e-12) -> list:
    return [run_suite(name, samples, seed, tolerance) for name in SUITE_NAMES]


def replay_fixtures(records, tolerance: float | None = None) -> VerificationReport:
    """Recompute every stored record and compare against its stored fields.

    Each record is held to its own stored tolerance unless an override is
    given. Malformed records count as categorical failures.
    """
    start = time.perf_counter()
    worst = 0.0
    threshold = 0.0
    ok = True
    for record in records:
        tol = tolerance if tolerance is not None else float(record["meta"]["tolerance"])
        threshold = max(threshold, tol)
        try:
            residual = fixture_io.replay_residual(record)
        except (KeyError, ValueError, TypeError):
            residual = math.inf
        worst = max(worst, residual)
        ok = ok and residual <= tol
    count = len(records)
    threshold = threshold if count else (tolerance if tolerance is not None else 1e-12)
    check = CheckResult("fixture_replay", count, worst, threshold, ok)
    return VerificationReport(suite="replay", seed=0, samples=count,
                              tolerance=threshold, checks=(check,),
                              elapsed=time.perf_counter() - start)


__all__ = [
    "SUITE_NAMES", "CheckResult", "VerificationReport",
    "run_suite", "run_all", "replay_fixtures",
]
