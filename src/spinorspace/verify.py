"""Seeded verification suites for the library's identities.

Five suites (hopf, covariance, so4, ks, gauge) draw reproducible random
samples and measure the worst scaled residual of each identity they cover.
Each check is declared once, by its decorator `_check(suite, name, share,
draw)`, and a suite runs its checks in that order. Each check draws all its
inputs at once and reduces a chunk of samples at once.

The checks call the library's kernels on float64 columns (core.COLUMNS), which
give every row the bits of the scalar function; only the fixed cases of the
error-path checks and the S certificates take the scalar API. A report passes
when every check lands under its threshold, and each check result carries its time.
The fixture replay path reruns stored golden records through the
constructors and holds them to the tolerance each record carries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    COLUMNS,
    MINUS_IDENTITY,
    KSQuadruple,
    axis4,
    finite_tolerance,
    integer_value,
    qmul,
    quadruple_parts,
    stacked,
    su2_parts,
    unit4,
    worst_residual as _worst,
    wrap_4pi,
)
from . import fixtures as fixture_io
from .gauge_fixing import (
    SingularGaugeError,
    between4,
    canonical4,
    canonical_phase_minus,
    canonical_phase_plus,
    canonical_plus4,
    gauge_plus4,
    psi_from_direction,
    stabilizer_solve,
    swap4,
)
from .ks_covariance import (
    build_frame,
    direction4,
    frame4,
    frame_symmetry,
    hat4,
    normalize_ks,
    symmetry4,
    turned3,
    unit_ks,
)
from .rotation_algebra import (
    ELEMENTARY_PLANES,
    chart4,
    chart_so3,
    plane_entries,
    real4_entries,
    real4_fit,
    rotated,
    s_factorization_check,
    s_matrix,
    s_outside_su2_image,
    so3_entries,
    so3_from_rotation,
    trace_so3_entries,
    vector_parameter_entries,
)
from .spinor_maps import (
    cartan_reflected,
    cartesian_columns,
    eta_bilinears,
    eta_cartesian,
    eta_of_xi,
    eta_parabolic,
    eta_quadruple_bilinears,
    eta_spherical,
    hopf_constraint,
    phase_rotated,
    polar,
    u_to_v_entries,
    xi_bilinears,
    xi_cartesian,
    xi_of_eta,
    xi_spherical,
)


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Worst-case scaled residual of one identity over a sample run."""

    name: str
    samples: int
    max_residual: float
    threshold: float
    passed: bool
    elapsed: float  # seconds, its draw included; line() leaves it out

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
# 1024 is where a sweep of suite time against peak RSS bends: smaller chunks pay
# numpy's fixed cost per call, larger ones only add memory (ROADMAP item 8, kept on purpose).
_CHUNK = 1024


def _chunked(body, inputs) -> float:
    """Worst residual of body over the input arrays, _CHUNK samples at a time."""
    return max((body(*(a[i:i + _CHUNK] for a in inputs))
                for i in range(0, len(inputs[0]), _CHUNK)), default=0.0)


# suite -> its checks (name, share, draw, body), in the order they are declared.
_SUITES = {}


def _check(suite, name, share, draw):
    """Declare a check of `suite` that runs on `share` of the suite's samples:
    draw(rng, n) returns the inputs of all samples as arrays (n of them, or a
    fixed set of cases), and the body maps a chunk of them to its worst residual.
    Returns the body unchanged."""
    def register(body):
        _SUITES.setdefault(suite, []).append((name, share, draw, body))
        return body
    return register


def _traced_so3(c) -> tuple:
    """O(B) of each rotation of the columns c, traced on B's real parts: rows of columns."""
    return trace_so3_entries(*sum(su2_parts(*c), ()))


_UP = (1.0, 0.0, 0.0, 0.0)  # the spinor (1, 0): B applied to it is B's first column


def _rotation(c) -> tuple:
    """SpinorRotation(*c) on columns: c normalized."""
    return unit4(COLUMNS, *c)


def _eta_rows(bilinears) -> np.ndarray:
    """The (a, x) columns of an eta projection as two 3-vectors of columns, shape (2, 3, n)."""
    return np.reshape(bilinears, (2, 3, -1))


def _unit(v: np.ndarray) -> np.ndarray:
    # In place: callers pass fresh draws.
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("nkl,nl->nk", m, v)


def _gram(m) -> list:
    """M^T M of each square M of the entry columns m (m[k][i] the column of entry (k, i)) as
    rows of columns, entry (i, j) summed over the rows k of M in order from 0.0: the bits of
    einsum("nki,nkj->nij") on the stack of the M."""
    r = len(m)
    sums = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):  # (j, i) has the bits of (i, j): products commute
            total = 0.0
            for k in range(r):
                total = total + m[k][i] * m[k][j]
            sums[i][j] = sums[j][i] = total
    return sums


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

@_check("hopf", "construct_project_round_trip", 1.0, _points)
def _check_construct_project(v, sheets):
    xi = cartesian_columns(xi_cartesian, *v.T, sheets)
    eta = cartesian_columns(eta_cartesian, *v.T, sheets)
    r, *x = xi_bilinears(COLUMNS, *xi)
    p = eta_bilinears(COLUMNS, *eta)
    q4, q1, q2, q3 = quadruple_parts(*eta)
    norm_sq = q4 * q4 + q1 * q1 + q2 * q2 + q3 * q3  # as KSQuadruple.norm_sq adds them
    return max(_worst(x, v.T, 0), _worst(r, np.sqrt(_dot(v, v))),
               _worst([hopf_constraint(*quadruple_parts(*xi)), hopf_constraint(q4, q1, q2, q3)],
                      0.0),
               _worst(p[3:], v.T, 0), _hopf_norms(r, stacked(x), stacked(p), norm_sq))


def _hopf_norms(r, x, p, norm_sq):
    """Worst of the Hopf-norm identities x.x = r^2 on xi projections (r, x), and
    |px|^2 = (norm_sq / 2)^2, pa.px = 0, |pa| = |px| on eta projections p, rows (pa, px)."""
    pa, px = p[:, :3], p[:, 3:]
    half, pxx = 0.5 * norm_sq, _dot(px, px)
    return max(_worst(_dot(x, x), r * r), _worst(pxx, half * half),
               _worst(_dot(pa, px), 0.0), _worst(_dot(pa, pa), pxx))


@_check("hopf", "hopf_norms_any_spinor", 0.1, _spinors)
def _check_hopf_norm_general(s):
    r, *x = xi_bilinears(COLUMNS, *s.T)
    return _hopf_norms(r, stacked(x), stacked(eta_bilinears(COLUMNS, *s.T)), _dot(s, s))


@_check("hopf", "eta_projection_dual_route", 0.1, _spinors)
def _check_projection_dual_route(s):
    return _worst(_eta_rows(eta_bilinears(COLUMNS, *s.T)),
                  _eta_rows(eta_quadruple_bilinears(*quadruple_parts(*s.T))), 1)


def _spherical_draw(rng, n):
    u = rng.random((n, 3))
    # Componentwise constructor agreement loses digits at the poles where
    # r - |x3| cancels; the round-trip checks cover that region instead.
    theta = 0.05 + (math.pi - 0.1) * u[:, 1]
    return 0.1 + 2.9 * u[:, 0], theta, wrap_4pi(4.0 * math.pi * u[:, 2] - 2.0 * math.pi)


@_check("hopf", "coordinate_agreement", 0.1, _spherical_draw)
def _check_coordinate_agreement(r, theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    cart = (r * st * np.cos(phi), r * st * np.sin(phi), r * ct)
    # The principal atan2 lift covers (-pi, pi]; anything else is sheet -1.
    sheets = np.where((phi > -math.pi) & (phi <= math.pi), 1, -1)
    big_n, big_m = np.sqrt(r * (1.0 + ct)), np.sqrt(r * (1.0 - ct))
    phi = wrap_4pi(phi)  # the azimuth that SphericalPoint and ParabolicPoint store
    xs, es = xi_spherical(COLUMNS, r, theta, phi), eta_spherical(COLUMNS, r, theta, phi)
    return _worst([cartesian_columns(xi_cartesian, *cart, sheets),
                   polar(COLUMNS, big_n, big_m, phi),
                   cartesian_columns(eta_cartesian, *cart, sheets),
                   eta_parabolic(COLUMNS, big_n, big_m, phi)], [xs, xs, es, es])


@_check("hopf", "projection_phase_invariance", 0.1,
        lambda rng, n: (rng.normal(size=(n, 4)), rng.uniform(-8.0, 8.0, size=n)))
def _check_phase_invariance(s, alpha):
    r0, *x0 = xi_bilinears(COLUMNS, *s.T)
    r1, *x1 = xi_bilinears(COLUMNS, *phase_rotated(COLUMNS, alpha, *s.T))
    return max(_worst(r0, r1), _worst(x0, x1, 0))


# ---------------------------------------------------------- covariance suite

@_check("covariance", "xi_commuting_square", 1.0, _unit_and_gaussian)
def _check_xi_commuting_square(c, s):
    rot = _rotation(c.T)
    r0, *x0 = xi_bilinears(COLUMNS, *s.T)
    r1, *x1 = xi_bilinears(COLUMNS, *rotated(rot, *s.T))
    o = stacked(so3_entries(*rot))
    return max(_worst(r0, r1), _worst(x1, _apply(o, stacked(x0)).T, 0))


@_check("covariance", "eta_commuting_square", 1.0, _unit_and_gaussian)
def _check_eta_commuting_square(c, s):
    rot = _rotation(c.T)
    o = stacked(so3_entries(*rot))
    p0, p1 = eta_bilinears(COLUMNS, *s.T), eta_bilinears(COLUMNS, *rotated(rot, *s.T))
    return max(_worst(p1[3:], _apply(o, stacked(p0[3:])).T, 0),
               _worst(p1[:3], _apply(o, stacked(p0[:3])).T, 0))


@_check("covariance", "so3_extraction_orthogonality", 1.0, _units)
def _check_so3_extraction(c):
    rot = _rotation(c.T)
    o = so3_entries(*rot)  # closed form; trace extraction below
    return max(_worst(_traced_so3(rot), o, (0, 1)), _worst(np.linalg.det(stacked(o)), 1.0),
               _worst(_gram(o), np.eye(3)[..., None], (0, 1)))


@_check("covariance", "vector_parameter_chart", 0.5,
        lambda rng, n: (rng.normal(size=(n, 3)) * 1.5,))
def _check_vector_parameter_chart(c_vec):
    # C back, then O from C directly against O through the quadruple.
    rot = _rotation(chart4(COLUMNS, *c_vec.T))
    return max(_worst(vector_parameter_entries(COLUMNS, *rot), c_vec.T, 0),
               _worst(chart_so3(COLUMNS, *c_vec.T), so3_entries(*rot), (0, 1)))


@_check("covariance", "rotation_homomorphisms", 1.0, _two_units)
def _check_so4_homomorphism(c1, c2):
    # su2_real4, then so3_from_rotation, of c1, c2 and c1 c2
    r1, r2 = _rotation(c1.T), _rotation(c2.T)
    rots = (r1, r2, _rotation(qmul(r1, r2)))
    m1, m2, m12 = (real4_entries(*r) for r in rots)
    o1, o2 = (stacked(so3_entries(*r)) for r in rots[:2])
    return max(_worst(m12, (stacked(m1) @ stacked(m2)).transpose(1, 2, 0), (0, 1)),
               _worst(_gram(m1), np.eye(4)[..., None], (0, 1)),
               _worst(so3_entries(*rots[2]), (o1 @ o2).transpose(1, 2, 0), (0, 1)))


@_check("covariance", "so4_spinor_conjugacy", 1.0, _unit_and_gaussian)
def _check_quadruple_spinor_conjugacy(c, q):
    rot = _rotation(c.T)
    q4, q1, q2, q3 = q.T  # spinor_from_quadruple: c1 = q1 + i q2, c2 = q3 + i q4
    moved = quadruple_parts(*rotated(rot, q1, q2, q3, q4))
    return _worst(_apply(stacked(real4_entries(*rot)), q).T, moved, 0)


# ----------------------------------------------------------------- so4 suite

@_check("so4", "bridge_involution", 1.0, _spinors)
def _check_bridge_involution(s):
    return _worst([xi_of_eta(*eta_of_xi(*s.T)), eta_of_xi(*xi_of_eta(*s.T))], [s.T, s.T])


@_check("so4", "bridge_quadruple_route", 1.0, _spinors)
def _check_bridge_quadruple_route(s):  # S U against the quadruple of eta_from_xi
    return _worst(u_to_v_entries(*quadruple_parts(*s.T)), quadruple_parts(*eta_of_xi(*s.T)), 0)


# The fixed S properties are the same in every chunk, so the max is unchanged.
@_check("so4", "s_orthogonal_factorization", 0.05, lambda rng, n: (rng.random((n, 2)),))
def _check_s_properties(u):
    s = s_matrix()
    scan = s_factorization_check()
    plane, angle = np.minimum((6.0 * u[:, 1]).astype(int), 5), 2.0 * math.pi * u[:, 0] - math.pi
    e = np.concatenate([stacked(plane_entries(COLUMNS, *pair, angle[plane == k]))
                        for k, pair in enumerate(ELEMENTARY_PLANES.values())])
    return max(_worst((s.T @ s)[None], np.eye(4), (1, 2)), _worst(np.linalg.det(s), 1.0),
               scan.best_residual, _worst(scan.best_angles, math.pi / 4.0),
               _worst(_gram(e.transpose(1, 2, 0)), np.eye(4)[..., None], (0, 1)),
               _worst(np.linalg.det(e), 1.0))


@_check("so4", "s_no_su2_preimage", 0.02, _units)
def _check_s_non_membership(c):
    cert = s_outside_su2_image()
    fitted, residual = real4_fit(stacked(real4_entries(*_rotation(c.T))))
    # The fit gap has a closed-form value sqrt(2); landing there implies the
    # certificate's ">0.1" margin with room to spare, which a fail reports as inf.
    gap = _worst(cert.residual, math.sqrt(2.0)) if cert.residual > 0.1 else math.inf
    return max(gap, _worst(cert.implied_values[0], -cert.implied_values[1]),
               _worst(fitted, c, 1), _worst(residual, 0.0))


@_check("so4", "double_cover_sign", 0.2,
        lambda rng, n: (rng.random((n, 6)), rng.normal(size=(n, 4))))
def _check_double_cover(u, s):
    r, theta, phi = 0.1 + 2.9 * u[:, 0], math.pi * u[:, 1], 4.0 * math.pi * u[:, 2] - 2.0 * math.pi
    spherical = (r, theta)
    parabolic = (np.sqrt(r * (1.0 + np.cos(theta))), np.sqrt(r * (1.0 - np.cos(theta))))
    # Each constructor at phi, phi + 2pi and phi + 4pi, as the stored azimuths
    # of the point types: (builder, lift, part, sample).
    angles = [wrap_4pi(a) for a in (phi, phi + 2.0 * math.pi, phi + 4.0 * math.pi)]
    lifts = np.array([[build(COLUMNS, *where, a) for a in angles]
                      for build, where in ((xi_spherical, spherical), (eta_spherical, spherical),
                                           (polar, parabolic), (eta_parabolic, parabolic))])
    # (r, x) at phi and phi + 2pi: (builder, lift, r x1 x2 x3, sample).
    proj = np.array([[xi_bilinears(COLUMNS, *row) for row in lift[:2]] for lift in lifts])
    flips = [cartesian_columns(xi_cartesian, *(4.0 * u[:, 3:] - 2.0).T, sheet) for sheet in (1, -1)]
    turned = rotated(MINUS_IDENTITY.as_tuple(), *s.T)
    return max(_worst(lifts[:, 1], -lifts[:, 0]), _worst(lifts[:, 2], lifts[:, 0]),
               _worst(proj[:, 0, 0], proj[:, 1, 0]), _worst(proj[:, 0, 1:], proj[:, 1, 1:], 1),
               _worst(flips[1], -flips[0]), _worst(turned, -s.T),
               _worst(so3_from_rotation(MINUS_IDENTITY)[None], np.eye(3), (1, 2)))


@_check("so4", "cartan_reflection_parity", 0.5, lambda rng, n: (rng.normal(size=(n, 5)),))
def _check_cartan_reflection(g):
    s = g[:, :4].T
    reflected = cartan_reflected(np.where(g[:, 4] < 0.0, -1.0, 1.0), *s)
    (r0, *x0), (r1, *x1) = xi_bilinears(COLUMNS, *s), xi_bilinears(COLUMNS, *reflected)
    p0, p1 = _eta_rows(eta_bilinears(COLUMNS, *s)), _eta_rows(eta_bilinears(COLUMNS, *reflected))
    return max(_worst(r0, r1), _worst(x0, x1, 0), _worst(p1, -p0, 1))


# ------------------------------------------------------------------ ks suite

@_check("ks", "direction_vs_matrix_hat", 1.0, _units)
def _check_direction_matrix(u):
    q = u.T
    n = direction4(unit_ks(COLUMNS, q))
    # Minus the third column of O(hat u), and hat(hat(u)).
    column, rows = [-row[2] for row in so3_entries(*_rotation(hat4(q)))], stacked(n)
    return max(_worst(n, column, 0), _worst(_dot(rows, rows), 1.0), _worst(hat4(hat4(q)), q, 0))


@_check("ks", "left_transport_routes", 0.3, _two_units)
def _check_left_transport(c, u):
    rot, q = _rotation(c.T), u.T
    q4, q1, q2, q3 = q
    moved = quadruple_parts(*rotated(rot, q1, q2, q3, q4))
    n_moved, n = (direction4(unit_ks(COLUMNS, p)) for p in (moved, q))
    # The 4x4 action against hat(rot hat(q)), on the quaternion side.
    product, rows = hat4(_rotation(qmul(rot, _rotation(hat4(q))))), stacked(moved)
    return max(_worst(moved, product, 0), _worst(_dot(rows, rows), _dot(u, u)),
               _worst(n_moved, _apply(stacked(so3_entries(*rot)), stacked(n)).T, 0))


def _frame_draw(rng, n):
    u = _unit(rng.normal(size=(n, 4)))
    # The aligning gauge blows up near the south pole; stay on its chart.
    axes = _unit(rng.normal(size=(n, 3)))
    off_chart = axes[:, 2] < -0.99
    while off_chart.any():
        axes[off_chart] = _unit(rng.normal(size=(int(off_chart.sum()), 3)))
        off_chart = axes[:, 2] < -0.99
    return u, axes, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n)


@_check("ks", "frame_defining_identities", 0.1, _frame_draw)
def _check_frame_identities(u, axes, delta):
    align = _rotation(canonical_plus4(COLUMNS, axes.T))
    w, n = frame4(COLUMNS, u.T, align, delta)
    w_rot = _rotation(hat4(w))
    # rotated n', direction of w, O(hat w) by the trace map and by its closed form, n
    n_prime, n_w = turned3(COLUMNS, w, align, n), direction4(unit_ks(COLUMNS, w))
    e_w, o_w = _traced_so3(w_rot), stacked(so3_entries(*w_rot))
    # B (v.sigma) B^dag = (O v).sigma: B (A.sigma) B^dag = -n.sigma, B sigma^3 B^dag = -n'.sigma
    return max(_worst(_apply(stacked(e_w), axes).T, np.negative(n), 0),
               _worst(axes, -np.einsum("nkl,nk->nl", o_w, stacked(n)), 1),
               _worst([row[2] for row in e_w], np.negative(n_prime), 0),
               _worst(n_prime, n_w, 0))


@_check("ks", "frame_symmetry_transport", 0.1,
        lambda rng, n: (_units(rng, n)[0], rng.uniform(-math.pi, math.pi, size=(n, 2))))
def _check_frame_symmetry(u, angles):  # angles: the partner's turn beta, the frame's delta
    q, (beta, delta) = u.T, angles.T
    u_rot = _rotation(hat4(q))
    partner = hat4(_rotation(qmul(u_rot, axis4(COLUMNS, beta))))
    c = _rotation(symmetry4(COLUMNS, q, partner, delta))
    n = direction4(unit_ks(COLUMNS, q))
    # B(c) B(hat u) D(delta) against B(hat w) by first columns, which fix an SU(2) matrix
    lhs = rotated(c, *rotated(u_rot, *rotated(axis4(COLUMNS, delta), *_UP)))
    return max(_worst(_apply(stacked(so3_entries(*c)), stacked(n)).T, n, 0),
               _worst(lhs, rotated(_rotation(hat4(partner)), *_UP), 0))


_SWEEP = np.arange(16) * (math.pi / 8.0)


@_check("ks", "phase_residual_law", 0.05, _points)
def _check_phase_residual_law(v, sheets):
    xi = cartesian_columns(xi_cartesian, *v.T, sheets)[:, :, None]
    # The constraint after each phase of the sweep, one column per phase.
    moved = hopf_constraint(*quadruple_parts(*phase_rotated(COLUMNS, _SWEEP, *xi)))
    q4, q1, q2, q3 = quadruple_parts(*xi)
    return _worst(moved, np.sin(2.0 * _SWEEP) * (q1 * q3 - q2 * q4)
                  + np.cos(2.0 * _SWEEP) * hopf_constraint(q4, q1, q2, q3))


def _all_raise(chunk):
    """0 if every case (error, func, *args) raises its error, else inf; each case is a sample."""
    for error, func, *args in chunk:
        try:
            func(*args)
        except error:
            continue
        return math.inf
    return 0.0


_FRAME_ERRORS = (
    (SingularGaugeError, build_frame, KSQuadruple(0.3, 0.5, -0.4, 0.2), (0.0, 0.0, -1.0)),
    (ValueError, normalize_ks, KSQuadruple(0.0, 0.0, 0.0, 0.0)),
    (ValueError, frame_symmetry, KSQuadruple(1.0, 0.0, 0.0, 0.0), KSQuadruple(0.0, 1.0, 0.0, 0.0)))
_check("ks", "singular_error_paths", 0.0, lambda rng, n: (_FRAME_ERRORS,))(_all_raise)


# --------------------------------------------------------------- gauge suite

@_check("gauge", "gauge_postconditions", 1.0,
        lambda rng, n: (_units(rng, n)[0], rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n)))
def _check_gauge_postconditions(psi, phase):
    u = unit4(COLUMNS, *psi.T, "gauge_plus requires a unit spinor")
    # B(gauge) psi for the (+) gauge, then the (-) gauge: shape (2, 4, n).
    out = np.array([rotated(_rotation(gauge_plus4(COLUMNS, w, phase)), *psi.T)
                    for w in (u, swap4(u))])
    want, c, s = np.zeros_like(out), np.cos(0.5 * phase), np.sin(0.5 * phase)
    want[0, 0], want[0, 1], want[1, 2], want[1, 3] = c, -s, c, s  # exp(-+i phase / 2)
    return _worst(out, want)


@_check("gauge", "canonical_gauges", 0.3, _units)
def _check_canonical_gauges(psi):
    s_plus, s_minus = _dot(psi[:, :2], psi[:, :2]), _dot(psi[:, 2:], psi[:, 2:])
    # Inside the constructors' own singular guard either gauge may raise.
    keep = np.minimum(s_plus, s_minus) >= 1e-9
    if not keep.any():
        return 0.0
    psi, s_plus, s_minus = psi[keep], s_plus[keep], s_minus[keep]
    u = unit4(COLUMNS, *psi.T, "canonical_phase_plus requires a unit spinor")
    # Per gauge, (+) then (-): the rotation and C; the rotation's c3 must vanish
    # and its vector parameter must be C.
    gauges = [canonical4(COLUMNS, u, sign) for sign in (1, -1)]
    rotations = [_rotation(rotation) for *_, rotation in gauges]
    c_vec = np.stack([stacked(c) for _, c, _ in gauges], axis=1)
    back = np.stack([stacked(vector_parameter_entries(COLUMNS, *r)) for r in rotations], axis=1)
    o = [stacked(chart_so3(COLUMNS, *c_vec[:, i].T)) for i in (0, 1)]
    r, *x = xi_bilinears(COLUMNS, *psi.T)
    n = stacked(x) / r[:, None]
    pole = np.array([0.0, 0.0, 1.0])
    cp, cm = _dot(c_vec[:, 0], c_vec[:, 0]), _dot(c_vec[:, 1], c_vec[:, 1])
    # |C|^2 weighted by the component masses is pole-safe where the raw
    # tan(theta/2) magnitude check is not, and covers the full sphere.
    worst = max(_worst([r[3] for r in rotations], 0.0),
                _worst(_apply(o[0], n), pole, 1), _worst(_apply(o[1], n), -pole, 1),
                _worst(cp * s_plus, s_minus), _worst(cm * s_minus, s_plus))
    theta = np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2])
    # tan grows like 1/(pi - theta): by theta ~ pi - 0.04 a last-place angle
    # error already costs ~1e-14 scaled, so stop there.
    win = (theta >= 0.04) & (theta <= math.pi - 0.04)
    theta = theta[win]
    return max(worst, _worst(np.sqrt(cp[win]), np.tan(0.5 * theta)),
               _worst(np.sqrt(cm[win]), np.tan(0.5 * (math.pi - theta))),
               _worst(back[win], c_vec[win], 2))


@_check("gauge", "rotation_between_planted", 0.3, _two_units)
def _check_rotation_between(psi, c):
    planted = _rotation(c.T)
    target = rotated(planted, *psi.T)
    who = "rotation_between requires a unit spinor"
    found = _rotation(between4(COLUMNS, unit4(COLUMNS, *psi.T, who), unit4(COLUMNS, *target, who)))
    # Either sign of the planted parameters is the same rotation. Take the one
    # with positive overlap: in a pass it is the nearer sign; a fail can only grow.
    sign = np.where(_dot(stacked(found), stacked(planted)) < 0.0, -1.0, 1.0)
    return max(_worst(found, np.multiply(planted, sign), 0),
               _worst(rotated(found, *psi.T), target))


@_check("gauge", "stabilizer_exact_identity", 0.1, _units)
def _check_stabilizer(psi):
    q = quadruple_parts(*psi.T)
    # stabilizer_check returns the exact +-identity where its solve lands within 1e-9.
    landed = [_worst(stacked(stabilizer_solve(q, sign)), [sign, 0.0, 0.0, 0.0], 1)
              for sign in (1, -1)]
    return 0.0 if max(landed) <= 1e-9 else 1.0


@_check("gauge", "stabilizer_circle_contrast", 0.0,
        lambda rng, n: (2.0 * math.pi * np.arange(16) / 16.0,))
def _check_circle_contrast(sweep):
    # The vector-level small group of the pole is a full circle, the
    # spinor-level one a single point of the sweep, where B (1, 0) = (1, 0).
    rot = axis4(COLUMNS, sweep)  # the axis rotation of each angle
    fixing = np.count_nonzero(np.all(np.abs(stacked(rotated(rot, *_UP)) - _UP) <= 1e-12, axis=1))
    return (_worst(stacked(_traced_so3(rot))[:, :, 2], [0.0, 0.0, 1.0], 1) if fixing == 1
            else math.inf)


_GAUGE_ERRORS = (
    (SingularGaugeError, canonical_phase_plus, psi_from_direction((0.0, 0.0, -1.0))),
    (SingularGaugeError, canonical_phase_minus, psi_from_direction((0.0, 0.0, 1.0))))
_check("gauge", "singular_gauge_paths", 0.0, lambda rng, n: (_GAUGE_ERRORS,))(_all_raise)

SUITE_NAMES = tuple(_SUITES)


def run_suite(suite: str, samples: int = 1000, seed: int = 42,
              tolerance: float = 1e-12) -> VerificationReport:
    """Run one named suite; check i draws its share of samples, at least one, from [seed, i]."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; valid: {', '.join(SUITE_NAMES)}")
    samples, seed = integer_value(samples, "samples", 1), integer_value(seed, "seed", 0)
    tolerance = finite_tolerance(tolerance)
    start = time.perf_counter()
    checks = []
    for index, (name, share, draw, body) in enumerate(_SUITES[suite]):
        begin = time.perf_counter()
        inputs = draw(np.random.default_rng([seed, index]), max(1, int(samples * share)))
        worst = _chunked(body, inputs)
        checks.append(CheckResult(name, len(inputs[0]), worst, tolerance, worst <= tolerance,
                                  time.perf_counter() - begin))
    return VerificationReport(suite=suite, seed=seed, samples=samples,
                              tolerance=tolerance, checks=tuple(checks),
                              elapsed=time.perf_counter() - start)


def run_all(samples: int = 1000, seed: int = 42,
            tolerance: float = 1e-12) -> list:
    return [run_suite(name, samples, seed, tolerance) for name in SUITE_NAMES]


def replay_fixtures(records, tolerance: float | None = None) -> VerificationReport:
    """Recompute every stored record and compare against its stored fields.

    Each record is held to its own stored tolerance unless an override is
    given; a non-finite or negative override raises ValueError. Malformed
    records, a non-finite or negative stored tolerance among them, count as
    categorical failures.
    The report's threshold is the override, or else the largest stored
    tolerance of a well-formed record, or 1e-12 where there is none.
    """
    if tolerance is not None:
        tolerance = finite_tolerance(tolerance)
    start = time.perf_counter()
    count = len(records)
    residuals, stored = fixture_io.replay_residuals(records)
    ok = bool(np.all(residuals <= (stored if tolerance is None else tolerance)))
    worst = float(residuals.max(initial=0.0))
    threshold = tolerance if tolerance is not None else max(
        [tol for tol in stored if tol >= 0.0], default=1e-12)
    elapsed = time.perf_counter() - start
    check = CheckResult("fixture_replay", count, worst, threshold, ok, elapsed)
    return VerificationReport(suite="replay", seed=0, samples=count,
                              tolerance=threshold, checks=(check,), elapsed=elapsed)


__all__ = [
    "CheckResult", "VerificationReport",
    "run_suite", "run_all", "replay_fixtures",
]
