"""Seeded verification suites for the library's identities.

Five suites (hopf, covariance, so4, ks, gauge) draw reproducible random
samples and measure the worst scaled residual of each identity they cover.
Each check is declared once, by its decorator `_check(suite, name, share,
draw)`, and a suite runs its checks in that order. Each check draws all its
inputs at once and reduces a chunk of samples at once. The checks of the
spinor_maps closed forms call its kernels on float64 columns
(spinor_maps.COLUMNS), which give every row the bits of the scalar function.
The other checks call the library's scalar functions once per sample and
stack what each sample observes into arrays (`_each`). A report passes when
every check lands under its threshold, and each check result carries its time.
The fixture replay path reruns stored golden records through the
constructors and holds them to the tolerance each record carries.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    MINUS_IDENTITY,
    KSQuadruple,
    Spinor,
    SpinorRotation,
    compose,
    finite_angle,
    quadruple_from_spinor,
    spinor_from_quadruple,
    su2_matrix,
    wrap_4pi,
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
    COLUMNS,
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
    project_eta,
    project_xi,
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


def _each(fn, *inputs):
    """Call fn on each sample of a chunk and stack each of its outputs into one array.

    Array inputs give their rows as Python values; lists pass as they are.
    """
    rows = zip(*(a.tolist() if isinstance(a, np.ndarray) else a for a in inputs))
    return tuple(map(np.array, zip(*itertools.starmap(fn, rows))))


def _as_spinors(s):
    """The Spinors of (n, 4) storage (c1.real, c1.imag, c2.real, c2.imag)."""
    return list(itertools.starmap(Spinor, s.view(complex).tolist()))


def _pair(s):
    return s.c1, s.c2


def _quadruple(c1r, c1i, c2r, c2i) -> tuple:
    """quadruple_from_spinor on real parts: (q4, q1, q2, q3)."""
    return c2i, c1r, c1i, c2r


def _rows(columns) -> np.ndarray:
    """k columns of n entries as n rows of k; xi's x, for one."""
    return np.stack(columns, axis=-1)


def _eta_rows(bilinears) -> np.ndarray:
    """The (a, x) columns of an eta projection as n rows of two 3-vectors, shape (n, 2, 3)."""
    return _rows(bilinears).reshape(-1, 2, 3)


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

@_check("hopf", "construct_project_round_trip", 1.0, _points)
def _check_construct_project(v, sheets):
    xi = cartesian_columns(xi_cartesian, *v.T, sheets)
    eta = cartesian_columns(eta_cartesian, *v.T, sheets)
    r, *x = xi_bilinears(COLUMNS, *xi)
    p = _eta_rows(eta_bilinears(COLUMNS, *eta))
    q4, q1, q2, q3 = _quadruple(*eta)
    norm_sq = q4 * q4 + q1 * q1 + q2 * q2 + q3 * q3  # as KSQuadruple.norm_sq adds them
    x = _rows(x)
    return max(_worst(x, v, 1), _worst(r, np.sqrt(_dot(v, v))),
               _worst([hopf_constraint(*_quadruple(*xi)), hopf_constraint(q4, q1, q2, q3)], 0.0),
               _worst(p[:, 1], v, 1), _hopf_norms(r, x, p[:, 1], p[:, 0], norm_sq))


def _hopf_norms(r, x, px, pa, norm_sq):
    """Worst of the Hopf-norm identities x.x = r^2 on xi projections (r, x), and
    |px|^2 = (norm_sq / 2)^2, pa.px = 0, |pa| = |px| on eta projections (px, pa)."""
    half, pxx = 0.5 * norm_sq, _dot(px, px)
    return max(_worst(_dot(x, x), r * r), _worst(pxx, half * half),
               _worst(_dot(pa, px), 0.0), _worst(_dot(pa, pa), pxx))


@_check("hopf", "hopf_norms_any_spinor", 0.1, _spinors)
def _check_hopf_norm_general(s):
    r, *x = xi_bilinears(COLUMNS, *s.T)
    p = _eta_rows(eta_bilinears(COLUMNS, *s.T))
    return _hopf_norms(r, _rows(x), p[:, 1], p[:, 0], _dot(s, s))


@_check("hopf", "eta_projection_dual_route", 0.1, _spinors)
def _check_projection_dual_route(s):
    return _worst(_eta_rows(eta_bilinears(COLUMNS, *s.T)),
                  _eta_rows(eta_quadruple_bilinears(*_quadruple(*s.T))), 2)


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
    return max(_worst(r0, r1), _worst(_rows(x0), _rows(x1), 1))


# ---------------------------------------------------------- covariance suite

@_check("covariance", "xi_commuting_square", 1.0, _unit_and_gaussian)
def _check_xi_commuting_square(c, s):
    def square(spinor, crow):
        rot = SpinorRotation(*crow)
        return (so3_from_rotation(rot), *project_xi(spinor),
                *project_xi(rotate_spinor(rot, spinor)))
    o, r0, x0, r1, x1 = _each(square, _as_spinors(s), c)
    return max(_worst(r0, r1), _worst(x1, _apply(o, x0), 1))


@_check("covariance", "eta_commuting_square", 1.0, _unit_and_gaussian)
def _check_eta_commuting_square(c, s):
    def square(spinor, crow):
        rot = SpinorRotation(*crow)
        p0, p1 = project_eta(spinor), project_eta(rotate_spinor(rot, spinor))
        return so3_from_rotation(rot), p0.x, p0.a, p1.x, p1.a
    o, x0, a0, x1, a1 = _each(square, _as_spinors(s), c)
    return max(_worst(x1, _apply(o, x0), 1), _worst(a1, _apply(o, a0), 1))


@_check("covariance", "so3_extraction_orthogonality", 1.0, _units)
def _check_so3_extraction(c):
    def both_routes(crow):  # closed form, trace extraction
        rot = SpinorRotation(*crow)
        return so3_from_rotation(rot), extract_so3(su2_matrix(rot))
    o, extracted = _each(both_routes, c)
    return max(_worst(extracted, o, (1, 2)), _worst(np.linalg.det(o), 1.0),
               _worst(np.einsum("nki,nkj->nij", o, o), np.eye(3), (1, 2)))


@_check("covariance", "vector_parameter_chart", 0.5,
        lambda rng, n: (rng.normal(size=(n, 3)) * 1.5,))
def _check_vector_parameter_chart(c_vec):
    def chart(row):  # C back, O from C directly, O through the quadruple
        rot = rotation_from_vector_parameter(row)
        return vector_parameter(rot), so3_from_vector_parameter(row), so3_from_rotation(rot)
    back, direct, via = _each(chart, c_vec)
    return max(_worst(back, c_vec, 1), _worst(direct, via, (1, 2)))


@_check("covariance", "rotation_homomorphisms", 1.0, _two_units)
def _check_so4_homomorphism(c1, c2):
    def images(row1, row2):  # su2_real4, then so3_from_rotation, of c1, c2, c1 c2
        r1, r2 = SpinorRotation(*row1), SpinorRotation(*row2)
        rots = (r1, r2, compose(r1, r2))
        return (*map(su2_real4, rots), *map(so3_from_rotation, rots))
    m1, m2, m12, o1, o2, o12 = _each(images, c1, c2)
    return max(_worst(m12, m1 @ m2, (1, 2)),
               _worst(np.einsum("nki,nkj->nij", m1, m1), np.eye(4), (1, 2)),
               _worst(o12, o1 @ o2, (1, 2)))


@_check("covariance", "so4_spinor_conjugacy", 1.0, _unit_and_gaussian)
def _check_quadruple_spinor_conjugacy(c, q):
    def conjugacy(crow, qrow):
        rot = SpinorRotation(*crow)
        moved = rotate_spinor(rot, spinor_from_quadruple(KSQuadruple(*qrow)))
        return su2_real4(rot), quadruple_from_spinor(moved).as_tuple()
    m, via_spinor = _each(conjugacy, c, q)
    return _worst(_apply(m, q), via_spinor, 1)


# ----------------------------------------------------------------- so4 suite

@_check("so4", "bridge_involution", 1.0, _spinors)
def _check_bridge_involution(s):
    return _worst([xi_of_eta(*eta_of_xi(*s.T)), eta_of_xi(*xi_of_eta(*s.T))], [s.T, s.T])


@_check("so4", "bridge_quadruple_route", 1.0, _spinors)
def _check_bridge_quadruple_route(s):  # S U against the quadruple of eta_from_xi
    return _worst(_rows(u_to_v_entries(*_quadruple(*s.T))),
                  _rows(_quadruple(*eta_of_xi(*s.T))), 1)


_PLANE_LABELS = tuple(ELEMENTARY_PLANES)


# The fixed S properties are the same in every chunk, so the max is unchanged.
@_check("so4", "s_orthogonal_factorization", 0.05, lambda rng, n: (rng.random((n, 2)),))
def _check_s_properties(u):
    s = s_matrix()
    scan = s_factorization_check()
    e = np.array([elementary_so4(_PLANE_LABELS[min(int(6.0 * ub), 5)], 2.0 * math.pi * ua - math.pi)
                  for ua, ub in u.tolist()])
    return max(_worst((s.T @ s)[None], np.eye(4), (1, 2)), _worst(np.linalg.det(s), 1.0),
               scan.best_residual, _worst(scan.best_angles, math.pi / 4.0),
               _worst(np.einsum("nki,nkj->nij", e, e), np.eye(4), (1, 2)),
               _worst(np.linalg.det(e), 1.0))


@_check("so4", "s_no_su2_preimage", 0.02, _units)
def _check_s_non_membership(c):
    cert = s_outside_su2_image()

    def refit(crow):
        fit = s_outside_su2_image(su2_real4(SpinorRotation(*crow)))
        return fit.best_fit, fit.residual
    fitted, residual = _each(refit, c)
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
    turned = np.array([_pair(rotate_spinor(MINUS_IDENTITY, t)) for t in _as_spinors(s)])
    return max(_worst(lifts[:, 1], -lifts[:, 0]), _worst(lifts[:, 2], lifts[:, 0]),
               _worst(proj[:, 0, 0], proj[:, 1, 0]), _worst(proj[:, 0, 1:], proj[:, 1, 1:], 1),
               _worst(flips[1], -flips[0]), _worst(turned.view(float), -s),
               _worst(so3_from_rotation(MINUS_IDENTITY)[None], np.eye(3), (1, 2)))


@_check("so4", "cartan_reflection_parity", 0.5, lambda rng, n: (rng.normal(size=(n, 5)),))
def _check_cartan_reflection(g):
    s = g[:, :4].T
    reflected = cartan_reflected(np.where(g[:, 4] < 0.0, -1.0, 1.0), *s)
    (r0, *x0), (r1, *x1) = xi_bilinears(COLUMNS, *s), xi_bilinears(COLUMNS, *reflected)
    p0, p1 = _eta_rows(eta_bilinears(COLUMNS, *s)), _eta_rows(eta_bilinears(COLUMNS, *reflected))
    return max(_worst(r0, r1), _worst(_rows(x0), _rows(x1), 1), _worst(p1, -p0, 2))


# ------------------------------------------------------------------ ks suite

@_check("ks", "direction_vs_matrix_hat", 1.0, _units)
def _check_direction_matrix(u):
    def directions(row):  # direction, third column of O(hat u), hat(hat(u))
        q = KSQuadruple(*row)
        return (direction_from_ks(q), so3_from_rotation(rotation_from_unit_ks(hat(q)))[:, 2],
                hat(hat(q)).as_tuple())
    n, column, back = _each(directions, u)
    return max(_worst(n, -column, 1), _worst(_dot(n, n), 1.0), _worst(back, u, 1))


@_check("ks", "left_transport_routes", 0.3, _two_units)
def _check_left_transport(c, u):
    def routes(crow, urow):
        rot, q = SpinorRotation(*crow), KSQuadruple(*urow)
        moved = left_transport(rot, q)
        product = hat(ks_from_rotation(compose(rot, rotation_from_unit_ks(hat(q)))))
        return (moved.as_tuple(), product.as_tuple(), direction_from_ks(moved),
                direction_from_ks(q), so3_from_rotation(rot))
    moved, product, n_moved, n, o = _each(routes, c, u)
    return max(_worst(moved, product, 1), _worst(_dot(moved, moved), _dot(u, u)),
               _worst(n_moved, _apply(o, n), 1))


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
    def frame_of(urow, axis, turn):  # B(hat w), O(hat w), n, rotated n', direction of w
        frame = build_frame(KSQuadruple(*urow), axis, turn)
        w_rot = rotation_from_unit_ks(hat(frame.w))
        return (su2_matrix(w_rot), so3_from_rotation(w_rot), frame.direction,
                rotated_direction(frame.w, frame.align, frame.direction),
                direction_from_ks(frame.w))
    b_w, o_w, n, n_prime, n_w = _each(frame_of, u, axes, delta)
    third = np.broadcast_to(PAULI[2], b_w.shape)
    return max(_worst(_conjugate(b_w, _sigma(axes)), (-_sigma(n)).view(float), (1, 2)),
               _worst(axes, -np.einsum("nkl,nk->nl", o_w, n), 1),
               _worst(_conjugate(b_w, third), (-_sigma(n_prime)).view(float), (1, 2)),
               _worst(n_prime, n_w, 1))


@_check("ks", "frame_symmetry_transport", 0.1,
        lambda rng, n: (_units(rng, n)[0], rng.uniform(-math.pi, math.pi, size=(n, 2))))
def _check_frame_symmetry(u, angles):  # angles: the partner's turn beta, the frame's delta
    def symmetry(urow, beta, delta):  # n, O(c), B(c), B(hat u), D(delta), B(hat w)
        q = KSQuadruple(*urow)
        u_rot = rotation_from_unit_ks(hat(q))
        partner = hat(ks_from_rotation(compose(u_rot, axis_phase(beta))))
        c = frame_symmetry(q, partner, delta)
        return (direction_from_ks(q), so3_from_rotation(c),
                *(su2_matrix(rot) for rot in (c, u_rot, axis_phase(delta),
                                              rotation_from_unit_ks(hat(partner)))))
    n, o, b_c, b_u, b_d, b_w = _each(symmetry, u, angles[:, 0], angles[:, 1])
    lhs = b_c @ b_u @ b_d
    return max(_worst(_apply(o, n), n, 1), _worst(lhs.view(float), b_w.view(float), (1, 2)))


_SWEEP = np.arange(16) * (math.pi / 8.0)


@_check("ks", "phase_residual_law", 0.05, _points)
def _check_phase_residual_law(v, sheets):
    xi = cartesian_columns(xi_cartesian, *v.T, sheets)[:, :, None]
    # The constraint after each phase of the sweep, one column per phase.
    moved = hopf_constraint(*_quadruple(*phase_rotated(COLUMNS, _SWEEP, *xi)))
    q4, q1, q2, q3 = _quadruple(*xi)
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
    out = np.array([[_pair(rotate_spinor(gauge(t, p), t)) for gauge in (gauge_plus, gauge_minus)]
                    for t, p in zip(_as_spinors(psi), phase.tolist())])
    want = np.zeros_like(out)
    want[:, 0, 0] = np.exp(-0.5j * phase)
    want[:, 1, 1] = np.exp(0.5j * phase)
    return _worst(out.view(float), want.view(float))


@_check("gauge", "canonical_gauges", 0.3, _units)
def _check_canonical_gauges(psi):
    s_plus, s_minus = _dot(psi[:, :2], psi[:, :2]), _dot(psi[:, 2:], psi[:, 2:])
    # Inside the constructors' own singular guard either gauge may raise.
    keep = np.minimum(s_plus, s_minus) >= 1e-9
    if not keep.any():
        return 0.0
    psi, s_plus, s_minus = psi[keep], s_plus[keep], s_minus[keep]

    def gauges(spinor):  # r, x; per gauge: c3, C, vector_parameter(rotation), O(C)
        both = canonical_phase_plus(spinor), canonical_phase_minus(spinor)
        return (*project_xi(spinor), [g.rotation.c3 for g in both],
                [g.vector_parameter for g in both], [vector_parameter(g.rotation) for g in both],
                [so3_from_vector_parameter(g.vector_parameter) for g in both])
    r, x, c3, c_vec, back, o = _each(gauges, _as_spinors(psi))
    n = x / r[:, None]
    pole = np.array([0.0, 0.0, 1.0])
    cp, cm = _dot(c_vec[:, 0], c_vec[:, 0]), _dot(c_vec[:, 1], c_vec[:, 1])
    # |C|^2 weighted by the component masses is pole-safe where the raw
    # tan(theta/2) magnitude check is not, and covers the full sphere.
    worst = max(_worst(c3, 0.0),
                _worst(_apply(o[:, 0], n), pole, 1), _worst(_apply(o[:, 1], n), -pole, 1),
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
    def planted(spinor, crow):  # recovered, planted rotation; target, recovered image
        rot = SpinorRotation(*crow)
        target = rotate_spinor(rot, spinor)
        rec = rotation_between(spinor, target)
        return rec.as_tuple(), rot.as_tuple(), _pair(target), _pair(rotate_spinor(rec, spinor))
    got, want, target, back = _each(planted, _as_spinors(psi), c)
    # Either sign of the planted parameters is the same rotation. Take the one
    # with positive overlap: in a pass it is the nearer sign; a fail can only grow.
    want = want * np.where(_dot(got, want) < 0.0, -1.0, 1.0)[:, None]
    return max(_worst(got, want, 1), _worst(back.view(float), target.view(float)))


@_check("gauge", "stabilizer_exact_identity", 0.1, _units)
def _check_stabilizer(psi):
    got = np.array([(stabilizer_check(t, 1).as_tuple(), stabilizer_check(t, -1).as_tuple())
                    for t in _as_spinors(psi)])
    return 0.0 if (got == [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]).all() else 1.0


@_check("gauge", "stabilizer_circle_contrast", 0.0,
        lambda rng, n: (2.0 * math.pi * np.arange(16) / 16.0,))
def _check_circle_contrast(sweep):
    # The vector-level small group of the pole is a full circle, the
    # spinor-level one a single point of the sweep.
    psi = Spinor(1.0 + 0.0j, 0.0 + 0.0j)

    def turn(angle):
        rot = axis_phase(angle)
        return extract_so3(su2_matrix(rot)), _pair(rotate_spinor(rot, psi))
    o, moved = _each(turn, sweep)
    fixing = np.count_nonzero(np.all(np.abs(moved - [psi.c1, psi.c2]) <= 1e-12, axis=1))
    return _worst(o[:, :, 2], np.array([0.0, 0.0, 1.0]), 1) if fixing == 1 else math.inf


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
    if samples < 1:
        raise ValueError("samples must be >= 1")
    finite_angle(tolerance, "tolerance")
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
    given; a non-finite override raises ValueError. Malformed records, a
    non-finite stored tolerance among them, count as categorical failures.
    The report's threshold is the override, or else the largest usable stored
    tolerance, or 1e-12 where there is none.
    """
    if tolerance is not None:
        finite_angle(tolerance, "tolerance")
    start = time.perf_counter()
    worst = 0.0
    usable = []
    ok = True
    for record in records:
        try:
            tol = tolerance if tolerance is not None else finite_angle(
                record["meta"]["tolerance"], "tolerance")
            usable.append(tol)
            residual = fixture_io.replay_residual(record)
            ok = ok and residual <= tol
        except (KeyError, ValueError, TypeError):
            residual, ok = math.inf, False
        worst = max(worst, residual)
    count = len(records)
    threshold = tolerance if tolerance is not None else max(usable, default=1e-12)
    elapsed = time.perf_counter() - start
    check = CheckResult("fixture_replay", count, worst, threshold, ok, elapsed)
    return VerificationReport(suite="replay", seed=0, samples=count,
                              tolerance=threshold, checks=(check,), elapsed=elapsed)


__all__ = [
    "CheckResult", "VerificationReport",
    "run_suite", "run_all", "replay_fixtures",
]
