"""The column kernels of core, rotation_algebra, ks_covariance and gauge_fixing.

Each kernel runs on Python floats behind the scalar API and on float64 columns
in the verification suites. Every row of a column call must have the bits of
the scalar function on that row, signs of zeros included.
"""

import math

import numpy as np
import pytest

import oracles
from spinorspace import (
    VECTOR_PARAMETER_LIMIT,
    KSQuadruple,
    SingularGaugeError,
    Spinor,
    SpinorRotation,
    axis_phase,
    build_frame,
    canonical_phase_minus,
    canonical_phase_plus,
    compose,
    conjugate,
    direction_from_ks,
    elementary_so4,
    extract_so3,
    frame_symmetry,
    gauge_minus,
    gauge_plus,
    hat,
    ks_from_rotation,
    left_transport,
    normalize_ks,
    psi_from_direction,
    quadruple_from_spinor,
    rotate_spinor,
    rotated_direction,
    rotation_between,
    rotation_from_unit_ks,
    rotation_from_vector_parameter,
    so3_from_rotation,
    so3_from_vector_parameter,
    spinor_from_quadruple,
    su2_matrix,
    su2_real4,
    vector_parameter,
    verify,
)
from spinorspace import gauge_fixing as gf
from spinorspace import ks_covariance as ks
from spinorspace import rotation_algebra as ra
from spinorspace.core import (COLUMNS, axis4, conjugate4, qmul, quadruple_parts, stacked,
                              su2_parts, unit4)

rows_equal = oracles.assert_rows_equal


def _parts(s):
    return s.c1.real, s.c1.imag, s.c2.real, s.c2.imag


def _unit_rows(rng):
    """Unit quadruples: uniform draws normalized, the spinors of
    oracles.hard_directions (components down to 1e-16 and chart weights of
    1e-13), rows off unit norm by up to 9e-7, and the axes with signed zeros."""
    g = rng.uniform(-1.0, 1.0, size=(300, 4))
    g /= np.sqrt(np.sum(g * g, axis=1, keepdims=True))
    gammas = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 300)
    hard = [_parts(psi_from_direction(n, gamma))
            for n, gamma in zip(oracles.hard_directions(rng, 300), gammas.tolist())]
    near = g[:100] * (1.0 + rng.uniform(-9e-7, 9e-7, size=(100, 1)))
    axes = [[a if i == j else z for j in range(4)]
            for i in range(4) for a in (1.0, -1.0) for z in (0.0, -0.0)]
    return np.concatenate([g, hard, near, axes])


def _phases(rng, n):
    """n angles: the signed zeros, +-pi, +-2pi, +-4pi and 1e-300, then uniform in (-8, 8)."""
    phase = rng.uniform(-8.0, 8.0, n)
    phase[:9] = (0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi,
                 4.0 * math.pi, -4.0 * math.pi, 1e-300)
    return phase


def test_rotation_kernels_keep_the_scalar_bits():
    rng = np.random.default_rng(61)
    c = _unit_rows(rng)
    d = rng.permutation(c)
    rots = [SpinorRotation(*row) for row in c.tolist()]
    others = [SpinorRotation(*row) for row in d.tolist()]
    r, r_other = unit4(COLUMNS, *c.T), unit4(COLUMNS, *d.T)
    rows_equal(r, [rot.as_tuple() for rot in rots])
    # conjugate and axis_phase return a SpinorRotation, which normalizes its kernel's tuple.
    rows_equal(unit4(COLUMNS, *conjugate4(r)), [conjugate(rot).as_tuple() for rot in rots])
    rows_equal(unit4(COLUMNS, *qmul(r, r_other)),
               [compose(a, b).as_tuple() for a, b in zip(rots, others)])
    phase = _phases(rng, len(c))
    rows_equal(unit4(COLUMNS, *axis4(COLUMNS, phase)),
               [axis_phase(p).as_tuple() for p in phase.tolist()])
    # Each matrix as the row of its entries.
    rows_equal(np.reshape(ra.so3_entries(*r), (9, -1)),
               [so3_from_rotation(rot).ravel() for rot in rots])
    rows_equal(np.reshape(ra.real4_entries(*r), (16, -1)),
               [su2_real4(rot).ravel() for rot in rots])
    rows_equal(np.reshape(su2_parts(*r), (8, -1)),
               [su2_matrix(rot).view(float).ravel() for rot in rots])
    chart = np.abs(c[:, 0]) >= ra.VECTOR_PARAMETER_LIMIT
    rows_equal(ra.vector_parameter_entries(COLUMNS, *(part[chart] for part in r)),
               [vector_parameter(rot) for rot, keep in zip(rots, chart) if keep])
    with pytest.raises(ValueError, match="unit norm"):
        unit4(COLUMNS, *(2.0 * c).T)


def test_rotate_spinor_columns_keep_the_scalar_bits():
    rng = np.random.default_rng(62)
    c = _unit_rows(rng)
    s = np.concatenate([rng.normal(size=(len(c) - 64, 4)),
                        [[a, b, e, f] for a in (0.0, -0.0) for b in (0.0, -0.0, 1.5, -2.0)
                         for e in (0.0, -0.0) for f in (0.0, -0.0, 1.5, -2.0)]])
    rots = [SpinorRotation(*row) for row in c.tolist()]
    spinors = [Spinor(complex(a, b), complex(e, f)) for a, b, e, f in s.tolist()]
    rows_equal(ra.rotated(unit4(COLUMNS, *c.T), *s.T),
               [_parts(rotate_spinor(rot, t)) for rot, t in zip(rots, spinors)])


def test_stacked_extraction_and_solve_keep_the_single_bits():
    rng = np.random.default_rng(63)
    c = _unit_rows(rng)
    b = ra.extract_so3(np.stack([su2_matrix(SpinorRotation(*row)) for row in c.tolist()]))
    rows_equal(b.reshape(-1, 9).T,
               [extract_so3(su2_matrix(SpinorRotation(*row))).ravel() for row in c.tolist()])
    q = c * rng.uniform(0.5, 2.0, size=(len(c), 1))
    g = np.stack([ra.linear_system_matrix(KSQuadruple(*row)) for row in q.tolist()])
    rows_equal(np.reshape(ra.linear_system_entries(*q.T), (16, -1)), g.reshape(-1, 16))
    for sign in (1, -1):  # the columns against single systems, as stabilizer_check solves them
        solved = gf.stabilizer_solve(tuple(q.T), sign)
        rows_equal(solved, [gf.stabilizer_solve(tuple(row), sign) for row in q.tolist()])
        # np.linalg.solve is the independent reference: within 1e-15, scaled.
        want = [np.linalg.solve(m, float(sign) * row) for m, row in zip(g, q)]
        assert verify._worst(np.transpose(solved), want, 1) <= 1e-15


def test_plane_rotation_columns_keep_the_scalar_bits():
    angle = _phases(np.random.default_rng(76), 400)
    for label, pair in ra.ELEMENTARY_PLANES.items():
        rows_equal(stacked(ra.plane_entries(COLUMNS, *pair, angle)).reshape(-1, 16).T,
                   [elementary_so4(label, a).ravel() for a in angle.tolist()])


def _quadruples(rng):
    """Unit rows, Gaussian rows, rows whose squares leave the normal range or
    overflow, and signed zeros."""
    u = _unit_rows(rng)
    tiny = np.ldexp(rng.normal(size=(100, 4)), rng.integers(-1074, -520, size=(100, 1)))
    huge = np.ldexp(rng.normal(size=(100, 4)), rng.integers(520, 1023, size=(100, 1)))
    return np.concatenate([u, rng.normal(size=(300, 4)), tiny, huge])


def test_ks_kernels_keep_the_scalar_bits():
    rng = np.random.default_rng(64)
    q = _quadruples(rng)
    quads = [KSQuadruple(*row) for row in q.tolist()]
    with np.errstate(over="ignore", under="ignore"):  # the rows rescaled after
        unit = ks.unit_ks(COLUMNS, tuple(q.T))
    rows_equal(unit, [normalize_ks(t).as_tuple() for t in quads])
    rows_equal(ks.direction4(unit), [direction_from_ks(t) for t in quads])
    rows_equal(ks.hat4(tuple(q.T)), [hat(t).as_tuple() for t in quads])
    with pytest.raises(ValueError, match="zero quadruple"):
        ks.unit_ks(COLUMNS, tuple(np.vstack([q[:3], [[0.0, -0.0, 0.0, 0.0]]]).T))


def test_frame_symmetry_columns_keep_the_scalar_bits():
    rng = np.random.default_rng(65)
    u = _unit_rows(rng)
    beta, delta = rng.uniform(-math.pi, math.pi, len(u)), _phases(rng, len(u))
    quads = [KSQuadruple(*row) for row in u.tolist()]
    # A partner over the same direction: hat(u) turned about the third axis.
    partners = [hat(ks_from_rotation(compose(rotation_from_unit_ks(hat(t)), axis_phase(b))))
                for t, b in zip(quads, beta.tolist())]
    w = np.array([t.as_tuple() for t in partners])
    got = unit4(COLUMNS, *ks.symmetry4(COLUMNS, tuple(u.T), tuple(w.T), delta))
    rows_equal(got, [frame_symmetry(a, b, d).as_tuple()
                     for a, b, d in zip(quads, partners, delta.tolist())])
    with pytest.raises(ValueError, match="different directions"):
        ks.symmetry4(COLUMNS, tuple(u.T), tuple(np.roll(w, 1, axis=0).T), delta)


def test_gauge_kernels_keep_the_scalar_bits():
    rng = np.random.default_rng(66)
    psi = _unit_rows(rng)
    spinors = [Spinor(complex(a, b), complex(c, d)) for a, b, c, d in psi.tolist()]
    phase = _phases(rng, len(psi))
    u = unit4(COLUMNS, *psi.T, "gauge_plus")
    for gauge, w in ((gauge_plus, u), (gauge_minus, gf.swap4(u))):
        rows_equal(unit4(COLUMNS, *gf.gauge_plus4(COLUMNS, w, phase)),
                   [gauge(t, p).as_tuple() for t, p in zip(spinors, phase.tolist())])
    chi = rng.permutation(psi)
    others = [Spinor(complex(a, b), complex(c, d)) for a, b, c, d in chi.tolist()]
    v = unit4(COLUMNS, *chi.T, "rotation_between")
    rows_equal(unit4(COLUMNS, *gf.between4(COLUMNS, u, v)),
               [rotation_between(t, o).as_tuple() for t, o in zip(spinors, others)])


@pytest.mark.parametrize("sign, scalar", [(1, canonical_phase_plus), (-1, canonical_phase_minus)],
                         ids=["plus", "minus"])
def test_canonical_gauge_columns_keep_the_scalar_bits(sign, scalar):
    psi = _unit_rows(np.random.default_rng(67))
    rows, kept = [], []
    for i, (a, b, c, d) in enumerate(psi.tolist()):
        try:
            g = scalar(Spinor(complex(a, b), complex(c, d)))
        except SingularGaugeError:  # the hard directions at the other pole
            continue
        rows.append((g.gamma, *g.vector_parameter, *g.rotation.as_tuple()))
        kept.append(i)
    assert len(kept) > len(psi) // 2
    u = unit4(COLUMNS, *psi[kept].T, "canonical_phase_plus")
    gamma, c_vec, rotation = gf.canonical4(COLUMNS, u, sign)
    rows_equal((gamma, *np.broadcast_arrays(*c_vec), *unit4(COLUMNS, *rotation)), rows)
    with pytest.raises(SingularGaugeError):
        gf.canonical4(COLUMNS, unit4(COLUMNS, *psi.T), sign)


def _chart_rows(rng):
    """Vector parameters: Gaussian, on both sides of the pow2_shift boundary |C_i| = 2,
    tiny (1e-300 and subnormal) and huge (1e150), with signed zeros, and |C| from 3e8
    to 3e9, where c4 crosses the limit of the vector parameter."""
    edge = np.array([2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 4.0), 0.0, -0.0])
    boundary = rng.choice(edge, size=(100, 3)) * rng.choice([-1.0, 1.0], size=(100, 3))
    tiny = rng.normal(size=(60, 3)) * np.array([[1e-300], [5e-324]]).repeat(30, axis=0)
    zeros = [[a, b, c] for a in (0.0, -0.0) for b in (0.0, -0.0) for c in (0.0, -0.0, 1.5)]
    g = rng.normal(size=(100, 3))
    g /= np.sqrt(np.sum(g * g, axis=1, keepdims=True))
    limit = g * 10.0 ** rng.uniform(8.5, 9.5, (100, 1))
    return np.concatenate([rng.normal(size=(300, 3)) * 1.5, boundary, tiny,
                           rng.normal(size=(60, 3)) * 1e150, zeros, limit])


def test_vector_parameter_charts_keep_the_scalar_bits():
    c = _chart_rows(np.random.default_rng(71))
    rows = c.tolist()
    rot = unit4(COLUMNS, *ra.chart4(COLUMNS, *c.T))
    rows_equal(rot, [rotation_from_vector_parameter(v).as_tuple() for v in rows])
    rows_equal(np.reshape(ra.chart_so3(COLUMNS, *c.T), (9, -1)),
               [so3_from_vector_parameter(v).ravel() for v in rows])
    # Back to C where the rotation is on the chart; the rows past its limit raise.
    chart = np.abs(rot[0]) >= VECTOR_PARAMETER_LIMIT
    assert 0 < chart.sum() < len(c)
    rows_equal(ra.vector_parameter_entries(COLUMNS, *(part[chart] for part in rot)),
               [vector_parameter(rotation_from_vector_parameter(v))
                for v, keep in zip(rows, chart) if keep])
    with pytest.raises(ValueError, match="half turn"):
        ra.vector_parameter_entries(COLUMNS, *rot)


def _directions(rng):
    """oracles.hard_directions, then the poles with every sign of zero."""
    zeros = (0.0, -0.0)
    return np.array(oracles.hard_directions(rng, 600)
                    + [[a, b, c] for a in zeros for b in zeros for c in (1.0, -1.0)])


def test_direction_spinor_columns_keep_the_scalar_bits():
    rng = np.random.default_rng(72)
    n = _directions(rng)
    gamma = _phases(rng, len(n))
    rows_equal(gf.psi_parts(COLUMNS, *n.T, gamma),
               [_parts(psi_from_direction(v, g)) for v, g in zip(n, gamma.tolist())])
    with pytest.raises(ValueError, match="unit vector"):
        gf.psi_parts(COLUMNS, *(n * np.linspace(1.0, 2.0, len(n))[:, None]).T, gamma)


def test_frame_columns_keep_the_scalar_bits():
    rng = np.random.default_rng(73)
    q = _quadruples(rng)
    axes, delta = _directions(rng), _phases(rng, len(q))
    axes = axes[rng.integers(0, len(axes), len(q))]
    frames, kept = [], []
    for i, (row, axis, turn) in enumerate(zip(q.tolist(), axes, delta.tolist())):
        try:
            frames.append(build_frame(KSQuadruple(*row), axis, turn))
        except SingularGaugeError:  # the axes at the south pole
            continue
        kept.append(i)
    assert len(kept) > len(q) // 2
    align = unit4(COLUMNS, *gf.canonical_plus4(COLUMNS, axes[kept].T))
    with np.errstate(over="ignore", under="ignore"):  # the rows rescaled after
        w, n = ks.frame4(COLUMNS, tuple(q[kept].T), align, delta[kept])
    rows_equal(align, [f.align.as_tuple() for f in frames])
    rows_equal(w, [f.w.as_tuple() for f in frames])
    rows_equal(n, [f.direction for f in frames])
    with pytest.raises(SingularGaugeError):
        gf.canonical_plus4(COLUMNS, axes.T)


def test_transport_columns_keep_the_scalar_bits():
    rng = np.random.default_rng(74)
    c = _unit_rows(rng)
    # Tiny to huge quadruples, subnormal entries included, short of overflow.
    q = np.ldexp(rng.normal(size=(len(c), 4)), rng.integers(-1074, 1000, size=(len(c), 1)))
    v = rng.normal(size=(len(c), 3)) * 10.0 ** rng.uniform(-200.0, 200.0, (len(c), 1))
    rots = [SpinorRotation(*row) for row in c.tolist()]
    quads = [KSQuadruple(*row) for row in q.tolist()]
    rot = unit4(COLUMNS, *c.T)
    q4, q1, q2, q3 = q.T  # the spinor c1 = q1 + i q2, c2 = q3 + i q4
    moved = quadruple_parts(*ra.rotated(rot, q1, q2, q3, q4))
    rows_equal(moved, [left_transport(r, t).as_tuple() for r, t in zip(rots, quads)])
    # left_transport is B(rot) on the spinor of q, read back as a quadruple
    rows_equal(moved, [quadruple_from_spinor(rotate_spinor(r, spinor_from_quadruple(t)))
                       .as_tuple() for r, t in zip(rots, quads)])
    with np.errstate(over="ignore", under="ignore"):  # the rows rescaled after
        turned = ks.turned3(COLUMNS, tuple(q.T), rot, v.T)
    rows_equal(turned, [rotated_direction(t, r, d) for t, r, d in zip(quads, rots, v)])


def test_stacked_fit_rows_are_single_fits():
    # Each row of a stacked fit has the bits of the fit of its one target, as the
    # certificate of S takes it: su2_real4 members, Gaussian targets, and a stack of one.
    rng = np.random.default_rng(77)
    members = stacked(ra.real4_entries(*unit4(COLUMNS, *_unit_rows(rng).T)))
    for targets in (members, rng.normal(size=(2000, 4, 4)), members[:1]):
        fit, residual = ra.real4_fit(targets)
        rows_equal((*fit.T, residual),
                   [(*f[0], r[0]) for f, r in map(ra.real4_fit, targets)])


def test_stacks_are_c_contiguous():
    rng = np.random.default_rng(75)
    g = rng.normal(size=(40, 8))
    columns = tuple(g[:, ::2].T)  # strided columns, as the draws' .T gives them
    for parts, shape in ((columns, (40, 4)), (columns[:3], (40, 3)),
                         (ra.so3_entries(*columns), (40, 3, 3)),
                         (ra.real4_entries(*columns), (40, 4, 4)),
                         (((0.0, columns[0]), (columns[1], 1.0)), (40, 2, 2))):
        stack = stacked(parts)
        assert stack.shape == shape and stack.flags.c_contiguous
    assert stacked(ra.so3_entries(*np.empty((4, 0)))).shape == (0, 3, 3)  # an empty chunk
    # Each row of a stack holds its columns' entries.
    assert (stacked(columns) == g[:, ::2]).all()
    assert (np.moveaxis(stacked(ra.so3_entries(*columns)), 0, -1)
            == np.array(ra.so3_entries(*columns))).all()
