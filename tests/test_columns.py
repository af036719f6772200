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
    KSQuadruple,
    SingularGaugeError,
    Spinor,
    SpinorRotation,
    axis_phase,
    canonical_phase_minus,
    canonical_phase_plus,
    compose,
    conjugate,
    direction_from_ks,
    extract_so3,
    frame_symmetry,
    gauge_minus,
    gauge_plus,
    hat,
    ks_from_rotation,
    normalize_ks,
    psi_from_direction,
    rotate_spinor,
    rotation_between,
    rotation_from_unit_ks,
    so3_from_rotation,
    su2_matrix,
    su2_real4,
    vector_parameter,
)
from spinorspace import gauge_fixing as gf
from spinorspace import ks_covariance as ks
from spinorspace import rotation_algebra as ra
from spinorspace.core import COLUMNS, axis4, conjugate4, qmul, su2_parts, unit4

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
    rows_equal(conjugate4(COLUMNS, r), [conjugate(rot).as_tuple() for rot in rots])
    rows_equal(unit4(COLUMNS, *qmul(r, r_other)),
               [compose(a, b).as_tuple() for a, b in zip(rots, others)])
    phase = _phases(rng, len(c))
    rows_equal(axis4(COLUMNS, phase), [axis_phase(p).as_tuple() for p in phase.tolist()])
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
    for sign in (1, -1):  # the stack against single systems, as stabilizer_check solves them
        rows_equal(gf.stabilizer_solve(g, q[:, :, None], sign)[:, :, 0].T,
                   [np.linalg.solve(m, float(sign) * row) for m, row in zip(g, q)])


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
    s, gamma, rotation = gf.canonical4(COLUMNS, u, sign)
    rows_equal((gamma, *np.broadcast_arrays(*gf.planar_chart(u, s, sign)),
                *unit4(COLUMNS, *rotation)), rows)
    with pytest.raises(SingularGaugeError):
        gf.canonical4(COLUMNS, unit4(COLUMNS, *psi.T), sign)
