"""The written-out kernels keep the bits of the comprehension forms they replaced,
and core's scaled residual keeps the bits of the module copies it replaced.

stabilizer_solve and turned3 are written out entry by entry. The references
below are their comprehension forms. Both run on
floats and on columns, and their results are compared as int64 bit patterns,
so that a signed zero, a subnormal or a NaN from an overflow counts. Each sum
keeps its grouping: a regrouped row moves bits on about 3 in 10 random
draws, and no residual bound sees that. turned3 takes a rotation's unit
quadruple, so its c is drawn unit; its w and n take the edge entries.

symmetry4's direction mismatch and replay_residuals' formula were written out
in their modules; the references below are those copies, kept as they were.
Where a copy gave NaN, core scores inf.

verify's Gram products M^T M write out their einsum, and keep its bits.
extract_so3 runs the trace map in the sums it reduces to, trace_so3_entries;
the einsum over the Pauli matrices in tests/oracles.py stays its independent
route, compared by value, beside a 50-digit trace.
"""

import functools
import itertools
import math
from itertools import chain

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorspace.core import COLUMNS, FLOATS, conjugate4, qmul, residual_rows, unit4
from spinorspace.fixtures import generate_fixtures, replay_residuals
from spinorspace.gauge_fixing import stabilizer_solve
from spinorspace.ks_covariance import hat4, turned3, unit_ks
from spinorspace.rotation_algebra import extract_so3, linear_system_entries, so3_entries
from spinorspace.verify import _gram


def stabilizer_solve_reference(q, sign):
    q4, q1, q2, q3 = q
    gq = [(a * q4 + b * q1) + (c * q2 + d * q3) for a, b, c, d in zip(*linear_system_entries(*q))]
    return tuple(sign * entry / gq[0] for entry in gq)


def turned3_reference(xp, w, c, n):
    h = hat4(unit_ks(xp, w))
    n1, n2, n3 = n
    return tuple(a * n1 + (b * n2 + e * n3)
                 for a, b, e in so3_entries(*unit4(xp, *qmul(qmul(h, c), conjugate4(h)))))


def mismatch_reference(maximum, a, b):
    """symmetry4's written-out scaled residual of two directions; maximum is the
    builtin max on floats and numpy's elementwise maximum on columns."""
    return (maximum(abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]))
            / maximum(1.0, *map(abs, a), *map(abs, b)))


def replay_reference(stored, fresh, starts):
    """replay_residuals' written-out scores of the stored fields against their recomputation."""
    s, f = np.array(stored, dtype=float), np.array(fresh, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf, from an infinite field
        gap = np.abs(s - f) / np.maximum(np.maximum(np.abs(s), np.abs(f)), 1.0)
    gap[np.isnan(gap)] = math.inf
    return np.maximum.reduceat(gap, starts)


def outcome(kernel, *args):
    """The int64 bit patterns of each entry of kernel(*args), or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return [np.asarray(v, dtype=float).view(np.int64).tolist() for v in kernel(*args)]
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


# Signed zeros, subnormals, the edges of the normal range and +-1e300, whose
# products overflow, beside ordinary and arbitrary finite entries.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 2.2250738585072014e-308,
          1e300, -1e300, 1.0, -1.0, 0.5]
_ENTRY = st.sampled_from(_EDGES) | st.floats(-2.0, 2.0) | st.floats(allow_nan=False,
                                                                   allow_infinity=False)
_QUAD = st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY)
_TRIPLE = st.tuples(_ENTRY, _ENTRY, _ENTRY)
# Unit quadruples: the axes with signed zeros, and draws divided by their norm,
# then moved off unit norm by up to 9e-7, inside core.NORM_SLACK.
_UNIT = (st.sampled_from([(1.0, 0.0, -0.0, 0.0), (-0.0, -1.0, 0.0, 0.0), (0.0, -0.0, 1.0, -0.0),
                          (-0.0, 0.0, 0.0, -1.0), (0.5, -0.5, 0.5, 0.5)])
         | st.builds(lambda q, e: tuple(x / math.hypot(*q) * (1.0 + e) for x in q),
                     st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY).filter(
                         lambda q: 1e-300 < math.hypot(*q) < math.inf),
                     st.floats(-9e-7, 9e-7)))
_PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)
_FEWER = settings(_PROPERTY, max_examples=100)  # the residual pins: one formula, few branches


def _columns(rows) -> tuple:
    """The rows of tuples as a tuple of float64 columns."""
    return tuple(np.array(column, dtype=float) for column in zip(*rows))


@_PROPERTY
@given(st.lists(_QUAD, min_size=1, max_size=6), st.sampled_from([1, -1]))
def test_stabilizer_solve_keeps_the_bits_of_its_comprehension(rows, sign):
    for q in rows:
        assert outcome(stabilizer_solve, q, sign) == outcome(stabilizer_solve_reference, q, sign)
    q = _columns(rows)
    assert outcome(stabilizer_solve, q, sign) == outcome(stabilizer_solve_reference, q, sign)


def test_turned3_keeps_the_bits_of_its_comprehension():
    returned = {"floats": [], "columns": []}  # per call, whether it gave values or raised

    @_PROPERTY
    @given(st.lists(st.tuples(_QUAD, _UNIT, _TRIPLE), min_size=1, max_size=6))
    def check(rows):
        calls = [("floats", FLOATS, row) for row in rows]
        calls.append(("columns", COLUMNS, tuple(_columns(part) for part in zip(*rows))))
        for name, xp, (w, c, n) in calls:
            got = outcome(turned3, xp, w, c, n)
            assert got == outcome(turned3_reference, xp, w, c, n)
            returned[name].append(isinstance(got, list))

    check()
    # Only a zero w raises: the bits are compared on nearly every row and column call.
    for name, values in returned.items():
        assert sum(values) > 0.9 * len(values), (name, sum(values), len(values))


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _columns_maximum(*values):
    return functools.reduce(np.maximum, values)


@_FEWER
@given(st.lists(st.tuples(_TRIPLE, _TRIPLE), min_size=1, max_size=6))
def test_residual_keeps_the_bits_of_the_symmetry4_mismatch(rows):
    # On floats the copy took the builtin max, which skips a NaN gap; the directions
    # symmetry4 compares are finite, and so are these entries.
    for a, b in rows:
        assert FLOATS.residual(a, b).hex() == mismatch_reference(max, a, b).hex()


_INFINITE = st.sampled_from([math.inf, -math.inf])


@_FEWER
@given(st.lists(st.tuples(*[_ENTRY | _INFINITE] * 6), min_size=1, max_size=6))
def test_column_residual_keeps_the_bits_of_the_symmetry4_mismatch(rows):
    a, b = _columns([row[:3] for row in rows]), _columns([row[3:] for row in rows])
    with np.errstate(invalid="ignore"):
        want = mismatch_reference(_columns_maximum, a, b)
        got = residual_rows(a, b, 0)
        worst = COLUMNS.residual(a, b)
    want = np.where(np.isnan(want), math.inf, want)
    assert _bits(got) == _bits(want)
    assert worst.hex() == float(want.max()).hex()


_RECORDS = generate_fixtures(35, 1)


def _fields(record) -> list:
    """The stored fields of a record, in the order replay scores them."""
    projection = record["projection"]
    return [*chain.from_iterable(record["spinor"]), *record["quadruple"], projection["r"],
            *projection["x"], *projection.get("a", ())]


def _with_fields(record, fields) -> dict:
    """record with its stored fields replaced by fields, in _fields' order."""
    projection = {"r": fields[8], "x": fields[9:12]}
    if "a" in record["projection"]:
        projection["a"] = fields[12:15]
    return {**record, "spinor": [fields[0:2], fields[2:4]], "quadruple": fields[4:8],
            "projection": projection}


@_FEWER
@given(st.lists(st.tuples(st.integers(0, len(_RECORDS) - 1), st.integers(0, 14),
                          st.sampled_from(_EDGES + [math.inf, -math.inf, math.nan])
                          | st.floats(-2.0, 2.0)), max_size=8))
def test_replay_keeps_the_bits_of_its_formula(edits):
    # Each edit sets one stored field of one of the 35 records perfbench replays; a
    # generated record's fields are its recomputation, so fresh is the unedited batch.
    fresh = [_fields(record) for record in _RECORDS]
    stored = [list(fields) for fields in fresh]
    for index, field, value in edits:
        stored[index][field % len(stored[index])] = value
    starts = np.cumsum([0] + [len(fields) for fields in fresh[:-1]])
    got, _ = replay_residuals([_with_fields(r, f) for r, f in zip(_RECORDS, stored)], strict=True)
    want = replay_reference([*chain.from_iterable(stored)], [*chain.from_iterable(fresh)], starts)
    assert _bits(got) == _bits(want)


def _assert_same_bits(got, want):
    """got and want have one shape and the same int64 bit patterns, entry by entry."""
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} of {want.size} entries differ, first at {bad[:5].tolist()}"


def _haar_unitaries(rng, n) -> np.ndarray:
    """n Haar-random U(2) matrices: Q of complex Gaussians, its columns phased by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _gaussian_su2(rng, n) -> np.ndarray:
    """B(c) = c4 I - i c.sigma of n Gaussian quadruples c, each normalized."""
    c = rng.normal(size=(n, 4))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return c[:, 0, None, None] * oracles.ID2 - 1j * np.einsum("nj,jab->nab", c[:, 1:], oracles.PAULI)


def _edge_matrices() -> np.ndarray:
    """+-I, +-i I, +-sigma^k and +-i sigma^k, B of the turns 2 pi j / 16 about each axis,
    and every 2x2 matrix whose eight real parts are each 0.0, -0.0, 1.0 or -1.0."""
    signed = [m for p in (oracles.ID2, *oracles.SIGMA) for m in (p, -p, 1j * p, -1j * p)]
    sweep = [oracles.b_matrix(math.cos(h), *(math.sin(h) * axis))
             for h in np.pi * np.arange(16) / 16.0 for axis in np.eye(3)]
    parts = np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0], repeat=8)))
    return np.concatenate([np.array(signed + sweep), parts.view(complex).reshape(-1, 2, 2)])


def _so3_families() -> tuple:
    rng = np.random.default_rng(31)
    return _haar_unitaries(rng, 100_000), _gaussian_su2(rng, 100_000), _edge_matrices()


def test_extract_so3_stays_within_rounding_of_the_einsum():
    for b in _so3_families():
        got = extract_so3(b)
        gap = np.max(np.abs(got - oracles.so3_of_unitaries(b)))
        assert gap <= 2.0 ** -51, gap
        for i in range(0, len(b), 97):  # one unitary at a time, on floats
            _assert_same_bits(extract_so3(b[i]), got[i])
        _assert_same_bits(extract_so3(b[:800].reshape(8, 100, 2, 2)),
                          got[:800].reshape(8, 100, 3, 3))
        strided = b.transpose(0, 2, 1)
        _assert_same_bits(extract_so3(strided), extract_so3(strided.copy()))


def _trace_so3_exact(mp, b) -> list:
    """Re tr(sigma^k B sigma^l B^dag) / 2 of one 2x2 matrix, in mpmath at its precision."""
    def mul(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]

    def mp_matrix(m):
        return [[mp.mpc(z) for z in row] for row in m.tolist()]

    bm = mp_matrix(b)
    bd = [[mp.conj(bm[j][i]) for j in range(2)] for i in range(2)]
    paulis = [mp_matrix(p) for p in oracles.SIGMA]
    right = [mul(mul(bm, p), bd) for p in paulis]
    return [[mp.re(t[0][0] + t[1][1]) / 2 for t in (mul(p, r) for r in right)] for p in paulis]


def test_extract_so3_against_a_50_digit_trace():
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    # The worst gaps read 1.80 and 1.48 units of 2^-53; the einsum reads 1.81 and 2.02.
    for b in _so3_families()[:2]:  # the Haar and the Gaussian SU(2) family
        rows = b[np.random.default_rng(33).choice(len(b), 1000, replace=False)]
        worst = max(abs(mp.mpf(g) - x) for got, m in zip(extract_so3(rows).tolist(), rows)
                    for g_row, x_row in zip(got, _trace_so3_exact(mp, m))
                    for g, x in zip(g_row, x_row))
        assert worst <= 2.0 ** -51, float(worst) / 2.0 ** -53


def test_gram_keeps_the_bits_of_the_einsum():
    rng = np.random.default_rng(32)
    for r in (3, 4):
        eye = np.eye(r)
        edges = np.array([eye, -eye, -0.0 * eye, np.where(eye > 0.0, -0.0, 1.0)])
        for m in (rng.normal(size=(100_000, r, r)), np.linalg.qr(rng.normal(size=(1000, r, r)))[0],
                  edges):
            _assert_same_bits(_gram(m), np.einsum("nki,nkj->nij", m, m))
