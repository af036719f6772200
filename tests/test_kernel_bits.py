"""The written-out kernels keep the bits of the comprehension forms they replaced.

stabilizer_solve, transport4 and turned3 are written out entry by entry. The
references below are their comprehension forms, kept as they were. Both run on
floats and on columns, and their results are compared as int64 bit patterns,
so that a signed zero, a subnormal or a NaN from an overflow counts. Each sum
keeps its grouping: a regrouped row moves bits on about 3 in 10 random
draws, and no residual bound sees that.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorspace.core import COLUMNS, FLOATS, unit4
from spinorspace.gauge_fixing import stabilizer_solve
from spinorspace.ks_covariance import hat4, transport4, turned3, unit_ks
from spinorspace.rotation_algebra import linear_system_entries, real4_entries, so3_entries


def stabilizer_solve_reference(q, sign):
    q4, q1, q2, q3 = q
    gq = [(a * q4 + b * q1) + (c * q2 + d * q3) for a, b, c, d in zip(*linear_system_entries(*q))]
    return tuple(sign * entry / gq[0] for entry in gq)


def transport4_reference(c, q):
    q4, q1, q2, q3 = q
    return tuple((a * q4 + b * q1) + (e * q2 + f * q3) for a, b, e, f in real4_entries(*c))


def turned3_reference(xp, w, c, n):
    ow = so3_entries(*unit4(xp, *hat4(unit_ks(xp, w))))
    for m in (zip(*ow), so3_entries(*c), ow):
        n1, n2, n3 = n
        n = tuple(a * n1 + (b * n2 + e * n3) for a, b, e in m)
    return n


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
_PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


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


@_PROPERTY
@given(st.lists(st.tuples(_QUAD, _QUAD), min_size=1, max_size=6))
def test_transport4_keeps_the_bits_of_its_comprehension(rows):
    for c, q in rows:
        assert outcome(transport4, c, q) == outcome(transport4_reference, c, q)
    c, q = (_columns(part) for part in zip(*rows))
    assert outcome(transport4, c, q) == outcome(transport4_reference, c, q)


@_PROPERTY
@given(st.lists(st.tuples(_QUAD, _QUAD, _TRIPLE), min_size=1, max_size=6))
def test_turned3_keeps_the_bits_of_its_comprehension(rows):
    for w, c, n in rows:
        assert outcome(turned3, FLOATS, w, c, n) == outcome(turned3_reference, FLOATS, w, c, n)
    w, c, n = (_columns(part) for part in zip(*rows))
    assert outcome(turned3, COLUMNS, w, c, n) == outcome(turned3_reference, COLUMNS, w, c, n)
