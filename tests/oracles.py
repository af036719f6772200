"""Independent constructions the tests compare the library against.

Everything here is assembled from literal Pauli matrices and generic numpy
arithmetic, never from the library's own closed forms, so the two routes to
each quantity share nothing but the storage conventions.
"""

import math

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = (SIGMA1, SIGMA2, SIGMA3)
PAULI = np.array(SIGMA)
ID2 = np.eye(2, dtype=complex)

# Probes of the symmetric square: sigma^2 sigma^j for j = 1, 2, 3.
ETA_PROBES = (SIGMA2 @ SIGMA1, SIGMA2 @ SIGMA2, SIGMA2 @ SIGMA3)


def b_matrix(c4, c1, c2, c3):
    """B = c4 I - i (c1 s1 + c2 s2 + c3 s3), summed over the Pauli basis."""
    return c4 * ID2 - 1.0j * (c1 * SIGMA1 + c2 * SIGMA2 + c3 * SIGMA3)


def quadruple_of_matrix(b):
    """Read (c4, c1, c2, c3) back off any matrix of the B form."""
    return np.array([
        0.5 * (b[0, 0] + b[1, 1]).real,
        -0.5 * (b[1, 0] + b[0, 1]).imag,
        0.5 * (b[1, 0] - b[0, 1]).real,
        -0.5 * (b[0, 0] - b[1, 1]).imag,
    ])


def column(s):
    return np.array([s.c1, s.c2], dtype=complex)


def xi_bilinears(s):
    """r and x of the pseudovector model as literal matrix bilinears."""
    col = column(s)
    r = 0.5 * float(np.real(np.vdot(col, col)))
    x = np.array([0.5 * float(np.real(np.vdot(col, sig @ col))) for sig in SIGMA])
    return r, x


def eta_bilinears(s):
    """(a, x) of the vector model: a_j + i x_j = tr[sigma^2 sigma^j (eta x eta)]/2."""
    t = np.outer(column(s), column(s))
    z = [0.5 * complex(np.trace(t @ m)) for m in ETA_PROBES]
    return np.array([w.real for w in z]), np.array([w.imag for w in z])


def rz(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rodrigues(axis, angle):
    """Axis-angle rotation matrix without any quaternion in sight."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def so3_of_unitaries(b):
    """O_kl = Re tr(sigma^k B sigma^l B^dag) / 2 of a 2x2 matrix or a stack (..., 2, 2), as
    one einsum over the Pauli matrices: sigma^k_ab B_bc sigma^l_cd conj(B)_ad."""
    b = np.asarray(b, dtype=complex)
    return 0.5 * np.einsum("kab,...bc,lcd,...ad->...kl", PAULI, b, PAULI, b.conj()).real


def su2_with_first_column(s):
    """The unique B-form matrix whose first column is the given unit spinor."""
    return np.array([[s.c1, -np.conjugate(s.c2)], [s.c2, np.conjugate(s.c1)]])


def storage_of_column(col):
    """Quadruple (q4, q1, q2, q3) of a complex 2-column, by the storage rule."""
    return np.array([col[1].imag, col[0].real, col[0].imag, col[1].real])


def action_matrix(s):
    """4x4 matrix of c -> quadruple(B(c) psi) over the (c4, c1, c2, c3) basis.

    Columns come from applying the four basis B matrices with numpy, so the
    system can be solved for a rotation without the library's linear algebra.
    """
    col = column(s)
    return np.column_stack([storage_of_column(b_matrix(*e) @ col)
                            for e in np.eye(4)])


def haar_quadruple(rng):
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def hard_directions(rng, n):
    """n unit directions in thirds: Gaussian, within 1e-16..1e-4 of a pole,
    and at a chart weight sin^2(theta/2) of 1e-13..1e-11 from either pole."""
    out = []
    for i in range(n):
        if i % 3 == 0:
            v = rng.normal(size=3)
        elif i % 3 == 1:
            eps = 10.0 ** rng.uniform(-16.0, -4.0)
            v = np.array([eps * rng.normal(), eps * rng.normal(), rng.choice([-1.0, 1.0])])
        else:
            half = math.asin(math.sqrt(10.0 ** rng.uniform(-13.0, -11.0)))
            phi = rng.uniform(-math.pi, math.pi)
            v = np.array([math.sin(2.0 * half) * math.cos(phi), math.sin(2.0 * half) * math.sin(phi),
                          rng.choice([-1.0, 1.0]) * math.cos(2.0 * half)])
        out.append(v / np.linalg.norm(v))
    return out


def close_to_chain(got, want):
    """Two unit quadruples (value types with as_tuple) within 2^-51 entry by entry: the
    library normalizes a gauge or frame chain once, where a value-type composition
    normalizes every intermediate SpinorRotation."""
    return np.max(np.abs(np.subtract(got.as_tuple(), want.as_tuple()))) <= 2.0 ** -51


def assert_rows_equal(columns, rows):
    """Each row of k columns of n entries has the bits of the k floats of that row
    of rows: a zero of the other sign is a mismatch too."""
    got = np.ascontiguousarray(np.asarray(columns, dtype=float).T).view(np.uint64)
    want = np.array(rows, dtype=float).reshape(got.shape).view(np.uint64)
    bad = np.flatnonzero((got != want).any(axis=1))
    assert bad.size == 0, f"{bad.size} of {len(got)} rows differ, first at {bad[:5].tolist()}"
