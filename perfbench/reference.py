"""Independent references for the benchmark's output checks.

Everything here is plain numpy over literal Pauli matrices, vectorized over a
leading batch axis. Nothing imports spinorspace, so a check never calls the
function under test a second time: it rebuilds the expected value by another
route and compares.

Storage conventions shared with the library (and nothing else):
- a spinor is a complex column (c1, c2);
- a real quadruple is (q4, q1, q2, q3) with c1 = q1 + i q2, c2 = q3 + i q4;
- a rotation parameter is (c4, c1, c2, c3) with B = c4 I - i sigma^j c_j.
"""

from __future__ import annotations

import numpy as np

SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)
ID2 = np.eye(2, dtype=complex)
# Probes of the symmetric square: sigma^2 sigma^j for j = 1, 2, 3.
ETA_PROBES = np.array([SIGMA[1] @ SIGMA[j] for j in range(3)])
INV_SQRT2 = np.sqrt(0.5)

# Contract bound on every scaled residual (ROADMAP, "Correctness").
CONTRACT = 1e-12


def b_matrices(c):
    """B(c) = c4 I - i sigma^j c_j for parameters c of shape (..., 4)."""
    c = np.asarray(c, dtype=float)
    return (c[..., 0, None, None] * ID2
            - 1.0j * np.einsum("...j,jab->...ab", c[..., 1:], SIGMA))


def dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


def apply(m, col):
    return np.einsum("...ab,...b->...a", m, col)


def so3_matrices(c):
    """O_kl = Re tr(sigma^k B sigma^l B^dag) / 2, the trace route."""
    b = b_matrices(c)
    return 0.5 * np.einsum("kab,...bc,lcd,...da->...kl",
                           SIGMA, b, SIGMA, dagger(b), optimize=True).real


def pauli_vectors(v):
    """v . sigma for vectors of shape (..., 3)."""
    return np.einsum("...j,jab->...ab", np.asarray(v, dtype=complex), SIGMA)


def xi_bilinears(col):
    """r = col^dag col / 2 and x_j = col^dag sigma^j col / 2."""
    r = 0.5 * np.einsum("...a,...a->...", np.conj(col), col).real
    x = 0.5 * np.einsum("...a,jab,...b->...j", np.conj(col), SIGMA, col).real
    return r, x


def eta_bilinears(col):
    """(a, x) with a_j + i x_j = col^T sigma^2 sigma^j col / 2."""
    z = 0.5 * np.einsum("...a,jab,...b->...j", col, ETA_PROBES, col)
    return z.real, z.imag


def eta_of_xi(col):
    """(xi - i sigma^2 xi*) / sqrt(2) with the literal sigma^2."""
    return (col - 1.0j * apply(SIGMA[1], np.conj(col))) * INV_SQRT2


def storage(col):
    """(q4, q1, q2, q3) of complex columns."""
    return np.stack([col[..., 1].imag, col[..., 0].real,
                     col[..., 0].imag, col[..., 1].real], axis=-1)


def column(q):
    """Complex column of (q4, q1, q2, q3) quadruples."""
    q = np.asarray(q, dtype=float)
    return np.stack([q[..., 1] + 1.0j * q[..., 2], q[..., 3] + 1.0j * q[..., 0]], axis=-1)


def hat(q):
    """(q4, q1, q2, q3) -> (q4, q1, -q2, -q3), read as a rotation parameter."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, 1.0, -1.0, -1.0])


def parameters_of(b):
    """Read (c4, c1, c2, c3) back off matrices of the B form."""
    return np.stack([
        0.5 * (b[..., 0, 0] + b[..., 1, 1]).real,
        -0.5 * (b[..., 1, 0] + b[..., 0, 1]).imag,
        0.5 * (b[..., 1, 0] - b[..., 0, 1]).real,
        -0.5 * (b[..., 0, 0] - b[..., 1, 1]).imag,
    ], axis=-1)


def unit_spinors(theta, lift):
    """(cos(theta/2) e^{-i lift/2}, sin(theta/2) e^{+i lift/2})."""
    h = 0.5 * np.asarray(lift, dtype=float)
    return np.stack([np.cos(0.5 * theta) * np.exp(-1.0j * h),
                     np.sin(0.5 * theta) * np.exp(1.0j * h)], axis=-1)


def _flat(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.concatenate([a.real, a.imag], axis=-1)
    return a.reshape(a.shape[0], -1)


def residual(got, want, scale=None):
    """Worst |got - want| per row over `scale` (default max(1, |got|, |want|)).

    Rows that hold a non-finite value score inf, so they can never pass.
    """
    g, w = _flat(got), _flat(want)
    diff = np.max(np.abs(g - w), axis=1)
    if scale is None:
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(g), axis=1),
                                           np.max(np.abs(w), axis=1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(diff == 0.0, 0.0, diff / np.asarray(scale, dtype=float))
    finite = np.all(np.isfinite(g), axis=1) & np.all(np.isfinite(w), axis=1)
    return np.where(finite & np.isfinite(out), out, np.inf)


def inf_norm(v):
    """Largest magnitude per row, the scale of a point-like quantity."""
    return np.max(np.abs(_flat(v)), axis=1)
