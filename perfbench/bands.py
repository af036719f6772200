"""Seeded, stratified inputs for the `points` and `frames` workloads.

Each workload draws a fixed share of its ops from each band below. Inside a
band the parameter that defines it (log magnitude, log distance to a pole or
to the equator plane, log chart weight) is stratified: one draw in each of n
equal strata, in random order. The share of ops that falls into a known
defect region is then almost the same for every seed, so the failure shares
are steady figures rather than coin flips. Nothing is filtered out.
"""

from __future__ import annotations

import math

import numpy as np

from reference import b_matrices, hat, parameters_of, storage, unit_spinors

BANDS = ("uniform", "magnitude", "pole", "axis", "equator", "singular")

POINT_SHARES = {"uniform": 0.40, "magnitude": 0.20, "pole": 0.15, "axis": 0.10,
                "equator": 0.15}
FRAME_SHARES = {"uniform": 0.40, "pole": 0.20, "axis": 0.10, "equator": 0.10,
                "singular": 0.20}

# Known defect regions (ROADMAP item 2). A miss inside one counts as a known
# defect; a miss anywhere else is an unexpected failure.
KNOWN_DEFECTS = {
    "cartesian_range": "Cartesian constructors square the components, so a "
                       "component outside [2^-500, 2^500] underflows or overflows",
    "pole_cancellation": "psi_from_direction computes sqrt((1 -+ n3)/2), which "
                         "cancels within about 1e-3 rad of a pole",
}
CARTESIAN_SAFE = (2.0 ** -500, 2.0 ** 500)
POLE_DEFECT_RADIUS = 1e-3

def stratified(rng, n, lo, hi):
    """n draws on [lo, hi), one in each of n equal strata, in random order."""
    u = (np.arange(n) + rng.random(n)) / max(n, 1)
    return rng.permutation(lo + (hi - lo) * u)


def _counts(n, shares):
    names = list(shares)
    counts = [int(n * shares[b]) for b in names]
    counts[0] += n - sum(counts)
    return dict(zip(names, counts))


def _uniform_sphere(rng, n):
    z = rng.uniform(-1.0, 1.0, n)
    return np.sqrt((1.0 - z) * (1.0 + z)), z


def _near_pole(rng, eps):
    """Directions at angular distance eps from the north or south pole."""
    side = np.where(rng.random(eps.size) < 0.5, 1.0, -1.0)
    return np.sin(eps), side * np.cos(eps)


def _near_equator(rng, delta):
    side = np.where(rng.random(delta.size) < 0.5, 1.0, -1.0)
    return np.cos(delta), side * np.sin(delta)


def _with_exact_zeros(rng, values):
    """Put exactly zero into one in eight draws (on the axis, on the plane)."""
    values = values.copy()
    values[rng.permutation(values.size)[:values.size // 8]] = 0.0
    return values


def _directions(rng, band, n):
    """(rho, z) of unit directions, each accurate to the last place."""
    if band in ("uniform", "magnitude"):
        return _uniform_sphere(rng, n)
    if band == "pole":
        return _near_pole(rng, 10.0 ** stratified(rng, n, -8.0, -4.0))
    if band == "axis":
        return _near_pole(rng, _with_exact_zeros(rng, 10.0 ** stratified(rng, n, -16.0, -8.0)))
    if band == "equator":
        return _near_equator(rng, _with_exact_zeros(rng, 10.0 ** stratified(rng, n, -16.0, -4.0)))
    # singular: the weight of the chart that is singular at the nearer pole
    # straddles the 1e-12 guard of canonical_phase_plus/minus.
    weight = 10.0 ** stratified(rng, n, -14.0, -10.0)
    return _near_pole(rng, 2.0 * np.arcsin(np.sqrt(weight)))


def haar_rotations(rng, n):
    v = rng.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def points_inputs(seed, n):
    """One op per point: system, sheet, library arguments, the point itself."""
    rng = np.random.default_rng([seed, 1])
    band = np.concatenate([np.full(k, BANDS.index(b))
                           for b, k in _counts(n, POINT_SHARES).items()])
    rho = np.empty(n)
    z = np.empty(n)
    for b in POINT_SHARES:
        mask = band == BANDS.index(b)
        rho[mask], z[mask] = _directions(rng, b, int(mask.sum()))
    radius = rng.uniform(0.1, 3.0, n)
    magnitude = band == BANDS.index("magnitude")
    radius[magnitude] = 2.0 ** stratified(rng, int(magnitude.sum()), -1000.0, 1000.0)
    phi = rng.uniform(-math.pi, math.pi, n)
    sheet = np.where(rng.random(n) < 0.5, 1, -1)
    system = np.arange(n) % 3
    order = rng.permutation(n)
    band, rho, z, radius, phi, sheet = (a[order] for a in (band, rho, z, radius, phi, sheet))

    theta = np.arctan2(rho, z)
    lifted = np.where(sheet == -1, phi + 2.0 * math.pi, phi)
    values = np.empty((n, 3))
    point = np.empty((n, 3))
    cart = system == 0
    values[cart] = (radius * np.stack([rho * np.cos(phi), rho * np.sin(phi), z]))[:, cart].T
    point[cart] = values[cart]
    sph = system == 1
    values[sph] = np.stack([radius, theta, lifted], axis=1)[sph]
    st = np.sin(theta)
    point[sph] = (radius * np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)]))[:, sph].T
    par = system == 2
    root = np.sqrt(2.0 * radius)
    big_n, big_m = root * np.cos(0.5 * theta), root * np.sin(0.5 * theta)
    values[par] = np.stack([big_n, big_m, lifted], axis=1)[par]
    point[par] = np.stack([big_n * big_m * np.cos(phi), big_n * big_m * np.sin(phi),
                           0.5 * (big_n - big_m) * (big_n + big_m)], axis=1)[par]

    biggest = np.max(np.abs(point), axis=1)
    defect = cart & ((biggest < CARTESIAN_SAFE[0]) | (biggest > CARTESIAN_SAFE[1]))
    return {"band": band, "system": system, "sheet": sheet, "values": values,
            "point": point, "rotation": haar_rotations(rng, n), "defect": defect}


def _pole_distance(v):
    return np.arctan2(np.hypot(v[:, 0], v[:, 1]), np.abs(v[:, 2]))


def _chart_weights(v):
    """Weights |psi_1|^2 and |psi_2|^2 of the unit spinor over direction v."""
    theta = np.arctan2(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    return np.cos(0.5 * theta) ** 2, np.sin(0.5 * theta) ** 2


def frames_inputs(seed, n):
    """One op per direction: a unit spinor chain and a KS quadruple chain."""
    rng = np.random.default_rng([seed, 2])
    band = np.concatenate([np.full(k, BANDS.index(b))
                           for b, k in _counts(n, FRAME_SHARES).items()])
    rho = np.empty(n)
    z = np.empty(n)
    for b in FRAME_SHARES:
        mask = band == BANDS.index(b)
        rho[mask], z[mask] = _directions(rng, b, int(mask.sum()))
    phi = rng.uniform(-math.pi, math.pi, n)
    direction = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    theta = np.arctan2(np.hypot(direction[:, 0], direction[:, 1]), direction[:, 2])
    azimuth = np.arctan2(direction[:, 1], direction[:, 0])

    # Frame axes stay on the aligning chart (a3 >= -0.99) except in the
    # singular band, where they sit at the chart's singular weight.
    az = rng.uniform(-0.99, 1.0, n)
    axis_rho = np.sqrt((1.0 - az) * (1.0 + az))
    singular = band == BANDS.index("singular")
    eps = 2.0 * np.arcsin(np.sqrt(10.0 ** stratified(rng, int(singular.sum()), -14.0, -10.0)))
    axis_rho[singular], az[singular] = np.sin(eps), -np.cos(eps)
    axis_phi = rng.uniform(-math.pi, math.pi, n)
    axis = np.stack([axis_rho * np.cos(axis_phi), axis_rho * np.sin(axis_phi), az], axis=1)

    alpha = rng.uniform(-math.pi, math.pi, n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    spinor = unit_spinors(theta, azimuth) * np.exp(1.0j * alpha)[:, None]
    quadruple = scale[:, None] * storage(spinor)
    beta = rng.uniform(-math.pi, math.pi, n)
    unit = quadruple / np.linalg.norm(quadruple, axis=1, keepdims=True)
    turn = np.stack([np.cos(beta), np.zeros(n), np.zeros(n), np.sin(beta)], axis=1)
    partner = hat(parameters_of(b_matrices(hat(unit)) @ b_matrices(turn)))
    partner *= (10.0 ** rng.uniform(-3.0, 3.0, n))[:, None]

    other = rng.normal(size=(n, 4))
    other /= np.linalg.norm(other, axis=1, keepdims=True)
    plus_weight, minus_weight = _chart_weights(direction)
    defect = ((_pole_distance(direction) < POLE_DEFECT_RADIUS)
              | (_pole_distance(axis) < POLE_DEFECT_RADIUS))
    return {
        "band": band, "direction": direction, "theta": theta, "azimuth": azimuth,
        "gamma": rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n),
        "phase": rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n),
        "other": np.stack([other[:, 0] + 1.0j * other[:, 1],
                           other[:, 2] + 1.0j * other[:, 3]], axis=1),
        "sign": np.where(rng.random(n) < 0.5, 1, -1),
        "quadruple": quadruple, "partner": partner, "axis": axis,
        "axis_weight": _chart_weights(axis)[0],
        "plus_weight": plus_weight, "minus_weight": minus_weight,
        "delta": rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n),
        "rotation": haar_rotations(rng, n), "defect": defect,
    }
