"""Time the scalar calls of the points, frames and fixtures ops on two source trees.

Copies each tree's spinorspace package into a temporary directory under its
own name (spinorspace_parent, spinorspace_change), imports both into this
process, and times a fixed list of scalar API calls: in-range and
out-of-range constructors, a Cartesian constructor on sheet -1, the five
validated value types (Spinor, KSQuadruple, SpinorRotation, SphericalPoint,
ParabolicPoint) and core.spinor_of, both projections, rotate_spinor,
so3_from_rotation, so3_from_vector_parameter, rotation_from_vector_parameter,
rotation_from_axis_angle, psi_from_direction on both of its lifts, the
gauges, rotation_between, stabilizer_check, direction_from_ks, build_frame,
frame_symmetry, left_transport, rotated_direction and fixture_record on a
spherical and a Cartesian point, each on sheet -1. Each
round times every call NUMBER times on both sides back to back, with garbage
collection off, and the side that goes first alternates from round to round.
For each call it prints the median us per call on each side, the change in
per cent as the median of the rounds' change/parent ratios (so drift from
round to round cancels), and the rounds the change won. It needs only the
standard library and the package (and numpy, which the package imports).
Both sides share one process and one host, so drift between separate runs
does not enter the comparison.

usage: python tools/scalar_ab.py PARENT_SRC [CHANGE_SRC]
       (default CHANGE_SRC: the src/ beside tools/)
"""

from __future__ import annotations

import importlib
import math
import shutil
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

ROUNDS = 25
NUMBER = 1000


def calls(ss) -> list:
    """(name, zero-argument callable) pairs of scalar calls on the package ss."""
    point = (0.3, -1.2, 0.7)
    xi, eta = ss.xi_from_cartesian(point), ss.eta_from_cartesian(point)
    spherical, parabolic = ss.SphericalPoint(1.3, 0.8, 2.0), ss.ParabolicPoint(0.7, 1.1, -1.0)
    q = ss.quadruple_from_spinor(xi)
    partner = ss.quadruple_from_spinor(ss.phase_rotate(xi, 0.9))
    rot = ss.SpinorRotation(0.5, 0.5, 0.5, 0.5)
    direction = (0.6, 0.0, 0.8)
    psi, other = ss.psi_from_direction(direction, 0.5), ss.psi_from_direction((0.0, 0.6, -0.8))
    return [
        ("xi_from_cartesian", lambda: ss.xi_from_cartesian(point)),
        ("xi_from_cartesian sheet -1", lambda: ss.xi_from_cartesian(point, -1)),
        ("xi_from_cartesian out of range", lambda: ss.xi_from_cartesian((1e-310, 0.0, 1e-315))),
        ("eta_from_cartesian", lambda: ss.eta_from_cartesian(point, -1)),
        ("eta_from_cartesian out of range", lambda: ss.eta_from_cartesian((1e300, 1e300, -1e300))),
        ("Spinor", lambda: ss.Spinor(0.3 - 1.2j, 0.7 + 0.4j)),
        ("spinor_of", lambda: ss.core.spinor_of((0.3, -1.2, 0.7, 0.4))),
        ("KSQuadruple", lambda: ss.KSQuadruple(0.4, 0.3, -1.2, 0.7)),
        ("SphericalPoint", lambda: ss.SphericalPoint(1.3, 0.8, -2.0)),
        ("ParabolicPoint", lambda: ss.ParabolicPoint(0.7, 1.1, -1.0)),
        ("xi_from_spherical", lambda: ss.xi_from_spherical(spherical)),
        ("eta_from_spherical", lambda: ss.eta_from_spherical(spherical)),
        ("xi_from_parabolic", lambda: ss.xi_from_parabolic(parabolic)),
        ("eta_from_parabolic", lambda: ss.eta_from_parabolic(parabolic)),
        ("project_xi", lambda: ss.project_xi(xi)),
        ("project_eta", lambda: ss.project_eta(eta)),
        ("eta_from_xi", lambda: ss.eta_from_xi(xi)),
        ("u_to_v", lambda: ss.u_to_v(q)),
        ("rotate_spinor", lambda: ss.rotate_spinor(rot, xi)),
        ("so3_from_rotation", lambda: ss.so3_from_rotation(rot)),
        ("so3_from_vector_parameter", lambda: ss.so3_from_vector_parameter(point)),
        ("rotation_from_vector_parameter", lambda: ss.rotation_from_vector_parameter(point)),
        ("rotation_from_axis_angle", lambda: ss.rotation_from_axis_angle(direction, 0.7)),
        ("SpinorRotation", lambda: ss.SpinorRotation(0.5, 0.5, 0.5, 0.5)),
        ("psi_from_direction", lambda: ss.psi_from_direction(direction, 0.5)),
        ("psi_from_direction partner lift",
         lambda: ss.psi_from_direction(direction, 0.5 + 2.0 * math.pi)),
        ("gauge_plus", lambda: ss.gauge_plus(psi, 0.3)),
        ("gauge_minus", lambda: ss.gauge_minus(psi, 0.3)),
        ("canonical_phase_plus", lambda: ss.canonical_phase_plus(psi)),
        ("canonical_phase_minus", lambda: ss.canonical_phase_minus(psi)),
        ("rotation_between", lambda: ss.rotation_between(psi, other)),
        ("stabilizer_check", lambda: ss.stabilizer_check(psi, -1)),
        ("direction_from_ks", lambda: ss.direction_from_ks(q)),
        ("build_frame", lambda: ss.build_frame(q, (0.0, 0.6, 0.8), 0.4)),
        ("frame_symmetry", lambda: ss.frame_symmetry(q, partner, 0.4)),
        ("left_transport", lambda: ss.left_transport(rot, q)),
        ("rotated_direction", lambda: ss.rotated_direction(q, rot, direction)),
        ("fixture_record", lambda: ss.fixture_record("spherical", (1.3, 0.8, 2.0), "eta", -1)),
        ("fixture_record cartesian -1", lambda: ss.fixture_record("cartesian", point, "xi", -1)),
    ]


def load(src: Path, name: str, into: Path):
    """The package under src/spinorspace, copied into `into` and imported as `name`."""
    shutil.copytree(src / "spinorspace", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print("usage: python tools/scalar_ab.py PARENT_SRC [CHANGE_SRC]", file=sys.stderr)
        return 2
    change_src = Path(args[1]) if len(args) == 2 else Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [calls(load(Path(args[0]).resolve(), "spinorspace_parent", Path(tmp))),
                 calls(load(change_src.resolve(), "spinorspace_change", Path(tmp)))]
        report(sides)
    return 0


def report(sides: list) -> None:
    """Time each call of both sides, ROUNDS rounds, and print the table."""
    times = [[[] for _ in sides[0]] for _ in sides]
    for round_ in range(ROUNDS):
        for i in range(len(sides[0])):
            for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
                per_call = timeit.Timer(sides[side][i][1]).timeit(NUMBER) / NUMBER
                times[side][i].append(per_call * 1e6)
    print(f"{'call':32s} {'parent us':>10s} {'change us':>10s} {'change':>8s} {'won':>6s}")
    for i, (name, _) in enumerate(sides[0]):
        parent, change = (statistics.median(t[i]) for t in times)
        ratio = statistics.median(c / p for p, c in zip(times[0][i], times[1][i]))
        won = sum(c < p for p, c in zip(times[0][i], times[1][i]))
        print(f"{name:32s} {parent:10.2f} {change:10.2f} {100.0 * (ratio - 1.0):+7.1f}% "
              f"{won:3d}/{ROUNDS}")


if __name__ == "__main__":
    sys.exit(main())
