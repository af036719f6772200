"""Time the scalar calls of the points, frames and fixtures ops on two source trees.

Copies each tree's spinorspace package into a temporary directory under its
own name (spinorspace_parent, spinorspace_change), imports both into this
process, and times a fixed list of scalar API calls: in-range and out-of-range
constructors, a Cartesian constructor on sheet -1, xi_from_cartesian at
(1e-200, 0, 1), whose rho^2 underflows where r^2 does not (its rescaled
quotient), the five validated value types (Spinor, KSQuadruple,
SpinorRotation, SphericalPoint, ParabolicPoint), KSQuadruple and
SpinorRotation again on np.float64 parts, which the class call reads through
core.number, and core.spinor_of, both projections in range and on a spinor whose square
overflows (their rerun of the entries that overflowed), eta_quadruple_projection,
xi_constraint_residual, eta_from_xi in range and on a spinor whose sums
overflow (its halved rerun; a parent tree that raises there is timed
raising), u_to_v, rotate_spinor, so3_from_rotation, extract_so3 on one
unitary (su2_matrix of a rotation),
so3_from_vector_parameter, rotation_from_vector_parameter,
rotation_from_axis_angle, psi_from_direction on both of its lifts, the gauges,
rotation_between, stabilizer_check in range, on a spinor whose |psi|^2
underflows (its pow2_scaled branch) and on one whose solve's |q|^2 rounds to
inf at the top of the range (a parent tree that raises there is timed
raising), core.scaled_residual on two tuples of four floats (through numpy,
as it scores any tuple; stabilizer_check scores its solve with
core.float_residual), direction_from_ks, build_frame,
frame_symmetry, left_transport, rotated_direction, fixture_record on a
spherical and a Cartesian point, each on sheet -1, fixtures.dumps_record and
replay_residual on one generated eta record, fixtures.replay_residuals on the
35 records of generate_fixtures(35, 1), the batch the fixtures op replays, and
fixtures.dumps_record on a loaded parabolic eta record whose a3 is set to the
int 0, the value load reads back for a float 0.0, so the writer converts it in
its float slot. Each round times every call NUMBER times on both sides back to
back (a call on a batch NUMBER // its records times), with garbage collection
off, and the side that goes first alternates from round to round. For each
call it prints the median us per call (per record, on a batch) on each side,
the change in per cent as the median of the rounds' change/parent ratios (so
drift from round to round cancels), and the rounds the change won. It needs only the standard
library and the package (and numpy, which the package imports). Both sides
share one process and one host, so drift between separate runs does not enter
the comparison.

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

import numpy as np

ROUNDS = 25
NUMBER = 1000
# Records per call of the rows that score a batch. The single-record replay_residual row
# pays the batch's fixed numpy cost once per record, so it overstates per-record changes.
BATCHES = {"replay_residuals": 35}


def calls(ss) -> list:
    """(name, zero-argument callable) pairs of scalar calls on the package ss."""
    point = (0.3, -1.2, 0.7)
    xi, eta = ss.xi_from_cartesian(point), ss.eta_from_cartesian(point)
    spherical, parabolic = ss.SphericalPoint(1.3, 0.8, 2.0), ss.ParabolicPoint(0.7, 1.1, -1.0)
    q = ss.quadruple_from_spinor(xi)
    partner = ss.quadruple_from_spinor(ss.phase_rotate(xi, 0.9))
    rot = ss.SpinorRotation(0.5, 0.5, 0.5, 0.5)
    n4, n1, n2, n3 = map(np.float64, (0.4, 0.3, -1.2, 0.7))
    half = np.float64(0.5)
    unitary = ss.su2_matrix(ss.rotation_from_axis_angle(point, 0.9))
    direction = (0.6, 0.0, 0.8)
    psi, other = ss.psi_from_direction(direction, 0.5), ss.psi_from_direction((0.0, 0.6, -0.8))
    tiny = ss.Spinor(3e-170 - 4e-170j, 1e-170 + 2e-170j)  # |psi|^2 underflows to 0
    # |psi|^2 is the largest double, and the solve's (q4^2 + q1^2) + (q2^2 + q3^2) is inf
    last = ss.Spinor(7.244872018900139e+153 + 7.075222611182035e+153j,
                     7.407922093219855e+153 + 4.727055973752906e+153j)
    top = ss.Spinor(1.5e154, 1e-200j)  # |c1|^2 overflows, x2 = 1.5e-46 does not
    huge = ss.Spinor(1.2e308, -1.2e308)  # c1 - c2 overflows, (c1 - c2) / sqrt(2) does not
    solved = (-1.0, 0.0, -2.1e-17, 5.5e-18)
    record = ss.generate_fixtures(2, seed=3)[1]  # a Cartesian eta record
    batch = ss.generate_fixtures(BATCHES["replay_residuals"], 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loaded.jsonl"
        ss.write_fixtures(ss.generate_fixtures(20, seed=3)[19:], path)  # a parabolic eta record
        (loaded,) = ss.load_fixtures(path)
    loaded["projection"]["a"][2] = 0  # the int that load reads back for a written 0
    return [
        ("xi_from_cartesian", lambda: ss.xi_from_cartesian(point)),
        ("xi_from_cartesian sheet -1", lambda: ss.xi_from_cartesian(point, -1)),
        ("xi_from_cartesian out of range", lambda: ss.xi_from_cartesian((1e-310, 0.0, 1e-315))),
        ("xi_from_cartesian rho underflow", lambda: ss.xi_from_cartesian((1e-200, 0.0, 1.0))),
        ("eta_from_cartesian", lambda: ss.eta_from_cartesian(point, -1)),
        ("eta_from_cartesian out of range", lambda: ss.eta_from_cartesian((1e300, 1e300, -1e300))),
        ("Spinor", lambda: ss.Spinor(0.3 - 1.2j, 0.7 + 0.4j)),
        ("spinor_of", lambda: ss.core.spinor_of((0.3, -1.2, 0.7, 0.4))),
        ("KSQuadruple", lambda: ss.KSQuadruple(0.4, 0.3, -1.2, 0.7)),
        ("KSQuadruple np.float64", lambda: ss.KSQuadruple(n4, n1, n2, n3)),
        ("SphericalPoint", lambda: ss.SphericalPoint(1.3, 0.8, -2.0)),
        ("ParabolicPoint", lambda: ss.ParabolicPoint(0.7, 1.1, -1.0)),
        ("xi_from_spherical", lambda: ss.xi_from_spherical(spherical)),
        ("eta_from_spherical", lambda: ss.eta_from_spherical(spherical)),
        ("xi_from_parabolic", lambda: ss.xi_from_parabolic(parabolic)),
        ("eta_from_parabolic", lambda: ss.eta_from_parabolic(parabolic)),
        ("project_xi", lambda: ss.project_xi(xi)),
        ("project_eta", lambda: ss.project_eta(eta)),
        ("project_xi top of range", lambda: ss.project_xi(top)),
        ("project_eta top of range", lambda: ss.project_eta(top)),
        ("eta_quadruple_projection", lambda: ss.eta_quadruple_projection(q)),
        ("xi_constraint_residual", lambda: ss.xi_constraint_residual(q)),
        ("eta_from_xi", lambda: ss.eta_from_xi(xi)),
        ("eta_from_xi off range", lambda: _or_error(ss.eta_from_xi, huge)),
        ("u_to_v", lambda: ss.u_to_v(q)),
        ("rotate_spinor", lambda: ss.rotate_spinor(rot, xi)),
        ("so3_from_rotation", lambda: ss.so3_from_rotation(rot)),
        ("extract_so3", lambda: ss.extract_so3(unitary)),
        ("so3_from_vector_parameter", lambda: ss.so3_from_vector_parameter(point)),
        ("rotation_from_vector_parameter", lambda: ss.rotation_from_vector_parameter(point)),
        ("rotation_from_axis_angle", lambda: ss.rotation_from_axis_angle(direction, 0.7)),
        ("SpinorRotation", lambda: ss.SpinorRotation(0.5, 0.5, 0.5, 0.5)),
        ("SpinorRotation np.float64", lambda: ss.SpinorRotation(half, half, half, half)),
        ("psi_from_direction", lambda: ss.psi_from_direction(direction, 0.5)),
        ("psi_from_direction partner lift",
         lambda: ss.psi_from_direction(direction, 0.5 + 2.0 * math.pi)),
        ("gauge_plus", lambda: ss.gauge_plus(psi, 0.3)),
        ("gauge_minus", lambda: ss.gauge_minus(psi, 0.3)),
        ("canonical_phase_plus", lambda: ss.canonical_phase_plus(psi)),
        ("canonical_phase_minus", lambda: ss.canonical_phase_minus(psi)),
        ("rotation_between", lambda: ss.rotation_between(psi, other)),
        ("stabilizer_check", lambda: ss.stabilizer_check(psi, -1)),
        ("stabilizer_check off range", lambda: ss.stabilizer_check(tiny, -1)),
        ("stabilizer_check top of range", lambda: _or_error(ss.stabilizer_check, last)),
        ("scaled_residual tuples", lambda: ss.scaled_residual(solved, (-1.0, 0.0, 0.0, 0.0))),
        ("direction_from_ks", lambda: ss.direction_from_ks(q)),
        ("build_frame", lambda: ss.build_frame(q, (0.0, 0.6, 0.8), 0.4)),
        ("frame_symmetry", lambda: ss.frame_symmetry(q, partner, 0.4)),
        ("left_transport", lambda: ss.left_transport(rot, q)),
        ("rotated_direction", lambda: ss.rotated_direction(q, rot, direction)),
        ("fixture_record", lambda: ss.fixture_record("spherical", (1.3, 0.8, 2.0), "eta", -1)),
        ("fixture_record cartesian -1", lambda: ss.fixture_record("cartesian", point, "xi", -1)),
        ("dumps_record", lambda: ss.fixtures.dumps_record(record)),
        ("dumps_record loaded", lambda: ss.fixtures.dumps_record(loaded)),
        ("replay_residual", lambda: ss.replay_residual(record)),
        ("replay_residuals", lambda: ss.fixtures.replay_residuals(batch)),
    ]


def _or_error(function, argument):
    """function(argument), or the ValueError or ArithmeticError it raises: a parent tree
    may raise where the change returns."""
    try:
        return function(argument)
    except (ValueError, ArithmeticError) as error:
        return error


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
        for i, (name, _) in enumerate(sides[0]):
            records = BATCHES.get(name, 1)
            for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
                number = NUMBER // records
                per_call = timeit.Timer(sides[side][i][1]).timeit(number) / number
                times[side][i].append(per_call / records * 1e6)
    print(f"{'call':32s} {'parent us':>10s} {'change us':>10s} {'change':>8s} {'won':>6s}")
    for i, (name, _) in enumerate(sides[0]):
        parent, change = (statistics.median(t[i]) for t in times)
        ratio = statistics.median(c / p for p, c in zip(times[0][i], times[1][i]))
        won = sum(c < p for p, c in zip(times[0][i], times[1][i]))
        print(f"{name:32s} {parent:10.2f} {change:10.2f} {100.0 * (ratio - 1.0):+7.1f}% "
              f"{won:3d}/{ROUNDS}")


if __name__ == "__main__":
    sys.exit(main())
