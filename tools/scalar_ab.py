"""Time the scalar calls of the points, frames and fixtures ops on two source trees.

`calls` lists them, in range and at the edges the ops reach: the Cartesian
constructors on both sheets and out of range, and xi_from_cartesian where rho^2
underflows and r^2 does not; the spherical and parabolic constructors; the five
value types, KSQuadruple and SpinorRotation again on np.float64 parts, and
core.spinor_of; both projections in range and where a square overflows;
eta_quadruple_projection, xi_constraint_residual, eta_from_xi in range and
where its sums overflow, and u_to_v; the rotations and their SO(3) matrices;
psi_from_direction on both lifts, the gauges and rotation_between;
stabilizer_check in range, where |psi|^2 underflows and where its solve's |q|^2
rounds to inf; core.scaled_residual on two tuples; the frames and transports;
fixture_record on both sheets; dumps_record and replay_residual on one eta
record, replay_residuals on the 35-record batch of the fixtures op, and
dumps_record on a loaded record whose a3 is the int 0 that load reads back for
0.0. A parent tree that raises where the change returns is timed raising. A
round's unit of work on a side times each call NUMBER times (a batch NUMBER //
its records times), in us per call (per record); tools/ab.py does the rest.

usage: python tools/scalar_ab.py PARENT_SRC [CHANGE_SRC]
       (default CHANGE_SRC: the src/ beside tools/)
"""

import math
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

import ab

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
    n4, n1, n2, n3, half = map(np.float64, (0.4, 0.3, -1.2, 0.7, 0.5))
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
    """function(argument), or the ValueError or ArithmeticError a parent tree raises."""
    try:
        return function(argument)
    except (ValueError, ArithmeticError) as error:
        return error


def unit(package):
    """One round's unit of work on package: {call: us per call (per record, on a batch)}."""
    timed = [(name, timeit.Timer(call), BATCHES.get(name, 1)) for name, call in calls(package)]
    return lambda: {name: timer.timeit(NUMBER // records) / (NUMBER // records * records) * 1e6
                    for name, timer, records in timed}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print("usage: python tools/scalar_ab.py PARENT_SRC [CHANGE_SRC]", file=sys.stderr)
        return 2
    change_src = args[1] if len(args) == 2 else Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as tmp:
        costs = ab.measure([unit(p) for p in ab.sides([args[0], change_src], Path(tmp))], ab.ROUNDS)
    ab.table("call, us", costs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
