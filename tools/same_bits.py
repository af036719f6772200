"""Print sha256 digests of the outputs that a refactor must keep bit for bit.

  run_all    the 116 check results of run_all at 10^3 and 10^4 samples with
             seeds 42 and 7: suite, check, sample count and max_residual as
             float.hex, one line per check
  fixtures   the file that write_fixtures makes of generate_fixtures(700, seed=3)
  help       the --help text of the CLI and of each of its subcommands
  edges      every public spinor_maps function, the rotations, the gauges and
             the frames on a fixed corpus at the edges of the double range
             (edge_inputs), one line a call: the function, its inputs as
             float.hex, and each output as float.hex or the name of the
             exception it raised

Run it on two source trees and compare the lines; it needs only the standard
library and the package (and numpy, which the package imports). With --parent,
it also loads the parent tree's package as tools/ab.py does, lists each
edges row whose output moved (the function, the inputs, the old and new outputs,
and "==" where the two compare equal, so only the sign of a zero moved, else
"value"), and counts the moved rows per function.

usage: python tools/same_bits.py [SRC_DIR] [--parent PARENT_SRC]
       (default SRC_DIR: the src/ beside tools/)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

DBL_MAX = sys.float_info.max
MIN_NORMAL = sys.float_info.min
TINY = math.ulp(0.0)  # the smallest subnormal
# +-0, the smallest and the largest subnormal, the smallest normal, 1.5, and two values
# at the top of the range: the sum of two -1.2e308 overflows, its quotient by sqrt(2) does not.
EDGE_VALUES = (0.0, -0.0, TINY, -(MIN_NORMAL - TINY), MIN_NORMAL, -1.5, -1.2e308, DBL_MAX)
# The band where one square overflows but the bilinears have doubles.
TOP_BAND = (1.34e154, 1.9e154)
EDGE_SAMPLES = 300
ANGLES = (0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, 3.0)
# Exponent ranges of two log-uniform draws: chart weights |psi_1|^2 either side of
# gauge_fixing.SINGULAR_WEIGHT (1e-12), and rotations' |c4| either side of
# rotation_algebra.VECTOR_PARAMETER_LIMIT (1e-9).
CHART_WEIGHTS = (-14.0, -10.0)
HALF_TURN_C4 = (-11.0, -7.0)


def run_all_text(spinorspace) -> str:
    lines = []
    for samples in (1000, 10000):
        for seed in (42, 7):
            for report in spinorspace.run_all(samples, seed):
                lines += [f"{report.suite} {c.name} {c.samples} {c.max_residual.hex()}\n"
                          for c in report.checks]
    return "".join(lines)


def fixtures_bytes(spinorspace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fixtures.jsonl"
        spinorspace.write_fixtures(spinorspace.generate_fixtures(700, seed=3), path)
        return path.read_bytes()


def help_text(cli) -> str:
    subcommands = next(a.choices for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    texts = []
    for argv in [["--help"]] + [[name, "--help"] for name in subcommands]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            cli.main(argv)
        texts.append(out.getvalue())
    return "".join(texts)


def _signed(rng, exponents) -> np.ndarray:
    return np.where(rng.random(exponents.shape) < 0.5, -1.0, 1.0) * 10.0 ** exponents


def edge_tuples(width: int) -> dict:
    """Inputs of `width` entries per family: grid, every tuple of EDGE_VALUES; log,
    magnitudes log-uniform over 1e-300..1e300; top, one entry in TOP_BAND and the
    others log-uniform over 1e-300..1e154; all with random signs."""
    rng = np.random.default_rng([9, width])
    log = _signed(rng, rng.uniform(-300.0, 300.0, (EDGE_SAMPLES, width)))
    top = _signed(rng, rng.uniform(-300.0, 154.0, (EDGE_SAMPLES, width)))
    top[np.arange(EDGE_SAMPLES), rng.integers(0, width, EDGE_SAMPLES)] = (
        np.where(rng.random(EDGE_SAMPLES) < 0.5, -1.0, 1.0) * rng.uniform(*TOP_BAND, EDGE_SAMPLES))
    return {"grid": list(itertools.product(EDGE_VALUES, repeat=width)),
            "log": log.tolist(), "top": top.tolist()}


def edge_directions() -> dict:
    """(theta, phi) per band, at 10^-16..10^-4 from: pole, the x3 axis; axis, the x1
    axis on either side (phi near 0 and near +-pi); equator, the x1 x2 plane."""
    rng = np.random.default_rng(9)
    eps = 10.0 ** rng.uniform(-16.0, -4.0, (3, EDGE_SAMPLES))
    side = rng.random((3, EDGE_SAMPLES)) < 0.5
    phi = rng.uniform(-math.pi, math.pi, EDGE_SAMPLES)
    half = 0.5 * math.pi
    near_x1 = np.where(side[1], math.pi - eps[1], eps[1]) * np.where(side[0], -1.0, 1.0)
    return {"pole": (np.where(side[0], eps[0], math.pi - eps[0]), phi),
            "axis": (half + np.where(side[2], eps[2], -eps[2]), near_x1),
            "equator": (np.where(side[2], half - eps[2], half + eps[2]), phi)}


def _unit(v) -> tuple:
    """v divided by its norm, taken on v divided by its largest magnitude; () for zero."""
    big = max(abs(x) for x in v)
    if big == 0.0:
        return ()
    v = [x / big for x in v]
    norm = math.sqrt(sum(x * x for x in v))
    return tuple(x / norm for x in v)


def chart_inputs(rng) -> tuple:
    """Unit spinors and unit directions at a chart weight log-uniform over CHART_WEIGHTS
    from either pole: the (+) weight |psi_1|^2 at the south pole, the (-) weight at the
    north; and unit rotations with |c4| log-uniform over HALF_TURN_C4."""
    w = 10.0 ** rng.uniform(*CHART_WEIGHTS, EDGE_SAMPLES)
    a, b, phi = rng.uniform(-math.pi, math.pi, (3, EDGE_SAMPLES))
    small, big = np.sqrt(w), np.sqrt(1.0 - w)
    south = np.stack([small * np.cos(a), small * np.sin(a), big * np.cos(b), big * np.sin(b)], 1)
    rho = 2.0 * small * big
    plane = np.stack([rho * np.cos(phi), rho * np.sin(phi)], 1)
    spinors = south.tolist() + south[:, [2, 3, 0, 1]].tolist()
    directions = (np.column_stack([plane, 2.0 * w - 1.0]).tolist()
                  + np.column_stack([plane, 1.0 - 2.0 * w]).tolist())
    c4 = _signed(rng, rng.uniform(*HALF_TURN_C4, EDGE_SAMPLES))
    axis = rng.normal(size=(EDGE_SAMPLES, 3))
    axis *= (np.sqrt(1.0 - c4 * c4) / np.sqrt(np.sum(axis * axis, axis=1)))[:, None]
    return spinors, directions, np.column_stack([c4, axis]).tolist()


def partner(v, beta: float, scale: float) -> tuple:
    """The quadruple of spinor entries v turned by beta about its frame's axis, times
    scale: hat(hat(q) D(beta)) for the quadruple q of v, as spinor entries, so it lies
    over the direction of v."""
    q4, q1, q2, q3 = v[3], v[0], v[1], v[2]
    c, s = math.cos(beta), math.sin(beta)
    # hat(q) = (q4, q1, -q2, -q3) times (c, 0, 0, s), then hat again.
    r4, r1, r2, r3 = q4 * c + q3 * s, q1 * c - q2 * s, -q2 * c - q1 * s, q4 * s - q3 * c
    return scale * r1, -scale * r2, -scale * r3, scale * r4


def edge_inputs() -> dict:
    """The corpus: {kind: [input tuple, ...]} for points, spinors (real parts, also read
    as quadruples), spherical and parabolic points, unit directions with a phase, unit
    spinors, rotations and the argument tuples of the gauges, rotations and frames,
    which concatenate those."""
    points, spinors = edge_tuples(3), edge_tuples(4)
    points, spinors = sum(points.values(), []), sum(spinors.values(), [])
    spherical = [(abs(r), t, p) for r in EDGE_VALUES + (1e308, 2.0 ** 1023)
                 for t in (0.0, 1e-16, 0.5 * math.pi, math.pi - 1e-16, math.pi) for p in ANGLES]
    parabolic = [(abs(n), abs(m), p) for n in EDGE_VALUES for m in EDGE_VALUES for p in ANGLES]
    directions = [(a, b, c, 0.0) for a in (0.0, -0.0) for b in (0.0, -0.0) for c in (1.0, -1.0)]
    directions += [(0.6, 0.0, 0.8 + 1e-5, 0.0), (DBL_MAX, 0.0, 0.0, 0.0)]  # off the unit sphere
    rng = np.random.default_rng(10)
    for theta, phi in edge_directions().values():
        st = np.sin(theta)
        unit = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)
        points += unit.tolist()
        gamma = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, len(theta))
        directions += np.column_stack([unit, gamma]).tolist()
        ch, sh = np.cos(0.5 * theta), np.sin(0.5 * theta)
        ca, sa = np.cos(0.5 * phi), np.sin(0.5 * phi)
        spinors += np.stack([ch * ca, -ch * sa, sh * ca, sh * sa], axis=1).tolist()
        r = 10.0 ** rng.uniform(-300.0, 300.0, len(theta))
        spherical += np.stack([r, theta, phi], axis=1).tolist()
        parabolic += np.stack([r * ch, r * sh, phi], axis=1).tolist()
    chart, chart_directions, half_turns = chart_inputs(rng)
    # The edge spinors and the bands normalized, and the chart-weight spinors.
    units = [u for u in dict.fromkeys(map(_unit, spinors)) if u] + chart
    rotations = units + half_turns
    axes = [v[:3] for v in directions] + chart_directions
    angles = list(ANGLES) + rng.uniform(-4.0 * math.pi, 4.0 * math.pi, len(spinors)).tolist()
    cycle = lambda values: itertools.cycle(map(tuple, values))
    pairs = lambda first, second: [tuple(a) + b for a, b in zip(first, cycle(second))]
    return {"point": points, "spinor": spinors, "spherical": spherical,
            "parabolic": parabolic, "direction": directions, "unit": units,
            "rotation": rotations, "angle": [(a,) for a in angles + list(EDGE_VALUES)],
            "unit pair": pairs(units, units[1:] + units[:1]),
            "unit phase": pairs(units, [(a,) for a in angles]),
            "rotation pair": pairs(rotations, rotations[1:] + rotations[:1]),
            "rotation spinor": pairs(rotations, spinors),
            "axis angle": pairs(points, [(a,) for a in angles]),
            "frame": pairs(spinors, [(a,) for a in angles]),
            "frame axis": [v + (a,) for v, a in zip(pairs(spinors, axes), itertools.cycle(angles))],
            "partner": [tuple(v) + partner(v, b, 10.0 ** k) + (a,) for v, b, k, a in zip(
                spinors, angles[::-1], itertools.cycle(range(-3, 4)), angles)],
            "turned": [v + tuple(n) for v, n in zip(pairs(spinors, rotations), cycle(points))]}


def _flat(out) -> tuple:
    """The floats of a public function's result."""
    if isinstance(out, float):
        return (out,)
    if isinstance(out, np.ndarray):  # a vector, or a matrix row by row
        return tuple(out.ravel().tolist())
    if isinstance(out, tuple):  # project_xi's (r, x)
        return (out[0], *out[1].tolist())
    if hasattr(out, "gamma"):  # CanonicalGauge
        return (out.gamma, *_flat(out.vector_parameter), *out.rotation.as_tuple())
    if hasattr(out, "align"):  # KSFrame
        return (*out.w.as_tuple(), *_flat(out.direction), *_flat(out.axis), out.delta,
                *out.align.as_tuple())
    if hasattr(out, "as_tuple"):  # KSQuadruple, SpinorRotation
        return out.as_tuple()
    if hasattr(out, "c1"):
        return (out.c1.real, out.c1.imag, out.c2.real, out.c2.imag)
    return (*out.a.tolist(), *out.x.tolist())


def edge_calls(ss) -> list:
    """(function name, input kind, call on one input tuple) for the package ss."""
    spinor = lambda v: ss.Spinor(complex(v[0], v[1]), complex(v[2], v[3]))
    quadruple = lambda v: ss.KSQuadruple(v[3], v[0], v[1], v[2])  # the spinor's own entries
    calls = [(f"{model}_from_cartesian {sheet:+d}", "point",
              lambda v, f=getattr(ss, f"{model}_from_cartesian"), sheet=sheet: f(v, sheet))
             for model in ("xi", "eta") for sheet in (1, -1)]
    for model in ("xi", "eta"):
        calls += [(f"{model}_from_spherical", "spherical",
                   lambda v, f=getattr(ss, f"{model}_from_spherical"): f(ss.SphericalPoint(*v))),
                  (f"{model}_from_parabolic", "parabolic",
                   lambda v, f=getattr(ss, f"{model}_from_parabolic"): f(ss.ParabolicPoint(*v)))]
    for name in ("project_xi", "project_eta", "eta_from_xi", "xi_from_eta"):
        calls.append((name, "spinor", lambda v, f=getattr(ss, name): f(spinor(v))))
    calls += [("phase_rotate", "spinor", lambda v: ss.phase_rotate(spinor(v), 0.75)),
              ("cartan_reflect -1", "spinor", lambda v: ss.cartan_reflect(spinor(v), -1))]
    for name in ("xi_constraint_residual", "eta_quadruple_projection", "u_to_v"):
        calls.append((name, "spinor", lambda v, f=getattr(ss, name): f(quadruple(v))))
    calls.append(("psi_from_direction", "direction",
                  lambda v: ss.psi_from_direction(v[:3], v[3])))
    rotation = lambda v: ss.SpinorRotation(*v)
    calls += [("rotate_spinor", "rotation spinor",
               lambda v: ss.rotate_spinor(rotation(v[:4]), spinor(v[4:]))),
              ("compose", "rotation pair", lambda v: ss.compose(rotation(v[:4]), rotation(v[4:]))),
              ("axis_phase", "angle", lambda v: ss.axis_phase(v[0])),
              ("rotation_from_axis_angle", "axis angle",
               lambda v: ss.rotation_from_axis_angle(v[:3], v[3]))]
    for name in ("so3_from_rotation", "conjugate", "vector_parameter"):
        calls.append((name, "rotation", lambda v, f=getattr(ss, name): f(rotation(v))))
    for name in ("rotation_from_vector_parameter", "so3_from_vector_parameter"):
        calls.append((name, "point", getattr(ss, name)))
    for name in ("gauge_plus", "gauge_minus"):
        calls.append((name, "unit phase", lambda v, f=getattr(ss, name): f(spinor(v[:4]), v[4])))
    for name in ("canonical_phase_plus", "canonical_phase_minus"):
        calls.append((name, "unit", lambda v, f=getattr(ss, name): f(spinor(v))))
    calls.append(("rotation_between", "unit pair",
                  lambda v: ss.rotation_between(spinor(v[:4]), spinor(v[4:]))))
    calls += [(f"stabilizer_check {sign:+d}", "spinor",
               lambda v, sign=sign: ss.stabilizer_check(spinor(v), sign)) for sign in (1, -1)]
    for name in ("normalize_ks", "direction_from_ks"):
        calls.append((name, "spinor", lambda v, f=getattr(ss, name): f(quadruple(v))))
    calls += [("left_transport", "rotation spinor",
               lambda v: ss.left_transport(rotation(v[:4]), quadruple(v[4:]))),
              ("build_frame", "frame", lambda v: ss.build_frame(quadruple(v[:4]), delta=v[4])),
              ("build_frame axis", "frame axis",
               lambda v: ss.build_frame(quadruple(v[:4]), v[4:7], v[7])),
              ("frame_symmetry", "partner",
               lambda v: ss.frame_symmetry(quadruple(v[:4]), quadruple(v[4:8]), v[8])),
              ("rotated_direction", "turned",
               lambda v: ss.rotated_direction(quadruple(v[:4]), rotation(v[4:8]), v[8:]))]
    return calls


def edge_rows(ss) -> list:
    """(function, inputs as float.hex, outputs as a tuple of floats or an exception name)."""
    rows = []
    corpus = edge_inputs()
    for name, kind, call in edge_calls(ss):
        for v in corpus[kind]:
            try:
                out = _flat(call(v))
            except (ArithmeticError, ValueError) as error:  # the row records which one
                out = type(error).__name__
            rows.append((name, " ".join(float(x).hex() for x in v), out))
    return rows


def _out_text(out) -> str:
    return out if isinstance(out, str) else " ".join(x.hex() for x in out)


def edges_text(rows: list) -> str:
    return "".join(f"{name} {inputs} -> {_out_text(out)}\n" for name, inputs, out in rows)


def moved_rows(parent_rows: list, rows: list) -> Counter:
    """Print each row whose output moved, and count them by (function, "==" or "value")."""
    counts = Counter()
    for (name, inputs, old), (_, _, new) in zip(parent_rows, rows):
        if _out_text(old) != _out_text(new):
            kind = "==" if old == new else "value"  # outputs equal, or an exception name
            counts[name, kind] += 1
            print(f"moved {name} {inputs}: {_out_text(old)} -> {_out_text(new)} [{kind}]")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digests of the outputs a refactor must keep.")
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--parent", type=Path, help="a parent tree's src/ to list moved edges rows")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    import spinorspace
    from spinorspace import cli

    rows = edge_rows(spinorspace)
    outputs = {"run_all": run_all_text(spinorspace).encode(),
               "fixtures": fixtures_bytes(spinorspace),
               "help": help_text(cli).encode(),
               "edges": edges_text(rows).encode()}
    print(f"package  {Path(spinorspace.__file__).parent}")
    for name, data in outputs.items():
        print(f"{name:8s} {hashlib.sha256(data).hexdigest()}")
    if args.parent is not None:
        from ab import load

        with tempfile.TemporaryDirectory() as tmp:
            sys.path.insert(0, tmp)
            parent = load(args.parent.resolve(), "spinorspace_parent", Path(tmp))
            counts = moved_rows(edge_rows(parent), rows)
        for name in dict.fromkeys(name for name, _ in counts):
            print(f"moved {name}: {counts[name, '==']} ==, {counts[name, 'value']} value")
        print(f"moved rows: {sum(counts.values())} of {len(rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
