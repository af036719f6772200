"""Print sha256 digests of the outputs that a refactor must keep bit for bit.

  run_all    the 116 check results of run_all at 10^3 and 10^4 samples with
             seeds 42 and 7: suite, check, sample count and max_residual as
             float.hex, one line per check
  fixtures   the file that write_fixtures makes of generate_fixtures(700, seed=3)
  help       the --help text of the CLI and of each of its subcommands
  edges      every public spinor_maps function and psi_from_direction on a fixed
             corpus at the edges of the double range (edge_inputs), one line a
             call: the function, its inputs as float.hex, and each output as
             float.hex or the name of the exception it raised

Run it on two source trees and compare the lines; it needs only the standard
library and the package (and numpy, which the package imports). With --parent,
it also loads the parent tree's package as tools/scalar_ab.py does, lists each
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


def edge_inputs() -> dict:
    """The corpus: {kind: [input tuple, ...]} for points, spinors (real parts, also read
    as quadruples), spherical and parabolic points, and unit directions with a phase."""
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
    return {"point": points, "spinor": spinors, "spherical": spherical,
            "parabolic": parabolic, "direction": directions}


def _flat(out) -> tuple:
    """The floats of a public function's result."""
    if isinstance(out, float):
        return (out,)
    if isinstance(out, tuple):  # project_xi's (r, x)
        return (out[0], *out[1].tolist())
    if hasattr(out, "c1"):
        return (out.c1.real, out.c1.imag, out.c2.real, out.c2.imag)
    if hasattr(out, "a"):
        return (*out.a.tolist(), *out.x.tolist())
    return out.as_tuple()


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
        from scalar_ab import load

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
