"""Command-line interface: convert, rotate, gauge, verify, fixtures.

Exit codes: 0 success or pass, 1 verification failure or singular gauge,
2 usage or range errors, an unreadable or unwritable file among them.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from .core import (
    SpinorRotation,
    finite_tolerance,
    finite_vector,
    pow2_scaled,
    quadruple_from_spinor,
    scaled_residual,
)
from .fixtures import (
    MODELS,
    SYSTEMS,
    bilinears,
    construct,
    dumps_record,
    fixture_record,
    generate_fixtures,
    load_fixtures,
    write_fixtures,
)
from .gauge_fixing import (
    SingularGaugeError,
    canonical_phase_minus,
    canonical_phase_plus,
    gauge_minus,
    gauge_plus,
    psi_from_direction,
)
from .rotation_algebra import rotate_spinor, so3_from_rotation
from .verify import SUITE_NAMES, replay_fixtures, run_all, run_suite


# convert and rotate take three point values; the direction system and its
# psi model take four.
_POINT_SYSTEMS = tuple(s for s in SYSTEMS if s != "direction")
_POINT_MODELS = tuple(m for m in MODELS if m != "psi")


def _fmt(values) -> str:
    return "(" + ", ".join(repr(float(v)) for v in values) + ")"


def _add_point_arguments(command: argparse.ArgumentParser) -> None:
    """The point that convert and rotate both take: system, values, model, sheet, tolerance."""
    command.add_argument("system", choices=_POINT_SYSTEMS)
    command.add_argument("values", nargs=3, type=float, metavar="V")
    command.add_argument("--model", choices=_POINT_MODELS, default="xi")
    command.add_argument("--sheet", type=int, choices=[1, -1], default=1)
    command.add_argument("--tolerance", type=float, default=1e-12)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorspace",
        description="Spatial spinors on the 4pi double cover: constructors, "
                    "rotations, gauges, verification suites and golden fixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert", help="build a spinor record from coordinates and print it")
    _add_point_arguments(convert)
    convert.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser(
        "verify", help="run identity suites or replay a fixture file")
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tolerance", type=float, default=None)
    verify.add_argument("--fixtures", metavar="PATH", default=None,
                        help="replay this fixture file instead of running suites")

    gauge = sub.add_parser(
        "gauge", help="canonical gauge data for a direction")
    gauge.add_argument("values", nargs=3, type=float, metavar="N")
    gauge.add_argument("--sign", choices=["plus", "minus"], default="plus")
    gauge.add_argument("--gamma", type=float, default=0.0)

    fixtures = sub.add_parser(
        "fixtures", help="write a seeded golden fixture file")
    fixtures.add_argument("--count", type=int, default=100)
    fixtures.add_argument("--seed", type=int, default=1)
    fixtures.add_argument("--out", required=True, metavar="PATH")
    fixtures.add_argument("--tolerance", type=float, default=1e-12)

    rotate = sub.add_parser(
        "rotate", help="apply a rotation along both the spinor and vector paths")
    rotate.add_argument("rotation", nargs=4, type=float, metavar="C")
    _add_point_arguments(rotate)
    # argparse reads -1 and -1.5 as values, -1e-3 as an option; no option here looks like a number.
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.IGNORECASE)
    return parser


def _cmd_convert(args) -> int:
    record = fixture_record(args.system, args.values, args.model, args.sheet,
                            args.seed, args.tolerance)
    print(dumps_record(record))
    return 0


def _cmd_verify(args) -> int:
    if args.fixtures is not None:
        reports = [replay_fixtures(load_fixtures(args.fixtures), args.tolerance)]
    else:
        tolerance = 1e-12 if args.tolerance is None else args.tolerance
        if args.suite == "all":
            reports = run_all(args.samples, args.seed, tolerance)
        else:
            reports = [run_suite(args.suite, args.samples, args.seed, tolerance)]
    for report in reports:
        for line in report.lines():
            print(line)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_gauge(args) -> int:
    # Scaling by a power of two is exact, so the normalized n is the same at
    # every magnitude of the input.
    n = np.array(pow2_scaled(finite_vector(args.values, "direction")))
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    n /= norm
    psi = psi_from_direction(n, args.gamma)
    if args.sign == "plus":
        data = canonical_phase_plus(psi)
        aligner = gauge_plus(psi, 0.0)
    else:
        data = canonical_phase_minus(psi)
        aligner = gauge_minus(psi, 0.0)
    print(f"direction n = {_fmt(n)}")
    print(f"psi = ({psi.c1!r}, {psi.c2!r})")
    print(f"gamma = {data.gamma!r}")
    print(f"aligner a = {_fmt(aligner.as_tuple())}")
    print(f"rotation c = {_fmt(data.rotation.as_tuple())}")
    print(f"vector parameter C = {_fmt(data.vector_parameter)}")
    return 0


def _cmd_fixtures(args) -> int:
    written = write_fixtures(generate_fixtures(args.count, args.seed, args.tolerance), args.out)
    print(f"wrote {written} records to {args.out}")
    return 0


def _cmd_rotate(args) -> int:
    finite_tolerance(args.tolerance)
    rot = SpinorRotation(*args.rotation)
    spinor = construct(args.system, args.values, args.model, args.sheet)
    moved = rotate_spinor(rot, spinor)
    o = so3_from_rotation(rot)
    spinor_path = np.concatenate(bilinears(moved, args.model))
    vector_path = np.concatenate([o @ v for v in bilinears(spinor, args.model)])
    residual = scaled_residual(spinor_path, vector_path)
    print(f"rotation c = {_fmt(rot.as_tuple())}")
    print(f"rotated spinor = ({moved.c1!r}, {moved.c2!r})")
    print(f"rotated quadruple = {_fmt(quadruple_from_spinor(moved).as_tuple())}")
    print(f"spinor path   x' = {_fmt(spinor_path)}")
    print(f"vector path O x  = {_fmt(vector_path)}")
    verdict = "pass" if residual <= args.tolerance else "FAIL"
    print(f"residual {residual:.3e} (tolerance {args.tolerance:.1e}): {verdict}")
    return 0 if residual <= args.tolerance else 1


_COMMANDS = {"convert": _cmd_convert, "verify": _cmd_verify, "gauge": _cmd_gauge,
             "fixtures": _cmd_fixtures, "rotate": _cmd_rotate}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SingularGaugeError as exc:
        print(f"singular gauge: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # from convert or rotate, the commands that project a point
        print(f"error: {args.system} point {_fmt(args.values)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
