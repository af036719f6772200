"""Golden fixture records: generation, serialization and replay.

A record freezes one constructor evaluation: the input coordinates, the
resulting spinor and quadruple, and the projection back to 3-space. Files
are UTF-8 newline-delimited JSON, one record per line, with every float
written at 17 significant digits so doubles, -0.0 among them, survive a round
trip and equal seeds produce byte-identical files.

dumps_record is the one writer, through each record shape's %-template. A part whose type
is not its slot's is converted by the slot's kind: an int or a numpy real by float(), a numpy
integer by int(), a tuple or an array as a list. A bool or a non-record raises TypeError.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain

import numpy as np

from .core import (Spinor, finite_tolerance, integer_value, quadruple_parts, residual_rows,
                   sign_flag, wrap_4pi)
from .gauge_fixing import psi_from_direction
from .spinor_maps import (
    ParabolicPoint,
    SphericalPoint,
    eta_from_cartesian,
    eta_from_parabolic,
    eta_from_spherical,
    project_eta,
    project_xi,
    xi_from_cartesian,
    xi_from_parabolic,
    xi_from_spherical,
)

FIXTURE_VERSION = "0.1.0"

SYSTEMS = ("cartesian", "spherical", "parabolic", "direction")
MODELS = ("xi", "eta", "psi")


def construct(system: str, values, model: str, sheet: int = 1) -> Spinor:
    """Build the spinor a record describes; validation mirrors the constructors."""
    return _constructed(system, values, model, sheet)[1]


def _constructed(system, values, model, sheet) -> tuple:
    """(the values as floats, the spinor): construct, keeping its one conversion."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; valid: {', '.join(SYSTEMS)}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; valid: {', '.join(MODELS)}")
    sheet = sign_flag(sheet, "sheet")
    try:
        if isinstance(values, bytes):  # bytes iterate as ints, not as a list of digits
            raise TypeError
        vals = _floats(values)
    except (TypeError, ValueError):
        raise ValueError(f"{system} values must be real numbers, got {values!r}") from None
    if system == "direction":
        if model != "psi":
            raise ValueError("the direction system carries the psi model only")
        if len(vals) != 4:
            raise ValueError("direction values are (n1, n2, n3, gamma)")
        return vals, psi_from_direction(vals[:3], vals[3])
    if model == "psi":
        raise ValueError("the psi model requires the direction system")
    if len(vals) != 3:
        raise ValueError(f"{system} values are three reals")
    if system == "cartesian":
        maker = xi_from_cartesian if model == "xi" else eta_from_cartesian
        return vals, maker(vals, sheet)
    if system == "spherical":
        point = SphericalPoint(*vals)
        spinor = xi_from_spherical(point) if model == "xi" else eta_from_spherical(point)
    else:
        point = ParabolicPoint(*vals)
        spinor = xi_from_parabolic(point) if model == "xi" else eta_from_parabolic(point)
    # Sheet -1, the phi + 2pi lift, is the same spinor negated.
    return vals, spinor if sheet == 1 else Spinor(-spinor.c1, -spinor.c2)


def bilinears(spinor: Spinor, model: str) -> tuple:
    """The projection vectors a record keeps: (x,), or (x, a) for the eta model."""
    if model == "eta":
        p = project_eta(spinor)
        return p.x, p.a
    return (project_xi(spinor)[1],)


def _computed(system, values, model, sheet) -> tuple:
    """The numbers a record stores: (values, the spinor's real parts, r, projection vectors)."""
    vals, spinor = _constructed(system, values, model, sheet)
    r = 0.5 * spinor.norm_sq
    if r == math.inf:
        # |psi|^2 overflows at the top of the double range; the projection
        # takes r on exactly rescaled parts.
        r = project_xi(spinor)[0]
    parts = (spinor.c1.real, spinor.c1.imag, spinor.c2.real, spinor.c2.imag)
    return vals, parts, r, bilinears(spinor, model)


def fixture_record(system: str, values, model: str = "xi", sheet: int = 1,
                   seed: int = 0, tolerance: float = 1e-12) -> dict:
    """One self-consistent record of a constructor evaluation."""
    vals, (c1r, c1i, c2r, c2i), r, vectors = _computed(system, values, model, sheet)
    projection = {"r": r}
    for key, vector in zip(("x", "a"), vectors):
        projection[key] = vector.tolist()
    return {"system": system, "values": vals, "sheet": int(sheet), "model": model,
            "spinor": [[c1r, c1i], [c2r, c2i]],
            "quadruple": list(quadruple_parts(c1r, c1i, c2r, c2i)), "projection": projection,
            "meta": {"seed": integer_value(seed, "seed", 0),
                     "tolerance": finite_tolerance(tolerance), "version": FIXTURE_VERSION}}


def replay_residual(record: dict) -> float:
    """Worst scaled disagreement between a record and its fresh recomputation;
    inf, as for a malformed record, where a stored field is NaN or infinite."""
    return float(replay_residuals([record], strict=True)[0][0])


def replay_residuals(records, strict: bool = False) -> tuple:
    """An array of each record's replay_residual from one pass over the whole batch, the
    largest |s - f| / max(1, |s|, |f|) of its stored fields s and their recomputation f
    (inf where NaN), and a list of their checked stored tolerances. A malformed record
    raises when strict, else scores inf with tolerance -inf."""
    starts, stored, fresh, tolerances = [], [], [], []
    for record in records:
        starts.append(len(stored))
        try:
            meta = record["meta"]
            _, parts, r, vectors = _computed(record["system"], record["values"],
                                             record["model"], record.get("sheet", 1))
            integer_value(meta["seed"], "seed", 0)  # the meta checks of fixture_record
            tolerance = finite_tolerance(meta["tolerance"])
            redone = [*parts, *quadruple_parts(*parts), r]
            for vector in vectors:
                redone += vector.tolist()
            projection = record["projection"]
            kept = _floats([*chain.from_iterable(record["spinor"]), *record["quadruple"],
                            projection["r"], *projection["x"], *projection.get("a", ())])
            if len(kept) != len(redone):
                raise ValueError("record field shapes do not match the recomputation")
        except (KeyError, ValueError, TypeError, OverflowError):
            if strict:
                raise
            kept, redone, tolerance = [math.nan], [0.0], -math.inf
        stored += kept
        fresh += redone
        tolerances.append(tolerance)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf, from an infinite field
        return np.maximum.reduceat(residual_rows(stored, fresh), starts), tolerances


def generate_fixtures(count: int, seed: int = 1, tolerance: float = 1e-12) -> list:
    """Seeded batch of records cycling through systems and models."""
    count, seed = integer_value(count, "count", 0), integer_value(seed, "seed", 0)
    tolerance = finite_tolerance(tolerance)
    rng = np.random.default_rng(seed)
    records = []
    for index in range(count):
        # Kinds 0-5 take each point system with xi, then eta; kind 6 is a direction.
        kind = index % 7
        system = SYSTEMS[kind // 2]
        sheet = 1
        if system == "cartesian":
            values = rng.uniform(-2.0, 2.0, size=3).tolist()
            sheet = 1 if rng.integers(0, 2) == 0 else -1
        else:
            if system == "spherical":
                values = [float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, math.pi))]
            elif system == "parabolic":
                values = [float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0))]
            else:
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                values = n.tolist()
            # The last value is the last draw: the azimuth, or a direction's phase.
            values.append(wrap_4pi(float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))))
        model = "psi" if system == "direction" else MODELS[kind % 2]
        records.append(fixture_record(system, values, model, sheet, seed, tolerance))
    return records


_ascii = json.encoder.encode_basestring_ascii  # what json.dumps does with a str

_RECORD_KEYS = ("system", "values", "sheet", "model", "spinor", "quadruple", "projection", "meta")
# A record of fixture_record's: V stands for its values, A for an eta record's a, F for a float.
_TEMPLATE = ('{"system":%s,"values":[V],"sheet":%d,"model":%s,"spinor":[[F,F],[F,F]],'
             '"quadruple":[F,F,F,F],"projection":{"r":F,"x":[F,F,F]A},'
             '"meta":{"seed":%d,"tolerance":F,"version":%s}}')


def _shape(count: int, a: bool) -> tuple:
    """The %-template of a record with `count` values, and a vector a or not, and the
    exact type that dumps_record checks in each of its slots."""
    template = (_TEMPLATE.replace("V", ",".join("F" * count))
                .replace("A", ',"a":[F,F,F]' if a else "").replace("F", "%.17g"))
    kinds = tuple({"s": str, "d": int, "g": float}[spec[-1]]
                  for spec in re.findall(r"%s|%d|%\.17g", template))
    return template, kinds


_TAKES = {float: (int, float, np.integer, np.floating), int: (int, np.integer)}


def _slot(kind, part):
    """part as its float or int slot's kind (a string slot holds _ascii's str); else TypeError."""
    if isinstance(part, (bool, np.bool_)):
        raise TypeError("fixture records carry no booleans")
    if not isinstance(part, _TAKES[kind]):
        raise TypeError(f"not a fixture record: {type(part).__name__} in place of {kind.__name__}")
    return kind(part)


def _floats(fields) -> list:
    """fields as floats by a float slot's rule; one type-set test passes all floats and ints."""
    if {float, int}.issuperset(map(type, fields)):
        return list(map(float, fields))
    return [_slot(float, field) for field in fields]


# (keys, list lengths, projection keys, meta keys) -> _shape: 3 or 4 values, with or without a.
_SHAPES = {(_RECORD_KEYS, (count, 2, 2, 4, 3, 3 * a), ("r", "x", "a")[:2 + a],
            ("seed", "tolerance", "version")): _shape(count, a)
           for count in (3, 4) for a in (False, True)}


def dumps_record(record) -> str:
    """One fixture record as a line of JSON; a non-finite float raises ValueError."""
    try:
        system, values, sheet, model, spinor, quadruple, projection, meta = record.values()
        pair1, pair2 = spinor
        r, x, a = projection["r"], projection["x"], projection.get("a", [])
        seed, tolerance, version = meta.values()
        lengths = tuple(map(len, (values, pair1, pair2, quadruple, x, a)))
        template, kinds = _SHAPES[tuple(record), lengths, tuple(projection), tuple(meta)]
        parts = (_ascii(system), *values, sheet, _ascii(model), *pair1, *pair2, *quadruple, r,
                 *x, *a, seed, tolerance, _ascii(version))
    except (TypeError, ValueError, KeyError, AttributeError):
        raise TypeError("not a fixture record") from None
    if tuple(map(type, parts)) != kinds:
        parts = tuple([part if type(part) is kind else _slot(kind, part)
                       for kind, part in zip(kinds, parts)])
    text = template % parts
    # A finite float's %.17g has no letter but e; only a string may hold inf or nan.
    if ("inf" in text or "nan" in text) and not all(
            math.isfinite(part) for kind, part in zip(kinds, parts) if kind is float):
        raise ValueError("fixture floats must be finite")
    return text


def write_fixtures(records, path) -> int:
    """Write records as newline-delimited JSON; returns the record count."""
    text = "".join(dumps_record(r) + "\n" for r in records)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return len(records)


# json reads -0 as the int 0; it was written for the float -0.0, whose sign an atan2 keeps.
_DECODER = json.JSONDecoder(parse_int=lambda text: -0.0 if text == "-0" else int(text))


def load_fixtures(path) -> list:
    """Parse a newline-delimited fixture file back into record dicts."""
    with open(path, "r", encoding="utf-8") as handle:
        return [_DECODER.decode(line) for line in map(str.strip, handle) if line]


__all__ = [
    "fixture_record", "replay_residual",
    "generate_fixtures", "write_fixtures", "load_fixtures",
]
