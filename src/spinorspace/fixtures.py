"""Golden fixture records: generation, serialization and replay.

A record freezes one constructor evaluation: the input coordinates, the
resulting spinor and quadruple, and the projection back to 3-space. Files
are UTF-8 newline-delimited JSON, one record per line, with every float
written at 17 significant digits so doubles survive a round trip and equal
seeds produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import Spinor, finite_tolerance, quadruple_from_spinor, sign_flag, wrap_4pi
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
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; valid: {', '.join(SYSTEMS)}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; valid: {', '.join(MODELS)}")
    sheet = sign_flag(sheet, "sheet")
    try:
        vals = [float(v) for v in values]
    except (TypeError, ValueError):
        raise ValueError(f"{system} values must be real numbers, got {values!r}") from None
    if system == "direction":
        if model != "psi":
            raise ValueError("the direction system carries the psi model only")
        if len(vals) != 4:
            raise ValueError("direction values are (n1, n2, n3, gamma)")
        return psi_from_direction(vals[:3], vals[3])
    if model == "psi":
        raise ValueError("the psi model requires the direction system")
    if len(vals) != 3:
        raise ValueError(f"{system} values are three reals")
    if system == "cartesian":
        maker = xi_from_cartesian if model == "xi" else eta_from_cartesian
        return maker(vals, sheet)
    if system == "spherical":
        point = SphericalPoint(*vals)
        spinor = xi_from_spherical(point) if model == "xi" else eta_from_spherical(point)
    else:
        point = ParabolicPoint(*vals)
        spinor = xi_from_parabolic(point) if model == "xi" else eta_from_parabolic(point)
    # Sheet -1, the phi + 2pi lift, is the same spinor negated.
    return spinor if sheet == 1 else Spinor(-spinor.c1, -spinor.c2)


def bilinears(spinor: Spinor, model: str) -> tuple:
    """The projection vectors a record keeps: (x,), or (x, a) for the eta model."""
    if model == "eta":
        p = project_eta(spinor)
        return p.x, p.a
    return (project_xi(spinor)[1],)


def fixture_record(system: str, values, model: str = "xi", sheet: int = 1,
                   seed: int = 0, tolerance: float = 1e-12) -> dict:
    """One self-consistent record of a constructor evaluation."""
    spinor = construct(system, values, model, sheet)
    q = quadruple_from_spinor(spinor)
    r = 0.5 * spinor.norm_sq
    if r == math.inf:
        # |psi|^2 overflows at the top of the double range; the projection
        # takes r on exactly rescaled parts.
        r = project_xi(spinor)[0]
    projection = {"r": r}
    for key, vector in zip(("x", "a"), bilinears(spinor, model)):
        projection[key] = vector.tolist()
    return {
        "system": system,
        "values": [float(v) for v in values],
        "sheet": int(sheet),
        "model": model,
        "spinor": [[spinor.c1.real, spinor.c1.imag], [spinor.c2.real, spinor.c2.imag]],
        "quadruple": list(q.as_tuple()),
        "projection": projection,
        "meta": {"seed": int(seed), "tolerance": finite_tolerance(tolerance),
                 "version": FIXTURE_VERSION},
    }


def _numeric_fields(record: dict) -> list:
    """The computed numbers of a record, flattened in a fixed order."""
    projection = record["projection"]
    return ([v for pair in record["spinor"] for v in pair]
            + list(record["quadruple"])
            + [projection["r"]]
            + list(projection["x"])
            + list(projection.get("a", [])))


def replay_residual(record: dict) -> float:
    """Worst scaled disagreement between a record and its fresh recomputation;
    inf, as for a malformed record, where a stored field is NaN or infinite."""
    fresh = fixture_record(record["system"], record["values"], record["model"],
                           record.get("sheet", 1),
                           record["meta"]["seed"], record["meta"]["tolerance"])
    stored = _numeric_fields(record)
    recomputed = _numeric_fields(fresh)
    if len(stored) != len(recomputed):
        raise ValueError("record field shapes do not match the recomputation")
    worst = 0.0
    for s, f in zip(stored, recomputed):
        s, f = float(s), float(f)
        gap = abs(s - f) / max(1.0, abs(s), abs(f))
        if gap != gap:  # a NaN or infinite field, which max() would skip
            return math.inf
        worst = max(worst, gap)
    return worst


def generate_fixtures(count: int, seed: int = 1, tolerance: float = 1e-12) -> list:
    """Seeded batch of records cycling through systems and models."""
    if count < 0:
        raise ValueError("count must be >= 0")
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


def dumps_record(value) -> str:
    # Hand-rolled emitter: the stdlib serializer offers no float-format hook,
    # and byte determinism needs one fixed 17-significant-digit rendering.
    # Exact types first; bool, numpy scalars and subclasses take the isinstance route.
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError("fixture floats must be finite")
        return format(value, ".17g")
    if kind is list or kind is tuple:
        return "[" + ",".join([dumps_record(v) for v in value]) + "]"
    if kind is dict:
        return "{" + ",".join([f"{_ascii(str(k))}:{dumps_record(v)}"
                               for k, v in value.items()]) + "}"
    if kind is str:
        return _ascii(value)
    if kind is int:
        return str(value)
    if isinstance(value, bool):
        raise TypeError("fixture records carry no booleans")
    for kinds, plain in (((int, np.integer), int), ((float, np.floating), float), (str, str),
                         ((list, tuple), list), (dict, dict)):
        if isinstance(value, kinds):
            return dumps_record(plain(value))
    raise TypeError(f"cannot encode {type(value).__name__}")


def write_fixtures(records, path) -> int:
    """Write records as newline-delimited JSON; returns the record count."""
    text = "".join(dumps_record(r) + "\n" for r in records)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return len(records)


def load_fixtures(path) -> list:
    """Parse a newline-delimited fixture file back into record dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


__all__ = [
    "fixture_record", "replay_residual",
    "generate_fixtures", "write_fixtures", "load_fixtures",
]
