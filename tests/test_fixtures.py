import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from spinorspace import (
    generate_fixtures,
    load_fixtures,
    replay_fixtures,
    replay_residual,
    run_all,
    run_suite,
    write_fixtures,
)
from spinorspace import fixtures as fixtures_module
from spinorspace import verify as verify_module
from spinorspace.cli import main
from spinorspace.core import finite_tolerance, wrap_4pi
from spinorspace.fixtures import (
    FIXTURE_VERSION,
    MODELS,
    construct,
    dumps_record,
    fixture_record,
    replay_residuals,
)

SQRT2 = math.sqrt(2.0)


# ------------------------------------------------------------- construction

def test_construct_routing():
    s = construct("cartesian", (0.0, 0.0, 1.0), "xi")
    assert s.c1 == SQRT2 and s.c2 == 0.0
    s = construct("parabolic", (1.0, 1.0, 0.0), "eta")
    assert s.c1 == 0.0 and s.c2 == SQRT2
    s = construct("direction", (0.0, 0.0, 1.0, 0.0), "psi")
    assert s.c1 == 1.0 + 0.0j and s.c2 == 0.0
    # the sheet flag negates through every angle-bearing system too
    a = construct("spherical", (1.0, 0.5, 0.25), "xi", sheet=1)
    b = construct("spherical", (1.0, 0.5, 0.25), "xi", sheet=-1)
    assert abs(a.c1 + b.c1) <= 1e-13 and abs(a.c2 + b.c2) <= 1e-13


@pytest.mark.parametrize("model", ["xi", "eta"])
@pytest.mark.parametrize("system, high", [("spherical", math.pi), ("parabolic", 2.0)],
                         ids=["spherical", "parabolic"])
def test_sheet_minus_one_is_the_negated_spinor(system, high, model):
    # Sheet -1, the phi + 2pi lift, negates the sheet +1 spinor bit for bit, at any stored azimuth.
    rng = np.random.default_rng(17)
    draws = (rng.uniform(0.0, 3.0, 1500), rng.uniform(0.0, high, 1500),
             rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 1500))
    for a, b, phi in zip(*(d.tolist() for d in draws)):
        plus = construct(system, (a, b, phi), model, sheet=1)
        minus = construct(system, (a, b, phi), model, sheet=-1)
        assert (minus.c1, minus.c2) == (-plus.c1, -plus.c2)
        assert fixture_record(system, (a, b, phi), model, sheet=-1)["spinor"] == [
            [-plus.c1.real, -plus.c1.imag], [-plus.c2.real, -plus.c2.imag]]


def test_construct_errors():
    with pytest.raises(ValueError):
        construct("cylindrical", (1.0, 0.0, 0.0), "xi")
    with pytest.raises(ValueError):
        construct("cartesian", (1.0, 0.0, 0.0), "chi")
    with pytest.raises(ValueError):
        construct("cartesian", (1.0, 0.0, 0.0), "psi")
    with pytest.raises(ValueError):
        construct("direction", (0.0, 0.0, 1.0), "psi")
    with pytest.raises(ValueError):
        construct("direction", (0.0, 0.0, 1.0, 0.0), "xi")
    with pytest.raises(ValueError):
        construct("spherical", (1.0, 0.5), "xi")


@pytest.mark.parametrize("system, values, model", [
    ("spherical", [[1.0], [0.5], [0.2]], "xi"),
    ("spherical", [1.0, 0.5j, 0.2], "eta"),
    ("parabolic", [1.0, "abc", 0.2], "xi"),
    ("cartesian", [0.3, None, 0.5], "eta"),
    ("direction", [0.0, 0.6, 0.8, [0.5]], "psi"),
    ("parabolic", 1.0, "eta"),
    ("cartesian", "123", "xi"),
    ("spherical", b"101", "eta"),
    ("cartesian", ["0.3", "-0.4", "0.5"], "xi"),
    ("parabolic", [1.0, True, 0.2], "eta"),
], ids=["nested", "complex", "string", "none", "direction", "scalar", "digits", "bytes",
        "numeric-strings", "bool"])
def test_records_name_values_that_are_not_real_numbers(system, values, model):
    message = rf"^{system} values must be real numbers, got {re.escape(repr(values))}$"
    with pytest.raises(ValueError, match=message):
        construct(system, values, model)
    with pytest.raises(ValueError, match=message):
        fixture_record(system, values, model)
    good = {"spherical": [1.0, 0.5, 0.2], "parabolic": [1.0, 0.5, 0.2],
            "cartesian": [0.3, -0.4, 0.5], "direction": [0.0, 0.6, 0.8, 0.5]}[system]
    record = fixture_record(system, good, model)
    record["values"] = values
    report = replay_fixtures([record])
    assert not report.passed and math.isinf(report.max_residual)


def test_point_records_keep_the_points_nonfinite_messages():
    with pytest.raises(ValueError, match=r"^azimuth phi must be finite, got inf$"):
        construct("spherical", [1.0, 0.5, math.inf], "xi")
    with pytest.raises(ValueError, match=r"^radius must be finite and nonnegative, got nan$"):
        construct("spherical", [math.nan, 0.5, 0.2], "eta")
    with pytest.raises(ValueError, match=r"^parabolic parameters must be finite and nonnegative$"):
        construct("parabolic", [1.0, -math.inf, 0.2], "xi")


def test_fixture_record_frozen():
    rec = fixture_record("cartesian", (0.0, 0.0, 1.0), "xi")
    assert rec["spinor"] == [[SQRT2, 0.0], [0.0, 0.0]]
    assert rec["quadruple"] == [0.0, SQRT2, 0.0, 0.0]
    assert abs(rec["projection"]["r"] - 1.0) <= 1e-15
    assert np.max(np.abs(np.array(rec["projection"]["x"]) - [0.0, 0.0, 1.0])) <= 1e-15
    assert "a" not in rec["projection"]
    assert rec["meta"]["version"] == FIXTURE_VERSION
    rec = fixture_record("parabolic", (1.0, 1.0, 0.0), "eta")
    assert rec["spinor"] == [[0.0, 0.0], [SQRT2, 0.0]]
    assert rec["quadruple"] == [0.0, 0.0, 0.0, SQRT2]
    assert np.max(np.abs(np.array(rec["projection"]["x"]) - [1.0, 0.0, 0.0])) <= 1e-15
    assert np.max(np.abs(np.array(rec["projection"]["a"]) - [0.0, 1.0, 0.0])) <= 1e-15


# ------------------------------------------------------------- serialization

_ascii = json.encoder.encode_basestring_ascii


def _dumps(value) -> str:
    """The generic recursive emitter that dumps_record replaced, kept as the reference:
    JSON with each float at 17 significant digits, numpy scalars and subclasses written
    as their plain values, a non-finite float a ValueError and a bool a TypeError."""
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError("fixture floats must be finite")
        return format(value, ".17g")
    if kind is list or kind is tuple:
        return "[" + ",".join([_dumps(v) for v in value]) + "]"
    if kind is dict:
        return "{" + ",".join([f"{_ascii(str(k))}:{_dumps(v)}"
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
            return _dumps(plain(value))
    raise TypeError(f"cannot encode {type(value).__name__}")


def test_dumps_record_rendering():
    rec = fixture_record("cartesian", (0.0, 0.0, 1.0), "xi")
    text = dumps_record(rec)
    # c1 = sqrt(2) (cos 0, -sin 0): its imaginary part is sqrt(2) * -0.0.
    assert '"spinor":[[1.4142135623730951,-0],[0,0]]' in text
    assert '"system":"cartesian"' in text
    assert json.loads(text) == json.loads(json.dumps(rec))
    assert dumps_record(rec) == text


def test_dumps_record_rejects_bad_values():
    # A dict that is not a record raises TypeError, whatever it holds.
    for value in [{"flag": True}, {"bad": math.inf}, {"bad": math.nan},
                  {"a": [1.5, -0.0, 7, "x"]}, [1.5], "record", None, 1.5]:
        with pytest.raises(TypeError, match="^not a fixture record$"):
            dumps_record(value)


class _Name(str):
    pass


class _Row(list):
    pass


class _Record(dict):
    pass


def test_dumps_record_gives_subclasses_and_numpy_scalars_the_same_bytes():
    # and tuples, arrays and ints too: each part goes through float(), int() or its str text.
    plain = fixture_record("cartesian", (1.0, -0.0, 0.5), "eta", sheet=-1, seed=7)
    projection = plain["projection"]
    mixed = _Record(
        system=_Name("cartesian"), values=(1, np.float32(-0.0), np.float64(0.5)),
        sheet=np.int64(-1), model=_Name("eta"),
        spinor=_Row(tuple(map(np.float64, pair)) for pair in plain["spinor"]),
        quadruple=tuple(plain["quadruple"]),
        projection={"r": np.float64(projection["r"]), "x": list(np.array(projection["x"])),
                    "a": _Row(projection["a"])},
        meta={"seed": np.int32(7), "tolerance": np.float64(1e-12),
              "version": _Name(FIXTURE_VERSION)})
    assert dumps_record(mixed) == dumps_record(plain) == _dumps(mixed)
    mixed["projection"]["x"] = np.array(projection["x"])  # which the reference refused
    assert dumps_record(mixed) == dumps_record(plain)
    mixed["quadruple"] = (np.float64("nan"), *plain["quadruple"][1:])
    with pytest.raises(ValueError, match="^fixture floats must be finite$"):
        dumps_record(mixed)
    mixed["sheet"] = np.bool_(True)
    with pytest.raises(TypeError, match="^fixture records carry no booleans$"):
        dumps_record(mixed)


def test_large_ints_in_float_slots_are_written_as_their_floats():
    # The reference wrote an int by str(); a float slot writes float(int) at 17 digits.
    record = fixture_record("cartesian", (0.3, -0.4, 0.5), "xi")
    record["values"] = [10**17, 2**53 + 1, -(10**16)]
    assert '"values":[1e+17,9007199254740992,-10000000000000000]' in dumps_record(record)
    assert _dumps(record) != dumps_record(record)


def test_write_load_round_trip(tmp_path):
    records = generate_fixtures(21, seed=5)
    path = tmp_path / "fixtures.jsonl"
    assert write_fixtures(records, path) == 21
    back = load_fixtures(path)
    assert back == json.loads("[" + ",".join(dumps_record(r) for r in records) + "]")
    assert dumps_record(back[0]) == dumps_record(records[0])


def test_write_fixtures_takes_any_iterable_and_writes_nothing_on_a_bad_record(tmp_path):
    records = generate_fixtures(9, seed=5)
    path, again = tmp_path / "listed.jsonl", tmp_path / "generated.jsonl"
    assert write_fixtures(records, path) == 9
    assert write_fixtures((r for r in records), again) == 9
    assert again.read_bytes() == path.read_bytes()
    assert write_fixtures(iter(()), again) == 0 and again.read_bytes() == b""
    # A bad record raises before the file is opened, from a list or a generator alike.
    bad = [*records[:3], {"system": "cartesian"}]
    for given in (bad, (r for r in bad)):
        with pytest.raises(TypeError, match="^not a fixture record$"):
            write_fixtures(given, tmp_path / "bad.jsonl")
        assert not (tmp_path / "bad.jsonl").exists()


def test_signed_zeros_survive_a_load(tmp_path, capsys):
    # The point (-1, -0, 0) has azimuth atan2(-0, -1) = -pi; read back as the
    # int 0, the -0 would turn it to +pi and negate the spinor's phases.
    assert main(["convert", "cartesian", "-1", "-0", "0"]) == 0
    path = tmp_path / "signed.jsonl"
    path.write_text(capsys.readouterr().out)
    assert '"values":[-1,-0,0]' in path.read_text()
    (record,) = load_fixtures(path)
    assert math.copysign(1.0, record["values"][1]) == -1.0
    assert replay_residual(record) == 0.0
    report = replay_fixtures([record])
    assert report.passed and report.max_residual == 0.0
    assert main(["verify", "--fixtures", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_writing_a_loaded_file_gives_its_bytes(tmp_path):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_fixtures(generate_fixtures(700, seed=3), first)
    loaded = load_fixtures(first)
    write_fixtures(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    # Only -0 reads as a float: the sheet and the seed stay ints.
    assert {type(r["sheet"]) for r in loaded} == {type(r["meta"]["seed"]) for r in loaded} == {int}


def test_template_gives_the_generic_bytes(tmp_path):
    records = generate_fixtures(700, seed=3)
    path = tmp_path / "golden.jsonl"
    write_fixtures(records, path)
    loaded = load_fixtures(path)
    # An integral float reads back as an int. On these eta records a3 = -Im(h1 h2)
    # vanishes as -0, which reads back as a float, so a record with an int 0 in a
    # float slot is built here: the writer converts it there.
    with_ints = [r for r in loaded if int in map(type, r["projection"].get("a", ()))]
    assert with_ints == []
    explicit = json.loads(json.dumps(next(r for r in loaded if "a" in r["projection"])))
    explicit["projection"]["a"][2] = 0
    for record in records + loaded + [explicit]:
        assert dumps_record(record) == _dumps(record)


def _eta_record():
    return fixture_record("cartesian", (0.3, -0.4, 0.5), "eta", sheet=-1, seed=4)


def _set(path, value):
    def change(record):
        *keys, last = path
        target = record
        for key in keys:
            target = target[key]
        target[last] = value
        return record
    return change


def _without_a(record):
    del record["projection"]["a"]
    return record


@pytest.mark.parametrize("change, written", [
    (_set(["extra"], 1.5), False),
    (lambda record: dict(reversed(record.items())), False),
    (lambda record: {**record, "meta": dict(reversed(record["meta"].items()))}, False),
    (_set(["quadruple", 2], np.float64(0.25)), True),
    (_set(["values", 0], 3), True),
    (_set(["meta", "seed"], 4.0), False),
    (_set(["spinor", 0], (0.5, -0.5)), True),
    (_set(["spinor"], [[0.5, -0.5, 0.25], [0.125]]), False),
    (_set(["system"], _Name("cartesian")), True),
    (_set(["meta", "version"], "inf"), True),
    (_without_a, True),
    (_set(["meta", "seed"], np.int64(4)), True),
    (_set(["model"], "nan"), True),
    (_set(["values"], "abc"), False),
    (_set(["quadruple", 1], "0.5"), False),
    (_set(["system"], b"cartesian"), False),
], ids=["extra-key", "reordered", "reordered-meta", "numpy-float", "int-value", "float-seed",
        "tuple-pair", "regrouped", "str-subclass", "inf-string", "missing-a", "numpy-seed",
        "nan-string", "string-values", "string-field", "bytes-system"])
def test_records_off_the_template_take_the_generic_route(change, written):
    # Off the template's exact types there is no second route: a record's part is converted
    # by its slot's kind, to the generic emitter's bytes, and anything else is refused.
    record = change(_eta_record())
    if written:
        assert dumps_record(record) == _dumps(record)
    else:
        with pytest.raises(TypeError, match="^not a fixture record"):
            dumps_record(record)


def test_a_bool_sheet_is_refused_as_before():
    for path in [["sheet"], ["values", 1], ["meta", "seed"]]:
        with pytest.raises(TypeError, match="^fixture records carry no booleans$"):
            dumps_record(_set(path, True)(_eta_record()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", [["values", 2], ["spinor", 1, 0], ["quadruple", 3],
                                  ["projection", "r"], ["projection", "a", 1],
                                  ["meta", "tolerance"]],
                         ids=["values", "spinor", "quadruple", "r", "a", "tolerance"])
def test_template_records_keep_floats_finite(path, bad):
    record = _set(path, bad)(_eta_record())
    with pytest.raises(ValueError, match="^fixture floats must be finite$"):
        dumps_record(record)


# Finite doubles across the whole range: signed zeros, subnormals, 1e+-300 and the extremes.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
          1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
_REAL = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
_NONNEGATIVE = _REAL.map(abs)
_POLAR = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, math.pi]),
                   st.floats(0.0, math.pi))
_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda n: math.hypot(*n) > 1e-3).map(lambda n: [v / math.hypot(*n) for v in n])
_RECORD_ARGS = st.one_of(
    st.tuples(st.just("cartesian"), st.tuples(_REAL, _REAL, _REAL), st.sampled_from(MODELS[:2])),
    st.tuples(st.just("spherical"), st.tuples(_NONNEGATIVE, _POLAR, _REAL),
              st.sampled_from(MODELS[:2])),
    st.tuples(st.just("parabolic"), st.tuples(_NONNEGATIVE, _NONNEGATIVE, _REAL),
              st.sampled_from(MODELS[:2])),
    st.tuples(st.just("direction"), st.tuples(_DIRECTION, _REAL).map(lambda d: [*d[0], d[1]]),
              st.just("psi")))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_RECORD_ARGS, st.sampled_from([1, -1]), st.integers(0, 2**63), _NONNEGATIVE)
def test_one_writer_over_the_double_range(tmp_path_factory, args, sheet, seed, tolerance):
    try:
        record = fixture_record(*args, sheet=sheet, seed=seed, tolerance=tolerance)
    except (ValueError, OverflowError):  # a point off its domain or past the double range
        reject()
    text = dumps_record(record)
    assert text == _dumps(record)
    assert json.loads(text) == record
    path = tmp_path_factory.mktemp("records") / "one.jsonl"
    write_fixtures([record], path)
    again = path.parent / "again.jsonl"
    write_fixtures(load_fixtures(path), again)
    assert again.read_text() == path.read_text() == text + "\n"


def test_generate_fixtures_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_fixtures(generate_fixtures(50, seed=9), a)
    write_fixtures(generate_fixtures(50, seed=9), b)
    assert a.read_bytes() == b.read_bytes()
    write_fixtures(generate_fixtures(50, seed=10), b)
    assert a.read_bytes() != b.read_bytes()


def test_generate_fixtures_cycles_and_edges():
    assert generate_fixtures(0) == []
    with pytest.raises(ValueError):
        generate_fixtures(-1)
    records = generate_fixtures(14, seed=3)
    kinds = [(r["system"], r["model"]) for r in records[:7]]
    assert kinds == [("cartesian", "xi"), ("cartesian", "eta"),
                     ("spherical", "xi"), ("spherical", "eta"),
                     ("parabolic", "xi"), ("parabolic", "eta"),
                     ("direction", "psi")]
    assert kinds == [(r["system"], r["model"]) for r in records[7:]]


# Each bounds pair of generate_fixtures' uniform draws, lo + (hi - lo) * rng.random().
_DRAW_BOUNDS = [(0.0, 3.0), (0.0, math.pi), (0.0, 2.0), (-2.0 * math.pi, 2.0 * math.pi),
                (-2.0, 2.0)]


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**31 - 1])
def test_generate_fixtures_draws_are_numpys_uniform_and_norm(seed):
    # generate_fixtures draws through rng.random() and divides by sqrt(n.dot(n)); these are
    # the forms numpy's uniform and linalg.norm take, so a numpy that changes them fails here.
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        for lo, hi in _DRAW_BOUNDS:
            mine = lo + (hi - lo) * ours.random()
            assert type(mine) is float and mine.hex() == float(theirs.uniform(lo, hi)).hex()
        drawn, uniform = -2.0 + 4.0 * ours.random(3), theirs.uniform(-2.0, 2.0, size=3)
        assert drawn.tobytes() == uniform.tobytes()
        n, same = ours.normal(size=3), theirs.normal(size=3)
        assert (n / math.sqrt(n.dot(n))).tobytes() == (same / np.linalg.norm(same)).tobytes()


def _parent_generate_fixtures(count, seed):
    """generate_fixtures as first written: numpy's uniform and linalg.norm, per record."""
    rng = np.random.default_rng(seed)
    records = []
    for index in range(count):
        kind = index % 7
        system = ("cartesian", "spherical", "parabolic", "direction")[kind // 2]
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
            values.append(wrap_4pi(float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))))
        model = "psi" if system == "direction" else MODELS[kind % 2]
        records.append(fixture_record(system, values, model, sheet, seed))
    return records


@pytest.mark.parametrize("seed", [0, 3, 13, 2**31 - 1])
def test_generate_fixtures_is_the_reference_loop(seed):
    for mine, reference in zip(generate_fixtures(70, seed), _parent_generate_fixtures(70, seed),
                               strict=True):
        assert dumps_record(mine) == dumps_record(reference)


# -------------------------------------------------------------------- replay

def test_replay_residual_fresh_is_zero():
    for rec in generate_fixtures(14, seed=11):
        assert replay_residual(rec) == 0.0


def test_replay_survives_serialization(tmp_path):
    path = tmp_path / "golden.jsonl"
    write_fixtures(generate_fixtures(35, seed=13), path)
    report = replay_fixtures(load_fixtures(path))
    assert report.passed
    assert report.samples == 35
    assert report.max_residual == 0.0


@pytest.mark.parametrize("system, values, model, r", [
    ("cartesian", ("1e308", "1e308", "0"), "xi", math.hypot(1e308, 1e308)),
    ("spherical", ("1.5e308", "1", "0.5"), "eta", 1.5e308)], ids=["cartesian", "spherical"])
def test_records_at_the_top_of_the_double_range(tmp_path, capsys, system, values, model, r):
    # |psi|^2 = 2r overflows, while r, the spinor and its projection are finite.
    record = fixture_record(system, [float(v) for v in values], model)
    assert math.isclose(record["projection"]["r"], r, rel_tol=1e-15)
    path = tmp_path / "top.jsonl"
    write_fixtures([record], path)
    report = replay_fixtures(load_fixtures(path))
    assert report.passed and report.max_residual == 0.0
    assert main(["convert", system, *values, "--model", model]) == 0
    assert json.loads(capsys.readouterr().out) == load_fixtures(path)[0]


def test_replay_catches_tampering():
    records = generate_fixtures(7, seed=17)
    records[3]["quadruple"][1] += 1e-6
    report = replay_fixtures(records)
    assert not report.passed
    assert report.max_residual > 1e-7


def test_replay_malformed_record_is_categorical():
    records = generate_fixtures(3, seed=19)
    del records[1]["quadruple"]
    report = replay_fixtures(records)
    assert not report.passed
    assert math.isinf(report.max_residual)


@pytest.mark.parametrize("system, values, model", [
    ("spherical", [1.0, 1.0, 0.5], "xi"),
    ("parabolic", [1.0, 0.5, 0.25], "eta"),
    ("direction", [0.0, 0.6, 0.8, 0.5], "psi"),
])
def test_records_validate_their_sheet(system, values, model):
    with pytest.raises(ValueError, match="sheet must be [+]1 or -1"):
        fixture_record(system, values, model, sheet=7)
    record = fixture_record(system, values, model, sheet=-1)
    record["sheet"] = 7
    report = replay_fixtures([record])
    assert not report.passed and math.isinf(report.max_residual)


def _without_meta(record):
    del record["meta"]
    return record


def _with_tolerance(value):
    def tamper(record):
        record["meta"]["tolerance"] = value
        return record
    return tamper


@pytest.mark.parametrize("tamper", [
    _without_meta, lambda record: [1, 2, 3], lambda record: "record",
    _with_tolerance("abc"), _with_tolerance(math.nan), _with_tolerance(math.inf),
    _with_tolerance(-1.0),
], ids=["no-meta", "list", "string", "text-tolerance", "nan-tolerance", "inf-tolerance",
        "negative-tolerance"])
def test_replay_fails_a_malformed_record(tamper):
    records = generate_fixtures(3, seed=19)
    records[1] = tamper(records[1])
    report = replay_fixtures(records)
    assert not report.passed
    assert math.isinf(report.max_residual)
    assert report.samples == 3 and report.checks[0].threshold == 1e-12


@pytest.mark.parametrize("tolerances, threshold", [
    ([math.nan], 1e-12), (["abc", 1e-10, math.inf], 1e-10), ([], 1e-12),
], ids=["only-nan", "largest-usable", "empty"])
def test_replay_threshold_is_the_largest_usable_tolerance(tolerances, threshold):
    records = generate_fixtures(len(tolerances), seed=19)
    for record, tol in zip(records, tolerances):
        record["meta"]["tolerance"] = tol
    report = replay_fixtures(records)
    assert report.tolerance == report.checks[0].threshold == threshold
    assert f"threshold {threshold:.1e}" in report.lines()[1]


def test_replay_residuals_return_each_checked_tolerance():
    records = generate_fixtures(3, seed=19, tolerance=1e-9)
    records[1]["meta"]["tolerance"] = 0
    records[2]["values"] = "abc"
    residuals, tolerances = replay_residuals(records)
    assert residuals.tolist() == [0.0, 0.0, math.inf]
    assert tolerances == [1e-9, 0.0, -math.inf]
    assert replay_residuals([])[1] == []


def test_a_malformed_record_adds_nothing_to_the_threshold():
    # Contract: the threshold is the largest stored tolerance of a well-formed
    # record. A malformed record's own tolerance is not read, however usable.
    records = generate_fixtures(2, seed=19)
    records[1]["meta"]["tolerance"] = 1e-3
    records[1]["values"] = [1.0, 2.0]
    report = replay_fixtures(records)
    assert not report.passed and report.max_residual == math.inf
    assert report.tolerance == report.checks[0].threshold == 1e-12


def test_replay_checks_each_stored_tolerance_once(tmp_path, monkeypatch):
    path = tmp_path / "f.jsonl"
    write_fixtures(generate_fixtures(35, seed=11), path)
    records = load_fixtures(path)
    calls = []

    def counted(tolerance):
        calls.append(tolerance)
        return finite_tolerance(tolerance)

    for module in (fixtures_module, verify_module):
        monkeypatch.setattr(module, "finite_tolerance", counted)
    report = replay_fixtures(records)
    assert report.passed and report.samples == 35
    assert len(calls) == 35


def test_replay_fails_a_record_of_the_wrong_shape():
    record = fixture_record("cartesian", (0.3, -0.4, 0.5), "xi")
    record["projection"]["x"] = record["projection"]["x"][:2]
    with pytest.raises(ValueError, match="field shapes"):
        replay_residual(record)
    report = replay_fixtures([record])
    assert not report.passed and report.max_residual == math.inf


def _loop_residual(record):
    """The per-field replay loop that the batch replaced, kept as the reference."""
    def fields(r):
        projection = r["projection"]
        return ([v for pair in r["spinor"] for v in pair] + list(r["quadruple"])
                + [projection["r"]] + list(projection["x"]) + list(projection.get("a", [])))
    fresh = fixture_record(record["system"], record["values"], record["model"],
                           record.get("sheet", 1), record["meta"]["seed"],
                           record["meta"]["tolerance"])
    stored, recomputed = fields(record), fields(fresh)
    if len(stored) != len(recomputed):
        raise ValueError("record field shapes do not match the recomputation")
    worst = 0.0
    for s, f in zip(map(float, stored), map(float, recomputed)):
        gap = abs(s - f) / max(1.0, abs(s), abs(f))
        if gap != gap:
            return math.inf
        worst = max(worst, gap)
    return worst


def test_batch_replay_gives_each_record_its_replay_residual():
    records = generate_fixtures(70, seed=29)
    records[2]["quadruple"][1] += 1e-6                    # tampered
    records[4]["spinor"][1][0] *= 1.0 + 1e-14             # tampered within 1e-12
    records[5]["projection"]["x"][0] = math.nan           # a NaN field
    records[6]["projection"]["r"] = math.inf              # an infinite field
    del records[8]["quadruple"]                           # malformed
    records[10]["projection"]["x"] = records[10]["projection"]["x"][:2]  # wrong shape
    records[12]["values"] = "123"                         # not real numbers
    records[13]["meta"]["tolerance"] = 1e-6               # passes only its own tolerance
    records[13]["projection"]["r"] *= 1.0 + 1e-8
    rng = np.random.default_rng(31)
    for record in records[21:]:  # one field each, off by 10^-17 to 10^1 relative
        pair = record["spinor"][int(rng.integers(0, 2))]
        pair[int(rng.integers(0, 2))] *= 1.0 + 10.0 ** rng.uniform(-17.0, 1.0)
    want = []
    for record in records:
        try:
            want.append(_loop_residual(record))
        except (KeyError, ValueError, TypeError):
            want.append(math.inf)
    assert replay_residuals(records)[0].tolist() == want
    assert [replay_fixtures([r]).max_residual for r in records] == want
    malformed = [8, 10, 12]
    assert [replay_residual(r) for i, r in enumerate(records) if i not in malformed] == [
        w for i, w in enumerate(want) if i not in malformed]
    assert [i for i, w in enumerate(want) if w == math.inf] == [5, 6] + malformed
    assert want[2] > 1e-7 and 0.0 < want[4] <= 1e-12 and 1e-12 < want[13] <= 1e-6
    assert want[:2] + want[14:21] == [0.0] * 9 and sum(w > 0.0 for w in want[21:]) >= 40
    report = replay_fixtures(records)
    assert not report.passed and report.max_residual == math.inf
    report = replay_fixtures(records[:2] + records[3:5] + [records[7], records[13]])
    assert report.passed and report.max_residual == want[13] and report.tolerance == 1e-6
    assert not replay_fixtures([records[13]], tolerance=1e-12).passed
    assert not replay_fixtures([records[0], records[13], records[1]], tolerance=1e-9).passed


def test_replay_missing_sheet_defaults():
    rec = fixture_record("cartesian", (0.3, -0.4, 0.5), "eta", sheet=1)
    del rec["sheet"]
    assert replay_residual(rec) == 0.0


def test_replay_tolerance_override():
    records = generate_fixtures(5, seed=23)
    records[0]["spinor"][0][0] += 1e-9
    assert not replay_fixtures(records).passed
    assert replay_fixtures(records, tolerance=1e-6).passed


@pytest.mark.parametrize("path, value", [
    (["spinor", 0, 0], repr(SQRT2)), (["quadruple", 1], repr(SQRT2).encode()),
    (["spinor", 1, 0], False), (["projection", "x", 1], "0"), (["values", 2], "1"),
    (["values", 0], False), (["sheet"], True),
], ids=["str-spinor", "bytes-quadruple", "bool-spinor", "str-x", "str-value", "bool-value",
        "bool-sheet"])
def test_replay_does_not_read_strings_or_bools_as_numbers(path, value):
    # Each stored field is the string or bool of the number it held: float() would read it.
    record = _set(path, value)(fixture_record("cartesian", (0.0, 0.0, 1.0), "xi"))
    assert replay_residuals([record])[0].tolist() == [math.inf]
    report = replay_fixtures([record])
    assert not report.passed and report.max_residual == math.inf
    with pytest.raises((TypeError, ValueError)):
        replay_residual(record)


def test_replay_reads_ints_and_numpy_reals_as_their_floats():
    record = fixture_record("cartesian", (0.0, 0.0, 1.0), "xi")
    record["values"] = [0, np.float32(0.0), np.int64(1)]
    record["spinor"][0][0] = np.float64(SQRT2)
    record["quadruple"] = [0, np.float64(SQRT2), np.int8(0), 0]
    record["meta"]["seed"] = np.uint8(3)
    assert replay_residual(record) == 0.0
    assert replay_fixtures([record]).passed


@pytest.mark.parametrize("seed", [1.5, 7.0, "7", True, np.bool_(False), None],
                         ids=["fraction", "integral-float", "string", "true", "numpy-bool",
                              "none"])
def test_seeds_that_are_not_integers_are_rejected(seed):
    message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        fixture_record("cartesian", (0.3, -0.4, 0.5), seed=seed)
    record = fixture_record("cartesian", (0.3, -0.4, 0.5))
    record["meta"]["seed"] = seed
    assert replay_residuals([record])[0].tolist() == [math.inf]
    with pytest.raises(ValueError, match="^seed must be an integer"):
        replay_residual(record)


def test_numpy_integer_seeds_are_taken():
    record = fixture_record("cartesian", (0.3, -0.4, 0.5), seed=np.int64(7))
    assert type(record["meta"]["seed"]) is int and record["meta"]["seed"] == 7
    assert generate_fixtures(1, seed=np.uint16(7)) == generate_fixtures(1, seed=7)


@pytest.mark.parametrize("call, message", [
    (lambda: run_suite("hopf", 2.5), "samples must be an integer, got 2.5"),
    (lambda: run_suite("hopf", True), "samples must be an integer, got True"),
    (lambda: run_suite("hopf", "10"), "samples must be an integer, got '10'"),
    (lambda: run_suite("hopf", 10, 1.5), "seed must be an integer, got 1.5"),
    (lambda: generate_fixtures(2.5), "count must be an integer, got 2.5"),
    (lambda: generate_fixtures(True), "count must be an integer, got True"),
    (lambda: generate_fixtures(3, 1.5), "seed must be an integer, got 1.5"),
], ids=["samples-float", "samples-bool", "samples-str", "suite-seed-float", "count-float",
        "count-bool", "fixtures-seed-float"])
def test_counts_and_seeds_that_are_not_integers_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: run_suite("hopf", 10, -1),
    lambda: generate_fixtures(2, -1),
    lambda: fixture_record("cartesian", (1, 0, 0), seed=-1),
    lambda: fixture_record("cartesian", (1, 0, 0), seed=np.int64(-3)),
], ids=["suite", "fixtures", "record", "record-numpy"])
def test_negative_seeds_are_refused_by_name(call):
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        call()


def test_seed_zero_is_taken():
    assert run_suite("hopf", 10, 0).seed == 0
    assert [r["meta"]["seed"] for r in generate_fixtures(2, 0)] == [0, 0]


def test_a_stored_negative_seed_replays_as_malformed():
    record = fixture_record("cartesian", (0.3, -0.4, 0.5))
    record["meta"]["seed"] = -1
    assert replay_residuals([record])[0].tolist() == [math.inf]
    assert not replay_fixtures([record]).passed
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        replay_residual(record)


def test_numpy_integer_counts_are_taken():
    report, want = run_suite("hopf", np.int64(10), np.int32(7)), run_suite("hopf", 10, 7)
    assert (report.samples, report.seed) == (10, 7)
    assert type(report.samples) is int and type(report.seed) is int
    assert [(c.samples, c.max_residual) for c in report.checks] == [
        (c.samples, c.max_residual) for c in want.checks]
    assert generate_fixtures(np.int64(3), np.uint8(5)) == generate_fixtures(3, 5)


@pytest.mark.parametrize("system, values, model", [
    ("cartesian", (0.3, -0.4, 0.5), "eta"), ("spherical", (1.0, 1.0, 0.5), "xi")])
def test_a_bool_sheet_is_not_a_sign(system, values, model):
    with pytest.raises(ValueError, match=r"^sheet must be \+1 or -1, got True$"):
        fixture_record(system, values, model, sheet=True)
    with pytest.raises(ValueError, match=r"^sheet must be \+1 or -1, got True$"):
        construct(system, values, model, sheet=True)


# ------------------------------------------------------------------- suites

def test_run_suite_arguments():
    with pytest.raises(ValueError):
        run_suite("sympletic")
    with pytest.raises(ValueError):
        run_suite("hopf", samples=0)


@pytest.mark.parametrize("value", [-1.0, -1e-300, -math.ulp(0.0)])
def test_negative_tolerances_are_rejected(value):
    # No residual meets a negative tolerance: the call fails where it is given.
    records = generate_fixtures(2, seed=19)
    message = rf"^tolerance must be nonnegative, got {value!r}$"
    with pytest.raises(ValueError, match=message):
        run_suite("hopf", samples=1, tolerance=value)
    with pytest.raises(ValueError, match=message):
        replay_fixtures(records, tolerance=value)
    with pytest.raises(ValueError, match=message):
        fixture_record("cartesian", (0.3, -0.4, 0.5), tolerance=value)
    with pytest.raises(ValueError, match=message):
        generate_fixtures(2, seed=19, tolerance=value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_tolerances_are_rejected(value):
    records = generate_fixtures(2, seed=19)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        run_suite("hopf", samples=1, tolerance=value)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        replay_fixtures(records, tolerance=value)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        fixture_record("cartesian", (0.3, -0.4, 0.5), tolerance=value)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        generate_fixtures(1, tolerance=value)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        generate_fixtures(0, tolerance=value)


@pytest.mark.parametrize("value", ["1e-3", b"1e-3", True, False],
                         ids=["str", "bytes", "true", "false"])
def test_tolerances_that_are_not_real_numbers_are_rejected(value):
    # float() reads each of these as a number; none of them is a tolerance.
    records = generate_fixtures(2, seed=19)
    message = rf"^tolerance must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        run_suite("hopf", samples=10, tolerance=value)
    with pytest.raises(ValueError, match=message):
        replay_fixtures(records, tolerance=value)
    with pytest.raises(ValueError, match=message):
        fixture_record("cartesian", (0.3, -0.4, 0.5), tolerance=value)
    with pytest.raises(ValueError, match=message):
        generate_fixtures(1, tolerance=value)
    records[1]["meta"]["tolerance"] = value
    report = replay_fixtures(records)
    assert not report.passed and report.max_residual == math.inf


def test_reports_hold_residuals_to_the_float_of_the_tolerance():
    report = run_suite("hopf", samples=10, tolerance=0)
    assert type(report.tolerance) is float
    assert all(type(check.threshold) is float for check in report.checks)
    report = replay_fixtures(generate_fixtures(3, seed=19), tolerance=np.float32(0.25))
    assert type(report.tolerance) is float and report.tolerance == 0.25 and report.passed


def test_run_suite_small_smoke():
    report = run_suite("hopf", samples=20, seed=7)
    assert report.passed
    assert report.suite == "hopf" and report.seed == 7
    assert report.max_residual <= report.tolerance
    with pytest.raises(KeyError):
        report.result("no_such_check")
    got = report.result("hopf_norms_any_spinor")
    assert got.passed and got.name == "hopf_norms_any_spinor"
    lines = report.lines()
    assert lines[0].startswith("suite hopf:")
    assert lines[-1].strip().startswith("suite hopf: PASS")
    assert all(line.startswith("  [pass]") for line in lines[1:-1])


def test_run_suite_seed_reproducible():
    a = run_suite("gauge", samples=50, seed=31)
    b = run_suite("gauge", samples=50, seed=31)
    assert [c.max_residual for c in a.checks] == [c.max_residual for c in b.checks]


def test_run_all_covers_every_suite():
    reports = run_all(samples=10, seed=3)
    assert [r.suite for r in reports] == ["hopf", "covariance", "so4", "ks", "gauge"]
    assert all(r.passed for r in reports)
