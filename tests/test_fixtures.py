import json
import math
import re

import numpy as np
import pytest

from spinorspace import (
    generate_fixtures,
    load_fixtures,
    replay_fixtures,
    replay_residual,
    run_all,
    run_suite,
    write_fixtures,
)
from spinorspace.cli import main
from spinorspace import fixtures
from spinorspace.fixtures import (
    FIXTURE_VERSION,
    _dumps,
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
], ids=["nested", "complex", "string", "none", "direction", "scalar", "digits", "bytes"])
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

def test_dumps_record_rendering():
    rec = fixture_record("cartesian", (0.0, 0.0, 1.0), "xi")
    text = dumps_record(rec)
    assert '"spinor":[[1.4142135623730951,0],[0,0]]' in text
    assert '"system":"cartesian"' in text
    assert json.loads(text) == json.loads(json.dumps(rec))
    assert dumps_record(rec) == text


def test_dumps_record_rejects_bad_values():
    with pytest.raises(TypeError):
        dumps_record({"flag": True})
    with pytest.raises(ValueError):
        dumps_record({"bad": math.inf})
    with pytest.raises(ValueError):
        dumps_record({"bad": math.nan})
    with pytest.raises(TypeError):
        dumps_record({"bad": object()})


def test_dumps_record_gives_subclasses_and_numpy_scalars_the_same_bytes():
    class Name(str):
        pass

    class Row(list):
        pass

    plain = {"a": [1.5, -0.0, 7, "\u00e9\n\"x"], "b": (2, 3.25)}
    mixed = {Name("a"): Row([np.float64(1.5), np.float64(-0.0), np.int64(7), Name("\u00e9\n\"x")]),
             "b": (np.int32(2), np.float32(3.25))}
    want = '{"a":[1.5,-0,7,' + json.dumps("\u00e9\n\"x") + '],"b":[2,3.25]}'
    assert dumps_record(plain) == dumps_record(mixed) == want
    with pytest.raises(ValueError):
        dumps_record([np.float64("nan")])
    with pytest.raises(TypeError):
        dumps_record([np.bool_(True)])


def test_write_load_round_trip(tmp_path):
    records = generate_fixtures(21, seed=5)
    path = tmp_path / "fixtures.jsonl"
    assert write_fixtures(records, path) == 21
    back = load_fixtures(path)
    assert back == json.loads("[" + ",".join(dumps_record(r) for r in records) + "]")
    assert dumps_record(back[0]) == dumps_record(records[0])


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


@pytest.fixture
def generic_calls(monkeypatch):
    """The values that dumps_record's generic route is called on, nested ones included."""
    calls = []

    def counted(value):
        calls.append(value)
        return _dumps(value)
    monkeypatch.setattr(fixtures, "_dumps", counted)
    return calls


def test_template_gives_the_generic_bytes(tmp_path, generic_calls):
    records = generate_fixtures(700, seed=3)
    for record in records:
        text = dumps_record(record)
        assert generic_calls == []  # the template wrote it
        assert text == _dumps(record)
        generic_calls.clear()
    path = tmp_path / "golden.jsonl"
    write_fixtures(records, path)
    for record in load_fixtures(path):  # integral floats read back as ints: the generic route
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


class _Name(str):
    pass


@pytest.mark.parametrize("change, templated", [
    (_set(["extra"], 1.5), False),
    (lambda record: dict(reversed(record.items())), False),
    (lambda record: {**record, "meta": dict(reversed(record["meta"].items()))}, False),
    (_set(["quadruple", 2], np.float64(0.25)), False),
    (_set(["values", 0], 3), False),
    (_set(["meta", "seed"], 4.0), False),
    (_set(["spinor", 0], (0.5, -0.5)), False),
    (_set(["spinor"], [[0.5, -0.5, 0.25], [0.125]]), False),
    (_set(["system"], _Name("cartesian")), False),
    (_set(["meta", "version"], "inf"), False),
    (_without_a, True),
], ids=["extra-key", "reordered", "reordered-meta", "numpy-float", "int-value", "float-seed",
        "tuple-pair", "regrouped", "str-subclass", "inf-string", "missing-a"])
def test_records_off_the_template_take_the_generic_route(change, templated, generic_calls):
    record = change(_eta_record())
    text = dumps_record(record)
    assert (generic_calls == []) is templated
    assert text == _dumps(record)


def test_a_bool_sheet_is_refused_as_before(generic_calls):
    record = _set(["sheet"], True)(_eta_record())
    with pytest.raises(TypeError, match="booleans"):
        dumps_record(record)
    assert generic_calls[0] is record


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", [["values", 2], ["spinor", 1, 0], ["quadruple", 3],
                                  ["projection", "r"], ["projection", "a", 1],
                                  ["meta", "tolerance"]],
                         ids=["values", "spinor", "quadruple", "r", "a", "tolerance"])
def test_template_records_keep_floats_finite(path, bad):
    record = _set(path, bad)(_eta_record())
    with pytest.raises(ValueError, match="^fixture floats must be finite$"):
        dumps_record(record)


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
    assert replay_residuals(records).tolist() == want
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
