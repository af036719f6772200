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
from spinorspace.fixtures import FIXTURE_VERSION, construct, dumps_record, fixture_record

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
], ids=["nested", "complex", "string", "none", "direction", "scalar"])
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
