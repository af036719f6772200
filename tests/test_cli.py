import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorspace.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- convert

def test_convert_prints_record(capsys):
    code, out, err = run_main(capsys, "convert", "cartesian", "0", "0", "1")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["spinor"][0] == [1.4142135623730951, 0]
    assert record["spinor"][1] == [0, 0]
    assert record["quadruple"][1] == 1.4142135623730951


def test_convert_eta_model(capsys):
    code, out, _ = run_main(capsys, "convert", "cartesian", "1", "0", "0",
                            "--model", "eta")
    assert code == 0
    record = json.loads(out)
    assert record["model"] == "eta"
    assert "a" in record["projection"]


def test_convert_range_error(capsys):
    code, out, err = run_main(capsys, "convert", "spherical", "1", "9.42477796", "0")
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ("convert", "cartesian", "1.7e308", "1.7e308", "1.7e308"),
    ("convert", "cartesian", "1.7e308", "1.7e308", "1.7e308", "--model", "eta"),
    ("rotate", "0.5", "0.5", "0.5", "0.5", "cartesian", "1.7e308", "1.7e308", "1.7e308"),
    ("rotate", "0.5", "0.5", "0.5", "0.5", "cartesian", "1.7e308", "1.7e308", "1.7e308",
     "--model", "eta"),
], ids=["convert-xi", "convert-eta", "rotate-xi", "rotate-eta"])
def test_point_past_the_double_range_is_a_range_error(capsys, argv):
    # The point is finite, but its radius, about 2.9e308, has no double.
    code, out, err = run_main(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cartesian point (1.7e+308, 1.7e+308, 1.7e+308): ")
    assert "1.8e308" in err and "Traceback" not in err


def test_negative_exponent_forms_are_values(capsys):
    code, out, err = run_main(capsys, "convert", "cartesian", "1", "-1e-3", "0",
                              "--tolerance", "1E-12")
    assert (code, err) == (0, "")
    assert out == run_main(capsys, "convert", "cartesian", "1", "-0.001", "0")[1]
    code, out, err = run_main(capsys, "convert", "cartesian", "1", "-inf", "0")
    assert code == 2 and "must be finite" in err


def test_convert_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["convert", "cylindrical", "0", "0", "1"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- verify

def test_verify_single_suite(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "hopf",
                            "--samples", "20", "--seed", "7")
    assert code == 0
    assert out.startswith("suite hopf:")
    assert "PASS" in out


def test_verify_one_sample(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "hopf",
                            "--samples", "1", "--seed", "7")
    assert code == 0
    assert "n=1" in out


def test_verify_all_suites(capsys):
    code, out, _ = run_main(capsys, "verify", "--samples", "5")
    assert code == 0
    for name in ("hopf", "covariance", "so4", "ks", "gauge"):
        assert f"suite {name}:" in out


def test_verify_bad_samples(capsys):
    # run_suite rejects the count; the CLI reports the library's message.
    assert run_main(capsys, "verify", "--samples", "0") == (2, "", "error: samples must be >= 1\n")


# --------------------------------------------------------------------- gauge

def test_gauge_north_pole(capsys):
    code, out, _ = run_main(capsys, "gauge", "0", "0", "1")
    assert code == 0
    assert "vector parameter C = (0.0, -0.0, 0.0)" in out or \
        "vector parameter C = (0.0, 0.0, 0.0)" in out


def test_gauge_equator(capsys):
    code, out, _ = run_main(capsys, "gauge", "1", "0", "0")
    assert code == 0
    assert "vector parameter C = (0.0, -1.0, 0.0)" in out
    assert "gamma = -0.0" in out or "gamma = 0.0" in out


def test_gauge_normalizes_input(capsys):
    code, out, _ = run_main(capsys, "gauge", "5", "0", "0")
    assert code == 0
    assert "direction n = (1.0, 0.0, 0.0)" in out


def test_gauge_singular_pole(capsys):
    code, out, err = run_main(capsys, "gauge", "0", "0", "-1")
    assert code == 1
    assert "singular gauge:" in err


def test_gauge_minus_sign(capsys):
    code, out, _ = run_main(capsys, "gauge", "0", "0", "-1", "--sign", "minus")
    assert code == 0
    assert "vector parameter C = (" in out


def test_gauge_zero_direction(capsys):
    code, _, err = run_main(capsys, "gauge", "0", "0", "0")
    assert code == 2 and "error:" in err


# ------------------------------------------------------------------ fixtures

def test_fixtures_roundtrip_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code, out, _ = run_main(capsys, "fixtures", "--count", "30", "--seed", "5",
                            "--out", str(a))
    assert code == 0 and "wrote 30 records" in out
    code, _, _ = run_main(capsys, "fixtures", "--count", "30", "--seed", "5",
                          "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_fixtures_empty_file(tmp_path, capsys):
    path = tmp_path / "none.jsonl"
    code, out, _ = run_main(capsys, "fixtures", "--count", "0", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == b""


def test_fixtures_unwritable_path(tmp_path, capsys):
    path = tmp_path / "missing" / "f.jsonl"
    code, out, err = run_main(capsys, "fixtures", "--count", "3", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "2.5"], ["verify", "--samples", "true"], ["verify", "--seed", "1.5"],
    ["fixtures", "--count", "2.5"], ["fixtures", "--seed", "1.5"],
    ["convert", "cartesian", "1", "0", "0", "--sheet", "-1.0"],
    ["convert", "cartesian", "1", "0", "0", "--seed", "1.5"],
], ids=["samples-float", "samples-word", "verify-seed", "count", "fixtures-seed", "sheet",
        "convert-seed"])
def test_non_integer_arguments_are_usage_errors(tmp_path, capsys, argv):
    # argparse reads each of these with int(), before the library sees it: exit 2.
    if argv[0] == "fixtures":
        argv = [*argv, "--out", str(tmp_path / "x.jsonl")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("argv, code", [
    (["convert", "cartesian", "0.3", "-0.4", "0.5", "--sheet", "-1", "--seed", "7"], 0),
    (["verify", "--suite", "hopf", "--samples", "3", "--seed", "7"], 0),
    (["verify", "--suite", "hopf", "--samples", "0"], 2),
    (["fixtures", "--count", "-1"], 2),
], ids=["convert", "verify", "verify-no-samples", "fixtures-negative"])
def test_integer_arguments_keep_their_exit_codes(tmp_path, capsys, argv, code):
    if argv[0] == "fixtures":
        argv = [*argv, "--out", str(tmp_path / "x.jsonl")]
    assert main(argv) == code


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "hopf", "--samples", "5", "--seed", "-3"],
    ["verify", "--seed", "-3"],
    ["fixtures", "--count", "2", "--seed", "-1"],
    ["convert", "cartesian", "1", "0", "0", "--seed", "-1"],
], ids=["verify-suite", "verify-all", "fixtures", "convert"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    if argv[0] == "fixtures":
        argv = [*argv, "--out", str(tmp_path / "x.jsonl")]
    assert run_main(capsys, *argv) == (2, "", "error: seed must be >= 0\n")
    assert not (tmp_path / "x.jsonl").exists()


def test_fixtures_negative_count(tmp_path, capsys):
    path = tmp_path / "x.jsonl"
    assert run_main(capsys, "fixtures", "--count", "-3", "--out", str(path)) == (
        2, "", "error: count must be >= 0\n")
    assert not path.exists()


def test_fixtures_replay_cycle(tmp_path, capsys):
    path = tmp_path / "golden.jsonl"
    assert run_main(capsys, "fixtures", "--count", "25", "--seed", "3",
                    "--out", str(path))[0] == 0
    code, out, _ = run_main(capsys, "verify", "--fixtures", str(path))
    assert code == 0
    assert "fixture_replay" in out and "PASS" in out


def test_fixtures_replay_catches_tampering(tmp_path, capsys):
    path = tmp_path / "golden.jsonl"
    run_main(capsys, "fixtures", "--count", "8", "--seed", "3", "--out", str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["projection"]["r"] += 1e-6
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_main(capsys, "verify", "--fixtures", str(path))
    assert code == 1
    assert "FAIL" in out


def test_fixtures_replay_fails_a_point_past_the_double_range(tmp_path, capsys):
    # A stored Cartesian record whose radius has no double fails its replay, as a
    # malformed record does, instead of ending the run in a traceback.
    path = tmp_path / "golden.jsonl"
    run_main(capsys, "fixtures", "--count", "8", "--seed", "3", "--out", str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    assert record["system"] == "cartesian"
    record["values"] = [1.7e308, 1.7e308, 1.7e308]
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_main(capsys, "verify", "--fixtures", str(path))
    assert (code, err) == (1, "")
    assert "FAIL" in out and "max residual inf" in out


def test_fixtures_replay_fails_a_nan_field(tmp_path, capsys):
    path = tmp_path / "golden.jsonl"
    run_main(capsys, "fixtures", "--count", "8", "--seed", "3", "--out", str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["quadruple"][1] = math.nan
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_main(capsys, "verify", "--fixtures", str(path))
    assert code == 1
    assert "FAIL" in out and "max residual inf" in out


@pytest.mark.parametrize("line", [
    lambda record: {k: v for k, v in record.items() if k != "meta"},
    lambda record: [1, 2, 3],
    lambda record: {**record, "meta": {**record["meta"], "tolerance": "abc"}},
    lambda record: {**record, "meta": {**record["meta"], "tolerance": math.nan}},
    lambda record: {**record, "meta": {**record["meta"], "tolerance": -1.0}},
    lambda record: {**record, "meta": {**record["meta"], "seed": -1}},
], ids=["no-meta", "list", "text-tolerance", "nan-tolerance", "negative-tolerance",
        "negative-seed"])
def test_fixtures_replay_fails_a_malformed_line(tmp_path, capsys, line):
    path = tmp_path / "golden.jsonl"
    run_main(capsys, "fixtures", "--count", "8", "--seed", "3", "--out", str(path))
    lines = path.read_text().splitlines()
    lines[2] = json.dumps(line(json.loads(lines[2])))
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_main(capsys, "verify", "--fixtures", str(path))
    assert code == 1 and err == ""
    assert "FAIL" in out and "max residual inf" in out


def test_fixtures_missing_file(capsys):
    code, _, err = run_main(capsys, "verify", "--fixtures", "/no/such/file.jsonl")
    assert code == 2 and "error:" in err


# -------------------------------------------------------------------- rotate

def test_rotate_identity_passes(capsys):
    code, out, _ = run_main(capsys, "rotate", "1", "0", "0", "0",
                            "cartesian", "0.3", "-0.4", "0.5")
    assert code == 0
    assert ": pass" in out


def test_rotate_both_models(capsys):
    for model in ("xi", "eta"):
        code, out, _ = run_main(capsys, "rotate", "0.5", "0.5", "0.5", "0.5",
                                "cartesian", "1", "2", "-3", "--model", model)
        assert code == 0
        assert ": pass" in out


def test_rotate_rejects_non_unit_rotation(capsys):
    code, _, err = run_main(capsys, "rotate", "2", "0", "0", "0",
                            "cartesian", "1", "0", "0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "1", "--tolerance", "inf"],
    ["verify", "--suite", "hopf", "--samples", "1", "--tolerance", "nan"],
    ["verify", "--fixtures", "FILE", "--tolerance", "inf"],
    ["rotate", "1", "0", "0", "0", "cartesian", "0.3", "-0.4", "0.5", "--tolerance", "inf"],
    ["convert", "cartesian", "0", "0", "1", "--tolerance", "nan"],
    ["fixtures", "--count", "2", "--out", "FILE", "--tolerance=-inf"],
    ["fixtures", "--count", "0", "--out", "FILE", "--tolerance", "inf"],
], ids=["verify", "verify-suite", "verify-fixtures", "rotate", "convert", "fixtures",
        "fixtures-empty"])
def test_non_finite_tolerance_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "golden.jsonl"
    run_main(capsys, "fixtures", "--count", "4", "--out", str(path))
    value = argv[-1].rpartition("=")[2]
    code, out, err = run_main(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: tolerance must be finite, got {float(value)!r}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "1", "--tolerance", "-1"],
    ["verify", "--suite", "hopf", "--samples", "10", "--tolerance", "-1"],
    ["verify", "--fixtures", "FILE", "--tolerance", "-1e-3"],
    ["rotate", "1", "0", "0", "0", "cartesian", "0.3", "-0.4", "0.5", "--tolerance", "-1"],
    ["convert", "cartesian", "1", "0", "0", "--tolerance", "-1"],
    ["fixtures", "--count", "2", "--out", "FILE", "--tolerance=-1e-12"],
], ids=["verify", "verify-suite", "verify-fixtures", "rotate", "convert", "fixtures"])
def test_negative_tolerance_is_a_usage_error(tmp_path, capsys, argv):
    # A negative tolerance fails correct output, or writes a record no replay can meet.
    path = tmp_path / "golden.jsonl"
    run_main(capsys, "fixtures", "--count", "4", "--out", str(path))
    value = argv[-1].rpartition("=")[2]
    code, out, err = run_main(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: tolerance must be nonnegative, got {float(value)!r}\n"


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ------------------------------------------------------ argv property test

# Numbers as a user types them: float reprs, with the edges of the double range,
# signed zeros, subnormals, exponent forms and the non-finite spellings.
_NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
                     "1e308", "-1e308", "1.7e308", "-1.7e308", "1E-3", "-1e-3", "2.5e+2",
                     "inf", "-inf", "nan", "-nan", "Infinity"]),
    st.floats().map(repr))


def _options(**choices):
    """Any subset of the options, each with a value drawn from its strategy."""
    return st.tuples(*(st.one_of(st.just(()), values.map(lambda v, o=option: (f"--{o}", v)))
                       for option, values in choices.items())).map(lambda t: sum(t, ()))


_POINT = st.tuples(st.sampled_from(["cartesian", "spherical", "parabolic"]),
                   _NUMBER, _NUMBER, _NUMBER)
_POINT_OPTIONS = dict(model=st.sampled_from(["xi", "eta"]), sheet=st.sampled_from(["1", "-1"]),
                      tolerance=_NUMBER)
_ARGV = st.one_of(
    st.tuples(st.just(("convert",)), _POINT, _options(**_POINT_OPTIONS)),
    # Drawn rotations are rarely unit; the fixed ones let rotate reach the point.
    st.tuples(st.just(("rotate",)),
              st.one_of(st.sampled_from([("1", "0", "0", "0"), ("0.5", "-0.5", "0.5", "-0.5"),
                                         ("-0.0", "0.6", "0", "-0.8")]),
                        st.tuples(*[_NUMBER] * 4)),
              _POINT, _options(**_POINT_OPTIONS)),
    st.tuples(st.just(("gauge",)), st.tuples(*[_NUMBER] * 3),
              _options(sign=st.sampled_from(["plus", "minus"]), gamma=_NUMBER)),
).map(lambda parts: [a for part in parts for a in part])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_ARGV)
def test_any_numbers_exit_cleanly(argv):
    # Every input ends in an exit code, never in a traceback.
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), argv


# -------------------------------------------------- module-level determinism

def test_module_invocation_byte_identical():
    cmd = [sys.executable, "-m", "spinorspace", "convert", "spherical",
           "1.5", "0.75", "2.25", "--model", "eta"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_console_entry_matches_in_process(capsys):
    argv = ["convert", "parabolic", "1.0", "0.5", "0.25"]
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    proc = subprocess.run([sys.executable, "-m", "spinorspace"] + argv,
                          capture_output=True, check=True, text=True)
    assert proc.stdout == out
