"""Byte and bit pins: sha256 of the fixture file, of CLI output and of the edges
rows of tools/same_bits.py (the spinor maps, rotations, gauges and frames at the
edges of the double range), and the float.hex of every check's worst residual in
run_all(1000, 42).

A change that moves an output bit on purpose re-pins here and says why in
CHANGES.md; tools/same_bits.py --parent PARENT_SRC lists the edges rows that moved.
"""

import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

import spinorspace
from spinorspace import generate_fixtures, run_all, write_fixtures
from spinorspace.cli import main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_fixture_file_bytes(tmp_path):
    path = tmp_path / "golden.jsonl"
    write_fixtures(generate_fixtures(100, seed=1), path)
    assert _sha(path.read_bytes()) == (
        "6ed45de4149f5871491dccf91e2ed1b3409d40a6c7205a9017adf24b44c2d7d9")


def _same_bits():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
    spec = importlib.util.spec_from_file_location("same_bits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_edges_rows_bytes():
    # Every public spinor_maps function and psi_from_direction on the edges corpus:
    # +-0, subnormals, the top of the range and the pole, axis and equator bands;
    # the rotations, gauges and frames on its unit spinors, on chart weights either
    # side of SINGULAR_WEIGHT and on rotations either side of VECTOR_PARAMETER_LIMIT.
    same_bits = _same_bits()
    assert _sha(same_bits.edges_text(same_bits.edge_rows(spinorspace)).encode()) == (
        "36aae7406b7f51a15fabc05016a107559f8e30cd99b57973276efc28e4ac7baf")


GAUGE_123 = "dda173e74b966f7a8880b3017dd5827460846f70e6e1aebc382684b11730e3c7"

# argv, exit code, sha256 of stdout, sha256 of stderr.
CLI_PINS = [
    (("gauge", "1", "2", "3", "--sign", "plus"), 0, GAUGE_123, EMPTY),
    (("gauge", "-0.3", "0.5", "-2", "--sign", "minus", "--gamma", "0.7"), 0,
     "856b06b45dc61051b7815c86d6774af6885b2dfbe79dc6625a27b313a9101afb", EMPTY),
    # near the south pole: the (+) chart weight is 1.25e-10, above the guard
    (("gauge", "2e-5", "-0.00001", "-1", "--sign", "plus"), 0,
     "65a35df7be7623462e2175c06e1ff4db3b1064b093579382eb5273027f05f532", EMPTY),
    # near the north pole in the (-) chart
    (("gauge", "3e-6", "1e-6", "1", "--sign", "minus", "--gamma", "-2.5"), 0,
     "dbef377104f0d9b32623c3d94c17f5ee921f9d161865644ba69bb6b37c17503c", EMPTY),
    # singular: a weight of 2.5e-19 and the pole itself
    (("gauge", "1e-9", "0", "-1", "--sign", "plus"), 1, EMPTY,
     "997b50467b3907abdb159ec27103b346d060300fa2ec02773051a3bcbb57f564"),
    (("gauge", "0", "0", "-1", "--sign", "plus"), 1, EMPTY,
     "0ad293143ae7adc86f66cabac18649475ec8c7fe7c3e9ebaa8a3569095c92fbe"),
    (("rotate", "0.5", "0.5", "0.5", "0.5", "cartesian", "1", "2", "-3"), 0,
     "a2be0dffa35afbfbf6692128887aa04d4ffb200a5633f5f207acd74e3ed6e638", EMPTY),
    (("rotate", "0.6", "0", "0.8", "0", "spherical", "2", "0.75", "2.25",
      "--model", "eta", "--sheet", "-1"), 0,
     "492c120d1efa6ed3dfe2b2d956071e032b577952d9aacc122095d8b30cab43fa", EMPTY),
    (("convert", "cartesian", "0.3", "-1.2", "2.5"), 0,
     "175ddb9cf752e6ec3d1653062e5e578e1485442bba8dfa0c1ddd57dbcab03376", EMPTY),
    (("convert", "spherical", "1", "0.75", "2.25", "--model", "eta", "--sheet", "-1"), 0,
     "54b181d31abbd5725a2043421d4da63c40c2271385a42b594d4d320454a9b74e", EMPTY),
    (("convert", "parabolic", "1.5", "0.5", "-2"), 0,
     "d1a5d433e7a471a165331e9627e0838a73d790c0617f29418e2989299b779062", EMPTY),
    # range error: colatitude outside [0, pi]
    (("convert", "spherical", "1", "9.42477796", "0"), 2, EMPTY,
     "d603719194a11601fd029a2aa93a40eb31a9055455359ab48651cfa91bfd70db"),
    # 2^k (1, 2, 3), whose squares overflow or underflow, prints the bytes of (1, 2, 3)
    *[(("gauge", *(repr(math.ldexp(x, k)) for x in (1.0, 2.0, 3.0)), "--sign", "plus"), 0,
       GAUGE_123, EMPTY) for k in (600, -600, 1000, -1070)],
]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", CLI_PINS,
                         ids=[" ".join(p[0][:2]) + f"-{i}" for i, p in enumerate(CLI_PINS)])
def test_cli_output_bytes(capsys, argv, code, out_sha, err_sha):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert _sha(captured.out.encode()) == out_sha
    assert _sha(captured.err.encode()) == err_sha


# float.hex of each check's max_residual in run_all(1000, 42), in suite order.
RESIDUAL_PINS = [
    ("construct_project_round_trip", "0x1.0000000000000p-50"),
    ("hopf_norms_any_spinor", "0x1.0000000000000p-48"),
    ("eta_projection_dual_route", "0x1.f804fe17ebd91p-53"),
    ("coordinate_agreement", "0x1.2c00000000000p-51"),
    ("projection_phase_invariance", "0x1.1affe5b6e89dcp-51"),
    ("xi_commuting_square", "0x1.d6d07d959fd36p-51"),
    ("eta_commuting_square", "0x1.2220bc3ef14bbp-50"),
    ("so3_extraction_orthogonality", "0x1.7fffffffffff7p-50"),
    ("vector_parameter_chart", "0x1.8000000000000p-51"),
    ("rotation_homomorphisms", "0x1.0000000000000p-50"),
    ("so4_spinor_conjugacy", "0x1.4ffa022bf0970p-52"),
    ("bridge_involution", "0x1.ff56f298e4f31p-52"),
    ("bridge_quadruple_route", "0x1.43eaaf6438254p-52"),
    ("s_orthogonal_factorization", "0x1.0000000000000p-52"),
    ("s_no_su2_preimage", "0x1.0000000000000p-53"),
    ("double_cover_sign", "0x1.0000000000000p-49"),
    ("cartan_reflection_parity", "0x0.0p+0"),
    ("direction_vs_matrix_hat", "0x1.7fffffffffff7p-50"),
    ("left_transport_routes", "0x1.c000000000000p-51"),
    ("frame_defining_identities", "0x1.0000000000000p-50"),
    ("frame_symmetry_transport", "0x1.0000000000000p-51"),
    ("phase_residual_law", "0x1.f22f0c0b89864p-52"),
    ("singular_error_paths", "0x0.0p+0"),
    ("gauge_postconditions", "0x1.8000000000000p-52"),
    ("canonical_gauges", "0x1.53c4c9c8bfd46p-50"),
    ("rotation_between_planted", "0x1.8000000000000p-52"),
    ("stabilizer_exact_identity", "0x0.0p+0"),
    ("stabilizer_circle_contrast", "0x1.0000000000000p-53"),
    ("singular_gauge_paths", "0x0.0p+0"),
]


@pytest.fixture(scope="module")
def suite_residuals():
    return [(c.name, c.max_residual.hex()) for report in run_all(1000, 42)
            for c in report.checks]


def test_residual_pins_cover_every_check(suite_residuals):
    assert [name for name, _ in suite_residuals] == [name for name, _ in RESIDUAL_PINS]


@pytest.mark.parametrize("name, bits", RESIDUAL_PINS, ids=[p[0] for p in RESIDUAL_PINS])
def test_worst_residual_bits(suite_residuals, name, bits):
    assert dict(suite_residuals)[name] == bits
