import dataclasses
import math

import numpy as np
import pytest

from spinorspace import (KSQuadruple, SingularGaugeError, SpinorRotation, build_frame,
                         direction_from_ks, normalize_ks, run_suite, scaled_residual, verify)
from spinorspace.verify import SUITE_NAMES, _worst

# (suite, check, samples at 10^4, samples at 10^3); every threshold is the
# tolerance run_suite was given.
CHECK_TABLE = [
    ("hopf", "construct_project_round_trip", 10000, 1000),
    ("hopf", "hopf_norms_any_spinor", 1000, 100),
    ("hopf", "eta_projection_dual_route", 1000, 100),
    ("hopf", "coordinate_agreement", 1000, 100),
    ("hopf", "projection_phase_invariance", 1000, 100),
    ("covariance", "xi_commuting_square", 10000, 1000),
    ("covariance", "eta_commuting_square", 10000, 1000),
    ("covariance", "so3_extraction_orthogonality", 10000, 1000),
    ("covariance", "vector_parameter_chart", 5000, 500),
    ("covariance", "rotation_homomorphisms", 10000, 1000),
    ("covariance", "so4_spinor_conjugacy", 10000, 1000),
    ("so4", "bridge_involution", 10000, 1000),
    ("so4", "bridge_quadruple_route", 10000, 1000),
    ("so4", "s_orthogonal_factorization", 500, 50),
    ("so4", "s_no_su2_preimage", 200, 20),
    ("so4", "double_cover_sign", 2000, 200),
    ("so4", "cartan_reflection_parity", 5000, 500),
    ("ks", "direction_vs_matrix_hat", 10000, 1000),
    ("ks", "left_transport_routes", 3000, 300),
    ("ks", "frame_defining_identities", 1000, 100),
    ("ks", "frame_symmetry_transport", 1000, 100),
    ("ks", "phase_residual_law", 500, 50),
    ("ks", "singular_error_paths", 3, 3),
    ("gauge", "gauge_postconditions", 10000, 1000),
    ("gauge", "canonical_gauges", 3000, 300),
    ("gauge", "rotation_between_planted", 3000, 300),
    ("gauge", "stabilizer_exact_identity", 1000, 100),
    ("gauge", "stabilizer_circle_contrast", 16, 16),
    ("gauge", "singular_gauge_paths", 2, 2),
]


@pytest.mark.parametrize("samples, column", [(10000, 0), (1000, 1)])
def test_suites_keep_every_check(samples, column):
    want = [(suite, name, counts[column], 1e-12) for suite, name, *counts in CHECK_TABLE]
    got = [(report.suite, c.name, c.samples, c.threshold)
           for report in (run_suite(s, samples) for s in SUITE_NAMES) for c in report.checks]
    assert got == want


def _batch(rng, shape):
    # Magnitudes on both sides of the unit floor of the scale.
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)


@pytest.mark.parametrize("shape, axis", [((50, 3), 1), ((50, 3, 3), (1, 2)),
                                         ((50, 4), None), ((0, 3), 1), ((0,), None)])
def test_worst_matches_scaled_residual_per_sample(shape, axis):
    rng = np.random.default_rng(11)
    lhs = _batch(rng, shape)
    rhs = lhs + _batch(rng, shape) * 1e-3
    if axis is None:
        # Each entry is its own sample.
        rows = [scaled_residual(a, b) for a, b in zip(lhs.ravel(), rhs.ravel())]
    else:
        rows = [scaled_residual(a, b) for a, b in zip(lhs, rhs)]
    assert _worst(lhs, rhs, axis) == max(rows, default=0.0)


def test_worst_granularity_is_not_coarser():
    # One sample's large entry must not dilute another sample's scale.
    lhs = np.array([[1e6, 0.0], [0.0, 0.5]])
    rhs = np.array([[1e6, 0.0], [0.0, 0.0]])
    assert _worst(lhs, rhs, 1) == 0.5
    assert _worst(lhs, rhs) == 0.5


def test_worst_fails_on_nan():
    assert _worst(np.array([0.0, math.nan]), 0.0) == math.inf


def _frame_rows():
    u = np.array([[0.5, 0.5, 0.5, 0.5], [0.0, 1.0, 0.0, 0.0], [0.6, 0.0, 0.8, 0.0]])
    return u, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.6, 0.0, 0.8]]), np.zeros(3)


# One bad row among good ones, the error its scalar route raises, and the check.
_RAISING_ROWS = [
    (_frame_rows, SingularGaugeError, lambda u, axes, delta:
     build_frame(KSQuadruple(*u[1]), axes[1], delta[1]), verify._check_frame_identities),
    (lambda: (np.eye(4), np.array([[1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.5] * 4, [0.0] * 4])),
     ValueError, lambda c, u: direction_from_ks(KSQuadruple(*u[1])), verify._check_left_transport),
    (lambda: (np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]),), ValueError,
     lambda c: SpinorRotation(*c[1]), verify._check_s_non_membership),
]


@pytest.mark.parametrize("rows, error, scalar, check", _RAISING_ROWS,
                         ids=["frame_axis_at_the_south_pole", "transport_zero_quadruple",
                              "fit_off_unit_rotation"])
def test_stacked_check_raises_where_a_row_raises(rows, error, scalar, check):
    # The stacked checks raise out of a row that the scalar API rejects.
    with pytest.raises(error):
        scalar(*rows())
    with pytest.raises(error):
        check(*rows())


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    # max is exact and the stacked BLAS and LAPACK calls act row by row, so every
    # worst residual keeps its bits for chunks that split the draws unevenly, and
    # for one chunk that holds a whole draw.
    def results(chunk):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        return [(c.name, c.samples, c.max_residual.hex()) for seed in (42, 7)
                for report in (run_suite(s, 600, seed) for s in SUITE_NAMES)
                for c in report.checks]

    first = results(37)
    for chunk in (256, 1024, 10_000):
        assert results(chunk) == first


def test_suite_runs_repeat_exactly():
    first = run_suite("ks", 40, seed=5)
    again = run_suite("ks", 40, seed=5)
    assert [c.max_residual for c in first.checks] == [c.max_residual for c in again.checks]


def test_error_path_check_fails_when_a_case_does_not_raise(monkeypatch):
    # Declared like the two error-path checks, in a suite of its own.
    monkeypatch.setattr(verify, "_SUITES", {})
    cases = ((ValueError, normalize_ks, KSQuadruple(0.0, 0.0, 0.0, 0.0)),
             (ValueError, normalize_ks, KSQuadruple(1.0, 0.0, 0.0, 0.0)))
    verify._check("paths", "error_paths", 0.0, lambda rng, n: (cases,))(verify._all_raise)
    result = run_suite("paths", 1, seed=0, tolerance=0.0).result("error_paths")
    assert (result.samples, result.passed, result.max_residual) == (2, False, math.inf)


def test_double_cover_sign_compares_whole_spinors(monkeypatch):
    def half_turn_keeps_imaginary_parts(c, z1r, z1i, z2r, z2i):
        # In the so4 suite only double_cover_sign turns spinors, by the half turn.
        assert c == (-1.0, 0.0, 0.0, 0.0)
        return -z1r, z1i, -z2r, z2i

    monkeypatch.setattr(verify, "rotated", half_turn_keeps_imaginary_parts)
    result = run_suite("so4", 1000, seed=42).result("double_cover_sign")
    assert not result.passed and result.max_residual == 2.0


def test_canonical_gauges_with_every_sample_singular():
    # Both spinors lie inside the constructors' singular guard: nothing to compare.
    psi = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    assert verify._check_canonical_gauges(psi) == 0.0


def test_s_no_su2_preimage_needs_the_certificate_margin(monkeypatch):
    real = verify.s_outside_su2_image

    def no_margin(*target):
        # Only the certificate of S itself loses its margin; the refits stay real.
        cert = real(*target)
        return cert if target else dataclasses.replace(cert, residual=0.1)

    monkeypatch.setattr(verify, "s_outside_su2_image", no_margin)
    # Check 3 of so4 at 1000 samples: seed [0, 3] and 20 samples.
    result = run_suite("so4", 1000, seed=0).result("s_no_su2_preimage")
    assert result.samples == 20
    assert not result.passed and result.max_residual == math.inf


def test_check_times_fit_in_the_report_time():
    report = run_suite("so4", 300, seed=4)
    assert all(c.elapsed > 0.0 for c in report.checks)
    assert sum(c.elapsed for c in report.checks) <= report.elapsed
    # The printed line leaves the time out, so the CLI's bytes do not depend on it.
    assert ([c.line() for c in report.checks]
            == [dataclasses.replace(c, elapsed=0.0).line() for c in report.checks])
    replay = verify.replay_fixtures([])
    assert replay.checks[0].elapsed == replay.elapsed
