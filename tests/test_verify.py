import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinorspace import (KSQuadruple, SingularGaugeError, SpinorRotation, build_frame,
                         direction_from_ks, generate_fixtures, normalize_ks, run_suite,
                         scaled_residual, verify)
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


def _worst_in_place(lhs, rhs, axis=None):
    # The reference: _worst's formula with numpy's max taken over `axis` in place.
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    gap = np.abs(lhs - rhs)
    size = np.maximum(np.abs(lhs), np.abs(rhs))
    if axis is not None:
        gap, size = gap.max(axis=axis), size.max(axis=axis)
    worst = float(np.max(gap / np.maximum(size, 1.0), initial=0.0))
    return math.inf if math.isnan(worst) else worst


def test_worst_groups_entries_by_sample_on_leading_axes():
    # A large entry scales only its own sample: grouping the flat entries of
    # (1, 3, 2) in threes would put (1e6, 0.5) in one group and read 5e-07.
    lhs, rhs = np.zeros((1, 3, 2)), np.zeros((1, 3, 2))
    lhs[0, 0, 0] = rhs[0, 0, 0] = 1e6
    lhs[0, 0, 1] = 0.5
    assert _worst(lhs, rhs, 1) == _worst_in_place(lhs, rhs, 1) == 0.5


# Each (shape, axis) as the checks call _worst, the reduced axes trailing or not.
_WORST_SHAPES = [((40, 3), 1), ((40, 3, 3), (1, 2)), ((40, 4, 4), (1, 2)), ((40, 2, 3), 2),
                 ((4, 3, 40), 1), ((40, 2, 4), (1, 2)), ((3, 40, 2), (0, 2)), ((40, 3), -1),
                 ((0, 3), 1), ((0, 4, 4), (1, 2)), ((0, 2, 3), 2), ((4, 3, 0), 1)]
# Entries planted in the reduced entries of the first sample, and their negations
# in its other side.
_SPECIALS = {"finite": [], "nan": [math.nan], "inf": [math.inf], "-inf": [-math.inf],
             "signed-zeros": [0.0, -0.0], "inf-nan": [math.inf, math.nan]}


def _plant(a, axis, values):
    axes = (axis,) if isinstance(axis, int) else axis
    front = np.moveaxis(a, axes, range(len(axes)))  # a view: writes land in a
    for j, value in enumerate(values):
        front[np.unravel_index(j, front.shape[:len(axes)]) + (0,) * (a.ndim - len(axes))] = value


@pytest.mark.parametrize("special", _SPECIALS.values(), ids=_SPECIALS.keys())
@pytest.mark.parametrize("shape, axis", _WORST_SHAPES, ids=str)
def test_worst_takes_the_in_place_max_over_any_axes(shape, axis, special):
    rng = np.random.default_rng(23)
    lhs = _batch(rng, shape)
    rhs = lhs + _batch(rng, shape) * 10.0 ** rng.integers(-16, 1, size=shape)
    if lhs.size:
        _plant(lhs, axis, special)
        _plant(rhs, axis, [-v for v in special])
    with np.errstate(invalid="ignore"):
        assert _worst(lhs, rhs, axis) == _worst_in_place(lhs, rhs, axis)
        assert _worst(lhs, 0.0, axis) == _worst_in_place(lhs, 0.0, axis)


# Finite entries around the unit floor of the scale, far above it and at the edges
# of the doubles; the other side differs from them by a gap that is often 0.
_ENTRIES = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1e6, -1e6, 5e-324, 1.7e308])
_GAPS = st.sampled_from([0.0, 1e-9, 0.5]) | st.floats(-1.0, 1.0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data(), hnp.array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=4),
       st.sampled_from([None, math.nan, math.inf, -math.inf]))
def test_worst_matches_the_in_place_max_on_any_batch(data, shape, special):
    ndim = len(shape)
    axis = data.draw(st.none() | st.integers(-ndim, ndim - 1) | st.lists(
        st.integers(0, ndim - 1), min_size=1, max_size=ndim, unique=True).map(tuple))
    axes = () if axis is None else (axis,) if isinstance(axis, int) else axis
    shape = tuple(max(n, 1) if a in axes or a - ndim in axes else n for a, n in enumerate(shape))
    # fill=nothing() draws every entry, where hypothesis would repeat one fill value.
    lhs = data.draw(hnp.arrays(float, shape, elements=_ENTRIES, fill=st.nothing()))
    rhs = lhs + data.draw(hnp.arrays(float, shape, elements=_GAPS, fill=st.nothing()))
    if special is not None and lhs.size:
        lhs.flat[data.draw(st.integers(0, lhs.size - 1))] = special
    with np.errstate(invalid="ignore", over="ignore"):
        assert _worst(lhs, rhs, axis) == _worst_in_place(lhs, rhs, axis)


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


def test_frame_identities_catch_a_planted_frame_fault(monkeypatch):
    u, axes, delta = verify._frame_draw(np.random.default_rng(29), 200)
    assert verify._check_frame_identities(u, axes, delta) < 1e-14
    real_frame4 = verify.frame4
    # The frame quadruple built without its aligning rotation.
    monkeypatch.setattr(verify, "frame4",
                        lambda xp, q, align, d: real_frame4(xp, q, (1.0, 0.0, 0.0, 0.0), d))
    assert verify._check_frame_identities(u, axes, delta) > 1e-3
    monkeypatch.undo()
    # n' left where it was, not turned by the frame.
    monkeypatch.setattr(verify, "turned3", lambda xp, w, c, n: n)
    assert verify._check_frame_identities(u, axes, delta) > 1e-3


def test_frame_symmetry_catches_a_turn_taken_the_wrong_way(monkeypatch):
    # O(hat w D hat u^-1) n = n for any turn D, so only the B half of the check sees
    # its sign. The check's own draw of 1000 samples.
    index, (*_, draw, body) = next((i, c) for i, c in enumerate(verify._SUITES["ks"])
                                   if c[0] == "frame_symmetry_transport")
    inputs = draw(np.random.default_rng([42, index]), 1000)
    assert body(*inputs) < 1e-14
    real = verify.symmetry4
    # turn4(xp, wn, delta) in place of turn4(xp, wn, -delta).
    monkeypatch.setattr(verify, "symmetry4", lambda xp, u, w, delta: real(xp, u, w, -delta))
    assert body(*inputs) > 1e-3


def test_canonical_gauges_with_every_sample_singular():
    # Both spinors lie inside the constructors' singular guard: nothing to compare.
    psi = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    assert verify._check_canonical_gauges(psi) == 0.0


def test_s_no_su2_preimage_needs_the_certificate_margin(monkeypatch):
    real = verify.s_outside_su2_image
    # The certificate of S without its margin.
    monkeypatch.setattr(verify, "s_outside_su2_image",
                        lambda: dataclasses.replace(real(), residual=0.1))
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


# Verdict sides: a worst residual equal to its tolerance passes ("at most").
def test_a_check_whose_worst_equals_its_tolerance_passes():
    result = run_suite("so4", 1000, 42, tolerance=0.0).result("cartan_reflection_parity")
    assert (result.max_residual, result.passed) == (0.0, True)


def test_a_replay_whose_worst_equals_its_tolerance_passes():
    report = verify.replay_fixtures(generate_fixtures(35, 1), 0.0)
    assert (report.checks[0].max_residual, report.passed) == (0.0, True)


def test_stabilizer_identity_holds_a_landing_exactly_1e9_off(monkeypatch):
    psi = np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.0, 0.8, 0.0]])
    for off, want in ((1e-9, 0.0), (np.nextafter(1e-9, 1.0), 1.0)):
        monkeypatch.setattr(verify, "stabilizer_solve",
                            lambda q, sign: (sign, np.full(len(q[0]), off), 0.0, 0.0))
        assert verify._check_stabilizer(psi) == want
