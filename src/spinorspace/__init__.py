"""Spatial spinors on the 4pi double cover.

Two-component spinor models of 3-space (pseudovector xi, vector eta), real
KS quadruples with their Hopf maps and quadratic constraints, the
SU(2)/SO(3)/SO(4) realizations of rotations, covariant KS frames, and
closed-form unitary gauge fixing, plus seeded verification suites and
golden-fixture tooling.
"""

from .core import (
    IDENTITY_ROTATION,
    EtaProjection,
    KSQuadruple,
    Spinor,
    SpinorRotation,
    angle_value,
    compose,
    conjugate,
    quadruple_from_spinor,
    scaled_residual,
    spinor_from_quadruple,
    su2_matrix,
    wrap_4pi,
)
from .spinor_maps import (
    ParabolicPoint,
    SphericalPoint,
    cartan_reflect,
    eta_from_cartesian,
    eta_from_parabolic,
    eta_from_spherical,
    eta_from_xi,
    eta_quadruple_projection,
    phase_rotate,
    project_eta,
    project_xi,
    u_to_v,
    xi_constraint_residual,
    xi_from_cartesian,
    xi_from_eta,
    xi_from_parabolic,
    xi_from_spherical,
)
from .rotation_algebra import (
    ELEMENTARY_PLANES,
    VECTOR_PARAMETER_LIMIT,
    FactorizationScan,
    NonMembershipCertificate,
    elementary_so4,
    extract_so3,
    linear_system_matrix,
    rotate_spinor,
    rotation_from_axis_angle,
    rotation_from_vector_parameter,
    s_factorization_check,
    s_matrix,
    s_outside_su2_image,
    so3_from_rotation,
    so3_from_vector_parameter,
    su2_real4,
    vector_parameter,
)
from .ks_covariance import (
    KSFrame,
    build_frame,
    direction_from_ks,
    frame_symmetry,
    hat,
    ks_from_rotation,
    left_transport,
    normalize_ks,
    rotated_direction,
    rotation_from_unit_ks,
)
from .gauge_fixing import (
    CanonicalGauge,
    SingularGaugeError,
    axis_phase,
    canonical_phase_minus,
    canonical_phase_plus,
    gauge_minus,
    gauge_plus,
    psi_from_direction,
    rotation_between,
    stabilizer_check,
)
from .verify import CheckResult, VerificationReport, replay_fixtures, run_all, run_suite
from .fixtures import (
    fixture_record,
    generate_fixtures,
    load_fixtures,
    replay_residual,
    write_fixtures,
)

__version__ = "0.1.0"
