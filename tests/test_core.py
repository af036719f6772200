import ast
import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
import spinorspace
from spinorspace import (
    IDENTITY_ROTATION,
    KSQuadruple,
    ParabolicPoint,
    SphericalPoint,
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
from spinorspace.core import FLOATS, finite_vector, pow2_scaled, pow2_shift, qmul, unit4

SQRT2 = math.sqrt(2.0)


def test_spinor_from_quadruple_frozen():
    s = spinor_from_quadruple(KSQuadruple(0.0, 1.0, 0.0, 1.0))
    assert s.c1 == 1.0 + 0.0j and s.c2 == 1.0 + 0.0j
    z = spinor_from_quadruple(KSQuadruple(0.0, 0.0, 0.0, 0.0))
    assert z.c1 == 0.0 and z.c2 == 0.0
    s = spinor_from_quadruple(KSQuadruple(1.0, 0.0, 0.0, 0.0))
    assert s.c1 == 0.0 and s.c2 == 1.0j


def test_quadruple_from_spinor_frozen():
    assert quadruple_from_spinor(Spinor(1.0 + 0.0j, 1.0 + 0.0j)).as_tuple() == (0.0, 1.0, 0.0, 1.0)
    assert quadruple_from_spinor(Spinor(SQRT2 + 0.0j, 0.0j)).as_tuple() == (0.0, SQRT2, 0.0, 0.0)


def test_bijection_round_trip_exact():
    # component shuffling only, so the round trip is bitwise
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = KSQuadruple(*rng.normal(size=4))
        assert quadruple_from_spinor(spinor_from_quadruple(q)).as_tuple() == q.as_tuple()
        s = Spinor(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        back = spinor_from_quadruple(quadruple_from_spinor(s))
        assert back.c1 == s.c1 and back.c2 == s.c2


def test_su2_matrix_frozen():
    assert np.array_equal(su2_matrix(IDENTITY_ROTATION), np.eye(2, dtype=complex))
    assert np.array_equal(su2_matrix(SpinorRotation(0.0, 0.0, 0.0, 1.0)),
                          np.array([[-1.0j, 0.0], [0.0, 1.0j]]))
    assert np.array_equal(su2_matrix(SpinorRotation(0.0, 0.0, 1.0, 0.0)),
                          np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))


def test_su2_matrix_is_pauli_sum():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = oracles.haar_quadruple(rng)
        diff = su2_matrix(SpinorRotation(*v)) - oracles.b_matrix(*v)
        assert float(np.max(np.abs(diff))) <= 1e-15


def test_su2_matrix_unitary_det_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        b = su2_matrix(SpinorRotation(*oracles.haar_quadruple(rng)))
        assert float(np.max(np.abs(b @ b.conj().T - np.eye(2)))) <= 1e-15
        assert abs(np.linalg.det(b) - 1.0) <= 1e-15


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(2)
    eye = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(100):
        r = SpinorRotation(*oracles.haar_quadruple(rng))
        assert scaled_residual(np.array(compose(IDENTITY_ROTATION, r).as_tuple()),
                               np.array(r.as_tuple())) <= 1e-15
        assert scaled_residual(np.array(compose(r, IDENTITY_ROTATION).as_tuple()),
                               np.array(r.as_tuple())) <= 1e-15
        assert scaled_residual(np.array(compose(r, conjugate(r)).as_tuple()), eye) <= 1e-15
        assert scaled_residual(np.array(compose(conjugate(r), r).as_tuple()), eye) <= 1e-15


def test_compose_matches_matrix_product():
    """The quaternion formula against plain complex 2x2 multiplication."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = SpinorRotation(*oracles.haar_quadruple(rng))
        b = SpinorRotation(*oracles.haar_quadruple(rng))
        left = su2_matrix(compose(a, b))
        right = oracles.b_matrix(*a.as_tuple()) @ oracles.b_matrix(*b.as_tuple())
        assert float(np.max(np.abs(left - right))) <= 1e-13


def test_compose_associative():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b, c = (SpinorRotation(*oracles.haar_quadruple(rng)) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert scaled_residual(np.array(left.as_tuple()), np.array(right.as_tuple())) <= 1e-14


def test_wrap_4pi_window():
    assert wrap_4pi(0.0) == 0.0
    assert wrap_4pi(2.0 * math.pi) == 2.0 * math.pi
    assert wrap_4pi(-2.0 * math.pi) == 2.0 * math.pi
    assert wrap_4pi(4.0 * math.pi) == 0.0
    assert abs(wrap_4pi(5.0 * math.pi) - math.pi) <= 1e-14
    assert abs(wrap_4pi(-5.0 * math.pi) + math.pi) <= 1e-14
    for k in range(-20, 21):
        v = wrap_4pi(0.37 * k)
        assert -2.0 * math.pi < v <= 2.0 * math.pi


def test_wrap_4pi_on_arrays_matches_each_entry():
    rng = np.random.default_rng(47)
    edges = [0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi, -4.0 * math.pi,
             1e300, -1e300, 1.7e308, -1.7e308, 5e-324, -5e-324]
    angles = np.concatenate([rng.uniform(-50.0, 50.0, 2000), edges,
                             rng.normal(size=500) * 10.0 ** rng.uniform(-300.0, 300.0, 500)])
    got = wrap_4pi(angles)
    want = [wrap_4pi(a) for a in angles.tolist()]
    assert got.dtype == np.float64
    assert got.tolist() == want
    assert np.signbit(got).tolist() == [math.copysign(1.0, a) < 0.0 for a in want]


def test_wrap_4pi_is_the_identity_on_its_window():
    # fmod and the -+4pi shift are exact, so an angle in (-2pi, 2pi] keeps every bit.
    two_pi = 2.0 * math.pi
    angles = np.random.default_rng(48).uniform(-two_pi, two_pi, 100_000)
    edges = [two_pi, np.nextafter(-two_pi, 0.0), math.pi, -math.pi, 0.0, -0.0,
             1e-300, -1e-300, 5e-324, -5e-324]
    angles = np.concatenate([angles[angles > -two_pi], edges])
    scalars = [wrap_4pi(a) for a in angles.tolist()]
    assert scalars == angles.tolist()
    assert [math.copysign(1.0, a) for a in scalars] == np.copysign(1.0, angles).tolist()
    assert {type(a) for a in scalars} == {float}
    got = wrap_4pi(angles)
    assert got.tolist() == angles.tolist()
    assert np.signbit(got).tolist() == np.signbit(angles).tolist()
    assert wrap_4pi(-1e-300) == -1e-300


def test_wrap_4pi_names_a_nonfinite_angle():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^angle must be finite, got {bad!r}$"):
            wrap_4pi(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^angle must be finite, got {bad!r}$"):
                wrap_4pi(np.array([0.5, bad, 1.0]))


def test_constructors_reject_nonfinite():
    with pytest.raises(ValueError):
        Spinor(complex(float("nan"), 0.0), 0.0j)
    with pytest.raises(ValueError):
        KSQuadruple(float("inf"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SpinorRotation(float("nan"), 0.0, 0.0, 0.0)


# The five validated value types: Python-float arguments that construction keeps
# bit for bit, the same values as ints and np.float64 (signed zeros included), a
# rejected argument list, its message, and a field whose replacement gets that message.
_VALUE_TYPES = [
    (Spinor, (complex(1.0, 0.0), complex(-0.0, 0.0)), (1, np.float64(-0.0)),
     (complex(math.nan, 0.0), 0.0j), r"^spinor components must be finite$", {"c1": math.nan}),
    (KSQuadruple, (-0.0, 1.0, 0.1, -2.0), (np.float64(-0.0), 1, np.float64(0.1), -2),
     (0.0, 0.0, 0.0, math.inf), r"^quadruple entries must be finite$", {"q2": math.inf}),
    (SpinorRotation, (1.0, -0.0, 0.0, -0.0), (1, np.float64(-0.0), 0, np.float64(-0.0)),
     (2.0, 0.0, 0.0, 0.0), r"^rotation parameters must be unit norm, got norm 2.0$",
     {"c4": 2.0}),
    (SphericalPoint, (2.0, 0.0, -0.0), (2, 0, np.float64(-0.0)),
     (2.0, 4.0, 0.0), r"^polar angle must lie in \[0, pi\], got 4.0$", {"theta": 4.0}),
    (ParabolicPoint, (0.0, 1.5, -1.0), (0, np.float64(1.5), -1),
     (1.0, -1.0, 0.0), r"^parabolic parameters must be finite and nonnegative$", {"M": -1.0}),
]


def _field_bits(value) -> list:
    parts = [value.real, value.imag] if type(value) is complex else [value]
    return [type(value).__name__] + [p.hex() for p in parts]


@pytest.mark.parametrize("cls, args, mixed, bad, message, bad_field", _VALUE_TYPES,
                         ids=[row[0].__name__ for row in _VALUE_TYPES])
def test_value_type_contract(monkeypatch, cls, args, mixed, bad, message, bad_field):
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == tuple(names)
    value = cls(*args)
    fields = tuple(getattr(value, name) for name in names)
    assert [_field_bits(v) for v in fields] == [_field_bits(v) for v in args]
    # Positional and keyword arguments, ints and np.float64 give the same fields,
    # each a Python float or complex with the bits of the float arguments.
    for other in (cls(**dict(zip(names, args))), cls(*mixed), cls(**dict(zip(names, mixed)))):
        assert [_field_bits(getattr(other, name)) for name in names] == [
            _field_bits(v) for v in fields]
    with pytest.raises(ValueError, match=message):
        cls(*bad)
    # dataclasses.replace goes through the constructor, so it revalidates.
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(value, **bad_field)
    assert dataclasses.replace(value) == value
    # What the dataclass machinery generates is unchanged.
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={v!r}" for name, v in zip(names, fields)) + ")"
    assert value == cls(*args) and value != fields
    assert hash(value) == hash(fields) == hash(cls(*mixed))
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and repr(twin) == repr(value) and twin == value
    match value:
        case cls(first, second):
            assert (first, second) == fields[:2]
        case _:
            pytest.fail("a class pattern does not match")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], fields[0])
    assert not hasattr(value, "__dict__")
    # The traced benchmark times a value type by wrapping cls.__post_init__: the
    # wrapper must see exactly one call per construction, rejected ones included.
    hook = vars(cls)["__post_init__"]
    seen = []

    def counting(self, *a, **k):
        seen.append(a)
        return hook(self, *a, **k)

    monkeypatch.setattr(cls, "__post_init__", counting)
    assert cls(*args) == value and len(seen) == 1
    assert cls(**dict(zip(names, mixed))) == value and len(seen) == 2
    assert dataclasses.replace(value) == value and len(seen) == 3
    with pytest.raises(ValueError):
        cls(*bad)
    assert len(seen) == 4


def test_angle_value_rejects_nonfinite():
    # wrap_4pi(inf) has no value; angle_value must reject it rather than pass it on.
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="sweep angle"):
            angle_value(bad, "sweep angle")
    assert angle_value(5.0 * math.pi) == wrap_4pi(5.0 * math.pi)


_PSI = Spinor(1.0 + 0.0j, 0.0j)
_Q = KSQuadruple(0.3, 0.5, -0.4, 0.2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call, name", [
    (lambda a: spinorspace.phase_rotate(_PSI, a), "phase alpha"),
    (spinorspace.axis_phase, "axis phase delta"),
    (lambda a: spinorspace.gauge_plus(_PSI, a), "gauge phase"),
    (lambda a: spinorspace.gauge_minus(_PSI, a), "gauge phase"),
    (lambda a: spinorspace.build_frame(_Q, (0.0, 0.0, 1.0), a), "frame delta"),
    (lambda a: spinorspace.frame_symmetry(_Q, _Q, a), "frame delta"),
    (lambda a: spinorspace.rotation_from_axis_angle((0.0, 0.0, 1.0), a), "rotation angle"),
    (lambda a: spinorspace.elementary_so4("2-3", a), "plane angle"),
], ids=["phase_rotate", "axis_phase", "gauge_plus", "gauge_minus", "build_frame",
        "frame_symmetry", "rotation_from_axis_angle", "elementary_so4"])
def test_angle_parameters_reject_nonfinite(call, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call, name", [
    (lambda v: spinorspace.rotation_from_axis_angle(v, 1.0), "rotation axis"),
    (spinorspace.rotation_from_vector_parameter, "vector parameter"),
    (spinorspace.so3_from_vector_parameter, "vector parameter"),
    (spinorspace.psi_from_direction, "direction"),
    (lambda v: spinorspace.build_frame(_Q, v), "frame axis"),
    (spinorspace.xi_from_cartesian, "cartesian point"),
    (spinorspace.eta_from_cartesian, "cartesian point"),
    (lambda v: spinorspace.rotated_direction(_Q, IDENTITY_ROTATION, v), "direction"),
], ids=["rotation_from_axis_angle", "rotation_from_vector_parameter",
        "so3_from_vector_parameter", "psi_from_direction", "build_frame",
        "xi_from_cartesian", "eta_from_cartesian", "rotated_direction"])
def test_vector_parameters_reject_nonfinite(call, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call((bad, 0.0, 0.0))


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(spinorspace.__path__) if m.name != "__main__"))
def test_all_names_resolve(module):
    mod = importlib.import_module(f"spinorspace.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("path", sorted(Path(spinorspace.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_module_imports_private_names(path):
    # Each step has one owner: a module reaches another only through its
    # non-underscore names.
    private = [f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_module_exports_make_up_the_package():
    # The package star-imports its modules, so their __all__ lists must not
    # overlap, and together they are its public names.
    modules = [importlib.import_module(f"spinorspace.{m.name}")
               for m in pkgutil.iter_modules(spinorspace.__path__) if m.name != "__main__"]
    declared = Counter(name for mod in modules for name in getattr(mod, "__all__", ()))
    assert [name for name, count in declared.items() if count > 1] == []
    public = {name for name, value in vars(spinorspace).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(declared) == public
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert getattr(spinorspace, name) is getattr(mod, name), name


@pytest.mark.parametrize("call, flag", [
    (lambda: spinorspace.xi_from_cartesian((1.0, 2.0, 3.0), 0), "sheet"),
    (lambda: spinorspace.cartan_reflect(Spinor(1.0, 0.0), 2), "delta"),
    (lambda: spinorspace.stabilizer_check(Spinor(1.0, 0.0), 0), "sign"),
], ids=["sheet", "delta", "sign"])
def test_sign_flags_name_the_flag(call, flag):
    with pytest.raises(ValueError, match=rf"^{flag} must be \+1 or -1, got "):
        call()


# Each public entry point that takes a 3-vector, with the name its error gives it.
_VECTOR_ENTRIES = [
    (spinorspace.xi_from_cartesian, "cartesian point"),
    (spinorspace.eta_from_cartesian, "cartesian point"),
    (spinorspace.psi_from_direction, "direction"),
    (spinorspace.so3_from_vector_parameter, "vector parameter"),
    (spinorspace.rotation_from_vector_parameter, "vector parameter"),
    (lambda v: spinorspace.rotation_from_axis_angle(v, 0.3), "rotation axis"),
    (lambda v: spinorspace.build_frame(_Q, v, 0.4), "frame axis"),
    (lambda v: spinorspace.rotated_direction(_Q, IDENTITY_ROTATION, v), "direction"),
]


@pytest.mark.parametrize("bad", [
    [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], np.array([[1.0, 0.0, 0.0]]), np.array([[1.0], [0.0], [0.0]]),
    [[1.0], [0.0], [0.0]], [[1.0, 2.0], [3.0], 4.0], [1j, 0.0, 0.0],
], ids=["two", "four", "row", "column", "nested", "ragged", "complex"])
@pytest.mark.parametrize("call, name", _VECTOR_ENTRIES,
                         ids=["xi", "eta", "psi", "so3-chart", "chart", "axis-angle", "frame",
                              "rotated-direction"])
def test_vectors_of_the_wrong_shape_name_the_input(call, name, bad):
    with pytest.raises(ValueError, match=rf"^{name} must have three entries, got \["):
        call(bad)


def test_finite_vector_reads_three_floats_with_their_bits():
    # Signed zeros, a subnormal and numpy scalars come back as Python floats, bit for bit.
    cases = [
        ((-0.0, 0.0, 5e-324), (-0.0, 0.0, 5e-324)),
        ([np.float32(0.1), np.int64(-3), -1e308], (float(np.float32(0.1)), -3.0, -1e308)),
        (np.array([-0.0, -5e-324, 1.7e308]), (-0.0, -5e-324, 1.7e308)),
        (np.array([0.1, -0.0, 2.0], dtype=np.float32), (float(np.float32(0.1)), -0.0, 2.0)),
        (np.array([7, -1, 0], dtype=np.int64), (7.0, -1.0, 0.0)),
    ]
    for v, want in cases:
        got = finite_vector(v, "v")
        assert type(got) is tuple and {type(x) for x in got} == {float}
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]


def test_rotation_norm_gate():
    with pytest.raises(ValueError):
        SpinorRotation(1.0, 1.0, 0.0, 0.0)
    # sub-slack deviations are silently renormalized
    r = SpinorRotation(1.0 + 1e-8, 0.0, 0.0, 0.0)
    assert abs(r.c4 - 1.0) <= 1e-15
    norm = math.sqrt(sum(v * v for v in r.as_tuple()))
    assert abs(norm - 1.0) <= 1e-15


def test_unit4_is_the_rotation_normalization():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        v = rng.normal(size=4)
        v = (v / np.linalg.norm(v) * (1.0 + rng.uniform(-9e-7, 9e-7))).tolist()
        assert unit4(FLOATS, *v) == SpinorRotation(*v).as_tuple()
        w = oracles.haar_quadruple(rng).tolist()
        assert compose(SpinorRotation(*v), SpinorRotation(*w)) == SpinorRotation(
            *qmul(unit4(FLOATS, *v), unit4(FLOATS, *w)))
    with pytest.raises(ValueError, match="unit norm, got norm 2.0"):
        unit4(FLOATS, 2.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="unit norm, got norm nan"):
        unit4(FLOATS, math.nan, 0.0, 0.0, 0.0)


def test_pow2_scaled_is_exact():
    assert pow2_scaled((0.0, -0.0)) == (0.0, -0.0)
    assert math.copysign(1.0, pow2_scaled((0.0, -0.0))[1]) == -1.0
    assert pow2_shift((0.0, -0.0)) == 0
    assert pow2_scaled((3.0, -1.0, 0.0)) == (0.75, -0.25, 0.0)
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = tuple((rng.normal(size=4) * 10.0 ** rng.uniform(-300.0, 300.0)).tolist())
        scaled = pow2_scaled(v)
        assert 0.5 <= max(map(abs, scaled)) < 1.0
        shift = math.frexp(max(map(abs, v)))[1]
        assert pow2_shift(v) == -shift
        assert tuple(math.ldexp(x, shift) for x in scaled) == v


def test_norm_sq_accessors():
    s = Spinor(3.0 + 4.0j, 0.0j)
    assert s.norm_sq == 25.0
    q = KSQuadruple(1.0, 2.0, 3.0, 4.0)
    assert q.norm_sq == 30.0
    assert np.array_equal(q.as_array(), np.array([1.0, 2.0, 3.0, 4.0]))


def test_tolerance_and_scaled_residual():
    assert scaled_residual(1.0, 1.0) == 0.0
    # normalization kicks in only above unit magnitude
    assert scaled_residual(2e6, 1e6) == 0.5
    assert scaled_residual(np.zeros(3), np.zeros(3)) == 0.0
    assert scaled_residual(np.zeros(0), np.zeros(0)) == 0.0
    assert scaled_residual(np.array([1.0, 2.0]), 1.0) == 0.5
    assert math.isnan(scaled_residual([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))
    assert math.isnan(scaled_residual([math.inf, 0.0], [1.0, 0.0]))
