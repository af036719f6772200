import ast
import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from spinorspace.core import (FLOATS, MINUS_IDENTITY, EtaProjection, finite_vector, integer_value,
                              pow2_scaled, pow2_shift, qmul, quadruple_of, rotation_of, spinor_of,
                              unit4)
from spinorspace.gauge_fixing import CanonicalGauge
from spinorspace.ks_covariance import KSFrame
from spinorspace.fixtures import construct, fixture_record

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
def test_value_type_contract(cls, args, mixed, bad, message, bad_field):
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


# Each number argument of the five class calls: the class, Python-float arguments it
# takes, the argument's position, and the name the reader gives it.
_NUMBER_ARGUMENTS = [
    (Spinor, (0.5j, -0.25 + 0.0j), 0, "spinor component"),
    (Spinor, (0.5j, -0.25 + 0.0j), 1, "spinor component"),
    (KSQuadruple, (0.0, -0.0, 0.5, 2.0), 0, "quadruple entry"),
    (KSQuadruple, (0.0, -0.0, 0.5, 2.0), 3, "quadruple entry"),
    (SpinorRotation, (0.0, 0.0, 0.0, 0.0), 0, "rotation parameter"),
    (SpinorRotation, (0.0, 0.0, 0.0, 0.0), 2, "rotation parameter"),
    (SphericalPoint, (2.0, 1.0, 0.5), 0, "radius"),
    (SphericalPoint, (2.0, 1.0, 0.5), 1, "polar angle"),
    (ParabolicPoint, (1.0, 0.5, 0.5), 0, "parabolic parameter N"),
    (ParabolicPoint, (1.0, 0.5, 0.5), 1, "parabolic parameter M"),
]


@pytest.mark.parametrize("cls, args, at, name", _NUMBER_ARGUMENTS,
                         ids=[f"{row[0].__name__}-{row[2]}" for row in _NUMBER_ARGUMENTS])
def test_class_calls_read_numbers_through_one_reader(cls, args, at, name):
    # float() and complex() parse a str, and float() bytes: the class call refuses both,
    # naming the argument. Every other number is kind(part), with its bits.
    kind = complex if cls is Spinor else float
    word = "complex" if cls is Spinor else "real"
    for text in ("1", b"1", "1+2j"):
        message = f"{name} must be a {word} number, got {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*args[:at], text, *args[at + 1:])
    field = dataclasses.fields(cls)[at].name
    for part in (1, np.int64(1), np.float64(1.0), True, np.float64(-0.0)):
        if cls is SpinorRotation and part == 0.0:
            continue  # a rotation of norm 0 is refused
        value = getattr(cls(*args[:at], part, *args[at + 1:]), field)
        assert _field_bits(value) == _field_bits(kind(part))


def test_angle_value_rejects_nonfinite():
    # wrap_4pi(inf) has no value; angle_value must reject it rather than pass it on.
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="sweep angle"):
            angle_value(bad, "sweep angle")
    assert angle_value(5.0 * math.pi) == wrap_4pi(5.0 * math.pi)


_PSI = Spinor(1.0 + 0.0j, 0.0j)
_Q = KSQuadruple(0.3, 0.5, -0.4, 0.2)


# Each public entry point that takes an angle, with the name its error gives it.
_ANGLE_ENTRIES = [
    (lambda a: spinorspace.phase_rotate(_PSI, a), "phase alpha"),
    (spinorspace.axis_phase, "axis phase delta"),
    (lambda a: spinorspace.gauge_plus(_PSI, a), "gauge phase"),
    (lambda a: spinorspace.gauge_minus(_PSI, a), "gauge phase"),
    (lambda a: spinorspace.build_frame(_Q, (0.0, 0.0, 1.0), a), "frame delta"),
    (lambda a: spinorspace.frame_symmetry(_Q, _Q, a), "frame delta"),
    (lambda a: spinorspace.rotation_from_axis_angle((0.0, 0.0, 1.0), a), "rotation angle"),
    (lambda a: spinorspace.elementary_so4("2-3", a), "plane angle"),
    (lambda a: spinorspace.psi_from_direction((0.0, 0.0, 1.0), a), "phase gamma"),
    (lambda a: SphericalPoint(1.0, 0.5, a), "azimuth phi"),
]
_ANGLE_IDS = ["phase_rotate", "axis_phase", "gauge_plus", "gauge_minus", "build_frame",
              "frame_symmetry", "rotation_from_axis_angle", "elementary_so4",
              "psi_from_direction", "SphericalPoint"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call, name", _ANGLE_ENTRIES, ids=_ANGLE_IDS)
def test_angle_parameters_reject_nonfinite(call, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(bad)


@pytest.mark.parametrize("text", ["0.3", b"0.3", "nan"])
@pytest.mark.parametrize("call, name", _ANGLE_ENTRIES, ids=_ANGLE_IDS)
def test_angle_parameters_refuse_strings(call, name, text):
    # float() parses a str or bytes, so the reader refuses them before it converts.
    message = f"{name} must be a real number, got {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(text)


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


def _scale_floors(path) -> list:
    """The max or maximum calls of a module with the float 1.0 among their arguments:
    max(1.0, ...) and np.maximum(..., 1.0), the floor of a residual's scale."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("max", "maximum")
            and any(isinstance(arg, ast.Constant) and arg.value == 1.0
                    and type(arg.value) is float for arg in node.args)]


def test_only_core_forms_the_residual_scale_floor():
    # One owner for the scaled residual: every other module calls core's forms.
    floors = {path.stem: _scale_floors(path)
              for path in sorted(Path(spinorspace.__file__).parent.glob("*.py"))}
    assert [stem for stem, calls in floors.items() if calls] == ["core"]


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


@pytest.mark.parametrize("call, flag, value", [
    (lambda v: spinorspace.xi_from_cartesian((1.0, 2.0, 3.0), v), "sheet", np.True_),
    (lambda v: spinorspace.xi_from_cartesian((1.0, 2.0, 3.0), v), "sheet", -1.0),
    (lambda v: spinorspace.eta_from_cartesian((1.0, 2.0, 3.0), v), "sheet", 1.0),
    (lambda v: fixture_record("cartesian", (0.3, -0.4, 0.5), "xi", v), "sheet", np.True_),
    (lambda v: fixture_record("spherical", (1.0, 0.5, 0.2), "eta", v), "sheet", -1.0),
    (lambda v: fixture_record("cartesian", (0.3, -0.4, 0.5), "eta", v), "sheet", 1.0),
    (lambda v: spinorspace.cartan_reflect(Spinor(1.0, 0.0), v), "delta", np.True_),
    (lambda v: spinorspace.stabilizer_check(Spinor(1.0, 0.0), v), "sign", 1.0),
], ids=["xi-numpy-bool", "xi-minus-float", "eta-plus-float", "record-numpy-bool",
        "record-minus-float", "record-plus-float", "delta-numpy-bool", "sign-float"])
def test_sign_flags_are_integers(call, flag, value):
    # A numpy bool or a float is no more a sign than True is.
    message = rf"^{flag} must be \+1 or -1, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def test_numpy_integer_flags_are_taken():
    for sheet in (1, -1):
        for maker in (spinorspace.xi_from_cartesian, spinorspace.eta_from_cartesian):
            assert maker((0.3, -0.4, 0.5), np.int64(sheet)) == maker((0.3, -0.4, 0.5), sheet)
        record = fixture_record("cartesian", (0.3, -0.4, 0.5), "xi", np.int8(sheet))
        assert type(record["sheet"]) is int and record["sheet"] == sheet
    psi = Spinor(0.6, 0.8j)
    assert spinorspace.cartan_reflect(psi, np.int32(-1)) == spinorspace.cartan_reflect(psi, -1)
    assert spinorspace.stabilizer_check(psi, np.int64(-1)) is MINUS_IDENTITY


@pytest.mark.parametrize("value", [True, False, np.True_, 1.0, 2.5, "7", b"7", None, 1 + 0j],
                         ids=["true", "false", "numpy-bool", "integral-float", "float", "str",
                              "bytes", "none", "complex"])
def test_integer_value_refuses_what_is_not_an_integer(value):
    message = rf"^count must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        integer_value(value, "count")


def test_integer_value_takes_ints_and_numpy_integers():
    for value in (0, -3, 2**70, np.int64(-3), np.uint8(200), np.int8(-1)):
        got = integer_value(value, "count")
        assert type(got) is int and got == value


@pytest.mark.parametrize("call, message", [
    (lambda: SpinorRotation(2.0, 0.0, 0.0, 0.0), "rotation parameters must be unit norm"),
    (lambda: spinorspace.psi_from_direction((2.0, 0.0, 0.0)), "direction must be a unit vector"),
    (lambda: spinorspace.gauge_plus(Spinor(2.0, 0.0)), "gauge_plus requires a unit spinor"),
    (lambda: spinorspace.gauge_minus(Spinor(2.0, 0.0)), "gauge_minus requires a unit spinor"),
    (lambda: spinorspace.canonical_phase_plus(Spinor(2.0, 0.0)),
     "canonical_phase_plus requires a unit spinor"),
    (lambda: spinorspace.canonical_phase_minus(Spinor(2.0, 0.0)),
     "canonical_phase_minus requires a unit spinor"),
    (lambda: spinorspace.rotation_between(Spinor(1.0, 0.0), Spinor(2.0, 0.0)),
     "rotation_between requires a unit spinor"),
], ids=["rotation", "direction", "gauge-plus", "gauge-minus", "canonical-plus",
        "canonical-minus", "between"])
def test_unit_norm_checks_name_the_input(call, message):
    # One check, core.unit4, behind every message.
    with pytest.raises(ValueError, match=rf"^{message}, got norm 2.0$"):
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


@pytest.mark.parametrize("text", ["123", b"123", "001", b"0\x00\x01"])
@pytest.mark.parametrize("call, name", _VECTOR_ENTRIES,
                         ids=["xi", "eta", "psi", "so3-chart", "chart", "axis-angle", "frame",
                              "rotated-direction"])
def test_vectors_refuse_strings(call, name, text):
    # A 3-character str unpacks into digits that float() parses, and bytes into byte codes.
    message = f"{name} must have three entries, got {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(text)


@pytest.mark.parametrize("entries, text", [
    (("1", 0, 0), "1"), ((0.0, b"2", 0.0), b"2"), ([0, 0, "3"], "3"),
    (np.array(["1", "2", "3"]), "1"), ((np.float64(1.0), "1e3", 0), "1e3"),
], ids=["first", "bytes", "last", "array", "numpy-first"])
@pytest.mark.parametrize("call, name", _VECTOR_ENTRIES,
                         ids=["xi", "eta", "psi", "so3-chart", "chart", "axis-angle", "frame",
                              "rotated-direction"])
def test_vector_entries_refuse_strings(call, name, entries, text):
    # float() would parse each entry; the vector's reader refuses it, naming the vector.
    message = f"{name} entry must be a real number, got {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(entries)


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
    assert scaled_residual([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]) == math.inf
    assert scaled_residual([math.inf, 0.0], [1.0, 0.0]) == math.inf



def test_scaled_residual_broadcasts_an_empty_side_as_numpy_does():
    # An empty batch scores 0 only where numpy broadcasts the other side to it.
    assert scaled_residual(np.zeros(0), 1.0) == scaled_residual([1.0], []) == 0.0
    with pytest.raises(ValueError, match="broadcast"):
        scaled_residual([], [1.0, 2.0])

# Pairs of tuples, of Python floats and of other numbers: each scores as its arrays do.
_TUPLE_PAIRS = {
    "floats": ((1.0, 2.0, -3.0), (1.0, 2.5, -3.0)),
    "large": ((3e300, -1e300), (1e300, 1e300)),
    "nan first": ((math.nan, 0.0), (1.0, 0.0)),
    "nan last": ((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, math.nan)),
    "inf": ((1.0, math.inf), (1.0, 1.0)),
    "-inf both": ((-math.inf,), (-math.inf,)),
    "signed zeros": ((0.0, -0.0), (-0.0, 0.0)),
    "ints": ((1, 2.0), (1.0, 2)),
    "bool": ((True, 0.0), (1.0, 0.0)),
    "numpy floats": ((np.float64(1.5), 0.0), (1.0, 0.0)),
    "broadcast": ((1.0,), (1.0, 3.0)),
    "length mismatch": ((1.0, 2.0), (1.0, 2.0, 3.0)),
    "empty": ((), ()),
}


@pytest.mark.parametrize("lhs, rhs", _TUPLE_PAIRS.values(), ids=_TUPLE_PAIRS.keys())
def test_scaled_residual_scores_tuples_as_arrays(lhs, rhs):
    def score(a, b):
        try:
            return scaled_residual(a, b).hex()
        except ValueError as exc:
            return type(exc)
    assert score(lhs, rhs) == score(np.array(lhs, dtype=float), np.array(rhs, dtype=float))


# ------------------------------------------------- builders and result types

_BUILDERS = {
    Spinor: (spinor_of, lambda p: Spinor(complex(p[0], p[1]), complex(p[2], p[3]))),
    KSQuadruple: (quadruple_of, lambda p: KSQuadruple(*p)),
    SpinorRotation: (rotation_of, lambda p: SpinorRotation(*p)),
}
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                 1.0, -1.0, 0.5, 1.7976931348623157e308, -1.7976931348623157e308,
                 math.inf, -math.inf, math.nan]
_DOUBLES = st.one_of(st.sampled_from(_EDGE_DOUBLES), st.floats())
# Quadruples of norm 1 to rounding, which a rotation takes, beside any four doubles.
_UNIT_PARTS = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda p: math.hypot(*p) > 0.0).map(
    lambda p: tuple(v / math.hypot(*p) for v in p))


def _built(make, parts):
    """The class and each field's type and bits (an int64 view, so signed zeros and NaN
    payloads count) of make(parts), or the type and message of what it raised."""
    try:
        value = make(parts)
    except Exception as exc:  # the builder must raise what the class call raises
        return type(exc), str(exc)
    fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return type(value), [(type(v), np.array([v.real, v.imag] if type(v) is complex else [v],
                                            dtype=float).view(np.int64).tolist()) for v in fields]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(parts=st.one_of(st.tuples(*[_DOUBLES] * 4), _UNIT_PARTS))
def test_builders_equal_the_class_call(parts):
    # Over the whole double range: equal fields bit for bit, the exact class, and the
    # same exception and message where the class call refuses the parts.
    for cls, (builder, class_call) in _BUILDERS.items():
        built = _built(builder, parts)
        assert built == _built(class_call, parts)
        assert built[0] is cls or built[0] is ValueError


_RESULTS = {
    EtaProjection: lambda: spinorspace.project_eta(
        spinorspace.eta_from_cartesian((0.3, -1.2, 0.7))),
    CanonicalGauge: lambda: spinorspace.canonical_phase_minus(
        spinorspace.psi_from_direction((0.0, 0.6, 0.8), 0.5)),
    KSFrame: lambda: spinorspace.build_frame(_Q, (0.0, 0.6, 0.8), 0.4),
}


@pytest.mark.parametrize("cls", list(_RESULTS), ids=lambda cls: cls.__name__)
def test_result_types_behave_as_keyword_built_ones(cls):
    # The library builds each result positionally through its slot-setter __init__; a
    # keyword call on the same field objects must give the same value in every respect.
    value = _RESULTS[cls]()
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names and cls.__match_args__ == tuple(names)
    fields = [getattr(value, name) for name in names]
    twin = cls(**dict(zip(names, fields)))
    assert type(value) is type(twin) is cls and not hasattr(value, "__dict__")
    assert all(a is b for a, b in zip(fields, (getattr(twin, name) for name in names)))
    assert repr(value) == repr(twin) and value == value and twin == twin and value != twin
    assert hash(value) == object.__hash__(value) and hash(twin) == object.__hash__(twin)
    for other in (value, twin):
        for copied in (pickle.loads(pickle.dumps(other)), dataclasses.replace(other),
                       copy.copy(other), copy.deepcopy(other)):
            assert type(copied) is cls and repr(copied) == repr(value)
        match other:
            case cls(first):
                assert first is fields[0]
            case _:
                pytest.fail("a class pattern does not match")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(other, names[0], fields[0])
    assert repr(dataclasses.replace(value, **{names[-1]: fields[-1]})) == repr(value)


@pytest.mark.parametrize("cls", list(_RESULTS), ids=lambda cls: cls.__name__)
def test_result_types_compare_by_identity(cls):
    # Their fields include numpy arrays, whose == is elementwise: a result equals only
    # itself, and hashes by identity, so results can key a dict or fill a set.
    value, again = _RESULTS[cls](), _RESULTS[cls]()
    assert type(value) is cls and repr(value) == repr(again)
    assert value == value and value != again and not value == again
    assert len({value, again, value}) == 2 and {value: 1}[value] == 1


def _value_fields(result) -> list:
    """(path, field, its type, the type it must have) of every field of each Spinor,
    KSQuadruple and SpinorRotation in result, and of a KSFrame's or CanonicalGauge's floats."""
    if isinstance(result, (KSFrame, CanonicalGauge)):
        return [(f"{f.name}.{path}", *rest) for f in dataclasses.fields(result)
                for path, *rest in _value_fields(getattr(result, f.name))]
    if isinstance(result, (Spinor, KSQuadruple, SpinorRotation)):
        want = complex if type(result) is Spinor else float
        return [(f.name, type(getattr(result, f.name)), want) for f in dataclasses.fields(result)]
    return [("", type(result), float)] if isinstance(result, float) else []


def _public_results(v, a) -> dict:
    """Every public call that returns a value type, or one in a KSFrame or CanonicalGauge,
    on vectors v(...) and angles a(...) of one numpy kind; the value types they take are
    class calls on the same kind, and flags are numpy integers."""
    xi = spinorspace.xi_from_cartesian(v((1, -2, 3)))
    eta = spinorspace.eta_from_cartesian(v((1, -2, 3)))
    psi = spinorspace.psi_from_direction(v((0, 1, 0)), a(2))
    other = spinorspace.psi_from_direction(v((1, 0, 0)), a(-1))
    q, partner = KSQuadruple(*v((1, 2, -1, 3))), KSQuadruple(*v((3, -2, -1, 1)))
    rot = SpinorRotation(*v((0, 0, 1, 0)))
    spherical, parabolic = SphericalPoint(*v((2, 1, 3))), ParabolicPoint(*v((1, 2, -1)))
    sheet = np.int64(-1)
    return {
        "spinor_from_quadruple": spinorspace.spinor_from_quadruple(q),
        "quadruple_from_spinor": spinorspace.quadruple_from_spinor(xi),
        "compose": spinorspace.compose(rot, SpinorRotation(*v((0, 1, 0, 0)))),
        "conjugate": spinorspace.conjugate(rot),
        "xi_from_cartesian": spinorspace.xi_from_cartesian(v((1, -2, 3)), sheet),
        "eta_from_cartesian": spinorspace.eta_from_cartesian(v((0, 0, -2)), sheet),
        "xi_from_spherical": spinorspace.xi_from_spherical(spherical),
        "eta_from_spherical": spinorspace.eta_from_spherical(spherical),
        "xi_from_parabolic": spinorspace.xi_from_parabolic(parabolic),
        "eta_from_parabolic": spinorspace.eta_from_parabolic(parabolic),
        "phase_rotate": spinorspace.phase_rotate(xi, a(1)),
        "eta_from_xi": spinorspace.eta_from_xi(xi),
        "xi_from_eta": spinorspace.xi_from_eta(eta),
        "u_to_v": spinorspace.u_to_v(q),
        "cartan_reflect": spinorspace.cartan_reflect(xi, sheet),
        "rotation_from_vector_parameter": spinorspace.rotation_from_vector_parameter(v((1, -2, 3))),
        "rotate_spinor": spinorspace.rotate_spinor(rot, xi),
        "rotation_from_axis_angle": spinorspace.rotation_from_axis_angle(v((1, -2, 3)), a(1)),
        "axis_phase": spinorspace.axis_phase(a(1)),
        "psi_from_direction": psi,
        "gauge_plus": spinorspace.gauge_plus(psi, a(1)),
        "gauge_minus": spinorspace.gauge_minus(psi, a(1)),
        "canonical_phase_plus": spinorspace.canonical_phase_plus(psi),
        "canonical_phase_minus": spinorspace.canonical_phase_minus(psi),
        "rotation_between": spinorspace.rotation_between(psi, other),
        "stabilizer_check": spinorspace.stabilizer_check(psi, sheet),
        "normalize_ks": spinorspace.normalize_ks(q),
        "hat": spinorspace.hat(q),
        "rotation_from_unit_ks": spinorspace.rotation_from_unit_ks(KSQuadruple(*v((0, 1, 0, 0)))),
        "ks_from_rotation": spinorspace.ks_from_rotation(rot),
        "left_transport": spinorspace.left_transport(rot, q),
        "build_frame": spinorspace.build_frame(q, v((0, 1, 0)), a(1)),
        "frame_symmetry": spinorspace.frame_symmetry(q, spinorspace.hat(spinorspace.hat(q)), a(1)),
        "construct spherical": construct("spherical", v((2, 1, 3)), "eta", sheet),
        "construct parabolic": construct("parabolic", v((1, 2, -1)), "xi", sheet),
        "construct cartesian": construct("cartesian", v((1, -2, 3)), "xi", sheet),
    }


_NUMPY_KINDS = {
    "float64": (lambda t: tuple(map(np.float64, t)), np.float64),
    "int64": (lambda t: tuple(map(np.int64, t)), np.int64),
    "array": (lambda t: np.array(t, dtype=float), lambda x: np.array(float(x))),
}


@pytest.mark.parametrize("kind", list(_NUMPY_KINDS))
def test_numpy_inputs_give_exact_python_fields(kind):
    # A builder takes Python floats only and keeps the types it is given, so a site that
    # can meet numpy scalars must convert them or keep the class call: every field of a
    # returned value type is exactly float, or exactly complex for a Spinor.
    results = _public_results(*_NUMPY_KINDS[kind])
    fields = [(name, *field) for name, result in results.items() for field in _value_fields(result)]
    assert {field[0] for field in fields} == set(results)
    assert [field for field in fields if field[2] is not field[3]] == []


def test_value_types_are_built_by_the_builders():
    # A starred class call is the shape of a construction from computed parts, which the
    # builders serve; the one left is cli's rotation from argv, which argparse may hand
    # over as any real numbers.
    starred = []
    for path in sorted(Path(spinorspace.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in ("Spinor", "KSQuadruple", "SpinorRotation")
                    and any(isinstance(arg, ast.Starred) for arg in node.args)):
                starred.append(f"{path.stem}: {ast.unparse(node)}")
    assert starred == ["cli: SpinorRotation(*args.rotation)"]
