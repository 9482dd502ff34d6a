"""The value classes are immutable records: fields, defaults, equality, hash and repr."""

import math

import numpy as np
import pytest

from uqi.channels import ChiMatrix, KrausChannel, ModeMixer, ObjectParams, chi_matrix, object_channel
from uqi.circuit import (
    BatchReadout,
    Gate,
    PipelineStages,
    hadamard,
    measurement_stack,
    pipeline_stages,
    prepare_probe,
    prepare_werner,
    run_batch,
)
from uqi.qcore import DEFAULT_WIRES, DensityMatrix, Register
from uqi.tomography import (
    ImageMaps,
    ObjectEstimate,
    ScanResult,
    SchmidtData,
    estimate_object,
    image_scan,
    operator_schmidt,
)

_MAPS = ImageMaps(np.full((1, 2), 0.5), np.zeros((1, 2)))

# class, a factory for one instance, and its fields in order
VALUE_CLASSES = [
    (Register, lambda: Register(DEFAULT_WIRES), ("wires",)),
    (DensityMatrix, prepare_probe, ("mat", "register")),
    (Gate, hadamard, ("name", "matrix")),
    (ObjectParams, lambda: ObjectParams(0.5, 0.3), ("t", "gamma")),
    (KrausChannel, lambda: object_channel(ObjectParams(0.5, 0.3)), ("kraus_ops",)),
    (ChiMatrix, lambda: chi_matrix(object_channel(ObjectParams(0.5, 0.3))), ("entries",)),
    (ModeMixer, ModeMixer, ()),
    (
        PipelineStages,
        lambda: pipeline_stages(prepare_probe(), [0.5], [0.3]),
        ("post_object", "post_mixer", "signal", "errors"),
    ),
    (
        BatchReadout,
        lambda: run_batch(prepare_probe(), [0.5], [0.3], measurement_stack([0.0])),
        ("values", "errors"),
    ),
    (
        SchmidtData,
        lambda: operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2"))),
        ("r", "a_ops", "b_ops", "dim_a", "dim_b", "hermitian"),
    ),
    (
        ObjectEstimate,
        lambda: estimate_object([(0.0, 0.3), (math.pi / 2, 0.6), (math.pi, 0.7)]),
        ("t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "method", "degenerate"),
    ),
    (ImageMaps, lambda: _MAPS, ("t_map", "gamma_map")),
    (
        ScanResult,
        lambda: image_scan(_MAPS, [0.0, math.pi / 2]),
        ("t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "degenerate", "errors"),
    ),
]


@pytest.mark.parametrize(
    "cls, make, fields", VALUE_CLASSES, ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES]
)
def test_value_class_is_immutable_and_repr_names_its_fields(cls, make, fields):
    obj = make()
    assert type(obj) is cls
    assert (obj == make()) is True
    text = repr(obj)
    assert text.startswith(f"{cls.__name__}(")
    at = [text.index(f"{name}=") for name in fields]
    assert at == sorted(at)
    for name in fields:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_value_class_defaults():
    assert ObjectParams(0.5) == ObjectParams(t=0.5, gamma=0.0)
    assert ObjectParams(gamma=0.3, t=0.5) == ObjectParams(0.5, 0.3)
    est = ObjectEstimate(0.8, 0.1)
    assert (est.stderr_t, est.stderr_gamma, est.method, est.degenerate) == (None, None, "least-squares", False)
    assert ObjectEstimate(0.8, 0.1, method="two-point") != est


def test_value_class_construction_errors():
    with pytest.raises(TypeError):
        ObjectParams()
    with pytest.raises(TypeError):
        ObjectParams(0.5, 0.1, 0.2)
    with pytest.raises(TypeError):
        ObjectParams(0.5, t=0.5)
    with pytest.raises(TypeError):
        ObjectParams(0.5, phase=0.1)
    # __post_init__ still checks and normalizes
    with pytest.raises(ValueError, match="must lie in"):
        ObjectParams(1.5)
    assert ObjectParams(0.5, 2 * math.pi + 0.25).gamma == pytest.approx(0.25, abs=1e-15)


def test_register_equality_and_hash_follow_wires():
    a, b = Register(["s1", "i1"]), Register(("s1", "i1"))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Register(("i1", "s1"))}) == 2
    assert Register(("s1", "i1")) != ("s1", "i1")


def test_mode_mixer_is_fixed_and_shared():
    mm = ModeMixer()
    assert mm == ModeMixer() and hash(mm) == hash(ModeMixer())
    assert repr(mm) == "ModeMixer()"
    with pytest.raises(TypeError):
        ModeMixer(mm.xi)
    with pytest.raises(TypeError):
        ModeMixer(op=mm.op)
    with pytest.raises(AttributeError):
        mm.op = np.eye(4)
    with pytest.raises(AttributeError):
        mm.xi = np.zeros(4)
    assert mm.xi is ModeMixer().xi and mm.op is ModeMixer().op
    # the 1/sqrt(2) kets' product, not an exact 1/2: the golden output depends on it
    assert np.array_equal(mm.xi, 0.4999999999999999 * np.array([1, 1, -1, -1]))
    e = np.eye(4)
    assert np.array_equal(mm.op, np.outer(mm.xi, e[1] + e[2]) + np.outer(e[0], e[0]) + np.outer(e[3], e[3]))
    assert not mm.xi.flags.writeable and not mm.op.flags.writeable


def _batch(t):
    return run_batch(prepare_probe(), [t], [0.3], measurement_stack([0.0]))


# equal and unequal instances of the classes that hold arrays, or tuples of arrays
ARRAY_RECORDS = [
    (lambda: prepare_werner(0.1), lambda: prepare_werner(0.2)),
    (lambda: object_channel(ObjectParams(0.5, 0.3)), lambda: object_channel(ObjectParams(0.5, 0.4))),
    (
        lambda: chi_matrix(object_channel(ObjectParams(0.5, 0.3))),
        lambda: chi_matrix(object_channel(ObjectParams(0.6, 0.3))),
    ),
    (lambda: _batch(0.5), lambda: _batch(0.6)),
]


@pytest.mark.parametrize(
    "make, make_other", ARRAY_RECORDS, ids=["DensityMatrix", "KrausChannel", "ChiMatrix", "BatchReadout"]
)
def test_records_holding_arrays_compare_by_value(make, make_other):
    a, b, c = make(), make(), make_other()
    assert a is not b
    assert (a == b) is True and (a != b) is False
    assert (a == c) is False and (a != c) is True
    assert a != object()
    with pytest.raises(TypeError):
        hash(a)
