"""The public API of ``uqi`` is pinned: a change to it must edit these lists."""

import importlib
import types

import pytest

import uqi

PUBLIC = [
    "BatchReadout",
    "ChiMatrix",
    "DEFAULT_REGISTER",
    "DensityMatrix",
    "Gate",
    "ImageMaps",
    "KrausChannel",
    "ModeMixer",
    "ObjectEstimate",
    "ObjectParams",
    "PipelineStages",
    "Register",
    "ScanResult",
    "SchmidtData",
    "aapt_predict",
    "apply_unitary",
    "basis_ket",
    "bell_ket",
    "chi_matrix",
    "cnot",
    "embed",
    "estimate_object",
    "hadamard",
    "image_scan",
    "measurement_stack",
    "object_channel",
    "operator_schmidt",
    "partial_transpose",
    "pipeline_stages",
    "prepare_probe",
    "prepare_werner",
    "run_batch",
    "sample_frequencies",
    "visibility",
]

# deleted names, with the README's removal table giving each replacement
REMOVED = [
    "MeasurementPair",
    "PauliString",
    "ProbeState",
    "SIGNAL_REGISTER",
    "SignalState",
    "apply_channel",
    "apply_mode_mixer",
    "choi_matrix",
    "choi_psd_check",
    "cz",
    "detection_probabilities",
    "hermitian_eigenvalues",
    "identity_channel",
    "kron",
    "measurement_pair",
    "mode_mixer",
    "normalize_angle",
    "partial_trace",
    "pauli",
    "pauli_decompose",
    "pauli_reconstruct",
    "phase_shifter",
    "probe_ket",
    "run_pipeline",
    "sample_detections",
    "sample_detections_with_miss",
]

MODULES = ["channels", "circuit", "cli", "qcore", "tomography"]

# test-side verifiers that left the library for tests/verifiers.py: (module or class, name)
MOVED = [
    ("qcore", "apply_kraus_stack"),
    ("qcore", "_unit_scaled"),
    ("ChiMatrix", "apply"),
    ("SchmidtData", "reconstruct"),
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(uqi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    with pytest.raises(ImportError):
        exec(f"from uqi import {name}", {})
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"uqi.{module}"), name), (module, name)


@pytest.mark.parametrize("owner, name", MOVED, ids=[f"{owner}.{name}" for owner, name in MOVED])
def test_verifier_is_not_in_the_library(owner, name):
    holder = getattr(uqi, owner) if owner[0].isupper() else importlib.import_module(f"uqi.{owner}")
    assert not hasattr(holder, name)
