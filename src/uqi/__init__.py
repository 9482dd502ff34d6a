"""Density-matrix simulation of imaging with undetected photons.

Four qubits model the two signal/idler photon pairs; a two-parameter
channel models the semi-transparent object; a renormalizing mode mixer
makes the idlers indistinguishable; measurements on the signals alone
recover the object's transmission and phase.
"""

__version__ = "0.1.0"

from .channels import (
    ChiMatrix,
    KrausChannel,
    ModeMixer,
    ObjectParams,
    chi_matrix,
    object_channel,
)
from .circuit import (
    BatchReadout,
    Gate,
    PipelineStages,
    apply_unitary,
    bell_ket,
    cnot,
    hadamard,
    measurement_stack,
    pipeline_stages,
    prepare_probe,
    prepare_werner,
    run_batch,
    sample_frequencies,
)
from .qcore import (
    DEFAULT_REGISTER,
    DensityMatrix,
    Register,
    basis_ket,
    embed,
    partial_transpose,
)
from .tomography import (
    ImageMaps,
    ObjectEstimate,
    ScanResult,
    SchmidtData,
    aapt_predict,
    estimate_object,
    image_scan,
    operator_schmidt,
    visibility,
)
