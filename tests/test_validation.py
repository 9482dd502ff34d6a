"""Each input check names what is wrong: one row per check that no other test reaches.

Every row runs with warnings as errors, so a check must not warn before it raises.
"""

import math
import warnings

import numpy as np
import pytest
from verifiers import choi_matrix, choi_psd_check, pauli_decompose

from uqi.channels import ChiMatrix, KrausChannel, ModeMixer, ObjectParams, object_channel
from uqi.circuit import (
    Gate,
    bell_ket,
    cnot,
    measurement_stack,
    pipeline_stages,
    prepare_probe,
    run_batch,
    sample_frequencies,
)
from uqi.cli import main
from uqi.qcore import DEFAULT_REGISTER, DensityMatrix, Register, as_complex_matrix
from uqi.tomography import ImageMaps, aapt_predict, estimate_object, image_scan, operator_schmidt, visibility


def _mixer_on_one_wire_block():
    sd = operator_schmidt(prepare_probe(), (("i1",), ("s1", "i2", "s2")))
    return aapt_predict(sd, object_channel(ObjectParams(0.5)), ModeMixer())


# a call that must raise ValueError, or a `uqi` command line that must exit 2;
# and the message
CHECKS = [
    (lambda: KrausChannel(()), "channel needs at least one Kraus operator"),
    (lambda: KrausChannel((np.eye(2), np.eye(4))), "all Kraus operators must share one square shape"),
    (lambda: ChiMatrix(np.eye(2)), "chi matrix must be 4x4, got (2, 2)"),
    (lambda: ChiMatrix(np.triu(np.ones((4, 4)))), "chi matrix is not Hermitian"),
    (lambda: choi_matrix(lambda m: m), "dim is required when passing a bare callable"),
    (
        lambda: run_batch(prepare_probe(), [0.5, 0.6], [0.0], measurement_stack([0.0])),
        "got 2 transmissions but 1 phases",
    ),
    # a probe that is not a DensityMatrix failed with AttributeError on its missing register
    (
        lambda: run_batch(prepare_probe().mat, [0.5], [0.0], measurement_stack([0.0])),
        "probe must be a DensityMatrix or a sequence of them, got ndarray of ndarray",
    ),
    (
        lambda: run_batch([prepare_probe().mat], [0.5], [0.0], measurement_stack([0.0])),
        "probe must be a DensityMatrix or a sequence of them, got list of ndarray",
    ),
    # a probe that is not iterable failed with TypeError from tuple(probe)
    (
        lambda: run_batch(None, [0.5], [0.0], measurement_stack([0.0])),
        "probe must be a DensityMatrix or a sequence of them, got NoneType",
    ),
    (
        lambda: run_batch(3, [0.5], [0.0], measurement_stack([0.0])),
        "probe must be a DensityMatrix or a sequence of them, got int",
    ),
    (
        lambda: run_batch(prepare_probe(), [0.5], [0.0], np.eye(2)),
        "readout operators must be 4x4 on (s1, s2), got shape (2, 2)",
    ),
    # Tr[R rho] = 1.7e308 * 2 overflowed the readout sum with a RuntimeWarning
    (
        lambda: run_batch(prepare_probe(), [1.0], [0.0], np.full((4, 4), 1.7e308)),
        "readout value lies beyond the float range",
    ),
    # measurement_stack rejects a non-finite phase itself, so the stack is built here
    (
        lambda: run_batch(prepare_probe(), [0.5], [0.1], np.full((1, 4, 4), complex(np.nan, np.nan))),
        "readout operators must be finite, got (nan+nanj)",
    ),
    # exp(1j * inf) would warn and give NaN operators
    (lambda: measurement_stack([np.inf]), "measurement phase must be finite, got inf"),
    (lambda: visibility([0.5, np.nan]), "detection probability must be finite, got nan"),
    (lambda: visibility([np.inf, 0.2]), "detection probability must be finite, got inf"),
    # the sampler would clip inf to 1 and -inf to 0 and draw from them
    (lambda: sample_frequencies([[0.5, np.inf]], 10, 0, [(0,)]), "click probability must be finite, got inf"),
    (lambda: sample_frequencies([[-np.inf]], 10, 0, [(0,)]), "click probability must be finite, got -inf"),
    (lambda: sample_frequencies([[0.5], [np.nan]], 10, 0, [(0,), (1,)]), "click probability must be finite, got nan"),
    (lambda: Gate("h", np.eye(2, 4)), "gate 'h': matrix must be square, got shape (2, 4)"),
    (lambda: as_complex_matrix(np.zeros((0, 2))), "expected a non-empty 2-D matrix, got shape (0, 2)"),
    (lambda: as_complex_matrix([[np.nan]]), "matrix must be finite, got (nan+0j)"),
    (lambda: DensityMatrix(np.eye(2) / 2, DEFAULT_REGISTER), "state shape (2, 2) does not match register dimension 16"),
    (lambda: DensityMatrix.from_ket(np.zeros(16), DEFAULT_REGISTER), "cannot normalize a zero ket"),
    # checked before the norm, which would warn on inf and pass NaN on to the state checks
    (lambda: DensityMatrix.from_ket([1.0, np.nan] + [0.0] * 14, DEFAULT_REGISTER), "ket must be finite, got (nan+0j)"),
    (lambda: DensityMatrix.from_ket([np.inf] + [0.0] * 15, DEFAULT_REGISTER), "ket must be finite, got (inf+0j)"),
    (lambda: prepare_probe().reordered(["s1", "i1"]), "wire permutation must mention every wire exactly once"),
    (_mixer_on_one_wire_block, "the mode mixer post-operation needs a two-wire system block"),
    # the finite check comes before the duplicate test, which all-NaN phases would pass
    (lambda: estimate_object([(np.nan, 0.5)] * 3), "measurement phase must be finite, got nan"),
    # shots and a seed are integers, numpy's included; on the command line argparse's type=int holds them
    (
        lambda: image_scan(ImageMaps([[0.5]], [[0.0]]), [0.0, 1.0], shots=10, seed=1.5),
        "seed must be an integer, got 1.5",
    ),
    (lambda: image_scan(ImageMaps([[0.5]], [[0.0]]), [0.0, 1.0], shots=10.7), "shots must be an integer, got 10.7"),
    (lambda: sample_frequencies([[0.5]], np.float64(3.0), 0, [(0,)]), "shots must be an integer, got 3.0"),
    # stream keys follow the same integer rule; a float key was truncated, a numeric string read as its number
    (lambda: sample_frequencies([[0.5], [0.5]], 10, 0, [(0.9,), (1.2,)]), "stream keys must be integers, got 0.9"),
    (lambda: sample_frequencies([[0.5]], 10, 0, [("3",)]), "stream keys must be integers, got '3'"),
    # each of these raised OverflowError
    (lambda: sample_frequencies([[0.5], [0.5]], 10, 0, [(2**63,), (1,)]), "stream keys must lie in [0, 2**32)"),
    # a negative count would clip the shot variance to 0 and report stderr_t = 0
    (lambda: estimate_object([(0.0, 0.3), (1.0, 0.6), (2.0, 0.7)], shots=-3), "shots must be nonnegative"),
    # checked after the finite rule: -3 gave t_hat = 8.68, and 1e300 overflowed the shot variance
    (
        lambda: estimate_object([(0.0, -3.0), (1.0, 0.5), (2.0, 0.5)], shots=10),
        "detection probability must lie in [0, 1], got -3.0",
    ),
    (lambda: estimate_object([(0.0, 0.5), (1.0, 1e300)], shots=10), "detection probability must lie in [0, 1], got 1e+300"),
    # visibility and the sampler share estimate_object's rule: 2.0 gave a visibility of 0.6, and 1.5 was clipped to 1
    (lambda: visibility([2.0, 0.5]), "detection probability must lie in [0, 1], got 2.0"),
    (lambda: visibility([-0.1, 0.5]), "detection probability must lie in [0, 1], got -0.1"),
    (lambda: sample_frequencies([[0.5, 1.5]], 10, 0, [(0,)]), "click probability must lie in [0, 1], got 1.5"),
    # readouts within ATOL of a flat sweep gave t_hat = 39.34; two points 1e-9 apart have |G| about 1e9
    (
        lambda: estimate_object([(0.0, 0.5), (1e-7, 0.5 + 1e-13), (2e-7, 0.5)]),
        "phase points too close to invert: readouts off by 1e-12 could shift the estimate by 801 (limit 1e-06)",
    ),
    (
        lambda: image_scan(ImageMaps([[0.5]], [[0.0]]), [0.0, 1e-9]),
        "phase points too close to invert: readouts off by 1e-12 could shift the estimate by 0.004 (limit 1e-06)",
    ),
    (
        ("sweep", "--T", "0.5", "--phi", "0,1e-6,2e-6"),
        "phase points too close to invert: readouts off by 1e-12 could shift the estimate by 8 (limit 1e-06)",
    ),
    (("probabilities", "--T", "abc"), "could not parse T list 'abc'"),
    # phase sets at extreme scales are decided without overflow: np.round(phis, 12) warned above 1.8e296
    (("sweep", "--T", "0.5", "--phi", "1e300,1e300,1e300"), "duplicate phase values: cannot invert a single setting"),
    (
        lambda: estimate_object([(1e308, 0.5), (-1e308, 0.5), (1e308, 0.5)]),
        "least-squares inversion needs three distinct phases modulo 2 pi",
    ),
    # finite values at extreme scales: the trace overflowed with a warning, m^† m of the gate
    # overflowed, and the Choi matrix's symmetrization overflowed into numpy's LinAlgError
    (lambda: DensityMatrix(np.eye(2) * 1e308, Register(("a",))), "density matrix trace (inf+0j) is not 1 within 1e-12"),
    (lambda: Gate("g", np.eye(2) * 1e200), "gate 'g' is not unitary within 1e-12"),
    (lambda: choi_psd_check(lambda m: -m * 1e308, 2), "Choi matrix eigenvalue lies beyond the float range"),
    (lambda: estimate_object([(0.0, 0.5), (1.0, 0.5)], shots=None), "shots must be an integer, got None"),
    # a label that is not a string raised AttributeError on its missing lower()
    (lambda: bell_ket(3), "unknown Bell label 3"),
    # a float control passed the membership test and named the gate CNOT1.0
    (lambda: cnot(1.0), "control_value must be 0 or 1"),
    # each of these raised TypeError, from float(p) or from unpacking a pair
    (lambda: image_scan(ImageMaps([[0.5]], [[0.0]]), None), "phases must be an iterable of numbers, got None"),
    (lambda: image_scan(ImageMaps([[0.5]], [[0.0]]), 3), "phases must be an iterable of numbers, got 3"),
    (
        lambda: image_scan(ImageMaps([[0.5]], [[0.0]]), [[0, 1], [2, 3]]),
        "phases must be an iterable of numbers, got [[0, 1], [2, 3]]",
    ),
    (lambda: estimate_object(None), "probabilities must be an iterable of (phi, P) pairs, got None"),
    (lambda: estimate_object([1, 2, 3]), "probabilities must be an iterable of (phi, P) pairs, got [1, 2, 3]"),
]


@pytest.mark.parametrize("check, message", CHECKS, ids=[message for _, message in CHECKS])
def test_input_check_message(capsys, check, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(check, tuple):
            assert main(list(check)) == 2
            assert capsys.readouterr() == ("", f"uqi: {message}\n")
        else:
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == message


# checks whose message a row of CHECKS already holds as its test id
REPEATED = [
    # it built NaN operators
    (lambda: measurement_stack([0.0, np.nan]), "measurement phase must be finite, got nan"),
    (lambda: sample_frequencies([[0.5], [0.5]], 10, 0, [(2**70,), (1,)]), "stream keys must lie in [0, 2**32)"),
    (lambda: sample_frequencies([[0.5]], 10, 0, [(np.uint64(2**63),)]), "stream keys must lie in [0, 2**32)"),
    (lambda: image_scan(ImageMaps([[0.5]], [[0.0]]), [1e300] * 3), "duplicate phase values: cannot invert a single setting"),
    # m - m^† overflowed with a warning
    (lambda: ChiMatrix([[0, 1e308, 0, 0], [-1e308, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), "chi matrix is not Hermitian"),
    # run_batch's engine check, reached through pipeline_stages
    (lambda: pipeline_stages(None, [0.5], [0.0]), "probe must be a DensityMatrix or a sequence of them, got NoneType"),
    (lambda: pipeline_stages(3, [0.5], [0.0]), "probe must be a DensityMatrix or a sequence of them, got int"),
]


@pytest.mark.parametrize(
    "check, message",
    REPEATED,
    ids=[
        "measurement_stack([0.0, nan])", "key 2**70", "key np.uint64(2**63)", "image_scan at 1e300 x 3", "chi at 1e308",
        "pipeline_stages(None)", "pipeline_stages(3)",
    ],
)
def test_repeated_input_check_message(check, message):
    test_input_check_message(None, check, message)


# calls at extreme finite scales that return finite values, and a test of the result
FINITE = [
    # the coefficient sums overflowed into (inf+nanj), with two warnings
    (lambda: pauli_decompose(np.full((2, 2), 1e308)), lambda terms: terms == {"I": 1e308, "X": 1e308}),
    # the Choi matrix 1e308 |Omega><Omega| has least eigenvalue 0
    (lambda: choi_psd_check(lambda m: m * 1e308, 2), lambda result: math.isfinite(result[1])),
]


@pytest.mark.parametrize("call, holds", FINITE, ids=["pauli_decompose at 1e308", "choi_psd_check at 1e308"])
def test_extreme_scale_returns_finite_values(call, holds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert holds(call())
