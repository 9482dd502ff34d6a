"""Every public entry point, and the test-side verifiers of ``verifiers.py``, at any finite scale returns what its
docstring says, or raises ValueError.

Floats are drawn over the whole exponent range, subnormals included, and
every warning is an error, so a numpy overflow or invalid value fails the
test, as does any exception other than ValueError.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from verifiers import choi_psd_check, pauli_decompose

from uqi import (
    ChiMatrix,
    DensityMatrix,
    Gate,
    ImageMaps,
    Register,
    estimate_object,
    image_scan,
    measurement_stack,
    prepare_probe,
    prepare_werner,
    run_batch,
    sample_frequencies,
    visibility,
)
from uqi.qcore import ATOL, PAULI, PSD_SLACK

reals = st.floats(allow_nan=False, allow_infinity=False)
# values of the accepted range beside values of any scale, so that both paths run
unit = st.one_of(st.floats(0.0, 1.0), reals)
complexes = st.builds(complex, reals, reals)
counts = st.one_of(st.integers(0, 10**4), st.integers(-2**70, 2**70))


def _matrix(draw, side):
    """A drawn ``side x side`` complex matrix: any entries, or a multiple of the identity."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(complexes, min_size=side * side, max_size=side * side))).reshape(side, side)
    return draw(reals) * np.eye(side, dtype=complex)


def _register(side):
    return Register(("a", "b")[: side.bit_length() - 1])


def _rejects(call):
    """``call()``, or None if it raises ValueError."""
    try:
        return call()
    except ValueError:
        return None


def _from_ket(draw):
    side = draw(st.sampled_from([2, 4]))
    ket = draw(st.lists(complexes, min_size=side, max_size=side))
    reg = _register(side)
    if not any(ket):
        with pytest.raises(ValueError, match="^cannot normalize a zero ket$"):
            DensityMatrix.from_ket(ket, reg)
        return
    # any finite, non-zero ket gives its pure state
    mat = DensityMatrix.from_ket(ket, reg).mat
    assert abs(np.trace(mat) - 1) <= 1e-12
    assert np.abs(mat @ mat - mat).max() <= 1e-12


def _density_matrix(draw):
    side = draw(st.sampled_from([2, 4]))
    # any matrix, or populations (p, 1 - p, 0, ...), a state when p lies in [0, 1]
    p = draw(unit)
    m = _matrix(draw, side) if draw(st.booleans()) else np.diag([p, 1 - p] + [0.0] * (side - 2)).astype(complex)
    state = _rejects(lambda: DensityMatrix(m, _register(side)))
    if state is not None:
        assert np.array_equal(state.mat, m)
        assert abs(np.trace(m) - 1) <= ATOL


def _gate(draw):
    side = draw(st.sampled_from([2, 4]))
    # any matrix, or a diagonal of phases at any scale, unitary when every phase is finite
    m = _matrix(draw, side) if draw(st.booleans()) else np.diag(np.exp(1j * np.array(draw(st.lists(reals, min_size=side, max_size=side)))))
    gate = _rejects(lambda: Gate("g", m))
    if gate is not None:
        assert np.abs(m.conj().T @ m - np.eye(len(m))).max() <= ATOL


def _chi_matrix(draw):
    m = _matrix(draw, 4)
    chi = _rejects(lambda: ChiMatrix(m))
    if chi is not None:
        assert np.array_equal(chi.entries, m)


def _choi_psd_check(draw):
    choi = _matrix(draw, 4)

    def channel(unit_matrix):
        # the map whose Choi matrix is `choi`: E[|i><j|] is its (i, j) block
        i, j = np.argwhere(unit_matrix)[0]
        return choi[2 * i:2 * i + 2, 2 * j:2 * j + 2]

    result = _rejects(lambda: choi_psd_check(channel, 2))
    if result is not None:
        is_psd, min_eig = result
        assert math.isfinite(min_eig)
        assert is_psd == (min_eig >= -PSD_SLACK)


def _pauli_decompose(draw):
    m = _matrix(draw, draw(st.sampled_from([2, 4])))
    n = len(m).bit_length() - 1
    terms = pauli_decompose(m)
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    assert list(terms) == [label for label in labels if label in terms]
    assert all(math.isfinite(c.real) and math.isfinite(c.imag) and abs(c / 2) > 1e-14 / 2 for c in terms.values())
    # m = sum_P c_P P up to the dropped terms, compared in units of m's largest part
    scale = float(np.abs(m.view(float)).max())
    if scale == 0.0:
        assert terms == {}
        return
    back = np.zeros_like(m)
    for label, c in terms.items():
        p = np.array([[1.0 + 0j]])
        for w in label:
            p = np.kron(p, PAULI[w])
        back += complex(c.real / scale, c.imag / scale) * p
    assert np.abs(back - m / scale).max() <= 4**n * 1e-14 / scale + 1e-12


def _estimate_object(draw):
    k = draw(st.integers(2, 5))
    pts = list(zip(draw(st.lists(reals, min_size=k, max_size=k)), draw(st.lists(unit, min_size=k, max_size=k))))
    shots = draw(st.one_of(st.none(), counts))
    est = _rejects(lambda: estimate_object(pts, shots))
    if est is None:
        return
    assert isinstance(shots, int) and 0 <= shots < 2**63
    assert all(-ATOL <= p <= 1 + ATOL for _, p in pts)
    assert est.method == ("two-point" if k == 2 else "least-squares")
    assert math.isfinite(est.t_hat) and est.t_hat >= 0.0
    assert math.isnan(est.gamma_hat) if est.degenerate else -math.pi < est.gamma_hat <= math.pi
    assert (est.stderr_t is None) == (shots == 0)
    for err in (est.stderr_t, est.stderr_gamma):
        assert err is None or (math.isfinite(err) and err >= 0.0)


def _visibility(draw):
    series = draw(st.lists(unit, min_size=1, max_size=5))
    value = _rejects(lambda: visibility(series))
    if value is not None:
        assert all(-ATOL <= p <= 1 + ATOL for p in series)
        assert math.isfinite(value)


def _sample_frequencies(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p_h = draw(st.lists(st.lists(unit, min_size=k, max_size=k), min_size=n, max_size=n))
    keys = draw(st.lists(st.tuples(st.integers(-2, 2**33)), min_size=n, max_size=n))
    freqs = _rejects(lambda: sample_frequencies(p_h, draw(counts), draw(counts), keys))
    if freqs is not None:
        assert freqs.shape == (n, k)
        assert ((freqs >= 0.0) & (freqs <= 1.0)).all()


def _run_batch(draw):
    n = draw(st.integers(1, 3))
    t = draw(st.lists(unit, min_size=n, max_size=n))
    gamma = draw(st.lists(reals, min_size=n, max_size=n))
    phis = draw(st.lists(reals, min_size=1, max_size=3))
    probe = prepare_probe() if draw(st.booleans()) else prepare_werner(draw(st.floats(0.0, 1.0)))
    # detector pairs, or operators of any scale: any entries, or one entry
    # everywhere, whose readout is that entry times the sum of the state's entries
    kind = draw(st.sampled_from(["detectors", "any", "constant"]))
    detectors = kind == "detectors"
    if detectors:
        readout = measurement_stack(phis)
    elif kind == "any":
        readout = np.array([_matrix(draw, 4) for _ in phis])
    else:
        readout = np.array([np.full((4, 4), draw(complexes)) for _ in phis])
    batch = _rejects(lambda: run_batch(probe, t, gamma, readout))
    if batch is not None:
        assert all(0.0 <= x <= 1.0 for x in t)
        assert batch.errors == (None,) * n
        assert batch.values.shape == (n,) + readout.shape[:-2]
        assert np.isfinite(batch.values).all()
        if detectors:
            assert ((batch.values >= -ATOL) & (batch.values <= 1 + ATOL)).all()


def _image_scan(draw):
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    size = shape[0] * shape[1]
    t = np.reshape(draw(st.lists(unit, min_size=size, max_size=size)), shape)
    gamma = np.reshape(draw(st.lists(reals, min_size=size, max_size=size)), shape)
    phis = draw(st.lists(reals, min_size=2, max_size=4))
    shots = draw(counts)
    scan = _rejects(lambda: image_scan(ImageMaps(t, gamma), phis, shots, draw(counts)))
    if scan is None:
        return
    assert scan.errors == ()
    assert np.isfinite(scan.t_hat).all() and (scan.t_hat >= 0.0).all()
    assert np.array_equal(np.isnan(scan.gamma_hat), scan.degenerate)
    live = scan.gamma_hat[~scan.degenerate]
    assert ((live > -math.pi) & (live <= math.pi)).all()
    assert np.isnan(scan.stderr_t).all() if shots == 0 else np.isfinite(scan.stderr_t).all()


CASES = [
    _from_ket,
    _density_matrix,
    _gate,
    _chi_matrix,
    _choi_psd_check,
    _pauli_decompose,
    _estimate_object,
    _visibility,
    _sample_frequencies,
    _run_batch,
    _image_scan,
]


@pytest.mark.parametrize("case", CASES, ids=[case.__name__[1:] for case in CASES])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_entry_point_obeys_its_docstring_at_any_scale(case, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case(data.draw)
