"""``state_errors`` checks only the occupied block; its verdicts and messages
must equal those of the full 16x16 checks with ``eigvalsh``.  ``stack_errors``
gives it the block where some state of a whole stack is non-zero."""

import numpy as np
import pytest
from conftest import random_unitary, stack_errors

from uqi import qcore
from uqi.circuit import pipeline_stages, prepare_probe, prepare_werner
from uqi.qcore import ATOL, DEFAULT_REGISTER, PSD_SLACK, DensityMatrix

NOT_PSD = "density matrix has an eigenvalue below -1e-10"


def reference_errors(stack) -> list:
    """The full-matrix checks: Hermiticity and trace, then ``eigvalsh`` on every whole state."""
    errors = np.full(len(stack), None, dtype=object)
    herm = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    errors[herm > ATOL] = "density matrix is not Hermitian within 1e-12"
    tr = np.trace(stack, axis1=1, axis2=2)
    for i in np.flatnonzero((np.abs(tr - 1.0) > ATOL) & (herm <= ATOL)):
        errors[i] = f"density matrix trace {tr[i]} is not 1 within 1e-12"
    low = np.linalg.eigvalsh(stack)[:, 0] < -PSD_SLACK
    errors[low & np.equal(errors, None)] = NOT_PSD
    return errors.tolist()


def padded(block, index, dim=16) -> np.ndarray:
    """``block`` placed on rows and columns ``index`` of a zero ``dim x dim`` matrix."""
    out = np.zeros((dim, dim), dtype=complex)
    out[np.ix_(index, index)] = block
    return out


def with_spectrum(rng, eigenvalues) -> np.ndarray:
    """A random Hermitian matrix with the given eigenvalues."""
    u = random_unitary(rng, len(eigenvalues))
    return (u * np.asarray(eigenvalues)) @ u.conj().T


def spectrum_with_min(rng, lam, k) -> np.ndarray:
    """k >= 2 eigenvalues summing to 1, the lowest of them ``lam``."""
    rest = rng.uniform(0.1, 1.0, k - 1)
    return np.concatenate([[lam], rest * (1.0 - lam) / rest.sum()])


def random_state(rng, k, rank=None) -> np.ndarray:
    g = rng.normal(size=(k, rank or k)) + 1j * rng.normal(size=(k, rank or k))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("xi", [None, 0.0, 0.3, 2 / 3, 1.0])
def test_engine_stage_stacks_match_full_checks(xi):
    probe = prepare_probe() if xi is None else prepare_werner(xi)
    rng = np.random.default_rng(11)
    t = np.concatenate([rng.uniform(0, 1, 60), [0.0, 1.0]])
    gamma = np.concatenate([rng.uniform(-7, 7, 60), [0.0, 2.0]])
    stages = pipeline_stages(probe, t, gamma)
    for stack in (stages.post_object, stages.post_mixer, stages.signal):
        assert stack_errors(stack) == reference_errors(stack)
        # the block check still sees a state whose lowest eigenvalue is moved
        # to -2e-10 inside the occupied block, trace kept
        shifted = stack.copy()
        block = np.ix_(*[np.flatnonzero(np.abs(stack).sum(axis=(0, 1)))] * 2)
        lam, u = np.linalg.eigh(stack[5][block])
        lam[-1] += lam[0] + 2e-10
        lam[0] = -2e-10
        shifted[5][block] = (u * lam) @ u.conj().T
        got = stack_errors(shifted)
        assert got == reference_errors(shifted)
        assert got[5] == NOT_PSD


def test_random_blocks_at_random_index_sets():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        stack = np.empty((n, 16, 16), dtype=complex)
        for s in range(n):
            k = int(rng.integers(1, 17))
            index = np.sort(rng.choice(16, size=k, replace=False))
            block = random_state(rng, k, int(rng.integers(1, k + 1)))
            kind = rng.integers(5)
            if kind == 1 and k > 1:  # a negative eigenvalue on either side of -1e-10
                block = with_spectrum(rng, spectrum_with_min(rng, -(10 ** rng.uniform(-12, -6)), k))
            elif kind == 2:  # trace off by more than 1e-12
                block = 1.5 * block
            stack[s] = padded(block, index)
            if kind == 3 and k < 16:  # an entry outside the block breaks Hermiticity
                outside = np.setdiff1d(np.arange(16), index)
                stack[s, index[0], outside[0]] = 1e-9
        assert stack_errors(stack) == reference_errors(stack)


@pytest.mark.parametrize("lam", [-1.1e-10, -1e-10 + 1e-11, -1e-10 - 1e-11, -0.9e-10])
def test_lowest_eigenvalue_within_rounding_of_the_slack(lam):
    rng = np.random.default_rng(13)
    states = []
    for k in (2, 3, 8, 16):
        index = np.sort(rng.choice(16, size=k, replace=False))
        states.append(padded(with_spectrum(rng, spectrum_with_min(rng, lam, k)), index))
    want = NOT_PSD if lam < -PSD_SLACK else None
    stack = np.array(states)
    assert stack_errors(stack) == reference_errors(stack) == [want] * len(states)
    for state in states:  # alone in its pass, and as a DensityMatrix
        assert stack_errors(state[None]) == [want]
        if want is None:
            DensityMatrix(state, DEFAULT_REGISTER)
        else:
            with pytest.raises(ValueError, match=want):
                DensityMatrix(state, DEFAULT_REGISTER)


def test_failing_states_beside_passing_ones_take_the_eigvalsh_fallback(monkeypatch):
    rng = np.random.default_rng(14)
    index = [3, 8, 12]
    good = [padded(random_state(rng, 3), index) for _ in range(5)]
    bad = padded(with_spectrum(rng, [-1e-3, 0.5, 0.501]), index)
    near = padded(with_spectrum(rng, [-0.7e-10, 0.5, 0.5 + 0.7e-10]), index)
    skew = good[0].copy()
    skew[3, 8] += 1e-6
    stack = np.array([good[0], bad, good[1], near, skew, good[2], 2.0 * good[3], good[4]])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    got = stack_errors(stack)
    assert got == reference_errors(stack)
    assert got[1] == NOT_PSD and got[3] is None and got[4].endswith("not Hermitian within 1e-12")
    assert got[6].startswith("density matrix trace")
    assert calls[0] == (8, 3, 3)  # the fallback ran on the block, not on 16x16
    calls.clear()
    assert stack_errors(np.array(good)) == [None] * 5
    assert calls == []  # the Cholesky screen cleared every state


def test_all_zero_and_empty_stacks():
    zeros = np.zeros((3, 16, 16), dtype=complex)
    want = ["density matrix trace 0j is not 1 within 1e-12"] * 3
    assert stack_errors(zeros) == reference_errors(zeros) == want
    assert stack_errors(np.zeros((0, 16, 16), dtype=complex)) == []


def test_density_matrix_validation_matches_full_checks():
    rng = np.random.default_rng(15)
    index = [1, 2, 6, 9]
    cases = [
        padded(random_state(rng, 4, 2), index),
        padded(with_spectrum(rng, [-2e-10, 0.3, 0.3, 0.4 + 2e-10]), index),
        1.25 * padded(random_state(rng, 4), index),
        np.eye(16) / 16,
        padded(random_state(rng, 1), [7]),
    ]
    skew = cases[0].copy()
    skew[1, 15] = 1e-11
    cases.append(skew)
    for m in cases:
        want = reference_errors(m[None])[0]
        if want is None:
            assert np.array_equal(DensityMatrix(m, DEFAULT_REGISTER).mat, m)
        else:
            with pytest.raises(ValueError) as info:
                DensityMatrix(m, DEFAULT_REGISTER)
            assert str(info.value) == want


SQRT_HALF = 1.0 / np.sqrt(2.0)


@pytest.mark.parametrize("re, im", [
    (0.999 * SQRT_HALF, 0.999 * SQRT_HALF),  # |d| = 0.999 ATOL, both parts just below ATOL/sqrt(2): passes
    (0.999 * SQRT_HALF, 0.0),
    (SQRT_HALF, SQRT_HALF),  # |d| rounds to ATOL exactly: passes
    (0.72, 0.72),  # each part below ATOL, |d| = 1.018 ATOL: fails
    (0.75, 0.0),  # |d| = 0.75 ATOL: passes
    (0.0, -0.9),
    (0.9, 0.43),  # |d| = 0.997 ATOL: passes
    (0.9, -0.45),  # |d| = 1.006 ATOL: fails
    (1.0, 0.0),  # |d| = ATOL exactly: passes
    (1.001, 0.0),  # just above ATOL: the real part alone fails it
    (0.0, 1.001),
    (-1.001, 0.2),
], ids=lambda v: f"{v:+.4g}")
def test_hermiticity_from_parts_matches_the_modulus(re, im):
    # the deviation rho_ij - conj(rho_ji) = (re + i im) ATOL on one entry of an exactly Hermitian state
    index = [2, 5, 11]
    state = padded(np.diag([0.5, 0.3, 0.2]).astype(complex), index)
    state[5, 11] += complex(re, im) * ATOL
    deviation = abs(complex(re, im) * ATOL)
    want = "density matrix is not Hermitian within 1e-12" if deviation > ATOL else None
    assert stack_errors(state[None]) == reference_errors(state[None]) == [want]


def test_hermiticity_band_is_taken_per_state():
    # deviations just below and just above ATOL in one stack, beside clean ones: each state has its own verdict
    index = [0, 3, 12, 15]
    base = padded(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), index)
    stack = np.array([base] * 8)
    for s, d in enumerate([0.0, 0.72 + 0.72j, 0.75, 0.5 + 0.5j, 1.001j, 0.9 - 0.43j, 0.9 - 0.45j, 0.0]):
        stack[s, 3, 12] += d * ATOL
    got = stack_errors(stack)
    assert got == reference_errors(stack)
    assert [e is not None for e in got] == [False, True, False, False, True, False, True, False]


def test_stack_of_states_takes_the_density_matrix_rule(monkeypatch):
    # one validator for DensityMatrix and for a stack of states: the first failing state's message, in order
    rng = np.random.default_rng(16)
    index = [1, 4, 7]
    good = [padded(random_state(rng, 3), index) for _ in range(3)]
    skew = good[0].copy()
    skew[1, 7] += 1e-9
    low = padded(with_spectrum(rng, [-1e-3, 0.5, 0.503]), index)
    for stack in ([good[0], low, good[1], skew], [good[2], skew, low], [1.5 * good[0], skew]):
        mats = np.array(stack)
        want = next(err for err in reference_errors(mats) if err is not None)
        with pytest.raises(ValueError) as whole:
            DensityMatrix._of_stack(mats, DEFAULT_REGISTER)
        first_bad = next(m for m in stack if reference_errors(m[None])[0] is not None)
        with pytest.raises(ValueError) as alone:
            DensityMatrix(first_bad, DEFAULT_REGISTER)
        assert str(whole.value) == str(alone.value) == want
    calls = []
    state_errors = qcore.state_errors
    monkeypatch.setattr(qcore, "state_errors", lambda *args: calls.append(len(args[0])) or state_errors(*args))
    states = DensityMatrix._of_stack(np.array(good), DEFAULT_REGISTER)
    assert calls == [3]  # one check of the whole stack
    for m, rho in zip(good, states):
        assert rho == DensityMatrix(m, DEFAULT_REGISTER)
        assert not rho.mat.flags.writeable
    with pytest.raises(ValueError, match=r"state shape \(4, 4\) does not match register dimension 16"):
        DensityMatrix._of_stack(np.zeros((2, 4, 4), dtype=complex), DEFAULT_REGISTER)
