import numpy as np
import pytest
from conftest import readout, unmixed_readout
from verifiers import pauli_decompose

from uqi import circuit, qcore
from uqi.circuit import (
    ENCODED_BASIS,
    bell_ket,
    measurement_stack,
    pipeline_stages,
    prepare_probe,
    prepare_werner,
    sample_frequencies,
)
from uqi.qcore import DEFAULT_REGISTER, PAULI, DensityMatrix, basis_ket, partial_transpose

ATOL = 1e-12


def analytic_signal_state(t, g):
    """The closed-form reduced state on (s1, s2) for the Bell probe."""
    m = np.zeros((4, 4), dtype=complex)
    m[2, 2] = 0.5
    m[1, 1] = 0.5
    m[2, 1] = t * np.exp(1j * g) / 2
    m[1, 2] = t * np.exp(-1j * g) / 2
    return m


def signal_stack(probe, ts, gammas):
    stages = pipeline_stages(probe, ts, gammas)
    assert stages.errors == (None,) * len(stages.errors)
    return stages.signal


def test_probe_is_pure():
    m = prepare_probe().mat
    assert np.trace(m @ m).real == pytest.approx(1.0, abs=ATOL)


def test_probe_matches_target_superposition():
    rho = prepare_probe()
    assert isinstance(rho, DensityMatrix)
    ket = (basis_ket("1100") + basis_ket("0011")) / np.sqrt(2)
    want = np.outer(ket, ket.conj())
    assert np.allclose(rho.mat, want, atol=ATOL)
    assert rho.mat[int("1100", 2), int("0011", 2)] == pytest.approx(0.5, abs=ATOL)


def test_probe_is_built_once_and_immutable():
    # every call shares one DensityMatrix, so nothing may write to it
    probe = prepare_probe()
    prepare_werner(0.5)
    assert prepare_probe() is probe
    assert not probe.mat.flags.writeable
    with pytest.raises(ValueError):
        probe.mat[0, 0] = 1.0
    assert np.array_equal(probe.mat, prepare_probe.__wrapped__().mat)


def test_werner_limits():
    assert isinstance(prepare_werner(0.5), DensityMatrix)
    assert np.allclose(prepare_werner(0.0).mat, prepare_probe().mat, atol=ATOL)
    eigs = np.linalg.eigvalsh(prepare_werner(1.0).mat)
    nonzero = eigs[eigs > 1e-12]
    assert len(nonzero) == 4
    assert np.allclose(nonzero, 0.25, atol=ATOL)


def test_werner_out_of_range():
    with pytest.raises(ValueError):
        prepare_werner(-0.01)
    with pytest.raises(ValueError):
        prepare_werner(1.01)


def one_werner_state(xi: float) -> np.ndarray:
    """The Werner matrix formed one state at a time: the reference for the stacked build."""
    mat = (1.0 - xi) * prepare_probe().mat
    for bits in ENCODED_BASIS:
        i = int(bits, 2)
        mat[i, i] += xi / 4.0
    return mat


def test_werner_probes_built_as_one_stack_keep_the_bits_of_one_state(monkeypatch):
    xis = [0.0, 0.3, 2.0 / 3.0, 1.0]
    probes = circuit._werner_probes(xis * 2)
    assert len(probes) == 8
    for xi, probe in zip(xis * 2, probes):
        assert probe.mat.tobytes() == prepare_werner(xi).mat.tobytes() == one_werner_state(xi).tobytes()
        assert probe == prepare_werner(xi) and probe.register == DEFAULT_REGISTER
        assert not probe.mat.flags.writeable
    calls = []
    state_errors = qcore.state_errors
    monkeypatch.setattr(qcore, "state_errors", lambda *args: calls.append(len(args[0])) or state_errors(*args))
    circuit._werner_probes(np.linspace(0.0, 1.0, 61))
    assert calls == [61]  # the stack is checked by one call


@pytest.mark.parametrize("bad", [1.01, -0.01, float("nan"), float("inf")])
def test_werner_probes_reject_the_first_bad_xi_as_prepare_werner_does(bad):
    with pytest.raises(ValueError) as alone:
        prepare_werner(bad)
    with pytest.raises(ValueError) as stacked:
        circuit._werner_probes([0.3, bad, 2.0, -1.0])
    assert str(stacked.value) == str(alone.value) == f"xi must lie in [0, 1], got {bad}"


def test_werner_ppt_threshold():
    # entangled below 2/3, PPT-zero exactly at the threshold
    for xi, sign in ((0.0, -1), (0.5, -1), (0.9, +1)):
        m = np.linalg.eigvalsh(partial_transpose(prepare_werner(xi), ["s1", "i1"])).min()
        if sign < 0:
            assert m < -1e-6
        else:
            assert m > -1e-10
    pt = partial_transpose(prepare_werner(2 / 3), ["s1", "i1"])
    assert abs(np.linalg.eigvalsh(pt).min()) < 1e-9


def test_pipeline_reproduces_analytic_state():
    rng = np.random.default_rng(0)
    ts, gs = rng.uniform(0, 1, 50), rng.uniform(-np.pi, np.pi, 50)
    signal = signal_stack(prepare_probe(), ts, gs)
    for sig, t, g in zip(signal, ts, gs):
        assert np.allclose(sig, analytic_signal_state(t, g), atol=ATOL)


def test_pipeline_offdiagonal_coherence():
    t, g = 0.8, -0.4
    sig = signal_stack(prepare_probe(), [t], [g])[0]
    assert sig[2, 1] == pytest.approx(t * np.exp(1j * g) / 2, abs=ATOL)


def test_pipeline_pauli_coefficients_transparent_object():
    sig = signal_stack(prepare_probe(), [1.0], [0.0])[0]
    got = pauli_decompose(sig)
    assert got["II"] == pytest.approx(0.25, abs=ATOL)
    assert got["ZZ"] == pytest.approx(-0.25, abs=ATOL)
    assert got["XX"] == pytest.approx(0.25, abs=ATOL)
    assert got["YY"] == pytest.approx(0.25, abs=ATOL)
    assert "XY" not in got and "YX" not in got


def test_pipeline_pauli_coefficients_carry_both_quadratures():
    t, g = 0.7, 1.1
    sig = signal_stack(prepare_probe(), [t], [g])[0]
    got = pauli_decompose(sig)
    assert got["XX"] == pytest.approx(t * np.cos(g) / 4, abs=ATOL)
    assert got["YY"] == pytest.approx(t * np.cos(g) / 4, abs=ATOL)
    assert got["XY"] == pytest.approx(-t * np.sin(g) / 4, abs=ATOL)
    assert got["YX"] == pytest.approx(t * np.sin(g) / 4, abs=ATOL)


def test_pipeline_stages_exposed():
    t, g = 0.6, 0.3
    stages = pipeline_stages(prepare_probe(), [t, 0.2], [g, -1.0])
    assert stages.errors == (None, None)
    assert stages.post_object.shape == stages.post_mixer.shape == (2, 16, 16)
    assert stages.signal.shape == (2, 4, 4)
    assert stages.post_object[0, int("1100", 2), int("1100", 2)] == pytest.approx(t**2 / 2, abs=ATOL)
    assert np.allclose(np.trace(stages.post_mixer, axis1=1, axis2=2), 1.0, atol=ATOL)
    # the signal stack is the post-mixer stack with both idlers traced out
    traced = np.einsum("nabcdebcf->nadef", stages.post_mixer.reshape((2,) + (2,) * 8))
    assert np.allclose(stages.signal, traced.reshape(2, 4, 4), atol=ATOL)
    alone = pipeline_stages(prepare_probe(), [t], [g])
    assert np.array_equal(alone.post_object[0], stages.post_object[0])
    # the post-object stack without the mixer reads 1/2 at both detectors
    assert np.max(np.abs(unmixed_readout(prepare_probe(), [t], [g], [0.0, 1.0]) - 0.5)) < ATOL


def test_pipeline_without_mixer_erases_image():
    # no indistinguishability, no interference: both detectors at 1/2
    rng = np.random.default_rng(1)
    ts, gs = rng.uniform(0, 1, 20), rng.uniform(-np.pi, np.pi, 20)
    values = unmixed_readout(prepare_probe(), ts, gs, [0.0, 0.7, np.pi / 2])
    assert np.max(np.abs(values - 0.5)) < ATOL


def test_werner_probe_kills_gamma_dependence_at_full_mixing():
    gammas = np.linspace(-np.pi, np.pi, 7)
    ps = readout(prepare_werner(1.0), np.full(7, 0.9), gammas, [0.0])[:, 0, 0]
    assert np.max(np.abs(ps - ps[0])) < ATOL


def test_werner_modulation_amplitude():
    # the cos(gamma) part of P_h scales exactly as (1 - xi) T / 2
    t = 0.8
    gammas = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    design = np.column_stack([np.ones_like(gammas), np.cos(gammas)])
    for xi in (0.0, 0.3, 0.6, 1.0):
        ps = readout(prepare_werner(xi), np.full(12, t), gammas, [0.0])[:, 0, 0]
        coef, *_ = np.linalg.lstsq(design, ps, rcond=None)
        assert abs(coef[1]) == pytest.approx((1 - xi) * t / 2, abs=ATOL)


def test_bell_kets():
    assert np.allclose(bell_ket("psi-"), (basis_ket("01") - basis_ket("10")) / np.sqrt(2))
    assert np.allclose(bell_ket("phi+"), (basis_ket("00") + basis_ket("11")) / np.sqrt(2))
    with pytest.raises(ValueError):
        bell_ket("nope")


def test_measurement_pair_at_zero_phase_is_bell_projectors():
    m_h, m_g = measurement_stack([0.0])[0]
    for m, label in ((m_h, "psi-"), (m_g, "psi+")):
        ket = bell_ket(label)
        assert np.allclose(m, np.outer(ket, ket.conj()), atol=ATOL)


def test_measurement_pair_sums_to_one_photon_projector():
    want = (np.eye(4) - np.diag([1, -1, -1, 1])) / 2  # (II - ZZ)/2
    stack = measurement_stack(np.linspace(0, 2 * np.pi, 17))
    assert stack.shape == (17, 2, 4, 4)
    for m_h, m_g in stack:
        assert np.allclose(m_h + m_g, want, atol=ATOL)
        for m in (m_h, m_g):
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() > -ATOL and eigs.max() < 1 + ATOL


def test_measurement_pair_half_turn_swaps_detectors():
    (m0_h, m0_g), (mpi_h, mpi_g) = measurement_stack([0.0, np.pi])
    assert np.allclose(mpi_h, m0_g, atol=ATOL)
    assert np.allclose(mpi_g, m0_h, atol=ATOL)


def test_measurement_stack_is_phase_shifted_bell_projectors():
    # the phase shifter Z_phi = diag(1, e^{i phi}) on s2 conjugates both Bell
    # projectors; conjugation rotates the equatorial Paulis by phi
    x, y = PAULI["X"], PAULI["Y"]
    proj = [np.outer(k, k.conj()) for k in (bell_ket("psi-"), bell_ket("psi+"))]
    phis = np.random.default_rng(42).uniform(-2 * np.pi, 2 * np.pi, size=100)
    stack = measurement_stack(phis)
    for phi, pair in zip(phis, stack):
        z = np.diag([1.0, np.exp(1j * phi)])
        u = np.kron(np.eye(2), z)
        for m, p in zip(pair, proj):
            assert np.max(np.abs(m - u @ p @ u.conj().T)) < ATOL
        zd = z.conj().T
        assert np.max(np.abs(z @ x @ zd - (np.cos(phi) * x + np.sin(phi) * y))) < ATOL
        assert np.max(np.abs(z @ y @ zd - (-np.sin(phi) * x + np.cos(phi) * y))) < ATOL


def test_detection_probabilities_reference_points():
    values = readout(prepare_probe(), [1.0, 0.0, 0.8], [0.0, 1.3, np.pi / 3], [0.0, 2.0])
    assert values[0, 0] == pytest.approx((0.0, 1.0), abs=ATOL)
    assert values[1, 1] == pytest.approx((0.5, 0.5), abs=ATOL)
    assert values[2, 0, 0] == pytest.approx(0.3, abs=ATOL)


def test_sinusoid_law_over_phase_sweep():
    rng = np.random.default_rng(2)
    ts, gs = rng.uniform(0, 1, 10), rng.uniform(-np.pi, np.pi, 10)
    phis = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    values = readout(prepare_probe(), ts, gs, phis)
    p_h, p_g = values[..., 0], values[..., 1]
    assert np.max(np.abs(p_h - 0.5 * (1 - ts[:, None] * np.cos(gs[:, None] + phis)))) < ATOL
    assert np.max(np.abs(p_h + p_g - 1.0)) < ATOL


def test_sample_frequencies_degenerate_probabilities():
    # p = 0 and p = 1 give exact counts, also a rounding step outside [0, 1]
    p = np.array([[0.0, 1.0, -1e-15], [1.0 + 1e-15, 0.0, 1.0]])
    out = sample_frequencies(p, 1000, seed=1, keys=[(0,), (1,)])
    assert np.array_equal(out, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


def test_sample_frequencies_concentration():
    # 5-sigma binomial bound at p = 0.3 with 1e5 shots, in every row
    out = sample_frequencies(np.full((4, 3), 0.3), 10**5, seed=7, keys=np.arange(4)[:, None])
    assert np.all(np.abs(out - 0.3) < 5 * np.sqrt(0.3 * 0.7 / 10**5))


def test_sample_frequencies_deterministic_per_row_stream():
    # row r gets the draws of one array call on it from default_rng([seed, *keys[r]]),
    # so reordering the rows with their keys reorders the result
    p = np.array([[0.42, 0.1], [0.9, 0.5], [0.3, 0.7]])
    keys = [(0, 2), (1, 0), (5, 3)]
    out = sample_frequencies(p, 1234, seed=99, keys=keys)
    assert np.array_equal(out, sample_frequencies(p, 1234, seed=99, keys=keys))
    assert np.array_equal(out, sample_frequencies(p, np.int64(1234), seed=np.uint8(99), keys=keys))
    for r, key in enumerate(keys):
        assert np.array_equal(out[r], np.random.default_rng([99, *key]).binomial(1234, p[r]) / 1234)
    back = sample_frequencies(p[::-1], 1234, seed=99, keys=keys[::-1])
    assert np.array_equal(back, out[::-1])


def test_sample_frequencies_rejects_bad_input():
    p = np.full((2, 3), 0.5)
    for shots in (0, -5):
        with pytest.raises(ValueError, match="shots must be at least 1"):
            sample_frequencies(p, shots, seed=0, keys=[(0,), (1,)])
    # numpy's binomial takes the shot count as a C long
    for shots in (2**63, 2**70):
        with pytest.raises(ValueError, match="shots must be below 2"):
            sample_frequencies(p, shots, seed=0, keys=[(0,), (1,)])
    assert sample_frequencies(p, 2**63 - 1, seed=0, keys=[(0,), (1,)]).shape == (2, 3)
    with pytest.raises(ValueError):
        sample_frequencies(p, 100, seed=0, keys=[(0,)])
    with pytest.raises(ValueError):
        sample_frequencies(p[0], 100, seed=0, keys=[(0,)] * 3)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**65 + 12345])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_sample_frequencies_streams_are_default_rng_streams(seed, width):
    # the vectorized stream seeding reproduces default_rng([seed, *key]) row by row,
    # for seeds of one to three 32-bit words and keys at both ends of [0, 2**32)
    rng = np.random.default_rng([seed % 1000, width])
    keys = rng.integers(0, 2**32, size=(40, width))
    keys[0], keys[1] = 0, 2**32 - 1
    p = rng.uniform(0.0, 1.0, size=(40, 3))
    out = sample_frequencies(p, 5000, seed=seed, keys=keys)
    for r, key in enumerate(keys.tolist()):
        ref = np.random.default_rng([seed, *key])
        assert np.array_equal(out[r], [ref.binomial(5000, x) / 5000 for x in p[r]])


def test_sample_frequencies_rows_across_blocks_are_default_rng_streams(monkeypatch):
    # 2051 rows of 2 draws, each from its own stream
    monkeypatch.setattr(qcore, "_BLOCK_ENTRIES", 2048)
    n = 2 * qcore._block_rows(2) + 3
    rng = np.random.default_rng(77)
    keys = rng.integers(0, 2**32, size=(n, 2))
    p = rng.uniform(0.0, 1.0, size=(n, 2))
    out = sample_frequencies(p, 100000, seed=13, keys=keys)
    for r, key in enumerate(keys.tolist()):
        assert np.array_equal(out[r], np.random.default_rng([13, *key]).binomial(100000, p[r]) / 100000)


@pytest.mark.parametrize("shots", [20, 100000, 2**62])
@pytest.mark.parametrize(
    "width", [circuit._ARRAY_DRAW_WIDTH - 1, circuit._ARRAY_DRAW_WIDTH, circuit._ARRAY_DRAW_WIDTH + 1, 4096]
)
def test_sample_frequencies_array_rows_are_scalar_draws(monkeypatch, width, shots):
    # rows from the array call's width on draw one binomial call per row: the
    # bytes stay those of scalar draws in row order, on every row; beyond 2**53
    # counts, drawn into the float result and divided once, still give the
    # bits of counts / shots
    monkeypatch.setattr(qcore, "_BLOCK_ENTRIES", 64)
    n = 2 * qcore._block_rows(width) + 1
    rng = np.random.default_rng([width, shots])
    keys = rng.integers(0, 2**32, size=(n, 2))
    p = rng.uniform(0.0, 1.0, size=(n, width))
    p[0, :3] = 0.0, 1.0, 1e-9
    out = sample_frequencies(p, shots, seed=21, keys=keys)
    for r, key in enumerate(keys.tolist()):
        ref = np.random.default_rng([21, *key])
        assert out[r].tobytes() == (np.array([ref.binomial(shots, x) for x in p[r]]) / shots).tobytes(), r


def test_sample_frequencies_key_range_and_empty_input():
    p = np.full((2, 3), 0.5)
    for bad in (-1, 2**32, 2**40):
        with pytest.raises(ValueError, match="keys must lie in"):
            sample_frequencies(p, 100, seed=0, keys=[(0, 1), (bad, 2)])
    # a scan in which every pixel failed samples no row at all
    assert sample_frequencies(np.empty((0, 8)), 100, seed=3, keys=np.empty((0, 2), dtype=int)).shape == (0, 8)


def test_werner_click_deficit_matches_no_click_weight():
    # the detector pair underresolves the Werner signal state by xi/2
    xi, t = 0.4, 0.9
    p_h, p_g = readout(prepare_werner(xi), [t], [0.7], [0.0])[0, 0]
    assert p_h + p_g == pytest.approx(1 - xi / 2, abs=ATOL)
