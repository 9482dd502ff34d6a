import numpy as np
import pytest
from conftest import random_density_matrix
from verifiers import apply_kraus_stack, chi_apply, choi_matrix, choi_psd_check, partial_trace_stack

from uqi.channels import (
    ChiMatrix,
    KrausChannel,
    ModeMixer,
    ObjectParams,
    chi_matrix,
    fold_angles,
    mix_stack,
    object_channel,
    object_kraus,
)
from uqi.circuit import measurement_stack, pipeline_stages, prepare_probe, prepare_werner
from uqi.qcore import (
    DEFAULT_REGISTER,
    DensityMatrix,
    Register,
    basis_ket,
    embed,
)

ATOL = 1e-12

KET = {b: np.outer(basis_ket(a), basis_ket(c).conj()) for a, c, b in
       [("0", "0", "00"), ("0", "1", "01"), ("1", "0", "10"), ("1", "1", "11")]}


def test_object_params_validation():
    with pytest.raises(ValueError):
        ObjectParams(-0.1)
    with pytest.raises(ValueError):
        ObjectParams(1.1)
    for gamma in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phase must be finite"):
            ObjectParams(0.5, gamma)
    assert ObjectParams(0.5, 3 * np.pi).gamma == pytest.approx(np.pi)
    assert ObjectParams(0.5, -np.pi / 2).gamma == pytest.approx(-np.pi / 2)


def test_fold_angles_halfopen_interval():
    assert fold_angles(np.pi) == pytest.approx(np.pi)
    assert fold_angles(-np.pi) == pytest.approx(np.pi)
    assert fold_angles(0.0) == 0.0


def test_object_channel_trace_preserving():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = ObjectParams(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi))
        ch = object_channel(p)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.max(np.abs(total - np.eye(2))) < ATOL


def test_object_channel_population_transfer():
    t, g = 0.6, 0.3
    ch = object_channel(ObjectParams(t, g))
    out = ch.apply(KET["11"])
    want = t**2 * KET["11"] + (1 - t**2) * KET["00"]
    assert np.allclose(out, want, atol=ATOL)


def test_object_channel_coherence_phase():
    t, g = 0.6, 0.3
    ch = object_channel(ObjectParams(t, g))
    out = ch.apply(KET["01"])
    assert np.allclose(out, t * np.exp(-1j * g) * KET["01"], atol=ATOL)
    out = ch.apply(KET["10"])
    assert np.allclose(out, t * np.exp(1j * g) * KET["10"], atol=ATOL)


def test_transparent_object_is_identity():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng, Register(("a",))).mat
    ch = object_channel(ObjectParams(1.0, 0.0))
    assert np.allclose(ch.apply(rho), rho, atol=ATOL)


def test_opaque_object_damps_to_ground():
    ch = object_channel(ObjectParams(0.0, 0.0))
    assert np.allclose(ch.apply(KET["11"]), KET["00"], atol=ATOL)


def test_opaque_object_phase_is_unobservable():
    rng = np.random.default_rng(2)
    rho = random_density_matrix(rng, Register(("a",))).mat
    a = object_channel(ObjectParams(0.0, 0.0)).apply(rho)
    b = object_channel(ObjectParams(0.0, 2.2)).apply(rho)
    assert np.allclose(a, b, atol=ATOL)


def test_object_composition_multiplies_coherences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t1, g1 = rng.uniform(0, 1), rng.uniform(-np.pi, np.pi)
        t2, g2 = rng.uniform(0, 1), rng.uniform(-np.pi, np.pi)
        ch1 = object_channel(ObjectParams(t1, g1))
        ch2 = object_channel(ObjectParams(t2, g2))
        out = ch1.apply(ch2.apply(KET["01"]))
        assert abs(out[0, 1] - t1 * t2 * np.exp(-1j * (g1 + g2))) < ATOL


def test_kraus_channel_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        KrausChannel((np.array([[1.0, 0], [0, 0.5]]),))


def test_apply_channel_identity():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng, DEFAULT_REGISTER)
    kraus = np.eye(2, dtype=complex)[None, None]
    out = apply_kraus_stack(rho.mat[None], kraus)
    assert np.allclose(out[0], rho.mat, atol=ATOL)


def test_apply_channel_dimension_mismatch():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, DEFAULT_REGISTER)
    with pytest.raises(ValueError, match=r"4x4 Kraus operators have no factor in 6x6 states"):
        apply_kraus_stack(np.eye(6)[None] / 6, np.eye(4, dtype=complex)[None, None])
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2, dtype=complex),)).apply(rho.mat)
    with pytest.raises(ValueError):
        KrausChannel((np.eye(4, dtype=complex),)).apply(np.eye(2))


def test_object_on_probe_reproduces_intermediate_state():
    # applying the object channel on i1 of the probe leaves five terms with
    # weights {T^2, 1-T^2, T e^{i g}, T e^{-i g}, 1} / 2
    t, g = 0.6, 0.3
    stages = pipeline_stages(prepare_probe(), [t], [g])
    assert stages.errors == (None,)
    m = stages.post_object[0]
    i1100, i1000, i0011 = int("1100", 2), int("1000", 2), int("0011", 2)
    expected = np.zeros_like(m)
    expected[i1100, i1100] = t**2 / 2
    expected[i1000, i1000] = (1 - t**2) / 2
    expected[i1100, i0011] = t * np.exp(1j * g) / 2
    expected[i0011, i1100] = t * np.exp(-1j * g) / 2
    expected[i0011, i0011] = 0.5
    assert np.allclose(m, expected, atol=ATOL)


def test_trace_preserved_through_apply_channel():
    rng = np.random.default_rng(6)
    ts, gs = rng.uniform(0, 1, 20), rng.uniform(-np.pi, np.pi, 20)
    # i1 leads each state, so the channel acts on the object wire
    stack = np.array([random_density_matrix(rng, DEFAULT_REGISTER).reordered(["i1", "s1", "i2", "s2"])
                      for _ in range(20)])
    out = apply_kraus_stack(stack, object_kraus(ts, gs))
    assert np.max(np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)) < ATOL


def test_chi_identity_channel():
    chi = chi_matrix(KrausChannel((np.eye(2, dtype=complex),)))
    want = np.zeros((4, 4))
    want[0, 0] = 2.0
    assert np.allclose(chi.entries, want, atol=ATOL)


def test_chi_entry_pattern():
    chi = chi_matrix(object_channel(ObjectParams(0.7, -1.2))).entries
    nonzero = {(i, j) for i in range(4) for j in range(4) if abs(chi[i, j]) > ATOL}
    assert nonzero == {(0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)}


def test_chi_frozen_values():
    # independent evaluation of the expansion coefficients for (0.6, 0.3):
    # a_l = Tr[sigma K_l] / sqrt(2) entry by entry, chi = a^T conj(a)
    t, g = 0.6, 0.3
    k = t * np.exp(1j * g)
    w2 = 1 - t**2
    chi = chi_matrix(object_channel(ObjectParams(t, g))).entries
    assert chi[0, 0] == pytest.approx(abs(1 + k) ** 2 / 2, abs=ATOL)
    assert chi[3, 3] == pytest.approx(abs(1 - k) ** 2 / 2, abs=ATOL)
    assert chi[0, 3] == pytest.approx((1 + k) * np.conj(1 - k) / 2, abs=ATOL)
    assert chi[3, 0] == pytest.approx(np.conj(chi[0, 3]), abs=ATOL)
    assert chi[1, 1] == pytest.approx(w2 / 2, abs=ATOL)
    assert chi[2, 2] == pytest.approx(w2 / 2, abs=ATOL)
    assert chi[1, 2] == pytest.approx(-1j * w2 / 2, abs=ATOL)
    assert chi[2, 1] == pytest.approx(1j * w2 / 2, abs=ATOL)
    # frozen literals for the same point
    assert chi[0, 0].real == pytest.approx(1.2532018934753635, abs=1e-12)
    assert chi[0, 3] == pytest.approx(0.32 + 0.17731212399680438j, abs=1e-12)
    assert chi[3, 3].real == pytest.approx(0.10679810652463691, abs=1e-12)


def test_chi_roundtrip_reproduces_channel_on_basis():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = ObjectParams(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi))
        ch = object_channel(p)
        chi = chi_matrix(ch)
        for unit in KET.values():
            assert np.allclose(chi_apply(chi, unit), ch.apply(unit), atol=ATOL)


def test_chi_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        chi_matrix(KrausChannel((np.eye(4, dtype=complex),)))


def test_chi_matrix_validation():
    with pytest.raises(ValueError):
        ChiMatrix(np.diag([1.0, -1.0, 0.0, 0.0]))


def test_choi_identity_is_rank_one():
    identity = KrausChannel((np.eye(2, dtype=complex),))
    ok, min_eig = choi_psd_check(identity)
    assert ok
    assert abs(min_eig) < 1e-10
    c = choi_matrix(identity)
    eigs = np.linalg.eigvalsh(c)
    assert abs(eigs[-1] - 2.0) < ATOL  # single eigenvalue d = 2


def test_choi_object_channel_is_cp():
    # independent oracle: build the Choi matrix by hand from the map action
    # and feed it to the raw eigensolver
    p = ObjectParams(0.5, 1.0)
    ch = object_channel(p)
    by_hand = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            by_hand += np.kron(unit, sum(k @ unit @ k.conj().T for k in ch.kraus_ops))
    assert np.linalg.eigvalsh((by_hand + by_hand.conj().T) / 2).min() >= -1e-10
    ok, _ = choi_psd_check(ch)
    assert ok


def test_choi_detects_transposition_as_non_cp():
    ok, min_eig = choi_psd_check(lambda m: m.T, dim=2)
    assert not ok
    assert min_eig < -0.5


def test_choi_cp_over_parameter_grid():
    for t in np.linspace(0, 1, 20):
        for g in np.linspace(-np.pi, np.pi, 20, endpoint=False):
            ok, min_eig = choi_psd_check(object_channel(ObjectParams(t, g)))
            assert ok, (t, g, min_eig)


def test_mode_mixer_mapping():
    mm = ModeMixer()
    e = np.eye(4, dtype=complex)
    assert np.allclose(mm.op @ e[1], mm.xi, atol=ATOL)   # |01> -> |Xi>
    assert np.allclose(mm.op @ e[2], mm.xi, atol=ATOL)   # |10> -> |Xi>
    assert np.allclose(mm.op @ e[0], e[0], atol=ATOL)    # |00> untouched
    assert np.allclose(mm.op @ e[3], e[3], atol=ATOL)    # |11> untouched


def test_mode_mixer_default_target_state():
    want = np.kron([1, -1], [1, 1]).astype(complex) / 2  # |-> (x) |+>
    assert np.allclose(ModeMixer().xi, want, atol=ATOL)


@pytest.mark.parametrize("werner_xi", [None, 0.3, 2 / 3], ids=["bell", "werner-0.3", "werner-2/3"])
def test_signal_does_not_depend_on_mixer_target_state(werner_xi):
    # every readout comes from the signal, Tr_idlers[M rho M^†], which sees
    # |Xi> only through M^†M: beyond <Xi|Xi> = 1, its <00|Xi> and <11|Xi>
    # terms couple the idler sectors {01, 10} and {00, 11}.  These probes
    # have no coherence between the sectors, so any unit target gives one
    # signal (see the next test for a probe that has)
    probe = prepare_probe() if werner_xi is None else prepare_werner(werner_xi)
    rng = np.random.default_rng(20)
    t, gamma = rng.uniform(0.0, 1.0, 50), rng.uniform(-np.pi, np.pi, 50)
    stages = pipeline_stages(probe, t, gamma)
    reg = probe.register
    assert np.max(np.abs(_idler_sector_coherence(stages.post_object))) == 0.0
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        signal = _signal_with_mixer_target(stages.post_object, reg, v)
        assert np.max(np.abs(signal - stages.signal)) <= 1e-15


def _idler_sector_coherence(stack):
    """The entries of a ``(n, 16, 16)`` stack between idler sectors ``{01, 10}`` and ``{00, 11}``."""
    idlers = (np.arange(16) >> 1) & 3  # (i1, i2) of each basis index, wires (s1, i1, i2, s2)
    one = np.isin(idlers, (1, 2))
    return stack[:, one][:, :, ~one]


def _signal_with_mixer_target(post_object, reg, target):
    """The signal stack after a mixer sending ``|01>`` and ``|10>`` to the unit ``target``."""
    e = np.eye(4)
    m = np.outer(target, e[1] + e[2]) + np.outer(e[0], e[0]) + np.outer(e[3], e[3])
    mixed, vanished = mix_whole(post_object, embed(m, ["i1", "i2"], reg))
    assert not vanished.any()
    return partial_trace_stack(mixed, reg, ["s1", "s2"])


def test_signal_depends_on_mixer_target_state_for_sector_coherent_probe():
    # a fully separable probe: the equal mixture over theta = 2 pi k/8 of
    # (|0> + e^{i theta}|1>)/sqrt(2) on s1 and i2 with |+> on i1 and s2.
    # Its post-object state is coherent between the idler sectors, so the
    # readouts move with |Xi>
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    mat = np.zeros((16, 16), dtype=complex)
    for k in range(8):
        a = np.array([1.0, np.exp(2j * np.pi * k / 8)]) / np.sqrt(2)
        ket = np.kron(np.kron(np.kron(a, plus), a), plus)
        mat += np.outer(ket, ket.conj()) / 8
    probe = DensityMatrix(mat, DEFAULT_REGISTER)
    gamma = 2 * np.pi * np.arange(24) / 24
    stages = pipeline_stages(probe, np.full(24, 0.8), gamma)
    assert stages.errors == (None,) * 24
    assert np.max(np.abs(_idler_sector_coherence(stages.post_object))) > 0.05
    e = np.eye(4)
    signal = _signal_with_mixer_target(stages.post_object, DEFAULT_REGISTER, (e[1] + e[2]) / np.sqrt(2))
    m_h = measurement_stack([0.0])[0, 0]
    p_h = np.einsum("ij,nji->n", m_h, stages.signal).real
    p_h_other = np.einsum("ij,nji->n", m_h, signal).real
    assert np.max(np.abs(p_h - p_h_other)) == pytest.approx(0.0225, abs=1e-12)


def test_apply_mode_mixer_on_post_object_state():
    # after the mixer every surviving idler term carries |Xi><Xi| except the
    # damped population, which stays on |00>
    t, g = 0.6, 0.3
    mm = ModeMixer()
    stages = pipeline_stages(prepare_probe(), [t], [g])
    assert stages.errors == (None,)
    xixi = np.outer(mm.xi, mm.xi.conj())
    e2 = np.eye(2, dtype=complex)
    k = {(a, b): np.outer(e2[a], e2[b]) for a in (0, 1) for b in (0, 1)}
    e00 = np.zeros((4, 4), dtype=complex)
    e00[0, 0] = 1.0
    want = 0.5 * (
        t**2 * np.kron(np.kron(k[1, 1], xixi), k[0, 0])
        + (1 - t**2) * np.kron(np.kron(k[1, 1], e00), k[0, 0])
        + t * np.exp(1j * g) * np.kron(np.kron(k[1, 0], xixi), k[0, 1])
        + t * np.exp(-1j * g) * np.kron(np.kron(k[0, 1], xixi), k[1, 0])
        + np.kron(np.kron(k[0, 0], xixi), k[1, 1])
    )
    assert np.allclose(stages.post_mixer[0], want, atol=ATOL)


MIXER_ON_IDLERS = embed(ModeMixer.op, ["i1", "i2"], DEFAULT_REGISTER)


def mix_whole(stack, m):
    """:func:`mix_stack` on whole states: every row and column of the register, in a new array."""
    n, k = len(stack), len(m)
    return mix_stack(stack, m, np.arange(k), k, np.empty((n, k, k), dtype=complex), np.empty((n, k, k), dtype=complex))


def test_apply_mode_mixer_leaves_00_support_alone():
    rho = DensityMatrix.from_ket(basis_ket("0000"), DEFAULT_REGISTER)
    out, vanished = mix_whole(rho.mat[None], MIXER_ON_IDLERS)
    assert not vanished[0]
    assert np.allclose(out[0], rho.mat, atol=ATOL)


def test_apply_mode_mixer_maps_01_to_target():
    rho = DensityMatrix.from_ket(basis_ket("01"), Register(("i1", "i2")))
    mm = ModeMixer()
    out, _ = mix_whole(rho.mat[None], mm.op)
    assert np.allclose(out[0], np.outer(mm.xi, mm.xi.conj()), atol=ATOL)


def test_apply_mode_mixer_renormalizes_exactly():
    rng = np.random.default_rng(8)
    stack = np.array([random_density_matrix(rng, DEFAULT_REGISTER).mat for _ in range(10)])
    out, vanished = mix_whole(stack, MIXER_ON_IDLERS)
    assert not vanished.any()
    assert np.max(np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)) < 1e-14


def test_apply_mode_mixer_vanishing_support():
    # (|01> - |10>)/sqrt(2) spans the mixer kernel; embed it on the idlers
    psi = (basis_ket("0010") - basis_ket("0100")) / np.sqrt(2)
    rho = DensityMatrix.from_ket(psi, DEFAULT_REGISTER)
    _, vanished = mix_whole(np.stack([rho.mat, np.eye(16) / 16]), MIXER_ON_IDLERS)
    assert vanished.tolist() == [True, False]


def test_mix_stack_renormalizes_in_place_with_the_bits_of_a_division():
    # the parent formed num = M rho M^† and returned num / norm; mix_stack divides in place in its out array
    rng = np.random.default_rng(27)
    singlet = (basis_ket("0010") - basis_ket("0100")) / np.sqrt(2)  # the mixer's kernel: its norm vanishes
    stack = np.array(
        [random_density_matrix(rng, DEFAULT_REGISTER).mat for _ in range(5)]
        + [np.outer(singlet, singlet.conj()), np.zeros((16, 16)), np.diag(np.arange(16.0) / 120)]
    )
    stack[1, ::2, 1::2] = stack[1, 1::2, ::2] = 0.0  # exact zeros on a checkerboard
    out = np.full((len(stack), 16, 16), np.nan, dtype=complex)
    mixed, vanished = mix_stack(stack, MIXER_ON_IDLERS, np.arange(16), 16, np.empty_like(out), out)
    num = MIXER_ON_IDLERS @ stack @ MIXER_ON_IDLERS.conj().T
    norm = np.trace(num, axis1=1, axis2=2).real
    assert vanished.tolist() == (norm <= 1e-14).tolist() == [False] * 5 + [True, True, False]
    assert mixed is out
    assert out.tobytes() == (num / np.where(vanished, 1.0, norm)[:, None, None]).tobytes()


def test_in_place_division_keeps_signed_zeros_and_unit_divisors():
    # the identity mix_stack relies on: np.divide into its own operand gives the bits of num / norm,
    # where a multiply by the reciprocal flips the sign of some zeros
    parts = np.array([0.0, -0.0, 1e-300, -3.5, 5e-324, -0.0, 0.25, 0.0])
    num = (parts[:, None] + 1j * parts[None, ::-1]).reshape(4, 4, 4)
    norm = np.array([3.0, 1.0, 0.7, 1.0])  # 1.0 in place of a vanished normalization
    want = num / norm[:, None, None]
    reciprocal = num * (1.0 / norm)[:, None, None]
    np.divide(num, norm[:, None, None], out=num)
    assert num.tobytes() == want.tobytes()
    flipped = np.signbit(reciprocal.view(float)) != np.signbit(want.view(float))
    assert flipped.any() and (want.view(float)[flipped] == 0.0).all()


def test_channel_tensor_product():
    rng = np.random.default_rng(9)
    t, g = 0.4, 0.7
    # the object on i1 beside the identity on i2: Kraus operators K (x) I
    lifted = KrausChannel(tuple(np.kron(k, np.eye(2)) for k in object_channel(ObjectParams(t, g)).kraus_ops))
    rho = random_density_matrix(rng, Register(("i1", "i2")))
    via_stack = apply_kraus_stack(rho.mat[None], object_kraus([t], [g]))  # i1 leads the register
    assert np.allclose(lifted.apply(rho.mat), via_stack[0], atol=ATOL)
