import warnings

import numpy as np
import pytest
from conftest import angle_diff, fail_second_setting, random_density_matrix, readout, sweep_points
from verifiers import fringe, heisenberg_operators, partial_trace_stack, schmidt_reconstruct

from uqi.channels import (
    KrausChannel,
    ModeMixer,
    ObjectParams,
    object_channel,
)
from uqi import qcore, tomography
from uqi.circuit import (
    measurement_stack,
    pipeline_stages,
    prepare_probe,
    prepare_werner,
    run_batch,
    sample_frequencies,
)
from uqi.qcore import (
    DEFAULT_REGISTER,
    PAULI,
    DensityMatrix,
    Register,
    _support,
    basis_ket,
    embed,
    partial_transpose,
)
from uqi.tomography import (
    ImageMaps,
    SchmidtData,
    _fit,
    _phase_design,
    _sinusoid_rows,
    _visibilities,
    aapt_predict,
    estimate_object,
    image_scan,
    operator_schmidt,
    visibility,
)

ATOL = 1e-12


def explicit_hermitian_basis():
    """Closed-form Hermitian operator family satisfying the Schmidt
    identity for the probe with coefficients (1/2, 1/2, 1/2, -1/2)."""
    s8 = np.sqrt(8)
    i2 = np.eye(2, dtype=complex)
    x, y, z = PAULI["X"], PAULI["Y"], PAULI["Z"]
    ops = [
        (np.kron(i2, i2) - np.kron(z, z)) / s8,
        (np.kron(z, i2) - np.kron(i2, z)) / s8,
        (np.kron(x, x) + np.kron(y, y)) / s8,
        (np.kron(x, y) - np.kron(y, x)) / s8,
    ]
    return ops, [0.5, 0.5, 0.5, -0.5]


def check_schmidt_contract(rho, parts):
    sd = operator_schmidt(rho, parts)
    recon = schmidt_reconstruct(sd)
    target = rho.reordered(list(parts[0]) + list(parts[1]))
    assert np.max(np.abs(recon - target)) < ATOL
    for ops in (sd.a_ops, sd.b_ops):
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                want = 1.0 if i == j else 0.0
                assert abs(np.trace(a @ b.conj().T) - want) < ATOL
    return sd


def test_schmidt_product_state_rank_one():
    rng = np.random.default_rng(0)
    ra = random_density_matrix(rng, Register(("i1", "i2")))
    rb = random_density_matrix(rng, Register(("s1", "s2")))
    joint = DensityMatrix(
        np.kron(ra.mat, rb.mat), Register(("i1", "i2", "s1", "s2"))
    )
    sd = check_schmidt_contract(joint, (("i1", "i2"), ("s1", "s2")))
    assert sd.rank == 1
    assert sd.r[0] == pytest.approx(np.linalg.norm(ra.mat) * np.linalg.norm(rb.mat), abs=ATOL)


def test_schmidt_probe_singular_values():
    sd = check_schmidt_contract(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    assert sd.rank == 4
    assert np.allclose(sd.r, 0.5, atol=ATOL)
    assert all(sd.hermitian)


def test_schmidt_random_states_and_bipartitions():
    rng = np.random.default_rng(1)
    partitions = [
        (("i1", "i2"), ("s1", "s2")),
        (("s1",), ("i1", "i2", "s2")),
        (("s1", "i2"), ("i1", "s2")),
        (("s2", "s1"), ("i2", "i1")),
    ]
    for parts in partitions:
        for _ in range(5):
            rho = random_density_matrix(rng, DEFAULT_REGISTER)
            sd = check_schmidt_contract(rho, parts)
            assert all(sd.hermitian)


def test_schmidt_bad_bipartitions():
    rho = prepare_probe()
    with pytest.raises(ValueError):
        operator_schmidt(rho, (("s1",), ("i1", "i2")))
    with pytest.raises(ValueError):
        operator_schmidt(rho, ((), tuple(DEFAULT_REGISTER.wires)))
    with pytest.raises(ValueError):
        operator_schmidt(rho, (("s1", "i1"), ("i1", "i2", "s2")))


def test_explicit_basis_satisfies_schmidt_identity():
    # Tr[(A_l (x) B_m) rho] = r_l delta_lm with r = (1/2, 1/2, 1/2, -1/2)
    ops, r = explicit_hermitian_basis()
    rho = prepare_probe()
    for l in range(4):
        for m in range(4):
            obs = embed(ops[l], ["i1", "i2"], rho.register) @ embed(
                ops[m], ["s1", "s2"], rho.register
            )
            got = np.trace(obs @ rho.mat)
            want = r[l] if l == m else 0.0
            assert abs(got - want) < ATOL
    recon = sum(rl * np.kron(a, a) for rl, a in zip(r, ops))
    assert np.max(np.abs(recon - rho.reordered(["i1", "i2", "s1", "s2"]))) < ATOL


def brute_force_ancilla_expectations(sd, obj, with_mixer):
    """Oracle: evolve the probe state itself and read Tr[B_l rho_out].

    The mixer (when present) is applied without renormalization so the
    comparison matches the linear relation term by term.
    """
    rho = prepare_probe()
    out = np.zeros_like(rho.mat)
    for k in object_channel(obj).kraus_ops:
        ke = embed(k, ["i1"], rho.register)
        out += ke @ rho.mat @ ke.conj().T
    if with_mixer:
        m = embed(ModeMixer.op, ["i1", "i2"], rho.register)
        out = m @ out @ m.conj().T
    vals = []
    for b in sd.b_ops:
        be = embed(b.conj().T, ["s1", "s2"], rho.register)
        vals.append(np.trace(be @ out))
    return np.array(vals)


def object_on_i1(obj):
    """The object channel on i1 beside the identity on i2: Kraus operators ``K (x) I``."""
    return KrausChannel(tuple(np.kron(k, np.eye(2)) for k in object_channel(obj).kraus_ops))


def test_aapt_predict_identity_channel():
    sd = operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    got = aapt_predict(sd, KrausChannel((np.eye(4, dtype=complex),)))
    want = np.array([r * np.trace(a) for r, a in zip(sd.r, sd.a_ops)])
    assert np.allclose(got, want, atol=ATOL)


def test_aapt_predict_matches_brute_force_linear_post():
    obj = ObjectParams(0.7, -0.9)
    sd = operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    lifted = object_on_i1(obj)
    got = aapt_predict(sd, lifted)
    want = brute_force_ancilla_expectations(sd, obj, with_mixer=False)
    assert np.allclose(got, want, atol=ATOL)


def test_aapt_predict_matches_brute_force_with_mixer():
    obj = ObjectParams(0.55, 2.1)
    sd = operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    lifted = object_on_i1(obj)
    got = aapt_predict(sd, lifted, post=ModeMixer())
    want = brute_force_ancilla_expectations(sd, obj, with_mixer=True)
    assert np.allclose(got, want, atol=ATOL)


def test_aapt_predict_quadratures_with_explicit_basis():
    # with the explicit operator family the two interference terms carry
    # T cos(gamma) and T sin(gamma); the pipeline state shows the same
    # components, scaled by the operator normalization sqrt(8)/4
    t, g = 0.8, 0.6
    obj = ObjectParams(t, g)
    ops, r = explicit_hermitian_basis()
    sd = SchmidtData(
        r=np.array(r),
        a_ops=tuple(np.asarray(o, dtype=complex) for o in ops),
        b_ops=tuple(np.asarray(o, dtype=complex) for o in ops),
        dim_a=4,
        dim_b=4,
        hermitian=(True,) * 4,
    )
    lifted = object_on_i1(obj)
    got = aapt_predict(sd, lifted, post=ModeMixer())
    scale = np.sqrt(2) / 2
    assert got[2] == pytest.approx(scale * t * np.cos(g), abs=ATOL)
    assert got[3] == pytest.approx(-scale * t * np.sin(g), abs=ATOL)
    # the same numbers read off the simulated signal state
    sig = pipeline_stages(prepare_probe(), [t], [g]).signal[0]
    for i, b in enumerate(sd.b_ops):
        direct = np.trace(b.conj().T @ sig)
        assert got[i] == pytest.approx(direct, abs=ATOL)


def pauli_process_signals(probe):
    """``out[a, b]``: the unnormalized signal of the process ``X -> sigma_a X sigma_b`` on i1.

    The process acts on the probe's i1, the mixer follows as ``M rho M^†``
    without renormalizing (so the map stays linear), and the idlers are
    traced out.  Shape ``(4, 4, 4, 4)``, Paulis in ``IXYZ`` order.
    """
    reg = probe.register
    sigma = [embed(PAULI[k], ["i1"], reg) for k in "IXYZ"]
    m = embed(ModeMixer.op, ["i1", "i2"], reg)
    stack = np.stack([m @ sa @ probe.mat @ sb @ m.conj().T for sa in sigma for sb in sigma])
    return partial_trace_stack(stack, reg, ["s1", "s2"]).reshape(4, 4, 4, 4)


def tp_hp_process_directions():
    """A basis of the 12 real directions of trace-preserving, Hermiticity-preserving qubit processes.

    A process ``X -> sum_ab c_ab sigma_a X sigma_b`` preserves Hermiticity
    when ``c`` is Hermitian (16 real parameters) and trace when
    ``sum_ab c_ab sigma_b sigma_a = I``; the directions along which it
    stays trace preserving are the null space of that 4-real condition.
    """
    units = []
    for a in range(4):
        for b in range(a, 4):
            e = np.zeros((4, 4), dtype=complex)
            e[a, b] = 1.0
            units += [e] if a == b else [e + e.T, 1j * (e - e.T)]
    paulis = [PAULI[k] for k in "IXYZ"]
    trace_part = []
    for c in units:
        t = sum(c[a, b] * paulis[b] @ paulis[a] for a in range(4) for b in range(4))
        trace_part.append(np.concatenate([t.real.ravel(), t.imag.ravel()]))
    _, sv, vh = np.linalg.svd(np.array(trace_part).T)
    null = vh[np.count_nonzero(sv > 1e-12):]
    return np.einsum("kj,jab->kab", null, np.array(units))


@pytest.mark.parametrize("probe, real_rank, complex_rank, readout_rank, imbalance", [
    (prepare_probe(), 4, 4, 3, 1.0),
    (prepare_werner(0.3), 4, 6, 3, 0.985),
], ids=["bell", "werner-0.3"])
def test_partial_aapt_rank(probe, real_rank, complex_rank, readout_rank, imbalance):
    # imaging with undetected photons is a partial ancilla-assisted process
    # tomography: of the 12 real parameters of a general qubit process on
    # i1, the signals after the mixer see only real_rank combinations
    sig = pauli_process_signals(probe)
    directions = tp_hp_process_directions()
    assert directions.shape == (12, 4, 4)
    signals = np.einsum("kab,abij->kij", directions, sig)
    real_map = np.concatenate([signals.real, signals.imag], axis=1).reshape(12, -1)
    assert np.linalg.matrix_rank(real_map) == real_rank
    assert np.linalg.matrix_rank(sig.reshape(16, 16)) == complex_rank
    # the phase-shifted Bell pair reads readout_rank of them, with both detectors
    # or m_h alone: Tr[Pi s] on the one-photon subspace and the real and
    # imaginary parts of the |01><10| coherence
    ops = measurement_stack(np.linspace(0, 2 * np.pi, 16))
    readouts = np.einsum("pdij,kji->kpd", ops, signals).real
    named = np.stack([(signals[:, 1, 1] + signals[:, 2, 2]).real, signals[:, 1, 2].real, signals[:, 1, 2].imag], axis=1)
    for functionals in (readouts.reshape(12, -1), readouts[..., 0], named):
        assert np.linalg.matrix_rank(functionals) == readout_rank
    assert np.linalg.matrix_rank(np.concatenate([readouts.reshape(12, -1), named], axis=1)) == readout_rank
    # m_h + m_g weights |01> and |10> alike at every phase, so the unit signal
    # direction that no readout sees is (nearly) the imbalance (|01><01| - |10><10|)/sqrt(2)
    image = np.linalg.svd(real_map)[2][:real_rank].reshape(real_rank, 2, 4, 4)
    image = image[:, 0] + 1j * image[:, 1]  # an orthonormal basis of the signal span
    seen = np.einsum("pdij,kji->kpd", ops, image).real.reshape(real_rank, -1)
    unread = np.einsum("k,kij->ij", np.linalg.svd(seen.T)[2][-1], image)
    assert abs(unread[1, 1] - unread[2, 2]) / np.sqrt(2) == pytest.approx(imbalance, abs=1e-3)


def test_aapt_predict_dimension_check():
    sd = operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    with pytest.raises(ValueError):
        aapt_predict(sd, KrausChannel((np.eye(2, dtype=complex),)))


def test_estimate_two_point_exact():
    t, g = 0.8, np.pi / 3
    est = estimate_object(sweep_points(t, g, [0.0, np.pi / 2]))
    assert est.method == "two-point"
    assert est.t_hat == pytest.approx(t, abs=ATOL)
    assert est.gamma_hat == pytest.approx(g, abs=ATOL)
    assert not est.degenerate
    assert est.stderr_t is None


def test_estimate_round_trip_grid_both_methods():
    phis2 = [0.0, np.pi / 2]
    phis12 = [2 * np.pi * k / 12 for k in range(12)]
    for t in np.linspace(0.05, 1.0, 20):
        for g in np.linspace(-np.pi, np.pi, 20, endpoint=False):
            e2 = estimate_object(sweep_points(t, g, phis2))
            el = estimate_object(sweep_points(t, g, phis12))
            for est in (e2, el):
                assert abs(est.t_hat - t) < ATOL
                assert abs(angle_diff(est.gamma_hat, g)) < ATOL


def test_estimate_degenerate_object():
    est = estimate_object(sweep_points(0.0, 0.9, [0.0, np.pi / 2]))
    assert est.degenerate
    assert np.isnan(est.gamma_hat)


def test_estimate_rejects_single_phase():
    # one phase setting only pins T cos(gamma + phi); both methods refuse
    with pytest.raises(ValueError, match="^least-squares inversion needs at least three phase points$"):
        estimate_object([(0.0, 0.4)])
    with pytest.raises(ValueError, match="^duplicate phase values: cannot invert a single setting$"):
        estimate_object([(0.0, 0.4), (0.0, 0.4)])
    with pytest.raises(ValueError, match="^duplicate phase values: cannot invert a single setting$"):
        estimate_object([(0.0, 0.4), (0.0, 0.41), (0.0, 0.39)])
    # phases within 1e-12 of each other are still a single setting
    for phis in ([0.0, 1e-13, 0.0], [0.5, 0.5 + 4e-13, 0.5 - 4e-13]):
        with pytest.raises(ValueError, match="duplicate phase values"):
            estimate_object([(p, 0.4) for p in phis])
    with pytest.raises(ValueError, match="^phase points pi apart are degenerate for the two-point inversion$"):
        estimate_object([(0.0, 0.4), (np.pi, 0.6)])
    # three points on two phases modulo 2 pi: the design has rank 2
    for phis in ([0.0, np.pi, 0.0], [0.0, 2 * np.pi, 1.0], [0.3, 1.2, 0.3, 1.2]):
        with pytest.raises(ValueError, match="three distinct phases"):
            estimate_object(sweep_points(0.8, 1.0, phis))


@pytest.mark.parametrize("phis, method", [
    ([0.0, np.pi / 2], "two-point"),
    ([0.3, 1.1], "two-point"),
    ([0.0, np.pi / 2, 2.0], "least-squares"),
    ([2 * np.pi * k / 12 for k in range(12)], "least-squares"),
])
def test_phase_count_picks_the_method(monkeypatch, phis, method):
    # exactly two phases invert two-point, three or more by least squares, at
    # every entry: estimate_object and image_scan here, sweep in test_cli
    assert _phase_design(np.array(phis))[0] == method
    assert estimate_object(sweep_points(0.7, 1.2, phis)).method == method
    seen = []

    def spy(used, *args):
        seen.append(used)
        return _fit(used, *args)

    monkeypatch.setattr(tomography, "_fit", spy)
    image_scan(ImageMaps([[0.7]], [[1.2]]), phis)
    assert seen == [method]


def test_method_is_not_an_option():
    pts = sweep_points(0.7, 1.2, [0.0, np.pi / 2, 2.0])
    with pytest.raises(TypeError):
        estimate_object(pts, method="least-squares")
    with pytest.raises(TypeError):
        image_scan(ImageMaps([[0.7]], [[1.2]]), [0.0, np.pi / 2], method="two-point")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["two-point", "least-squares"])
def test_estimate_rejects_non_finite_input(method, bad):
    n = 2 if method == "two-point" else 3  # the phase count that picks the method
    with pytest.raises(ValueError, match=f"measurement phase must be finite, got {bad}"):
        estimate_object([(0.0, 0.5), (bad, 0.5), (bad, 0.5)][:n])
    with pytest.raises(ValueError, match=f"measurement phase must be finite, got {bad}"):
        estimate_object([(bad, 0.5), (0.0, 0.5), (1.0, 0.5)][:n], shots=100)
    with pytest.raises(ValueError, match=f"detection probability must be finite, got {bad}"):
        estimate_object([(0.0, 0.5), (1.0, bad), (2.0, 0.5)][:n])


def test_estimate_probability_range_has_the_engine_slack():
    # an engine readout may leave [0, 1] by rounding: ATOL is the slack
    assert estimate_object([(0.0, 1.0 + ATOL / 2), (np.pi / 2, 0.5)]).t_hat == pytest.approx(1.0, abs=2 * ATOL)
    with pytest.raises(ValueError, match=r"^detection probability must lie in \[0, 1\], got -2e-12$"):
        estimate_object([(0.0, 0.5), (np.pi / 2, -2 * ATOL)])


def test_probability_rule_is_one_rule_with_the_engine_slack():
    # visibility and the sampler take estimate_object's rule, and the sampler still clips the slack
    assert visibility([1.0 + ATOL / 2, 0.5]) == pytest.approx(1.0 / 3.0, abs=ATOL)
    assert np.array_equal(sample_frequencies([[1.0 + ATOL / 2, -ATOL / 2]], 10, 0, [(0,)]), [[1.0, 0.0]])
    for call in (lambda: visibility([0.5, -2 * ATOL]), lambda: estimate_object([(0.0, 0.5), (1.0, -2 * ATOL)])):
        with pytest.raises(ValueError, match=r"^detection probability must lie in \[0, 1\], got -2e-12$"):
            call()
    with pytest.raises(ValueError, match=r"^click probability must lie in \[0, 1\], got 1.000000000002$"):
        sample_frequencies([[0.5], [1.0 + 2 * ATOL]], 10, 0, [(0,), (1,)])


def _pinv_rows(phis):
    """The reference least-squares rows: numpy's SVD pseudo-inverse of the (1, cos, sin) design."""
    return np.linalg.pinv(np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)]))


_FIT_PHASE_SETS = [
    *((f"uniform-{m}", np.array([2 * np.pi * k / m for k in range(m)])) for m in (3, 4, 5, 8, 12, 24, 64, 1024, 4096)),
    *((f"random-{m}", np.random.default_rng(m).uniform(-10.0, 10.0, m)) for m in (3, 7, 50, 500)),
]


@pytest.mark.parametrize("phis", [p for _, p in _FIT_PHASE_SETS], ids=[name for name, _ in _FIT_PHASE_SETS])
def test_sinusoid_rows_match_pinv(phis):
    want = _pinv_rows(phis)
    assert np.abs(_sinusoid_rows(phis) - want).max() <= 1e-12 * np.abs(want).max()


def test_sinusoid_rows_at_close_phases():
    # three phases 2 pi/1024 apart: the rows stay within 1e-9 of pinv's, and they still
    # cancel the 1/2 offset, which one Gram-Schmidt pass left at an error of 1e-6 in T
    h = 2 * np.pi / 1024
    phis = np.array([0.0, h, 2 * h])
    want = _pinv_rows(phis)
    assert np.abs(_sinusoid_rows(phis) - want).max() <= 1e-9 * np.abs(want).max()
    est = estimate_object(sweep_points(0.7, 1.2, phis))
    assert est.t_hat == pytest.approx(0.7, abs=1e-10)
    assert abs(angle_diff(est.gamma_hat, 1.2)) < 1e-10


def test_two_point_design_matches_the_inverse():
    for p1, p2 in np.random.default_rng(12).uniform(-4.0, 4.0, (50, 2)):
        method, g = _phase_design(np.array([p1, p2]))
        want = np.linalg.inv([[np.cos(p1), -np.sin(p1)], [np.cos(p2), -np.sin(p2)]])
        assert method == "two-point"
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("phis", [
    [0.0, 1e-7, 2e-7], [0.0, 1e-9], [1.0, 1.0 + 1e-6, 1.0 + 2e-6, 1.0 + 3e-6], [0.5, 0.5 + 1e-7, 0.5 + np.pi],
])
def test_phase_design_rejects_sets_too_close_to_invert(phis):
    with pytest.raises(ValueError, match=r"^phase points too close to invert: readouts off by 1e-12 .* \(limit 1e-06\)$"):
        _phase_design(np.array(phis))


@pytest.mark.parametrize("phis", [
    [1e300, 2e300, 3e300], [1e308, -1e308], [-1.7976931348623157e308, 0.0, 1.7976931348623157e308],
])
def test_extreme_finite_phases_invert_without_a_warning(phis):
    # np.round(phis, 12) overflowed above about 1.8e296 and reported a false
    # duplicate set; the two-point phase difference overflowed to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_object(sweep_points(0.5, 0.3, phis))
        scan = image_scan(ImageMaps([[0.5]], [[0.3]]), phis)
        with pytest.raises(ValueError, match="^duplicate phase values"):
            estimate_object([(phis[0], 0.5)] * len(phis))
        with pytest.raises(ValueError, match="three distinct phases"):
            estimate_object([(p, 0.5) for p in (phis[0], phis[1], phis[0])])
    assert est.method == ("two-point" if len(phis) == 2 else "least-squares")
    assert est.t_hat == pytest.approx(0.5, abs=1e-12)
    assert abs(angle_diff(est.gamma_hat, 0.3)) < 1e-12
    assert (scan.t_hat[0, 0], scan.gamma_hat[0, 0]) == (est.t_hat, est.gamma_hat)


def test_estimate_two_point_generic_phase_pair():
    t, g = 0.62, -2.3
    est = estimate_object(sweep_points(t, g, [0.3, 1.1]))
    assert est.t_hat == pytest.approx(t, abs=1e-11)
    assert abs(angle_diff(est.gamma_hat, g)) < 1e-11


def test_estimate_monte_carlo_bounds():
    # derived binomial bound: 1e5 shots on a 12-point sweep keeps the
    # estimate within (0.02, 0.04) of the truth in at least 95 of 100 runs
    t, g = 0.6, -1.0
    phis = [2 * np.pi * k / 12 for k in range(12)]
    good = 0
    for seed in range(100):
        pts = sweep_points(t, g, phis, shots=10**5, seed=seed)
        est = estimate_object(pts, shots=10**5)
        if abs(est.t_hat - t) < 0.02 and abs(angle_diff(est.gamma_hat, g)) < 0.04:
            good += 1
    assert good >= 95


@pytest.mark.parametrize("t, g", [(0.6, -1.0), (0.3, 2.0), (0.95, 0.4)])
@pytest.mark.parametrize(
    "method, phis",
    [("two-point", [0.0, np.pi / 2]), ("least-squares", [2 * np.pi * k / 8 for k in range(8)])],
)
def test_estimate_standard_errors_are_calibrated(t, g, method, phis):
    # over 400 seeded sweeps at 1e4 shots the z-scores of both estimates
    # have unit variance: the reported errors are the real spread, not a bound
    shots, repeats = 10**4, 400
    p_h = np.array([v for _, v in sweep_points(t, g, phis)])
    freq = sample_frequencies(np.tile(p_h, (repeats, 1)), shots, seed=7, keys=np.arange(repeats)[:, None])
    design = _phase_design(np.array(phis))
    assert design[0] == method
    fit = _fit(*design, freq, shots)
    assert not fit["degenerate"].any()
    z_t = (fit["t_hat"] - t) / fit["stderr_t"]
    z_g = angle_diff(fit["gamma_hat"], g) / fit["stderr_gamma"]
    for z in (z_t, z_g):
        assert 0.8 <= np.var(z, ddof=1) <= 1.25


def test_estimate_shot_mode_reports_standard_errors():
    pts = sweep_points(0.7, 0.4, [2 * np.pi * k / 8 for k in range(8)], shots=10**4, seed=5)
    est = estimate_object(pts, shots=10**4)
    assert est.stderr_t is not None and est.stderr_t > 0
    assert est.stderr_gamma is not None and est.stderr_gamma > 0
    assert abs(est.t_hat - 0.7) < 5 * est.stderr_t


def dense_reference_covariance(phis, ps, shots, method):
    """Covariance of (c, s) written out with the dense diagonal variance matrix."""
    if method == "two-point":
        a = np.array([[np.cos(p), -np.sin(p)] for p in phis[:2]])
        ainv = np.linalg.inv(a)
        var_y = 4.0 * np.maximum(ps[:2] * (1 - ps[:2]), 1e-12) / shots
        return ainv @ np.diag(var_y) @ ainv.T
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    var_p = np.clip(ps * (1.0 - ps), 1e-12, None) / shots
    gram_inv = np.linalg.inv(design.T @ design)
    cc = gram_inv @ design.T @ np.diag(var_p) @ design @ gram_inv
    return 4 * np.array([[cc[1, 1], -cc[1, 2]], [-cc[1, 2], cc[2, 2]]])


@pytest.mark.parametrize("method", ["two-point", "least-squares"])
def test_estimate_standard_errors_match_dense_covariance(method):
    n = 2 if method == "two-point" else 5  # the phase count that picks the method
    phis = np.array([0.3, 1.4, 2.0, 4.1, 5.5])[:n]
    ps = np.array([0.2, 0.61, 0.75, 0.35, 0.1])[:n]
    est = estimate_object(zip(phis, ps), shots=1000)
    assert est.method == method
    cov = dense_reference_covariance(phis, ps, 1000, method)
    c, s = est.t_hat * np.cos(est.gamma_hat), est.t_hat * np.sin(est.gamma_hat)
    jt = np.array([c, s]) / est.t_hat
    jg = np.array([-s, c]) / est.t_hat ** 2
    assert est.stderr_t == pytest.approx(np.sqrt(jt @ cov @ jt), rel=1e-12)
    assert est.stderr_gamma == pytest.approx(np.sqrt(jg @ cov @ jg), rel=1e-12)


def test_estimate_error_scales_with_shot_noise():
    # RMSE of t_hat should fall as shots^(-1/2): slope within 0.1 of -0.5
    t, g = 0.6, -1.0
    phis = [2 * np.pi * k / 12 for k in range(12)]
    shots_levels = [10**3, 10**4, 10**5]
    rmse = []
    for shots in shots_levels:
        errs = []
        for seed in range(150):
            pts = sweep_points(t, g, phis, shots=shots, seed=1000 + seed)
            est = estimate_object(pts, shots=shots)
            errs.append((est.t_hat - t) ** 2)
        rmse.append(np.sqrt(np.mean(errs)))
    slope = np.polyfit(np.log10(shots_levels), np.log10(rmse), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_visibility_reference_values():
    assert visibility([0.4, 0.4, 0.4]) == 0.0
    gammas = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    series = 0.5 * (1 - 1.0 * np.cos(gammas))  # xi = 0, T = 1
    assert visibility(series) == pytest.approx(1.0, abs=ATOL)
    series = 0.5 * (1 - (1 - 0.5) * 0.8 * np.cos(gammas))  # xi = 0.5, T = 0.8
    assert visibility(series) == pytest.approx(0.4, abs=ATOL)


def test_visibility_errors():
    with pytest.raises(ValueError):
        visibility([])
    with pytest.raises(ValueError):
        visibility([0.0, 0.0])
    with pytest.raises(ValueError):
        visibility([-0.1, 0.5])


def one_visibility(series) -> float:
    """Visibility of one series, as ``visibility`` computed it before the batched form (checks included)."""
    ps = np.asarray(list(series), dtype=float)
    if ps.size == 0:
        raise ValueError("visibility needs a nonempty series")
    qcore._check_probability(ps, "detection probability")
    hi, lo = float(ps.max()), float(ps.min())
    if hi + lo == 0.0:
        raise ValueError("visibility is undefined for an all-zero series")
    return (hi - lo) / (hi + lo)


def test_batched_visibilities_match_visibility_row_by_row():
    rng = np.random.default_rng(27)
    rows = rng.uniform(0.0, 1.0, (40, 24))
    rows[1] = 0.4  # a flat series
    rows[2, 5] = 1.0 + ATOL / 2  # within ATOL of [0, 1]
    rows[3, 7] = -ATOL / 2
    rows[4] = 0.0
    rows[4, 3] = 1e-300
    rows[5, ::2] = -0.0
    got = _visibilities(rows)
    assert got.shape == (40,)
    for row, value in zip(rows, got.tolist()):
        assert repr(value) == repr(visibility(row)) == repr(one_visibility(row))


BAD_ROWS = {
    "nan": [0.5, np.nan], "inf": [np.inf, 0.2], "above": [2.0, 0.5], "below": [-0.1, 0.5],
    "all-zero": [0.0, -0.0], "huge": [8.98846567431158e307, 8.98846567431158e307], "both-infs": [np.inf, -np.inf],
}


@pytest.mark.parametrize("first", sorted(BAD_ROWS))
def test_batched_visibilities_raise_the_first_bad_rows_error(first):
    with pytest.raises(ValueError) as alone:
        one_visibility(BAD_ROWS[first])
    with pytest.raises(ValueError) as single:
        visibility(BAD_ROWS[first])
    # a good row before it and every other bad row after it: the first bad row in order is reported
    rows = np.array([[0.2, 0.7], BAD_ROWS[first]] + [r for name, r in sorted(BAD_ROWS.items()) if name != first])
    with pytest.raises(ValueError) as batched:
        _visibilities(rows)
    assert str(batched.value) == str(single.value) == str(alone.value)
    with pytest.raises(ValueError, match="nonempty series"):
        _visibilities(np.zeros((3, 0)))


def test_image_maps_validation():
    with pytest.raises(ValueError):
        ImageMaps(np.array([[0.5]]), np.array([[0.0, 0.1]]))
    with pytest.raises(ValueError):
        ImageMaps(np.array([0.5]), np.array([0.0]))
    # map values get the engine's own rule and message, first failing pixel in row-major order
    with pytest.raises(ValueError, match=r"^transmission must lie in \[0, 1\], got 1.5$"):
        ImageMaps(np.array([[1.5]]), np.array([[0.0]]))
    with pytest.raises(ValueError, match="^phase must be finite, got nan$"):
        ImageMaps(np.array([[0.5, np.nan]]), np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match="must not be empty"):
        ImageMaps(np.zeros((0, 1)), np.zeros((0, 1)))


def test_image_scan_single_pixel_exact():
    maps = ImageMaps(np.array([[0.5]]), np.array([[0.0]]))
    scan = image_scan(maps, [0.0, np.pi / 2])
    assert scan.ok
    assert scan.t_hat[0, 0] == pytest.approx(0.5, abs=ATOL)
    assert scan.gamma_hat[0, 0] == pytest.approx(0.0, abs=ATOL)


def test_image_scan_uniform_map():
    maps = ImageMaps(np.ones((3, 4)), np.zeros((3, 4)))
    scan = image_scan(maps, [0.0, np.pi / 2])
    assert scan.ok
    assert np.allclose(scan.t_hat, 1.0, atol=ATOL)
    assert np.allclose(scan.gamma_hat, 0.0, atol=ATOL)


def test_image_scan_analytic_identity_reconstruction():
    rng = np.random.default_rng(3)
    h, w = 6, 5
    t_map = rng.uniform(0.1, 1.0, size=(h, w))
    g_map = rng.uniform(-3.0, 3.0, size=(h, w))
    maps = ImageMaps(t_map, g_map)
    scan = image_scan(maps, [2 * np.pi * k / 8 for k in range(8)])
    assert scan.ok
    assert np.max(np.abs(scan.t_hat - t_map)) < ATOL
    assert np.max(np.abs((scan.gamma_hat - g_map + np.pi) % (2 * np.pi) - np.pi)) < ATOL


def test_image_scan_checkerboard_shot_noise_rmse():
    t_map = np.where(np.indices((16, 16)).sum(axis=0) % 2 == 0, 0.9, 0.2)
    g_map = np.full((16, 16), 0.3)
    maps = ImageMaps(t_map, g_map)
    scan = image_scan(maps, [2 * np.pi * k / 8 for k in range(8)], shots=10**4, seed=11)
    assert scan.ok
    rmse = np.sqrt(np.mean((scan.t_hat - t_map) ** 2))
    assert rmse < 0.03


@pytest.mark.parametrize("shots", [0, 500])
def test_image_scan_independent_of_batch_size(monkeypatch, shots):
    rng = np.random.default_rng(5)
    maps = ImageMaps(rng.uniform(0.0, 1.0, size=(4, 5)), rng.uniform(-3.0, 3.0, size=(4, 5)))
    phis = [2 * np.pi * k / 8 for k in range(8)]
    scans = []
    # passes of chunk settings: chunk post-mixer blocks of the Bell probe
    block = len(_support(pipeline_stages(prepare_probe(), maps.t_map, maps.gamma_map).post_mixer != 0))
    for chunk in (1, 7, 20, 64):
        monkeypatch.setattr(qcore, "_BLOCK_ENTRIES", chunk * block**2)
        scans.append(image_scan(maps, phis, shots=shots, seed=3))
    # the first row alone: same pixel positions, so the same shot streams
    scans.append(image_scan(ImageMaps(maps.t_map[:1], maps.gamma_map[:1]), phis, shots=shots, seed=3))
    for scan in scans[1:]:
        rows = slice(0, scan.t_hat.shape[0])
        for field in ("t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "degenerate"):
            want = getattr(scans[0], field)[rows]
            assert np.array_equal(getattr(scan, field), want, equal_nan=True)


def test_image_scan_shot_streams_are_per_pixel_in_phase_order():
    # pixel (row, col) draws its counts one phase after another from
    # default_rng([seed, row, col]); the layout is part of the output contract
    maps = ImageMaps(np.array([[0.3, 0.9], [0.6, 0.0]]), np.array([[1.0, -2.0], [0.5, 0.0]]))
    phis = [2 * np.pi * k / 6 for k in range(6)]
    scan = image_scan(maps, phis, shots=200, seed=9)
    p_h = readout(prepare_probe(), maps.t_map, maps.gamma_map, phis)[..., 0].reshape(2, 2, -1)
    for row in range(2):
        for col in range(2):
            rng = np.random.default_rng([9, row, col])
            pts = []
            for phi, p in zip(phis, p_h[row, col]):
                pts.append((phi, rng.binomial(200, min(max(p, 0.0), 1.0)) / 200))
            est = estimate_object(pts, shots=200)
            assert scan.t_hat[row, col] == pytest.approx(est.t_hat, abs=1e-12)
            assert scan.stderr_t[row, col] == pytest.approx(est.stderr_t, rel=1e-12)


def _no_engine(*args, **kwargs):
    raise AssertionError("the engine ran before the phase set was checked")


def test_image_scan_records_pixel_errors_without_aborting(monkeypatch):
    # a duplicate-phase sweep fails for every pixel alike: it is rejected
    # before the engine runs
    maps = ImageMaps(np.full((2, 2), 0.5), np.zeros((2, 2)))
    with monkeypatch.context() as patch:
        patch.setattr(tomography, "run_batch", _no_engine)
        with pytest.raises(ValueError, match="^duplicate phase values: cannot invert a single setting$"):
            image_scan(maps, [0.0, 0.0])
    # a setting that fails an engine check is recorded, and the scan goes on:
    # the failed pixel is NaN in every estimate and not degenerate, and every
    # other pixel, its shot stream included, is that of a scan without it
    maps = ImageMaps([[0.5, 0.9, 0.2], [0.7, 0.0, 1.0]], [[0.3, -2.0, 1.0], [3.1, 0.0, -0.5]])
    keys = ("t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "degenerate")
    others = np.ones(maps.t_map.shape, dtype=bool)
    others[0, 1] = False
    for shots in (0, 100):
        for phis in ([0.0, np.pi / 2], [0.0, np.pi / 2, 2.0]):  # two-point, then least squares
            clean = image_scan(maps, phis, shots=shots, seed=1)
            with monkeypatch.context() as patch:
                patch.setattr(tomography, "run_batch", fail_second_setting(run_batch))
                scan = image_scan(maps, phis, shots=shots, seed=1)
            assert scan.errors == ((0, 1, "engine check failed"),)
            assert all(np.isnan(getattr(scan, key)[0, 1]) for key in keys[:4]), (shots, phis)
            assert not scan.degenerate[0, 1]
            for key in keys:
                assert np.array_equal(getattr(scan, key)[others], getattr(clean, key)[others], equal_nan=True), key


@pytest.mark.parametrize("method", ["two-point", "least-squares"])
def test_image_scan_rejects_non_finite_phase_for_every_pixel(monkeypatch, method):
    maps = ImageMaps(np.full((2, 3), 0.5), np.zeros((2, 3)))
    phis = [0.0, np.nan] if method == "two-point" else [0.0, 1.0, np.nan]
    monkeypatch.setattr(tomography, "run_batch", _no_engine)
    with pytest.raises(ValueError, match="^measurement phase must be finite, got nan$"):
        image_scan(maps, phis)


def test_image_scan_degenerate_pixels_flagged():
    maps = ImageMaps(np.zeros((2, 2)), np.zeros((2, 2)))
    scan = image_scan(maps, [0.0, np.pi / 2])
    assert scan.ok
    assert np.all(scan.degenerate)
    assert np.all(np.isnan(scan.gamma_hat))


def test_image_scan_empty_sweep_rejected():
    maps = ImageMaps(np.array([[0.5]]), np.array([[0.0]]))
    with pytest.raises(ValueError):
        image_scan(maps, [])


def test_fit_runs_row_by_row_in_bounded_memory():
    # 65,536 pixels x 8 phases with shots: the (n, 2, 2, m) covariance
    # product of all rows at once would be 16.8 MB alone
    import tracemalloc

    phis = np.array([2 * np.pi * k / 8 for k in range(8)])
    ps = np.random.default_rng(2).uniform(0.0, 1.0, (65536, 8))
    design = _phase_design(phis)
    tracemalloc.start()
    try:
        fit = _fit(*design, ps, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    # a row's estimate is the one it gets alone, on either side of a block edge
    rows = qcore._block_rows(8)
    for i in (0, rows - 1, rows, 65535):
        alone = _fit(*design, ps[i:i + 1], 10**4)
        for key, value in alone.items():
            assert np.array_equal(fit[key][i:i + 1], value, equal_nan=True), (i, key)


@pytest.mark.parametrize("shots", [0, 100])
@pytest.mark.parametrize("method, m", [("two-point", 2), ("two-point", 5), ("least-squares", 3), ("least-squares", 8)])
@pytest.mark.parametrize("budget", [1, 8, 40, 256])
def test_fit_in_blocks_equals_one_block(monkeypatch, method, m, shots, budget):
    # blocks of 1 to 128 sweeps give every row the bytes of one block of all 37;
    # two-point keeps the first two of the m phases, the phase count that picks it
    phis = np.array([2 * np.pi * k / (m + 1) for k in range(m)])
    ps = np.random.default_rng(m).uniform(0.0, 1.0, (37, m))
    ps[::5] = 0.5  # zero modulation: degenerate rows between live ones
    if method == "two-point":
        phis, ps = phis[:2], ps[:, :2]
    design = _phase_design(phis)
    assert design[0] == method
    assert qcore._block_rows(m) >= len(ps)
    whole = _fit(*design, ps, shots)
    monkeypatch.setattr(qcore, "_BLOCK_ENTRIES", budget)
    blocked = _fit(*design, ps, shots)
    assert whole["degenerate"][::5].all() and not whole["degenerate"].all()
    for key, value in whole.items():
        assert np.array_equal(blocked[key], value, equal_nan=True), key


# Which correlations carry the image: the modulation of P_h over the object
# phase, at T = 0.8 over 24 phases, against the partial transpose of the probe
# across signals|idlers.
_T = 0.8
_GAMMAS = np.array([2 * np.pi * k / 24 for k in range(24)])


def _modulation(probe: DensityMatrix) -> float:
    """Fitted ``cos(gamma)`` amplitude of ``P_h`` at phase 0, over :data:`_GAMMAS`."""
    batch = run_batch(
        [probe] * _GAMMAS.size, np.full(_GAMMAS.size, _T), _GAMMAS, measurement_stack([0.0])[0]
    )
    assert batch.errors == (None,) * _GAMMAS.size
    design = np.column_stack([np.ones_like(_GAMMAS), np.cos(_GAMMAS), np.sin(_GAMMAS)])
    coef, *_ = np.linalg.lstsq(design, batch.values[:, 0], rcond=None)
    return 2.0 * float(np.hypot(coef[1], coef[2]))


def _lowest_signals_idlers_eigenvalue(probe: DensityMatrix) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(probe, ["s1", "s2"]))[0])


@pytest.mark.parametrize("xi", [0.0, 0.3, 2 / 3, 0.9, 1.0])
def test_werner_modulation_is_signals_idlers_negativity(xi):
    # the (s1, i1)|(i2, s2) cut turns PPT at xi = 2/3, but signals|idlers stays NPT
    # for every xi < 1, and its lowest eigenvalue -(1 - xi)/2 sets the modulation
    probe = prepare_werner(xi)
    assert _modulation(probe) == pytest.approx(2 * _T * abs(_lowest_signals_idlers_eigenvalue(probe)), abs=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.7])
def test_ppt_probe_across_signals_idlers_keeps_modulation(q):
    cross = sum(np.outer(k, k) for k in (basis_ket("1010"), basis_ket("0101")))
    probe = DensityMatrix((1 - q) * prepare_probe().mat + q / 2 * cross, DEFAULT_REGISTER)
    assert _lowest_signals_idlers_eigenvalue(probe) >= -1e-12
    assert _modulation(probe) == pytest.approx((1 - q) * _T, abs=1e-12)


def _dephased_probe() -> DensityMatrix:
    """The Bell probe with every coherence removed: the diagonal of :func:`prepare_probe`."""
    return DensityMatrix(np.diag(np.diag(prepare_probe().mat)), DEFAULT_REGISTER)


def test_dephased_probe_has_no_modulation():
    probe = _dephased_probe()
    assert _modulation(probe) < 1e-15


def test_probe_ppt_on_both_two_pair_cuts_keeps_modulation():
    # Bell weight 0.25, the encoded maximally mixed state 0.5 and the cross term
    # 0.25: PPT across (s1, i1)|(i2, s2) and signals|idlers, NPT on
    # (s1, i2)|(i1, s2) and on every single wire, and still a fringe of 0.2
    cross = sum(np.outer(k, k) for k in (basis_ket("1010"), basis_ket("0101")))
    mat = 0.25 * prepare_probe().mat + 0.5 * prepare_werner(1.0).mat + 0.25 * cross / 2
    probe = DensityMatrix(mat, DEFAULT_REGISTER)
    for cut in (["s1", "i1"], ["s1", "s2"]):
        assert np.linalg.eigvalsh(partial_transpose(probe, cut))[0] >= -1e-12
    for cut in (["s1", "i2"], ["s1"], ["i1"], ["i2"], ["s2"]):
        assert np.linalg.eigvalsh(partial_transpose(probe, cut))[0] == pytest.approx(-0.125, abs=1e-12)
    assert _modulation(probe) == pytest.approx(0.2, abs=1e-12)


def _fully_separable_probe() -> DensityMatrix:
    """The equal mixture over theta = 2 pi k/8 of (|0> + e^{i theta}|1>)/sqrt(2) on s1 and i2, with |+> on i1 and s2."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    mat = np.zeros((16, 16), dtype=complex)
    for k in range(8):
        a = np.array([1.0, np.exp(2j * np.pi * k / 8)]) / np.sqrt(2)
        ket = np.kron(np.kron(np.kron(a, plus), a), plus)
        mat += np.outer(ket, ket.conj()) / 8
    return DensityMatrix(mat, DEFAULT_REGISTER)


def test_fully_separable_probe_biases_the_estimate():
    # at T = 1 the least-squares sweep finds gamma with a raw amplitude of 1/8,
    # below it the phase is off
    probe = _fully_separable_probe()
    phis = 2 * np.pi * np.arange(24) / 24

    def estimate(t, gamma):
        batch = run_batch(probe, [t], [gamma], measurement_stack(phis))
        assert batch.errors == (None,)
        return estimate_object(zip(phis, batch.values[0, :, 0]))

    for gamma in (2.0, 0.7, -2.5):
        est = estimate(1.0, gamma)
        assert est.t_hat == pytest.approx(1 / 8, abs=1e-12)
        assert abs(angle_diff(est.gamma_hat, gamma)) < 1e-12
    assert abs(angle_diff(estimate(0.8, 2.0).gamma_hat, 2.0)) > 0.4


@pytest.mark.parametrize(
    "make, unflipped, flipped",
    [
        (prepare_probe, 0.0, 1.0),
        (lambda: prepare_werner(0.3), 0.0, 0.7),
        (_fully_separable_probe, 0.25, 0.25),
        (lambda: prepare_werner(0.5), 0.0, 0.5),
        (lambda: prepare_werner(0.8), 0.0, 0.2),
        (_dephased_probe, 0.0, 0.0),
    ],
    ids=["bell", "werner-0.3", "separable", "werner-0.5", "werner-0.8", "dephased"],
)
def test_separable_probe_breaks_the_coherence_clause_not_the_normalization(make, unflipped, flipped):
    # the condition's first clause: weight on the entries coherent between signal |01> and |10> whose i1 bit
    # does not flip, which carry phi but no object term; its second, Tr[rho N] free of the object, holds for all;
    # the weight on those whose i1 bit flips (the |1100>/|0011> coherence) carries T e^{i gamma}
    probe = make()
    signal = [(i >> 3 & 1, i & 1) for i in range(16)]  # (s1, s2) of each basis index in (s1, i1, i2, s2) order
    coherent = np.array([[{signal[r], signal[c]} == {(0, 1), (1, 0)} for c in range(16)] for r in range(16)])
    flips = np.array([[(r >> 2 & 1) != (c >> 2 & 1) for c in range(16)] for r in range(16)])
    assert np.abs(probe.mat[coherent & ~flips]).sum() == pytest.approx(unflipped, abs=1e-12)
    assert np.abs(probe.mat[coherent & flips]).sum() == pytest.approx(flipped, abs=1e-12)
    for t, gamma in ((1.0, 0.0), (0.8, 2.0), (0.3, -1.0)):
        norm = heisenberg_operators(t, gamma, measurement_stack([0.0]))[1]
        assert np.trace(probe.mat @ norm) == pytest.approx(1.0, abs=1e-12)
    if not unflipped:
        # the flipped weight alone sets m_h's fringe, a half-amplitude of flipped * T / 2 at every gamma: the PPT
        # Werner probe at xi = 0.8 images and the PPT dephased probe does not
        _, b, c = fringe(probe, [0.8] * 3, [2.0, 0.0, -1.0])[:, 0].T
        assert np.hypot(b, c) == pytest.approx([flipped * 0.8 / 2] * 3, abs=1e-12)


def _shot_z_scores(t, shots):
    """z-scores of ``t_hat`` and, on the pixels not flagged degenerate, of ``gamma_hat``.

    A 64x64 map of one transmission ``t`` and random phases, 8 phases, seed 7.
    """
    gamma = np.random.default_rng(7).uniform(-np.pi, np.pi, (64, 64))
    scan = image_scan(ImageMaps(np.full((64, 64), t), gamma), 2 * np.pi * np.arange(8) / 8, shots=shots, seed=7)
    assert scan.ok
    live = ~scan.degenerate
    z_gamma = angle_diff(scan.gamma_hat[live], gamma[live]) / scan.stderr_gamma[live]
    return ((scan.t_hat - t) / scan.stderr_t).ravel(), z_gamma


@pytest.mark.parametrize("t, shots", [(0.5, 10**4), (0.99, 10**4), (1.0, 100)])
def test_shot_mode_errors_are_calibrated_at_high_signal_to_noise(t, shots):
    # T / stderr_t is about 40 or more in each case
    z_t, z_gamma = _shot_z_scores(t, shots)
    assert 0.85 <= z_t.var() <= 1.15 and 0.85 <= z_gamma.var() <= 1.15
    assert abs(z_t.mean()) < 0.15


def test_shot_mode_t_hat_is_biased_up_at_low_signal_to_noise():
    # T = 0.02 at 100 shots, T / stderr_t about 0.4: the amplitude of a noisy
    # sinusoid is biased upwards, by about 0.9 standard errors (documented)
    z_t, _ = _shot_z_scores(0.02, 100)
    assert z_t.mean() > 0.5
