"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
a failed assertion in any criterion fails the corresponding test.
"""

import time

import numpy as np
from conftest import angle_diff, readout, sweep_points, unmixed_readout
from verifiers import chi_apply, choi_psd_check, pauli_decompose

from uqi.channels import (
    ObjectParams,
    chi_matrix,
    object_channel,
)
from uqi.circuit import (
    bell_ket,
    measurement_stack,
    pipeline_stages,
    prepare_probe,
    prepare_werner,
)
from uqi.qcore import PAULI, partial_transpose
from uqi.tomography import ImageMaps, estimate_object, image_scan, operator_schmidt

TOL = 1e-12


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def t_gamma_grid(nt=20, ng=20):
    for t in np.linspace(0.0, 1.0, nt):
        for g in np.linspace(-np.pi, np.pi, ng, endpoint=False) + np.pi / ng:
            yield t, g


def test_criterion_1_detection_law():
    ts, gs = np.array(list(t_gamma_grid())).T
    p_h, p_g = readout(prepare_probe(), ts, gs, [0.0])[:, 0].T
    worst = max(
        np.max(np.abs(p_h - (1 - ts * np.cos(gs)) / 2)),
        np.max(np.abs(p_g - (1 + ts * np.cos(gs)) / 2)),
        np.max(np.abs(p_h + p_g - 1.0)),
    )
    assert worst < TOL
    report(1, f"detection law (1 -/+ T cos gamma)/2 on 20x20 grid, worst error {worst:.2e}")


def test_criterion_2_reduced_state_equivalence():
    rng = np.random.default_rng(2024)
    ts, gs = rng.uniform(0, 1, 50), rng.uniform(-np.pi, np.pi, 50)
    stages = pipeline_stages(prepare_probe(), ts, gs)
    assert stages.errors == (None,) * 50
    worst = 0.0
    for sig, t, g in zip(stages.signal, ts, gs):
        want = np.zeros((4, 4), dtype=complex)
        want[2, 2] = want[1, 1] = 0.5
        want[2, 1] = t * np.exp(1j * g) / 2
        want[1, 2] = t * np.exp(-1j * g) / 2
        worst = max(worst, float(np.max(np.abs(sig - want))))
    assert worst < TOL
    report(2, f"pipeline state equals the analytic reduced state, worst entry error {worst:.2e}")


def test_criterion_3_phase_sweep_and_estimation():
    phis = [2 * np.pi * k / 24 for k in range(24)]
    # sinusoid law on the 24-point sweep
    worst = 0.0
    for t, g in ((0.8, np.pi / 3), (0.35, -2.1), (1.0, 0.0), (0.6, -1.0)):
        for p, p_h in sweep_points(t, g, phis):
            worst = max(worst, abs(p_h - 0.5 * (1 - t * np.cos(g + p))))
    assert worst < TOL
    # analytic round trip
    worst_t = worst_g = 0.0
    for t in np.linspace(0.05, 1.0, 12):
        for g in np.linspace(-np.pi, np.pi, 12, endpoint=False):
            est = estimate_object(sweep_points(t, g, phis))
            worst_t = max(worst_t, abs(est.t_hat - t))
            worst_g = max(worst_g, abs(angle_diff(est.gamma_hat, g)))
    assert worst_t < TOL and worst_g < TOL
    # shot-mode bound: 1e5 shots per point, 95 of 100 seeds inside the box
    t, g = 0.6, -1.0
    good = 0
    for seed in range(100):
        pts = sweep_points(t, g, phis, shots=10**5, seed=seed)
        est = estimate_object(pts, shots=10**5)
        if abs(est.t_hat - t) < 0.02 and abs(angle_diff(est.gamma_hat, g)) < 0.04:
            good += 1
    assert good >= 95
    report(3, f"phase sweep law exact, analytic round trip exact, shot mode {good}/100 in bounds")


def test_criterion_4_object_channel_validity():
    worst_tp = 0.0
    worst_choi = 0.0
    for t, g in t_gamma_grid():
        ch = object_channel(ObjectParams(t, g))
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        worst_tp = max(worst_tp, float(np.max(np.abs(total - np.eye(2)))))
        _, min_eig = choi_psd_check(ch)
        worst_choi = min(worst_choi, min_eig)
    assert worst_tp < TOL
    assert worst_choi >= -1e-10
    # chi round trip on the matrix-unit basis
    worst_chi = 0.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = ObjectParams(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi))
        ch = object_channel(p)
        chi = chi_matrix(ch)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                worst_chi = max(worst_chi, float(np.max(np.abs(chi_apply(chi, unit) - ch.apply(unit)))))
    assert worst_chi < TOL
    # two independent real parameters: finite-difference Jacobian has rank 2
    def chi_vec(t, g):
        e = chi_matrix(object_channel(ObjectParams(t, g))).entries
        return np.concatenate([e.real.ravel(), e.imag.ravel()])

    t0, g0, h = 0.6, 0.4, 1e-6
    jac = np.column_stack(
        [
            (chi_vec(t0 + h, g0) - chi_vec(t0 - h, g0)) / (2 * h),
            (chi_vec(t0, g0 + h) - chi_vec(t0, g0 - h)) / (2 * h),
        ]
    )
    sv = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    assert rank == 2
    report(4, f"trace preserving ({worst_tp:.1e}), CP (min Choi eig {worst_choi:.1e}), "
              f"chi round trip ({worst_chi:.1e}), parameter rank {rank}")


def test_criterion_5_schmidt_structure():
    sd = operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    assert sd.rank == 4
    assert np.max(np.abs(sd.r - 0.5)) < TOL
    # the explicit Hermitian family with r = (1/2, 1/2, 1/2, -1/2)
    s8 = np.sqrt(8)
    i2, x, y, z = np.eye(2, dtype=complex), PAULI["X"], PAULI["Y"], PAULI["Z"]
    ops = [
        (np.kron(i2, i2) - np.kron(z, z)) / s8,
        (np.kron(z, i2) - np.kron(i2, z)) / s8,
        (np.kron(x, x) + np.kron(y, y)) / s8,
        (np.kron(x, y) - np.kron(y, x)) / s8,
    ]
    r = [0.5, 0.5, 0.5, -0.5]
    rho = prepare_probe()
    from uqi.qcore import embed

    worst = 0.0
    for l in range(4):
        for m in range(4):
            obs = embed(ops[l], ["i1", "i2"], rho.register) @ embed(ops[m], ["s1", "s2"], rho.register)
            got = np.trace(obs @ rho.mat)
            want = r[l] if l == m else 0.0
            worst = max(worst, abs(got - want))
    assert worst < TOL
    report(5, f"singular values (1/2 x4), explicit-basis identity worst error {worst:.2e}")


def test_criterion_6_bell_measurements():
    expansions = {
        "phi+": {"II": 0.25, "XX": 0.25, "YY": -0.25, "ZZ": 0.25},
        "phi-": {"II": 0.25, "XX": -0.25, "YY": 0.25, "ZZ": 0.25},
        "psi+": {"II": 0.25, "XX": 0.25, "YY": 0.25, "ZZ": -0.25},
        "psi-": {"II": 0.25, "XX": -0.25, "YY": -0.25, "ZZ": -0.25},
    }
    worst = 0.0
    for label, want in expansions.items():
        ket = bell_ket(label)
        terms = pauli_decompose(np.outer(ket, ket.conj()))
        assert set(terms) == set(want)
        for k, v in want.items():
            worst = max(worst, abs(terms[k] - v))
    assert worst < TOL
    m_h, m_g = measurement_stack([0.0])[0]
    for m, label in ((m_h, "psi-"), (m_g, "psi+")):
        ket = bell_ket(label)
        worst = max(worst, float(np.max(np.abs(m - np.outer(ket, ket.conj())))))
    assert worst < TOL
    report(6, f"all four Bell expansions and zero-phase projectors hold, worst error {worst:.2e}")


def test_criterion_7_werner_experiment():
    t = 0.8
    gammas = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    design = np.column_stack([np.ones_like(gammas), np.cos(gammas)])
    offsets = {}
    worst = 0.0
    for xi in (0.0, 0.25, 0.5, 2 / 3, 0.9, 1.0, 0.75):
        ps = readout(prepare_werner(xi), np.full(gammas.size, t), gammas, [0.0])[:, 0, 0]
        coef, *_ = np.linalg.lstsq(design, ps, rcond=None)
        amplitude = 2 * abs(float(coef[1]))
        offsets[xi] = float(coef[0])
        worst = max(worst, abs(amplitude - (1 - xi) * t))
        if xi == 0.75:
            assert amplitude > 0.1  # image persists for a separable probe
    assert worst < TOL
    for xi in (0.0, 0.25, 0.5):
        pt = partial_transpose(prepare_werner(xi), ["s1", "i1"])
        assert np.linalg.eigvalsh(pt).min() < -1e-6
    pt = partial_transpose(prepare_werner(2 / 3), ["s1", "i1"])
    assert abs(np.linalg.eigvalsh(pt).min()) < 1e-9
    # offset comparison is reported, not asserted: the closed-form offset is
    # 1/2 while the simulated raw offset is (2 - xi)/4 with no-click xi/2
    report(
        7,
        "modulation amplitude equals (1-xi)T for all xi; PPT crosses zero at 2/3; "
        f"image persists at xi=0.75; raw offsets {{xi: off}}: "
        + ", ".join(f"{xi:.2f}: {off:.4f}" for xi, off in sorted(offsets.items())),
    )


def test_criterion_8_which_path_necessity():
    ts, gs = np.array(list(t_gamma_grid(12, 12))).T
    values = unmixed_readout(prepare_probe(), ts, gs, [0.0, 1.0, np.pi / 2])
    worst = float(np.max(np.abs(values - 0.5)))
    assert worst < TOL
    report(8, f"no mode mixing leaves both detectors at 1/2, worst deviation {worst:.2e}")


def test_criterion_9_desk_scale_imaging():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    t_map = rng.uniform(0.1, 1.0, size=(16, 16))
    g_map = rng.uniform(-3.0, 3.0, size=(16, 16))
    maps = ImageMaps(t_map, g_map)
    scan = image_scan(maps, [2 * np.pi * k / 8 for k in range(8)])
    assert scan.ok
    assert np.max(np.abs(scan.t_hat - t_map)) < TOL
    assert np.max(np.abs((scan.gamma_hat - g_map + np.pi) % (2 * np.pi) - np.pi)) < TOL

    checker = np.where(np.indices((16, 16)).sum(axis=0) % 2 == 0, 0.9, 0.2)
    maps = ImageMaps(checker, np.full((16, 16), 0.3))
    scan = image_scan(maps, [2 * np.pi * k / 8 for k in range(8)], shots=10**4, seed=99)
    assert scan.ok
    rmse = float(np.sqrt(np.mean((scan.t_hat - checker) ** 2)))
    assert rmse < 0.03
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, f"16x16 analytic scan exact; shot-mode RMSE {rmse:.4f} < 0.03; total {elapsed:.2f}s")
