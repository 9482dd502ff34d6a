"""Differential tests of the batched engine against its one-setting view,
a loop over embedded Kraus operators, and the closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqi import circuit
from uqi.channels import MIXER_VANISHED, ModeMixer, ObjectParams, mode_mixer, object_channel
from uqi.circuit import (
    ProbeState,
    detection_probabilities,
    measurement_pair,
    measurement_stack,
    prepare_probe,
    prepare_werner,
    run_batch,
    run_pipeline,
)
from uqi.qcore import DEFAULT_REGISTER, DensityMatrix, basis_ket, embed

TOL = 1e-12

transmissions = st.floats(0.0, 1.0)
angles = st.floats(-10.0, 10.0)
object_settings = st.lists(st.tuples(transmissions, angles), min_size=1, max_size=9)
phase_lists = st.lists(angles, min_size=1, max_size=5)


def loop_reference_signal(probe: ProbeState, t: float, gamma: float, mm: ModeMixer | None) -> np.ndarray:
    """The pipeline written out per Kraus operator on full-register matrices."""
    rho = np.zeros((16, 16), dtype=complex)
    for k in object_channel(ObjectParams(t, gamma)).kraus_ops:
        ke = embed(k, ["i1"], DEFAULT_REGISTER)
        rho += ke @ probe.rho.mat @ ke.conj().T
    if mm is not None:
        m = embed(mm.op, ["i1", "i2"], DEFAULT_REGISTER)
        rho = m @ rho @ m.conj().T
        rho /= np.trace(rho).real
    # (s1, i1, i2, s2) row and column legs; contract i1 and i2
    return np.einsum("abcdebcf->adef", rho.reshape((2,) * 8)).reshape(4, 4)


def readouts(probe, mm, pairs, phis):
    ts, gammas = np.array(pairs, dtype=float).T
    batch = run_batch(probe, mm, ts, gammas, measurement_stack(phis))
    assert batch.errors == (None,) * len(pairs)
    return ts, gammas, batch.values


@settings(max_examples=40, deadline=None)
@given(object_settings, phase_lists)
def test_engine_matches_single_setting_loop_and_closed_form(pairs, phis):
    probe, mm = prepare_probe(), mode_mixer()
    ts, gammas, values = readouts(probe, mm, pairs, phis)
    assert values.shape == (len(pairs), len(phis), 2)
    for i, (t, g) in enumerate(pairs):
        sig = run_pipeline(probe, ObjectParams(t, g), mm)
        ref = loop_reference_signal(probe, t, g, mm)
        for j, phi in enumerate(phis):
            mp = measurement_pair(phi)
            single = detection_probabilities(sig, mp)
            loop = (np.trace(mp.m_h @ ref).real, np.trace(mp.m_g @ ref).real)
            closed = ((1 - t * np.cos(g + phi)) / 2, (1 + t * np.cos(g + phi)) / 2)
            for want in (single, loop, closed):
                assert values[i, j] == pytest.approx(want, abs=TOL)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), object_settings, phase_lists)
def test_werner_probe_closed_forms(xi, pairs, phis):
    ts, gammas, values = readouts(prepare_werner(xi), mode_mixer(), pairs, phis)
    fringe = (1 - xi) * ts[:, None] * np.cos(gammas[:, None] + np.array(phis)) / 2
    p_h, p_g = values[..., 0], values[..., 1]
    # modulation (1 - xi) T around the raw offset (2 - xi)/4
    assert np.max(np.abs(p_h - ((2 - xi) / 4 - fringe))) < TOL
    assert np.max(np.abs(p_g - ((2 - xi) / 4 + fringe))) < TOL
    assert np.max(np.abs(1 - p_h - p_g - xi / 2)) < TOL


@settings(max_examples=40, deadline=None)
@given(object_settings, phase_lists)
def test_engine_without_mixer_reads_one_half(pairs, phis):
    _, _, values = readouts(prepare_probe(), None, pairs, phis)
    assert np.max(np.abs(values - 0.5)) < TOL


def singlet_idler_probe() -> ProbeState:
    """Idlers in (|01> - |10>)/sqrt(2), signals in |00>.

    After the object the mixer's normalization is
    ``(|1 - T e^{i gamma}|^2 + 1 - T^2) / 2``, which vanishes only at
    ``T = 1, gamma = 0``.
    """
    ket = basis_ket("0010") - basis_ket("0100")
    return ProbeState(DensityMatrix.from_ket(ket, DEFAULT_REGISTER), "singlet-idlers")


@pytest.mark.parametrize("chunk", [1, 2, 64])
def test_failed_setting_is_reported_while_neighbours_succeed(monkeypatch, chunk):
    monkeypatch.setattr(circuit, "BATCH_CHUNK", chunk)
    probe, mm = singlet_idler_probe(), mode_mixer()
    ts = [0.5, 1.0, 1.0, 1.5, 0.3]
    gammas = [0.0, 0.0, 0.5, 0.0, np.nan]
    readout = measurement_stack([0.0, 1.0])
    batch = run_batch(probe, mm, ts, gammas, readout)
    assert batch.errors == (
        None,
        MIXER_VANISHED,
        None,
        "transmission must lie in [0, 1], got 1.5",
        "phase must be finite, got nan",
    )
    assert np.all(np.isnan(batch.values[1:2])) and np.all(np.isnan(batch.values[3:]))
    for i in (0, 2):
        alone = run_batch(probe, mm, ts[i : i + 1], gammas[i : i + 1], readout)
        assert np.array_equal(batch.values[i], alone.values[0])
        sig = run_pipeline(probe, ObjectParams(ts[i], gammas[i]), mm)
        assert batch.values[i, 1, 0] == pytest.approx(
            detection_probabilities(sig, measurement_pair(1.0))[0], abs=TOL
        )
    with pytest.raises(ValueError, match="mode mixer normalization vanished"):
        run_pipeline(probe, ObjectParams(1.0, 0.0), mm)
