"""Differential tests of the batched engine and its stage view against a
loop over embedded Kraus operators, the Heisenberg-picture oracle and the
closed forms."""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    random_density_matrix,
    random_hermitian,
    readout,
    reference_readout,
    reference_stages,
    stack_errors,
    unmixed_readout,
)
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from verifiers import fringe, heisenberg_operators, heisenberg_readout

from uqi import circuit, qcore
from uqi.channels import MIXER_VANISHED, TP_VIOLATED, ModeMixer, ObjectParams, object_channel
from uqi.circuit import (
    measurement_stack,
    pipeline_stages,
    prepare_probe,
    prepare_werner,
    run_batch,
)
from uqi.qcore import DEFAULT_REGISTER, DensityMatrix, Register, _support, basis_ket, embed

TOL = 1e-12

transmissions = st.floats(0.0, 1.0)
angles = st.floats(-10.0, 10.0)
object_settings = st.lists(st.tuples(transmissions, angles), min_size=1, max_size=9)
phase_lists = st.lists(angles, min_size=1, max_size=5)


def loop_reference_signal(probe: DensityMatrix, t: float, gamma: float) -> np.ndarray:
    """The pipeline written out per Kraus operator on full-register matrices."""
    rho = np.zeros((16, 16), dtype=complex)
    for k in object_channel(ObjectParams(t, gamma)).kraus_ops:
        ke = embed(k, ["i1"], DEFAULT_REGISTER)
        rho += ke @ probe.mat @ ke.conj().T
    m = embed(ModeMixer.op, ["i1", "i2"], DEFAULT_REGISTER)
    rho = m @ rho @ m.conj().T
    rho /= np.trace(rho).real
    # (s1, i1, i2, s2) row and column legs; contract i1 and i2
    return np.einsum("abcdebcf->adef", rho.reshape((2,) * 8)).reshape(4, 4)


def loop_readout(ref: np.ndarray, phi: float) -> tuple[float, float]:
    """``(Tr[m_h rho], Tr[m_g rho])`` of a 4x4 signal state, one matrix product each."""
    m_h, m_g = measurement_stack([phi])[0]
    return np.trace(m_h @ ref).real, np.trace(m_g @ ref).real


@settings(max_examples=40, deadline=None, derandomize=True)
@given(object_settings, phase_lists)
def test_engine_matches_single_setting_loop_and_closed_form(pairs, phis):
    probe = prepare_probe()
    ts, gammas = np.array(pairs, dtype=float).T
    values = readout(probe, ts, gammas, phis)
    assert values.shape == (len(pairs), len(phis), 2)
    for i, (t, g) in enumerate(pairs):
        ref = loop_reference_signal(probe, t, g)
        for j, phi in enumerate(phis):
            closed = ((1 - t * np.cos(g + phi)) / 2, (1 + t * np.cos(g + phi)) / 2)
            for want in (loop_readout(ref, phi), closed):
                assert values[i, j] == pytest.approx(want, abs=TOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), object_settings)
def test_pipeline_stages_signal_matches_loop_reference(xi, pairs):
    probe = prepare_werner(xi)
    ts, gammas = np.array(pairs, dtype=float).T
    stages = pipeline_stages(probe, ts, gammas)
    assert stages.errors == (None,) * len(pairs)
    assert stages.post_object.shape == stages.post_mixer.shape == (len(pairs), 16, 16)
    for sig, (t, g) in zip(stages.signal, pairs):
        assert np.max(np.abs(sig - loop_reference_signal(probe, t, g))) < TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), object_settings, phase_lists)
def test_werner_probe_closed_forms(xi, pairs, phis):
    ts, gammas = np.array(pairs, dtype=float).T
    values = readout(prepare_werner(xi), ts, gammas, phis)
    fringe = (1 - xi) * ts[:, None] * np.cos(gammas[:, None] + np.array(phis)) / 2
    p_h, p_g = values[..., 0], values[..., 1]
    # modulation (1 - xi) T around the raw offset (2 - xi)/4
    assert np.max(np.abs(p_h - ((2 - xi) / 4 - fringe))) < TOL
    assert np.max(np.abs(p_g - ((2 - xi) / 4 + fringe))) < TOL
    assert np.max(np.abs(1 - p_h - p_g - xi / 2)) < TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(object_settings, phase_lists)
def test_engine_without_mixer_reads_one_half(pairs, phis):
    ts, gammas = np.array(pairs, dtype=float).T
    values = unmixed_readout(prepare_probe(), ts, gammas, phis)
    assert np.max(np.abs(values - 0.5)) < TOL


def singlet_idler_probe() -> DensityMatrix:
    """Idlers in (|01> - |10>)/sqrt(2), signals in |00>.

    After the object the mixer's normalization is
    ``(|1 - T e^{i gamma}|^2 + 1 - T^2) / 2``, which vanishes only at
    ``T = 1, gamma = 0``.
    """
    ket = basis_ket("0010") - basis_ket("0100")
    return DensityMatrix.from_ket(ket, DEFAULT_REGISTER)


def passes_of(monkeypatch, chunk, probe, ts, gammas) -> list:
    """Set the entry budget to ``chunk`` post-mixer blocks of the call; returns the list each pass appends its size to."""
    block = len(_support(pipeline_stages(probe, ts, gammas).post_mixer != 0))
    monkeypatch.setattr(qcore, "_BLOCK_ENTRIES", chunk * block**2)
    sizes = []
    engine_pass = circuit._engine_pass

    def counted(*args, **kwargs):
        stages = engine_pass(*args, **kwargs)
        sizes.append(len(stages[2]))  # the pass's signal stack: one state per setting
        return stages

    monkeypatch.setattr(circuit, "_engine_pass", counted)
    return sizes


@pytest.mark.parametrize("chunk", [1, 2, 64])
def test_failed_setting_is_reported_while_neighbours_succeed(monkeypatch, chunk):
    probe = singlet_idler_probe()
    ts = [0.5, 1.0, 1.0]
    gammas = [0.0, 0.0, 0.5]
    stack = measurement_stack([0.0, 1.0])
    sizes = passes_of(monkeypatch, chunk, probe, ts, gammas)
    batch = run_batch(probe, ts, gammas, stack)
    assert max(sizes) == min(chunk, len(ts))
    assert batch.errors == (None, MIXER_VANISHED, None)
    # the stage view runs the same checks in the same passes
    sizes.clear()
    assert pipeline_stages(probe, ts, gammas).errors == batch.errors
    assert max(sizes) == min(chunk, len(ts))
    assert np.all(np.isnan(batch.values[1]))
    for i in (0, 2):
        alone = run_batch(probe, ts[i : i + 1], gammas[i : i + 1], stack)
        assert np.array_equal(batch.values[i], alone.values[0])
        ref = loop_reference_signal(probe, ts[i], gammas[i])
        assert batch.values[i, 1] == pytest.approx(loop_readout(ref, 1.0), abs=TOL)


def interleaved_probes():
    """Werner probes and the singlet-idler probe, interleaved, with each setting's ``(T, gamma)``.

    The singlet-idler probe at ``T = 1, gamma = 0`` loses the mixer's
    normalization mid-pass.
    """
    werner = [prepare_werner(xi) for xi in (0.0, 0.3, 2.0 / 3.0, 1.0)]
    singlet = singlet_idler_probe()
    probes = [werner[0], singlet, werner[1], werner[2], singlet, werner[3], werner[1], singlet, werner[0]]
    ts = [0.4, 0.5, 0.9, 1.0, 1.0, 0.2, 0.7, 0.8, 0.0]
    gammas = [0.3, -1.0, 2.0, 0.0, 0.0, -2.5, 0.1, 3.0, 1.0]
    return probes, ts, gammas


@pytest.mark.parametrize("chunk", [1, 2, 64])
def test_per_setting_probes_match_one_call_per_probe(monkeypatch, chunk):
    probes, ts, gammas = interleaved_probes()
    stack = measurement_stack([0.0, 1.0, -2.0])
    sizes = passes_of(monkeypatch, chunk, probes, ts, gammas)
    batch = run_batch(probes, ts, gammas, stack)
    assert max(sizes) == min(chunk, len(ts))
    sizes.clear()
    stages = pipeline_stages(probes, ts, gammas)
    assert max(sizes) == min(chunk, len(ts))
    assert batch.errors[4] == stages.errors[4] == MIXER_VANISHED
    assert sum(e is not None for e in batch.errors) == 1
    assert stages.errors == batch.errors
    for probe in {id(p): p for p in probes}.values():
        rows = [i for i, p in enumerate(probes) if p is probe]
        sub_t, sub_gamma = [ts[i] for i in rows], [gammas[i] for i in rows]
        alone = run_batch(probe, sub_t, sub_gamma, stack)
        assert np.array_equal(batch.values[rows], alone.values, equal_nan=True)
        assert tuple(batch.errors[i] for i in rows) == alone.errors
        alone_stages = pipeline_stages(probe, sub_t, sub_gamma)
        for name in ("post_object", "post_mixer", "signal"):
            assert np.array_equal(getattr(stages, name)[rows], getattr(alone_stages, name))
        assert tuple(stages.errors[i] for i in rows) == alone_stages.errors


def test_distinct_probes_are_held_only_on_their_block():
    # 1000 distinct Werner probes: a stack of the whole 16x16 probes alone takes 4 MB
    probes = [prepare_werner(xi) for xi in np.linspace(0.0, 1.0, 1000)]
    tracemalloc.start()
    try:
        engine = circuit._Engine(probes, np.full(1000, 0.5), np.zeros(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Werner probe's 8 rest indices, with i1 leading, in the object's (i1 x i1, rest x rest) layout
    assert engine.tensors.shape == (1000, 4, 16)
    assert peak < 1000 * 16 * 16 * 16, peak


def test_mixer_is_not_an_option():
    # the engine always runs the paper's circuit, mode mixer included
    probe, stack = prepare_probe(), measurement_stack([0.0])
    for mm in (ModeMixer(), None):
        with pytest.raises(TypeError):
            run_batch(probe, mm, [0.5], [0.3], stack)
        with pytest.raises(TypeError):
            pipeline_stages(probe, mm, [0.5], [0.3])


def test_zero_settings_on_a_shared_probe_give_empty_stacks():
    # the object stage's reshape inferred a size from zero entries and raised
    stages = pipeline_stages(prepare_probe(), [], [])
    assert stages.post_object.shape == stages.post_mixer.shape == (0, 16, 16)
    assert stages.signal.shape == (0, 4, 4)
    assert stages.errors == ()
    batch = run_batch(prepare_probe(), [], [], measurement_stack([0.0, 1.0]))
    assert (batch.values.shape, batch.errors) == ((0, 2, 2), ())
    with pytest.raises(ValueError, match="one probe per setting"):
        pipeline_stages([], [], [])


def test_per_setting_probes_are_validated():
    probes, ts, gammas = interleaved_probes()
    stack = measurement_stack([0.0])
    other = DensityMatrix(prepare_probe().mat, Register(("s1", "i2", "i1", "s2")))
    for call in (
        lambda probes, ts, gammas: run_batch(probes, ts, gammas, stack),
        lambda probes, ts, gammas: pipeline_stages(probes, ts, gammas),
    ):
        with pytest.raises(ValueError, match="one probe per setting"):
            call(probes[:-1], ts, gammas)
        with pytest.raises(ValueError, match="one probe per setting"):
            call([], [], [])
        with pytest.raises(ValueError, match="one register"):
            call(probes[:-1] + [other], ts, gammas)


@pytest.mark.parametrize("bad_t, bad_gamma, message", [
    (1.5, 0.0, "transmission must lie in [0, 1], got 1.5"),
    (0.5, np.nan, "phase must be finite, got nan"),
], ids=["T", "gamma"])
def test_bad_object_setting_raises_before_any_pass(monkeypatch, bad_t, bad_gamma, message):
    def no_pass(*args, **kwargs):
        raise AssertionError("an engine pass ran before the settings were checked")

    monkeypatch.setattr(circuit, "_engine_pass", no_pass)
    probes, ts, gammas = interleaved_probes()
    ts[2], gammas[2] = bad_t, bad_gamma
    ts[5], gammas[5] = -1.0, np.inf  # a later bad setting: the first one in order is reported
    stack = measurement_stack([0.0])
    other = DensityMatrix(prepare_probe().mat, Register(("s1", "i2", "i1", "s2")))
    for call in (
        lambda probes, ts, gammas: run_batch(probes, ts, gammas, stack),
        lambda probes, ts, gammas: pipeline_stages(probes, ts, gammas),
    ):
        for probe in (prepare_probe(), probes):
            with pytest.raises(ValueError) as info:
                call(probe, ts, gammas)
            assert str(info.value) == message
        # the probe-count and register checks come first
        with pytest.raises(ValueError, match="one probe per setting"):
            call(probes[:-1], ts, gammas)
        with pytest.raises(ValueError, match="one register"):
            call(probes[:-1] + [other], ts, gammas)


def test_tp_violation_is_the_first_check_and_leaves_neighbours_alone(monkeypatch):
    probe, stack = prepare_probe(), measurement_stack([0.0, 1.0])
    ts, gammas = [0.2, 0.5, 0.9], [0.1, -1.0, 2.0]
    clean = run_batch(probe, ts, gammas, stack)
    object_kraus = circuit.object_kraus

    def broken(t, gamma):
        kraus = object_kraus(t, gamma)
        kraus[1, 0] *= 1.5  # setting 1's K0: sum K^† K is no longer I
        return kraus

    monkeypatch.setattr(circuit, "object_kraus", broken)
    batch = run_batch(probe, ts, gammas, stack)
    stages = pipeline_stages(probe, ts, gammas)
    assert batch.errors == stages.errors == (None, TP_VIOLATED, None)
    # the trace the broken set also spoils is reported after it
    assert stack_errors(stages.post_object)[1].startswith("density matrix trace")
    assert np.all(np.isnan(batch.values[1]))
    assert np.array_equal(batch.values[[0, 2]], clean.values[[0, 2]])


def _coverage_case(name, rng):
    """``(probe, t, gamma)`` of one reference case: seeded settings, T = 0 and T = 1 among them."""
    t = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.0, 1.0, 1.0]])
    gamma = np.concatenate([rng.uniform(-7.0, 7.0, 40), [0.0, 0.0, 2.0]])
    amplitudes = rng.normal(size=4) + 1j * rng.normal(size=4)
    probes = {
        "bell": prepare_probe(),
        "full-rank": random_density_matrix(rng, DEFAULT_REGISTER),
        # idlers 00 and 10 beside 01: coherent between the sectors {01, 10} and {00, 11}
        "idler-coherent": DensityMatrix.from_ket(
            sum(a * basis_ket(b) for a, b in zip(amplitudes, ("0000", "0010", "1100", "1011"))), DEFAULT_REGISTER
        ),
        "basis-state": DensityMatrix.from_ket(basis_ket("0110"), DEFAULT_REGISTER),
    }
    for xi in (0.0, 0.3, 2.0 / 3.0, 1.0):
        probes[f"werner-{xi:.3g}"] = prepare_werner(xi)
    if name != "interleaved":
        return probes[name], t, gamma
    # every probe above and the singlet-idler probe, repeated in a seeded order
    pool = list(probes.values()) + [singlet_idler_probe()]
    chosen = [pool[i] for i in rng.integers(0, len(pool), t.size)]
    chosen[41] = pool[-1]  # at T = 1, gamma = 0 its mixer normalization vanishes
    return chosen, t, gamma


COVERAGE = ["bell", "werner-0", "werner-0.3", "werner-0.667", "werner-1", "full-rank", "idler-coherent",
            "basis-state", "interleaved"]


@pytest.mark.parametrize("name", COVERAGE)
def test_engine_matches_whole_stack_reference(name):
    probe, t, gamma = _coverage_case(name, np.random.default_rng(26))
    post_object, post_mixer, signal, errors = reference_stages(probe, t, gamma)
    stages = pipeline_stages(probe, t, gamma)
    assert stages.errors == errors
    for got, want in ((stages.post_object, post_object), (stages.post_mixer, post_mixer), (stages.signal, signal)):
        assert np.max(np.abs(got - want)) <= 1e-15
    stack = measurement_stack([0.0, 1.0, -2.5])
    batch = run_batch(probe, t, gamma, stack)
    values, errors = reference_readout(probe, t, gamma, stack)
    assert batch.errors == errors
    live = ~np.isnan(values)
    assert np.array_equal(np.isnan(batch.values), ~live)
    assert np.max(np.abs(batch.values[live] - values[live]), initial=0.0) <= 1e-15


# one werner-shaped run_batch in a fresh process: 61 Werner probes x 24 phases, 16 passes of 96 settings;
# prints the minor page faults the call took
_WERNER_BATCH_FAULTS = """
import resource
import numpy as np
from uqi.circuit import measurement_stack, prepare_werner, run_batch
probes = [prepare_werner(xi) for xi in np.linspace(0.0, 1.0, 61)]
gammas = 2.0 * np.pi * np.arange(24) / 24
pair = measurement_stack([0.0])[0]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_batch([p for p in probes for _ in gammas], np.full(61 * 24, 0.83), np.tile(gammas, 61), pair)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_werner_shaped_batch_does_not_fault_its_passes_back_in():
    # when every pass allocated and freed its arrays, glibc trimmed the heap and the next pass faulted
    # those pages back in: about 3,400 minor faults (13 MB) in this call; with the engine's arrays
    # allocated once per call it takes 140 to 440, by what the process allocated before it
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(Path(circuit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _WERNER_BATCH_FAULTS], env=env, capture_output=True, text=True, check=True
    )
    assert int(proc.stdout) < 1000, proc.stdout


def _oracle_probe(name, rng) -> DensityMatrix:
    """A seeded probe of one kind: mixed (full rank), Werner, a product over the four wires, or a pure state coherent
    between the idler sectors ``{01, 10}`` and ``{00, 11}``, where the mixer's target state enters the readouts."""
    if name == "mixed":
        return random_density_matrix(rng, DEFAULT_REGISTER)
    if name == "werner":
        return prepare_werner(rng.uniform(0.0, 1.0))
    if name == "product":
        wires = [random_density_matrix(rng, Register(("a",))).mat for _ in range(4)]
        return DensityMatrix(functools.reduce(np.kron, wires), DEFAULT_REGISTER)
    probe = DensityMatrix.from_ket(rng.normal(size=16) + 1j * rng.normal(size=16), DEFAULT_REGISTER)
    sector = np.array([(i >> 2 & 1) != (i >> 1 & 1) for i in range(16)])  # i1 != i2: idlers 01 or 10
    assert np.abs(probe.mat[np.ix_(sector, ~sector)]).max() > 1e-3
    return probe


ORACLE_PROBES = ["mixed", "werner", "product", "idler-coherent"]
ORACLE_CASES = ORACLE_PROBES + ["per-setting"]


def _oracle_case(name, rng):
    """``(probe, t, gamma)`` of one oracle case: 18 seeded settings, T = 0 and T = 1 among them."""
    n = 18
    if name == "per-setting":  # each probe kind above, in a seeded order
        pool = [_oracle_probe(kind, rng) for kind in ORACLE_PROBES]
        probe = [pool[i] for i in rng.integers(0, len(pool), n)]
    else:
        probe = _oracle_probe(name, rng)
    t = np.concatenate([rng.uniform(0.0, 1.0, n - 2), [0.0, 1.0]])
    return probe, t, rng.uniform(-np.pi, np.pi, n)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_run_batch_matches_the_heisenberg_oracle(name):
    rng = np.random.default_rng([31, ORACLE_CASES.index(name)])
    probe, t, gamma = _oracle_case(name, rng)
    # detector pairs at seeded phases beside Hermitian operators
    stack = np.concatenate([measurement_stack(rng.uniform(-np.pi, np.pi, 4)).reshape(-1, 4, 4),
                            [random_hermitian(rng, 4) for _ in range(2)]])
    batch = run_batch(probe, t, gamma, stack)
    assert batch.errors == (None,) * t.size
    assert np.max(np.abs(batch.values - heisenberg_readout(probe, t, gamma, stack))) <= 1e-12


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_fringe_functional_matches_run_batch(name):
    # each detector's readout is a + b cos phi + c sin phi, with a, b and c in closed form in (T, gamma)
    rng = np.random.default_rng([32, ORACLE_CASES.index(name)])
    probe, t, gamma = _oracle_case(name, rng)
    phis = rng.uniform(-np.pi, np.pi, 6)
    batch = run_batch(probe, t, gamma, measurement_stack(phis))
    assert batch.errors == (None,) * t.size
    a, b, c = np.moveaxis(fringe(probe, t, gamma)[:, None], -1, 0)  # each (n, 1, 2): settings, phases, detectors
    want = a + b * np.cos(phis)[:, None] + c * np.sin(phis)[:, None]
    assert np.max(np.abs(batch.values - want)) <= 1e-12


def _sparse_probe(rng, rows, rank) -> DensityMatrix:
    """A seeded probe of rank at most ``rank`` on the basis rows ``rows``, zero on every other row and column."""
    g = np.zeros((16, rank), dtype=complex)
    g[rows] = rng.normal(size=(len(rows), rank)) + 1j * rng.normal(size=(len(rows), rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, DEFAULT_REGISTER)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-setting"])
@pytest.mark.parametrize("size", range(1, 17))
# no shrink phase: a seed drives the values, so a smaller seed is no simpler case, and shrinking one took minutes
@settings(max_examples=10, deadline=None, derandomize=True, phases=[Phase.generate])
@given(st.permutations(range(16)), st.data(), st.integers(0, 2**32 - 1))
def test_block_tables_match_the_oracle_on_random_supports(size, shared, order, data, seed):
    # _Engine derives its tables (object_rows, mixer_rows, index, tensors, idler_trace) from the probes' union
    # support; here that support is a random set of `size` rows, which the fixed probes above never reach
    rows = sorted(order[:size])
    rng = np.random.default_rng(seed)
    n = 6  # T = 0 and T = 1 among the seeded settings
    probe = _sparse_probe(rng, rows, data.draw(st.integers(1, size), label="rank"))
    if not shared:  # the first setting's probe spans the rows, the others a seeded part of them, each of its own rank
        parts = [rng.choice(rows, rng.integers(1, size + 1), replace=False) for _ in range(n - 1)]
        probe = [probe] + [_sparse_probe(rng, part, rng.integers(1, len(part) + 1)) for part in parts]
    t = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
    gamma = np.concatenate([rng.uniform(-np.pi, np.pi, 1), [0.0], rng.uniform(-np.pi, np.pi, n - 2)])
    stack = np.concatenate([measurement_stack(rng.uniform(-np.pi, np.pi, 2)).reshape(-1, 4, 4),
                            [random_hermitian(rng, 4) for _ in range(2)]])
    batch = run_batch(probe, t, gamma, stack)
    failed = ~np.equal(batch.errors, None)
    probes = [probe] * n if shared else probe
    for i in np.flatnonzero(failed):  # only a setting whose mixer leaves nothing may fail
        norm = heisenberg_operators(t[i], gamma[i], stack)[1]
        assert abs(np.trace(probes[i].mat @ norm)) <= 1e-12
        assert np.all(np.isnan(batch.values[i]))
    live = ~failed
    want = heisenberg_readout([probes[i] for i in np.flatnonzero(live)], t[live], gamma[live], stack)
    assert np.max(np.abs(batch.values[live] - want), initial=0.0) <= 1e-12
