"""The full imaging pipeline on the four-wire register.

Stages, in order: probe preparation (optionally degraded to a Werner
state), the object channel on ``i1``, the mode mixer on ``(i1, i2)``,
discarding of both idler wires, and Bell or phase-shifted measurements on
the signal wires, whose click counts :func:`sample_frequencies` draws.  For the Bell probe the surviving signal state is::

    Upsilon = 1/2 ( |10><10| + T e^{i gamma} |10><01|
                  + T e^{-i gamma} |01><10| + |01><01| )

and the detector statistics follow ``P_{h/g} = (1 -/+ T cos(gamma+phi))/2``.

One engine runs the stages from the object channel on: :func:`run_batch`
takes n object settings and reads them out against a stack of
measurement operators (:func:`measurement_stack`).  Each stage holds a
setting only on its occupied block, the rows and columns that the probes
and the operators before it can make non-zero: for the Bell probe 3 rows
after the object and 8 after the mixer, of 16.  A call builds one
:class:`_Engine`, which checks the inputs, finds the blocks and runs the
passes in arrays it allocates once; :func:`pipeline_stages` runs the
same passes and places their blocks in full ``(n, 16, 16)`` stacks for
inspection.
"""

from __future__ import annotations

import operator
from functools import cache

import numpy as np

from .channels import TP_VIOLATED, ModeMixer, _check_object_params, fold_angles, object_kraus, tp_deviation
from .qcore import (
    ATOL,
    DEFAULT_REGISTER,
    DensityMatrix,
    Register,
    _block_rows,
    _check_finite,
    _check_probability,
    _support,
    _value_class,
    as_complex_matrix,
    basis_ket,
    embed,
    state_errors,
)

# the encoded two-qubit subspace: |0bar> = |00>, |1bar> = |11> on each
# (signal, idler) pair, written in the (s1, i1, i2, s2) wire order
ENCODED_BASIS = ("0000", "0011", "1100", "1111")


@_value_class
class Gate:
    """A named unitary; ``matrix`` is square and unitary within 1e-12."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix).copy()
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"gate {self.name!r}: matrix must be square, got shape {m.shape}")
        # a unitary's entries lie in the unit disk, so a larger part fails before m^† m can overflow
        if np.abs(m.view(float)).max() > 1.0 + ATOL or np.abs(m.conj().T @ m - np.eye(len(m))).max() > ATOL:
            raise ValueError(f"gate {self.name!r} is not unitary within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hadamard() -> Gate:
    return Gate("H", np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


def cnot(control_value: int = 1) -> Gate:
    """CNOT on (control, target); flips the target when the control qubit
    equals ``control_value``.  ``control_value=0`` is the polarity used by
    the first gate of the probe-preparation chain.
    """
    try:
        control_value = operator.index(control_value)
    except TypeError:
        control_value = None  # not an integer: fails the test below
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    # the permutation that swaps |c0> and |c1> for c = control_value
    return Gate(f"CNOT{control_value}", np.eye(4, dtype=complex)[[0, 1, 3, 2] if control_value else [1, 0, 2, 3]])


def apply_unitary(rho: DensityMatrix, gate: Gate, targets) -> DensityMatrix:
    """Conjugate the state: ``rho -> U rho U^†`` with U embedded on ``targets`` (:func:`embed`'s rule)."""
    u = embed(gate.matrix, targets, rho.register)
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.register)


@cache
def prepare_probe() -> DensityMatrix:
    """Run the preparation chain: H on i2, then three CNOTs.

    The first CNOT fires on control ``|0>`` (together with the Hadamard it
    plays the beam splitter); the other two model the photon-pair sources.
    The result is ``(|1100> + |0011>)/sqrt(2)``.  The chain runs once per
    process; every call returns the same immutable :class:`DensityMatrix`.
    """
    rho = DensityMatrix.from_ket(basis_ket("0000"), DEFAULT_REGISTER)
    rho = apply_unitary(rho, hadamard(), ["i2"])
    rho = apply_unitary(rho, cnot(control_value=0), ["i2", "i1"])
    rho = apply_unitary(rho, cnot(control_value=1), ["i1", "s1"])
    rho = apply_unitary(rho, cnot(control_value=1), ["i2", "s2"])
    return rho


def prepare_werner(xi: float) -> DensityMatrix:
    """Mix the probe with the maximally mixed state of the encoded subspace.

    ``W = (xi/4) * P_encoded + (1 - xi) * |probe><probe|`` where
    ``P_encoded`` projects on span{|0000>, |0011>, |1100>, |1111>}.  The
    state is entangled across (s1,i1)|(i2,s2) exactly for ``xi < 2/3``.
    """
    return _werner_probes([xi])[0]


def _werner_probes(xis) -> tuple[DensityMatrix, ...]:
    """:func:`prepare_werner` of each of the n values ``xis``, built as one stack and checked as one.

    The first ``xi`` outside [0, 1], in order, raises ValueError before
    any state is built.
    """
    xis = [float(xi) for xi in xis]
    for xi in xis:
        if not 0.0 <= xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {xi}")
    xis = np.array(xis)
    mats = (1.0 - xis)[:, None, None] * prepare_probe().mat
    for bits in ENCODED_BASIS:
        i = int(bits, 2)
        mats[:, i, i] += xis / 4.0
    return DensityMatrix._of_stack(mats, DEFAULT_REGISTER)


def _record(errors: np.ndarray, new) -> None:
    """Keep each setting's first error: take ``new``'s message where there is none yet."""
    pending = np.equal(errors, None)
    errors[pending] = np.asarray(new, dtype=object)[pending]


def _block_trace(block, rows, dim: int) -> np.ndarray:
    """Trace of each state of an ``(n, k, k)`` stack holding rows and columns ``rows`` of ``dim x dim`` states.

    Every entry outside ``rows`` is taken as zero.  The sum runs over the
    full-length diagonal with those zeros in place, so it has the bits of
    ``np.trace`` on the whole matrices: numpy sums the entries pairwise,
    and a shorter sum would group them otherwise.
    """
    diag = np.zeros((len(block), dim), dtype=block.dtype)
    diag[:, rows] = block.diagonal(axis1=1, axis2=2)
    return diag.sum(axis=1)


def _trace_groups(reg: Register, keep: list, rows) -> tuple:
    """The index groups that trace a stack down to the ``keep`` wires, which depend on the register, the kept wires
    and the rows alone.  The stack holds the rows and columns ``rows`` (ascending basis indices of ``reg``) of states
    whose other entries are zero.  For each value of the discarded wires, ascending:
    the flat indices of its entries in the reduced matrix and in the block."""
    if not keep:
        raise ValueError("keep set must be nonempty")
    bits = [reg.n - 1 - i for i in reg.positions(keep)]
    mask = sum(1 << b for b in bits)
    rows = np.asarray(rows).tolist()
    # the few indices are worked out on Python ints, which adds no numpy code pages to the RSS
    groups = {}
    for at, row in enumerate(rows):
        kept = sum(((row >> b) & 1) << (len(bits) - 1 - j) for j, b in enumerate(bits))
        groups.setdefault(row & ~mask, []).append((at, kept))
    side = 2 ** len(keep)
    return tuple(
        (np.array([side * a + b for _, a in group for _, b in group]),
         np.array([len(rows) * a + b for a, _ in group for b, _ in group]))
        for _, group in sorted(groups.items())
    )


def _traced(stack, groups, side: int) -> np.ndarray:
    """The ``(n, side, side)`` reduced matrices of a block stack, from its :func:`_trace_groups`."""
    out = np.zeros((len(stack), side * side), dtype=complex)
    flat = stack.reshape(len(stack), stack.shape[-2] * stack.shape[-1])
    for reduced, block in groups:
        out[:, reduced] += flat[:, block]
    return out.reshape(len(stack), side, side)


def _kraus_tensor(stack, d: int) -> np.ndarray:
    """An ``(n, d m, d m)`` stack in the ``(n, d^2, m^2)`` layout that a ``d^2 x d^2`` superoperator on each state's
    leading tensor factor acts on by one matmul: row ``(a, b)`` holds the factor's entry ``(a, b)`` of every block
    ``(x, y)`` of the other factor (a copy)."""
    n, m = len(stack), stack.shape[-1] // d
    return stack.reshape(n, d, m, d, m).transpose(0, 1, 3, 2, 4).reshape(n, d * d, m * m)


def _superoperator(kraus) -> np.ndarray:
    """The ``(n, d^2, d^2)`` superoperators of an ``(n, K, d, d)`` stack of Kraus sets, on :func:`_kraus_tensor`'s
    layout."""
    n, d = len(kraus), kraus.shape[-1]
    return np.einsum("nkab,nkdc->nadbc", kraus, kraus.conj()).reshape(n, d * d, d * d)


MIXER_VANISHED = "mode mixer normalization vanished: state has no support on the mixer"


def mix_stack(stack, m, rows, dim: int, mixed, out) -> tuple[np.ndarray, np.ndarray]:
    """Renormalizing mixer action ``rho -> M rho M^† / Tr[M rho M^†]`` per state of a block stack.

    The ``(n, k, k)`` stack holds some rows and columns of states on a
    register of dimension ``dim``, zero elsewhere; ``m`` is the mixer
    embedded on that register, restricted to those columns and to the rows
    ``rows`` (ascending) that they reach.  Both are ascending, so each
    product adds the terms of the full product that are not zero, in the
    same order.  Nonlinear by construction.  ``M rho`` is formed in
    ``mixed``, an ``(n, len(rows), k)`` complex array, and the states are
    formed and renormalized in ``out``, a C-contiguous
    ``(n, len(rows), len(rows))`` complex array, which is returned with a
    mask of the states whose normalization vanished (at most 1e-14), i.e.
    that have no overlap with the mixer's support; those are left
    unnormalized.
    """
    np.matmul(np.matmul(m, stack, out=mixed), m.conj().T, out=out)
    norm = _block_trace(out, rows, dim).real
    vanished = norm <= 1e-14
    # the division of num / norm, in place: the same ufunc on the same operands, so the same bits
    np.divide(out, np.where(vanished, 1.0, norm)[:, None, None], out=out)
    return out, vanished


class _Engine:
    """One engine call, from the object stage on: its checked inputs and the occupied blocks of its stages.

    The constructor checks ``probe``, ``t`` and ``gamma`` (as in
    :func:`run_batch`) and finds the blocks, once per call; :meth:`passes`
    runs the call.  ``t`` and ``gamma`` become flat float arrays of the n
    settings, each obeying :class:`ObjectParams`' rule, ``reg`` is the
    distinct probes' one register, and ``which[i]`` is setting i's probe
    among them.

    The probe block is the union support of the distinct probes.  The
    object's Kraus pair on ``i1`` takes it to the rows ``object_rows``, and
    the mixer on ``(i1, i2)`` takes those to the rows ``mixer_rows``; every
    entry of a stage outside its rows is zero.  ``tensors`` holds each
    distinct probe on its occupied rest indices with ``i1`` leading (the
    object's tensor factor), in the layout of :func:`_kraus_tensor`;
    ``index`` picks the post-object block out of the object's output in
    that layout, ``mixer`` is the embedded mixer from the post-object to
    the post-mixer rows, and ``idler_trace`` holds the index groups that
    trace the idlers out of the post-mixer block (:func:`_trace_groups`).
    """

    def __init__(self, probe, t, gamma):
        t = np.asarray(t, dtype=float).reshape(-1)
        gamma = np.asarray(gamma, dtype=float).reshape(-1)
        if t.shape != gamma.shape:
            raise ValueError(f"got {t.size} transmissions but {gamma.size} phases")
        if isinstance(probe, DensityMatrix):
            probes, which = (probe,), np.broadcast_to(0, t.size)
        else:
            wrong = f"probe must be a DensityMatrix or a sequence of them, got {type(probe).__name__}"
            try:
                items = iter(probe)
            except TypeError:
                raise ValueError(wrong) from None
            probe = tuple(items)
            probes = tuple({id(p): p for p in probe}.values())
            for p in probes:
                if not isinstance(p, DensityMatrix):
                    raise ValueError(f"{wrong} of {type(p).__name__}")
            if len(probe) != t.size or not probe:
                raise ValueError(f"need one probe per setting, got {len(probe)} probes for {t.size} settings")
            index = {}
            which = np.array([index.setdefault(id(p), len(index)) for p in probe])
        reg = probes[0].register
        # identity first: the probes of one call usually share one Register object
        if any(p.register is not reg and p.register != reg for p in probes):
            raise ValueError(f"probes must share one register, got {len({p.register for p in probes})}")
        _check_object_params(t, gamma)
        self.reg, self.t, self.gamma, self.which = reg, t, gamma, which

        nonzero = np.zeros((reg.dim, reg.dim), dtype=bool)
        for p in probes:  # probe by probe: no stack of whole probes is built
            nonzero |= p.mat != 0
        occupied = _support(nonzero)
        i1 = 1 << (reg.n - 1 - reg.index("i1"))
        rest = np.array(sorted({r & ~i1 for r in occupied.tolist()}))
        legs = np.concatenate([rest, rest + i1])  # i1's bit is clear in rest
        # each entry of the pair is non-zero at T = 0 or at T = 1 or at no T, so
        # the two ends of the range give the zero pattern of every setting
        pattern = (object_kraus([0.0, 1.0], [0.0, 0.0]) != 0).any(axis=(0, 1))
        self.object_rows = np.flatnonzero((embed(pattern, ["i1"], reg)[:, occupied] != 0).any(axis=1))
        mixer = embed(ModeMixer.op, ["i1", "i2"], reg)[:, self.object_rows]
        self.mixer_rows = np.flatnonzero((mixer != 0).any(axis=1))
        self.mixer = mixer[self.mixer_rows]
        self.tensors = np.concatenate([_kraus_tensor(p.mat[legs[:, None], legs][None], 2) for p in probes])
        # the same layout of the register's entry labels, inverted by one assignment, not a sort (whose SIMD kernels
        # would add about 300 kB of code pages to the RSS): spot[e] is where entry e sits in a probe's tensor
        entries = np.arange(reg.dim**2).reshape(reg.dim, reg.dim)
        spot = np.zeros(reg.dim**2, dtype=int)
        spot[_kraus_tensor(entries[legs[:, None], legs][None], 2).ravel()] = np.arange(len(legs) ** 2)
        self.index = spot[entries[self.object_rows[:, None], self.object_rows].ravel()]
        self.idler_trace = _trace_groups(reg, ["s1", "s2"], self.mixer_rows)

    def passes(self):
        """Yield ``(part, post_object, post_mixer, signal, errors)`` for each pass, in order.

        A pass takes the settings ``part``, ``qcore._block_rows(k**2)`` of
        them for a post-mixer block of k rows, through the object channel,
        the mixer and the idler trace, checking the state after each stage.
        It yields the post-object stack on ``object_rows`` and the post-mixer
        stack on ``mixer_rows`` (views of the pass arrays, which the next
        pass overwrites), the ``(n, 4, 4)`` signal stack and each setting's
        first failed engine check (None if it passed): the Kraus
        trace-preserving check, the mixer's normalization and the checks of
        :class:`DensityMatrix` on every stage.  A setting that fails one is
        reported, not raised, and carries on through the pass.
        Every pass-sized array is allocated once, before the first pass:
        arrays that each pass allocated and freed let glibc trim the top of
        the heap, and the next pass faulted those pages back in.  The
        checks' Hermiticity moduli and Cholesky factors are the pass-sized
        allocations left.
        """
        layout, k1, k2 = self.tensors.shape[1:], len(self.object_rows), len(self.mixer_rows)
        rows, dim = _block_rows(k2**2), self.reg.dim

        def pass_array(*shape):
            return np.empty((min(rows, self.t.size), *shape), dtype=complex)

        tensors, products = pass_array(*layout), pass_array(*layout)  # each setting's probe, gathered, and its image
        post_objects, object_scratch = pass_array(k1, k1), pass_array(k1, k1)
        mixed = pass_array(k2, k1)
        post_mixers, mixer_scratch = pass_array(k2, k2), pass_array(k2, k2)
        for lo in range(0, self.t.size, rows):
            part = slice(lo, lo + rows)
            t, gamma = self.t[part], self.gamma[part]
            n = t.size
            # mode="clip" writes straight into out; the default buffers a copy (every index is valid)
            tensor = np.take(self.tensors, self.which[part], axis=0, out=tensors[:n], mode="clip")
            errors = np.full(n, None, dtype=object)
            kraus = object_kraus(t, fold_angles(gamma))
            _record(errors, np.where(tp_deviation(kraus) > ATOL, TP_VIOLATED, None))
            product = np.matmul(_superoperator(kraus), tensor, out=products[:n])
            post_object = post_objects[:n]
            entries = post_object.reshape(n, self.index.size)
            np.take(product.reshape(n, self.tensors[0].size), self.index, axis=1, out=entries, mode="clip")
            trace = _block_trace(post_object, self.object_rows, dim)
            _record(errors, state_errors(post_object, trace, object_scratch[:n]))
            post_mixer, vanished = mix_stack(
                post_object, self.mixer, self.mixer_rows, dim, mixed[:n], post_mixers[:n]
            )
            _record(errors, np.where(vanished, MIXER_VANISHED, None))
            trace = _block_trace(post_mixer, self.mixer_rows, dim)
            _record(errors, state_errors(post_mixer, trace, mixer_scratch[:n]))
            signal = _traced(post_mixer, self.idler_trace, 4)
            _record(errors, state_errors(signal, np.trace(signal, axis1=1, axis2=2)))
            yield part, post_object, post_mixer, signal, errors


@_value_class
class PipelineStages:
    """The stage stacks of n object settings, from :func:`pipeline_stages`.

    ``post_object`` and ``post_mixer`` are ``(n, 16, 16)`` on the probe's
    register; ``signal`` is ``(n, 4, 4)`` on ``(s1, s2)``.  ``errors[i]``
    holds setting i's first failed engine check, or None; the rows of a
    failed setting hold what the pass computed for it, which need not be a
    physical state.
    """

    post_object: np.ndarray
    post_mixer: np.ndarray
    signal: np.ndarray
    errors: tuple[str | None, ...]


def pipeline_stages(probe, t, gamma) -> PipelineStages:
    """The stages :func:`run_batch` reads out, for the n settings ``(t[i], gamma[i])``.

    ``probe`` is as in :func:`run_batch`.  The same engine passes, with
    the same input rules, blocks, checks and per-setting messages as in
    :func:`run_batch`, each pass's blocks placed in full stacks.
    """
    engine = _Engine(probe, t, gamma)
    n, dim = engine.t.size, engine.reg.dim
    stacks = [np.zeros((n, dim, dim), dtype=complex) for _ in range(2)]
    signal = np.empty((n, 4, 4), dtype=complex)
    errors = np.full(n, None, dtype=object)
    for part, *blocks, signal[part], errors[part] in engine.passes():
        for full, block, rows in zip(stacks, blocks, (engine.object_rows, engine.mixer_rows)):
            full[part, rows[:, None], rows] = block
    return PipelineStages(*stacks, signal, tuple(errors))


@_value_class
class BatchReadout:
    """Readouts of n object settings from :func:`run_batch`.

    ``values[i]`` holds ``Tr[R rho_i]`` for every operator ``R`` of the
    readout stack; a setting that failed one of the engine's own checks
    holds NaN and its message in ``errors[i]`` (None for the settings that
    passed).
    """

    values: np.ndarray
    errors: tuple[str | None, ...]


def run_batch(probe, t, gamma, readout) -> BatchReadout:
    """Object on i1, mixer on (i1, i2), discard the idlers, read out the signals.

    ``t`` and ``gamma`` give the n object settings.  ``probe`` is one
    :class:`DensityMatrix` for every setting, or a sequence of n on one
    register, ``probe[i]`` for setting i; each distinct probe is taken once.
    ``readout`` is a ``(..., 4, 4)`` stack of signal observables (e.g. from
    :func:`measurement_stack`), and ``values`` has shape ``(n, ...)``.
    Every stage works on the block of rows and columns that the probes and
    the operators can make non-zero (:class:`_Engine`), and the settings
    run in passes of ``qcore._block_rows(k**2)`` for a post-mixer block of
    k rows; each setting's result does not depend on the others or on the
    pass size.
    Bad input raises ValueError before the first pass: a setting outside
    :class:`ObjectParams`' rule (the first one, in order), probes that do
    not fit the settings, or a readout stack that is not 4x4 or not
    finite; so does a readout value beyond the float range, in the pass
    that finds it.  Only the engine's own checks give a per-setting NaN.
    """
    engine = _Engine(probe, t, gamma)
    n = engine.t.size
    readout = np.asarray(readout)
    if readout.shape[-2:] != (4, 4):
        raise ValueError(f"readout operators must be 4x4 on (s1, s2), got shape {readout.shape}")
    _check_finite(readout, "readout operators")
    flat = readout.reshape(-1, 16)
    values = np.empty((n, len(flat)))
    errors = np.full(n, None, dtype=object)
    for part, _, _, signal, errors[part] in engine.passes():
        # Tr[R rho] = sum_ij R_ij rho_ji as one fixed-length sum per pair, so a
        # setting's value depends neither on how many share its pass nor on
        # how many operators share its step
        rho_t = signal.swapaxes(1, 2).reshape(len(signal), 1, 16)
        step = _block_rows(16 * len(signal))
        passed = np.equal(errors[part], None)
        for r in range(0, len(flat), step):
            # a sum beyond the float range reads inf or NaN, which raises unless its setting failed
            with np.errstate(over="ignore", invalid="ignore"):
                block = (flat[None, r:r + step] * rho_t).sum(axis=-1).real
            if not np.isfinite(block[passed]).all():
                raise ValueError("readout value lies beyond the float range")
            values[part, r:r + step] = block
    values[~np.equal(errors, None)] = np.nan
    values = values.reshape((n,) + readout.shape[:-2])
    return BatchReadout(values, tuple(errors))


_BELL_KETS = {
    "phi+": ("00", "11", +1),
    "phi-": ("00", "11", -1),
    "psi+": ("01", "10", +1),
    "psi-": ("01", "10", -1),
}


def bell_ket(label: str) -> np.ndarray:
    """Two-qubit Bell state by label: phi+/phi-/psi+/psi-."""
    if not isinstance(label, str) or label.lower() not in _BELL_KETS:
        raise ValueError(f"unknown Bell label {label!r}")
    a, b, sign = _BELL_KETS[label.lower()]
    return (basis_ket(a) + sign * basis_ket(b)) / np.sqrt(2)


def measurement_stack(phis) -> np.ndarray:
    """``(P, 2, 4, 4)`` stack of the detector pairs ``(m_h, m_g)`` for P phases.

    Each pair is the Bell projectors ``|psi-><psi-|``, ``|psi+><psi+|``
    conjugated by the phase shifter ``Z_phi`` on the second wire, whose
    statistics sweep as ``cos(gamma + phi)`` when the phase runs.  The
    conjugation by ``I (x) Z_phi = diag(u)`` scales entry ``(i, j)`` by
    ``u_i conj(u_j)``.  ``m_h + m_g`` is the projector ``(II - ZZ)/2`` on
    the one-photon subspace at every phase, so ``P_h + P_g = 1`` for the
    Bell probe; a Werner probe leaks weight outside it, and the missing
    weight is the no-click probability.  Phases must be finite.
    """
    phis = np.asarray(phis, dtype=float).reshape(-1)
    _check_finite(phis, "measurement phase")
    u = np.ones((phis.size, 4), dtype=complex)
    u[:, 1] = u[:, 3] = np.exp(1j * phis)
    proj = np.array([np.outer(k, k.conj()) for k in (bell_ket("psi-"), bell_ket("psi+"))])
    out = u[:, None, :, None] * proj[None]
    out *= u.conj()[:, None, None, :]
    out.setflags(write=False)
    return out


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), which
# numpy documents as stable across versions
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# rows at least this wide draw with one binomial call on the row.  Per row,
# generator included, scalar calls against one array call took 9.9 against
# 10.5 us at 12 draws, 10.6 against 10.7 at 13, 11.1 against 10.8 at 14,
# 12.4 against 10.9 at 16 and 2664 against 448 us at 4096 draws
_ARRAY_DRAW_WIDTH = 14


def _stream_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, *keys[r]]).generate_state(4, np.uint64)`` for every row r at once.

    SeedSequence's hash run as uint32 array operations over an ``(n,)``
    word per entropy position.  The entropy words are the seed's
    little-endian 32-bit words, then one word per key element, so every
    key must lie in [0, 2**32).  Returns an ``(n, 4)`` uint64 array.
    """
    n = len(keys)
    seed_words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.full(n, w, dtype=np.uint32) for w in seed_words] + list(keys.T.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool,
    # read as little-endian pairs
    hash_const = _INIT_B
    state = np.empty((n, 8), dtype="<u4")
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


def _check_sampler(shots: int, seed: int, least: int = 0) -> None:
    """The sampler's rule: shots in [least, 2**63) (a C long) and a seed >= 0, each an integer to ``operator.index``."""
    for name, value in (("shots", shots), ("seed", seed)):
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value}") from None
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if shots < least:
        raise ValueError(f"shots must be at least {least}" if least else "shots must be nonnegative")
    if shots > 2**63 - 1:
        raise ValueError(f"shots must be below 2**63, got {shots}")


def sample_frequencies(p_h, shots: int, seed: int, keys) -> np.ndarray:
    """Shot estimates ``n_h / shots`` of an ``(n, k)`` array of click probabilities.

    Row ``r`` draws its k binomial counts, in order, from its own
    generator ``default_rng([seed, *keys[r]])``, so a row's counts depend
    on the seed, its key and its own probabilities only.  The n streams
    are seeded in one vectorized pass (:func:`_stream_states`); a row of
    at least ``_ARRAY_DRAW_WIDTH`` entries is drawn in one array call,
    which draws what scalar calls in row order draw.  Key
    elements are integers to ``operator.index`` in [0, 2**32), ``shots``
    lies in [1, 2**63) and the probabilities must lie in [0, 1] within
    ``ATOL``; they are clipped to [0, 1] first, which absorbs the engine's
    rounding.
    """
    # numpy.random stays out of the import path of the CLI
    from numpy.random.bit_generator import ISeedSequence

    class _RowSeed(ISeedSequence):
        """The current row's precomputed SeedSequence ``state``, which PCG64 seeds itself from."""

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    _check_sampler(shots, seed, least=1)
    p_h = np.asarray(p_h, dtype=float)
    given, keys = keys, np.asarray(keys)
    if keys.dtype.kind not in "iu":  # element by element: numpy reads 2**63 beside small ints as a float
        keys = np.asarray(given, dtype=object)
        for key in keys.ravel().tolist():
            try:
                operator.index(key)
            except TypeError:
                raise ValueError(f"stream keys must be integers, got {key!r}") from None
    if p_h.ndim != 2 or keys.ndim != 2 or len(keys) != len(p_h):
        raise ValueError(f"need an (n, k) array and (n, m) keys, got shapes {p_h.shape} and {keys.shape}")
    if keys.size and not 0 <= keys.min() <= keys.max() <= _MASK32:
        raise ValueError("stream keys must lie in [0, 2**32)")
    keys = keys.astype(np.int64, copy=False)
    _check_probability(p_h, "click probability")
    freqs = np.empty(p_h.shape)
    states = _stream_states(int(seed), keys)  # a Python int: numpy's would overflow in the word arithmetic
    row_seed = _RowSeed()
    rows = _block_rows(p_h.shape[1])
    # below _ARRAY_DRAW_WIDTH an array call's validation pass costs more than
    # the scalar calls it saves
    wide = p_h.shape[1] >= _ARRAY_DRAW_WIDTH
    counts = np.empty((min(rows, len(p_h)), p_h.shape[1]), dtype=np.int64)
    for lo in range(0, len(p_h), rows):
        block = np.clip(p_h[lo:lo + rows], 0.0, 1.0)
        for r, (state, row) in enumerate(zip(states[lo:lo + rows], block if wide else block.tolist())):
            row_seed.state = state
            binomial = np.random.Generator(np.random.PCG64(row_seed)).binomial
            counts[r] = binomial(shots, row) if wide else [binomial(shots, p) for p in row]
        np.divide(counts[:len(block)], shots, out=freqs[lo:lo + rows])
    return freqs
