"""Dense complex linear algebra on a labeled multi-qubit register.

Everything in this package runs through the primitives defined here:
embedding of small operators onto a labeled register, the batched
physicality checks and partial transpose; the engine's block layout
(the Kraus action, the mixer and the partial trace on occupied blocks)
lives with the engine in :mod:`uqi.circuit`.  Matrices are plain
complex numpy arrays; states are wrapped in :class:`DensityMatrix`,
which validates physicality on construction.

Conventions:

* wire order is ``(s1, i1, i2, s2)`` by default, leftmost label is the
  most significant tensor factor;
* basis encoding ``|0> = (1, 0)^T``, ``|1> = (0, 1)^T``;
* matrices are dense (the register never exceeds four wires here).
"""

from __future__ import annotations

import contextlib
import reprlib

import numpy as np

# Tolerances: algebraic identities at 1e-12, PSD slack at 1e-10 to absorb
# accumulated rounding from the eigensolver.
ATOL = 1e-12
PSD_SLACK = 1e-10

# Entries per block of every streamed loop, 128 kB as float64.  README, "Memory", gives each
# stage's width; an engine pass's is the entries of one setting's post-mixer block.
_BLOCK_ENTRIES = 2**14


def _block_rows(width: int) -> int:
    """Rows per block of a loop whose rows carry ``width`` entries each: at least one."""
    return max(1, _BLOCK_ENTRIES // max(width, 1))


def _check_finite(values, name: str) -> None:
    """Raise ValueError naming the first non-finite entry of ``values``, in row-major order."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0].item()}")


def _check_numbers(values, name: str, items: str = "numbers", row: tuple[int, ...] = ()) -> np.ndarray:
    """``values``, an iterable of numbers (or of arrays of shape ``row``), as a float array: the one rule for both.

    A str or bytes is neither, though Python iterates it, nor is anything ``float`` cannot read entry by entry in
    that shape, such as ``None``, a bare number or a nested list.  An empty iterable gives zero rows of that shape.
    An ndarray is read without a per-entry loop.
    """
    if not isinstance(values, (str, bytes)):
        with contextlib.suppress(TypeError, ValueError):
            out = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
            if out.ndim == 1 + len(row) and out.shape[1:] == row or out.shape == (0,):
                return out.reshape(-1, *row)
    raise ValueError(f"{name} must be an iterable of {items}, got {reprlib.repr(values)}")


def _check_probability(values, name: str) -> None:
    """The finite rule, then [0, 1] within ``ATOL``: ValueError naming the first bad entry, in row-major order."""
    _check_finite(values, name)
    # |v - 1/2| is largest at the least or the greatest value: no array-sized temporary unless one is outside
    if values.size and max(abs(values.min() - 0.5), abs(values.max() - 0.5)) > 0.5 + ATOL:
        outside = values[np.abs(values - 0.5) > 0.5 + ATOL]
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0].item()}")


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DEFAULT_WIRES = ("s1", "i1", "i2", "s2")

def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array and reject empty or non-finite input (``matrix must be finite, ...``)."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] == 0 or out.shape[1] == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {out.shape}")
    _check_finite(out, "matrix")
    return out


def _same_value(a, b) -> bool:
    """Field equality of value classes: arrays, also inside tuples, by value.

    NaN equals NaN in float arrays, where it marks a missing value (an
    analytic scan's standard errors).
    """
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=a.dtype.kind in "fc" and b.dtype.kind in "fc")
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same_value, a, b))
    return not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray) and a == b


def _value_class(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    The fields are the names annotated in the class body, in order; a class
    attribute of the same name is that field's default.  ``__init__`` takes
    the fields positionally or by keyword, stores them and then calls
    ``__post_init__``, if the class has one, which may check them and
    replace their values through ``object.__setattr__``.  Hash and repr
    are those of the tuple of field values, so a record holding an array
    is unhashable; equality compares the fields by :func:`_same_value`.
    Assigning or deleting any attribute raises ``AttributeError``.  Unlike
    a frozen dataclass, this compiles no code when the class is defined.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args))
        values = {**defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
            raise TypeError(
                f"{cls.__name__}() takes the fields {names}, got {len(args)} positional "
                f"argument(s) and the keyword(s) {sorted(kwargs)}"
            )
        for name in names:
            object.__setattr__(self, name, values[name])
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        return _same_value(fields(self), fields(other)) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, fields(self)))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {cls.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {cls.__name__} is immutable")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


@_value_class
class Register:
    """Ordered collection of uniquely labeled wires."""

    wires: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        if len(self.wires) == 0:
            raise ValueError("register needs at least one wire")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"duplicate wire labels in {self.wires}")

    @property
    def n(self) -> int:
        return len(self.wires)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def index(self, wire: str) -> int:
        try:
            return self.wires.index(wire)
        except ValueError:
            raise ValueError(f"unknown wire label {wire!r}; register has {self.wires}") from None

    def positions(self, wires) -> list[int]:
        wires = list(wires)
        if len(set(wires)) != len(wires):
            raise ValueError(f"duplicate wire labels in {wires}")
        return [self.index(w) for w in wires]


DEFAULT_REGISTER = Register(DEFAULT_WIRES)


def _support(nonzero) -> np.ndarray:
    """The indices, ascending, whose row or column is True in some ``d x d`` pattern of a boolean ``(..., d, d)`` stack."""
    nonzero = nonzero.reshape((-1,) + nonzero.shape[-2:]).any(axis=0)
    return np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))


def state_errors(block, trace, scratch=None) -> np.ndarray:
    """First failed physicality check of each state, from its occupied block and its trace.

    ``block`` is an ``(n, k, k)`` stack of the rows and columns of each
    state outside of which every entry is zero, and ``trace`` holds the
    n traces of the whole states.  The checks are those of
    :class:`DensityMatrix`, in its order: Hermiticity within 1e-12, unit
    trace within 1e-12, eigenvalues above -1e-10.  Returns an object array
    holding the failed check's message, or None for a physical state.  The
    block must be finite.  ``scratch``, if given, is a C-contiguous complex
    array of the block's shape that the checks may overwrite; by default
    one is allocated.

    The verdicts are those of the whole states: outside the block every
    entry is zero, so it adds nothing to the Hermiticity deviation and only
    zero eigenvalues, which pass.  The deviation is ``max |rho - rho^†|``,
    the modulus of each entry's difference, formed in ``scratch``.  One
    batched Cholesky factorization of ``block + 5e-11 I`` screens the
    stack: it succeeds only if every eigenvalue lies above about -5e-11,
    so every state passes.  If it fails, ``eigvalsh`` on the block gives
    each state's verdict.
    """
    errors = np.full(len(block), None, dtype=object)
    herm = np.zeros(len(block))
    low = np.zeros(len(block), dtype=bool)
    if block.shape[-1]:  # an all-zero state is Hermitian with zero eigenvalues
        if scratch is None:
            scratch = np.empty(block.shape, dtype=complex)
        np.conjugate(block.swapaxes(1, 2), out=scratch)
        herm = np.abs(np.subtract(block, scratch, out=scratch)).max(axis=(1, 2))
        np.add(block, (PSD_SLACK / 2) * np.eye(block.shape[-1]), out=scratch)
        try:
            np.linalg.cholesky(scratch)
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(block)[:, 0] < -PSD_SLACK
    errors[herm > ATOL] = "density matrix is not Hermitian within 1e-12"
    for i in np.flatnonzero((np.abs(trace - 1.0) > ATOL) & (herm <= ATOL)):
        errors[i] = f"density matrix trace {trace[i]} is not 1 within 1e-12"
    errors[low & np.equal(errors, None)] = "density matrix has an eigenvalue below -1e-10"
    return errors


def _stack_errors(mats) -> np.ndarray:
    """:func:`state_errors` of an ``(n, d, d)`` stack of whole finite states, on the rows and columns where some
    state is non-zero.

    A trace beyond the float range reads inf (or NaN, from partial sums
    that overflow both ways, which needs a diagonal entry below -9e307)
    without a warning, and the trace or the eigenvalue check fails.
    """
    occupied = _support(mats != 0)
    with np.errstate(over="ignore", invalid="ignore"):
        return state_errors(mats[:, occupied[:, None], occupied], np.trace(mats, axis1=1, axis2=2))


def _check_states(mats, register) -> None:
    """The rule of :class:`DensityMatrix` on an ``(n, d, d)`` stack of finite complex matrices: ValueError with the
    first failing state's message, in stack order."""
    if mats.shape[1:] != (register.dim, register.dim):
        raise ValueError(f"state shape {mats.shape[1:]} does not match register dimension {register.dim}")
    for err in _stack_errors(mats):
        if err is not None:
            raise ValueError(err)


def basis_ket(bits: str) -> np.ndarray:
    """Computational basis vector from a bit string, e.g. ``"0011"``."""
    ket = np.zeros(2 ** len(bits), dtype=complex)
    ket[int(bits, 2)] = 1.0
    return ket


def _permute_wires(mat: np.ndarray, order) -> np.ndarray:
    """``mat`` on n wires with wire ``order[k]`` moved to position k, on rows and columns alike."""
    n = len(order)
    t = mat.reshape((2,) * (2 * n)).transpose(order + [n + p for p in order])
    return np.ascontiguousarray(t.reshape(mat.shape))


def embed(op, targets, reg: Register) -> np.ndarray:
    """Lift ``op`` acting on ``targets`` to the full register.

    The result acts as ``op`` on the target wires (in the order given, the
    first tensor factor of ``op`` addressing ``targets[0]``) and as the
    identity elsewhere.  Non-adjacent and permuted targets are handled by
    transposing tensor legs.
    """
    op = as_complex_matrix(op)
    idx = reg.positions(targets)
    k = len(idx)
    if op.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {op.shape} does not match {k} target wire(s)")
    rest = [i for i in range(reg.n) if i not in idx]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # current leg order is targets + rest; sort legs back into register order, on Python ints: numpy's
    # argsort would map its SIMD sort kernels, about 0.4 MB of code pages, into the process
    legs = idx + rest
    return _permute_wires(full, sorted(range(reg.n), key=legs.__getitem__))


@_value_class
class DensityMatrix:
    """Positive, unit-trace operator on a labeled register.

    Construction validates Hermiticity (1e-12), unit trace (1e-12) and
    positivity (eigenvalues above -1e-10), so any state produced by the
    pipeline is physical by the time it is observable.  Instances are
    immutable; the underlying array is frozen.
    """

    mat: np.ndarray
    register: Register

    def __post_init__(self):
        m = as_complex_matrix(self.mat).copy()
        _check_states(m[None], self.register)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def _of_stack(cls, mats, register: Register) -> tuple["DensityMatrix", ...]:
        """The states of an ``(n, d, d)`` complex stack, checked by one :func:`_check_states` call, the rule of
        ``__post_init__``, instead of one per state.

        The stack is taken over: it is frozen, and each state's ``mat`` is
        one of its rows.
        """
        _check_states(mats, register)
        mats.setflags(write=False)
        states = []
        for m in mats:
            rho = cls.__new__(cls)
            object.__setattr__(rho, "mat", m)
            object.__setattr__(rho, "register", register)
            states.append(rho)
        return tuple(states)

    @classmethod
    def from_ket(cls, ket, register: Register) -> "DensityMatrix":
        """Pure state from a finite, non-zero amplitude vector (normalized here)."""
        v = np.array(ket, dtype=complex).reshape(-1)
        _check_finite(v, "ket")
        # scaled first by its largest real or imaginary part, so the norm's squares neither overflow nor underflow
        parts = v.view(float)
        scale = np.abs(parts).max(initial=0.0)
        if scale == 0.0:
            raise ValueError("cannot normalize a zero ket")
        parts /= scale
        v /= np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), register)

    @property
    def n(self) -> int:
        return self.register.n

    def reordered(self, new_wires) -> np.ndarray:
        """Matrix of the same state with wires permuted into ``new_wires``."""
        perm = self.register.positions(new_wires)
        if len(perm) != self.n:
            raise ValueError("wire permutation must mention every wire exactly once")
        return _permute_wires(self.mat, perm)


def partial_transpose(rho: DensityMatrix, subsystem) -> np.ndarray:
    """Transpose the given wires only; returns a plain (Hermitian) matrix.

    The result is generally not positive, which is the point: negativity
    of the partial transpose certifies entanglement across the cut.
    """
    subsystem = list(subsystem)
    idx = rho.register.positions(subsystem)
    n = rho.n
    if not 0 < len(idx) < n:
        raise ValueError("subsystem must be a proper nonempty subset of the register")
    axes = list(range(2 * n))
    for i in idx:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    t = rho.mat.reshape((2,) * (2 * n)).transpose(axes)
    return np.ascontiguousarray(t.reshape(rho.register.dim, rho.register.dim))
