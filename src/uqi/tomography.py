"""Process-identification layer: operator Schmidt, the ancilla linear
relation, phase-sweep estimation of the object parameters, visibility,
and two-dimensional image scans.

The probe state, written across the (idlers)|(signals) cut as
``rho_in = sum_l r_l A_l (x) B_l`` with orthonormal operator families,
turns the discarded-system experiment into a set of linear readouts:
measuring ``B_l`` on the surviving signals yields
``<B_l^†> = r_l Tr[F o E[A_l]]`` for any channel ``E`` on the idler side
followed by a known operation ``F``.  Sweeping the measurement phase then
inverts the two object parameters from the sinusoid
``P_h(phi) = (1 - T cos(gamma + phi)) / 2``.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .channels import KrausChannel, ModeMixer, _check_object_params, fold_angles
from .circuit import _check_sampler, measurement_stack, prepare_probe, run_batch, sample_frequencies
from .qcore import ATOL, DensityMatrix, _block_rows, _check_finite, _check_probability, _value_class

# singular values closer than this (relative) are treated as one
# degenerate group when fixing the Hermitian gauge
_GROUP_RTOL = 1e-10
_RANK_RTOL = 1e-12
# the largest shift of T cos(gamma) or T sin(gamma) that readouts off by ATOL may cause
_MAX_SHIFT = 1e-6


@_value_class
class SchmidtData:
    """Operator-Schmidt triple ``{r_l, A_l, B_l}`` of a bipartite state.

    Coefficients are the (nonnegative) singular values of the reshuffled
    state; sign freedom is folded into the operators, which are gauged to
    be Hermitian whenever the input admits it (``hermitian`` records the
    outcome per term).  Both families are orthonormal under
    ``Tr[A A'^†] = delta``.
    """

    r: np.ndarray
    a_ops: tuple[np.ndarray, ...]
    b_ops: tuple[np.ndarray, ...]
    dim_a: int
    dim_b: int
    hermitian: tuple[bool, ...]

    @property
    def rank(self) -> int:
        return len(self.r)


def _hermitian_basis(cols: list[np.ndarray], k: int) -> list[np.ndarray] | None:
    """Orthonormal Hermitian basis of span(cols), or None if there is none.

    Real-linear Gram-Schmidt over the Hermitian parts; two projection
    passes keep the basis orthogonal to machine precision.
    """
    cands = []
    for a in cols:
        cands.append((a + a.conj().T) / 2)
        cands.append(1j * (a - a.conj().T) / 2)
    basis: list[np.ndarray] = []
    for c in cands:
        for _ in range(2):
            for b in basis:
                c = c - np.trace(b.conj().T @ c).real * b
        nrm = np.sqrt(np.trace(c.conj().T @ c).real)
        if nrm > 1e-8:
            basis.append(c / nrm)
        if len(basis) == k:
            return basis
    return None


def operator_schmidt(rho: DensityMatrix, bipartition) -> SchmidtData:
    """Operator-Schmidt decomposition across a bipartition of the register.

    ``bipartition`` is a pair of wire collections that together cover the
    register exactly.  Works by singular-value factorization of the
    reshuffled state matrix; degenerate singular values are re-gauged as a
    block so the returned operators stay Hermitian for Hermitian input.
    """
    wires_a, wires_b = (list(w) for w in bipartition)
    all_wires = wires_a + wires_b
    if sorted(all_wires) != sorted(rho.register.wires) or len(set(all_wires)) != len(all_wires):
        raise ValueError("bipartition must split the register into two disjoint parts")
    if not wires_a or not wires_b:
        raise ValueError("both sides of the bipartition must be nonempty")

    da, db = 2 ** len(wires_a), 2 ** len(wires_b)
    mat = rho.reordered(all_wires)
    # reshuffle (a b, a' b') -> (a a', b b') so that factors separate
    resh = mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, sv, vh = np.linalg.svd(resh)
    cutoff = _RANK_RTOL * max(1.0, float(sv[0]) if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))

    groups = []
    start = 0
    for i in range(1, rank + 1):
        if i == rank or sv[i - 1] - sv[i] > _GROUP_RTOL * max(1.0, float(sv[0])):
            groups.append((start, i))
            start = i

    r_out: list[float] = []
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    herm: list[bool] = []
    for lo, hi in groups:
        cols = [u[:, i].reshape(da, da) for i in range(lo, hi)]
        basis = _hermitian_basis(cols, hi - lo)
        gauged = basis is not None
        if not gauged:
            basis = cols
        for a in basis:
            w = resh.conj().T @ a.reshape(da * da)
            r = float(np.linalg.norm(w))
            b = (w / r).conj().reshape(db, db)
            r_out.append(r)
            a_out.append(a)
            b_out.append(b)
            herm.append(
                gauged
                and bool(np.max(np.abs(a - a.conj().T)) < 1e-10)
                and bool(np.max(np.abs(b - b.conj().T)) < 1e-10)
            )
    return SchmidtData(
        r=np.array(r_out),
        a_ops=tuple(a_out),
        b_ops=tuple(b_out),
        dim_a=da,
        dim_b=db,
        hermitian=tuple(herm),
    )


def aapt_predict(sd: SchmidtData, ch: KrausChannel, post: ModeMixer | None = None):
    """Ancilla-side expectations ``<B_l^†> = r_l Tr[F o E[A_l]]``.

    ``ch`` must act on the full first (system) block of the bipartition.
    When ``post`` is the mode mixer the projection is applied without the
    renormalization, i.e. the numbers refer to the unnormalized projected
    state; the mixer's scalar normalization cannot be pushed through a
    term-by-term linear relation.
    """
    if ch.dim != sd.dim_a:
        raise ValueError(
            f"channel dimension {ch.dim} does not match the system block dimension {sd.dim_a}"
        )
    if post is not None and sd.dim_a != 4:
        raise ValueError("the mode mixer post-operation needs a two-wire system block")
    out = np.empty(sd.rank, dtype=complex)
    for i, (r, a) in enumerate(zip(sd.r, sd.a_ops)):
        x = ch.apply(a)
        if post is not None:
            x = post.op @ x @ post.op.conj().T
        out[i] = r * np.trace(x)
    return out


@_value_class
class ObjectEstimate:
    """Recovered object parameters with optional shot-noise uncertainty.

    ``gamma_hat`` is reported in (-pi, pi] with the nonnegative-amplitude
    branch enforced; when the amplitude is consistent with zero the
    ``degenerate`` flag is set and ``gamma_hat`` is NaN (the phase of a
    vanishing sinusoid carries no information).
    """

    t_hat: float
    gamma_hat: float
    stderr_t: float | None = None
    stderr_gamma: float | None = None
    method: str = "least-squares"
    degenerate: bool = False


def _quadratic_form(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v_n^T m_n v_n`` for each row n."""
    return (v[:, :, None] * m * v[:, None, :]).sum(axis=(1, 2))


def _sinusoid_rows(phis: np.ndarray) -> np.ndarray:
    """The least-squares rows ``R^-1 Q^T`` of the design with columns ``(1, cos phi, sin phi)``.

    Row k applied to a sweep gives the fit's k-th coefficient.  Modified
    Gram-Schmidt with elementwise products and sums alone, so no BLAS or
    LAPACK kernel decides a bit and the rows are the same on every
    machine.  The normal equations square the design's condition number:
    for three phases ``2 pi/1024`` apart, rows solved from them differ
    from pinv's by 1.7e-6 relative, these by 3e-13.  Each column is
    projected twice: after one pass the quadrature rows are orthogonal to
    the offset only to ``eps`` times the condition number, which at those
    phases turns a fringe's offset of 1/2 into an error of 1e-6 in T.
    Raises ValueError when fewer than three phases differ modulo 2 pi.
    """
    angles = phis.tolist()
    columns = [np.ones(len(angles)), np.array([math.cos(p) for p in angles]), np.array([math.sin(p) for p in angles])]
    r = np.zeros((3, 3))
    q = []
    for k, v in enumerate(columns):
        for _ in range(2):
            for j, qj in enumerate(q):
                d = (qj * v).sum()
                r[j, k] += d
                v = v - d * qj
        r[k, k] = math.sqrt((v * v).sum())
        # matrix_rank's cutoff, with the first column's norm sqrt(m) for the largest singular value
        if r[k, k] <= r[0, 0] * len(phis) * np.finfo(float).eps:
            # (1, cos, sin) has rank 3 exactly when three phases differ modulo 2 pi;
            # with two, one quadrature is unidentifiable
            raise ValueError("least-squares inversion needs three distinct phases modulo 2 pi")
        q.append(v / r[k, k])
    # back substitution through R, last row first
    row2 = q[2] / r[2, 2]
    row1 = (q[1] - r[1, 2] * row2) / r[1, 1]
    row0 = (q[0] - r[0, 1] * row1 - r[0, 2] * row2) / r[0, 0]
    return np.array([row0, row1, row2])


def _phase_design(phis: np.ndarray) -> tuple[str, np.ndarray]:
    """The method and the ``2 x m`` matrix ``G`` that invert a sweep over ``phis``.

    Both methods are linear, ``(c, s) = G y`` with ``c = T cos(gamma)``,
    ``s = T sin(gamma)``; ``G`` depends on the phases alone, so whether a
    phase set can be inverted is known before any readout.  The phase
    count picks the method: two-point for exactly two phases, least
    squares otherwise.  Raises ValueError for a non-finite phase, checked
    first, for a phase set that cannot be inverted, and for one whose
    ``G`` would let readouts within ``ATOL`` move ``(c, s)`` by more than
    ``_MAX_SHIFT``.
    """
    _check_finite(phis, "measurement phase")
    if len(phis) == 2:
        # y_i = 1 - 2 P_i = c cos(phi_i) - s sin(phi_i): the adjugate of that 2x2 system
        (c1, s1), (c2, s2) = ((math.cos(p), math.sin(p)) for p in phis.tolist())
        det = s1 * c2 - c1 * s2  # sin(phi_1 - phi_2), from the unit vectors: no difference can overflow
        if abs(det) < 1e-12:
            if c1 * c2 + s1 * s2 > 0.0:
                raise ValueError("duplicate phase values: cannot invert a single setting")
            raise ValueError("phase points pi apart are degenerate for the two-point inversion")
        method, g, scale = "two-point", np.array([[-s2, s1], [-c2, c1]]) / det, 2.0
    elif len(phis) < 3:
        raise ValueError("least-squares inversion needs at least three phase points")
    else:
        # the spread as a Python float, which overflows to inf without a warning
        if float(phis.max()) - float(phis.min()) < 1e-12:
            raise ValueError("duplicate phase values: cannot invert a single setting")
        # P = a + u cos(phi) + v sin(phi), and (c, s) = (-2u, 2v)
        method, g, scale = "least-squares", _sinusoid_rows(phis)[1:] * np.array([[-2.0], [2.0]]), 1.0
    # the largest shift of c or s when every readout moves by ATOL; _fit reads y = 1 - 2 P for two-point
    shift = ATOL * scale * float(np.abs(g).sum(axis=1).max())
    if shift > _MAX_SHIFT:
        raise ValueError(
            f"phase points too close to invert: readouts off by {ATOL:g} could shift the estimate by {shift:.3g}"
            f" (limit {_MAX_SHIFT:g})"
        )
    return method, g


def _fit(method: str, g: np.ndarray, ps: np.ndarray, shots: int) -> dict:
    """Estimates for every row of ``ps`` (n sweeps over the phases of ``_phase_design``'s ``G``).

    With shots the covariance of ``(c, s)`` is ``G diag(var y) G^T``.
    Returns arrays ``t_hat``, ``gamma_hat`` (NaN when degenerate),
    ``stderr_t``, ``stderr_gamma`` (NaN when not defined) and ``degenerate``.
    """
    rows = _block_rows(ps.shape[1])
    if len(ps) > rows:  # in blocks of rows, which the sums below keep apart
        parts = [_fit(method, g, ps[lo:lo + rows], shots) for lo in range(0, len(ps), rows)]
        return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    if method == "two-point":
        y, scale = 1 - 2 * ps, 4.0
    else:
        y, scale = ps, 1.0
    # every sum runs along one row, so a row's result does not depend on the others
    cs = (y[:, None, :] * g).sum(axis=-1)
    c, s = cs[:, 0], cs[:, 1]
    t_hat = np.hypot(c, s)
    stderr_t = np.full(len(ps), np.nan)
    stderr_gamma = np.full(len(ps), np.nan)
    if shots:
        var = scale * np.maximum(ps * (1.0 - ps), 1e-12) / shots
        cov = (g[:, None, :] * g[None, :, :] * var[:, None, None, :]).sum(axis=-1)
        nonzero = t_hat > 1e-15
        jt = np.where(nonzero[:, None], cs / np.where(nonzero, t_hat, 1.0)[:, None], [1.0, 0.0])
        stderr_t = np.sqrt(np.maximum(_quadratic_form(jt, cov), 0.0))
        degenerate = t_hat < 3.0 * stderr_t
        live = ~degenerate
        jg = np.column_stack([-s[live], c[live]]) / t_hat[live, None] ** 2
        stderr_gamma[live] = np.sqrt(np.maximum(_quadratic_form(jg, cov[live]), 0.0))
    else:
        degenerate = t_hat < 1e-9
    # math.atan2 per row: numpy's arctan2 gives other bits under AVX-512 than under AVX2
    angles = np.array([math.atan2(sn, cn) for sn, cn in zip(s.tolist(), c.tolist())])
    gamma_hat = np.where(degenerate, np.nan, fold_angles(angles))
    return {
        "t_hat": t_hat,
        "gamma_hat": gamma_hat,
        "stderr_t": stderr_t,
        "stderr_gamma": stderr_gamma,
        "degenerate": degenerate,
    }


def estimate_object(probabilities, shots: int = 0) -> ObjectEstimate:
    """Invert a phase sweep ``[(phi, P_h), ...]`` into ``(T, gamma)``.

    The sinusoid ``P_h = 1/2 - (c cos(phi) - s sin(phi))/2`` is linear in
    ``c = T cos(gamma)`` and ``s = T sin(gamma)``, and the phase count
    picks the method:

    * ``two-point``, for exactly two phases, solves the 2x2 system under
      ``P_h + P_g = 1`` (the sweep {0, pi/2} gives ``c = 1 - 2 P(0)``,
      ``s = 2 P(pi/2) - 1``);
    * ``least-squares``, for three or more, fits offset and both
      quadratures over the sweep.

    A single phase setting determines only ``T cos(gamma + phi)`` and is
    rejected: both methods require genuinely distinct phases.  Each
    probability must be finite and lie in [0, 1] within ``ATOL``.
    ``shots`` follows the sampler's rule, and 0 is analytic.  With shots,
    binomial uncertainty is propagated into standard errors and the
    degeneracy test becomes ``t_hat < 3 stderr_t``.
    """
    try:
        pts = [(float(p), float(v)) for p, v in probabilities]
    except TypeError:
        given = reprlib.repr(probabilities)
        raise ValueError(f"probabilities must be an iterable of (phi, P) pairs, got {given}") from None
    phis = np.array([p for p, _ in pts])
    ps = np.array([[v for _, v in pts]])
    _check_probability(ps, "detection probability")
    method, g = _phase_design(phis)
    _check_sampler(shots, 0)
    fit = _fit(method, g, ps, shots)
    stderr_t, stderr_gamma = fit["stderr_t"][0], fit["stderr_gamma"][0]
    return ObjectEstimate(
        t_hat=float(fit["t_hat"][0]),
        gamma_hat=float(fit["gamma_hat"][0]),
        stderr_t=float(stderr_t) if shots else None,
        stderr_gamma=None if np.isnan(stderr_gamma) else float(stderr_gamma),
        method=method,
        degenerate=bool(fit["degenerate"][0]),
    )


def visibility(p_series) -> float:
    """Fringe visibility ``(P_max - P_min) / (P_max + P_min)``; each probability must be finite and lie in [0, 1] within ``ATOL``."""
    return float(_visibilities(np.asarray(list(p_series), dtype=float).reshape(1, -1))[0])


def _visibilities(series) -> np.ndarray:
    """:func:`visibility` of each row of an ``(n, m)`` float array; the first bad row, in order, raises its error."""
    if series.shape[1] == 0:
        raise ValueError("visibility needs a nonempty series")
    hi, lo = series.max(axis=1), series.min(axis=1)
    # true exactly for the rows the checks below accept: a non-finite entry makes an extreme non-finite, and a
    # sum that leaves the float range (or adds inf to -inf) belongs to a row outside [0, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        good = (np.maximum(np.abs(hi - 0.5), np.abs(lo - 0.5)) <= 0.5 + ATOL) & (hi + lo != 0.0)
    for row in series[~good][:1]:
        _check_probability(row, "detection probability")
        raise ValueError("visibility is undefined for an all-zero series")
    return (hi - lo) / (hi + lo)


@_value_class
class ImageMaps:
    """Ground-truth transmission and phase grids of the scanned object; every pixel obeys :class:`ObjectParams`' rule."""

    t_map: np.ndarray
    gamma_map: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_map, dtype=float)
        g = np.asarray(self.gamma_map, dtype=float)
        if t.ndim != 2 or g.ndim != 2:
            raise ValueError("maps must be two-dimensional grids")
        if t.shape != g.shape:
            raise ValueError(f"map shapes differ: {t.shape} vs {g.shape}")
        if t.size == 0:
            raise ValueError("maps must not be empty")
        _check_object_params(t, g)
        t = t.copy()
        g = g.copy()
        t.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "t_map", t)
        object.__setattr__(self, "gamma_map", g)

    @property
    def height(self) -> int:
        return self.t_map.shape[0]

    @property
    def width(self) -> int:
        return self.t_map.shape[1]


@_value_class
class ScanResult:
    """Per-pixel estimates; failed pixels carry NaN and an error message."""

    t_hat: np.ndarray
    gamma_hat: np.ndarray
    stderr_t: np.ndarray
    stderr_gamma: np.ndarray
    degenerate: np.ndarray
    errors: tuple[tuple[int, int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def image_scan(maps: ImageMaps, phi_sweep, shots: int = 0, seed: int = 0) -> ScanResult:
    """Run the full pipeline and estimator for every pixel.

    All pixels go through the batched engine (:func:`run_batch`) and one
    shared-design estimator.  Analytic mode (``shots=0``) inverts exact
    probabilities; shot mode draws each pixel's counts with
    :func:`sample_frequencies` from its own stream ``[seed, row, col]``,
    so a pixel's result does not depend on the others.  A phase set that
    cannot be inverted, and shots or a seed outside the sampler's rule,
    raise ValueError before the engine runs.  A pixel that fails an
    engine check is recorded without aborting the scan: its readout row,
    sampled as zeros, carries NaN through the estimator, so its estimates
    are NaN and it is not degenerate.  Output grids match the input shape.
    """
    try:
        phis = np.array([float(p) for p in phi_sweep])
    except TypeError:
        raise ValueError(f"phases must be an iterable of numbers, got {reprlib.repr(phi_sweep)}") from None
    method, g = _phase_design(phis)
    _check_sampler(shots, seed)
    h, w = maps.height, maps.width
    batch = run_batch(prepare_probe(), maps.t_map, maps.gamma_map, measurement_stack(phis)[:, 0])
    p_h = batch.values
    failed = np.not_equal(batch.errors, None)
    if shots:
        p_h[failed] = 0.0
        p_h = sample_frequencies(p_h, shots, seed, np.indices((h, w)).reshape(2, -1).T)
        p_h[failed] = np.nan
    return ScanResult(
        **{key: value.reshape(h, w) for key, value in _fit(method, g, p_h, shots).items()},
        errors=tuple((*divmod(i, w), e) for i, e in enumerate(batch.errors) if e is not None),
    )
