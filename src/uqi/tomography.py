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

import numpy as np

from .channels import KrausChannel, ModeMixer, fold_angles, mode_mixer, normalize_angle
from .circuit import measurement_stack, prepare_probe, run_batch, sample_frequencies
from .qcore import DensityMatrix, _value_class

# singular values closer than this (relative) are treated as one
# degenerate group when fixing the Hermitian gauge
_GROUP_RTOL = 1e-10
_RANK_RTOL = 1e-12
# Sweeps per step of the estimator: about 1 MB of temporaries at 8 phases, however many pixels.
_FIT_ROWS = 4096


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

    def reconstruct(self) -> np.ndarray:
        """``sum_l r_l A_l (x) B_l`` on the (A wires, B wires) ordering."""
        out = np.zeros((self.dim_a * self.dim_b,) * 2, dtype=complex)
        for r, a, b in zip(self.r, self.a_ops, self.b_ops):
            out += r * np.kron(a, b)
        return out


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


def _check_finite(values: np.ndarray, name: str) -> None:
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {float(bad[0])}")


def _phase_design(phis: np.ndarray, method: str) -> tuple[str, np.ndarray]:
    """The method and the ``2 x m`` matrix ``G`` that invert a sweep over ``phis``.

    Both methods are linear, ``(c, s) = G y`` with ``c = T cos(gamma)``,
    ``s = T sin(gamma)``; ``G`` depends on the phases alone, so whether a
    phase set can be inverted is known before any readout.  ``auto`` is
    two-point for exactly two phases and least squares otherwise.  Raises
    ValueError for a non-finite phase or a phase set that cannot be inverted.
    """
    if method == "auto":
        method = "two-point" if len(phis) == 2 else "least-squares"
    if method == "two-point":
        if len(phis) < 2:
            raise ValueError("two-point inversion needs at least two phase points")
        _check_finite(phis, "measurement phase")
        p1, p2 = phis[:2]
        if abs(normalize_angle(p1 - p2)) < 1e-12:
            raise ValueError("duplicate phase values: cannot invert a single setting")
        if abs(np.sin(p1 - p2)) < 1e-12:
            raise ValueError("phase points pi apart are degenerate for the two-point inversion")
        # y_i = 1 - 2 P_i = c cos(phi_i) - s sin(phi_i)
        return method, np.linalg.inv(np.array([[np.cos(p1), -np.sin(p1)], [np.cos(p2), -np.sin(p2)]]))
    if method == "least-squares":
        if len(phis) < 3:
            raise ValueError("least-squares inversion needs at least three phase points")
        # an all-equal test: np.unique would import numpy.ma, about 15 ms per process
        rounded = np.round(phis, 12)
        if np.all(rounded == rounded[0]) or np.all(np.isnan(rounded)):
            raise ValueError("duplicate phase values: cannot invert a single setting")
        _check_finite(phis, "measurement phase")
        # P = a + u cos(phi) + v sin(phi), and (c, s) = (-2u, 2v)
        design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
        if np.linalg.matrix_rank(design) < 3:
            # (1, cos, sin) has rank 3 exactly when three phases differ modulo 2 pi;
            # with two, one quadrature is unidentifiable and pinv would return it as 0
            raise ValueError("least-squares inversion needs three distinct phases modulo 2 pi")
        return method, np.linalg.pinv(design)[1:] * np.array([[-2.0], [2.0]])
    raise ValueError(f"unknown method {method!r}; use 'two-point' or 'least-squares'")


def _fit(method: str, g: np.ndarray, ps: np.ndarray, shots: int | None) -> dict:
    """Estimates for every row of ``ps`` (n sweeps over the phases of ``_phase_design``'s ``G``).

    With shots the covariance of ``(c, s)`` is ``G diag(var y) G^T``.
    Returns arrays ``t_hat``, ``gamma_hat`` (NaN when degenerate),
    ``stderr_t``, ``stderr_gamma`` (NaN when not defined) and ``degenerate``.
    """
    if len(ps) > _FIT_ROWS:  # in blocks of rows, which the sums below keep apart
        parts = [_fit(method, g, ps[lo:lo + _FIT_ROWS], shots) for lo in range(0, len(ps), _FIT_ROWS)]
        return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    if method == "two-point":
        ps = ps[:, :2]
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
    gamma_hat = np.where(degenerate, np.nan, fold_angles(np.arctan2(s, c)))
    return {
        "t_hat": t_hat,
        "gamma_hat": gamma_hat,
        "stderr_t": stderr_t,
        "stderr_gamma": stderr_gamma,
        "degenerate": degenerate,
    }


def estimate_object(probabilities, method: str = "least-squares", shots: int | None = None) -> ObjectEstimate:
    """Invert a phase sweep ``[(phi, P_h), ...]`` into ``(T, gamma)``.

    The sinusoid ``P_h = 1/2 - (c cos(phi) - s sin(phi))/2`` is linear in
    ``c = T cos(gamma)`` and ``s = T sin(gamma)``:

    * ``two-point`` solves the 2x2 system from the first two points (the
      default sweep {0, pi/2} gives ``c = 1 - 2 P(0)``,
      ``s = 2 P(pi/2) - 1``);
    * ``least-squares`` fits offset and both quadratures over the sweep.

    A single phase setting determines only ``T cos(gamma + phi)`` and is
    rejected: both methods require genuinely distinct phases.  With
    ``shots`` given, binomial uncertainty is propagated into standard
    errors and the degeneracy test becomes ``t_hat < 3 stderr_t``.
    """
    pts = [(float(p), float(v)) for p, v in probabilities]
    phis = np.array([p for p, _ in pts])
    ps = np.array([[v for _, v in pts]])
    _check_finite(ps, "detection probability")
    method, g = _phase_design(phis, method)
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
    """Fringe visibility ``(P_max - P_min) / (P_max + P_min)``."""
    ps = np.asarray(list(p_series), dtype=float)
    if ps.size == 0:
        raise ValueError("visibility needs a nonempty series")
    if np.any(ps < 0):
        raise ValueError("probabilities must be nonnegative")
    hi, lo = float(ps.max()), float(ps.min())
    if hi + lo == 0.0:
        raise ValueError("visibility is undefined for an all-zero series")
    return (hi - lo) / (hi + lo)


@_value_class
class ImageMaps:
    """Ground-truth transmission and phase grids of the scanned object."""

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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(g))):
            raise ValueError("maps contain non-finite values")
        if np.any(t < 0) or np.any(t > 1):
            raise ValueError("transmission map values must lie in [0, 1]")
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


def image_scan(
    maps: ImageMaps,
    phi_sweep,
    shots: int = 0,
    seed: int = 0,
    method: str = "auto",
) -> ScanResult:
    """Run the full pipeline and estimator for every pixel.

    All pixels go through the batched engine (:func:`run_batch`) and one
    shared-design estimator.  Analytic mode (``shots=0``) inverts exact
    probabilities; shot mode draws each pixel's counts with
    :func:`sample_frequencies` from its own stream ``[seed, row, col]``,
    so a pixel's result does not depend on the others.  A phase set that
    ``method`` cannot invert raises ValueError before the engine runs; a
    pixel that fails an engine check is recorded without aborting the
    scan.  Output grids match the input shape.
    """
    phis = np.array([float(p) for p in phi_sweep])
    method, g = _phase_design(phis, method)
    shots = int(shots) if shots else 0
    h, w = maps.height, maps.width
    batch = run_batch(
        prepare_probe(), mode_mixer(), maps.t_map, maps.gamma_map, measurement_stack(phis)[:, 0]
    )
    p_h = batch.values
    live = np.array([e is None for e in batch.errors], dtype=bool)
    if shots:
        pixels = np.column_stack(divmod(np.flatnonzero(live), w))
        p_h[live] = sample_frequencies(p_h[live], shots, seed, pixels)

    fit = {key: np.full(h * w, np.nan) for key in ("t_hat", "gamma_hat", "stderr_t", "stderr_gamma")}
    fit["degenerate"] = np.zeros(h * w, dtype=bool)
    for key, value in _fit(method, g, p_h[live], shots).items():
        fit[key][live] = value
    return ScanResult(
        **{key: value.reshape(h, w) for key, value in fit.items()},
        errors=tuple((*divmod(i, w), e) for i, e in enumerate(batch.errors) if e is not None),
    )
