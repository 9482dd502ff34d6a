"""Seeded inputs, argument lists and output checks for the benchmark's workloads.

Each workload is one `uqi` subcommand.  Its inputs are drawn from the
workload seed; the program sees only the generated map files, argument
lists and `--seed`.  The checks compare the program's output with closed
forms computed here from the inputs, never with stored output, and use
nothing from the `uqi` package.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("image-analytic", "image-shots", "werner", "sweep-dense")

IMAGE_SIDE = 24
IMAGE_PHASES = 8  # the CLI default for `uqi image`
IMAGE_SHOTS = 10_000
EDGE_SHARE = 1 / 16  # share of T = 0 pixels, and separately of T = 1 pixels
T_INTERIOR = (0.1, 1.0)  # other pixels: far enough above 0 that shot noise never hides them

WERNER_XI_COUNT = 61
WERNER_GAMMA_POINTS = 24  # fixed inside `uqi werner`
SEPARABILITY_XI = "0.6666666666666666"

SWEEP_PHASES = 4096
SWEEP_SHOTS = 100_000

ANALYTIC_TOL = 1e-9
# shot-mode bounds, in standard errors; each is many sigma wide so that no seed trips them
BINOMIAL_Z = 6.0
ESTIMATE_Z = 5.0
MAX_PIXEL_Z = 6.0
MEAN_SQUARE_Z = (0.75, 1.3)
STDERR_RTOL = 0.05

IMAGE_HEADER = [
    "row", "col", "t_hat", "gamma_hat", "stderr_t", "stderr_gamma",
    "degenerate", "t_error", "gamma_error", "status",
]
WERNER_HEADER = [
    "xi", "modulation_amplitude", "offset_raw", "offset_conditioned",
    "no_click", "visibility_raw", "visibility_conditioned", "ppt_min_eigenvalue",
]
SWEEP_HEADER = [
    "record", "phi", "p_h", "p_g",
    "t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "method", "degenerate",
]


@dataclass
class Case:
    """One workload's generated input: what to run and how to judge its output."""

    workload: str
    seed: int
    args: list[str]  # `uqi` arguments, subcommand first
    readouts: int  # (object setting, phase) pairs read out per call
    settings: int  # object settings per call
    truth: dict
    check: Callable[["Case", bytes], list[str]]
    inputs: dict = field(default_factory=dict)  # input make-up, for the log


def wrap_angle(x):
    """Fold angles into [-pi, pi)."""
    return (np.asarray(x, dtype=float) + math.pi) % (2 * math.pi) - math.pi


def _write_grid(path: str, grid: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def image_maps(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Transmission and phase maps: exact shares of T = 0 and T = 1 pixels, the rest uniform."""
    rng = np.random.default_rng([seed, 1])
    n = IMAGE_SIDE * IMAGE_SIDE
    t = rng.uniform(*T_INTERIOR, size=n)
    k = round(n * EDGE_SHARE)
    order = rng.permutation(n)
    t[order[:k]] = 0.0
    t[order[k:2 * k]] = 1.0
    gamma = rng.uniform(-math.pi, math.pi, size=n)
    return t.reshape(IMAGE_SIDE, IMAGE_SIDE), gamma.reshape(IMAGE_SIDE, IMAGE_SIDE)


def make_case(workload: str, seed: int, workdir: str) -> Case:
    """Generate the inputs of ``workload`` for ``seed``; map files go to ``workdir``."""
    if workload in ("image-analytic", "image-shots"):
        t_map, gamma_map = image_maps(seed)
        t_path = os.path.join(workdir, "t_map.csv")
        g_path = os.path.join(workdir, "gamma_map.csv")
        _write_grid(t_path, t_map)
        _write_grid(g_path, gamma_map)
        args = ["image", "--t-map", t_path, "--gamma-map", g_path, "--seed", str(seed)]
        if workload == "image-shots":
            args += ["--shots", str(IMAGE_SHOTS), "--format", "json"]
        pixels = t_map.size
        return Case(
            workload, seed, args,
            readouts=pixels * IMAGE_PHASES,
            settings=pixels,
            truth={"t": t_map, "gamma": gamma_map},
            check=check_image_analytic if workload == "image-analytic" else check_image_shots,
            inputs={
                "pixels": pixels,
                "share_t0": float(np.mean(t_map == 0.0)),
                "share_t1": float(np.mean(t_map == 1.0)),
            },
        )
    if workload == "werner":
        rng = np.random.default_rng([seed, 2])
        inner = rng.uniform(0.0, 1.0, size=WERNER_XI_COUNT - 3)
        texts = sorted(["0.0", "1.0", SEPARABILITY_XI] + [repr(float(x)) for x in inner], key=float)
        t = float(rng.uniform(0.3, 1.0))
        return Case(
            workload, seed, ["werner", "--xi", ",".join(texts), "--T", repr(t)],
            readouts=len(texts) * WERNER_GAMMA_POINTS,
            settings=len(texts) * WERNER_GAMMA_POINTS,
            truth={"xi": np.array([float(x) for x in texts]), "t": t},
            check=check_werner,
            inputs={"xi_count": len(texts), "t": t},
        )
    if workload == "sweep-dense":
        rng = np.random.default_rng([seed, 3])
        t = float(rng.uniform(0.2, 1.0))
        gamma = float(rng.uniform(-math.pi, math.pi))
        args = [
            "sweep", "--T", repr(t), "--gamma", repr(gamma),
            "--phi-points", str(SWEEP_PHASES), "--shots", str(SWEEP_SHOTS), "--seed", str(seed),
        ]
        return Case(
            workload, seed, args,
            readouts=SWEEP_PHASES,
            settings=1,
            truth={"t": t, "gamma": gamma},
            check=check_sweep,
            inputs={"phases": SWEEP_PHASES, "t": t, "gamma": gamma},
        )
    raise ValueError(f"unknown workload {workload!r}")


def _csv_rows(out: bytes, header: list[str], errors: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out.decode("utf-8"))))
    if not rows or rows[0] != header:
        errors.append(f"header is {rows[0] if rows else None}, expected {header}")
        return []
    bad = [i for i, r in enumerate(rows[1:], 1) if len(r) != len(header)]
    if bad:
        errors.append(f"{len(bad)} rows have the wrong field count, first at line {bad[0] + 1}")
        return []
    return rows[1:]


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _bool(cell: str) -> bool | None:
    return {"true": True, "false": False}.get(cell)


def _image_records(case: Case, out: bytes, errors: list[str]) -> list[dict]:
    """Per-pixel records from CSV or JSON output, with row/col order checked."""
    if "--format" in case.args:
        try:
            doc = json.loads(out)
        except ValueError as exc:
            errors.append(f"output is not JSON: {exc}")
            return []
        cfg = doc.get("config", {})
        want = {"command": "image", "shots": IMAGE_SHOTS, "seed": case.seed}
        for key, value in want.items():
            if cfg.get(key) != value:
                errors.append(f"config {key} is {cfg.get(key)!r}, expected {value!r}")
        if doc.get("metadata", {}).get("seed") != case.seed:
            errors.append("metadata seed differs from --seed")
        records = doc.get("results", [])
        if records and sorted(records[0]) != sorted(IMAGE_HEADER):
            errors.append(f"result keys are {sorted(records[0])}")
            return []
    else:
        records = []
        for r in _csv_rows(out, IMAGE_HEADER, errors):
            rec = dict(zip(IMAGE_HEADER, r))
            for key in ("t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "t_error", "gamma_error"):
                rec[key] = _num(rec[key])
            rec["row"], rec["col"] = int(rec["row"]), int(rec["col"])
            rec["degenerate"] = _bool(rec["degenerate"])
            records.append(rec)
    h, w = case.truth["t"].shape
    if [(r["row"], r["col"]) for r in records] != [(i, j) for i in range(h) for j in range(w)]:
        errors.append(f"{len(records)} pixel records are not the {h}x{w} grid in row-major order")
        return []
    for r in records:
        t = float(case.truth["t"][r["row"], r["col"]])
        if r["status"] != "" or r["t_hat"] is None:
            errors.append(f"pixel ({r['row']}, {r['col']}) failed: {r['status']!r}")
        elif r["t_error"] is None or abs(r["t_error"] - (r["t_hat"] - t)) > 1e-12:
            errors.append(f"pixel ({r['row']}, {r['col']}) t_error {r['t_error']} is not t_hat - T")
        elif r["gamma_hat"] is not None and not -math.pi < r["gamma_hat"] <= math.pi:
            errors.append(f"pixel ({r['row']}, {r['col']}) gamma_hat {r['gamma_hat']} outside (-pi, pi]")
    return records if not errors else []


def check_image_analytic(case: Case, out: bytes) -> list[str]:
    """Exact probabilities: every estimate equals the map, T = 0 pixels are degenerate."""
    errors: list[str] = []
    for r in _image_records(case, out, errors):
        t = float(case.truth["t"][r["row"], r["col"]])
        g = float(case.truth["gamma"][r["row"], r["col"]])
        where = f"pixel ({r['row']}, {r['col']})"
        if r["stderr_t"] is not None or r["stderr_gamma"] is not None:
            errors.append(f"{where} reports a standard error without shots")
        if t == 0.0:
            if r["degenerate"] is not True or r["gamma_hat"] is not None:
                errors.append(f"{where} has T = 0 but is not flagged degenerate with empty gamma_hat")
            if abs(r["t_hat"]) > ANALYTIC_TOL:
                errors.append(f"{where} t_hat {r['t_hat']} for T = 0")
            continue
        if r["degenerate"] is not False or r["gamma_hat"] is None:
            errors.append(f"{where} has T = {t} but is flagged degenerate")
            continue
        if abs(r["t_hat"] - t) > ANALYTIC_TOL:
            errors.append(f"{where} t_hat {r['t_hat']} != T {t}")
        if abs(float(wrap_angle(r["gamma_hat"] - g))) > ANALYTIC_TOL:
            errors.append(f"{where} gamma_hat {r['gamma_hat']} != gamma {g}")
        if r["gamma_error"] is None or abs(float(wrap_angle(r["gamma_error"] - (r["gamma_hat"] - g)))) > 1e-12:
            errors.append(f"{where} gamma_error {r['gamma_error']} is not gamma_hat - gamma")
    return errors


def check_image_shots(case: Case, out: bytes) -> list[str]:
    """Sampled probabilities: z-scores against the true map are unit-variance, none extreme."""
    errors: list[str] = []
    z = []
    for r in _image_records(case, out, errors):
        t = float(case.truth["t"][r["row"], r["col"]])
        g = float(case.truth["gamma"][r["row"], r["col"]])
        where = f"pixel ({r['row']}, {r['col']})"
        if r["t_hat"] < 0:
            errors.append(f"{where} t_hat {r['t_hat']} is negative")
        if t == 0.0:
            continue  # a noise-only sinusoid: degenerate or not, its phase is meaningless
        if r["degenerate"] or r["gamma_hat"] is None:
            errors.append(f"{where} has T = {t} but is flagged degenerate")
            continue
        if not (r["stderr_t"] or 0) > 0 or not (r["stderr_gamma"] or 0) > 0:
            errors.append(f"{where} lacks positive standard errors")
            continue
        z.append((r["t_hat"] - t) / r["stderr_t"])
        z.append(float(wrap_angle(r["gamma_hat"] - g)) / r["stderr_gamma"])
    if errors:
        return errors
    z = np.array(z)
    if z.size == 0:
        return ["no pixel with T > 0 to score"]
    mean_square = float(np.mean(z * z))
    if not MEAN_SQUARE_Z[0] <= mean_square <= MEAN_SQUARE_Z[1]:
        errors.append(f"mean square z-score {mean_square:.3f} outside {MEAN_SQUARE_Z}")
    if np.max(np.abs(z)) > MAX_PIXEL_Z:
        errors.append(f"largest |z| {float(np.max(np.abs(z))):.2f} exceeds {MAX_PIXEL_Z}")
    return errors


def werner_closed_forms(xi: float, t: float) -> dict[str, float]:
    """The Werner-probe readouts the README states, as functions of (xi, T)."""
    return {
        "modulation_amplitude": (1 - xi) * t,
        "offset_raw": (2 - xi) / 4,
        "offset_conditioned": 0.5,
        "no_click": xi / 2,
        "visibility_raw": 2 * (1 - xi) * t / (2 - xi),
        "visibility_conditioned": 2 * (1 - xi) * t / (2 - xi),
        "ppt_min_eigenvalue": min(0.0, (3 * xi - 2) / 4),
    }


def check_werner(case: Case, out: bytes) -> list[str]:
    errors: list[str] = []
    rows = _csv_rows(out, WERNER_HEADER, errors)
    xis = case.truth["xi"]
    if not errors and len(rows) != len(xis):
        errors.append(f"{len(rows)} rows for {len(xis)} xi values")
    if errors:
        return errors
    for row, xi in zip(rows, xis):
        if float(row[0]) != xi:
            errors.append(f"row xi {row[0]} != input {xi!r}")
            continue
        for name, want in werner_closed_forms(float(xi), case.truth["t"]).items():
            got = float(row[WERNER_HEADER.index(name)])
            if not abs(got - want) <= ANALYTIC_TOL:
                errors.append(f"xi={xi!r}: {name} {got} != {want}")
    return errors


def sweep_stderrs(phis: np.ndarray, p: np.ndarray, shots: int, t: float, gamma: float) -> tuple[float, float]:
    """Least-squares standard errors of (t_hat, gamma_hat) from the true binomial variances."""
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    var = p * (1 - p) / shots
    gram_inv = np.linalg.inv(design.T @ design)
    cov_coef = gram_inv @ ((design * var[:, None]).T @ design) @ gram_inv
    cov = 4 * np.array([[cov_coef[1, 1], -cov_coef[1, 2]], [-cov_coef[1, 2], cov_coef[2, 2]]])
    c, s = t * math.cos(gamma), t * math.sin(gamma)
    jt = np.array([c, s]) / t
    jg = np.array([-s, c]) / t ** 2
    return float(math.sqrt(jt @ cov @ jt)), float(math.sqrt(jg @ cov @ jg))


def check_sweep(case: Case, out: bytes) -> list[str]:
    """Binomial bounds on every sampled point and a calibrated estimate of (T, gamma)."""
    errors: list[str] = []
    rows = _csv_rows(out, SWEEP_HEADER, errors)
    if not errors and (len(rows) != SWEEP_PHASES + 1 or rows[-1][0] != "estimate"):
        errors.append(f"expected {SWEEP_PHASES} sample rows and one estimate row, got {len(rows)} rows")
    if errors:
        return errors
    t, gamma = case.truth["t"], case.truth["gamma"]
    phis = np.array([2.0 * math.pi * k / SWEEP_PHASES for k in range(SWEEP_PHASES)])
    samples = rows[:-1]
    if any(r[0] != "sample" or any(r[4:]) for r in samples):
        errors.append("sample rows are malformed")
        return errors
    phi_out = np.array([float(r[1]) for r in samples])
    p_h = np.array([float(r[2]) for r in samples])
    p_g = np.array([float(r[3]) for r in samples])
    if np.max(np.abs(phi_out - phis)) > 1e-12:
        errors.append("sample phases are not 2 pi k / N")
    p = (1 - t * np.cos(gamma + phis)) / 2
    counts = p_h * SWEEP_SHOTS
    if np.max(np.abs(counts - np.round(counts))) > 1e-6:
        errors.append("p_h is not a whole number of clicks over the shots")
    excess = np.abs(counts - SWEEP_SHOTS * p) - (BINOMIAL_Z * np.sqrt(SWEEP_SHOTS * p * (1 - p)) + 1)
    if np.max(excess) > 0:
        k = int(np.argmax(excess))
        errors.append(f"phase {k}: p_h {p_h[k]} outside the binomial bound around {p[k]}")
    if np.max(np.abs(p_h + p_g - 1)) > 1e-15:
        errors.append("p_h + p_g != 1")
    est = rows[-1]
    if est[8] != "least-squares" or est[9] != "false" or any(est[1:4]):
        errors.append(f"estimate row {est[8:]} is not a non-degenerate least-squares fit")
        return errors
    t_hat, g_hat, se_t, se_g = (float(v) for v in est[4:8])
    want_se_t, want_se_g = sweep_stderrs(phis, p, SWEEP_SHOTS, t, gamma)
    for name, got, want in (("stderr_t", se_t, want_se_t), ("stderr_gamma", se_g, want_se_g)):
        if not abs(got - want) <= STDERR_RTOL * want:
            errors.append(f"{name} {got} differs from the binomial value {want} by more than {STDERR_RTOL:.0%}")
    if not abs(t_hat - t) <= ESTIMATE_Z * want_se_t:
        errors.append(f"t_hat {t_hat} is more than {ESTIMATE_Z} standard errors from T {t}")
    if not abs(float(wrap_angle(g_hat - gamma))) <= ESTIMATE_Z * want_se_g:
        errors.append(f"gamma_hat {g_hat} is more than {ESTIMATE_Z} standard errors from gamma {gamma}")
    return errors
