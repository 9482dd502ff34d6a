"""Negative controls for the benchmark's own checks.

Each checker must accept the program's real output and reject a
deliberately corrupted copy of it.  Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real output of every workload, made in this process with a serial scan."""
    from uqi.cli import main

    old = os.environ.get("UQI_THREADS")
    os.environ["UQI_THREADS"] = "1"
    try:
        made = {}
        for workload in W.WORKLOADS:
            case = W.make_case(workload, SEED, str(tmp_path_factory.mktemp(workload)))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(case.args) == 0
            made[workload] = (case, buf.getvalue().encode())
        return made
    finally:
        if old is None:
            os.environ.pop("UQI_THREADS")
        else:
            os.environ["UQI_THREADS"] = old


def _edit_csv(out: bytes, edit) -> bytes:
    rows = list(csv.reader(io.StringIO(out.decode())))
    edit(rows)
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


def _edit_json(out: bytes, edit) -> bytes:
    doc = json.loads(out)
    edit(doc["results"])
    return (json.dumps(doc, indent=2) + "\n").encode()


def _first_pixel(rows, t_map, zero: bool) -> list[str]:
    for r in rows[1:]:
        if (float(t_map[int(r[0]), int(r[1])]) == 0.0) == zero:
            return r
    raise AssertionError("no such pixel")


def test_real_outputs_pass(outputs):
    for workload, (case, out) in outputs.items():
        assert case.check(case, out) == [], workload


def test_inputs_have_edge_pixels(outputs):
    case, _ = outputs["image-analytic"]
    assert case.inputs["share_t0"] == case.inputs["share_t1"] == round(W.IMAGE_SIDE ** 2 * W.EDGE_SHARE) / W.IMAGE_SIDE ** 2
    assert W.make_case("werner", SEED, "").args == outputs["werner"][0].args
    assert W.SEPARABILITY_XI in outputs["werner"][0].args[2].split(",")


def _shift_t_hat(rows, t_map):
    r = _first_pixel(rows, t_map, zero=False)
    r[2] = repr(float(r[2]) + 1e-6)
    r[7] = repr(float(r[7]) + 1e-6)  # keep t_error consistent: the closed form must catch it


def _undegenerate(rows, t_map):
    r = _first_pixel(rows, t_map, zero=True)
    r[6] = "false"


def _drop_pixel(rows, t_map):
    del rows[5]


@pytest.mark.parametrize("corrupt", [_shift_t_hat, _undegenerate, _drop_pixel])
def test_image_analytic_rejects(outputs, corrupt):
    case, out = outputs["image-analytic"]
    bad = _edit_csv(out, lambda rows: corrupt(rows, case.truth["t"]))
    assert case.check(case, bad)


def _halve_stderrs(results):
    for r in results:
        if r["stderr_gamma"] is not None:
            r["stderr_t"] /= 2
            r["stderr_gamma"] /= 2


def _one_extreme_pixel(results):
    r = next(r for r in results if r["stderr_gamma"] is not None)
    r["t_hat"] += 10 * r["stderr_t"]
    r["t_error"] += 10 * r["stderr_t"]


def _fail_pixel(results):
    results[3].update({k: None for k in results[3] if k not in ("row", "col")}, status="boom")


@pytest.mark.parametrize("corrupt", [_halve_stderrs, _one_extreme_pixel, _fail_pixel])
def test_image_shots_rejects(outputs, corrupt):
    case, out = outputs["image-shots"]
    assert case.check(case, _edit_json(out, corrupt))


@pytest.mark.parametrize(
    "column, delta",
    [("offset_raw", 1e-6), ("modulation_amplitude", -1e-6), ("no_click", 1e-6), ("ppt_min_eigenvalue", 1e-3)],
)
def test_werner_rejects(outputs, column, delta):
    case, out = outputs["werner"]
    col = W.WERNER_HEADER.index(column)

    def edit(rows):
        rows[1][col] = repr(float(rows[1][col]) + delta)

    assert case.check(case, _edit_csv(out, edit))


def _sweep_edit(index, column, value):
    def edit(rows):
        rows[index][W.SWEEP_HEADER.index(column)] = value(rows[index][W.SWEEP_HEADER.index(column)])

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _sweep_edit(10, "p_h", lambda v: repr(float(v) + 0.05)),  # outside the binomial bound
        _sweep_edit(10, "p_g", lambda v: repr(float(v) + 1e-5)),  # p_h + p_g != 1
        _sweep_edit(-1, "t_hat", lambda v: repr(float(v) + 0.01)),  # estimate far from T
        _sweep_edit(-1, "stderr_gamma", lambda v: repr(2 * float(v))),  # miscalibrated error
    ],
)
def test_sweep_rejects(outputs, edit):
    case, out = outputs["sweep-dense"]
    assert case.check(case, _edit_csv(out, edit))


def test_changed_byte_fails_the_call(outputs):
    case, out = outputs["werner"]
    ledger = run.Ledger(case)
    assert ledger.judge(run.Call(1.0, 0, 0, out, b""))
    assert ledger.judge(run.Call(1.0, 0, 0, out, b""))
    changed = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
    assert not ledger.judge(run.Call(1.0, 0, 0, changed, b""))
    assert not ledger.judge(run.Call(1.0, 1, 0, out, b""))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (4, 2, False)


def test_self_time_counts_pool_threads():
    # image_scan on thread 1 spans [0, 10]; its children run on pool threads 2 and 3
    spans = [
        (0, "tomography.image_scan", None, 1, 0.0, 10.0),
        (1, "circuit.run_pipeline", 0, 2, 1.0, 4.0),
        (2, "circuit.run_pipeline", 0, 2, 5.0, 9.0),
        (3, "circuit.run_pipeline", 0, 3, 1.0, 9.0),
        (4, "qcore.embed", 3, 3, 2.0, 3.0),
    ]
    stats = run.layer_stats(spans)
    # own thread: 10 - 8 covered by the pool window; thread 2 has a 1 s gap
    assert stats["tomography.image_scan"] == [1, 10.0, 3.0]
    assert stats["circuit.run_pipeline"] == [3, 15.0, 14.0]
    assert stats["qcore.embed"] == [1, 1.0, 1.0]
    assert stats["cli.main"] == [0, 0.0, 0.0]
