"""Byte-identity of CLI output on a fixed golden set.

Each case runs ``uqi.cli.main`` and compares stdout byte for byte with
``tests/golden/<name>.out``, written by the same argument vectors on a
known-good commit.  The runs at scale are pinned by the sha256 of their
stdout instead of a multi-MB file.  A change that alters any of them
changes the determinism contract and must say so.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uqi
from uqi.cli import main

GOLDEN = Path(__file__).parent / "golden"
MAPS = ("--t-map", str(GOLDEN / "t_map.csv"), "--gamma-map", str(GOLDEN / "gamma_map.csv"))

CASES = {
    "probabilities-shots": (
        "probabilities", "--T", "0.3,0.8", "--gamma", "0.5,-2.0", "--phi-points", "3",
        "--shots", "500", "--seed", "11",
    ),
    "sweep-shots": (
        "sweep", "--T", "0.7", "--gamma", "1.2", "--phi-points", "8", "--shots", "2000",
        "--seed", "5", "--format", "json",
    ),
    "probabilities-analytic": ("probabilities", "--T", "0.3,0.8", "--gamma", "0.5", "--phi-points", "3"),
    "sweep-two-point": ("sweep", "--T", "0.7", "--gamma", "1.2", "--phi", "0,1.5707963267948966"),
    "image-analytic": ("image", *MAPS),
    "image-shots": ("image", *MAPS, "--shots", "1000", "--seed", "3"),
    "werner": ("werner",),
    "werner-json": ("werner", "--T", "0.8", "--xi", "0,0.3,0.6666666666666666,1", "--format", "json"),
    "probe": ("probe",),
    "chi": ("chi", "--T", "0.6", "--gamma", "0.3"),
    "schmidt": ("schmidt", "--format", "json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


SCALE_SIDE = 64


def _write_scale_maps(tmp_path):
    """Seeded 64x64 maps with a row of T = 0 (degenerate) and a row of T = 1 pixels."""
    rng = np.random.default_rng(64)
    t = rng.uniform(0.0, 1.0, size=(SCALE_SIDE, SCALE_SIDE))
    t[0], t[1] = 0.0, 1.0
    gamma = rng.uniform(-np.pi, np.pi, size=(SCALE_SIDE, SCALE_SIDE))
    paths = []
    for name, grid in (("t_map.csv", t), ("gamma_map.csv", gamma)):
        path = tmp_path / name
        path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in grid), encoding="utf-8")
        paths.append(str(path))
    return "--t-map", paths[0], "--gamma-map", paths[1]


def _scale_xis() -> str:
    """61 seeded xi in [0, 1], unsorted, with 0, the separability bound 2/3 and 1 among them."""
    inner = np.random.default_rng(61).uniform(0.0, 1.0, size=58).tolist()
    xis = inner[:20] + [0.0] + inner[20:40] + [2.0 / 3.0] + inner[40:] + [1.0]
    return ",".join(map(repr, xis))


# sha256 of stdout, written by the argument vectors on a known-good commit
SCALE_CASES = {
    "image-shots-64x64": (
        lambda tmp_path: ("image", *_write_scale_maps(tmp_path), "--shots", "10000", "--seed", "17"),
        "80daad03891546529bd8a4f082d19e8efc3bcf00eca4edd74d57e289294290b1",
    ),
    "sweep-4096-phases": (
        lambda tmp_path: (
            "sweep", "--T", "0.8", "--gamma", "0.5", "--phi-points", "4096",
            "--shots", "100000", "--seed", "601",
        ),
        "25fef0449ab531667d283fb1f5c1e0f946bb789b0df3ecbda68ce03926e69aec",
    ),
    # 61 xi x 24 gamma settings: engine passes straddle the xi boundaries
    "werner-61-xi": (
        lambda tmp_path: ("werner", "--xi", _scale_xis(), "--T", "0.83"),
        "d0bc08398213a1bd823a043b07512ce170c5540247bfacd23ee64d3d6c9bdabf",
    ),
}


@pytest.mark.parametrize("name", sorted(SCALE_CASES))
def test_cli_output_at_scale_matches_pinned_hash(tmp_path, capsys, name):
    argv, digest = SCALE_CASES[name]
    assert main(list(argv(tmp_path))) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# numpy's AVX2 dispatch, as on an x86-64 runner without AVX-512, beside each of
# OpenBLAS's FMA kernels for such a runner: Haswell and Zen
AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# runs each argument list of stdin's JSON through cli.main and prints one JSON list of [code, stdout]
_CHILD = """
import contextlib, io, json, sys
from uqi.cli import main
runs = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    runs.append([code, out.getvalue()])
json.dump(runs, sys.stdout)
"""


def _has_avx2() -> bool:
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    return platform.machine().lower() in ("x86_64", "amd64") and features.get("X86_V3", False)


def _child_env(setup: dict) -> dict:
    """A child's environment: this process's with the variables of ``setup``, and OpenBLAS reporting the core it
    loads."""
    return {**os.environ, **setup, "OPENBLAS_VERBOSE": "2", "PYTHONPATH": str(Path(uqi.__file__).parents[1])}


def _kernel(name: str) -> dict:
    """The setup of OpenBLAS's ``name`` kernel with numpy's AVX2 dispatch."""
    return {**AVX2, "OPENBLAS_CORETYPE": name}


def _loaded_core(stderr: str) -> str | None:
    """The core OpenBLAS reports loading (``Core: Haswell``), or None where it reports none."""
    found = re.search(r"^Core: (\S+)", stderr, re.MULTILINE)
    return found and found.group(1)


def _openblas_core(kernel: str) -> str | None:
    """The core OpenBLAS loads in a child process asked for ``kernel``."""
    proc = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=_child_env(_kernel(kernel)), capture_output=True, text=True,
        check=True,
    )
    return _loaded_core(proc.stderr)


def _golden_cases_differ(setup: dict, tmp_path) -> tuple[str | None, list]:
    """Every golden case in one child process under the environment variables ``setup``: the core the child loaded
    and the names of the cases whose exit code or output differ."""
    argvs = {name: list(argv) for name, argv in CASES.items()}
    argvs.update((name, list(argv(tmp_path))) for name, (argv, _) in SCALE_CASES.items())
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(list(argvs.values())), env=_child_env(setup),
        capture_output=True, text=True, check=True,
    )
    differ = []
    for name, (code, out) in zip(argvs, json.loads(proc.stdout)):
        if name in CASES:
            same = out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
        else:
            same = hashlib.sha256(out.encode("utf-8")).hexdigest() == SCALE_CASES[name][1]
        if code != 0 or not same:
            differ.append(name)
    return _loaded_core(proc.stderr), differ


@pytest.mark.skipif(not _has_avx2(), reason="the FMA kernels and the AVX2 targets need an x86-64 CPU with AVX2")
def test_golden_bytes_hold_under_haswell_kernel_and_avx2_dispatch(tmp_path):
    # the variables are set in the child process only; every case runs in one process
    core, differ = _golden_cases_differ(_kernel("Haswell"), tmp_path)
    assert differ == [], f"OpenBLAS core {core}"


@pytest.mark.skipif(not _has_avx2(), reason="the FMA kernels and the AVX2 targets need an x86-64 CPU with AVX2")
def test_golden_bytes_hold_under_zen_kernel_and_avx2_dispatch(tmp_path):
    # some OpenBLAS builds load their Haswell kernels for OPENBLAS_CORETYPE=Zen: that core is checked above
    core = _openblas_core("Zen")
    if core is not None and core == _openblas_core("Haswell"):
        pytest.skip(f"OPENBLAS_CORETYPE=Zen loads the {core} core here, which the Haswell test checks")
    core, differ = _golden_cases_differ(_kernel("Zen"), tmp_path)
    assert differ == [], f"OpenBLAS core {core}"


def test_golden_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # one OpenBLAS thread on the default kernel and dispatch: no step may split a BLAS call across threads
    core, differ = _golden_cases_differ({"OPENBLAS_NUM_THREADS": "1"}, tmp_path)
    assert differ == [], f"OpenBLAS core {core}"
