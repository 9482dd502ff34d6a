"""Byte-identity of CLI output on a fixed golden set.

Each case runs ``uqi.cli.main`` and compares stdout byte for byte with
``tests/golden/<name>.out``, written by the same argument vectors on a
known-good commit.  The runs at scale are pinned by the sha256 of their
stdout instead of a multi-MB file.  A change that alters any of them
changes the determinism contract and must say so.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

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
        "083307e0a2c4d8ea06712faf0335c796eee6b4645c9158e938495b728bff6624",
    ),
    "sweep-4096-phases": (
        lambda tmp_path: (
            "sweep", "--T", "0.8", "--gamma", "0.5", "--phi-points", "4096",
            "--shots", "100000", "--seed", "601",
        ),
        "8807a7cf82df6995d375393a11143976c91808e75f8efaa3f63b72f9f9c48c0c",
    ),
    # 61 xi x 24 gamma settings: engine passes straddle the xi boundaries
    "werner-61-xi": (
        lambda tmp_path: ("werner", "--xi", _scale_xis(), "--T", "0.83"),
        "e0a1ec8de7e8c22a388feea7d221f766c23ab9ec5eeb75201dee1816609707c2",
    ),
}


@pytest.mark.parametrize("name", sorted(SCALE_CASES))
def test_cli_output_at_scale_matches_pinned_hash(tmp_path, capsys, name):
    argv, digest = SCALE_CASES[name]
    assert main(list(argv(tmp_path))) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
