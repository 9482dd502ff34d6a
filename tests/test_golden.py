"""Byte-identity of CLI output on a fixed golden set.

Each case runs ``uqi.cli.main`` and compares stdout byte for byte with
``tests/golden/<name>.out``, written by the same argument vectors on a
known-good commit.  A change that alters any of them changes the
determinism contract and must say so.
"""

from pathlib import Path

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
    "image-analytic": ("image", *MAPS),
    "image-shots": ("image", *MAPS, "--shots", "1000", "--seed", "3"),
    "werner": ("werner",),
    "probe": ("probe",),
    "chi": ("chi", "--T", "0.6", "--gamma", "0.3"),
    "schmidt": ("schmidt", "--format", "json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")

