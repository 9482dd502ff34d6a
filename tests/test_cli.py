import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uqi
from conftest import fail_second_setting
from uqi.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.split("\n") if l != ""]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_cli_import_does_not_load_numpy_random():
    # every command would pay these at start-up: numpy.random costs 11-15 ms
    # (the shot sampler imports it on first use), dataclasses about 1 ms per
    # frozen class it builds, and json is needed only for --format json
    env = {**os.environ, "PYTHONPATH": str(Path(uqi.__file__).parents[1])}
    code = (
        "import uqi.cli, sys\n"
        "loaded = {'numpy.random', 'dataclasses', 'json'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_runs_do_not_load_numpy_ma(tmp_path):
    # numpy.ma costs about 15 ms to import; np.unique, for one, pulls it in
    np.savetxt(tmp_path / "t.csv", np.full((2, 2), 0.5), delimiter=",")
    np.savetxt(tmp_path / "g.csv", np.zeros((2, 2)), delimiter=",")
    env = {**os.environ, "PYTHONPATH": str(Path(uqi.__file__).parents[1])}
    code = (
        "import contextlib, io, sys\n"
        "from uqi.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "if '--format' in sys.argv:\n"
        "    import json\n"
        "    assert json.loads(out.getvalue())['results']\n"
        "else:\n"
        "    assert 'json' not in sys.modules\n"
    )
    image = ["image", "--t-map", str(tmp_path / "t.csv"), "--gamma-map", str(tmp_path / "g.csv")]
    for argv in (
        image,
        [*image, "--format", "json"],
        ["sweep", "--T", "0.8", "--gamma", "0.5"],
        ["sweep", "--T", "0.8", "--gamma", "0.5", "--shots", "1000"],
    ):
        subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True)


def test_probabilities_reference_points(capsys):
    code, out, _ = run_cli(capsys, "probabilities", "--T", "1", "--gamma", "0", "--phi", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["p_h"]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[0]["p_g"]) == pytest.approx(1.0, abs=1e-12)

    code, out, _ = run_cli(capsys, "probabilities", "--T", "0", "--phi", "0")
    _, rows = parse_csv(out)
    assert float(rows[0]["p_h"]) == pytest.approx(0.5, abs=1e-12)

    code, out, _ = run_cli(
        capsys, "probabilities", "--T", "0.8", "--gamma", "1.0471975512", "--phi", "0"
    )
    _, rows = parse_csv(out)
    assert float(rows[0]["p_h"]) == pytest.approx(0.3, abs=1e-9)


def test_probabilities_grid_and_degrees(capsys):
    code, out, _ = run_cli(
        capsys, "probabilities", "--T", "0.5,1.0", "--gamma", "60", "--phi", "0,90",
        "--degrees",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 4
    # gamma echoed in radians
    assert float(rows[0]["gamma"]) == pytest.approx(np.pi / 3, abs=1e-9)
    assert float(rows[0]["p_h"]) == pytest.approx(0.5 * (1 - 0.5 * np.cos(np.pi / 3)), abs=1e-9)


def test_csv_and_json_carry_identical_values(capsys):
    args = ["sweep", "--T", "0.8", "--gamma", "0.5", "--phi-points", "6", "--shots", "1000"]
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    _, rows = parse_csv(out_csv)
    doc = json.loads(out_json)
    assert doc["metadata"]["seed"] == 42
    assert len(doc["results"]) == len(rows)
    for rec, row in zip(doc["results"], rows):
        for key, val in rec.items():
            cell = row[key]
            if val is None:
                assert cell == ""
            elif isinstance(val, bool):
                assert cell == ("true" if val else "false")
            elif isinstance(val, (int, float)) and not isinstance(val, bool):
                assert float(cell) == val
            else:
                assert cell == str(val)


def test_byte_identical_reruns(capsys):
    args = ["probabilities", "--T", "0.4", "--gamma", "0.3", "--phi-points", "5",
            "--shots", "2000", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args_json = args + ["--format", "json"]
    _, out3, _ = run_cli(capsys, *args_json)
    _, out4, _ = run_cli(capsys, *args_json)
    assert out3 == out4


def test_sweep_analytic_footer_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--T", "0.8", "--gamma", "1.0471975511965976", "--phi-points", "12"
    )
    assert code == 0
    _, rows = parse_csv(out)
    samples = [r for r in rows if r["record"] == "sample"]
    est = [r for r in rows if r["record"] == "estimate"]
    assert len(samples) == 12
    assert len(est) == 1
    assert float(est[0]["t_hat"]) == pytest.approx(0.8, abs=1e-12)
    assert float(est[0]["gamma_hat"]) == pytest.approx(np.pi / 3, abs=1e-12)
    assert est[0]["method"] == "least-squares"
    assert est[0]["degenerate"] == "false"
    assert est[0]["stderr_t"] == ""


def test_sweep_degenerate_footer(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--T", "0", "--phi-points", "8")
    assert code == 0
    _, rows = parse_csv(out)
    est = [r for r in rows if r["record"] == "estimate"][0]
    assert est["degenerate"] == "true"
    assert est["gamma_hat"] == ""


def test_sweep_shot_mode_footer_has_stderr(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--T", "0.6", "--gamma", "-1.0", "--phi-points", "12",
        "--shots", "100000",
    )
    assert code == 0
    _, rows = parse_csv(out)
    est = [r for r in rows if r["record"] == "estimate"][0]
    assert abs(float(est["t_hat"]) - 0.6) < 0.02
    assert abs(float(est["gamma_hat"]) + 1.0) < 0.04
    assert float(est["stderr_t"]) > 0
    assert float(est["stderr_gamma"]) > 0


def test_sweep_two_point_default_for_two_phases(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--T", "0.5", "--gamma", "0.2", "--phi", "0,1.5707963267948966")
    assert code == 0
    _, rows = parse_csv(out)
    est = [r for r in rows if r["record"] == "estimate"][0]
    assert est["method"] == "two-point"
    assert float(est["t_hat"]) == pytest.approx(0.5, abs=1e-12)


def test_werner_table(capsys):
    code, out, _ = run_cli(capsys, "werner", "--T", "0.8", "--xi", "0,0.5,0.6666666666666666,0.75,1")
    assert code == 0
    _, rows = parse_csv(out)
    amps = {float(r["xi"]): float(r["modulation_amplitude"]) for r in rows}
    assert amps[0.0] == pytest.approx(0.8, abs=1e-12)
    assert amps[0.5] == pytest.approx(0.4, abs=1e-12)
    assert amps[1.0] == pytest.approx(0.0, abs=1e-12)
    assert amps[0.75] == pytest.approx(0.2, abs=1e-12)  # image persists when separable
    ppt = {float(r["xi"]): float(r["ppt_min_eigenvalue"]) for r in rows}
    assert ppt[0.0] < -1e-6
    assert ppt[0.5] < -1e-6
    assert abs(ppt[2 / 3]) < 1e-9
    assert ppt[0.75] > -1e-10
    # offsets are reported for comparison, not asserted against any formula
    assert "offset_raw" in rows[0] and "offset_conditioned" in rows[0]


def test_werner_default_transmission_is_unity(capsys):
    code, out, _ = run_cli(capsys, "werner", "--xi", "0,1")
    assert code == 0
    _, rows = parse_csv(out)
    amps = {float(r["xi"]): float(r["modulation_amplitude"]) for r in rows}
    assert amps[0.0] == pytest.approx(1.0, abs=1e-12)
    assert amps[1.0] == pytest.approx(0.0, abs=1e-12)


def test_werner_rejects_bad_xi(capsys):
    code, out, err = run_cli(capsys, "werner", "--xi", "0,1.5")
    assert code == 2
    assert out == ""
    assert err == "uqi: xi must lie in [0, 1], got 1.5\n"


def test_chi_identity_single_entry(capsys):
    code, out, _ = run_cli(capsys, "chi", "--T", "1", "--gamma", "0")
    assert code == 0
    _, rows = parse_csv(out)
    nonzero = [
        r for r in rows if abs(float(r["re"])) > 1e-12 or abs(float(r["im"])) > 1e-12
    ]
    assert len(nonzero) == 1
    assert nonzero[0]["row"] == "0" and nonzero[0]["col"] == "0"
    assert float(nonzero[0]["re"]) == pytest.approx(2.0, abs=1e-12)


def test_probe_dump_has_four_entries_of_half(capsys):
    code, out, _ = run_cli(capsys, "probe")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 256
    nonzero = [
        r for r in rows if abs(float(r["re"])) > 1e-12 or abs(float(r["im"])) > 1e-12
    ]
    assert len(nonzero) == 4
    for r in nonzero:
        assert abs(float(r["re"])) == pytest.approx(0.5, abs=1e-12)


def test_schmidt_dump_coefficients(capsys):
    code, out, _ = run_cli(capsys, "schmidt", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    coeffs = [r for r in doc["results"] if r["kind"] == "coeff"]
    assert len(coeffs) == 4
    assert all(abs(c["re"] - 0.5) < 1e-12 for c in coeffs)
    assert all(c["hermitian"] for c in coeffs)


def test_image_analytic_reconstruction(tmp_path, capsys):
    rng = np.random.default_rng(4)
    t_map = rng.uniform(0.2, 1.0, size=(4, 3)).round(6)
    g_map = rng.uniform(-3.0, 3.0, size=(4, 3)).round(6)
    t_file = tmp_path / "t.csv"
    g_file = tmp_path / "g.csv"
    np.savetxt(t_file, t_map, delimiter=",")
    np.savetxt(g_file, g_map, delimiter=",")
    code, out, _ = run_cli(
        capsys, "image", "--t-map", str(t_file), "--gamma-map", str(g_file),
        "--phi", "0,1.5707963267948966",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 12
    for r in rows:
        i, j = int(r["row"]), int(r["col"])
        assert float(r["t_hat"]) == pytest.approx(t_map[i, j], abs=1e-12)
        assert float(r["gamma_hat"]) == pytest.approx(g_map[i, j], abs=1e-12)
        assert abs(float(r["t_error"])) < 1e-12
        assert abs(float(r["gamma_error"])) < 1e-12
        assert r["status"] == ""


def test_image_opaque_map_all_degenerate(tmp_path, capsys):
    t_file = tmp_path / "t.csv"
    g_file = tmp_path / "g.csv"
    np.savetxt(t_file, np.zeros((2, 2)), delimiter=",")
    np.savetxt(g_file, np.zeros((2, 2)), delimiter=",")
    code, out, _ = run_cli(
        capsys, "image", "--t-map", str(t_file), "--gamma-map", str(g_file),
        "--phi", "0,1.5707963267948966",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert all(r["degenerate"] == "true" for r in rows)
    assert all(r["gamma_hat"] == "" for r in rows)


def test_image_shape_mismatch_is_config_error(tmp_path, capsys):
    t_file = tmp_path / "t.csv"
    g_file = tmp_path / "g.csv"
    np.savetxt(t_file, np.full((2, 2), 0.5), delimiter=",")
    np.savetxt(g_file, np.zeros((3, 2)), delimiter=",")
    code, _, err = run_cli(
        capsys, "image", "--t-map", str(t_file), "--gamma-map", str(g_file),
    )
    assert code == 2
    assert "shape" in err


def test_image_missing_file_is_io_error(tmp_path, capsys):
    g_file = tmp_path / "g.csv"
    np.savetxt(g_file, np.zeros((2, 2)), delimiter=",")
    code, _, err = run_cli(
        capsys, "image", "--t-map", str(tmp_path / "missing.csv"), "--gamma-map", str(g_file),
    )
    assert code == 3
    assert err != ""


def test_image_unparseable_map_is_config_error(tmp_path, capsys):
    t_file = tmp_path / "t.csv"
    g_file = tmp_path / "g.csv"
    t_file.write_text("0.5,abc\n0.1,0.2\n")
    np.savetxt(g_file, np.zeros((2, 2)), delimiter=",")
    code, _, err = run_cli(
        capsys, "image", "--t-map", str(t_file), "--gamma-map", str(g_file),
    )
    assert code == 2


def test_out_file_and_unwritable_path(tmp_path, capsys):
    out_file = tmp_path / "res.csv"
    code, out, _ = run_cli(
        capsys, "probabilities", "--T", "1", "--phi", "0", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    assert out_file.read_text().startswith("t,gamma,phi,p_h,p_g\n")
    # writing to a directory path fails with the I/O exit code
    code, _, err = run_cli(
        capsys, "probabilities", "--T", "1", "--phi", "0", "--out", str(tmp_path)
    )
    assert code == 3


def test_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(capsys, "probabilities", "--T", "1.4", "--phi", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "probabilities", "--T", "0.5", "--shots", "-5")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--T", "0.5", "--phi", "0")
    assert code == 2
    code, _, err = run_cli(
        capsys, "sweep", "--T", "0.5", "--phi", "0,1", "--phi-points", "4"
    )
    assert code == 2
    # two distinct phases modulo 2 pi leave one quadrature unidentifiable
    for phi in ("0,3.141592653589793,0", "0,6.283185307179586,1"):
        code, out, err = run_cli(capsys, "sweep", "--T", "0.8", "--gamma", "1", "--phi", phi)
        assert (code, out) == (2, "")
        assert err.startswith("uqi: least-squares inversion needs three distinct phases")
    # a non-finite measurement phase, also after the --degrees conversion
    np.savetxt(tmp_path / "t.csv", np.full((2, 2), 0.5), delimiter=",")
    np.savetxt(tmp_path / "g.csv", np.zeros((2, 2)), delimiter=",")
    maps = ("--t-map", str(tmp_path / "t.csv"), "--gamma-map", str(tmp_path / "g.csv"))
    for argv in (
        ("probabilities", "--T", "0.5", "--phi", "nan"),
        ("sweep", "--T", "0.5", "--phi", "inf,0"),
        ("sweep", "--T", "0.5", "--phi", "inf,0,1"),
        ("sweep", "--T", "0.5", "--phi=-inf,0,1", "--degrees"),
        ("image", *maps, "--phi", "nan,0,1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("uqi: measurement phase must be finite")
    # numpy's binomial cannot take 2**63 shots or more; the bound is checked
    # before the engine runs
    def no_work(*args, **kwargs):
        raise AssertionError("the engine ran before the shot count was checked")

    with monkeypatch.context() as patch:
        patch.setattr("uqi.cli.image_scan", no_work)
        patch.setattr("uqi.cli.run_batch", no_work)
        for argv in (
            ("sweep", "--T", "0.5", "--phi", "0,1,2"),
            ("probabilities", "--T", "0.5", "--phi", "0"),
            ("image", *maps),
        ):
            for shots in (2**63, 2**70):
                code, out, err = run_cli(capsys, *argv, "--shots", str(shots))
                assert (code, out, err) == (2, "", f"uqi: shots must be below 2**63, got {shots}\n")
    # phases equal after rounding to 12 digits are one setting
    code, out, err = run_cli(capsys, "sweep", "--T", "0.5", "--phi", "0,1e-13,0")
    assert (code, out, err) == (2, "", "uqi: duplicate phase values: cannot invert a single setting\n")


def test_image_per_pixel_failures_exit_nonzero(tmp_path, capsys, monkeypatch):
    # a pixel that fails an engine check is reported in its row beside the
    # pixels that pass; the scan completes and the exit code is 1
    argv = _failing_image_argv(tmp_path, monkeypatch)[0]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    _, rows = parse_csv(out)
    assert [r["status"] for r in rows] == ["", "engine check failed", "", ""]
    failed = rows.pop(1)
    assert [failed[k] for k in ("row", "col")] == ["0", "1"]
    assert all(v == "" for k, v in failed.items() if k not in ("row", "col", "status"))
    assert all(r["t_hat"] != "" and r["degenerate"] == "false" for r in rows)


@pytest.mark.parametrize("command", ["sweep", "image"])
@pytest.mark.parametrize("phis, method, message", [
    ("0,0", "two-point", "duplicate phase values: cannot invert a single setting"),
    ("0,3.141592653589793", "two-point", "phase points pi apart are degenerate for the two-point inversion"),
    ("0,0,1e-13", "auto", "duplicate phase values: cannot invert a single setting"),
], ids=["duplicate", "pi-apart", "rounded-duplicate"])
def test_phase_set_that_cannot_be_inverted_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, phis, method, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the phase set was checked")

    for name in ("uqi.cli.run_batch", "uqi.tomography.run_batch", "uqi.tomography.sample_frequencies"):
        monkeypatch.setattr(name, no_work)
    if command == "sweep":
        argv = ("sweep", "--T", "0.5")
    else:
        np.savetxt(tmp_path / "t.csv", np.full((2, 2), 0.5), delimiter=",")
        np.savetxt(tmp_path / "g.csv", np.zeros((2, 2)), delimiter=",")
        argv = ("image", "--t-map", str(tmp_path / "t.csv"), "--gamma-map", str(tmp_path / "g.csv"))
    code, out, err = run_cli(capsys, *argv, "--phi", phis, "--method", method, "--shots", "100")
    assert (code, out, err) == (2, "", f"uqi: {message}\n")


def test_csv_uses_lf_line_endings(capsys):
    _, out, _ = run_cli(capsys, "probabilities", "--T", "1", "--phi", "0")
    assert "\r" not in out
    assert out.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--T", "0.5", "--gamma", "nan"),
        ("sweep", "--T", "0.5", "--gamma", "inf"),
        ("chi", "--T", "0.5", "--gamma=-inf"),
        ("probabilities", "--T", "0.5", "--gamma", "0,nan", "--phi", "0"),
    ],
)
def test_non_finite_phase_rejected_early(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("uqi: phase must be finite")


def test_image_empty_map_is_config_error(tmp_path, capsys):
    t_file = tmp_path / "t.csv"
    g_file = tmp_path / "g.csv"
    t_file.write_text("")
    g_file.write_text("\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "image", "--t-map", str(t_file), "--gamma-map", str(g_file))
    assert code == 2
    assert out == ""
    assert err == "uqi: maps must not be empty\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("probabilities", "--T", "0.5", "--phi", "0"),
        ("sweep", "--T", "0.5", "--shots", "10"),
        ("image", "--t-map", "t.csv", "--gamma-map", "g.csv"),
    ],
)
def test_negative_seed_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "uqi: seed must be nonnegative, got -1\n"


def _shot_rows(capsys, argv, shots, seed):
    """Analytic and shot-mode sample rows of the same run, in output order."""
    _, exact, _ = run_cli(capsys, *argv)
    _, sampled, _ = run_cli(capsys, *argv, "--shots", str(shots), "--seed", str(seed))
    rows = [parse_csv(text)[1] for text in (exact, sampled)]
    return [[r for r in rs if r.get("record", "sample") == "sample"] for rs in rows]


@pytest.mark.parametrize(
    "argv",
    [
        # record k (settings outer, phases inner) draws from default_rng([seed, k])
        ("probabilities", "--T", "0.2,0.9", "--gamma", "0.4,-1.3", "--phi-points", "3"),
        # phase point k draws from default_rng([seed, k])
        ("sweep", "--T", "0.6", "--gamma", "0.9", "--phi-points", "5"),
    ],
)
def test_shot_streams_follow_record_order(capsys, argv):
    exact, sampled = _shot_rows(capsys, argv, shots=300, seed=7)
    assert len(exact) == len(sampled) == (12 if argv[0] == "probabilities" else 5)
    for k, (e, s) in enumerate(zip(exact, sampled)):
        assert (s["phi"], s.get("t"), s.get("gamma")) == (e["phi"], e.get("t"), e.get("gamma"))
        n_h = np.random.default_rng([7, k]).binomial(300, min(max(float(e["p_h"]), 0.0), 1.0))
        assert float(s["p_h"]) == n_h / 300
        assert float(s["p_g"]) == 1.0 - n_h / 300


_numbers = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1.7e308"]),
    st.floats(-0.5, 1.5).map(repr),
    st.floats(-7.0, 7.0).map(repr),
)
_lists = st.lists(_numbers, min_size=1, max_size=3).map(",".join)


def _shots(top):
    """Shot counts up to ``top``, or at and beyond numpy's 2**63 binomial limit."""
    return st.one_of(st.integers(-3, top), st.sampled_from([2**63, 2**70]))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["probabilities", "sweep"]))
    value = _lists if command == "probabilities" else _numbers
    argv = [command, f"--T={draw(value)}", f"--gamma={draw(value)}"]
    if draw(st.booleans()):
        argv.append(f"--phi={draw(_lists)}")
    if draw(st.booleans()):
        argv.append(f"--phi-points={draw(st.integers(-2, 40))}")
    if draw(st.booleans()):
        argv.append(f"--shots={draw(_shots(3000))}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-2, 2**65))}")
    if draw(st.booleans()):
        argv.append("--degrees")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argvs())
def test_fuzzed_arguments_exit_0_or_2_with_finite_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("uqi: ")
        return
    _, rows = parse_csv(out.getvalue())
    assert rows
    for row in rows:
        for column in ("p_h", "p_g", "t_hat"):
            if row.get(column, "") != "":
                assert math.isfinite(float(row[column])), (argv, row)
    if argv[0] == "sweep":
        assert rows[-1]["record"] == "estimate" and rows[-1]["t_hat"] != ""


_map_cells = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "abc", "", "1e300", "-1.7e308"]),
    st.floats(-0.5, 1.5).map(repr),
    st.floats(-7.0, 7.0).map(repr),
)
_unit = st.floats(0.0, 1.0).map(repr)
_special_maps = st.sampled_from(["", "\n", "missing", "directory", "non-utf8"])


def _grid_text(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _grids(h, w, cells):
    return st.lists(st.lists(cells, min_size=w, max_size=w), min_size=h, max_size=h).map(_grid_text)


def _maps(h, w, good):
    """A valid h x w grid, one with bad cells, a ragged grid, or a special file."""
    ragged = st.lists(st.lists(_map_cells, min_size=1, max_size=3), min_size=2, max_size=3)
    return st.one_of(_grids(h, w, good), _grids(h, w, st.one_of(good, _map_cells)), ragged.map(_grid_text), _special_maps)


@pytest.fixture(scope="module")
def map_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("maps")
    (base / "directory").mkdir()
    (base / "non-utf8").write_bytes(b"0.5,\xff\xfe\n0.5,0.5\n")
    return base


@st.composite
def _other_argvs(draw):
    command = draw(st.sampled_from(["werner", "chi", "image"]))
    if command == "werner":
        argv = ["werner"]
        xis = st.one_of(st.sampled_from(["", ",", "nan,0.5"]), _lists, st.lists(_unit, min_size=1, max_size=3).map(",".join))
        if draw(st.booleans()):
            argv.append(f"--xi={draw(xis)}")
        if draw(st.booleans()):
            argv.append(f"--T={draw(st.one_of(_numbers, _unit))}")
        return argv
    if command == "chi":
        argv = ["chi", f"--T={draw(st.one_of(_numbers, _unit))}"]
        if draw(st.booleans()):
            argv.append(f"--gamma={draw(_numbers)}")
        if draw(st.booleans()):
            argv.append("--degrees")
        return argv
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    t_map = draw(_maps(h, w, _unit))
    gamma_map = draw(_maps(h, w, st.floats(-7.0, 7.0).map(repr)))
    argv = ["image", ("--t-map", t_map), ("--gamma-map", gamma_map)]
    if draw(st.booleans()):
        argv.append(f"--phi={draw(_lists)}")
    if draw(st.booleans()):
        argv.append(f"--phi-points={draw(st.integers(-2, 12))}")
    if draw(st.booleans()):
        argv.append(f"--shots={draw(_shots(2000))}")
    if draw(st.booleans()):
        argv.append(f"--method={draw(st.sampled_from(['auto', 'two-point', 'least-squares']))}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-2, 2**65))}")
    if draw(st.booleans()):
        argv.append("--degrees")
    return argv


def _csv_cell_is_clean(cell: str) -> bool:
    """An empty cell, a flag, or a finite number."""
    if cell in ("", "true", "false"):
        return True
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_other_argvs())
# valid maps with a shot count numpy's binomial cannot take
@example(["image", ("--t-map", "0.5,0.25\n"), ("--gamma-map", "0.1,2.0\n"), f"--shots={2**63}"])
@example(["image", ("--t-map", "0.5,0.25\n"), ("--gamma-map", "0.1,2.0\n"), "--phi=0,1,2", f"--shots={2**70}"])
def test_fuzzed_werner_chi_image_exit_cleanly(map_dir, argv):
    # each map option names a file written here, or a missing path, a directory
    # or a non-UTF-8 file
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, tuple):
            option, content = arg
            if content in ("missing", "directory", "non-utf8"):
                path = map_dir / content
            else:
                path = map_dir / f"{option[2:]}.csv"
                path.write_text(content, encoding="utf-8")
            argv[i] = f"{option}={path}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (2, 3):
        assert out.getvalue() == "" and err.getvalue().startswith("uqi: "), argv
        return
    header, rows = parse_csv(out.getvalue())
    assert rows
    if code == 1:  # image only: every pixel reported, the failed ones with a status
        assert argv[0] == "image" and any(row["status"] for row in rows)
        return
    for row in rows:
        assert all(_csv_cell_is_clean(cell) for cell in row.values()), (argv, row)


# The process boundary.  `python -m uqi.cli` and the `uqi` script run
# `cli.entry`, which ends the process with os._exit, so these tests start a
# fresh process for each run and never call `entry` themselves.
# argparse wraps its help to COLUMNS, or to the terminal's width when unset
PROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(uqi.__file__).parents[1]), "COLUMNS": "80"}


def run_process(*argv, **kwargs):
    """``(exit code, stdout, stderr)`` of ``python -m uqi.cli argv`` in a fresh process."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("env", PROCESS_ENV)
    proc = subprocess.run([sys.executable, "-m", "uqi.cli", *argv], stderr=subprocess.PIPE, **kwargs)
    out = None if proc.stdout is None else proc.stdout.decode("utf-8")
    return proc.returncode, out, proc.stderr.decode("utf-8")


def test_process_output_at_scale_matches_pinned_hash(tmp_path):
    # about 1 MB of stdout must all be flushed before the process ends
    from test_golden import SCALE_CASES

    argv, digest = SCALE_CASES["image-shots-64x64"]
    code, out, err = run_process(*argv(tmp_path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _failing_image_argv(tmp_path, monkeypatch):
    """``(argv, env)`` of a 2x2 image run whose pixel (0, 1) fails an engine check.

    The failure is injected here and, through a ``sitecustomize`` module on
    the returned env's path, in a process started with that env.
    """
    np.savetxt(tmp_path / "t.csv", np.full((2, 2), 0.5), delimiter=",")
    np.savetxt(tmp_path / "g.csv", np.zeros((2, 2)), delimiter=",")
    monkeypatch.setattr("uqi.tomography.run_batch", fail_second_setting(uqi.tomography.run_batch))
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import conftest, uqi.tomography\n"
        "uqi.tomography.run_batch = conftest.fail_second_setting(uqi.tomography.run_batch)\n"
    )
    env = {**PROCESS_ENV, "PYTHONPATH": os.pathsep.join([str(tmp_path), PROCESS_ENV["PYTHONPATH"]])}
    argv = ("image", "--t-map", str(tmp_path / "t.csv"), "--gamma-map", str(tmp_path / "g.csv"))
    return argv, env


@pytest.mark.parametrize("argv, want_code", [
    (("--version",), 0),
    (("-h",), 0),
    (("bogus",), 2),
    (("sweep", "--T", "0.5", "--seed", "-1"), 2),
    (_failing_image_argv, 1),
], ids=["version", "help", "unknown-command", "negative-seed", "failed-pixel"])
def test_process_exit_code_and_streams_match_main(tmp_path, capsys, monkeypatch, argv, want_code):
    # the process writes what main writes in process and exits with its
    # code, or with argparse's for --version, -h and usage errors
    monkeypatch.setenv("COLUMNS", PROCESS_ENV["COLUMNS"])
    env = PROCESS_ENV
    if callable(argv):
        argv, env = argv(tmp_path, monkeypatch)
    try:
        in_process = main(list(argv))
    except SystemExit as exc:
        in_process = exc.code
    captured = capsys.readouterr()
    assert run_process(*argv, env=env) == (want_code, captured.out, captured.err)
    assert in_process == want_code


def test_process_skips_atexit_handlers():
    code = (
        "import atexit, sys\n"
        "from uqi.cli import entry\n"
        "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
        "sys.argv = ['uqi', 'chi', '--T', '1']\n"
        "entry()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=PROCESS_ENV)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"row,col,re,im\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_full_stdout_is_io_error():
    with open("/dev/full", "w") as full:
        code, _, err = run_process("probe", stdout=full)
    assert code == 3
    assert err == "uqi: [Errno 28] No space left on device\n"


def _buffering_env(unbuffered: bool) -> dict:
    env = {k: v for k, v in PROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--version",), ("-h",), ("probe", "-h")], ids=["version", "help", "probe-help"])
def test_process_help_and_version_on_full_stdout_are_io_errors(argv, unbuffered):
    # argparse ignores a failed write of its help and version text
    with open("/dev/full", "w") as full:
        code, _, err = run_process(*argv, stdout=full, env=_buffering_env(unbuffered))
    assert (code, err) == (3, "uqi: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("probe",), ("--version",)], ids=["probe", "version"])
def test_process_full_stdout_and_stderr_is_io_error(argv, unbuffered):
    # the error message cannot be written either: the exit code alone reports it
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "uqi.cli", *argv], stdout=full, stderr=full,
                              env=_buffering_env(unbuffered))
    assert proc.returncode == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_process_out_file_equals_stdout(tmp_path, fmt):
    # 1600 rows, written in two blocks
    rng = np.random.default_rng(40)
    np.savetxt(tmp_path / "t.csv", rng.uniform(0.0, 1.0, (40, 40)), delimiter=",")
    np.savetxt(tmp_path / "g.csv", rng.uniform(-3.0, 3.0, (40, 40)), delimiter=",")
    argv = ("image", "--t-map", str(tmp_path / "t.csv"), "--gamma-map", str(tmp_path / "g.csv"),
            "--shots", "100", "--format", fmt)
    proc = subprocess.run([sys.executable, "-m", "uqi.cli", *argv], capture_output=True, env=PROCESS_ENV)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert run_process(*argv, "--out", str(tmp_path / "table")) == (0, "", "")
    assert (tmp_path / "table").read_bytes() == proc.stdout


def test_process_closed_stdout_is_io_error(tmp_path):
    def closed_stdout(*argv):
        script = 'exec "$0" -m uqi.cli "$@" >&-'
        proc = subprocess.run(["sh", "-c", script, sys.executable, *argv], capture_output=True, env=PROCESS_ENV)
        return proc.returncode, proc.stderr.decode("utf-8")

    assert closed_stdout("probe") == (3, "uqi: standard output is closed\n")
    # argparse would write help and version text to stderr instead
    for argv in (("--version",), ("-h",)):
        assert closed_stdout(*argv) == (3, "uqi: standard output is closed\n")
    # a run that writes its table to --out needs no stdout
    assert closed_stdout("probe", "--out", str(tmp_path / "probe.csv")) == (0, "")
    assert (tmp_path / "probe.csv").read_text().startswith("row,col,re,im\n")
