"""Bounded memory of the output and readout paths.

The table writer streams the header, blocks of rows and the tail; its
bytes must be those of the whole table joined at once, the reference
below.  The engine builds its readout products a block of (setting,
operator) rows at a time, and the sampler and the estimator take blocks of
rows; every block holds about ``qcore._BLOCK_ENTRIES`` entries, however
wide its rows are.
"""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import uqi
from uqi import qcore
from uqi.circuit import measurement_stack, pipeline_stages, prepare_probe, run_batch, sample_frequencies
from uqi.cli import _csv_column, _write_output
from uqi.qcore import _block_rows
from uqi.tomography import ImageMaps, _fit, _phase_design, image_scan

B = 1024  # rows per block of the nine columns of _table, under the budget the test sets


def reference_text(names, columns, config, seed, fmt) -> str:
    """The whole table as one string, joined at once."""
    if fmt == "json":
        doc = {
            "config": config,
            "results": [dict(zip(names, row)) for row in zip(*columns)],
            "metadata": {"version": uqi.__version__, "seed": seed},
        }
        return json.dumps(doc, indent=2) + "\n"
    cells = [_csv_column(col) for col in columns]
    return "\n".join([",".join(names), *map(",".join, zip(*cells))]) + "\n"


FINITE = [0.5, -0.0, 0.0, 5e-324, 1e16, 1e-7, 1 / 3, -2.5e300, 123456789.0, 1.7976931348623157e308]
NON_FINITE = [math.nan, math.inf, -math.inf, None]
INTS = [0, 1, -1, 7, 2**63, -(2**70)]
STRINGS = [
    "", "plain", 'say "hi"', "back\\slash", "tab\there", "new\nline", "\x00\x1f\x7f",
    "café", "Ω≈", "\U0001f600 astral", "comma,cell", "%s %d %%",
]


def _table(n: int, seed: int):
    """Columns of n rows, each value type in its own column and all mixed in one."""
    rng = np.random.default_rng(seed)

    def draw(pool):
        return [pool[i] for i in rng.integers(len(pool), size=n)]

    late_inf = draw(FINITE)  # finite floats but for the last row: one block types differently
    flags = [None] * n  # booleans only in some blocks
    if n:
        late_inf[-1] = math.inf
        flags[-1] = True
        flags[0] = False
    columns = [
        list(range(n)),
        draw(INTS),
        draw(FINITE),
        draw(FINITE + NON_FINITE),
        late_inf,
        flags,
        draw([True, False, None]),
        draw(STRINGS),
        draw(INTS + FINITE + NON_FINITE + STRINGS + [np.float64(0.1)]),
    ]
    names = ("row", "int", "x", "y", "late_inf", "flags", "bools", "text", 'mixed "%s" ü')
    return names, columns


# a command's own settings; the writer adds the command first and the format last
CONFIG = {"phi": [0.0, 1.5], "note": '"results": [] %s', "nested": {"a": [1, None]}}


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_table_equals_whole_table(tmp_path, capsys, monkeypatch, fmt, n):
    monkeypatch.setattr(qcore, "_BLOCK_ENTRIES", 9 * B)
    names, columns = _table(n, seed=n)
    assert _block_rows(len(columns)) == B
    want = reference_text(names, columns, {"command": "test", **CONFIG, "format": fmt}, 5, fmt)
    _write_output(names, columns, CONFIG, SimpleNamespace(command="test", format=fmt, out=None, seed=5))
    assert capsys.readouterr().out == want
    out = tmp_path / f"table.{fmt}"
    _write_output(names, columns, CONFIG, SimpleNamespace(command="test", format=fmt, out=str(out), seed=5))
    assert out.read_bytes() == want.encode("utf-8")


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_does_not_grow_with_the_table(tmp_path, fmt):
    # an image-like table of 100,000 rows: the whole text would take 25-200 MB
    n = 100_000
    rng = np.random.default_rng(11)
    values = rng.uniform(-1.0, 1.0, (6, n))
    values[1, ::17] = np.nan
    floats = [np.where(np.isnan(v), None, v).tolist() for v in values]
    degenerate = np.where(np.isnan(values[1]), None, values[0] < 0).tolist()
    status = ["" if v is not None else "pixel failed" for v in floats[1]]
    columns = [list(range(n)), list(range(n)), *floats[:4], degenerate, *floats[4:], status]
    names = tuple(f"c{i}" for i in range(len(columns)))
    args = SimpleNamespace(command="image", format=fmt, out=str(tmp_path / "table"), seed=1)
    _write_output(names[:1], columns[:1], {}, args)  # imports json outside the traced call
    peak = _traced_peak(lambda: _write_output(names, columns, {}, args))
    assert peak < 4 * 2**20, peak
    assert (tmp_path / "table").stat().st_size > 100 * n


def test_run_batch_memory_does_not_grow_with_the_readout_stack():
    # 64 settings x 8192 operators: one (64, 8192, 16) complex product would take 134 MB
    rng = np.random.default_rng(2)
    t, gamma = rng.uniform(0.0, 1.0, 64), rng.uniform(-3.0, 3.0, 64)
    readout = measurement_stack(np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
    probe = prepare_probe()
    run_batch(probe, t[:1], gamma[:1], readout[:1])  # warm the caches
    batch = None

    def call():
        nonlocal batch
        batch = run_batch(probe, t, gamma, readout)

    peak = _traced_peak(call)
    assert batch.values.shape == (64, 4096, 2)  # 4 MB of results
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("n, phases", [(1, 4096), (3, 700), (64, 8), (65, 9), (130, 1)])
def test_run_batch_readout_equals_whole_product(n, phases):
    # each value is the same 16-term sum as in one (n, R, 16) product, bit for bit
    rng = np.random.default_rng(n * phases)
    t, gamma = rng.uniform(0.0, 1.0, n), rng.uniform(-3.0, 3.0, n)
    readout = measurement_stack(rng.uniform(0.0, 2.0 * np.pi, phases))
    signal = pipeline_stages(prepare_probe(), t, gamma).signal
    flat = readout.reshape(-1, 16)
    want = (flat[None] * signal.swapaxes(1, 2).reshape(n, 1, 16)).sum(axis=-1).real.reshape(n, phases, 2)
    got = run_batch(prepare_probe(), t, gamma, readout).values
    assert np.array_equal(got, want)


def test_fit_memory_does_not_grow_with_the_phases():
    # 4096 sweeps x 1024 phases with shots: one (4096, 2, 2, 1024) covariance
    # product would take 128 MB, while the results take 160 kB and a block of
    # 16 sweeps 0.5 MB
    phis = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    design = _phase_design(phis)
    ps = np.random.default_rng(4).uniform(0.05, 0.95, (4096, 1024))
    fit = None

    def call():
        nonlocal fit
        fit = _fit(*design, ps, 100)

    peak = _traced_peak(call)
    assert peak < 4 * 2**20, peak
    rows = _block_rows(1024)
    for i in (0, rows - 1, rows, 4095):  # a row's estimate is the one it gets alone
        alone = _fit(*design, ps[i:i + 1], 100)
        assert all(np.array_equal(fit[key][i:i + 1], alone[key], equal_nan=True) for key in alone), i


@pytest.mark.parametrize("n, shots, bound", [(32, 0, 1.5), (16, 100, 3.0)])
def test_image_scan_samples_and_fits_its_readouts_in_place(n, shots, bound):
    # n x n pixels x 1024 phases of readouts take 8 n**2 kB. An analytic scan
    # holds them once, and a shot scan once more as frequencies; each copy of
    # them, such as a gather of the live pixels' rows, would add one more
    rng = np.random.default_rng(8)
    maps = ImageMaps(rng.uniform(0.0, 1.0, (n, n)), rng.uniform(-3.0, 3.0, (n, n)))
    phis = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    image_scan(maps, phis[:3], shots=1)  # imports numpy.random and the engine's modules outside the traced call
    peak = _traced_peak(lambda: image_scan(maps, phis, shots=shots, seed=2))
    assert peak < bound * n * n * 1024 * 8, peak / (n * n * 1024 * 8)


def test_sampler_memory_does_not_grow_with_the_phases():
    # 1024 rows x 1024 draws: the result takes 8 MB, and the sampler draws into
    # it; one block of all rows as Python lists, with a clipped copy and a
    # count array, took 57 MB
    rng = np.random.default_rng(6)
    p, keys = rng.uniform(0.0, 1.0, (1024, 1024)), np.arange(1024)[:, None]
    sample_frequencies(p[:1], 100, 9, keys[:1])  # imports numpy.random outside the traced call
    out = None

    def call():
        nonlocal out
        out = sample_frequencies(p, 100, 9, keys)

    peak = _traced_peak(call)
    assert peak < 12 * 2**20, peak
    rows = _block_rows(1024)
    for r in (0, rows - 1, rows, 1023):
        assert np.array_equal(out[r], np.random.default_rng([9, r]).binomial(100, p[r]) / 100), r
