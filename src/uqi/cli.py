"""Command-line interface: experiment drivers with CSV/JSON output.

Subcommands
-----------
probe          dump the prepared probe state (16x16 density matrix)
chi            dump the object channel's chi matrix for given (T, gamma)
probabilities  detector probabilities over a (T, gamma, phi) grid
sweep          phase sweep at fixed (T, gamma) plus recovered estimate
werner         Werner-probe experiment: modulation, visibility, PPT
image          reconstruct (T, gamma) maps pixel by pixel
schmidt        operator-Schmidt data of the probe across idlers|signals

All randomness is seeded (default seed 42, fixed, never time-based);
identical configuration and seed give byte-identical output.  Angles are
radians unless ``--degrees`` is given, which converts inputs only.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .channels import ObjectParams, chi_matrix, fold_angles, mode_mixer, object_channel
from .circuit import _check_sampler, measurement_stack, prepare_probe, prepare_werner, run_batch, sample_frequencies
from .qcore import partial_transpose
from .tomography import ImageMaps, _phase_design, estimate_object, image_scan, operator_schmidt, visibility

DEFAULT_SEED = 42
_DEG = np.pi / 180.0


class ConfigError(ValueError):
    """Invalid configuration; the process exits with status 2, as for any ValueError."""


def _float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"could not parse {name} list {text!r}") from None
    if not values:
        raise ConfigError(f"{name} list is empty")
    return values


def _resolve_phis(args) -> list[float]:
    if getattr(args, "phi", None) is not None and getattr(args, "phi_points", None) is not None:
        raise ConfigError("give either --phi or --phi-points, not both")
    if getattr(args, "phi", None) is not None:
        phis = _float_list(args.phi, "phi")
        if args.degrees:
            phis = [p * _DEG for p in phis]
        for p in phis:
            if not math.isfinite(p):
                raise ConfigError(f"measurement phase must be finite, got {p}")
        return phis
    n = args.phi_points if getattr(args, "phi_points", None) is not None else args.default_phi_points
    if n < 1:
        raise ConfigError("phi point count must be at least 1")
    return [2.0 * np.pi * k / n for k in range(n)]


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


def _csv_column(values) -> list[str]:
    """The CSV cells of one column of Python values, or of one block of its rows, typed once for all.

    None is an empty cell, booleans are ``true``/``false`` (a column with
    booleans holds nothing else but None), and ``str`` writes the rest: for
    a float, its shortest round-trip repr.
    """
    kinds = set(map(type, values))
    if bool in kinds:
        return ["" if v is None else "true" if v else "false" for v in values]
    if type(None) in kinds:
        return ["" if v is None else str(v) for v in values]
    return list(map(str, values))


def _json_column(values, json) -> list[str]:
    """The JSON texts of one column of Python values, each as ``json.dumps`` writes it."""
    texts = []
    for v in values:
        kind = type(v)
        if kind is float and math.isfinite(v) or kind is int:
            texts.append(repr(v))
        elif kind is str:
            texts.append(json.encoder.encode_basestring_ascii(v))
        elif v is None or kind is bool:
            texts.append("null" if v is None else "true" if v else "false")
        else:
            texts.append(json.dumps(v))
    return texts


def _cells(values: np.ndarray) -> list:
    """The Python values of a float array in row-major order, None where it holds NaN."""
    return np.where(np.isnan(values), None, values).ravel().tolist()


# Rows formatted and written per block: the text in memory stays a few
# hundred kB however long the table is.
_OUTPUT_ROWS = 1024


def _write_table(fh, names, columns, config, args) -> None:
    """Write the table to ``fh``: the header, blocks of :data:`_OUTPUT_ROWS` rows, the tail.

    The bytes are those of the whole table joined at once: for JSON,
    ``json.dumps(doc, indent=2) + "\\n"`` of the document with a
    ``{name: value}`` record per row.
    """
    n = len(columns[0]) if columns else 0
    if args.format == "json":
        import json  # loaded only for JSON output

        meta = {"version": __version__, "seed": getattr(args, "seed", None)}
        frame = json.dumps({"config": config, "results": [], "metadata": meta}, indent=2) + "\n"
        head, tail = frame.split('"results": []')
        # one record's text with a %s per value, keys and layout as json.dumps writes them
        record = "\n    {%s\n    }" % ",".join(
            "\n      %s: %%s" % json.encoder.encode_basestring_ascii(name).replace("%", "%%") for name in names
        )
        fh.write(head + '"results": [')
        for lo in range(0, n, _OUTPUT_ROWS):
            texts = [_json_column(col[lo:lo + _OUTPUT_ROWS], json) for col in columns]
            fh.write(("," if lo else "") + ",".join([record % row for row in zip(*texts)]))
        fh.write(("\n  ]" if n else "]") + tail)
    else:
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, _OUTPUT_ROWS):
            cells = [_csv_column(col[lo:lo + _OUTPUT_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_output(names, columns, config, args) -> None:
    """Write the table whose column ``names[i]`` holds the values ``columns[i]``."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_table(fh, names, columns, config, args)
    elif sys.stdout is None:  # the process was started with stdout closed
        raise OSError("standard output is closed")
    else:
        _write_table(sys.stdout, names, columns, config, args)


def _matrix_columns(mat) -> list[list]:
    """The ``row, col, re, im`` columns of a matrix, entries rounded to 15 digits."""
    rows, cols = np.indices(mat.shape).reshape(2, -1).tolist()
    flat = mat.ravel()
    return [rows, cols, *([_round15(v) for v in part.tolist()] for part in (flat.real, flat.imag))]


def cmd_probe(args) -> int:
    config = {"command": "probe", "format": args.format}
    _write_output(("row", "col", "re", "im"), _matrix_columns(prepare_probe().mat), config, args)
    return 0


def _object_params(args) -> ObjectParams:
    return ObjectParams(args.T, args.gamma * _DEG if args.degrees else args.gamma)


def cmd_chi(args) -> int:
    params = _object_params(args)
    chi = chi_matrix(object_channel(params))
    config = {
        "command": "chi",
        "t": params.t,
        "gamma": params.gamma,
        "format": args.format,
    }
    _write_output(("row", "col", "re", "im"), _matrix_columns(chi.entries), config, args)
    return 0


def cmd_schmidt(args) -> int:
    sd = operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    recs: list[tuple] = []
    for ell, (r, herm) in enumerate(zip(sd.r, sd.hermitian)):
        recs.append((ell, "coeff", None, None, _round15(float(r)), 0.0, herm))
    for ell, ops in ((0, sd.a_ops), (1, sd.b_ops)):
        kind = "a_op" if ell == 0 else "b_op"
        for term, op in enumerate(ops):
            for i in range(op.shape[0]):
                for j in range(op.shape[1]):
                    recs.append(
                        (term, kind, i, j, _round15(op[i, j].real), _round15(op[i, j].imag), None)
                    )
    config = {"command": "schmidt", "bipartition": [["i1", "i2"], ["s1", "s2"]], "format": args.format}
    _write_output(("term", "kind", "row", "col", "re", "im", "hermitian"), list(zip(*recs)), config, args)
    return 0


def _readouts(probe, mm, ts, gammas, readout) -> np.ndarray:
    """Engine readouts over the settings ``(ts[i], gammas[i])``; a failed setting is a config error."""
    batch = run_batch(probe, mm, ts, gammas, readout)
    for err in batch.errors:
        if err is not None:
            raise ConfigError(err)
    return batch.values


def _shot_mode(p_h, p_g, args):
    """``(p_h, p_g)`` per record, or with ``--shots`` the sampled click frequencies.

    Record k draws from the stream ``[seed, k]``; the Bell probe always
    clicks, so ``p_g = 1 - p_h``.
    """
    if not args.shots:
        return p_h, p_g
    keys = np.arange(p_h.size)[:, None]
    p_h = sample_frequencies(p_h[:, None], args.shots, args.seed, keys)[:, 0]
    return p_h, 1.0 - p_h


def cmd_probabilities(args) -> int:
    ts = _float_list(args.T, "T")
    gammas = _float_list(args.gamma, "gamma")
    if args.degrees:
        gammas = [g * _DEG for g in gammas]
    phis = _resolve_phis(args)
    setting_t, setting_gamma = zip(*itertools.product(ts, gammas))
    probs = _readouts(prepare_probe(), mode_mixer(), setting_t, setting_gamma, measurement_stack(phis)).reshape(-1, 2)
    p_h, p_g = _shot_mode(probs[:, 0], probs[:, 1], args)  # settings outer, phases inner
    grid = list(zip(*itertools.product(ts, gammas, phis)))
    config = {
        "command": "probabilities",
        "t": ts,
        "gamma": gammas,
        "phi": phis,
        "shots": args.shots,
        "seed": args.seed,
        "format": args.format,
    }
    _write_output(("t", "gamma", "phi", "p_h", "p_g"), [*grid, p_h.tolist(), p_g.tolist()], config, args)
    return 0


_SWEEP_COLUMNS = (
    "record", "phi", "p_h", "p_g",
    "t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "method", "degenerate",
)


def cmd_sweep(args) -> int:
    params = _object_params(args)
    phis = _resolve_phis(args)
    method, _ = _phase_design(np.array(phis), args.method)
    probs = _readouts(prepare_probe(), mode_mixer(), [params.t], [params.gamma], measurement_stack(phis))[0]
    p_h, p_g = _shot_mode(probs[:, 0], probs[:, 1], args)
    est = estimate_object(zip(phis, p_h), method=method, shots=args.shots or None)
    samples = {"record": ["sample"] * len(phis), "phi": phis, "p_h": p_h.tolist(), "p_g": p_g.tolist()}
    estimate = {
        "record": "estimate",
        "t_hat": est.t_hat,
        "gamma_hat": None if np.isnan(est.gamma_hat) else est.gamma_hat,
        "stderr_t": est.stderr_t,
        "stderr_gamma": est.stderr_gamma,
        "method": est.method,
        "degenerate": est.degenerate,
    }
    columns = [samples.get(name, [None] * len(phis)) + [estimate.get(name)] for name in _SWEEP_COLUMNS]
    config = {
        "command": "sweep",
        "t": params.t,
        "gamma": params.gamma,
        "phi": phis,
        "shots": args.shots,
        "seed": args.seed,
        "method": method,
        "format": args.format,
    }
    _write_output(_SWEEP_COLUMNS, columns, config, args)
    return 0


_WERNER_GAMMA_POINTS = 24


def cmd_werner(args) -> int:
    xis = _float_list(args.xi, "xi")
    probes = [prepare_werner(xi) for xi in xis]  # rejects any xi outside [0, 1]
    t = ObjectParams(args.T).t
    gammas = np.array([2.0 * np.pi * k / _WERNER_GAMMA_POINTS for k in range(_WERNER_GAMMA_POINTS)])
    pair0 = measurement_stack([0.0])[0]
    design = np.column_stack([np.ones_like(gammas), np.cos(gammas)])
    # every xi x gamma setting in one engine call, xi outer
    values = _readouts(
        [p for p in probes for _ in gammas], mode_mixer(), np.full(len(probes) * gammas.size, t),
        np.tile(gammas, len(probes)), pair0,
    ).reshape(len(probes), gammas.size, 2)
    ppt_mins = np.linalg.eigvalsh(np.stack([partial_transpose(p, ["s1", "i1"]) for p in probes]))[:, 0]
    recs = []
    for xi, ph, pg, ppt_min in zip(xis, values[..., 0], values[..., 1], ppt_mins.tolist()):
        coef, *_ = np.linalg.lstsq(design, ph, rcond=None)
        offset_raw, half_amp = float(coef[0]), float(coef[1])
        amplitude = 2.0 * abs(half_amp)
        clicks = ph + pg
        cond = ph / clicks
        coef_c, *_ = np.linalg.lstsq(design, cond, rcond=None)
        recs.append(
            (
                xi,
                amplitude,
                offset_raw,
                float(coef_c[0]),
                float(np.mean(1.0 - clicks)),
                visibility(ph),
                visibility(cond),
                ppt_min,
            )
        )
    config = {"command": "werner", "xi": xis, "t": t, "gamma_points": _WERNER_GAMMA_POINTS, "format": args.format}
    _write_output(
        (
            "xi", "modulation_amplitude", "offset_raw", "offset_conditioned",
            "no_click", "visibility_raw", "visibility_conditioned", "ppt_min_eigenvalue",
        ),
        list(zip(*recs)),
        config,
        args,
    )
    return 0


def _load_map(path: str, name: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # an empty file is rejected by ImageMaps with a clear message
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            grid = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"could not parse {name} map {path!r}: {exc}") from None
    return grid


def cmd_image(args) -> int:
    t_map = _load_map(args.t_map, "transmission")
    gamma_map = _load_map(args.gamma_map, "phase")
    if args.degrees:
        gamma_map = gamma_map * _DEG
    maps = ImageMaps(t_map, gamma_map)
    phis = _resolve_phis(args)
    scan = image_scan(maps, phis, shots=args.shots, seed=args.seed, method=args.method)
    # one row per pixel in row-major order; a failed pixel, and only a failed
    # one, has a NaN t_hat, so all its cells but row, col and status are empty
    status = [""] * maps.t_map.size
    for r, c, msg in scan.errors:
        status[r * maps.width + c] = msg
    rows, cols = np.indices(maps.t_map.shape).reshape(2, -1).tolist()
    errors = (scan.t_hat - maps.t_map, fold_angles(scan.gamma_hat - maps.gamma_map))
    columns = [
        rows, cols,
        *map(_cells, (scan.t_hat, scan.gamma_hat, scan.stderr_t, scan.stderr_gamma)),
        np.where(np.isnan(scan.t_hat), None, scan.degenerate).ravel().tolist(),
        *map(_cells, errors),
        status,
    ]
    config = {
        "command": "image",
        "t_map": args.t_map,
        "gamma_map": args.gamma_map,
        "phi": phis,
        "shots": args.shots,
        "seed": args.seed,
        "method": args.method,
        "format": args.format,
    }
    _write_output(
        (
            "row", "col", "t_hat", "gamma_hat", "stderr_t", "stderr_gamma",
            "degenerate", "t_error", "gamma_error", "status",
        ),
        columns,
        config,
        args,
    )
    return 0 if scan.ok else 1


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _add_angle_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degrees", action="store_true", help="interpret input angles as degrees")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help or version text that cannot be written to stdout raises.

    argparse ignores an ``OSError`` from that write, so ``--version`` and
    ``-h`` on a full stdout would report success; usage errors on stderr
    keep argparse's behaviour.
    """

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            if file is None:  # the process was started with stdout closed
                raise OSError("standard output is closed")
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uqi",
        description="Density-matrix simulator for imaging with undetected photons.",
    )
    parser.add_argument("--version", action="version", version=f"uqi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe", help="dump the prepared probe density matrix")
    _add_output_options(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("chi", help="dump the object channel's chi matrix")
    p.add_argument("--T", type=float, required=True, help="transmission amplitude in [0, 1]")
    p.add_argument("--gamma", type=float, default=0.0, help="transmission phase")
    _add_angle_option(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("schmidt", help="operator-Schmidt data of the probe")
    _add_output_options(p)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("probabilities", help="detector probabilities over a parameter grid")
    p.add_argument("--T", required=True, help="comma list of transmission amplitudes")
    p.add_argument("--gamma", default="0", help="comma list of transmission phases")
    p.add_argument("--phi", default=None, help="comma list of measurement phases")
    p.add_argument("--phi-points", type=int, default=None, help="number of uniform phases in [0, 2pi)")
    p.add_argument("--shots", type=int, default=0, help="shots per grid point (0 = analytic)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root random seed")
    _add_angle_option(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_probabilities, default_phi_points=1)

    p = sub.add_parser("sweep", help="phase sweep and object-parameter recovery")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--phi", default=None, help="comma list of measurement phases")
    p.add_argument("--phi-points", type=int, default=None, help="number of uniform phases in [0, 2pi)")
    p.add_argument("--shots", type=int, default=0, help="shots per phase point (0 = analytic)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--method", choices=("auto", "two-point", "least-squares"), default="auto")
    _add_angle_option(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_sweep, default_phi_points=12)

    p = sub.add_parser("werner", help="Werner-probe modulation, visibility and PPT scan")
    p.add_argument("--xi", default="0,0.25,0.5,0.6666666666666666,0.75,0.9,1", help="comma list of mixing weights")
    p.add_argument("--T", type=float, default=1.0, help="object transmission used for the scan")
    _add_output_options(p)
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("image", help="per-pixel reconstruction of (T, gamma) maps")
    p.add_argument("--t-map", required=True, help="headerless CSV grid of transmissions in [0, 1]")
    p.add_argument("--gamma-map", required=True, help="headerless CSV grid of phases (radians)")
    p.add_argument("--phi", default=None, help="comma list of measurement phases")
    p.add_argument("--phi-points", type=int, default=None, help="number of uniform phases in [0, 2pi)")
    p.add_argument("--shots", type=int, default=0, help="shots per phase point (0 = analytic)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--method", choices=("auto", "two-point", "least-squares"), default="auto")
    _add_angle_option(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_image, default_phi_points=8)

    return parser


def _fail(exc: Exception, code: int) -> int:
    """Report ``exc`` as a ``uqi:`` line on stderr and return the exit ``code``."""
    try:
        print(f"uqi: {exc}", file=sys.stderr)
    except OSError:
        pass  # stderr is unwritable too: the exit code alone reports the error
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "seed"):  # the commands that sample; 0 shots is analytic
            _check_sampler(args.shots, args.seed)
            if args.shots < 0:
                raise ConfigError("shots must be nonnegative")
        return args.func(args)
    except ValueError as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 3)


def entry() -> None:
    """Run ``main`` on the command line, flush stdout and stderr, and end the process.

    ``os._exit`` skips the interpreter's teardown (atexit handlers, the final
    garbage collections, unloading numpy), which costs a short ``uqi`` run
    about a tenth of its wall time.  The exit code is ``main``'s, or
    argparse's for ``--version``, ``-h`` and usage errors; output that cannot
    be flushed to stdout is an I/O error, exit code 3, as in ``main``.  An
    exception other than ``SystemExit`` propagates with a normal exit.
    """
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    try:
        if sys.stdout is not None:  # a closed stdout has nothing buffered
            sys.stdout.flush()
    except OSError as exc:
        code = _fail(exc, 3)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    entry()
