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
from .channels import ObjectParams, chi_matrix, fold_angles, object_channel
from .circuit import _check_sampler, _werner_probes, measurement_stack, prepare_probe, run_batch, sample_frequencies
from .qcore import _block_rows, partial_transpose
from .tomography import ImageMaps, _fit, _phase_design, _sinusoid_rows, _visibilities, image_scan, operator_schmidt

DEFAULT_SEED = 42
_DEG = np.pi / 180.0


def _float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {name} list {text!r}") from None
    if not values:
        raise ValueError(f"{name} list is empty")
    return values


def _resolve_phis(args) -> list[float]:
    if args.phi is not None and args.phi_points is not None:
        raise ValueError("give either --phi or --phi-points, not both")
    if args.phi is not None:
        phis = _float_list(args.phi, "phi")
        return [p * _DEG for p in phis] if args.degrees else phis
    n = args.phi_points if args.phi_points is not None else args.default_phi_points
    if n < 1:
        raise ValueError("phi point count must be at least 1")
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


def _write_table(fh, names, columns, config, args) -> None:
    """Write the table to ``fh``: the header, blocks of rows sized by the column count, the tail.

    The bytes are those of the whole table joined at once: for JSON,
    ``json.dumps(doc, indent=2) + "\\n"`` of the document with a
    ``{name: value}`` record per row.
    """
    n = len(columns[0]) if columns else 0
    rows = _block_rows(len(columns))
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
        for lo in range(0, n, rows):
            texts = [_json_column(col[lo:lo + rows], json) for col in columns]
            fh.write(("," if lo else "") + ",".join([record % row for row in zip(*texts)]))
        fh.write(("\n  ]" if n else "]") + tail)
    else:
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, rows):
            cells = [_csv_column(col[lo:lo + rows]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_output(names, columns, config, args) -> None:
    """Write the table whose column ``names[i]`` holds the values ``columns[i]``.

    ``config`` holds the command's own settings; its JSON ``config`` adds
    the command first and the format last.
    """
    config = {"command": args.command, **config, "format": args.format}
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
    _write_output(("row", "col", "re", "im"), _matrix_columns(prepare_probe().mat), {}, args)
    return 0


def _object_params(args) -> ObjectParams:
    return ObjectParams(args.T, args.gamma * _DEG if args.degrees else args.gamma)


def cmd_chi(args) -> int:
    params = _object_params(args)
    chi = chi_matrix(object_channel(params))
    config = {"t": params.t, "gamma": params.gamma}
    _write_output(("row", "col", "re", "im"), _matrix_columns(chi.entries), config, args)
    return 0


def cmd_schmidt(args) -> int:
    sd = operator_schmidt(prepare_probe(), (("i1", "i2"), ("s1", "s2")))
    coeffs = zip(sd.r.tolist(), sd.hermitian)
    recs = [(ell, "coeff", None, None, _round15(r), 0.0, herm) for ell, (r, herm) in enumerate(coeffs)]
    for kind, ops in (("a_op", sd.a_ops), ("b_op", sd.b_ops)):
        for term, op in enumerate(ops):
            recs += [(term, kind, *entry, None) for entry in zip(*_matrix_columns(op))]
    config = {"bipartition": [["i1", "i2"], ["s1", "s2"]]}
    _write_output(("term", "kind", "row", "col", "re", "im", "hermitian"), list(zip(*recs)), config, args)
    return 0


def _readouts(probe, ts, gammas, readout) -> np.ndarray:
    """Engine readouts of the settings ``(ts[i], gammas[i])``; a failed one is a config error."""
    batch = run_batch(probe, ts, gammas, readout)
    for err in batch.errors:
        if err is not None:
            raise ValueError(err)
    return batch.values


def _shot_mode(p_h, p_g, args):
    """Flat ``(p_h, p_g)`` records of ``(settings, phases)`` readouts, sampled with ``--shots``.

    Setting s draws its phases, in phase order, from the stream
    ``[seed, s]``, as an image pixel draws from ``[seed, row, col]``.  A
    setting of at least ``circuit._ARRAY_DRAW_WIDTH`` (14) phases is drawn
    in one binomial call: 10.8 against 11.1 us in scalar calls at 14
    phases, 0.45 against 2.7 ms at 4096.  The Bell probe always clicks, so
    ``p_g = 1 - p_h``.
    """
    if not args.shots:
        return p_h.ravel(), p_g.ravel()
    p_h = sample_frequencies(p_h, args.shots, args.seed, np.arange(len(p_h))[:, None]).ravel()
    return p_h, 1.0 - p_h


def cmd_probabilities(args) -> int:
    ts = _float_list(args.T, "T")
    gammas = _float_list(args.gamma, "gamma")
    if args.degrees:
        gammas = [g * _DEG for g in gammas]
    phis = _resolve_phis(args)
    setting_t, setting_gamma = zip(*itertools.product(ts, gammas))
    probs = _readouts(prepare_probe(), setting_t, setting_gamma, measurement_stack(phis))
    p_h, p_g = _shot_mode(probs[..., 0], probs[..., 1], args)  # settings outer, phases inner
    grid = list(zip(*itertools.product(ts, gammas, phis)))
    config = {"t": ts, "gamma": gammas, "phi": phis, "shots": args.shots, "seed": args.seed}
    _write_output(("t", "gamma", "phi", "p_h", "p_g"), [*grid, p_h.tolist(), p_g.tolist()], config, args)
    return 0


_SWEEP_COLUMNS = (
    "record", "phi", "p_h", "p_g",
    "t_hat", "gamma_hat", "stderr_t", "stderr_gamma", "method", "degenerate",
)


def cmd_sweep(args) -> int:
    params = _object_params(args)
    phis = _resolve_phis(args)
    method, g = _phase_design(np.array(phis))
    probs = _readouts(prepare_probe(), [params.t], [params.gamma], measurement_stack(phis))
    p_h, p_g = _shot_mode(probs[..., 0], probs[..., 1], args)  # setting 0
    samples = {"record": ["sample"] * len(phis), "phi": phis, "p_h": p_h.tolist(), "p_g": p_g.tolist()}
    # the fit's one row; NaN, where a value is not defined, is an empty cell
    estimate = {key: _cells(value)[0] for key, value in _fit(method, g, p_h[None], args.shots).items()}
    estimate.update(record="estimate", method=method)
    columns = [samples.get(name, [None] * len(phis)) + [estimate.get(name)] for name in _SWEEP_COLUMNS]
    config = {
        "t": params.t, "gamma": params.gamma, "phi": phis, "shots": args.shots, "seed": args.seed, "method": method,
    }
    _write_output(_SWEEP_COLUMNS, columns, config, args)
    return 0


_WERNER_GAMMA_POINTS = 24


def cmd_werner(args) -> int:
    xis = _float_list(args.xi, "xi")
    probes = _werner_probes(xis)  # rejects any xi outside [0, 1]
    t = args.T  # the engine applies ObjectParams' rule
    gammas = np.array([2.0 * np.pi * k / _WERNER_GAMMA_POINTS for k in range(_WERNER_GAMMA_POINTS)])
    pair0 = measurement_stack([0.0])[0]
    # the offset and cos rows of the sinusoid fit; sin is orthogonal to both on the uniform gammas
    rows = _sinusoid_rows(gammas)[:2]
    # every xi x gamma setting in one engine call, xi outer
    values = _readouts(
        [p for p in probes for _ in gammas], np.full(len(probes) * gammas.size, t), np.tile(gammas, len(probes)),
        pair0,
    ).reshape(len(probes), gammas.size, 2)
    ppt_mins = np.linalg.eigvalsh(np.stack([partial_transpose(p, ["s1", "i1"]) for p in probes]))[:, 0].tolist()
    p_h = values[..., 0]
    clicks = p_h + values[..., 1]
    conds = p_h / clicks
    offsets_raw, half_amps = (p_h[:, None, :] * rows).sum(axis=-1).T.tolist()
    # the raw rows first: a bad one raises before any conditioned row is read
    visibilities = _visibilities(np.concatenate([p_h, conds])).tolist()
    columns = [
        xis,
        [2.0 * abs(a) for a in half_amps],
        offsets_raw,
        (conds * rows[0]).sum(axis=-1).tolist(),
        np.mean(1.0 - clicks, axis=-1).tolist(),
        visibilities[:len(xis)],
        visibilities[len(xis):],
        ppt_mins,
    ]
    config = {"xi": xis, "t": t, "gamma_points": _WERNER_GAMMA_POINTS}
    _write_output(
        (
            "xi", "modulation_amplitude", "offset_raw", "offset_conditioned",
            "no_click", "visibility_raw", "visibility_conditioned", "ppt_min_eigenvalue",
        ),
        columns,
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
        raise ValueError(f"could not parse {name} map {path!r}: {exc}") from None
    return grid


def cmd_image(args) -> int:
    t_map = _load_map(args.t_map, "transmission")
    gamma_map = _load_map(args.gamma_map, "phase")
    if args.degrees:
        gamma_map = gamma_map * _DEG
    maps = ImageMaps(t_map, gamma_map)
    phis = _resolve_phis(args)
    scan = image_scan(maps, phis, shots=args.shots, seed=args.seed)
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
    config = {"t_map": args.t_map, "gamma_map": args.gamma_map, "phi": phis, "shots": args.shots, "seed": args.seed}
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


def _add_readout_options(p: argparse.ArgumentParser, phi_points: int) -> None:
    """The options of the commands that read out a phase sweep: phases, sampler, angles and output."""
    p.add_argument("--phi", default=None, help="comma list of measurement phases")
    p.add_argument(
        "--phi-points", type=int, default=None, help=f"number of uniform phases in [0, 2pi) (default {phi_points})"
    )
    p.add_argument("--shots", type=int, default=0, help="shots per readout (0 = analytic)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root random seed")
    _add_angle_option(p)
    _add_output_options(p)
    p.set_defaults(default_phi_points=phi_points)


class _ParserExit(Exception):
    """argparse ends parsing with the status ``args[0]``: 0 for ``-h`` and ``--version``, 2 for a usage error."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, and its subparsers', except that it raises :class:`_ParserExit` in place of exiting.

    argparse ignores an ``OSError`` from writing help or version text to
    stdout, so ``--version`` and ``-h`` on a full stdout would report
    success; here that write raises.  A usage error's text goes to stderr
    alone, where a failed write is ignored, as in argparse.
    """

    def _print_message(self, message, file=None):  # argparse's help and version text, for stdout
        if file is None:  # the process was started with stdout closed
            raise OSError("standard output is closed")
        file.write(message)

    def error(self, message):  # argparse would write the usage to stdout when stderr is closed
        self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def exit(self, status=0, message=None):
        if message:
            super()._print_message(message, sys.stderr)
        raise _ParserExit(status)


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
    _add_readout_options(p, phi_points=1)
    p.set_defaults(func=cmd_probabilities)

    p = sub.add_parser("sweep", help="phase sweep and object-parameter recovery")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    _add_readout_options(p, phi_points=12)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("werner", help="Werner-probe modulation, visibility and PPT scan")
    p.add_argument("--xi", default="0,0.25,0.5,0.6666666666666666,0.75,0.9,1", help="comma list of mixing weights")
    p.add_argument("--T", type=float, default=1.0, help="object transmission used for the scan")
    _add_output_options(p)
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("image", help="per-pixel reconstruction of (T, gamma) maps")
    p.add_argument("--t-map", required=True, help="headerless CSV grid of transmissions in [0, 1]")
    p.add_argument("--gamma-map", required=True, help="headerless CSV grid of phases (radians)")
    _add_readout_options(p, phi_points=8)
    p.set_defaults(func=cmd_image)

    return parser


def _fail(exc: Exception, code: int) -> int:
    """Report ``exc`` as a ``uqi:`` line on stderr and return the exit ``code``."""
    try:
        print(f"uqi: {exc}", file=sys.stderr)
    except OSError:
        pass  # stderr is unwritable too: the exit code alone reports the error
    return code


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return its exit code; it never exits."""
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "seed"):  # the commands with readout options
            _check_sampler(args.shots, args.seed)
        return args.func(args)
    except _ParserExit as exc:
        return exc.args[0]
    except ValueError as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 3)


def entry() -> None:
    """Run ``main`` on the command line, flush stdout and stderr, and end the process.

    ``os._exit`` skips the interpreter's teardown (atexit handlers, the final
    garbage collections, unloading numpy), which costs a short ``uqi`` run
    about a tenth of its wall time.  The exit code is ``main``'s; output that
    cannot be flushed to stdout is an I/O error, exit code 3, as in ``main``.
    An exception propagates with a normal exit.
    """
    code = main(sys.argv[1:])
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
