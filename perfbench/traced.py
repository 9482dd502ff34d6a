"""Run one `uqi` command in this process with its public functions wrapped in spans.

Usage (with the package's `src` directory on PYTHONPATH):

    python3 perfbench/traced.py SPANS_JSON UQI_ARG...

The wrappers are installed from outside: no file of the package changes.
A function is wrapped under every module name it is bound to, since a call
goes through the caller's own binding (`run_pipeline` is called through
`circuit`, `tomography` and `cli`).  `DensityMatrix` construction is traced
by wrapping the class's `__init__`.  Spans stay in memory and are written
to SPANS_JSON once the command has ended; the command's output goes to
stdout as usual and the exit code is the command's.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

TRACED = {
    "circuit": ("prepare_probe", "prepare_werner", "run_pipeline", "measurement_pair", "detection_probabilities"),
    "channels": ("object_channel", "apply_channel", "apply_mode_mixer"),
    "qcore": ("embed", "partial_trace", "partial_transpose", "DensityMatrix"),
    "gates": ("apply_unitary",),
    "tomography": ("image_scan", "estimate_object"),
    "cli": ("main",),
}
LABELS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)


class Tracer:
    """Collects spans ``(id, label, parent id, thread id, start, end)`` from any thread.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on its thread.  A span that opens on a worker
    thread with an empty stack is attributed to the innermost span open on
    the main thread: the pool threads of `image_scan` work on its behalf.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, int, float, float]] = []
        self.bindings: dict[str, list[str]] = {}
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count()
        self._main = threading.main_thread().ident

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) if tid != self._main else None
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, label, parent, tid, start, end))

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded `uqi` module that binds it."""
        import uqi.cli  # noqa: F401  (loads every module of the package)

        modules = {name: mod for name, mod in sys.modules.items() if name == "uqi" or name.startswith("uqi.")}
        for mod_name, names in TRACED.items():
            home = modules.get(f"uqi.{mod_name}")
            for name in names:
                label = f"{mod_name}.{name}"
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                if isinstance(orig, type):
                    orig.__init__ = self.wrap(label, orig.__init__)
                    self.bindings[label] = [f"{orig.__module__}.{name}.__init__"]
                    continue
                wrapped = self.wrap(label, orig)
                bound = []
                for other_name, other in modules.items():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, attr, wrapped)
                            bound.append(f"{other_name}.{attr}")
                self.bindings[label] = sorted(bound)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS_JSON UQI_ARG...", file=sys.stderr)
        return 2
    spans_path, uqi_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import uqi.cli

    try:
        code = uqi.cli.main(uqi_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "bindings": tracer.bindings}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
