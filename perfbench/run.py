"""Benchmark of the `uqi` CLI: fresh processes, checked outputs, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload image-analytic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every operation is one `python3 -m uqi.cli ...` process started from this
one benchmark process and waited for before the next starts (a closed loop
with one client).  The package is imported from the checkout's `src`.
The first call's output is checked against closed forms computed by
`workloads.py`; every later call must reproduce it byte for byte.

Timed calls alternate with fresh reference processes that run a fixed
numpy program and nothing of `uqi`, and each call is reported in units of
the mean wall time of the reference runs just before and after it: the
shared machine's speed drifts by tens of percent over seconds to minutes,
and the ratio cancels what the call and its neighbours feel alike.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced in-process run (`traced.py`), alternated with untraced calls so
that the tracing overhead is measured in the same run.  Progress and
check failures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

from traced import LABELS  # the script's directory is first on sys.path
from workloads import WORKLOADS, Case, make_case

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 7
# The reference process: interpreter start-up, the numpy import and small dense
# complex linear algebra, the same kinds of work as a `uqi` call, in 0.3 to 0.4 s.
# It imports nothing of `uqi`, so no change to the program moves it.
REFERENCE = """
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
h = a @ a.conj().T
s = 0.0
for _ in range(1500):
    b = np.kron(np.eye(2), a[:8, :8])
    h = (h @ b) @ h.conj().T
    h = h / np.trace(h).real
    s += float(np.linalg.eigvalsh(h)[0])
print(repr(s))
"""
MIN_CALLS = 3
CALL_TIMEOUT_S = 120.0
SHOWN_ERRORS = 5


@dataclass
class Call:
    wall_s: float
    code: int
    maxrss_kb: int
    out: bytes
    err: bytes


class Runner:
    """Starts `uqi` processes one at a time and times each from spawn to exit."""

    def __init__(self, src: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        # A serial image scan: a pool on a few shared vCPUs measures the scheduler (README).
        self.env["UQI_THREADS"] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.out_path = os.path.join(workdir, "stdout")
        self.err_path = os.path.join(workdir, "stderr")

    def spawn(self, argv: list[str]) -> Call:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, self.out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err_path, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], CALL_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not exited:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
            raise
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status) if exited else -signal.SIGKILL
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        with open(self.err_path, "rb") as fh:
            err = fh.read()
        return Call(wall, code, usage.ru_maxrss, out, err)

    def uqi(self, args: list[str]) -> Call:
        return self.spawn([sys.executable, "-m", "uqi.cli", *args])

    def reference(self) -> Call:
        call = self.spawn([sys.executable, "-c", REFERENCE])
        if call.code != 0:
            raise RuntimeError(f"the reference process failed with exit code {call.code}: "
                               f"{call.err.decode(errors='replace')[-500:]}")
        return call

    def traced(self, args: list[str], spans_path: str) -> Call:
        return self.spawn([sys.executable, os.path.join(BENCH_DIR, "traced.py"), spans_path, *args])


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def measure_setup(runner: Runner) -> float:
    """Median wall time of a fresh `uqi --version`: interpreter, numpy, package imports, parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        call = runner.uqi(["--version"])
        if call.code != 0 or not call.out.startswith(b"uqi "):
            raise RuntimeError(f"`uqi --version` failed with exit code {call.code}: {call.err.decode(errors='replace')}")
        times.append(call.wall_s)
    return statistics.median(times)


class Ledger:
    """Counts operations and judges each against the checked reference output."""

    def __init__(self, case: Case):
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference: bytes | None = None

    def judge(self, call: Call) -> bool:
        self.attempted += 1
        problems: list[str] = []
        if call.code != 0:
            problems.append(f"exit code {call.code}: {call.err.decode(errors='replace')[-500:]}")
        elif self.reference is None:
            problems = self.case.check(self.case, call.out)
            self.reference = call.out
            self.correct = not problems
        elif call.out != self.reference:
            problems.append("output differs from the first call with the same seed")
            self.correct = False
        if problems or not self.correct:
            self.failed += 1
            for p in problems[:SHOWN_ERRORS]:
                log(f"{self.case.workload}: {p}")
        return not problems and self.correct


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_stats(spans) -> dict[str, list[float]]:
    """Per label: [calls, total seconds, self seconds].

    Self time is a span's duration minus the part of it that its child
    spans cover.  Children on pool threads count by thread: on each pool
    thread, the gaps between the span's first and last child there are the
    span's own work (the per-pixel sampling of `image_scan` runs there),
    while the span's own thread only waits for the pool meanwhile.  Self
    time is thus thread time and, with a pool, may exceed the span's share
    of wall time.
    """
    children: dict[int, dict[int, list[tuple[float, float]]]] = {}
    for _, _, parent, thread, start, end in spans:
        if parent is not None:
            children.setdefault(parent, {}).setdefault(thread, []).append((start, end))
    stats = {label: [0, 0.0, 0.0] for label in LABELS}
    for sid, label, _, thread, start, end in spans:
        by_thread = children.get(sid, {})
        own = list(by_thread.get(thread, ()))
        self_s = 0.0
        for other, intervals in by_thread.items():
            if other != thread:
                lo, hi = min(s for s, _ in intervals), max(e for _, e in intervals)
                self_s += hi - lo - _covered(intervals, lo, hi)
                own.append((lo, hi))
        self_s += end - start - _covered(own, start, end)
        entry = stats.setdefault(label, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
    return stats


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_end_to_end(runner: Runner, case: Case, seconds: float) -> dict:
    setup_s = measure_setup(runner)
    ledger = Ledger(case)
    ledger.judge(runner.uqi(case.args))  # the checked reference output; also warms the caches
    runner.reference()  # warm-up
    walls, refs, ratios, rss = [], [runner.reference().wall_s], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_CALLS or time.perf_counter() < deadline:
        call = runner.uqi(case.args)
        ledger.judge(call)
        refs.append(runner.reference().wall_s)
        walls.append(call.wall_s)
        # against the mean of the reference runs just before and just after the call
        ratios.append(2 * call.wall_s / (refs[-2] + refs[-1]))
        rss.append(call.maxrss_kb)
    call_ref = statistics.median(ratios)
    log(f"{case.workload}: {len(walls)} timed calls, median call {statistics.median(walls):.4f} s, "
        f"median reference {statistics.median(refs):.4f} s, call_ref quartiles "
        f"{[round(q, 4) for q in statistics.quantiles(ratios, n=4)]}")
    return result(ledger, {
        "call_ref": metric(call_ref, "ref"),
        "readouts_per_ref": metric(case.readouts / call_ref, "1/ref"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(statistics.median(rss) / 1024.0, "MB"),
    })


def run_traced(runner: Runner, case: Case, seconds: float) -> dict:
    ledger = Ledger(case)
    ledger.judge(runner.uqi(case.args))
    spans_path = os.path.join(runner.workdir, "spans.json")
    plain, traced, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_CALLS or time.perf_counter() < deadline:
        call = runner.uqi(case.args)
        ledger.judge(call)
        plain.append(call.wall_s)
        if os.path.exists(spans_path):
            os.remove(spans_path)
        call = runner.traced(case.args, spans_path)
        traced.append(call.wall_s)
        if ledger.judge(call) and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not per_call:
                log(f"{case.workload}: wrapped bindings {doc['bindings']}")
            per_call.append(layer_stats(doc["spans"]))
    per_call = per_call or [layer_stats([])]
    metrics = {}
    for label in LABELS:
        for i, (suffix, unit) in enumerate((("calls", "count"), ("total_s", "s"), ("self_s", "s"))):
            metrics[f"{label}.{suffix}"] = metric(statistics.median(s[label][i] for s in per_call), unit)
    calls = {label: metrics[f"{label}.calls"]["value"] for label in LABELS}
    metrics["qcore.DensityMatrix.per_setting"] = metric(calls["qcore.DensityMatrix"] / case.settings, "count")
    metrics["qcore.embed.per_setting"] = metric(calls["qcore.embed"] / case.settings, "count")
    metrics["circuit.measurement_pair.per_readout"] = metric(calls["circuit.measurement_pair"] / case.readouts, "count")
    metrics["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(plain), "s")
    log(f"{case.workload}: {len(traced)} traced and {len(plain)} untraced calls")
    return result(ledger, metrics)


def result(ledger: Ledger, metrics: dict) -> dict:
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    work_root = os.path.join(BENCH_DIR, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root)
    try:
        case = make_case(workload, seed, os.path.relpath(workdir))
        log(f"{workload}: seed {seed}, inputs {case.inputs}, {case.readouts} readouts per call, "
            f"scan workers 1 (UQI_THREADS unset would give {os.cpu_count()})")
        runner = Runner(src, workdir)
        return (run_traced if trace else run_end_to_end)(runner, case, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only once no other run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "uqi", "cli.py")):
        log("src/uqi/cli.py not found: run from the root of a checkout of the repository")
        return 2

    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), src)))
            return 0
        results = {}
        for workload in WORKLOADS:
            res = results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), src)
            print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
            for name, m in res["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(results))
        return 0
    except RuntimeError as exc:
        log(str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
