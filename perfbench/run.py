#!/usr/bin/env python3
"""Benchmark for halfrare: bound tables, LP verification and CLI start-up.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the checkout's own src/ without installing it.  One closed loop
with one client: operations run one after another, in a worker process
(tables, LP) or each in a fresh `python -m halfrare` process (small-cli),
never more than one child at a time.  Each operation's output is checked
after it, outside the timing.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The same
object, with every time measured, is written under perfbench/results/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import OUT_FILE, WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RESULTS = BENCH / "results"

#: Fresh interpreters timed for setup_s, spread evenly over the run between
#: rounds: the median of samples taken together moved by up to 40 % between
#: runs as the machine's speed changed.
SETUP_SAMPLES = 21
SETUP_CODE = "import time; t = time.perf_counter(); import halfrare.cli; print(time.perf_counter() - t)"
PROC_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def pin_cpu() -> None:
    """Keep this process and its children on one CPU: unpinned, the same
    operation's median over a process moved by up to 1.8x."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Worker:
    """The child that runs in-process operations (perfbench/worker.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], env=child_env(), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, op: Op, argv: list[str], out: Path, trace: bool) -> dict:
        req = {"kind": op.kind, "argv": argv, "probs": op.probs, "out": str(out), "trace": trace}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        return json.loads(line) if line else {"error": "worker exited"}

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=PROC_TIMEOUT_S)
        self.proc.stdout.close()


def timed_child(cmd: list[str], stdout) -> tuple[int, float, bytes | None]:
    """Run a child to its exit; returns its exit code, its wall time from
    start to exit, and its output when `stdout` is a pipe.

    It waits without a timeout: `Popen.wait(timeout)` polls with sleeps that
    grow to 50 ms, which rounded every small-cli time up to the same 0.114 s.
    A timer kills a child that hangs instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(PROC_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, time.perf_counter() - t0, out


def run_proc(argv: list[str], stdout: Path, trace: bool) -> dict:
    """One fresh CLI process, timed from start to exit."""
    spans = OUT / "spans.json"
    if trace:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
    else:
        cmd = [sys.executable, "-m", "halfrare", *argv]
    with open(stdout, "w") as f:
        code, dt, _ = timed_child(cmd, f)
    reply = {"code": code, "t": dt}
    if trace and code == 0:
        reply["spans"] = json.loads(spans.read_text())
    return reply


def run_time_s(times: list[float]) -> float:
    """An operation's time in a run: the 90th percentile of its repeats.

    The machine switches between a fast and a slow speed, up to 2x apart,
    in phases of seconds to minutes.  The share of fast time differs from
    run to run, and the median and low percentiles move with it.  Slow
    phases come in nearly every run, so the 90th percentile reads the slow
    speed and moved least (figures in perfbench/README.md).
    """
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]


@dataclass
class Timed:
    """One operation of the round, with its times over the run."""

    op: Op
    times: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    verified: bytes | None = None


class Run:
    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.ops = [Timed(op) for op in WORKLOADS[workload](random.Random(seed))]
        self.trace = trace
        self.worker: Worker | None = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.output_bytes = 0
        self.setup_walls: list[float] = []
        self.setup_imports: list[float] = []
        self.attempted = self.failed = self.rounds = 0
        self.correct = True

    def sample_setup(self) -> None:
        """Time a fresh interpreter importing halfrare.cli."""
        code, dt, out = timed_child([sys.executable, "-c", SETUP_CODE], subprocess.PIPE)
        if code != 0:
            raise RuntimeError(f"importing halfrare.cli failed with exit code {code}")
        self.setup_walls.append(dt)
        self.setup_imports.append(float(out))

    def round(self, share: float) -> None:
        """One round, after setup samples up to `share` of the run's."""
        due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * share))
        if len(self.setup_walls) < due:
            self.close_worker()  # one child at a time
            while len(self.setup_walls) < due:
                self.sample_setup()
        for t in self.ops:
            self.attempted += 1
            if not self.one(t):
                self.failed += 1
        self.rounds += 1

    def close_worker(self) -> None:
        if self.worker:
            self.worker.close()
            self.worker = None

    def execute(self, op: Op, trace: bool) -> tuple[dict, Path]:
        """Run one operation; returns its reply and the file its check reads."""
        stdout, written = OUT / "op.out", OUT / "op.file"
        for p in (stdout, written):
            p.unlink(missing_ok=True)
        argv = [str(written) if a == OUT_FILE else a for a in op.argv]
        if op.kind == "proc":
            reply = run_proc(argv, stdout, trace)
        else:
            if not self.worker:
                # A fresh worker's first call pays for lazy imports and cold
                # caches; run it once untimed.
                self.worker = Worker()
                self.worker.run(op, argv, stdout, False)
            reply = self.worker.run(op, argv, stdout, trace)
        if trace and op.kind != "verify":  # a verify batch's report is the worker's, not the CLI's
            self.output_bytes += sum(p.stat().st_size for p in (stdout, written) if p.exists())
        return reply, (written if OUT_FILE in op.argv else stdout)

    def one(self, t: Timed) -> bool:
        reply, output = self.execute(t.op, trace=False)
        if "error" in reply or reply["code"] != 0:
            print(f"perfbench: {t.op.cls} failed: {reply}", file=sys.stderr)
            return False
        try:
            # An output byte-equal to one that passed every check passes too.
            text = output.read_bytes()
            if text != t.verified:
                t.op.check(text.decode())
                t.verified = text
        except (checks.CheckFailed, *checks.MALFORMED) as e:
            print(f"perfbench: {t.op.cls} output rejected: {e!r}", file=sys.stderr)
            self.correct = False
            return False
        t.times.append(reply["t"])
        if self.trace:
            # The same operation again with spans, right after the untraced
            # one, so the two times give the tracing overhead.
            reply, _ = self.execute(t.op, trace=True)
            if "spans" not in reply:
                print(f"perfbench: traced {t.op.cls} failed: {reply}", file=sys.stderr)
                return False
            t.traced.append(reply["t"])
            for total, part in ((self.self_s, "self_s"), (self.total_s, "total_s"), (self.calls, "calls")):
                for layer, v in reply["spans"][part].items():
                    total[layer] += v
        return True

    def pass_s(self, traced: bool) -> float:
        """One round with every operation at its run time."""
        return sum(run_time_s(ts) for ts in (t.traced if traced else t.times for t in self.ops) if ts)

    def end_to_end(self, peak_mib: float) -> dict:
        cells = sum(t.op.cells for t in self.ops if t.times)
        return {
            "op_p50_s": {
                "value": statistics.median(run_time_s(t.times) for t in self.ops if t.times),
                "unit": "s",
            },
            "cells_per_s": {"value": cells / self.pass_s(False), "unit": "1/s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
            "setup_s": {"value": statistics.median(self.setup_walls), "unit": "s"},
        }

    def per_layer(self) -> dict:
        per_op = 1 / sum(len(t.traced) for t in self.ops)
        interpreter = statistics.median(w - i for w, i in zip(self.setup_walls, self.setup_imports))
        values = {
            "bounds.boundary_distributions_s": self.self_s["bounds.boundary_distributions"] * per_op,
            "transforms.independent_epd_s": self.self_s["transforms.independent_epd"] * per_op,
            "core.format_s": self.self_s["core.format"] * per_op,
            "core.format_calls": self.calls["core.format"] * per_op,
            "cli.self_s": self.self_s["cli"] * per_op,
            "cli.output_bytes": self.output_bytes * per_op,
            "core.validate_s": self.self_s["core.validate"] * per_op,
            "oracle.verify_bounds_s": self.total_s["oracle.verify_bounds"] * per_op,
            "oracle.lp_extremize_s": self.self_s["oracle.lp_extremize"] * per_op,
            "oracle.lp_calls": self.calls["oracle.lp_extremize"] * per_op,
            "oracle.self_s": self.self_s["oracle.verify_bounds"] * per_op,
            "figure.render_figure_s": self.self_s["figure.render_figure"] * per_op,
            "transforms.apply_phenomenon_s": self.self_s["transforms.apply_phenomenon"] * per_op,
            "startup.interpreter_s": interpreter,
            "startup.import_s": statistics.median(self.setup_imports),
            "trace.overhead_pct": 100 * (self.pass_s(True) / self.pass_s(False) - 1),
        }
        units = {"_s": "s", "_calls": "count", "_bytes": "B", "_pct": "%"}
        return {
            name: {"value": v, "unit": next(u for k, u in units.items() if name.endswith(k))}
            for name, v in values.items()
        }

    def detail(self) -> dict:
        """Every time measured, for the results file."""
        ops = [
            {"class": t.op.cls, "cells": t.op.cells, "probs": t.op.probs, "times_s": t.times}
            | ({"traced_times_s": t.traced} if self.trace else {})
            for t in self.ops
        ]
        return {"rounds": self.rounds, "setup_times_s": self.setup_walls, "ops": ops}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "halfrare" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'halfrare'} is missing", file=sys.stderr)
        return 2

    pin_cpu()
    OUT.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, bool(args.trace))
    start = time.perf_counter()
    try:
        # Whole rounds only; stop when another would more likely than not
        # end past the deadline, so that a run lasts about --seconds.
        while True:
            run.round((time.perf_counter() - start) / args.seconds)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / run.rounds / 2 >= args.seconds:
                break
    finally:
        run.close_worker()
        shutil.rmtree(OUT, ignore_errors=True)
    if not any(t.times for t in run.ops):
        print("perfbench: every operation failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = run.per_layer()
        path = RESULTS / f"{args.workload}-seed{args.seed}.trace.json"
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = run.end_to_end(peak_mib)
        path = RESULTS / f"{args.workload}-seed{args.seed}.json"
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    path.write_text(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                    seconds=args.seconds, **run.detail()), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
