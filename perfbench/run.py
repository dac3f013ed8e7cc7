"""Benchmark of the ``ftqc`` command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up generates the seeded inputs, then the
timed phase runs whole cycles of the workload's operations as sequential
child processes (``python -m ftqc ...``) until ``--seconds`` would be
exceeded, and every output is checked afterwards against references the
code under test did not produce.  With ``--trace 1`` each operation runs
twice, untraced and then under ``traced_cli.py``, and the per-layer numbers
come from the recorded spans.  Summary lines go to stdout, followed by one
JSON result line; the full record, with the environment, is written to
``perfbench/_results/``.  Reported times correct for the drift of the
numpy/scipy/click import (see ``REFERENCE_ARGS``).  BLAS threads are left
at the library default and recorded, not pinned.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")

RUN_LIMIT_S = 170.0    # every child is killed past this, below the 180 s cap
LAST_CYCLE_S = 150.0   # no cycle starts that is predicted to end later
SETUP_REPEATS = 3
STARTUP_ARGS = ["-c", "import ftqc.cli"]

# Every child imports numpy, scipy and click before ftqc does any work, and
# on a shared machine that import drifts by 20 % or more over minutes while
# BLAS-bound work barely moves.  A reference child that imports only those
# dependencies runs next to the timed work (at least every
# REFERENCE_EVERY_S), and each reported time sets its children's dependency
# import to REFERENCE_S: wall - children * (reference - REFERENCE_S).
# ftqc cannot change the reference; raw wall times go to the results file.
REFERENCE_ARGS = ["-c", "import click, numpy, scipy.integrate, scipy.optimize"]
REFERENCE_S = 0.7
REFERENCE_EVERY_S = 5.0


@dataclasses.dataclass
class Child:
    args: list
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    out: str
    err: str
    spans: dict | None = None


@dataclasses.dataclass
class OpRecord:
    label: str
    traced: bool
    wall: float
    children: list
    opdir: str
    check: object
    reference: float
    problems: list = dataclasses.field(default_factory=list)

    @property
    def corrected(self) -> float:
        """Wall time with each started child's dependency import at REFERENCE_S."""
        started = sum(1 for child in self.children if child.wall > 0.0)
        return self.wall - started * (self.reference - REFERENCE_S)


class Runner:
    """Runs one child process at a time, reaping each with ``os.wait4`` so
    that its own peak RSS and CPU time are read, not a running maximum."""

    def __init__(self, hard_deadline: float):
        self.hard_deadline = hard_deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self._proc = None
        self._serial = 0

    def run(self, argv: list, cwd: str, args: list | None = None) -> Child:
        """Run ``argv`` in ``cwd``; ``args`` is what the record shows."""
        args = argv[1:] if args is None else args
        remaining = self.hard_deadline - time.monotonic()
        if remaining <= 0:
            return Child(args=args, rc=-1, wall=0.0, cpu=0.0, rss_mb=0.0,
                         out="", err="not started: run time limit reached")
        self._serial += 1
        out_path = os.path.join(cwd, f".stdout-{self._serial}")
        err_path = os.path.join(cwd, f".stderr-{self._serial}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            self._proc = proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                                 stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self._proc = None
        with open(out_path) as out, open(err_path) as err:
            return Child(args=args, rc=proc.returncode, wall=wall,
                         cpu=usage.ru_utime + usage.ru_stime,
                         rss_mb=usage.ru_maxrss / 1024.0,
                         out=out.read(), err=err.read())

    def cli(self, args: list, cwd: str, op_id: str | None) -> Child:
        """``ftqc ARGS`` in ``cwd``; traced when ``op_id`` is given."""
        if op_id is None:
            return self.run([sys.executable, "-m", "ftqc", *args], cwd, args)
        spans_path = os.path.join(cwd, f".spans-{self._serial}.json")
        child = self.run([sys.executable, TRACED_CLI, spans_path, op_id, "--",
                          *args], cwd, args)
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                child.spans = json.load(fh)
        return child

    def stop(self) -> None:
        proc = self._proc
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------- statistics

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, int, int]:
    """Highest order statistic with at least ten samples beyond it (the
    maximum when there are fewer): (value, 1-based rank, sample count)."""
    ordered = sorted(values)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], rank, len(ordered)


class Layers:
    """Per-layer numbers aggregated over the spans of many processes."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.attrs = defaultdict(list)

    def add(self, spans: list) -> float:
        """Add one process's spans; returns the time its top-level spans cover."""
        covered = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent, attrs in spans:
            if parent is None:
                top += end - start
            else:
                covered[parent] += end - start
        for (name, start, end, parent, attrs), inner in zip(spans, covered):
            self.durations[name].append(end - start)
            self.self_times[name].append(end - start - inner)
            if attrs:
                self.attrs[name].append((end - start, attrs))
        return top

    def attr(self, name: str, key: str) -> list:
        return [attrs[key] for _, attrs in self.attrs[name]]


# Per-layer metrics summed over one traced operation (median over operations);
# every other "<span>_s" metric is the median duration of one call.
PER_OP_TOTALS = ("costs.calls", "cli.json_bytes", "cli.json_dump_s",
                 "cli.json_load_s")


def per_layer_metrics(names, records, setup_spans, startup_walls,
                      workload) -> tuple[dict, list]:
    """Every declared per-layer metric, plus printable accounting lines."""
    layers = Layers()
    layers.add(setup_spans)
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    startup = median(startup_walls)
    accounted, unaccounted, per_op = [], [], []
    for rec in traced:
        covered = 0.0
        op_counts = defaultdict(float)
        for child in rec.children:
            spans = (child.spans or {}).get("spans", [])
            covered += startup + layers.add(spans)
            for name, start, end, parent, attrs in spans:
                if name.startswith("costs."):
                    op_counts["costs.calls"] += 1
                if name.startswith("cli.json_") and attrs:
                    op_counts["cli.json_bytes"] += attrs["bytes"]
                    op_counts[f"{name}_s"] += end - start
            for name, count in (child.spans or {}).get("counts", {}).items():
                op_counts[f"{name}_calls"] += count
        per_op.append(op_counts)
        accounted.append(covered / rec.wall)
        unaccounted.append(rec.wall - covered)

    D = layers.durations
    n_layouts = len(D["surface.layout_estimate"])
    lbfgs_status = layers.attr("thc.lbfgs", "status")
    load_rates = [attrs["bytes"] / 1e6 / dt
                  for dt, attrs in layers.attrs["tensors.load_fcidump"]]
    walk = [t for m in ("sparse", "sf", "df", "thc") for t in D[f"costs.cost_{m}"]]
    rel_residuals = getattr(workload, "rel_residuals", [])
    special = {
        "cli.startup_s": startup,
        "cli.cpu_s_per_op": median([sum(c.cpu for c in r.children) for r in untraced]),
        "cli.cpu_util": median([sum(c.cpu for c in r.children) / r.wall
                                for r in untraced]),
        "tensors.load_fcidump_mb_per_s": median(load_rates),
        "factorizations.sparse_d": median(layers.attr("factorizations.sparse_truncate", "d")),
        "thc.thc_fit_self_s": median(layers.self_times["thc.thc_fit"]),
        "thc.lbfgs_nit": median(layers.attr("thc.lbfgs", "nit")),
        "thc.lbfgs_nfev": median(layers.attr("thc.lbfgs", "nfev")),
        "thc.s_per_eval": median(D["thc.lbfgs_eval"]),
        "thc.lbfgs_converged_ratio": (lbfgs_status.count(0) / len(lbfgs_status)
                                      if lbfgs_status else 0.0),
        "thc.rel_residual": median(rel_residuals),
        "costs.cost_walk_s": median(walk),
        "surface.choose_distance_calls": (len(D["surface.choose_distance"]) / n_layouts
                                          if n_layouts else 0.0),
        "trace.overhead_s": (median([r.wall for r in traced])
                             - median([r.wall for r in untraced])),
        "trace.unaccounted_s": median(unaccounted),
        "trace.accounted_share": median(accounted),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith("_calls") or name in PER_OP_TOTALS:
            metrics[name] = median([counts[name] for counts in per_op])
        elif name.endswith("_s"):
            metrics[name] = median(D[name[:-2]])
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")

    lines = [f"accounting: traced op p50 {median([r.wall for r in traced]):.4f} s, "
             f"top-level spans + {startup:.4f} s startup per child cover "
             f"{100 * median(accounted):.1f} %, unaccounted "
             f"{median(unaccounted):.4f} s, trace overhead "
             f"{special['trace.overhead_s']:+.4f} s"]
    busiest = sorted(layers.self_times.items(), key=lambda kv: -sum(kv[1]))[:15]
    lines.append("self time by span (sum over the traced run):")
    for name, times in busiest:
        lines.append(f"  {name:<44s} {sum(times):10.4f} s  {len(times):7d} calls")
    return metrics, lines


# --------------------------------------------------------------- environment

def environment(args) -> dict:
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted(pathlib.Path(SRC, "ftqc").rglob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                 "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


# ----------------------------------------------------------------------- run

def reference(runner, cwd) -> float:
    return runner.run([sys.executable, *REFERENCE_ARGS], cwd).wall


def setup_once(workload, runner, workdirs: list) -> tuple[float, float]:
    """One set-up: (raw seconds, seconds with the probe's import corrected)."""
    start = time.perf_counter()
    workdirs.append(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    workload.setup(workdirs[-1])
    probe = runner.run([sys.executable, *STARTUP_ARGS], workdirs[-1])
    elapsed = time.perf_counter() - start
    if probe.rc != 0:
        raise RuntimeError(f"cannot import ftqc.cli from {SRC}: {probe.err.strip()}")
    return elapsed, elapsed - (reference(runner, workdirs[-1]) - REFERENCE_S)


def timed_phase(workload, runner, seconds, trace, workdir, run_start):
    """Run whole cycles; returns (records, startup probe walls, seconds)."""
    records, startup = [], []
    modes = (None, "traced") if trace else (None,)
    begin = time.perf_counter()
    measured_at = -math.inf
    while True:
        cycle_start = time.perf_counter()
        for op in workload.cycle():
            for mode in modes:
                opdir = os.path.join(workdir, f"op{len(records):04d}")
                os.mkdir(opdir)
                if time.perf_counter() - measured_at >= REFERENCE_EVERY_S:
                    latest = reference(runner, opdir)
                    if trace:
                        startup.append(runner.run([sys.executable, *STARTUP_ARGS],
                                                  opdir).wall)
                    measured_at = time.perf_counter()
                op_id = None if mode is None else os.path.basename(opdir)
                start = time.perf_counter()
                children = op.run(runner, opdir, op_id)
                records.append(OpRecord(op.label, mode is not None,
                                        time.perf_counter() - start, children,
                                        opdir, op.check, latest))
        now = time.perf_counter()
        cycle = now - cycle_start
        if now - begin + cycle > seconds or now - run_start + cycle > LAST_CYCLE_S:
            return records, startup, now - begin


def check_all(records) -> None:
    for rec in records:
        try:
            rec.problems = rec.check(rec.children, rec.opdir)
        except (KeyError, ValueError, IndexError, TypeError, OSError) as exc:
            rec.problems = [f"output unreadable: {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    run_start = time.perf_counter()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "ftqc", "cli.py")):
        print(f"error: no ftqc sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import ftqc
    import tracer
    import workloads

    if not os.path.abspath(ftqc.__file__).startswith(SRC + os.sep):
        print(f"error: imported ftqc from {ftqc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _on_sigterm)
    os.makedirs(WORK, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(time.monotonic() + RUN_LIMIT_S - (time.perf_counter() - run_start))
    parent = tracer.Tracer("setup")
    if args.trace:
        tracer.install(parent)
    workdirs = []
    try:
        setups = [setup_once(workload, runner, workdirs)
                  for _ in range(SETUP_REPEATS)]
        workdir = workdirs[-1]
        records, startup, phase_s = timed_phase(workload, runner, args.seconds,
                                                args.trace, workdir, run_start)
        check_all(records)
    finally:
        runner.stop()
        for path in workdirs:
            shutil.rmtree(path, ignore_errors=True)

    failed = [r for r in records if r.problems]
    result_lines = []
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, result_lines = per_layer_metrics(names, records, parent.spans,
                                                 startup, workload)
    else:
        times = [r.corrected for r in records]
        tail_value, tail_rank, count = tail(times)
        result_lines.append(
            f"op_s.tail is sample {tail_rank} of {count} (ops per cycle: "
            f"{len(workload.cycle())}); raw wall p50 {median([r.wall for r in records]):.4f} s, "
            f"raw set-up {median([raw for raw, _ in setups]):.4f} s, dependency "
            f"import {median([r.reference for r in records]):.4f} s (set to {REFERENCE_S} s)")
        values = {
            "setup_s": median([corrected for _, corrected in setups]),
            "op_s.p50": median(times),
            "op_s.tail": tail_value,
            "ops_per_s": (len(records) - len(failed)) / sum(times),
            "peak_rss_mb": max(c.rss_mb for r in records for c in r.children),
            "ok_ratio": (len(records) - len(failed)) / len(records),
        }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise KeyError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}

    env = environment(args)
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}-"
                           f"{stamp}-{os.getpid()}.json"), "w") as fh:
        json.dump({"environment": env, "result": result,
                   "setup_s": setups,
                   "ops": [{"label": r.label, "traced": r.traced, "wall_s": r.wall,
                            "reference_s": r.reference,
                            "problems": r.problems,
                            "children": [{"args": c.args, "rc": c.rc, "wall_s": c.wall,
                                          "cpu_s": c.cpu, "rss_mb": c.rss_mb}
                                         for c in r.children]}
                           for r in records]}, fh, indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    for rec in failed:
        print(f"FAILED {os.path.basename(rec.opdir)} {rec.label}: "
              + "; ".join(rec.problems))
    print(f"{args.workload} seed={args.seed}: {len(records)} ops in {phase_s:.2f} s, "
          f"{len(failed)} failed")
    for line in result_lines:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<44s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
