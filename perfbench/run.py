"""markovgeom benchmark: one seeded workload, closed loop, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 20 --trace 0

One client runs one task at a time for about ``--seconds`` of task time: the
number of tasks is fixed by ``--seconds`` and the workload's nominal task time,
never by a clock, so a given seed attempts the same operations on every run.
Every task's outputs are checked against an independent oracle outside the timed
interval; operations that raise, exit non-zero or miss their tolerance count
as failed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced tasks and reports the per-layer metrics.  A
human-readable summary comes first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record (machine facts, samples, spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("solve", "mixing", "cli_emit", "cli_report")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

# Nominal seconds of one task (CLI: one whole rotation) on the reference host
# (2-vCPU Intel Xeon KVM guest, OpenBLAS).  A run makes seconds / nominal
# tasks, so its length tracks --seconds while attempted and failed counts stay
# the same on every run at a seed, however fast the host is that day.
NOMINAL_TASK_S = {"solve": 10.0, "mixing": 2.0, "cli_emit": 10.0, "cli_report": 2.0}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_facts():
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3": l3.read_text().strip() if l3.exists() else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip(),
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version', '')}".strip(),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def wait_child(argv, stderr_path):
    """Run a child to completion; returns (seconds, exit code, peak RSS in MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# set-up: import, seeded inputs, input CSVs, one warm-up call
# ---------------------------------------------------------------------------


# workloads imports markovgeom, which is importable only after main() has put
# src/ on sys.path, so the functions below import it where they need it.


def setup(workload, seed, work):
    """Everything before the first timed task; returns the task state."""
    import workloads as wl
    from markovgeom import cli

    work.mkdir(parents=True, exist_ok=True)
    if workload in ("solve", "mixing"):
        make, task = {"solve": (wl.solve_input, wl.solve_task),
                      "mixing": (wl.mixing_input, wl.mixing_task)}[workload]
        inp = make(seed)
        task(wl.warmup_input(inp.beta), wl.Clock(), wl.Checker())
        return inp
    if workload == "cli_emit":
        files = wl.write_emit_inputs(seed, work)
        tiny = wl.write_emit_inputs(seed, work / "warmup", n=16)
    else:
        files = wl.write_report_inputs(seed, work)
        tiny = wl.write_report_inputs(seed, work / "warmup", n_embed=16, n_verify=8, d=4)
    first = wl.EMIT_ROTATION[0] if workload == "cli_emit" else wl.REPORT_ROTATION[0]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(wl.command_argv(first, tiny, work / "warmup" / "out"))
    return files


def probe_setup(workload, seed):
    """Median wall time, over fresh interpreters, from process start to ready."""
    times = []
    for i in range(SETUP_REPEATS):
        work = WORK / f"probe-{os.getpid()}-{i}"
        stderr = work.with_suffix(".err")
        argv = [sys.executable, str(Path(__file__)), "--workload", workload,
                "--seed", str(seed), "--setup-probe", str(work)]
        elapsed, code, _ = wait_child(argv, stderr)
        shutil.rmtree(work, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {stderr.read_text()[-500:]}")
        stderr.unlink()
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# timed loops
# ---------------------------------------------------------------------------


class Run:
    """Samples of one run: task times by kind and whether traced."""

    def __init__(self):
        import workloads as wl

        self.check = wl.Checker()
        self.times = {}          # (kind, traced) -> [seconds]
        self.profiles = {}       # kind -> [per-task profile]
        self.total = 0.0
        self.completed = 0
        self.peak_child_mb = 0.0
        self.spans = []
        self.task_err_over_tol = []  # worst stationary error of each task

    def add(self, kind, traced, seconds, completed=True):
        self.times.setdefault((kind, traced), []).append(seconds)
        self.total += seconds
        self.completed += int(completed)


def task_count(workload, seconds, trace):
    """Tasks (CLI: rotations) in one run; a traced run alternates, so needs two."""
    count = max(1, round(seconds / NOMINAL_TASK_S[workload]))
    return max(count, 2) if trace else count


def run_library(workload, inp, seconds, trace):
    import workloads as wl

    task, n_ops = {"solve": (wl.solve_task, wl.SOLVE_OPS),
                   "mixing": (wl.mixing_task, wl.MIXING_OPS)}[workload]
    run = Run()
    recorder = tracer.Tracer()
    traced_times = {}
    for i in range(task_count(workload, seconds, trace)):
        traced = trace and i % 2 == 1
        clock = wl.Clock()
        attempted = run.check.attempted
        errors = len(run.check.err_over_tol)
        completed = True
        if traced:
            recorder.task = i
            recorder.install()
        try:
            task(inp, clock, run.check)
        except (ValueError, RuntimeError) as exc:  # ConvergenceError is a RuntimeError
            print(f"task {i} raised: {exc}", file=sys.stderr)
            run.check.abort(type(exc).__name__, n_ops - (run.check.attempted - attempted))
            completed = False
        finally:
            recorder.uninstall()
        run.add(workload, traced, clock.elapsed, completed)
        if traced:
            traced_times[i] = clock.elapsed
        if len(run.check.err_over_tol) > errors:
            run.task_err_over_tol.append(max(run.check.err_over_tol[errors:]))
    run.spans = recorder.spans
    for task_id, profile in tracer.task_profiles(recorder.spans).items():
        profile["task_s"] = traced_times[task_id]
        run.profiles.setdefault(workload, []).append(profile)
    return run


def run_cli(workload, files, work, seconds, trace):
    import workloads as wl

    rotation = wl.EMIT_ROTATION if workload == "cli_emit" else wl.REPORT_ROTATION
    run = Run()
    expected, digests = {}, {}
    # whole rotations only, so every run times the same mix of commands
    for i in range(task_count(workload, seconds, trace) * len(rotation)):
        command = rotation[i % len(rotation)]
        traced = trace and (i // len(rotation)) % 2 == 1
        out_dir = work / "out" / command.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = wl.command_argv(command, files, out_dir)
        spans_path = work / f"spans-{i}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
        else:
            argv = [sys.executable, "-m", "markovgeom", *argv]
        elapsed, code, peak_mb = wait_child(argv, work / f"{command.name}.err")
        run.add(command.name, traced, elapsed, code == 0)
        run.peak_child_mb = max(run.peak_child_mb, peak_mb)
        # checks, outside the timed interval
        passed = code == 0
        if passed and command.name not in digests:
            expected[command.name] = command.expect(files)
            passed = wl.outputs_match(out_dir, expected[command.name])
            digests[command.name] = wl.digest(out_dir)
        elif passed:
            passed = wl.digest(out_dir) == digests[command.name]
        if code != 0:
            print(f"{command.name} exited {code}: "
                  f"{(work / f'{command.name}.err').read_text()[-500:]}", file=sys.stderr)
        run.check(command.name, passed)
        if traced:
            spans = json.loads(spans_path.read_text())
            for span in spans:
                span[4] = i
            profile = tracer.task_profiles(spans)[i]
            profile["task_s"] = elapsed
            run.profiles.setdefault(command.name, []).append(profile)
            offset = len(run.spans)
            for span in spans:
                span[3] += offset if span[3] != -1 else 0
            run.spans.extend(spans)
    return run


def fresh_import_seconds():
    code = ("import time; t = time.perf_counter(); import markovgeom.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(run, setup_times, library):
    samples = [t for (_, traced), ts in run.times.items() if not traced for t in ts]
    if library:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    else:
        peak = run.peak_child_mb
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "task_p50_s": (statistics.median(samples), "s", len(samples)),
        "tasks_per_s": (run.completed / run.total, "1/s", run.completed),
        "peak_rss_mb": (peak, "MB", 1),
        "failed_frac": (len(run.check.failed) / run.check.attempted, "ratio",
                        run.check.attempted),
    }


def _mean_over_kinds(run, value):
    """Median over repeats of one task kind, averaged over the kinds that ran."""
    kinds = [k for k in run.profiles]
    return statistics.fmean(statistics.median(value(p) for p in run.profiles[k]) for k in kinds)


def per_layer(run, import_s):
    import workloads as wl

    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.s"] = _mean_over_kinds(run, lambda p: p[name][0])
        metrics[f"{name}.calls"] = _mean_over_kinds(run, lambda p: p[name][1])
    for name in tracer.SOLVERS:
        sweeps = _mean_over_kinds(run, lambda p: p[name][3])
        seconds = _mean_over_kinds(run, lambda p: p[name][2])
        metrics[f"{name}.sweeps"] = sweeps
        metrics[f"{name}.s_per_sweep"] = seconds / sweeps if sweeps else 0.0
    for name in tracer.FILE_SPANS:
        metrics[f"{name}.mb"] = _mean_over_kinds(run, lambda p: p[name][3])
    errors = run.task_err_over_tol
    metrics["bridges.stationary_distribution.err_over_tol"] = (
        statistics.median(errors) if errors else 0.0)
    metrics["cli.import.s"] = import_s
    for command in wl.EMIT_ROTATION + wl.REPORT_ROTATION:
        times = run.times.get((command.name, False), [])
        metrics[f"cli.{command.name}.s"] = statistics.median(times) if times else 0.0
    traced = _mean_over_kinds(run, lambda p: p["task_s"])
    untraced = statistics.fmean(statistics.median(run.times[(k, False)]) for k in run.profiles)
    metrics["bench.task.s"] = traced
    metrics["bench.own.s"] = _mean_over_kinds(run, lambda p: p["task_s"] - p[None])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def counts_repeat(run):
    """Calls, sweeps and MB must be identical across repeats of one task kind."""
    for profiles in run.profiles.values():
        keys = [tuple((p[n][1], p[n][3]) for n in tracer.SPAN_NAMES) for p in profiles]
        if len(set(keys)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "markovgeom" / "__init__.py").is_file():
        print(f"error: no markovgeom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import markovgeom

    if Path(markovgeom.__file__).resolve().parent != SRC / "markovgeom":
        print(f"error: imported markovgeom from {markovgeom.__file__}", file=sys.stderr)
        return 2

    if args.setup_probe is not None:
        setup(args.workload, args.seed, args.setup_probe)
        return 0

    library = args.workload in ("solve", "mixing")
    load_start = os.getloadavg()
    facts = machine_facts()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = probe_setup(args.workload, args.seed)
        state = setup(args.workload, args.seed, work)
        if library:
            run = run_library(args.workload, state, args.seconds, bool(args.trace))
        else:
            run = run_cli(args.workload, state, work, args.seconds, bool(args.trace))
        import_s = fresh_import_seconds() if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            WORK.rmdir()
    facts["loadavg_start"] = load_start
    facts["loadavg_end"] = os.getloadavg()

    e2e = end_to_end(run, setup_times, library)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client")
    print("machine " + json.dumps(facts))
    for name, (value, unit, count) in e2e.items():
        print(f"{name:<12} {value:>12.6g} {unit:<6} n={count}")
    if run.check.failed:
        print("failed operations: " + ", ".join(sorted(set(run.check.failed))))
    correct = counts_repeat(run)
    if args.trace:
        layers = per_layer(run, import_s)
        self_s = sum(layers[f"{name}.s"] for name in tracer.SPAN_NAMES)
        print(f"traced task {layers['bench.task.s']:.6g} s = per-layer self {self_s:.6g} s "
              f"+ outside traced calls {layers['bench.own.s']:.6g} s "
              f"(overhead {layers['trace.overhead_frac']:+.1%} against untraced)")
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()
                   if name != "failed_frac"}
    result = {
        "correct": correct,
        "attempted": run.check.attempted,
        "failed": len(run.check.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args) | {"setup_probe": None}, "machine": facts,
              "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
              "samples": {f"{k}{'/traced' if t else ''}": v for (k, t), v in run.times.items()},
              "failed": run.check.failed, "result": result, "spans": run.spans}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith(".calls") or name.endswith(".sweeps"):
        return "count"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith("_frac") or name.endswith("err_over_tol"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
