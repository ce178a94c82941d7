"""Benchmark: per-command latency of the `degen` command line.

    python3 perfbench/run.py --workload curve-ngon --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout.  One job is one fresh
`python -m degen ...` process on a generated bundle, timed from spawn to
exit; jobs run one at a time in a closed loop (one client), and the whole
job list of the workload (a "pass") repeats while the next pass is
expected to end within --seconds.
Every job's exit code, report and written files are checked against what
the construction predicts (see workloads.py); a mismatch, a traceback or a
timeout counts as a failed job and does not stop the run.

With --trace 0 the result holds the end-to-end metrics: each job's time,
normalized by the reference runs around it (see REFERENCE), is reduced to
its median over passes, and a metric sums the medians of its jobs.  With
--trace 1 passes alternate between plain jobs and jobs run under
tracejob.py; the result holds the per-layer metrics (medians over traced
passes) and trace.overhead_s, and every traced job must print byte for
byte what its plain run printed.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

JOB_TIMEOUT_S = 60
# Start no pass after HARD_STOP_S and no job after DEADLINE_S (jobs not
# run count as failed), so that a run ends within three minutes even if
# the program slows down or hangs.
HARD_STOP_S = 100
DEADLINE_S = 150
SETUP_REPEATS = 5

# The machines this runs on change speed by up to 1.7x from one second to
# the next (other tenants share the host), so every job is followed by a
# fixed reference process: the same interpreter start-up plus pure-Python
# Fraction arithmetic, independent of degen.  A job's normalized time is
# its wall time times REFERENCE_S over the mean of the reference runs on
# either side of it: seconds on a machine where the reference takes
# REFERENCE_S.
REFERENCE = (
    "from fractions import Fraction as F\n"
    "a = [[F(i * j % 7 - 3, 1 + (i + j) % 5) for j in range(22)] for i in range(22)]\n"
    "c = [[sum(x * y for x, y in zip(r, k)) for k in zip(*a)] for r in a]\n"
)
REFERENCE_S = 0.1


def time_reference(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], env=env, check=True, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - start


def _fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def _job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


def run_job(job, workdir: str, env: dict, trace_to: str | None = None, timeout=JOB_TIMEOUT_S):
    """Run one job; return (seconds, exit code, stdout, stderr); the exit
    code is None when the job timed out."""
    if trace_to is None:
        cmd = [sys.executable, "-m", "degen", *job.argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracejob.py"), trace_to, *job.argv]
    start = time.perf_counter()
    try:
        p = subprocess.run(
            cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", f"timeout after {timeout:.0f} s"
    return time.perf_counter() - start, p.returncode, p.stdout, p.stderr


def setup(workloads, name: str, seed: int, workdir: str, env: dict):
    """Generate and write the workload SETUP_REPEATS times, each in a fresh
    process timed and normalized like a job; return the workload and the
    median set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), name, str(seed), workdir]
    times = []
    before = time_reference(env)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=JOB_TIMEOUT_S)
        dt = time.perf_counter() - start
        after = time_reference(env)
        times.append(dt * REFERENCE_S * 2 / (before + after))
        before = after
    return workloads.generate(name, seed), statistics.median(times)


def percentile_note(samples: list[float]) -> str:
    """Median and the highest of p99/p95/p90/p75 with >= 10 samples above it."""
    s = sorted(samples)
    n = len(s)
    parts = [f"n={n}", f"p50={statistics.median(s):.4f}"]
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            parts.append(f"p{p}={s[min(n - 1, int(n * p / 100))]:.4f}")
            break
    return " ".join(parts)


class Run:
    """One workload's jobs, their checks and the samples they produce."""

    def __init__(self, workloads, workload, workdir: str):
        self.workloads = workloads
        self.w = workload
        self.workdir = workdir
        self.env = _job_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # one line per failed job, then run-level ones
        self.plain_stdout: dict[str, str] = {}
        self.deadline = float("inf")

    def run_job(self, job, trace_to=None):
        left = self.deadline - time.perf_counter()
        if left <= 0:
            return 0.0, None, "", "not run: the run's deadline passed"
        return run_job(job, self.workdir, self.env, trace_to, min(JOB_TIMEOUT_S, left))

    def record(self, job, code, stdout, stderr, traced: bool = False) -> None:
        self.attempted += 1
        if code is None:
            reason = stderr or "timeout"
        else:
            reason = self.workloads.check_output(job, code, stdout, stderr, self.workdir)
        if reason is None and traced and stdout != self.plain_stdout.get(job.name, stdout):
            reason = "traced stdout differs from untraced"
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{job.name}: {reason}")

    def timed_pass(self, layers=None):
        """Run every job once, each followed by a reference run.

        Returns per-job wall seconds, the same normalized by the mean of
        the references on either side of the job, and with `layers` (a
        traced pass) the per-layer summary.
        """
        raw, norm, traces = [], [], []
        before = time_reference(self.env)
        for i, job in enumerate(self.w.jobs):
            path = os.path.join(self.workdir, f"trace-{i}.json") if layers else None
            dt, code, out, err = self.run_job(job, trace_to=path)
            after = time_reference(self.env)
            raw.append(dt)
            norm.append(dt * REFERENCE_S * 2 / (before + after))
            before = after
            self.record(job, code, out, err, traced=layers is not None)
            if layers is None:
                self.plain_stdout.setdefault(job.name, out)
            elif code is not None and os.path.exists(path):
                traces.append(layers.load(path))
                os.remove(path)
        return raw, norm, (layers.summarize(traces) if layers else None)

    def digest(self) -> str:
        h = hashlib.sha256()
        for job in self.w.jobs:
            h.update(f"{job.name}\n".encode())
            h.update(self.plain_stdout.get(job.name, "").encode())
        return h.hexdigest()


def measure(workloads, layers, name: str, seed: int, seconds: int, trace: bool):
    workdir = os.path.join(WORK, name)
    env = _job_env()
    # compile the bytecode once, as an installed package would have it
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), name, str(seed), workdir],
        env=env, check=True, timeout=JOB_TIMEOUT_S,
    )
    w, setup_s = setup(workloads, name, seed, workdir, env)
    run = Run(workloads, w, workdir)
    start = time.perf_counter()
    run.deadline = start + DEADLINE_S
    raw, norm, traced, layer_samples = [], [], [], []
    while True:
        r, n, _ = run.timed_pass()
        raw.append(r)
        norm.append(n)
        if trace:
            _, n, summary = run.timed_pass(layers)
            traced.append(n)
            layer_samples.append(summary)
        elapsed = time.perf_counter() - start
        # stop before a pass that would end after --seconds
        if elapsed + elapsed / len(raw) > min(seconds, HARD_STOP_S):
            break

    pinned = _pinned().get(name, {}).get(str(seed))
    if pinned is not None and pinned != run.digest():
        run.failures.append(f"report digest {run.digest()} differs from the pinned {pinned}")

    jobs = range(len(w.jobs))
    med = [statistics.median(p[j] for p in norm) for j in jobs]
    if trace:
        metrics = {
            m: statistics.median(sample[m] for sample in layer_samples)
            for m, _, _ in layers.METRICS
            if m != "trace.overhead_s"
        }
        traced_med = [statistics.median(p[j] for p in traced) for j in jobs]
        metrics["trace.overhead_s"] = sum(traced_med) - sum(med)
        return run, metrics, layers.UNITS, {}, len(raw)

    metrics = {"wall_s": sum(med)}
    notes = {
        "wall_s": f"n={len(raw)} passes; unnormalized pass median "
        f"{statistics.median(sum(p) for p in raw):.4f} s"
    }
    for cmd in workloads.COMMANDS:
        mine = [j for j in jobs if w.jobs[j].command == cmd]
        metrics[f"{cmd}_s"] = sum(med[j] for j in mine)
        notes[f"{cmd}_s"] = "per job " + percentile_note([p[j] for p in norm for j in mine])
    metrics["setup_s"] = setup_s
    notes["setup_s"] = f"median of {SETUP_REPEATS}"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    units = {m: "s" for m in metrics} | {"peak_rss_mb": "MB"}
    return run, metrics, units, notes, len(raw)


def _pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "degen", "cli.py")):
        return _fail(f"no degen sources under {ROOT}/src; run from a source checkout")
    sys.path.insert(0, HERE)
    import layers
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        return _fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}, all")

    results = []
    for name in names:
        run, metrics, units, notes, passes = measure(
            workloads, layers, name, args.seed, args.seconds, bool(args.trace)
        )
        failed = run.failed
        print(f"== {name} seed={args.seed} passes={passes} jobs={run.attempted} failed={failed}")
        for reason in run.failures[:20]:
            print(f"   FAILED {reason}")
        for metric, value in metrics.items():
            print(f"   {metric:34s} {value:14.6f} {units[metric]:6s} {notes.get(metric, '')}")
        results.append(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            }
        )
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
