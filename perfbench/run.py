#!/usr/bin/env python3
"""clusteralg benchmark: CLI jobs with known-answer verdicts.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload finite-explore --seed 1 --seconds 40 --trace 0

Each pass runs the workload's job list, one ``clusteralg`` CLI
invocation per job through ``clusteralg.cli.main(argv)`` in this
process, on seed files generated from ``--seed`` and the pass index.
Load is a closed loop: one thread, one job at a time.  Passes repeat
until the next one would end after ``--seconds``.

Times are scaled to a reference machine speed.  Around every job the
benchmark times a fixed pure-Python kernel that does not touch the
engine, and multiplies the job's wall time by ``REFERENCE_KERNEL_S``
over the mean of the kernel times before and after it, raised to
``SPEED_EXPONENT``.  On a quiet machine the factor is close to 1; when
other tenants slow the processor down, it cancels most of the slowdown.
Raw wall times and the kernel times are kept in the job records.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` passes alternate untraced and traced, and it reports
the per-layer metrics, among them the tracing overhead.  Job records
(exit code, stdout sha256, verdict, times) and spans are written under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from jobs import WORKLOADS, Job, pass_jobs, verdict  # noqa: E402
from tracer import Tracer, check_spans, layer_metrics, write_spans  # noqa: E402

ENGINE_MODULES = ("cli", "atlas", "seed", "laurent", "grading", "compat", "unistructure", "reports")
SETUP_REPEATS = 7
MAX_PASSES = 64
TRACED_PASSES = 2  # spans are held in memory; this bounds their number
JOB_LIMIT_S = 60.0
# Time of reference_kernel() on an unloaded 2.0 GHz Xeon (Python 3.11).
REFERENCE_KERNEL_S = 0.0135
# Job times move as the kernel time to this power: the least-squares slope
# of log job time on log kernel time, 0.69 to 0.76 per workload over 2,500
# jobs on a shared 2-vCPU host.  The kernel reacts more to other tenants
# than the engine does, and two short kernel runs only sample the speed
# around a job, so scaling by the full ratio over-corrects.
SPEED_EXPONENT = 0.75


class EngineMissing(RuntimeError):
    pass


class JobTimeout(Exception):
    pass


def reference_kernel() -> float:
    """Seconds for a fixed dict-of-exponent-tuples product, the same kind
    of work as a Laurent multiplication, written without the engine."""
    start = time.perf_counter()
    a = {(i, j, i - j, 1): i + j for i in range(24) for j in range(24)}
    b = {(i, -j, j, 0): 1 for i in range(4) for j in range(4)}
    out: dict[tuple, int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return time.perf_counter() - start


class Clock:
    """Wall time of a step, and the same time scaled to reference speed
    by the kernel times just before and just after the step."""

    def __init__(self) -> None:
        self.kernel_s = reference_kernel()

    @contextlib.contextmanager
    def step(self, record: dict):
        before = self.kernel_s
        start = time.perf_counter()
        try:
            yield
        finally:
            record["seconds"] = time.perf_counter() - start
            self.kernel_s = reference_kernel()
            record["kernel_s"] = (before + self.kernel_s) / 2
            speed = REFERENCE_KERNEL_S / record["kernel_s"]
            record["scaled_s"] = record["seconds"] * speed**SPEED_EXPONENT


def import_engine() -> dict[str, object]:
    """Import clusteralg afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "clusteralg" or m.startswith("clusteralg.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        modules = {m: importlib.import_module(f"clusteralg.{m}") for m in ENGINE_MODULES}
    except ImportError as exc:
        raise EngineMissing(f"cannot import clusteralg from {SRC}: {exc}") from None
    origin = os.path.abspath(modules["cli"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise EngineMissing(f"clusteralg was imported from {origin}, not from {SRC}")
    return modules


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_LIMIT_S:.0f} s")


def run_job(cli_main, job: Job, clock: Clock, tracer: Tracer | None) -> dict:
    record: dict = {"pass": job.pass_index, "job": job.spec.name, "argv": job.argv}
    out, err = io.StringIO(), io.StringIO()
    error = ""
    gc.collect()  # start from a clean heap, as a fresh CLI process would
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    try:
        with clock.step(record), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli_main(job.argv)
            else:
                rc = tracer.call("cli", cli_main, job.argv)
    except Exception as exc:  # an engine fault or the time limit fails the job
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        tracer.stack.clear()  # a job cut off by an exception leaves no open span
    stdout = out.getvalue()
    if not error:
        try:
            error = verdict(job.spec, rc, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unparseable output: {exc}"
    record.update(
        exit_code=rc,
        stdout_sha256=hashlib.sha256(stdout.encode()).hexdigest(),
        traced=tracer is not None,
        error=error,
        stderr=err.getvalue()[-500:],
    )
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        # Set-up: import the engine and write the first pass's seed files.
        setups.append({})
        with clock.step(setups[-1]):
            modules = import_engine()
            os.makedirs(workdir, exist_ok=True)
            first_jobs = pass_jobs(workload, seed, 0, workdir)
    cli_main = modules["cli"].main
    tracer = Tracer() if trace else None
    signal.signal(signal.SIGALRM, _on_alarm)

    deadline = time.perf_counter() + seconds
    records: list[dict] = []
    passes: dict[bool, list[list[dict]]] = {False: [], True: []}
    for p in range(MAX_PASSES):
        traced = trace and p % 2 == 1 and len(passes[True]) < TRACED_PASSES
        done = passes[traced] or passes[False]
        typical = statistics.median(sum(r["seconds"] for r in done_pass) for done_pass in done) if done else 0.0
        if p >= (2 if trace else 1) and time.perf_counter() + typical > deadline:
            break
        jobs = pass_jobs(workload, seed, p, workdir) if p else first_jobs
        if traced:
            tracer.install(modules)
        try:
            batch = []
            for job in jobs:
                if traced:
                    tracer.job = len(records)
                batch.append(run_job(cli_main, job, clock, tracer if traced else None))
                records.append(batch[-1])
        finally:
            if traced:
                tracer.uninstall()
        passes[traced].append(batch)

    failed = sum(1 for r in records if r["error"])
    with open(os.path.join(workdir, "jobs.jsonl"), "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    for r in records:
        if r["error"]:
            print(f"FAILED pass {r['pass']} {r['job']}: {r['error']}", file=sys.stderr)
    print(
        f"workload: {workload}  seed: {seed}  passes: {len(passes[False]) + len(passes[True])}"
        f"  jobs: {len(records)}  failed_share: {failed / len(records):.4f}"
    )

    def per_pass(key: str, stat, traced: bool = False) -> float:
        return statistics.median(stat([r[key] for r in batch]) for batch in passes[traced])

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    if trace:
        problem = check_spans(tracer.spans)
        if problem:
            print(f"trace check failed: {problem}", file=sys.stderr)
            result["correct"] = False
        write_spans(os.path.join(workdir, "spans.tsv"), tracer.spans)
        values = layer_metrics(tracer.spans, len(passes[True]), tracer.max_terms)
        values["trace.overhead_share"] = per_pass("scaled_s", sum, True) / per_pass("scaled_s", sum) - 1.0
        metrics = {name: {"value": values[name], "unit": _layer_unit(name)} for name in sorted(values)}
    else:
        metrics = {
            "wall_s": {"value": per_pass("scaled_s", sum), "unit": "s"},
            "job_p50_s": {"value": per_pass("scaled_s", statistics.median), "unit": "s"},
            "job_max_s": {"value": per_pass("scaled_s", max), "unit": "s"},
            "setup_s": {"value": statistics.median(r["scaled_s"] for r in setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        print(
            f"  unscaled: wall_s {per_pass('seconds', sum):.6g} s, "
            f"setup_s {statistics.median(r['seconds'] for r in setups):.6g} s, "
            f"speed factor {REFERENCE_KERNEL_S / statistics.median(r['kernel_s'] for r in records):.4f}"
        )
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    result["metrics"] = metrics
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except EngineMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
