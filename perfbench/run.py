"""Benchmark of the extremal CLI: seeded job lists, end to end and per layer.

    python3 perfbench/run.py --workload periodic-coeffs --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

One client runs a closed loop (one job in flight) of generated argv lists
through ``extremal.cli.main`` in a fresh worker process, with every
numpy/BLAS thread pool pinned to one thread and malloc's trimming off (see
WORKER_ENV).  The list is sized for ``--seconds / ROUNDS`` and runs ROUNDS
times in a row; each job's time is the median of its rounds, so a slow
spell of the machine during one round does not count.  The parent checks
every output afterwards (``oracle.py``) and prints each metric by name and
unit, then, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same job list once untraced and once with the
layer tracer installed (each in its own fresh process), and reports the
per-layer metrics plus ``trace.overhead_frac``, the traced wall time over
the untraced one, minus 1.  Inputs, outputs and traces live under the
checkout: ``.perfbench_work/`` (removed after each run) and
``.perfbench_out/`` (span files of traced runs).
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
from worker import WARMUP_ARGV  # noqa: E402

# The worker's environment: one thread per numpy/BLAS pool, and glibc malloc
# told to keep freed blocks instead of returning them to the OS.  By default
# every large numpy temporary is a fresh mmap; the page faults that follow
# cost 4-5 s of kernel time per 20 s run of eval-grid or forms-bounds on a
# 2-vCPU VM and vary with the host's load, which made those runs unsteady.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "4294967296",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
}
# set-up samples taken before and after the job list: the machine's speed
# drifts over tens of seconds, so they are spread over the run
SETUP_RUNS_BEFORE = 3
SETUP_RUNS_AFTER = 4
# Every job runs this many times in a row and its time is the median of
# them.  verify-all runs a single ~17 s job, so without repeats one slow
# spell of the machine decides its figures.
ROUNDS = 3
WORKER_TIMEOUT_S = 160
TAIL_BEYOND = 10
# job_tail_s needs at least this many jobs, so its percentile is >= p50
TAIL_MIN_JOBS = 2 * TAIL_BEYOND
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import extremal.cli; "
              "sys.exit(extremal.cli.main(sys.argv[2:]))")
SETUP_VALUE = 1.0 / math.tanh(1.0) - 1.0      # p(2, 0) = coth(1) - 1


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ)
    env.update(WORKER_ENV)
    return env


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _run_worker(jobs_path, result_path, rounds, spans_path=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, jobs_path, result_path,
           str(rounds)]
    if spans_path:
        cmd.append(spans_path)
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def _check_outputs(jobs, report, catalogue):
    """Count the failed job runs, and print each failed job.

    The oracle reads the last round's output; a run of an earlier round
    fails with it, or on its own if its exit code or output differs.
    """
    failed = 0
    for i, (job, res) in enumerate(zip(jobs, report["jobs"])):
        problems = oracle.check(job, res["rc"][-1], catalogue)
        bad = [bool(problems) or rc != res["rc"][-1] or d != res["digest"][-1]
               for rc, d in zip(res["rc"], res["digest"])]
        if any(bad) and not problems:
            problems = [f"exit codes {res['rc']} or outputs differ between rounds"]
        if problems:
            failed += sum(bad)
            print(f"FAIL job {i}: {' '.join(job['argv'])}: {'; '.join(problems)} "
                  f"{res['stderr'].strip()}")
    return failed


def measure_setup(runs):
    """Wall times of fresh interpreters that import the CLI and run one job."""
    cmd = [sys.executable, "-c", SETUP_CODE, os.path.join(ROOT, "src")] + WARMUP_ARGV
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2 or \
                abs(float(lines[1].split(",")[1]) - SETUP_VALUE) > 1e-14:
            raise BenchError(f"set-up job failed: {proc.stderr.strip()[-2000:]}")
        times.append(elapsed)
    return times


def job_stats(times):
    """(median, (tail value, percentile) or None) of per-job wall times."""
    s = sorted(times)
    tail = None
    if len(s) >= TAIL_MIN_JOBS:
        k = len(s) - TAIL_BEYOND          # TAIL_BEYOND jobs lie above s[k - 1]
        tail = (s[k - 1], math.floor(100.0 * k / len(s)))
    return statistics.median(s), tail


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, trace):
    """Generate, run and check one workload.

    Returns the result object, notes on some metrics, and extra summary lines.
    """
    e2e_units, layer_units = _declared()
    catalogue = {e["key"]: e for e in gen.load_catalogue()["entries"]}
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        rounds = 1 if trace else ROUNDS
        jobs = gen.generate(workload, seed, seconds / ROUNDS, workdir)
        jobs_path = os.path.join(workdir, "jobs.json")
        with open(jobs_path, "w") as fh:
            json.dump(jobs, fh)
        if not trace:
            # the first interpreter compiles bytecode and warms the file cache
            measure_setup(1)
            setup = measure_setup(SETUP_RUNS_BEFORE)
        report = _run_worker(jobs_path, os.path.join(workdir, "result.json"), rounds)
        failed = _check_outputs(jobs, report, catalogue)
        attempted = len(jobs) * rounds
        times = [statistics.median(r["seconds"]) for r in report["jobs"]]
        wall = sum(times)
        lines, notes = [], {}
        if trace:
            outdir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(outdir, exist_ok=True)
            spans = os.path.join(outdir, f"spans-{workload}-s{seed}.npz")
            traced = _run_worker(jobs_path, os.path.join(workdir, "traced.json"), 1, spans)
            failed += _check_outputs(jobs, traced, catalogue)
            attempted += len(jobs)
            layers = dict(traced["layers"])
            traced_wall = sum(r["seconds"][0] for r in traced["jobs"])
            layers["trace.overhead_frac"] = traced_wall / wall - 1.0
            metrics = {name: _metric(layers[name], unit) for name, unit in layer_units.items()}
            lines.append(f"spans = {traced['spans']} (written to {os.path.relpath(spans, ROOT)})")
        else:
            p50, tail = job_stats(times)
            setup += measure_setup(SETUP_RUNS_AFTER)
            values = {
                "wall_s": wall,
                "job_p50_s": p50,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": report["peak_rss_mb"],
            }
            metrics = {name: _metric(values[name], unit) for name, unit in e2e_units.items()}
            notes["wall_s"] = f"sum over {len(times)} jobs of the median of {rounds} rounds"
            notes["job_p50_s"] = f"median of {len(times)} jobs"
            notes["setup_s"] = f"median of {len(setup)} fresh interpreters"
            if tail is None:
                lines.append(f"job_tail_s = n/a ({len(times)} jobs; needs {TAIL_MIN_JOBS})")
            else:
                lines.append(f"job_tail_s = {tail[0]:.6f} s (p{tail[1]}, {TAIL_BEYOND} of "
                             f"{len(times)} jobs beyond it)")
        lines.append(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, notes, lines


def _environment():
    settings = ",".join(f"{k}={v}" for k, v in WORKER_ENV.items())
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} env={settings}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "extremal", "cli.py")):
        print(f"error: no extremal sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result, notes, lines = run_workload(workload, args.seed, args.seconds, args.trace)
            print(f"workload={workload} seed={args.seed} seconds={args.seconds} "
                  f"trace={args.trace} {_environment()}")
            for name, m in result["metrics"].items():
                note = f" ({notes[name]})" if name in notes else ""
                print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
            for line in lines:
                print(line)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
