"""Run one job list in this fresh process through ``extremal.cli.main``.

    python3 perfbench/worker.py ROOT JOBS_JSON RESULT_JSON ROUNDS [SPANS_NPZ]

Closed loop, one client: each job starts after the previous one returned,
and the whole list runs ROUNDS times in a row.  Only the call to
``cli.main`` is timed.  Captured stdout is written to a file after the
timer stops, and no output is checked here: each round records the exit
code and a SHA-256 digest of every output, and the parent process runs the
oracle on the last round's files once this process has exited, so neither
the checks nor their memory show in the timings or in ``peak_rss_mb``.
With a spans path, the layer tracer is installed before the first job and
its spans and per-layer metrics are written at the end.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

WARMUP_ARGV = ["eval", "--kind", "p", "--lambda", "2", "--grid", "0:0:1"]


def _import_cli(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from extremal import cli
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"extremal imported from {where}, not from {src}")
    return cli


def _run(cli, argv):
    """(exit code or error text, seconds, captured stdout, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:        # argparse usage errors
        rc = exc.code
    except Exception as exc:         # a crash is a failed job, not a crashed run
        rc = f"{type(exc).__name__}: {exc}"
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def _digest(path):
    h = hashlib.sha256()
    if os.path.exists(path):
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def main(root, jobs_path, result_path, rounds, spans_path=None):
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    cli = _import_cli(root)
    tracer = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # first-call set-up (lazy numpy imports, argparse) is not charged to job 0;
    # its cost in a fresh interpreter is what setup_s reports
    _run(cli, WARMUP_ARGV)
    if tracer is not None:
        tracer.panels = 0
    results = [{"rc": [], "seconds": [], "digest": [], "stderr": ""} for _ in jobs]
    for _ in range(int(rounds)):
        for i, job in enumerate(jobs):
            path = job["output"]
            if os.path.exists(path):        # no stale output from a round before
                os.remove(path)
            gc.collect()
            if tracer is not None:
                tracer.job_id = i
            rc, seconds, stdout, stderr = _run(cli, job["argv"])
            if tracer is not None:
                tracer.job_id = -1
            if job["out"] is None:
                with open(path, "w") as fh:
                    fh.write(stdout)
            res = results[i]
            res["rc"].append(rc)
            res["seconds"].append(seconds)
            res["digest"].append(_digest(path))
            res["out_bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
            res["stderr"] = res["stderr"] or stderr[-2000:]
    report = {
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        spans = tracer.arrays()
        report["layers"] = tracer.layer_metrics(spans)
        report["layers"]["cli.out_bytes"] = sum(r["out_bytes"] for r in results)
        report["spans"] = int(spans["name_id"].size)
        tracer.write(spans_path, spans)
    with open(result_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
