"""Self-check: same seed, same inputs and counts; another seed, other inputs.

    python3 perfbench/selfcheck.py [--workloads eval-grid,forms-bounds] [--seconds 4]

For each workload it (1) generates the inputs for seed 1 twice and for
seed 2 once, and requires the two seed-1 sets to be byte-identical and the
seed-2 set to differ; (2) makes two traced runs with seed 1 and requires
every per-layer count (integrand evaluations, panels, series points,
r_mu points, form pairs, oracle samples, ...) to repeat exactly.  Exits 1
on the first mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402


def _inputs(workload, seed, seconds):
    """Everything the program would receive: argv lists and file contents."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        jobs = gen.generate(workload, seed, seconds, tmp)
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name)) as fh:
                files[name] = fh.read()
        argvs = [[a.replace(tmp, "<dir>") for a in j["argv"]] for j in jobs]
    return argvs, files


def _counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its output checks")
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(gen.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        first = _inputs(workload, 1, args.seconds)
        if _inputs(workload, 1, args.seconds) != first:
            raise SystemExit(f"{workload}: seed 1 generated different inputs twice")
        if _inputs(workload, 2, args.seconds) == first:
            raise SystemExit(f"{workload}: seeds 1 and 2 generated the same inputs")
        a = _counts(workload, 1, args.seconds)
        b = _counts(workload, 1, args.seconds)
        if a != b:
            diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
            raise SystemExit(f"{workload}: counts differ between two runs: {diff}")
        print(f"{workload}: inputs repeat per seed and change with it; "
              f"{len(a)} counts repeat exactly "
              f"(integrand_evals={a['quadrature.integrand_evals']}, "
              f"panels={a['quadrature.panels']}, "
              f"series_points={a['kernels.series_points']})", flush=True)


if __name__ == "__main__":
    main()
