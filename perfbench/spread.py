"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload verify-all --seeds 1-10 [--seconds 45]

Runs the benchmark once per seed (one after another) and prints, for each
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the inter-quartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  With
``--json FILE`` the same figures are written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in _seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        for line in proc.stdout.splitlines():
            if line.startswith("FAIL"):
                print(f"seed {seed}: {line}")
        result = json.loads(proc.stdout.splitlines()[-1])
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
              + f" (run took {time.perf_counter() - t0:.1f} s)", flush=True)
    rows = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                           "iqr_share": (q3 - q1) / med, "bound": m["bound"],
                           "values": v}
        print(f"{args.workload} {m['name']}: median {med:.4g} {m['unit']}, "
              f"quartiles {q1:.4g}..{q3:.4g}, spread {(q3 - q1) / med:.3f} "
              f"(bound {m['bound']})")
    print(f"failed jobs: {failed}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "seeds": args.seeds, "failed": failed, "metrics": rows}, fh,
                      indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
