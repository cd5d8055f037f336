"""Record the reference data the oracles compare with, from the current code.

    python3 perfbench/record.py

Writes ``data/verify_verdicts.json`` (the verdict of every check of
``verify --suite all``) and ``data/periodic_catalogue.json`` (for every
periodic-coeffs catalogue entry: its output values and its median wall
time over three passes, which sizes the job lists).  Run it with the
worker's environment (``run.WORKER_ENV``).  The committed files were
recorded at the seed commit; rerunning this script replaces them, so do
it only on purpose, and never to make a failing check pass.
"""

import json
import os
import platform
import statistics
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402

COST_PASSES = 3


def _verdicts(cli, tmp):
    path = os.path.join(tmp, "verify.json")
    rc, _, _, err = worker._run(cli, ["verify", "--suite", "all", "--seed", "7",
                                      "--out", path])
    if rc != 1:
        raise SystemExit(f"verify exited {rc!r}: {err}")
    with open(path) as fh:
        report = json.load(fh)
    return {
        "checks": {c["name"]: c["pass"] for c in report["checks"]},
        "criteria": {g["criterion"]: g["passed"] for g in report["results"]["criteria"]},
    }


def _values(entry, text):
    if entry["argv"][0] == "eval":
        return [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    rows = [line.split(",") for line in text.splitlines()[1:]]
    table = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
    return [list(table[n]) for n in range(len(table) // 2 + 1)]


def write_catalogue(catalogue):
    """Write the catalogue with one entry per line."""
    with open(gen.CATALOGUE_PATH, "w") as fh:
        fh.write('{"recorded_with": ' + json.dumps(catalogue["recorded_with"])
                 + ',\n "entries": [\n')
        fh.write(",\n".join(json.dumps(e) for e in catalogue["entries"]))
        fh.write("\n]}\n")


def main():
    root = os.path.dirname(HERE)
    cli = worker._import_cli(root)
    worker._run(cli, worker.WARMUP_ARGV)
    os.makedirs(os.path.join(HERE, "data"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        verdicts = _verdicts(cli, tmp)
        with open(oracle.VERDICTS_PATH, "w") as fh:
            json.dump(verdicts, fh, indent=1, sort_keys=True)
            fh.write("\n")
        tables = gen.write_atomic_tables(tmp)
        entries = gen.catalogue_entries()
        times = [[] for _ in entries]
        # whole passes, so that a slow spell of the machine spreads over
        # many entries instead of inflating one entry's cost
        for _ in range(COST_PASSES):
            for e, t in zip(entries, times):
                argv = gen.resolve_argv(e["argv"], tables) + ["--format", "csv"]
                rc, seconds, out, err = worker._run(cli, argv)
                if rc != 0:
                    raise SystemExit(f"{e['key']}: exit {rc!r}: {err}")
                values = _values(e, out)
                if e.setdefault("values", values) != values:
                    raise SystemExit(f"{e['key']}: output differs between passes")
                t.append(seconds)
        for e, t in zip(entries, times):
            e["cost_s"] = round(statistics.median(t), 4)
            print(f"{e['cost_s']:8.3f}s {e['key']}")
    catalogue = {
        "recorded_with": {"python": platform.python_version(),
                          "numpy": np.__version__, "nproc": os.cpu_count()},
        "entries": entries,
    }
    write_catalogue(catalogue)


if __name__ == "__main__":
    main()
