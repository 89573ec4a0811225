"""Smoke test of the benchmark itself, at tiny sizes; takes seconds.

    python3 perfbench/smoke.py

Runs every workload once with tracing on and checks that the report names
every end-to-end and per-layer metric of BENCHMARK.json with its unit, that
the last line has the agreed keys with no failed checks, and that a run
with tracing off reports exactly the end-to-end metrics.  Then checks that
the benchmark refuses to run from a copy that holds no trisym sources.
Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(proc, label):
    if proc.returncode != 0:
        sys.exit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    *report, last = proc.stdout.splitlines()
    out = json.loads(last)
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{label}: last line has keys {sorted(out)}")
    if not out["correct"] or out["failed"] or out["attempted"] < 1:
        sys.exit(f"{label}: checks failed\n{proc.stdout}")
    return report, out["metrics"]


def expect(found, wanted, label):
    for metric in wanted:
        unit = found.get(metric["name"])
        if unit != metric["unit"]:
            sys.exit(f"{label}: {metric['name']} has unit {unit!r}, "
                     f"expected {metric['unit']!r}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        report, metrics = result(bench(workload, 1), f"{workload} traced")
        printed = {}
        for row in report:
            if row.startswith("metric "):
                name, rest = row.removeprefix("metric ").split(" = ")
                printed[name] = rest.split()[1]
        expect(printed, SPEC["end_to_end"], f"{workload} report")
        expect({k: v["unit"] for k, v in metrics.items()}, SPEC["per_layer"],
               f"{workload} traced result")
        if len(metrics) != len(SPEC["per_layer"]):
            sys.exit(f"{workload}: traced result has extra metrics")
        print(f"ok {workload}: {len(printed)} metrics printed")

    _, metrics = result(bench("band_large", 0), "band_large untraced")
    expect({k: v["unit"] for k, v in metrics.items()}, SPEC["end_to_end"],
           "band_large untraced result")
    if len(metrics) != len(SPEC["end_to_end"]):
        sys.exit("band_large: untraced result has extra metrics")
    print("ok untraced result")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("band_large", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("a copy without src/ must fail without printing a result")
    print("ok refuses to run without src/")


if __name__ == "__main__":
    main()
