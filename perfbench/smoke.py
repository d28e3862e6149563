"""Smoke check of the benchmark itself, at toy sizes (about a minute).

Usage, from the root of a checkout: python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs run.py on toy-size configs with
tracing off and on, and requires a correct result (run.py itself refuses to
report metrics other than those BENCHMARK.json lists).  It checks that every layer
metric names the end-to-end metrics and workloads it should move in
layer_targets.json, and that run.py refuses to run, without printing a
result, in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((BENCH_DIR / "layer_targets.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    if set(targets) != set(per_layer):
        problems.append(f"layer_targets.json and BENCHMARK.json differ on {sorted(set(targets) ^ set(per_layer))}")
    for name, target in targets.items():
        if not set(target["moves"]) <= end_to_end or not set(target["on"]) <= set(workloads):
            problems.append(f"layer_targets.json: {name} names an unknown metric or workload")

    for workload in workloads:
        for trace in (0, 1):
            done = run(ROOT, workload, trace, "--toy")
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {done.stdout.strip()[-600:]}")
            print(f"ok {label}: {len(result['metrics'])} metrics")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, workloads[0], 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, output {done.stdout.strip()[-200:]!r}")
    else:
        print(f"ok bare directory: exit {done.returncode}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
