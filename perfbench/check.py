"""Short self-check of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/check.py [--seconds S]

Runs every workload in ``BENCHMARK.json`` briefly with ``--trace 0`` and
``--trace 1`` and requires that each run exits 0, reports ``correct``,
has no failed op, and emits exactly the named metrics with finite values.
It then copies only ``BENCHMARK.json`` and the benchmark's directories into
an empty directory and requires the benchmark to fail there without
printing a result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, command: list[str], workload: str, seconds: int, trace: int):
    return subprocess.run(
        [sys.executable, *command[1:], "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, spec["command"], workload, args.seconds, trace)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} differ")
            bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{label}: non-finite {bad}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            print(f"{label}: {result['attempted']} attempted, failed_ratio "
                  f"{result['failed'] / result['attempted']:.3g}, {len(got)} metrics", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["command"], spec["workloads"][0]["name"], 1, 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            problems.append(f"bare directory: exit {proc.returncode}, last line {last[0]!r}")
        else:
            print(f"bare directory: exit {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
