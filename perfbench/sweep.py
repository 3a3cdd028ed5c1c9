"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds S]
                               [--trace 0|1] [--out FILE]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median, next to the metric's bound in ``BENCHMARK.json``.
With ``--out`` the summary, every run's result and the environment record
are written as JSON; ``baseline.json`` in this directory was made this way.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary, runs, ok = {}, [], True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            env_line = next((l for l in lines if l.startswith("environment: ")), None)
            environment = json.loads(env_line.split(": ", 1)[1]) if env_line else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "result": result, "environment": environment})
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr}")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {name: spread(vals) for name, vals in values.items() if len(vals) > 1}
        for name, stats in summary[workload].items():
            bound = bounds.get(name)
            print(f"  {workload:22s} {name:40s} median {stats['median']:.5g}  "
                  f"iqr/median {stats['iqr_share']:.4f}"
                  + (f"  (bound {bound}, bound/3 {bound / 3:.4f})" if bound else ""))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seconds": args.seconds, "trace": args.trace, "summary": summary,
                       "runs": runs}, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
