"""decosim benchmark: seeded CLI workloads, end-to-end metrics, per-layer traces.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): trajectory_ensemble,
cat_master_equation, spin_boson_crossval, cli_sweep.  Every op goes through
the public entry point ``decosim.cli.main(argv)`` in process, in a closed
loop with one caller, and every op's files are checked against a closed form.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Their times are scaled to a reference machine speed: after set-up and after
every op, outside their timing, a fixed pure-Python loop is timed, and each
time is multiplied by ``REFERENCE_PROBE_S`` over that loop's time.  On the
shared 2-core machine the baseline comes from, the same op took about 0.65 s
in some periods and about 0.9 s in others, with CPU time equal to wall time,
and the loop's time followed those periods; the scaling took the 10-seed
quartile spread of trajectory_ensemble's ``op_s_p50`` from 0.24 to 0.04.
Unscaled wall times are printed and kept in the records.

* ``setup_s`` (s): process start until the first timed op can start, i.e.
  import, input generation and one warm-up op.  Set-up is repeated in
  ``SETUP_RUNS`` fresh processes and the median is reported.
* ``ops_per_s`` (ops/s): timed ops divided by their summed (scaled) time.
* ``op_s_p50`` (s): median (scaled) op time.  A run has fewer than ~30 ops, so
  no tail percentile is reported; the op count is printed instead.
* ``peak_rss_mb`` (MiB): high-water RSS of the process that ran the ops.
* ``failed_ratio``: failed over attempted ops.  It is printed by name and
  carried by the result's ``failed``/``attempted`` fields rather than as a
  metric, since it is 0 whenever the program is correct.

``--trace 1`` reports the per-layer metrics of a traced run (``tracing.py``):
self time and call counts per op for each traced function, work counters,
the trajectory worker speed-up, and the tracing overhead.

Each op is also rerun and its files must be byte-identical; the traced run
also requires trajectories output to be bitwise identical at 1 worker and at
``nproc`` workers.  BLAS/OpenMP threads are pinned to 1 and
``DECOSIM_WORKERS`` to 1, so no more threads than ``nproc`` compute at once.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op passed its checks.  Full records (environment, per-op
times, spans) go to ``.perfbench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 3
# the probe loop's time on the baseline machine in its usual state (2.1 GHz
# Xeon); scaled times read as wall seconds on that machine in that state
REFERENCE_PROBE_S = 0.008
DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DECOSIM_WORKERS": "1",
}
WORKLOADS = ("trajectory_ensemble", "cat_master_equation", "spin_boson_crossval", "cli_sweep")

# traced names whose self time, call count or counter is reported per op
LAYER_SELF = (
    "cli.main", "serialize.write_csv", "serialize.write_coordinate_matrix",
    "dynamics.unravel", "dynamics.evolve", "dynamics.LindbladSpec.rhs",
    "core.DensityMatrix", "core.entropy", "models.qbm.CaldeiraLeggettGenerator.rhs",
    "models.qbm.wigner_from_fock", "baths.spin_boson_coefficients", "baths.bath_kernels",
    "models.spinboson.spin_boson_exact_dephasing",
    "models.spinboson.SpinBosonBornMarkovGenerator.rhs",
    "models.collisional.localization_rate", "models.spinspin.spin_spin_exact",
    "pointer.predictability_sieve", "pointer.collective_dfs",
)
LAYER_CALLS = (
    "dynamics.LindbladSpec.rhs", "core.DensityMatrix",
    "models.qbm.CaldeiraLeggettGenerator.rhs", "models.collisional.localization_rate",
)
LAYER_COUNTS = (
    ("serialize.bytes_written", "B"),
    ("dynamics.evolve.rk4_steps", "count"),
    ("models.spinboson.mode_solves", "count"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="decosim benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def read_loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def child_env() -> tuple[dict, dict]:
    env = dict(os.environ)
    found = {key: env.get(key) for key in PINNED_ENV}
    env.update(PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, found


def run_worker(args, workdir: str, env: dict, deadline: float, setup_only: bool) -> dict:
    os.makedirs(workdir)
    report = os.path.join(workdir, "report.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--report", report,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    with open(report, encoding="utf-8") as handle:
        return json.load(handle)


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured while the probe loop took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def end_to_end(runs: list[dict], scale: bool = True) -> dict:
    """The end-to-end metrics; ``scale=False`` gives the unscaled wall times."""
    main = runs[0]
    unit = scaled if scale else (lambda seconds, probe_s: seconds)
    ops = [unit(t, p) for t, p in zip(main["op_s"], main["probe_s"])]
    setups = [unit(r["setup_s"], r["setup_probe_s"]) for r in runs]
    ops = ops or [math.inf]  # no op passed: the run is reported as not correct
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(main["op_s"]) / sum(ops), "unit": "ops/s"},
        "op_s_p50": {"value": statistics.median(ops), "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MiB"},
    }


def per_layer(main: dict) -> dict:
    n_ops = max(1, main["n_traced_ops"])
    layers, counts = main["layers"], main["counts"]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0)

    out = {
        "setup.import_s": {"value": main["import_s"], "unit": "s"},
        "setup.warmup_s": {"value": main["warmup_s"], "unit": "s"},
    }
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = {"value": layer(name, "self_s") / n_ops, "unit": "s"}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = {"value": layer(name, "calls") / n_ops, "unit": "count"}
    for name, unit in LAYER_COUNTS:
        out[name] = {"value": counts.get(name, 0.0) / n_ops, "unit": unit}
    unravel_s = layer("dynamics.unravel", "duration_s")
    steps = counts.get("dynamics.unravel.traj_steps", 0.0)
    out["dynamics.unravel.traj_steps_per_s"] = {
        "value": steps / unravel_s if unravel_s > 0 else 0.0, "unit": "1/s"}
    out["dynamics.unravel.worker_speedup"] = {
        "value": main["worker_speedup"] or 0.0, "unit": "ratio"}
    plain = main["op_s"][: len(main["traced_op_s"])]
    out["trace.overhead_ratio"] = {
        "value": sum(main["traced_op_s"]) / sum(plain) - 1.0 if plain else 0.0, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "decosim", "cli.py")):
        print(f"no decosim sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    env, found = child_env()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "loadavg_start": read_loadavg(),
        "machine": platform.machine(), "threads_found": found, "threads_set": PINNED_ENV,
    }
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runs = [run_worker(args, os.path.join(scratch, "main"), env, deadline, False)]
        if not args.trace:
            for k in range(1, SETUP_RUNS):
                workdir = os.path.join(scratch, f"setup{k}")
                runs.append(run_worker(args, workdir, env, deadline, True))
        trace_file = os.path.join(scratch, "main", "trace.json")
        if os.path.exists(trace_file):
            kept = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.json")
            shutil.copy(trace_file, kept)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    main_run = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    if args.trace:
        metrics = per_layer(main_run)
        n_ops = main_run["n_traced_ops"]
    else:
        metrics = end_to_end(runs)
        n_ops = len(main_run["op_s"])
        record["unscaled"] = end_to_end(runs, scale=False)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = failed == 0 and finite and n_ops > 0
    if not finite:  # keep the result line valid JSON
        metrics = {k: {**m, "value": m["value"] if math.isfinite(m["value"]) else 0.0}
                   for k, m in metrics.items()}
    record.update(
        environment=main_run["environment"], loadavg_end=read_loadavg(),
        wall_s=time.monotonic() - started, n_ops=n_ops, attempted=attempted, failed=failed,
        errors=errors, metrics=metrics,
        runs=[{k: v for k, v in r.items() if k not in ("layers", "counts")} for r in runs],
    )
    if args.trace:
        record["layers"] = main_run["layers"]
        record["missing_trace_targets"] = main_run["missing"]
    with open(os.path.join(OUT, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {n_ops} ops, "
          f"{attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        unscaled = record.get("unscaled", {}).get(name)
        timed = unscaled and name != "peak_rss_mb"
        extra = f"  (unscaled wall {unscaled['value']:.6g})" if timed else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"  failed_ratio = {failed / attempted if attempted else 0.0:.6g} fraction")
    probe = statistics.median(main_run["probe_s"]) if main_run.get("probe_s") else None
    print("environment: " + json.dumps(
        {**main_run["environment"], "nproc": record["nproc"], "loadavg": record["loadavg_start"],
         "threads_found": found, "threads_set": PINNED_ENV, "machine_probe_s": probe},
        sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
