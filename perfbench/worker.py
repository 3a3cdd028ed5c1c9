"""One workload run in a fresh process: set up, time ops, check every output.

Started by ``run.py``; writes its report as JSON to ``--report``.  Set-up
runs from process start until the first timed op can start: importing
``decosim``, generating the inputs, and one untimed warm-up op.  Ops run
in a closed loop with one caller: the next op starts only after the
previous one returned and was checked.  No pair of ops starts once
``--seconds`` have passed.

With ``--trace 1`` the ops run twice: untraced for half the time, then the
same ops again under the tracer, which gives the per-layer figures and the
tracing overhead.  The traced run also reruns the first trajectories step
at one worker and at ``nproc`` workers.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    return parser.parse_args(argv)


def output_files(outdir: str) -> dict[str, bytes]:
    """Every file the op wrote except the manifests, which carry the wall time."""
    found = {}
    for base, _, names in os.walk(outdir):
        for name in names:
            if name != "manifest.json":
                path = os.path.join(base, name)
                with open(path, "rb") as handle:
                    found[os.path.relpath(path, outdir)] = handle.read()
    return found


class Runner:
    """Runs ops through ``decosim.cli.main`` and checks them; counts failures."""

    def __init__(self, cli):
        self.cli = cli  # the module: main is looked up per call, so tracing sees it
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, steps, outdir: str, extra=()) -> tuple[float, float] | None:
        """Run one op; return its wall and CPU time, or None when it failed."""
        from workloads import OracleError

        self.attempted += 1
        elapsed = cpu = 0.0
        try:
            for step in steps:
                step_dir = os.path.join(outdir, step.name)
                out, err = io.StringIO(), io.StringIO()
                argv = list(step.argv) + list(extra) + ["--output", step_dir]
                t0, c0 = time.perf_counter(), time.process_time()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
                elapsed += time.perf_counter() - t0
                cpu += time.process_time() - c0
                if code != 0:
                    raise OracleError(f"{step.name} exited {code}: {err.getvalue().strip()}")
                step.check(step_dir, out.getvalue())
        except OracleError as exc:
            self._fail(str(exc))
            return None
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            self._fail(traceback.format_exc(limit=4))
            return None
        return elapsed, cpu

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def expect_identical(self, first: dict[str, bytes], second: dict[str, bytes],
                         what: str) -> bool:
        self.attempted += 1
        if first and first == second:
            return True
        differing = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        self._fail(f"{what}: outputs differ in {differing or 'no files written'}")
        return False


def machine_probe_s() -> float:
    """Fastest of three timings of a fixed pure-Python loop: the machine's current speed.

    Taken after set-up and after every op, outside their timing; ``run.py``
    scales those times by it (see ``REFERENCE_PROBE_S`` there).
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Loop:
    # wall time, CPU time and following probe time of each op that passed
    op_s: list[float] = field(default_factory=list)
    op_cpu_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    n_ops: int = 0
    first_output: dict[str, bytes] = field(default_factory=dict)  # files op 0 wrote


def timed_loop(runner: Runner, workload, draws, seconds: float, outdir: str,
               count: int | None = None, tracer=None) -> Loop:
    """Run ops 0, 1, ... until ``seconds`` pass (or ``count`` ops).

    Ops run in whole antithetic pairs (see ``workloads.Draws``), so a run's
    inputs are symmetric about the middle of every parameter range.
    """
    loop = Loop()
    loop_start = time.perf_counter()
    while (count is None and (time.perf_counter() - loop_start < seconds or loop.n_ops % 2)) or (
        count is not None and loop.n_ops < count
    ):
        steps = workload.build(draws.op(loop.n_ops))
        if tracer is None:
            took = runner.run(steps, outdir)
        else:
            with tracer.root("op"):
                took = runner.run(steps, outdir)
        probe = machine_probe_s()
        if took is not None:
            loop.op_s.append(took[0])
            loop.op_cpu_s.append(took[1])
            loop.probe_s.append(probe)
        if loop.n_ops == 0:
            loop.first_output = output_files(outdir)
        loop.n_ops += 1
    return loop


def environment(decosim_module) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        blas_vendor = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "decosim": decosim_module.__version__,
        "blas": blas_vendor,
    }


def main(argv=None) -> int:
    args = parse_args(argv)

    import_start = time.monotonic()
    import decosim
    import decosim.cli
    import_s = time.monotonic() - import_start

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(decosim.__file__).startswith(src + os.sep):
        print(f"decosim imported from {decosim.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    draws = workloads.Draws(args.seed, workload.ranges)
    runner = Runner(decosim.cli)
    outdir = os.path.join(args.workdir, "op")

    warm_start = time.monotonic()
    runner.run(workload.build(draws.top()), os.path.join(args.workdir, "warmup"))
    warmup_s = time.monotonic() - warm_start
    setup_s = time.monotonic() - args.spawned_at

    report = {
        "setup_s": setup_s,
        "setup_probe_s": machine_probe_s(),
        "import_s": import_s,
        "warmup_s": warmup_s,
        "environment": environment(decosim),
    }
    if not args.setup_only:
        if args.trace:
            report.update(traced_run(args, runner, workload, draws, outdir))
        else:
            loop = timed_loop(runner, workload, draws, args.seconds, outdir)
            # CPU time next to wall time tells a preempted process from a slower program
            report.update(op_s=loop.op_s, op_cpu_s=loop.op_cpu_s, probe_s=loop.probe_s)
            rerun_first_op(runner, workload.build(draws.op(0)), loop.first_output, args.workdir)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


def rerun_first_op(runner: Runner, steps, first: dict[str, bytes], workdir: str) -> None:
    """The README contract: identical inputs give byte-identical files."""
    target = os.path.join(workdir, "rerun")
    runner.run(steps, target)
    runner.expect_identical(first, output_files(target), "rerun of op 0")


def traced_run(args, runner: Runner, workload, draws, outdir: str) -> dict:
    from tracing import Tracer

    plain = timed_loop(runner, workload, draws, args.seconds / 2.0, outdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(runner, workload, draws, 0.0, outdir, count=plain.n_ops,
                            tracer=tracer)
        rerun_first_op(runner, workload.build(draws.op(0)), plain.first_output, args.workdir)
        speedup = worker_invariance(runner, tracer, workload.build(draws.op(0)), args.workdir)
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(args.workdir, "trace.json"))
    ops = tracer.root_ids("op")
    return {
        "op_s": plain.op_s,
        "traced_op_s": traced.op_s,
        "probe_s": plain.probe_s + traced.probe_s,
        "layers": tracer.totals(ops),
        "counts": tracer.counted(ops),
        "n_traced_ops": len(ops),
        "worker_speedup": speedup,
        "missing": tracer.missing,
    }


def worker_invariance(runner: Runner, tracer, steps, workdir: str) -> float | None:
    """Rerun the op's trajectories step at 1 and nproc workers; bytes must agree.

    Returns the unravel time at 1 worker over the time at nproc workers.
    """
    step = next((s for s in steps if s.trajectories), None)
    if step is None:
        return None
    nproc = len(os.sched_getaffinity(0))
    unravel_s, files = {}, {}
    for workers in (1, nproc):
        target = os.path.join(workdir, f"workers{workers}")
        with tracer.root(f"workers{workers}") as root:
            runner.run([step], target, extra=("--workers", str(workers)))
        unravel = tracer.totals({root}).get("dynamics.unravel", {})
        unravel_s[workers] = unravel.get("duration_s", 0.0)
        files[workers] = output_files(target)
    runner.expect_identical(files[1], files[nproc], f"trajectories at 1 vs {nproc} workers")
    return unravel_s[1] / unravel_s[nproc] if unravel_s[nproc] > 0 else None


if __name__ == "__main__":
    sys.exit(main())
