"""Each benchmark workload's first op passes its own oracles through the CLI.

``perfbench/workloads.py`` is loaded read-only: op 0 of seed 1 is built for
every workload, each step runs through ``decosim.cli.main`` and the step's
closed-form oracle checks the files and stdout it produced.  Steps that run a
trajectory ensemble are rerun at one and at two workers, and the two
``trajectories.csv`` files must be byte-identical.  A change that would fail a
benchmark op (a dropped flag, a renamed summary key, an oracle that no longer
holds) fails here first.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from decosim.cli import main

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run(argv, outdir: Path, capsys) -> str:
    code = main([*argv, "--output", str(outdir)])
    out, err = capsys.readouterr()
    assert code == 0, f"{argv[0]} exited {code}: {err.strip()}"
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_benchmark_op_passes_its_oracles(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    steps = workload.build(workloads.Draws(1, workload.ranges).op(0))
    for step in steps:
        outdir = tmp_path / step.name
        step.check(str(outdir), _run(step.argv, outdir, capsys))
        if step.trajectories:
            tables = []
            for n_workers in (1, 2):
                rerun = tmp_path / f"{step.name}-workers{n_workers}"
                _run([*step.argv, "--workers", str(n_workers)], rerun, capsys)
                tables.append((rerun / "trajectories.csv").read_bytes())
            assert tables[0] == tables[1]
            assert tables[0] == (outdir / "trajectories.csv").read_bytes()
