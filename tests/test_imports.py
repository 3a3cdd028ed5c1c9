"""What a process loads: the packages resolve their exports on first use,
and each CLI subcommand imports only its own solver modules."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# what ``import decosim.cli`` loads before any subcommand runs
_CLI_MODULES = {"decosim", "decosim.cli", "decosim.core", "decosim.errors", "decosim.serialize"}
_RUNS = {
    "import-only": ([], set()),
    "estimate": (["estimate", "--mass-g", "1", "--temp-K", "300", "--dx-cm", "1"],
                 {"decosim.models", "decosim.models.estimates"}),
    "evolve": (["evolve", "--hamiltonian", "sigma_x", "--lindblad",
                '[{"operator": "sigma_z", "rate": 0.5}]', "--rho0", "plus", "--t-final", "0.2",
                "--dt", "0.01"],
               {"decosim.dynamics"}),
    "qbm": (["qbm", "--n-max", "14", "--alpha", "1", "--gamma0", "0.01", "--cutoff", "10",
             "--temperature", "10", "--t-final", "0.05", "--dt", "0.01"],
            {"decosim.dynamics", "decosim.models", "decosim.models.collisional",
             "decosim.models.qbm"}),
    "trajectories": (["trajectories", "--hamiltonian", "sigma_x", "--lindblad",
                      '[{"operator": "sigma_z", "rate": 0.5}]', "--t-final", "0.2",
                      "--dt", "0.01", "--n-trajectories", "4"],
                     {"decosim.dynamics"}),
    "spinboson": (["spinboson", "--gamma0", "0.01", "--cutoff", "8", "--temperature", "1",
                   "--t-max", "2", "--n-times", "5", "--n-modes", "8", "--no-check-convergence"],
                  {"decosim.baths", "decosim.dynamics", "decosim.models",
                   "decosim.models.spinboson"}),
    "collisional": (["collisional", "--density-amplitude", "1", "--q-max", "2", "--speed", "1",
                     "--f2", "1", "--dx-min", "0.01", "--dx-max", "100", "--n-dx", "9"],
                    {"decosim.models", "decosim.models.collisional"}),
    "qec": (["qec", "--p-list", "[0.05]", "--n-shots", "100"], {"decosim.qec"}),
    "dfs": (["dfs", "--collective", "--n", "4"], {"decosim.pointer"}),
}
_SCRIPT = (
    "import json, sys\n"
    "import decosim.cli\n"
    "argv = json.loads(sys.argv[1])\n"
    "assert not argv or decosim.cli.main(argv) == 0, argv\n"
    "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'decosim'),\n"
    "                  'concurrent.futures' in sys.modules, 'numpy.ma' in sys.modules]))\n"
)


@pytest.mark.parametrize("case", _RUNS)
def test_each_process_loads_only_its_subcommands_modules(tmp_path, case):
    # one fresh interpreter per case: a module loaded by one run would
    # otherwise show up in the next
    argv, solver = _RUNS[case]
    if argv:
        argv = argv + ["--output", str(tmp_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(argv)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded, thread_pool, masked_arrays = json.loads(done.stdout.splitlines()[-1])
    assert set(loaded) == _CLI_MODULES | solver
    assert not thread_pool  # one worker runs without the thread pool
    assert not masked_arrays  # numpy.ma, which np.unique loads, takes 9-20 ms to import


def test_collisional_library_path_loads_no_scipy_subpackage():
    # the rates and the grid evolution are closed forms summed in NumPy
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from decosim.models import (ScatteringModel, decoherence_rates, evolve_collisional,\n"
        "                            localization_rate, two_gaussian_superposition)\n"
        "model = ScatteringModel(1.0, 1.0, 1.0, 2.0)\n"
        "decoherence_rates(model)\n"
        "localization_rate(model, np.geomspace(1e-3, 1e3, 9))\n"
        "evolve_collisional(two_gaussian_superposition(np.linspace(-6, 6, 41), 4.0, 0.5),\n"
        "                   model, 0.5)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("package", ["decosim", "decosim.models"])
def test_every_export_resolves_to_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if name == "__version__":
            continue
        if name in pkg._EXPORTS:
            source = f"{package}.{pkg._EXPORTS[name]}"
            assert value is getattr(importlib.import_module(source), name), name
            assert getattr(value, "__module__", source) == source, name
        else:
            assert value is sys.modules[f"{package}.{name}"], name
    assert set(pkg.__all__) <= set(dir(pkg))
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pkg.__all__)


def test_submodules_and_unknown_names_as_attributes():
    import decosim

    assert decosim.models.qbm is importlib.import_module("decosim.models.qbm")
    assert decosim.pointer is importlib.import_module("decosim.pointer")
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        decosim.bogus
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        decosim.models.bogus
