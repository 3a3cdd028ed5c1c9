import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import decosim.cli
from decosim import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    LindbladSpec,
    Operator,
    evolve,
)
from decosim.cli import COMMANDS, main
from decosim.models import (
    CaldeiraLeggettGenerator,
    ScatteringModel,
    SpinEnvironment,
    cat_state,
    coherent_state,
    table1_scenarios,
    timescale_ratio,
    truncation_tail,
    wigner_from_fock,
)
from decosim.models.estimates import ENVIRONMENTS, OBJECTS
from decosim.pointer import predictability_sieve
from decosim.qec import logical_error_rate
from decosim.serialize import format_value

from conftest import quad_localization_rate, quad_rates

ROOT = Path(__file__).resolve().parents[1]


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _column(header, rows, name):
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


def _manifest(outdir):
    with open(outdir / "manifest.json") as handle:
        return json.load(handle)


EVOLVE_FLAGS = [
    "evolve",
    "--hamiltonian", "identity",
    "--lindblad", '[{"operator": "sigma_z", "rate": 0.5}]',
    "--t-final", "0.5",
    "--dt", "0.001",
    "--store-every", "100",
]


def test_evolve_writes_csv_and_manifest(tmp_path):
    assert main(EVOLVE_FLAGS + ["--output", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "evolve.csv")
    t = _column(header, rows, "t")
    trace = _column(header, rows, "rho_0_0_re") + _column(header, rows, "rho_1_1_re")
    assert np.abs(trace - 1.0).max() < 1e-10
    # identity Hamiltonian commutes away; pure dephasing at rate 0.5
    coh = _column(header, rows, "rho_0_1_re")
    assert np.abs(coh - 0.5 * np.exp(-t)).max() < 1e-8
    manifest = _manifest(tmp_path)
    assert manifest["subcommand"] == "evolve"
    assert manifest["outputs"] == ["evolve.csv"]
    assert manifest["config"]["t_final"] == 0.5
    assert set(manifest["versions"]) == {"python", "numpy", "decosim"}
    assert manifest["wall_time_s"] > 0


def test_identical_runs_produce_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(EVOLVE_FLAGS + ["--output", str(a)]) == 0
    assert main(EVOLVE_FLAGS + ["--output", str(b)]) == 0
    assert (a / "evolve.csv").read_bytes() == (b / "evolve.csv").read_bytes()


def test_manifest_config_reproduces_the_run(tmp_path):
    # the manifest's config lists the keys the run read, so it reruns, and
    # gives the same data files, through --config; a key left unset, such as
    # qbm's auto-window x_max, is neither read nor recorded
    runs = [EVOLVE_FLAGS, _QBM_FLAGS + ["--wigner"]]  # no --x-max: the auto window
    for command, bases in _SWEEP_BASES.items():
        for k, base in enumerate(bases):
            path = tmp_path / f"{command}-{k}.json"
            path.write_text(json.dumps(base))
            runs.append([command, "--config", str(path)])
    for k, argv in enumerate(runs):
        first, second = tmp_path / f"first-{k}", tmp_path / f"second-{k}"
        assert main(argv + ["--output", str(first)]) == 0, argv
        assert None not in _manifest(first)["config"].values(), argv
        cfg_path = tmp_path / f"replay-{k}.json"
        cfg_path.write_text(json.dumps(_manifest(first)["config"]))
        assert main([argv[0], "--config", str(cfg_path), "--output", str(second)]) == 0, argv
        files = _output_bytes(first)
        assert files.pop("manifest.json")["config"] == dict(
            _manifest(second)["config"], output=str(first))
        assert files == {name: data for name, data in _output_bytes(second).items()
                         if name != "manifest.json"}, argv


def test_flags_override_the_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "hamiltonian": "identity",
        "lindblad": [{"operator": "sigma_z", "rate": 0.5}],
        "t_final": 1.0,
        "dt": 0.001,
        "store_every": 100,
    }))
    assert main(["evolve", "--config", str(cfg_path), "--t-final", "0.5",
                 "--output", str(tmp_path)]) == 0
    assert _manifest(tmp_path)["config"]["t_final"] == 0.5


def test_config_errors_exit_2(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"t_final": 1.0, "dt": 0.1,
                                   "hamiltonian": "sigma_z", "bogus": 3}))
    assert main(["evolve", "--config", str(bad_key), "--output", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err

    # missing required key
    assert main(["evolve", "--hamiltonian", "sigma_z", "--dt", "0.1",
                 "--output", str(tmp_path)]) == 2
    # wrong JSON type for a scalar
    bad_type = tmp_path / "bad_type.json"
    bad_type.write_text(json.dumps({"t_final": 1.0, "dt": "abc",
                                    "hamiltonian": "sigma_z"}))
    assert main(["evolve", "--config", str(bad_type), "--output", str(tmp_path)]) == 2
    # unknown operator name
    assert main(["evolve", "--hamiltonian", "sigma_q", "--t-final", "1",
                 "--dt", "0.1", "--output", str(tmp_path)]) == 2
    # malformed lindblad entry
    assert main(["evolve", "--hamiltonian", "sigma_z", "--t-final", "1",
                 "--dt", "0.1", "--lindblad", '[{"operator": "sigma_z"}]',
                 "--output", str(tmp_path)]) == 2


def test_numerical_contract_violations_exit_3(tmp_path, capsys):
    rc = main(["spinboson", "--gamma0", "0.02", "--cutoff", "8",
               "--temperature", "2", "--t-max", "5", "--n-times", "6",
               "--n-modes", "4", "--no-born-markov", "--output", str(tmp_path)])
    assert rc == 3
    assert "numerical contract violated" in capsys.readouterr().err
    # a Liouvillian far too stiff for the Taylor branch (n_max above the dense limit)
    rc = main(_QBM_FLAGS + ["--n-max", "20", "--gamma0", "1e300", "--cutoff", "1e-300",
                            "--output", str(tmp_path)])
    assert rc == 3
    assert "too stiff to propagate" in capsys.readouterr().err
    # an 11-point window misses trace mass: the grid check fails after the
    # evolution, and no table of the run is left behind
    outdir = tmp_path / "coarse-wigner"
    config = tmp_path / "coarse-wigner.json"
    config.write_text(json.dumps(dict(_SWEEP_BASES["qbm"][0], wigner=True, n_x=11)))
    assert main(["qbm", "--config", str(config), "--output", str(outdir)]) == 3
    assert "position grid captures trace" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("command, blocked", [
    ("evolve", "evolve.csv"),
    ("evolve", "manifest.json"),
    ("qbm", "wigner_final_matrix.csv"),  # the last of five tables, with --wigner
    ("dfs", "dfs_basis.json"),  # --collective, whose dimension line is printed only on success
])
def test_an_unwritable_output_exits_2_and_leaves_no_file(tmp_path, capsys, command, blocked):
    # a directory at an output's name fails its write; the files the run wrote
    # before it are removed again, and the directory is all that is left
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_SWEEP_BASES[command][0]))
    outdir = tmp_path / "out"
    (outdir / blocked).mkdir(parents=True)
    assert main([command, "--config", str(config), "--output", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    _assert_one_line(err, 2)
    assert err.startswith("config error: 'output': cannot write ") and blocked in err
    assert [p.name for p in outdir.iterdir()] == [blocked]


def test_trajectories_track_the_master_equation(tmp_path):
    rc = main([
        "trajectories",
        "--hamiltonian", "identity",
        "--lindblad", '[{"operator": "sigma_z", "rate": 1.0}]',
        "--t-final", "0.2", "--dt", "0.002", "--n-trajectories", "100",
        "--master-seed", "11", "--store-every", "25", "--output", str(tmp_path),
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "trajectories.csv")
    dist = _column(header, rows, "trace_distance")
    assert dist[0] < 1e-12
    assert dist.max() < 0.2
    manifest = _manifest(tmp_path)
    assert manifest["seed"] == 11
    assert manifest["summary"]["final_trace_distance"] == dist[-1]


_TRAJECTORY_BOUND_CASES = [
    ["--n-trajectories", "0"],
    ["--n-trajectories", "10", "--store-every", "0"],
    ["--n-trajectories", "10", "--workers", "0"],
    ["--n-trajectories", "10", "--dt", "0"],
    ["--n-trajectories", "10", "--t-final", "-1"],
    ["--n-trajectories", "10", "--t-final", "nan"],
    ["--n-trajectories", "10", "--workers", "1e19"],
    ["--n-trajectories", "10", "--workers", "1.5"],
    ["--n-trajectories", "10", "--master-seed", "18446744073709551616"],
    ["--n-trajectories", "10", "--master-seed", "1e300"],
    ["--n-trajectories", "10", "--master-seed", "-1"],
]


@pytest.mark.parametrize(
    "flags", _TRAJECTORY_BOUND_CASES,
    ids=[f"flags{k}" for k in range(len(_TRAJECTORY_BOUND_CASES))],
)
def test_trajectory_bounds_exit_2(tmp_path, capsys, flags):
    rc = main([
        "trajectories", "--hamiltonian", "identity",
        "--lindblad", '[{"operator": "sigma_z", "rate": 1.0}]',
        "--t-final", "0.1", "--dt", "0.01", "--output", str(tmp_path),
    ] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


def test_trajectories_at_t_final_0_write_the_initial_ensemble(tmp_path):
    # no step: the ensemble is psi0 psi0^dag, as evolve's t = 0 state
    flags = ["--hamiltonian", "sigma_x", "--lindblad", '[{"operator": "sigma_z", "rate": 0.5}]',
             "--t-final", "0", "--dt", "0.01"]
    assert main(["trajectories", *flags, "--n-trajectories", "3000",
                 "--output", str(tmp_path / "traj")]) == 0
    assert main(["evolve", *flags, "--output", str(tmp_path / "evolve")]) == 0
    header, rows = _read_csv(tmp_path / "traj" / "trajectories.csv")
    ref_header, ref_rows = _read_csv(tmp_path / "evolve" / "evolve.csv")
    assert len(rows) == len(ref_rows) == 1
    for name in ref_header[3:]:
        want = _column(ref_header, ref_rows, name)
        assert _column(header, rows, "ens_" + name) == want
        assert _column(header, rows, "ref_" + name) == want
    assert _column(header, rows, "trace_distance") == 0.0


def test_the_worker_count_comes_from_the_config_alone(tmp_path):
    # the count comes from the config or flag alone, never from the environment
    argv = ["trajectories", *_DEPHASING_FLAGS, "--dt", "0.01", "--n-trajectories", "3000"]
    outputs = []
    for name, extra_env in (("default", {}), ("env", {"DECOSIM_WORKERS": "abc"})):
        done = subprocess.run([sys.executable, "-m", "decosim", *argv, "--output",
                               str(tmp_path / name)], env=_child_env(extra_env),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert _manifest(tmp_path / name)["config"]["workers"] == 1
        outputs.append((tmp_path / name / "trajectories.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_master_seed_keeps_its_uint64_range(tmp_path):
    # the seed range is [0, 2**64): seeds from 2**63 up are not int64s but still run
    for seed in (2**63, 2**64 - 1):
        rc = main(["trajectories", *_DEPHASING_FLAGS, "--dt", "0.1", "--n-trajectories", "2",
                   "--master-seed", str(seed), "--output", str(tmp_path)])
        assert rc == 0
        assert _manifest(tmp_path)["seed"] == seed


def _child_env(extra_env):
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def _cli_child(argv, extra_env, prelude="", timeout=120):
    """``main(argv)`` in a fresh interpreter; the child prints its own peak RSS in KiB."""
    script = (
        "import sys\n" + prelude + "import decosim.cli\n"
        "rc = decosim.cli.main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM')))\n"
        "sys.exit(rc)\n"
    )
    return subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(extra_env),
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS and /proc")
def test_huge_ensemble_is_refused_before_any_block_runs(tmp_path):
    # only ever run with the child's own address space capped at 1 GiB: an
    # unravel that walks its blocks before allocating would otherwise grow
    # for many GB before anything refused the size
    cap = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    )
    done = _cli_child([
        "trajectories", "--hamiltonian", "identity",
        "--lindblad", '[{"operator": "sigma_z", "rate": 1.0}]',
        "--t-final", "0.1", "--dt", "0.01", "--n-trajectories", "1000000000000000",
        "--output", str(tmp_path),
    ], {"OPENBLAS_NUM_THREADS": "1"}, prelude=cap)
    assert done.returncode == 2, done.stderr
    _assert_one_line(done.stderr, 2)
    assert "out of memory" in done.stderr
    assert int(done.stdout.split()[-1]) < 200 * 1024


def _output_bytes(outdir):
    """Every file under ``outdir`` by relative path; manifests without their wall time."""
    found = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = {k: v for k, v in json.loads(data).items() if k != "wall_time_s"}
            found[str(path.relative_to(outdir))] = data
    return found


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # criterion 11's cat Wigner dump; a trajectory ensemble with non-commuting
    # H, L_1 and L_2 over more than two blocks; and every base config of the
    # schema sweep, which covers each subcommand.  Each thread count runs all
    # of them through ``main`` in one child.
    runs = {
        "qbm-cat-wigner": [
            "qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "50", "--n-max", "30",
            "--pure-decoherence", "--alpha", "2", "--t-final", "0.04", "--dt", "2e-4",
            "--store-every", "50", "--wigner", "--n-x", "161", "--x-max", "8",
        ],
        "trajectories-blocks": [
            "trajectories", "--hamiltonian", "sigma_x",
            "--lindblad", '[{"operator": "sigma_z", "rate": 0.7}, '
                          '{"operator": "sigma_y", "rate": 0.4}]',
            "--psi0", "plus", "--t-final", "0.3", "--dt", "0.005",
            "--n-trajectories", "2100", "--store-every", "7", "--master-seed", "5",
        ],
    }
    for command, bases in _SWEEP_BASES.items():
        for k, base in enumerate(bases):
            path = tmp_path / f"{command}-{k}.json"
            path.write_text(json.dumps(base))
            runs[f"{command}-{k}"] = [command, "--config", str(path)]
    assert {argv[0] for argv in runs.values()} == set(COMMANDS)
    argvs = json.dumps([argv + ["--output", name] for name, argv in runs.items()])
    script = (
        "import json, sys\nimport decosim.cli\n"
        "sys.exit(max(decosim.cli.main(argv) for argv in json.loads(sys.argv[1])))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads  # relative outputs keep the manifests' paths equal
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", script, argvs], cwd=cwd, capture_output=True, text=True,
            env=_child_env({"OPENBLAS_NUM_THREADS": threads}),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(_output_bytes(cwd))
    assert len(outputs[0]) > 2 * len(runs)
    assert sorted(outputs[0]) == sorted(outputs[1])
    assert [name for name in outputs[0] if outputs[0][name] != outputs[1][name]] == []


def test_collisional_rates_and_curve(tmp_path):
    rc = main([
        "collisional", "--density-amplitude", "1.0", "--q-max", "2.0",
        "--speed", "1.0", "--f2", "1.0", "--dx-min", "0.01", "--dx-max", "100",
        "--n-dx", "9", "--output", str(tmp_path),
    ])
    assert rc == 0
    summary = _manifest(tmp_path)["summary"]
    assert summary["gamma_tot"] == pytest.approx(8.0 * np.pi, rel=1e-6)
    header, rows = _read_csv(tmp_path / "collisional.csv")
    rate = _column(header, rows, "localization_rate")
    quad = _column(header, rows, "lambda_dx2")
    dx = _column(header, rows, "dx")
    # saturates at the total rate for wide separations, quadratic for small
    assert abs(rate[-1] - summary["gamma_tot"]) < 0.02 * summary["gamma_tot"]
    assert rate[0] == pytest.approx(quad[0], rel=1e-3)
    assert np.all(np.diff(dx) > 0)


# each regime of the rate is a column of the one CSV: the full curve and its
# short-wavelength (Gamma_tot) and long-wavelength (Lambda dx^2) limits
_COLLISIONAL_REGIME_COLUMNS = {
    "full": ("localization_rate", quad_localization_rate),
    "short-wavelength": ("gamma_tot", lambda model, dx: quad_rates(model)[0]),
    "long-wavelength": ("lambda_dx2", lambda model, dx: quad_rates(model)[1] * dx**2),
}


@pytest.mark.parametrize("regime", sorted(_COLLISIONAL_REGIME_COLUMNS))
def test_collisional_curve_matches_localization_rate(tmp_path, regime):
    rc = main([
        "collisional", "--density-amplitude", "1.3", "--q-max", "2.0",
        "--speed", "0.7", "--f2", "1.1", "--dx-min", "0.01", "--dx-max", "50",
        "--n-dx", "7", "--output", str(tmp_path),
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "collisional.csv")
    column, oracle = _COLLISIONAL_REGIME_COLUMNS[regime]
    model = ScatteringModel(1.3, 0.7, 1.1, 2.0)
    expected = [oracle(model, dx) for dx in _column(header, rows, "dx")]
    assert _column(header, rows, column) == pytest.approx(expected, rel=1e-9)


def test_qbm_emits_coherence_and_wigner_grids(tmp_path):
    # the default 201-point grid is needed: the auto window widens with
    # temperature and a coarse grid trips the momentum-aliasing guard
    for alpha in ("1.0", "0"):  # alpha 0 starts from the vacuum
        out = tmp_path / alpha
        rc = main([
            "qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "10",
            "--alpha", alpha, "--t-final", "0.01", "--dt", "0.001",
            "--store-every", "2", "--n-max", "25", "--n-x", "201",
            "--output", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out / "qbm.csv")
        rel = _column(header, rows, "relative_coherence")
        assert rel[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(rel <= 1.0 + 1e-9)
        for name in ("wigner_initial.csv", "wigner_final.csv",
                     "wigner_initial_matrix.csv", "wigner_final_matrix.csv"):
            assert (out / name).exists()
        mat_header, mat_rows = _read_csv(out / "wigner_initial_matrix.csv")
        assert mat_header[0] == "row\\col"
        assert len(mat_rows) == 201


_QBM_CAT_FLAGS = [
    "qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "10", "--alpha", "1.0",
    "--n-max", "20", "--t-final", "0.01", "--dt", "0.001", "--store-every", "5",
]
_QBM_WIGNER_FLAGS = _QBM_CAT_FLAGS + ["--wigner", "--n-x", "61", "--x-max", "6"]


def test_qbm_stacked_columns_match_the_per_state_loop(tmp_path):
    assert main(_QBM_CAT_FLAGS + ["--no-wigner", "--output", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "qbm.csv")
    gen = CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=20)
    psi = cat_state(1.0, 20).amplitudes
    res = evolve(gen, DensityMatrix(np.outer(psi, psi.conj())), 0.01, 0.001, 5)
    left, right = coherent_state(1.0, 20).amplitudes, coherent_state(-1.0, 20).amplitudes
    cross = np.array([abs(left.conj() @ state @ right) for state in res.states])
    tail = [truncation_tail(state) for state in res.states]
    # cells round-trip exactly, so equality here is equality of the bytes
    assert _column(header, rows, "relative_coherence").tolist() == (cross / cross[0]).tolist()
    assert _column(header, rows, "tail_population").tolist() == tail


def test_wigner_triples_and_matrix_hold_the_same_cells(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(_QBM_WIGNER_FLAGS + ["--output", str(first)]) == 0
    for tag in ("initial", "final"):
        tri_header, triples = _read_csv(first / f"wigner_{tag}.csv")
        mat_header, mat_rows = _read_csv(first / f"wigner_{tag}_matrix.csv")
        assert tri_header == ["x", "p", "w"]
        p_cells = mat_header[1:]
        assert len(p_cells) == 61 and len(mat_rows) == 61
        expected = [[row[0], p, w] for row in mat_rows for p, w in zip(p_cells, row[1:])]
        assert triples == expected  # the same text at every (x, p), in row-major order
    # identical configs give identical bytes in every data file
    assert main(_QBM_WIGNER_FLAGS + ["--output", str(second)]) == 0
    for name in ("qbm.csv", "wigner_initial.csv", "wigner_final.csv",
                 "wigner_initial_matrix.csv", "wigner_final_matrix.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_wigner_files_match_per_cell_rendering_byte_for_byte(tmp_path):
    assert main(_QBM_WIGNER_FLAGS + ["--output", str(tmp_path)]) == 0
    gen = CaldeiraLeggettGenerator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=20)
    psi = cat_state(1.0, 20).amplitudes
    res = evolve(gen, DensityMatrix(np.outer(psi, psi.conj())), 0.01, 0.001, 5)
    positions = np.linspace(-6.0, 6.0, 61)
    for tag, state in (("initial", res.states[0]), ("final", res.states[-1])):
        grid = wigner_from_fock(state, 1.0, 1.0, positions)
        x, p = ([format_value(v) for v in axis.tolist()] for axis in (grid.x, grid.p))
        w = [[format_value(v) for v in row] for row in grid.values.tolist()]
        triples = ["x,p,w"] + [f"{xc},{pc},{wc}" for xc, row in zip(x, w)
                               for pc, wc in zip(p, row)]
        matrix = [",".join(["row\\col", *p])] + [",".join([xc, *row]) for xc, row in zip(x, w)]
        for name, lines in ((f"wigner_{tag}.csv", triples), (f"wigner_{tag}_matrix.csv", matrix)):
            assert (tmp_path / name).read_bytes() == "\n".join([*lines, ""]).encode(), name


def test_spinboson_exact_and_weak_coupling_columns(tmp_path):
    rc = main([
        "spinboson", "--gamma0", "0.02", "--cutoff", "8", "--temperature", "2",
        "--t-max", "0.5", "--n-times", "6", "--output", str(tmp_path),
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "spinboson.csv")
    exact = _column(header, rows, "exact_abs")
    weak = _column(header, rows, "born_markov_abs")
    assert exact[0] == pytest.approx(1.0, abs=1e-12)
    assert weak[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(exact) < 0)
    summary = _manifest(tmp_path)["summary"]
    assert abs(summary["population_drift"]) < 1e-10
    assert abs(summary["mode_doubling_change"]) < 0.02


@pytest.mark.parametrize("flags", [
    ["--n-times", "1"],
    ["--t-max", "0"],
    ["--t-max", "inf"],
    ["--n-modes", "0"],
    ["--temperature", "-1", "--no-born-markov"],
    ["--temperature", "nan", "--no-born-markov"],
    ["--cutoff", "0"],
    ["--gamma0", "nan"],
])
def test_spinboson_bounds_exit_2(tmp_path, capsys, flags):
    rc = main([
        "spinboson", "--gamma0", "0.02", "--cutoff", "8", "--temperature", "2",
        "--t-max", "0.5", "--n-times", "6", "--output", str(tmp_path),
    ] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


_QBM_FLAGS = [
    "qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "10", "--alpha", "1.0",
    "--n-max", "10", "--t-final", "0.1", "--dt", "0.01", "--no-wigner",
]


@pytest.mark.parametrize("argv", [
    _QBM_FLAGS + ["--n-max", "2"],
    _QBM_FLAGS + ["--temperature", "-1"],
    _QBM_FLAGS + ["--cutoff", "-1"],
    _QBM_FLAGS + ["--gamma0", "-0.01"],
    _QBM_FLAGS + ["--dt", "-0.01"],
    _QBM_FLAGS + ["--store-every", "0"],
    _QBM_FLAGS + ["--t-final", "nan"],
    EVOLVE_FLAGS + ["--dt", "-0.01"],
    EVOLVE_FLAGS + ["--store-every", "0"],
    EVOLVE_FLAGS + ["--t-final", "nan"],
])
def test_evolve_and_qbm_bounds_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("x_max", ["0", "-0.0", "1e300"])
def test_qbm_wigner_window_is_checked_before_the_evolution(tmp_path, capsys, x_max):
    # a window that fails the grid rule, or whose |x| sqrt(M w) squared
    # overflows, exits before any file is written
    assert main(_QBM_FLAGS + ["--wigner", f"--x-max={x_max}", "--output", str(tmp_path)]) == 2
    _assert_one_line(capsys.readouterr().err, 2)
    assert list(tmp_path.iterdir()) == []


def test_spinspin_matches_the_product_reference(tmp_path):
    rc = main([
        "spinspin", "--couplings", "[0.3, 0.7]", "--t-max", "2.0",
        "--n-times", "9", "--output", str(tmp_path),
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "spinspin.csv")
    coh = _column(header, rows, "coherence_abs")
    ref = _column(header, rows, "product_reference")
    t = _column(header, rows, "t")
    assert np.abs(coh - ref).max() < 1e-9
    assert np.abs(ref - np.abs(np.cos(0.3 * t) * np.cos(0.7 * t))).max() < 1e-12


def test_sieve_ranks_the_coupling_eigenstates_first(tmp_path, capsys):
    rc = main([
        "sieve", "--scenario", "dephasing-qubit", "--kappa", "1.0",
        "--t-final", "1.0", "--n-times", "5", "--output", str(tmp_path),
    ])
    assert rc == 0
    assert "ranking (most predictable first): zero, one, plus, minus" in capsys.readouterr().out
    ranking = _manifest(tmp_path)["summary"]["ranking"]
    # each tied pair keeps its candidate order
    assert ranking == ["zero", "one", "plus", "minus"]
    header, rows = _read_csv(tmp_path / "sieve.csv")
    assert header == ["label", "t", "purity", "entropy"]
    assert len(rows) == 4 * 5


def test_dfs_collective_payload(tmp_path, capsys):
    assert main(["dfs", "--collective", "--n", "4", "--output", str(tmp_path)]) == 0
    assert "dimension 6" in capsys.readouterr().out
    payload = json.loads((tmp_path / "dfs_basis.json").read_text())
    assert payload["dimension"] == 6
    assert sorted(payload["basis_labels"]) == sorted(
        ["1100", "1010", "1001", "0110", "0101", "0011"]
    )
    assert len(payload["basis"]) == 6


def test_dfs_explicit_interaction(tmp_path):
    rc = main([
        "dfs", "--system-terms", '["sigma_z"]', "--env-terms", '["sigma_x"]',
        "--output", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "dfs_basis.json").read_text())
    assert payload["dimension"] >= 1
    assert payload["certificate_defect"] < 1e-10
    # mode selection is validated
    assert main(["dfs", "--output", str(tmp_path)]) == 2


def test_dfs_collective_bytes_match_the_pair_list_path(tmp_path):
    from decosim.pointer import collective_dfs
    from test_serialize import matrix_to_pairs

    assert main(["dfs", "--collective", "--n", "8", "--output", str(tmp_path)]) == 0
    report = collective_dfs(8)
    payload = {
        "dimension": report.dimension,
        "magnetization": report.magnetization,
        "exact_bits": report.exact_bits,
        "stirling_bits": report.stirling_bits,
        "efficiency": report.efficiency,
        "odd_fallback": report.odd_fallback,
        "basis_labels": report.labels,
        "basis": [matrix_to_pairs(row) for row in report.result.basis],
    }
    expected = json.dumps(payload, sort_keys=True) + "\n"
    assert (tmp_path / "dfs_basis.json").read_bytes() == expected.encode()


# XX + ZZ on two qubits: eigenvalue 0 on the span of (|00> - |11>) and (|01> + |10>)
_XX_PLUS_ZZ = [[1, 0, 0, 1], [0, -1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1]]


def test_dfs_find_bytes_match_the_pair_list_path(tmp_path):
    from decosim.pointer import InteractionSpec, dfs_find
    from test_serialize import matrix_to_pairs

    coupling = [[[float(x), 0.0] for x in row] for row in _XX_PLUS_ZZ]
    assert main([
        "dfs", "--system-terms", json.dumps([coupling]), "--env-terms", '["sigma_x"]',
        "--output", str(tmp_path),
    ]) == 0
    result = dfs_find(InteractionSpec(terms=((np.array(_XX_PLUS_ZZ, dtype=complex), SIGMA_X),)))
    assert result.dimension == 2
    payload = {
        "dimension": result.dimension,
        "eigenvalues": list(result.eigenvalues),
        "certificate_defect": result.certificate_defect,
        "basis": [matrix_to_pairs(row) for row in result.basis],
    }
    expected = json.dumps(payload, sort_keys=True) + "\n"
    assert (tmp_path / "dfs_basis.json").read_bytes() == expected.encode()


def test_collective_dfs_refuses_huge_counts_at_once(tmp_path, capsys):
    # each in a child with a timeout: counting before the bound would run
    # math.comb for minutes at 10^9 qubits
    timed = ("import atexit, time\nimport decosim.cli\n_start = time.perf_counter()\n"
             "atexit.register(lambda: print(time.perf_counter() - _start))\n")
    for n in ("15000", "1000000000"):
        done = _cli_child(["dfs", "--collective", "--n", n, "--output", str(tmp_path)], {},
                          prelude=timed, timeout=60)
        assert done.returncode == 2
        _assert_one_line(done.stderr, 2)
        assert "14000" in done.stderr
        assert float(done.stdout.split()[-1]) < 1.0
    assert main(["dfs", "--collective", "--n", "14000", "--output", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "dfs_basis.json").read_text())["basis_labels"] is None


def test_dfs_with_no_common_eigenspace_writes_an_empty_basis(tmp_path):
    # sigma_z and sigma_x share no eigenvector: the subspace is empty, not an error
    rc = main([
        "dfs", "--system-terms", '["sigma_z","sigma_x"]', "--env-terms", '["sigma_x","sigma_z"]',
        "--output", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "dfs_basis.json").read_bytes() == (
        b'{"basis": [], "certificate_defect": null, "dimension": 0, "eigenvalues": []}\n')


def test_estimate_ratio_mode(tmp_path, capsys):
    rc = main(["estimate", "--mass-g", "1", "--temp-K", "300", "--dx-cm", "1",
               "--output", str(tmp_path)])
    assert rc == 0
    assert "ratio" in capsys.readouterr().out
    summary = _manifest(tmp_path)["summary"]
    assert summary["ratio"] == pytest.approx(7.448729632423218e40, rel=1e-10)
    assert main(["estimate", "--output", str(tmp_path)]) == 2


def test_estimate_visibility_mode(tmp_path):
    rc = main(["estimate", "--visibility", "--gamma-per-pressure", "2.0",
               "--t-transit", "0.5", "--p-max", "3.0", "--n-p", "7",
               "--output", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "visibility.csv")
    p = _column(header, rows, "pressure")
    v = _column(header, rows, "visibility")
    assert np.abs(v - np.exp(-p)).max() < 1e-12


_DEPHASING_FLAGS = ["--hamiltonian", "sigma_x", "--lindblad",
                    '[{"operator": "sigma_z", "rate": 0.5}]', "--t-final", "0.2"]


def test_no_subcommand_loads_scipy(tmp_path):
    # each subcommand runs in its own process, and SciPy is a test-only
    # dependency: neither propagator of evolve (dense up to dimension 12,
    # Taylor above, here qbm at n_max 40), the sine integral of collisional,
    # the closed-form principal value of spinboson with tunneling, nor the
    # manifest's versions block imports any part of it
    runs = [
        ["estimate", "--mass-g", "1", "--temp-K", "300", "--dx-cm", "1"],
        ["evolve", *_DEPHASING_FLAGS, "--dt", "0.1"],
        ["trajectories", *_DEPHASING_FLAGS, "--dt", "0.01", "--n-trajectories", "4"],
        ["sieve", "--scenario", "dephasing-qubit", "--t-final", "1", "--n-times", "5"],
        ["spinboson", "--gamma0", "0.01", "--cutoff", "8", "--temperature", "1",
         "--t-max", "2", "--n-times", "5", "--n-modes", "8", "--born-markov",
         "--no-check-convergence"],
        ["spinboson", "--gamma0", "0.01", "--cutoff", "8", "--temperature", "1",
         "--t-max", "2", "--n-times", "5", "--tunneling", "0.3", "--born-markov"],
        ["qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "10", "--alpha", "1.0",
         "--n-max", "40", "--t-final", "0.1", "--dt", "0.01", "--no-wigner"],
        ["collisional", "--density-amplitude", "1", "--q-max", "2", "--speed", "1",
         "--f2", "1", "--dx-min", "0.01", "--dx-max", "100", "--n-dx", "9", "--log-spacing"],
        ["spinspin", "--couplings", "[0.3, 0.7, 0.5]", "--t-max", "1", "--n-times", "5"],
        ["dfs", "--collective", "--n", "3"],
        ["qec", "--p-list", "[0.05]", "--n-shots", "100"],
    ]
    assert {argv[0] for argv in runs} == set(COMMANDS)
    script = (
        "import json, os, sys\n"
        "import decosim, decosim.cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
        "    out = os.path.join(sys.argv[1], str(i))\n"
        "    assert decosim.cli.main(argv + ['--output', out]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path), json.dumps(runs)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_qec_error_rate_table(tmp_path):
    rc = main(["qec", "--p-list", "[0.02, 0.05]", "--n-shots", "20000",
               "--output", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "qec.csv")
    raw = _column(header, rows, "logical_error_rate_uncorrected")
    corr = _column(header, rows, "logical_error_rate_corrected")
    assert len(rows) == 2
    assert np.all(corr < raw)
    assert _manifest(tmp_path)["seed"] == 0


def _assert_table_bytes(path, header, rows):
    """The file holds exactly ``header`` and ``rows``: floats as format_value, the rest as str."""
    lines = [",".join(header)] + [
        ",".join(format_value(v) if isinstance(v, float) else str(v) for v in row) for row in rows
    ]
    assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode()


def test_mixed_tables_hold_the_library_results_cell_for_cell(tmp_path, capsys):
    labels = ["zero", "one", "plus", "minus"]
    candidates = [KET_0, KET_1, KET_PLUS, KET_MINUS]
    times = np.linspace(0.0, 1.5, 4)
    sieve_header = ["label", "t", "purity", "entropy"]
    dephasing = LindbladSpec(Operator(np.zeros((2, 2), dtype=complex)),
                             ((Operator(SIGMA_Z), 0.7),))
    for generator, flags in [
        (dephasing, ["--scenario", "dephasing-qubit", "--kappa", "0.7"]),
        (SpinEnvironment((0.3, 0.8), tunneling=0.2),
         ["--scenario", "spin-spin", "--couplings", "[0.3, 0.8]", "--tunneling", "0.2"]),
    ]:
        out = tmp_path / flags[1]
        assert main(["sieve", *flags, "--t-final", "1.5", "--n-times", "4",
                     "--output", str(out)]) == 0
        report = predictability_sieve(generator, candidates, times, labels=labels)
        _assert_table_bytes(out / "sieve.csv", sieve_header, [
            (c.label, t, pur, ent) for c in report.candidates
            for t, pur, ent in zip(times.tolist(), c.purity.tolist(), c.entropy.tolist())])

    qec_header = ["p", "logical_error_rate_uncorrected", "logical_error_rate_corrected",
                  "n_shots"]
    for p_list in ([0.0, 0.05, 0.3], []):
        out = tmp_path / f"qec{len(p_list)}"
        assert main(["qec", "--p-list", json.dumps(p_list), "--n-shots", "5000", "--seed", "3",
                     "--output", str(out)]) == 0
        rows = logical_error_rate(p_list, n_shots=5000, seed=3)
        _assert_table_bytes(out / "qec.csv", qec_header, [
            (r.flip_probability, r.uncorrected_rate, r.corrected_rate, r.n_shots) for r in rows])

    assert main(["estimate", "--mass-g", "2", "--temp-K", "300", "--dx-cm", "0.5",
                 "--output", str(tmp_path / "ratio")]) == 0
    report = timescale_ratio(2e-3, 300.0, 0.5e-2)
    _assert_table_bytes(tmp_path / "ratio" / "estimate.csv",
                        ["mass_g", "temp_K", "dx_cm", "lambda_db_m", "ratio"],
                        [(2.0, 300.0, 0.5, report.lambda_db, report.ratio)])

    config = ROOT / "configs" / "estimate_table.json"
    assert main(["estimate", "--config", str(config), "--output", str(tmp_path / "table")]) == 0
    entries = table1_scenarios(json.loads(config.read_text())["constants"])
    _assert_table_bytes(tmp_path / "table" / "estimate_table.csv", [
        "environment", "object", "separation_m", "constant_kind", "constant_value",
        "tau_computed_s", "tau_reference_s"], [
        (e.environment, e.object_label, e.separation, e.constant_kind, e.constant_value,
         e.tau_computed, e.tau_reference) for e in entries])


def test_memory_error_exits_2_on_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

    monkeypatch.setattr(decosim.models.collisional, "localization_rate", exhausted)
    rc = main(["collisional", "--density-amplitude", "1", "--q-max", "2", "--speed", "1",
               "--f2", "1", "--dx-min", "0.1", "--dx-max", "10", "--output", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    _assert_one_line(err, 2)
    assert "out of memory" in err


def _assert_one_line(err, rc):
    prefix = {2: "config error: ", 3: "numerical contract violated: "}[rc]
    assert err.startswith(prefix), err
    assert err.count("\n") == 1, err


# Small valid configs, one or more per subcommand, from which the schema
# sweep moves one scalar field at a time; every subcommand needs an entry.
_LINDBLAD = [{"operator": "sigma_z", "rate": 0.5}]
# the two couplings the retired default draw gave, so the base runs keep their bytes
_COUPLINGS = [0.7188215999535003, 0.9229103507271816]
_SWEEP_BASES = {
    "evolve": [dict(hamiltonian="sigma_x", lindblad=_LINDBLAD, t_final=0.05, dt=0.01,
                    store_every=2)],
    "trajectories": [dict(hamiltonian="identity", lindblad=_LINDBLAD, t_final=0.05, dt=0.01,
                          n_trajectories=4, master_seed=3, store_every=2, workers=1)],
    "collisional": [dict(density_amplitude=1.0, q_max=2.0, speed=1.0, f2=1.0, dx_min=0.1,
                         dx_max=10.0, n_dx=3)],
    "qbm": [dict(gamma0=0.01, cutoff=10.0, temperature=1.0, alpha=1.0, n_max=10,
                 t_final=0.02, dt=0.01, store_every=1, n_x=101, x_max=8.0)],
    # no n_modes or check_convergence: a swept nonzero tunneling reads neither
    "spinboson": [dict(gamma0=0.02, cutoff=8.0, temperature=2.0, splitting=0.5, t_max=0.5,
                       n_times=4)],
    "spinspin": [dict(couplings=_COUPLINGS, t_max=1.0, n_times=4)],
    "sieve": [dict(scenario="dephasing-qubit", t_final=1.0, n_times=3),
              dict(scenario="spin-spin", couplings=_COUPLINGS, t_final=1.0, n_times=3)],
    "dfs": [dict(collective=True, n=3),
            dict(system_terms=["sigma_z"], env_terms=["sigma_x"])],
    "qec": [dict(p_list=[0.05], n_shots=100)],
    "estimate": [dict(mass_g=1.0, temp_K=300.0, dx_cm=1.0, table1=True,
                      constants={env: {label: {"gamma_tot": 1.0} for label, _ in OBJECTS}
                                 for env in ENVIRONMENTS},
                      visibility=True, gamma_per_pressure=2.0, t_transit=0.5, p_max=3.0,
                      n_p=4)],
}
_DOUBLE_EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 1e306, 1e-306, sys.float_info.max, 5e-324]
# boundary and invalid values per field kind
_SWEEP_VALUES = {
    "float": [0.0, -1.0, float("nan"), float("inf"), float("-inf"), "abc"] + _DOUBLE_EXTREMES,
    "int": [0, -1, 1, 1.5, "abc", 2**63, 1e300],
    "str": [5],
    "bool": ["abc"],
}
# json fields: wrong types, wrong shapes and non-finite values; a field not
# listed here (estimate's constants) is covered case by case below
_NAN, _INF = float("nan"), float("inf")
_BAD_JSON = [5, "bogus", True, {}, [], [1, 2], [[1, 2, 3]], _NAN, [_INF], [["a", "b"]]]
_BAD_MATRICES = [
    [[[1, 0], [0, 0], [0, 0]]],  # not square
    [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],  # 3 x 3
    [[[_NAN, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[_INF, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],  # not Hermitian
]
_BAD_VECTORS = [[[_NAN, 0], [1, 0]], [[_INF, 0], [1, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]]]
_BAD_TERM_LISTS = [[m] for m in _BAD_MATRICES] + [["sigma_z", "sigma_x"], [5]]
_JSON_SWEEP_VALUES = {
    "hamiltonian": _BAD_JSON + _BAD_MATRICES,
    "lindblad": _BAD_JSON + [[{"operator": m, "rate": 1.0}] for m in _BAD_MATRICES]
    + [[{"operator": "sigma_z", "rate": r}] for r in (_NAN, _INF, -1.0, "abc", [1])]
    + [[{"operator": "sigma_z"}], [5]],
    "rho0": _BAD_JSON + _BAD_MATRICES + _BAD_VECTORS,
    "psi0": _BAD_JSON + _BAD_MATRICES + _BAD_VECTORS,
    "couplings": _BAD_JSON + [[_NAN], [1e400], [-_INF, 1.0], [1e308, 1e308], ["a"], [[1.0]],
                              [0.5] * 20],
    "system_terms": _BAD_JSON + _BAD_TERM_LISTS,
    "env_terms": _BAD_JSON + _BAD_TERM_LISTS,
    "p_list": _BAD_JSON + [[-0.1], [1.5], [_NAN], [_INF], ["a"], [[0.1]]],
}


def _sweep_values(field):
    if field.kind == "json":
        return _JSON_SWEEP_VALUES.get(field.name, [])
    return _SWEEP_VALUES[field.kind]


def _inodes(root):
    """Every file under ``root`` by relative path, with its inode: an atomic write changes it."""
    return {str(p.relative_to(root)): p.stat().st_ino for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_schema_sweep_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch, command):
    # each value goes in once through the config file and once as the field's
    # flag, whose text is the value's JSON (the bare text for a str field); a
    # run that exits nonzero creates and replaces no file.  A field is swept
    # on each base whose run reads it, and no swept value may leave a key unread
    monkeypatch.chdir(tmp_path)  # a str value swept into --output names a directory here
    schema = COMMANDS[command][0]
    cfg_path = tmp_path / "cfg.json"
    base_path = tmp_path / "base.json"
    violations = []
    swept = set()
    for base in _SWEEP_BASES[command]:
        base = dict(base, output=str(tmp_path / "out"))
        base_path.write_text(json.dumps(base))
        assert main([command, "--config", str(base_path)]) == 0, capsys.readouterr().err
        read = set(_manifest(tmp_path / "out")["config"])
        swept |= read
        for field in (f for f in schema if f.name in read):
            flag = "--" + field.name.replace("_", "-")
            for value in _sweep_values(field):
                cfg_path.write_text(json.dumps(dict(base, **{field.name: value})))
                text = str(value) if field.kind == "str" else json.dumps(value)
                for argv, case in [
                    ([command, "--config", str(cfg_path)], f"{field.name}={value!r}"),
                    ([command, "--config", str(base_path), f"{flag}={text}"], f"{flag}={text}"),
                ]:
                    capsys.readouterr()
                    case += f" from {base}"
                    files = _inodes(tmp_path)
                    try:
                        rc = main(argv)
                    except (Exception, SystemExit) as exc:  # no traceback, no usage dump
                        violations.append(f"{case}: raised {type(exc).__name__}: {exc}")
                        continue
                    err = capsys.readouterr().err
                    if rc not in (0, 2, 3):
                        violations.append(f"{case}: exit {rc}")
                    elif rc != 0:
                        try:
                            _assert_one_line(err, rc)
                        except AssertionError:
                            violations.append(f"{case}: exit {rc} with stderr {err!r}")
                        if "does not use" in err:
                            violations.append(f"{case}: refused as unused: {err!r}")
                        if _inodes(tmp_path) != files:
                            violations.append(f"{case}: exit {rc} created or replaced files")
    assert not violations, "\n".join(violations)
    assert swept == {field.name for field in schema}


def test_spinboson_extremes_keep_the_one_line_contract(tmp_path, capsys):
    # every float field of the spin-boson model at the edges of the double
    # range, the others at tunneling 0: any traceback or numpy warning breaks
    # the contract, and so does stderr beyond the one exit-2 or exit-3 line,
    # or any at exit 0
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(dict(_SWEEP_BASES["spinboson"][0],
                                         output=str(tmp_path / "out"))))
    violations = []
    for name in ("mass", "gamma0", "cutoff", "temperature", "splitting", "tunneling", "t_max"):
        for value in _DOUBLE_EXTREMES:
            case = f"--{name.replace('_', '-')}={json.dumps(value)}"
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    rc = main(["spinboson", "--config", str(base_path), case])
                except Exception as exc:
                    violations.append(f"{case}: raised {type(exc).__name__}: {exc}")
                    continue
            err = capsys.readouterr().err
            if caught:
                violations.append(f"{case}: exit {rc} after {len(caught)} warnings, "
                                  f"first {caught[0].message}")
            elif (rc == 0 and err) or (rc != 0 and (rc not in (2, 3) or err.count("\n") != 1)):
                violations.append(f"{case}: exit {rc} with stderr {err!r}")
    assert not violations, "\n".join(violations)


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


_VISIBILITY = ["estimate", "--visibility", "--gamma-per-pressure", "2", "--t-transit", "0.5",
               "--p-max", "3"]
_SPINBOSON = ["spinboson", "--gamma0", "0.02", "--cutoff", "8", "--temperature", "2",
              "--t-max", "0.5", "--n-times", "6"]
_EXIT_2_CASES = {
    # 1e300 snapshots: the stack is refused before the generator is built
    "evolve-dt-tiny": EVOLVE_FLAGS + ["--dt", "1e-300"],
    "qbm-dt-tiny": _QBM_FLAGS + ["--dt", "1e-300"],
    "trajectories-dt-tiny": ["trajectories", *_DEPHASING_FLAGS, "--dt", "1e-300",
                             "--n-trajectories", "3"],
    "qbm-n-x-0": _QBM_FLAGS + ["--wigner", "--n-x", "0"],
    "qbm-n-x-1": _QBM_FLAGS + ["--wigner", "--n-x", "1"],
    "qbm-alpha-overflows": _QBM_FLAGS + ["--alpha", "1e200"],
    "qbm-x-max-overflows": _QBM_FLAGS + ["--wigner", "--x-max", "1e300"],
    "qbm-x-max-negative": _QBM_FLAGS + ["--wigner", "--x-max", "-5"],
    # an explicit zero half-width is not the automatic window
    "qbm-x-max-0": _QBM_FLAGS + ["--wigner", "--x-max", "0"],
    "qbm-x-max-negative-zero": _QBM_FLAGS + ["--wigner", "--x-max=-0.0"],
    # frequency^2 beyond the double range
    "qbm-frequency-1e300": _QBM_FLAGS + ["--frequency", "1e300"],
    "qbm-frequency-1e306": _QBM_FLAGS + ["--frequency", "1e306"],
    "qbm-frequency-dbl-max": _QBM_FLAGS + ["--frequency", "1.7976931348623157e308"],
    "spinspin-n-times-0": ["spinspin", "--couplings", "[0.3, 0.7]", "--t-max", "1",
                           "--n-times", "0"],
    "qec-n-shots-0": ["qec", "--n-shots", "0"],
    "qec-n-shots-negative": ["qec", "--n-shots", "-5"],
    "qec-seed-negative": ["qec", "--seed", "-1"],
    "collisional-n-dx-0": ["collisional", "--density-amplitude", "1", "--q-max", "2",
                           "--speed", "1", "--f2", "1", "--dx-min", "0.1", "--dx-max", "10",
                           "--n-dx", "0"],
    "visibility-n-p-0": _VISIBILITY + ["--n-p", "0"],
    "lindblad-not-a-list": EVOLVE_FLAGS + ["--lindblad", "5"],
    "lindblad-rate-null": EVOLVE_FLAGS + ["--lindblad",
                                          '[{"operator": "sigma_z", "rate": null}]'],
    "dfs-system-terms-not-a-list": ["dfs", "--system-terms", "5", "--env-terms",
                                    '["sigma_x"]'],
    "table1-constants-not-an-object": ["estimate", "--table1", "--constants", "[1]"],
    "estimate-mass-negative": ["estimate", "--mass-g", "-1", "--temp-K", "300",
                               "--dx-cm", "1"],
    "sieve-kappa-negative": ["sieve", "--scenario", "dephasing-qubit", "--kappa", "-1",
                             "--t-final", "1", "--n-times", "3"],
    "dfs-collective-n-0": ["dfs", "--collective", "--n", "0"],
    "spinboson-tunneling-negative": _SPINBOSON + ["--tunneling", "-1"],
    "spinboson-splitting-nan": _SPINBOSON + ["--splitting", "nan"],
    # with tunneling there is no exact solver, so there is nothing to compute
    "spinboson-tunneling-without-born-markov": _SPINBOSON + ["--tunneling", "0.3",
                                                             "--no-born-markov"],
    # couplings come only as a list, which no default stands in for
    "spinspin-couplings-missing": ["spinspin", "--t-max", "1"],
    "sieve-couplings-missing": ["sieve", "--scenario", "spin-spin", "--t-final", "1"],
    "collisional-density-negative": ["collisional", "--density-amplitude", "-1",
                                     "--speed", "1", "--f2", "1", "--q-max", "2",
                                     "--dx-min", "0.1", "--dx-max", "1", "--n-dx", "5"],
    "collisional-lambda-overflows": ["collisional", "--density-amplitude", "1",
                                     "--speed", "1", "--f2", "1", "--q-max", "1e300",
                                     "--dx-min", "0.1", "--dx-max", "1", "--n-dx", "5"],
    "collisional-lambda-dx2-overflows": ["collisional", "--density-amplitude", "1",
                                         "--speed", "1", "--f2", "1", "--q-max", "2",
                                         "--dx-min", "0.1", "--dx-max", "1e200"],
    "spinspin-coupling-not-finite": ["spinspin", "--couplings", "[1e400]", "--t-max", "1"],
    "spinspin-phase-overflows": ["spinspin", "--couplings", "[1e308]", "--t-max", "2"],
    "spinspin-splitting-overflows": ["spinspin", "--couplings", "[1e308]", "--splitting", "1e308",
                                     "--t-max", "1e-6", "--n-times", "2"],
    "output-names-a-file": EVOLVE_FLAGS + ["--output", "taken"],
    # the ratio is computed before the visibility mode fails, but never printed
    "estimate-ratio-then-visibility-incomplete": ["estimate", "--mass-g", "1", "--temp-K", "300",
                                                  "--dx-cm", "1", "--visibility"],
    "estimate-ratio-overflows": ["estimate", "--mass-g", "1", "--temp-K", "300",
                                 "--dx-cm", "1e300"],
    "estimate-wavelength-underflows": ["estimate", "--mass-g", "1e300", "--temp-K", "1e300",
                                       "--dx-cm", "1"],
    "estimate-wavelength-overflows": ["estimate", "--mass-g", "1e-300", "--temp-K", "1e-300",
                                      "--dx-cm", "1"],
    "visibility-exponent-overflows": ["estimate", "--visibility", "--gamma-per-pressure", "1e308",
                                      "--t-transit", "1e308", "--p-max", "1", "--n-p", "5"],
    "table1-tau-overflows": ["estimate", "--table1", "--constants", json.dumps(
        {env: {label: {"lambda": 5e-324} for label, _ in OBJECTS} for env in ENVIRONMENTS})],
    # t_final / dt beyond the double range: no step count exists
    "evolve-t-final-dbl-max": EVOLVE_FLAGS + ["--t-final", "1.7976931348623157e308",
                                              "--dt", "0.1"],
    "evolve-dt-denormal": EVOLVE_FLAGS + ["--dt", "5e-324"],
    # a t_final > 0 that rounds to no step: one step would snapshot past it
    "evolve-t-final-rounds-to-no-step": ["evolve", "--hamiltonian", "sigma_z",
                                         "--t-final", "1e-300", "--dt", "1"],
    "evolve-t-final-half-a-step": ["evolve", "--hamiltonian", "sigma_z", "--t-final", "1",
                                   "--dt", "2"],
    "trajectories-t-final-rounds-to-no-step": ["trajectories", "--hamiltonian", "sigma_z",
                                               "--t-final", "1e-6", "--dt", "0.1",
                                               "--n-trajectories", "4"],
    "trajectories-dt-denormal": ["trajectories", "--hamiltonian", "identity", "--t-final", "1",
                                 "--dt", "5e-324", "--n-trajectories", "4"],
    "qbm-t-final-dbl-max": _QBM_FLAGS + ["--t-final", "1.7976931348623157e308"],
    # x_max - (-x_max) overflows: every Wigner grid point is inf or nan
    "qbm-x-max-dbl-max": _QBM_FLAGS + ["--wigner", "--x-max", "1.7976931348623157e308"],
    # a zero-point width (2 M w)^(-1/2) or (M w / 2)^(1/2) that is inf or 0
    "qbm-mass-denormal": _QBM_FLAGS + ["--mass", "5e-324"],
    "qbm-frequency-denormal": _QBM_FLAGS + ["--frequency", "5e-324"],
    "qbm-mass-frequency-underflow": _QBM_FLAGS + ["--mass", "5e-324", "--frequency", "0.1"],
    "qbm-mass-dbl-max": _QBM_FLAGS + ["--mass", "1.7976931348623157e308"],
    # retired keys, each a restatement of another field or an output column
    "collisional-regime-retired": ["collisional", "--density-amplitude", "1", "--q-max", "2",
                                   "--speed", "1", "--f2", "1", "--dx-min", "0.1",
                                   "--dx-max", "10", "--regime", "full"],
    "sieve-measure-retired": ["sieve", "--scenario", "dephasing-qubit", "--t-final", "1",
                              "--measure", "purity"],
    "spinspin-n-env-retired": ["spinspin", "--n-env", "2", "--t-max", "1"],
    "spinspin-coupling-seed-retired": ["spinspin", "--couplings", "[0.5]", "--t-max", "1",
                                       "--coupling-seed", "7"],
    "spinspin-coupling-low-retired": ["spinspin", "--couplings", "[0.5]", "--t-max", "1",
                                      "--coupling-low", "0.25"],
    "spinspin-coupling-high-retired": ["spinspin", "--couplings", "[0.5]", "--t-max", "1",
                                       "--coupling-high", "1"],
    "sieve-n-env-retired": ["sieve", "--scenario", "spin-spin", "--n-env", "2",
                            "--t-final", "1"],
    # a malformed command line, or a value of the wrong JSON type on it
    "no-subcommand": [],
    "unknown-flag": EVOLVE_FLAGS + ["--bogus", "1"],
    "evolve-dt-not-a-number": EVOLVE_FLAGS + ["--dt", "abc"],
    "sieve-scenario-unknown": ["sieve", "--scenario", "bogus", "--t-final", "1"],
    "store-every-true": EVOLVE_FLAGS + ["--store-every", "true"],
    "lindblad-rate-true": EVOLVE_FLAGS + ["--lindblad",
                                          '[{"operator": "sigma_z", "rate": true}]'],
    "couplings-true": ["spinspin", "--couplings", "[true, 0.5]", "--t-max", "1"],
    "couplings-text": ["spinspin", "--couplings", '["0.5"]', "--t-max", "1"],
    "hamiltonian-entry-true": ["evolve", "--hamiltonian", '[[[true,0],[0,0]],[[0,0],[1,0]]]',
                               "--t-final", "0.1", "--dt", "0.05"],
    "hamiltonian-entry-text": ["evolve", "--hamiltonian", '[[["1",0],[0,0]],[[0,0],[1,0]]]',
                               "--t-final", "0.1", "--dt", "0.05"],
    "hamiltonian-entry-beyond-a-double": ["evolve", "--hamiltonian",
                                          f"[[[1{'0' * 400},0],[0,0]],[[0,0],[1,0]]]",
                                          "--t-final", "0.1", "--dt", "0.05"],
    # JSON nested past the recursion limit, in a file and in a flag; and past
    # numpy's 32 dimensions but within the limit
    "config-nested-too-deep": ["evolve", "--config", "deep.json"],
    "hamiltonian-nested-too-deep": ["evolve", "--hamiltonian", _nested(100000),
                                    "--t-final", "0.1", "--dt", "0.05"],
    "hamiltonian-nested-500-deep": ["evolve", "--hamiltonian", _nested(500),
                                    "--t-final", "0.1", "--dt", "0.05"],
}


@pytest.mark.parametrize("argv", _EXIT_2_CASES.values(), ids=_EXIT_2_CASES.keys())
def test_invalid_inputs_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # outputs default to the working directory
    (tmp_path / "taken").write_text("")
    (tmp_path / "deep.json").write_text('{"hamiltonian": ' + _nested(100000) + "}")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    _assert_one_line(err, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json", "taken"]


_SIEVE = ["sieve", "--t-final", "1", "--n-times", "3"]
_UNUSED_KEY_CASES = {
    "sieve-dephasing-qubit": (_SIEVE + ["--scenario", "dephasing-qubit", "--couplings", '"bogus"',
                                       "--tunneling", "5"], "couplings, tunneling"),
    "sieve-spin-spin": (_SIEVE + ["--scenario", "spin-spin", "--couplings", "[0.5]",
                                  "--kappa", "1e300"], "kappa"),
    "dfs-collective": (["dfs", "--collective", "--n", "4", "--system-terms", '"junk"'],
                       "system_terms"),
    "dfs-explicit": (["dfs", "--system-terms", '["sigma_z"]', "--env-terms", '["sigma_x"]',
                      "--n", "4"], "n"),
    "estimate-modes-off": (["estimate", "--mass-g", "1", "--temp-K", "300", "--dx-cm", "1",
                            "--constants", "{}", "--n-p", "5"], "constants, n_p"),
    "qbm-no-wigner": (_QBM_FLAGS + ["--n-x", "3", "--x-max", "-5"], "n_x, x_max"),
    "spinboson-tunneling": (_SPINBOSON + ["--tunneling", "0.3", "--n-modes", "-5",
                                          "--check-convergence"],
                            "check_convergence, n_modes"),
}


@pytest.mark.parametrize("argv, keys", _UNUSED_KEY_CASES.values(), ids=_UNUSED_KEY_CASES.keys())
def test_a_key_the_chosen_mode_does_not_read_exits_2(tmp_path, capsys, monkeypatch, argv, keys):
    # the run is computed, then refused before any write: the key named is
    # one this mode of the subcommand never reads
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: config keys this run does not use: {keys}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_old_manifest_config_listing_every_default_exits_2(tmp_path, capsys):
    # manifests once echoed every schema field, defaults included; such a
    # config replays only once the keys its scenario never reads are dropped
    old = dict(couplings=None, kappa=1.0, n_times=3, output=str(tmp_path / "out"),
               scenario="dephasing-qubit", splitting=0.0, t_final=1.0, tunneling=0.0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(old))
    assert main(["sieve", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: config keys this run does not use: splitting, tunneling\n"
    assert not (tmp_path / "out").exists() or list((tmp_path / "out").iterdir()) == []
    cfg_path.write_text(json.dumps({k: v for k, v in old.items()
                                    if k not in ("splitting", "tunneling")}))
    assert main(["sieve", "--config", str(cfg_path)]) == 0


_RETIRED_KEYS = [
    ("collisional", "regime", "full"),
    ("sieve", "measure", "purity"),
    *[(command, key, value) for command in ("spinspin", "sieve")
      for key, value in (("n_env", 2), ("coupling_seed", 7), ("coupling_low", 0.25),
                         ("coupling_high", 1.0))],
]


@pytest.mark.parametrize("command, key, value", _RETIRED_KEYS,
                         ids=[f"{command}-{key}" for command, key, _ in _RETIRED_KEYS])
def test_a_config_file_setting_a_retired_key_exits_2(tmp_path, capsys, command, key, value):
    base = _SWEEP_BASES[command][-1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(base, output=str(tmp_path / "out"), **{key: value})))
    assert main([command, "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    _assert_one_line(err, 2)
    assert f"unknown config keys: {key}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_spin_bath_manifests_record_no_seed(tmp_path):
    # explicit couplings use no seed; the manifest says so
    for k, (command, base) in enumerate([("spinspin", _SWEEP_BASES["spinspin"][0]),
                                         ("sieve", _SWEEP_BASES["sieve"][1])]):
        out = tmp_path / str(k)
        cfg_path = tmp_path / f"{k}.json"
        cfg_path.write_text(json.dumps(dict(base, output=str(out))))
        assert main([command, "--config", str(cfg_path)]) == 0
        manifest = _manifest(out)
        assert manifest["seed"] is None
        assert manifest["config"]["couplings"] == _COUPLINGS


_DBL_MAX = "1.7976931348623157e308"
_QUIET_EXTREMES = {
    # linspace's last product overflows before it writes t_max or p_max there
    "spinspin-t-max-dbl-max": ["spinspin", "--couplings", "[0.3,0.1]", "--t-max", _DBL_MAX,
                               "--n-times", "7"],
    "sieve-t-final-dbl-max": ["sieve", "--scenario", "spin-spin", "--couplings", "[0.3,0.1]",
                              "--t-final", _DBL_MAX, "--n-times", "7"],
    "visibility-p-max-dbl-max": ["estimate", "--visibility", "--gamma-per-pressure", "2",
                                 "--t-transit", "0.5", "--p-max", _DBL_MAX, "--n-p", "4"],
    # expm1 of frequency / temperature overflows: the occupation is its limit 0
    **{f"qbm-temperature-{t}": ["qbm", "--mass", "1", "--frequency", "1", "--gamma0", "0.01",
                                "--cutoff", "10", "--n-max", "10", "--t-final", "0.01",
                                "--dt", "0.001", "--alpha", "1", "--temperature", t]
       for t in ("1e-300", "1e-306", "5e-324")},
}


@pytest.mark.parametrize("argv", _QUIET_EXTREMES.values(), ids=_QUIET_EXTREMES.keys())
def test_double_range_extremes_exit_0_silently(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + ["--output", str(tmp_path)])
    assert [str(w.message) for w in caught] == []
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_a_flag_takes_the_value_of_its_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"p_list": [0.05], "n_shots": 1e3}')
    assert main(["qec", "--config", str(cfg_path), "--output", str(tmp_path / "file")]) == 0
    assert main(["qec", "--p-list", "[0.05]", "--n-shots", "1e3",
                 "--output", str(tmp_path / "flag")]) == 0
    config = _manifest(tmp_path / "file")["config"]
    assert config == dict(_manifest(tmp_path / "flag")["config"], output=str(tmp_path / "file"))
    assert config["n_shots"] == 1000


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_names_every_flag_and_choice(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for field in COMMANDS[command][0]:
        assert "--" + field.name.replace("_", "-") in text
        for choice in field.choices or ():
            assert choice in text


@pytest.mark.filterwarnings("error")
def test_liouvillian_beyond_the_double_range_exits_3(tmp_path, capsys):
    # rate 1e308 overflows L's diagonal (-2 * rate); sigma_x at 1e100 leaves
    # L finite but overflows its propagator; sigma_z at 1e200 is finite and
    # removes every coherence within the first snapshot interval
    argv = ["evolve", "--hamiltonian", "identity", "--rho0", "plus",
            "--t-final", "1", "--dt", "0.1", "--output", str(tmp_path)]
    for lindblad in ['[{"operator": "sigma_z", "rate": 1e308}]',
                     '[{"operator": "sigma_x", "rate": 1e100}]']:
        assert main(argv + ["--lindblad", lindblad]) == 3
        _assert_one_line(capsys.readouterr().err, 3)
    assert main(argv + ["--lindblad", '[{"operator": "sigma_z", "rate": 1e200}]']) == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_csv(tmp_path / "evolve.csv")
    assert np.all(_column(header, rows, "rho_0_1_re")[1:] == 0.0)
    for name in ("rho_0_0_re", "rho_1_1_re"):
        populations = _column(header, rows, name)
        assert np.all(populations == populations[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_max", ["10", "20"])  # the dense branch, then the Taylor branch
@pytest.mark.parametrize("gamma0", ["1e306", "1e307"])
def test_qbm_beyond_the_double_range_exits_3(tmp_path, capsys, n_max, gamma0):
    # gamma0 T and gamma0 Lambda near the double range overflow the compiled
    # generator (at n_max 10 only from gamma0 1e307 on); the overflow must
    # surface as the one exit-3 line, not as numpy warnings first
    rc = main(["qbm", "--gamma0", gamma0, "--cutoff", "10", "--temperature", "10",
               "--alpha", "1", "--n-max", n_max, "--t-final", "0.1", "--dt", "0.01",
               "--no-wigner", "--output", str(tmp_path)])
    assert rc == 3
    _assert_one_line(capsys.readouterr().err, 3)


@pytest.mark.filterwarnings("error")
def test_ensemble_blowup_exits_3(tmp_path, capsys):
    # a finite but enormous rate: the ensemble average stops being a state;
    # a numpy warning on the way would be a second stderr line, so it fails
    # here; for 2 sigma_z at 1e308 the compiled generator itself overflows
    for lindblad in ['[{"operator": "sigma_z", "rate": 1e300}]',
                     '[{"operator": [[[2, 0], [0, 0]], [[0, 0], [-2, 0]]], "rate": 1e308}]']:
        rc = main([
            "trajectories", "--hamiltonian", "identity", "--lindblad", lindblad,
            "--t-final", "0.05", "--dt", "0.01", "--n-trajectories", "4",
            "--output", str(tmp_path),
        ])
        assert rc == 3
        _assert_one_line(capsys.readouterr().err, 3)
