import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decosim.cli
from decosim import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    SIGMA_Z,
    DensityMatrix,
    LindbladSpec,
    Operator,
    evolve,
)
from decosim.cli import COMMANDS, main
from decosim.models import (
    ScatteringModel,
    SpinEnvironment,
    caldeira_leggett_generator,
    cat_state,
    coherent_state,
    localization_rate,
    table1_scenarios,
    timescale_ratio,
    truncation_tail,
    wigner_from_fock,
)
from decosim.models.estimates import ENVIRONMENTS, OBJECTS
from decosim.pointer import predictability_sieve
from decosim.qec import logical_error_rate
from decosim.serialize import format_value

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
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "decosim"}
    assert manifest["wall_time_s"] > 0


def test_identical_runs_produce_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(EVOLVE_FLAGS + ["--output", str(a)]) == 0
    assert main(EVOLVE_FLAGS + ["--output", str(b)]) == 0
    assert (a / "evolve.csv").read_bytes() == (b / "evolve.csv").read_bytes()


def test_manifest_config_reproduces_the_run(tmp_path):
    first = tmp_path / "first"
    assert main(EVOLVE_FLAGS + ["--output", str(first)]) == 0
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(_manifest(first)["config"]))
    second = tmp_path / "second"
    assert main(["evolve", "--config", str(cfg_path), "--output", str(second)]) == 0
    assert (first / "evolve.csv").read_bytes() == (second / "evolve.csv").read_bytes()


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
    (["--n-trajectories", "0"], None),
    (["--n-trajectories", "10", "--store-every", "0"], None),
    (["--n-trajectories", "10", "--workers", "0"], None),
    (["--n-trajectories", "10", "--dt", "0"], None),
    (["--n-trajectories", "10", "--t-final", "-1"], None),
    (["--n-trajectories", "10", "--t-final", "nan"], None),
    (["--n-trajectories", "10"], "0"),
    (["--n-trajectories", "10"], "abc"),
]


@pytest.mark.parametrize(
    "flags, workers_env",
    _TRAJECTORY_BOUND_CASES,
    ids=[f"flags{k}" for k in range(len(_TRAJECTORY_BOUND_CASES))],
)
def test_trajectory_bounds_exit_2(tmp_path, capsys, monkeypatch, flags, workers_env):
    if workers_env is not None:
        monkeypatch.setenv("DECOSIM_WORKERS", workers_env)
    rc = main([
        "trajectories", "--hamiltonian", "identity",
        "--lindblad", '[{"operator": "sigma_z", "rate": 1.0}]',
        "--t-final", "0.1", "--dt", "0.01", "--output", str(tmp_path),
    ] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("regime", ["full", "short-wavelength", "long-wavelength"])
def test_collisional_curve_matches_localization_rate(tmp_path, regime):
    rc = main([
        "collisional", "--density-amplitude", "1.3", "--q-max", "2.0",
        "--speed", "0.7", "--f2", "1.1", "--dx-min", "0.01", "--dx-max", "50",
        "--n-dx", "7", "--regime", regime, "--output", str(tmp_path),
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "collisional.csv")
    model = ScatteringModel(lambda q: 1.3, lambda q: 0.7, lambda q: 1.1, 2.0, regime)
    expected = [localization_rate(model, dx) for dx in _column(header, rows, "dx")]
    assert _column(header, rows, "localization_rate") == pytest.approx(expected, rel=1e-9)


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


_QBM_WIGNER_FLAGS = [
    "qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "10", "--alpha", "1.0",
    "--n-max", "20", "--t-final", "0.01", "--dt", "0.001", "--store-every", "5",
    "--wigner", "--n-x", "61", "--x-max", "6",
]


def test_qbm_stacked_columns_match_the_per_state_loop(tmp_path):
    assert main(_QBM_WIGNER_FLAGS + ["--no-wigner", "--output", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "qbm.csv")
    gen = caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=20)
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
    gen = caldeira_leggett_generator(1.0, 1.0, 0.01, 10.0, 10.0, n_max=20)
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
    assert "ranking" in capsys.readouterr().out
    ranking = _manifest(tmp_path)["summary"]["ranking"]
    assert set(ranking[:2]) == {"zero", "one"}
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


def test_import_and_estimate_load_no_scipy_subpackage(tmp_path):
    # each subcommand runs in its own process; importing a SciPy subpackage
    # at module level would cost every one of them about 0.25 s, and neither
    # propagator of evolve (dense up to dimension 12, Taylor above, here
    # qbm at n_max 40) nor the sine integral of collisional needs one
    runs = [
        ["estimate", "--mass-g", "1", "--temp-K", "300", "--dx-cm", "1"],
        ["evolve", *_DEPHASING_FLAGS, "--dt", "0.1"],
        ["trajectories", *_DEPHASING_FLAGS, "--dt", "0.01", "--n-trajectories", "4"],
        ["sieve", "--scenario", "dephasing-qubit", "--t-final", "1", "--n-times", "5"],
        ["spinboson", "--gamma0", "0.01", "--cutoff", "8", "--temperature", "1",
         "--t-max", "2", "--n-times", "5", "--n-modes", "8", "--born-markov",
         "--no-check-convergence"],
        ["qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "10", "--alpha", "1.0",
         "--n-max", "40", "--t-final", "0.1", "--dt", "0.01", "--no-wigner"],
        ["collisional", "--density-amplitude", "1", "--q-max", "2", "--speed", "1",
         "--f2", "1", "--dx-min", "0.01", "--dx-max", "100", "--n-dx", "9", "--log-spacing"],
    ]
    script = (
        "import json, os, sys\n"
        "import decosim, decosim.cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
        "    out = os.path.join(sys.argv[1], str(i))\n"
        "    assert decosim.cli.main(argv + ['--output', out]) == 0, argv\n"
        "heavy = ('linalg', 'sparse', 'integrate', 'optimize', 'special', 'constants')\n"
        "print(sorted(m for m in sys.modules if m in {'scipy.' + h for h in heavy}))\n"
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

    monkeypatch.setattr(decosim.cli, "uniform_beam_localization_rates", exhausted)
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
_SWEEP_BASES = {
    "evolve": [dict(hamiltonian="sigma_x", lindblad=_LINDBLAD, t_final=0.05, dt=0.01,
                    store_every=2)],
    "trajectories": [dict(hamiltonian="identity", lindblad=_LINDBLAD, t_final=0.05, dt=0.01,
                          n_trajectories=4, master_seed=3, store_every=2, workers=1)],
    "collisional": [dict(density_amplitude=1.0, q_max=2.0, speed=1.0, f2=1.0, dx_min=0.1,
                         dx_max=10.0, n_dx=3)],
    "qbm": [dict(gamma0=0.01, cutoff=10.0, temperature=1.0, alpha=1.0, n_max=10,
                 t_final=0.02, dt=0.01, store_every=1, n_x=101, x_max=8.0)],
    "spinboson": [dict(gamma0=0.02, cutoff=8.0, temperature=2.0, splitting=0.5, t_max=0.5,
                       n_times=4, n_modes=64)],
    "spinspin": [dict(n_env=2, t_max=1.0, n_times=4)],
    "sieve": [dict(scenario="dephasing-qubit", t_final=1.0, n_times=3),
              dict(scenario="spin-spin", n_env=2, t_final=1.0, n_times=3)],
    "dfs": [dict(collective=True, n=3),
            dict(system_terms=["sigma_z"], env_terms=["sigma_x"])],
    "qec": [dict(p_list=[0.05], n_shots=100)],
    "estimate": [dict(mass_g=1.0, temp_K=300.0, dx_cm=1.0, table1=True,
                      constants={env: {label: {"gamma_tot": 1.0} for label, _ in OBJECTS}
                                 for env in ENVIRONMENTS},
                      visibility=True, gamma_per_pressure=2.0, t_transit=0.5, p_max=3.0,
                      n_p=4)],
}
# boundary and invalid values per field kind
_SWEEP_VALUES = {
    "float": [0.0, -1.0, float("nan"), float("inf"), float("-inf"), "abc"],
    "int": [0, -1, 1, 1.5, "abc"],
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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_schema_sweep_keeps_the_exit_code_contract(tmp_path, capsys, command):
    schema = COMMANDS[command][0]
    cfg_path = tmp_path / "cfg.json"
    violations = []
    for base in _SWEEP_BASES[command]:
        base = dict(base, output=str(tmp_path / "out"))
        cfg_path.write_text(json.dumps(base))
        assert main([command, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
        for field in schema:
            for value in _sweep_values(field):
                capsys.readouterr()
                cfg_path.write_text(json.dumps(dict(base, **{field.name: value})))
                case = f"{field.name}={value!r} from {base}"
                try:
                    rc = main([command, "--config", str(cfg_path)])
                except Exception as exc:  # the contract allows no traceback
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
    assert not violations, "\n".join(violations)


_VISIBILITY = ["estimate", "--visibility", "--gamma-per-pressure", "2", "--t-transit", "0.5",
               "--p-max", "3"]
_SPINBOSON = ["spinboson", "--gamma0", "0.02", "--cutoff", "8", "--temperature", "2",
              "--t-max", "0.5", "--n-times", "6"]
_EXIT_2_CASES = {
    # 1e300 snapshots: numpy refuses the stack before the generator is built
    "evolve-dt-tiny": EVOLVE_FLAGS + ["--dt", "1e-300"],
    "qbm-dt-tiny": _QBM_FLAGS + ["--dt", "1e-300"],
    "qbm-n-x-0": _QBM_FLAGS + ["--wigner", "--n-x", "0"],
    "qbm-n-x-1": _QBM_FLAGS + ["--wigner", "--n-x", "1"],
    "qbm-alpha-overflows": _QBM_FLAGS + ["--alpha", "1e200"],
    "qbm-x-max-overflows": _QBM_FLAGS + ["--wigner", "--x-max", "1e300"],
    "qbm-x-max-negative": _QBM_FLAGS + ["--wigner", "--x-max", "-5"],
    "spinspin-n-times-0": ["spinspin", "--n-env", "2", "--t-max", "1", "--n-times", "0"],
    "qec-n-shots-0": ["qec", "--n-shots", "0"],
    "qec-n-shots-negative": ["qec", "--n-shots", "-5"],
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
    "spinspin-couplings-reversed": ["spinspin", "--n-env", "2", "--t-max", "1",
                                    "--coupling-low", "2", "--coupling-high", "1"],
    "spinspin-coupling-range-overflows": ["spinspin", "--n-env", "2", "--t-max", "1",
                                          "--coupling-low=-1e308", "--coupling-high=1e308"],
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
}


@pytest.mark.parametrize("argv", _EXIT_2_CASES.values(), ids=_EXIT_2_CASES.keys())
def test_invalid_inputs_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # outputs default to the working directory
    (tmp_path / "taken").write_text("")
    assert main(argv) == 2
    _assert_one_line(capsys.readouterr().err, 2)


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
