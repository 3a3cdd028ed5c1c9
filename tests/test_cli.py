import json

import numpy as np
import pytest

from decosim.cli import main


def _read_csv(path):
    lines = open(path).read().splitlines()
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


def test_qbm_emits_coherence_and_wigner_grids(tmp_path):
    # the default 201-point grid is needed: the auto window widens with
    # temperature and a coarse grid trips the momentum-aliasing guard
    rc = main([
        "qbm", "--gamma0", "0.01", "--cutoff", "10", "--temperature", "10",
        "--alpha", "1.0", "--t-final", "0.01", "--dt", "0.001",
        "--store-every", "2", "--n-max", "25", "--n-x", "201",
        "--output", str(tmp_path),
    ])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "qbm.csv")
    rel = _column(header, rows, "relative_coherence")
    assert rel[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(rel <= 1.0 + 1e-9)
    for name in ("wigner_initial.csv", "wigner_final.csv",
                 "wigner_initial_matrix.csv", "wigner_final_matrix.csv"):
        assert (tmp_path / name).exists()
    mat_header, mat_rows = _read_csv(tmp_path / "wigner_initial_matrix.csv")
    assert mat_header[0] == "row\\col"
    assert len(mat_rows) == 201


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
