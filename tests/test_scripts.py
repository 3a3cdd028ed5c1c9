"""Smoke runs of the study scripts: each finishes and writes its CSV header."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, extra, filename, header", [
    pytest.param("cat_lifetime_sweep.py", [], "cat_lifetimes.csv",
                 "alpha,separation,measured_rate,asymptotic_rate", id="cat_lifetime_sweep"),
    pytest.param("trajectory_scaling.py", ["--reps", "1"], "scaling.csv",
                 "n_trajectories,mean_distance,spread,reps", id="trajectory_scaling"),
])
def test_script_writes_its_table(tmp_path, script, extra, filename, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--output", str(tmp_path), *extra],
        check=True, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = (tmp_path / filename).read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
    if script == "trajectory_scaling.py":  # the counts are integers, the statistics floats
        assert [line.split(",")[0::3] for line in lines[1:]] == [
            ["100", "1"], ["1000", "1"], ["10000", "1"]]
