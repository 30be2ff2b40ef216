"""Each script under ``scripts/`` runs end to end at a tiny size."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script, arguments, and the CSV files it writes with their data-row counts
SCRIPTS = [
    ("disorder_collapse.py",
     ["--n-sites", "12", "--n-r", "2", "--w-steps", "7", "--gammas", "5.0"],
     {"lro_collapse.csv": 7}),
    ("winding_phase_scan.py", ["--steps", "3"],
     {"model_i_arrays.csv": 3, "model_ii_effective_arrays.csv": 3}),
    ("correlation_profiles.py", ["--n-sites", "12", "--reference", "5", "--gammas", "5.0"],
     {"frequency_rows.csv": 12, "equal_time_rows.csv": 12}),
]


def run_script(script, out, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(out),
                           *args], env=env, capture_output=True, text=True, check=True,
                          timeout=300)


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


@pytest.mark.parametrize("script,args,outputs", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(tmp_path, script, args, outputs):
    run_script(script, tmp_path, args)
    for name, n_rows in outputs.items():
        header, rows = read_csv(tmp_path / name)
        assert len(rows) == n_rows, name
        assert all(len(row) == len(header) for row in rows), name


def test_correlation_profiles_skip_unstable_gammas(tmp_path):
    # at n=50 the gate finds gamma=3 unstable (its norm certificate never
    # falls below one): the script skips it instead of failing on it
    out = run_script("correlation_profiles.py", tmp_path,
                     ["--n-sites", "50", "--reference", "24", "--gammas", "3.0", "5.0"])
    assert "skipped gamma=3.0" in out.stdout
    for name, lead in [("frequency_rows.csv", ["site"]),
                       ("equal_time_rows.csv", ["site", "gaussian_envelope"])]:
        header, rows = read_csv(tmp_path / name)
        assert header == [*lead, "gamma_5.0"], name
        assert len(rows) == 50, name
