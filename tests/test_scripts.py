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


@pytest.mark.parametrize("script,args,outputs", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(tmp_path, script, args, outputs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path),
                    *args], env=env, capture_output=True, text=True, check=True, timeout=300)
    for name, n_rows in outputs.items():
        with open(tmp_path / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == n_rows, name
        assert all(len(row) == len(header) for row in rows), name
