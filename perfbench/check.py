"""Reference outputs of the seed commit, and the accuracy each output is held to.

An op passes when every file it writes agrees with the stored reference
within the accuracy the code states for it:

* winding ``nus`` and ``stable`` exactly, closings within ``refine_tol``
  (the bisection stops at that width);
* singular values to ``RTOL`` relative, plus ``sv_floor * s_max`` on
  workloads whose SVDs take the dense route (see ``Workload.sv_floor``);
* LRO curves, frequency-resolved correlation matrices and disorder means
  to ``RTOL`` (matrices normwise, in the Frobenius norm);
* equal-time matrices normwise within ``QUAD_FACTOR * rel_tol``: panels are
  accepted at ``rel_tol`` of the running scale, and each normalized entry
  combines three integrated entries;
* disorder ``n_unstable`` exactly;
* ``validate``: every check that passed at the seed commit still passes.

Byte-identical files are counted, never required: a changed byte is a miss
only when it moves a number beyond its tolerance.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

RTOL = 1e-8
QUAD_FACTOR = 10.0

_VALIDATE_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*): residual ")


def _read_header_json(path: Path) -> dict:
    with open(path) as fh:
        fh.readline()  # "# topocorr v... config=..." header
        return json.load(fh)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        fh.readline()
        columns = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return columns, data.reshape(-1, len(columns))


def extract(cmd: str, out_dir: Path, stdout: str) -> dict:
    """Everything an op produced that the check compares: per file its
    sha256, parsed CSV columns or JSON payload, plus validate's verdicts."""
    files, arrays, payloads = {}, {}, {}
    for path in sorted(out_dir.glob("*")) if out_dir.is_dir() else []:
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".csv":
            columns, data = _read_csv(path)
            for i, col in enumerate(columns):
                arrays[f"{path.name}:{col}"] = data[:, i]
        else:
            payloads[path.name] = _read_header_json(path)
    verdicts = {}
    if cmd == "validate":
        for line in stdout.splitlines():
            m = _VALIDATE_LINE.match(line)
            if m:
                verdicts[m.group(2)] = m.group(1)
    return {"files": files, "arrays": arrays, "json": payloads, "validate": verdicts}


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.is_dir() else 0


# ---------------------------------------------------------------------------
# Comparisons: each returns a list of human-readable misses.


def _same_nan(a, b) -> bool:
    return a.shape == b.shape and bool(np.array_equal(np.isnan(a), np.isnan(b)))


def _close(name, a, b, rtol, atol=0.0) -> list[str]:
    if not _same_nan(a, b):
        return [f"{name}: shape or NaN pattern differs"]
    ok = ~np.isnan(b)
    err = np.abs(a[ok] - b[ok]) - np.broadcast_to(atol, b.shape)[ok] - rtol * np.abs(b[ok])
    if err.size and err.max() > 0:
        i = int(np.argmax(err))
        return [f"{name}: {a[ok][i]!r} vs reference {b[ok][i]!r}"]
    return []


def _exact(name, a, b) -> list[str]:
    if not _same_nan(a, b) or not np.array_equal(a[~np.isnan(b)], b[~np.isnan(b)]):
        return [f"{name}: differs from reference"]
    return []


def _matrix(arrays, fname) -> np.ndarray:
    rows = arrays[f"{fname}:row"].astype(int)
    cols = arrays[f"{fname}:col"].astype(int)
    mat = np.zeros((rows.max() + 1, cols.max() + 1), dtype=complex)
    mat[rows, cols] = arrays[f"{fname}:re"] + 1j * arrays[f"{fname}:im"]
    return mat


def _normwise(name, a, b, rtol) -> list[str]:
    if a.shape != b.shape:
        return [f"{name}: shape {a.shape} vs reference {b.shape}"]
    rel = np.linalg.norm(a - b) / np.linalg.norm(b)
    return [] if rel <= rtol else [f"{name}: normwise relative error {rel:.3e} > {rtol:.1e}"]


def _check_spectrum(got, ref, fname, sv_floor) -> list[str]:
    misses = _exact(f"{fname} omega", got[f"{fname}:omega"], ref[f"{fname}:omega"])
    misses += _exact(f"{fname} index", got[f"{fname}:index"], ref[f"{fname}:index"])
    if misses:
        return misses
    s_ref = ref[f"{fname}:singular_value"]
    n_omega = np.unique(ref[f"{fname}:omega"]).size
    floor = sv_floor * np.repeat(s_ref.reshape(n_omega, -1).max(axis=1), s_ref.size // n_omega)
    return _close(f"{fname} singular_value", got[f"{fname}:singular_value"], s_ref, RTOL, floor)


def _check_json(fname, got, ref, cfg) -> list[str]:
    if fname == "winding.json":
        misses = []
        if got["nus"] != ref["nus"] or got["stable"] != ref["stable"]:
            misses.append(f"winding: nus {got['nus']} stable {got['stable']} vs "
                          f"reference {ref['nus']} {ref['stable']}")
        elif len(got["closings"]) != len(ref["closings"]):
            misses.append("winding: number of closings differs")
        else:
            misses += _close("winding closings", np.array(got["closings"]),
                             np.array(ref["closings"]), 0.0, cfg["winding"]["refine_tol"])
        return misses
    misses = []
    if set(got) != set(ref):
        return [f"{fname}: keys {sorted(got)} vs reference {sorted(ref)}"]
    for key, val in ref.items():
        if isinstance(val, float) and isinstance(got[key], (int, float)):
            misses += _close(f"{fname} {key}", np.array([float(got[key])]),
                             np.array([val]), RTOL)
        elif got[key] != val:
            misses.append(f"{fname} {key}: {got[key]!r} vs reference {val!r}")
    return misses


def compare(got: dict, ref: dict, cfg: dict, sv_floor: float) -> list[str]:
    """Misses of one op's extracted outputs against its reference."""
    if set(got["files"]) != set(ref["files"]):
        return [f"files {sorted(got['files'])} vs reference {sorted(ref['files'])}"]
    misses = []
    for name, verdict in ref["validate"].items():
        if verdict == "PASS" and got["validate"].get(name) != "PASS":
            misses.append(f"validate: {name!r} no longer passes")
    for fname in ref["json"]:
        misses += _check_json(fname, got["json"][fname], ref["json"][fname], cfg)
    ga, ra = got["arrays"], ref["arrays"]
    for fname in ref["files"]:
        if fname == "spectrum_obc.csv":
            misses += _check_spectrum(ga, ra, fname, sv_floor)
        elif fname == "lro_curve.csv":
            misses += _exact("lro omega", ga[f"{fname}:omega"], ra[f"{fname}:omega"])
            for col in ("lambda_n", "lambda_m"):
                misses += _close(f"lro {col}", ga[f"{fname}:{col}"], ra[f"{fname}:{col}"], RTOL)
        elif fname.startswith(("freq_", "equal_time_")):
            rtol = RTOL if fname.startswith("freq_") else QUAD_FACTOR * cfg["quadrature"]["rel_tol"]
            misses += _normwise(fname, _matrix(ga, fname), _matrix(ra, fname), rtol)
        elif fname == "disorder_sweep.csv":
            misses += _exact("disorder w", ga[f"{fname}:w"], ra[f"{fname}:w"])
            misses += _exact("disorder n_unstable", ga[f"{fname}:n_unstable"],
                             ra[f"{fname}:n_unstable"])
            for col in ("mean", "stderr"):
                misses += _close(f"disorder {col}", ga[f"{fname}:{col}"], ra[f"{fname}:{col}"], RTOL)
        elif fname == "disorder_collapse.csv":
            for col in ("w", "w_over_sqrt_gap", "mean", "stderr"):
                misses += _close(f"collapse {col}", ga[f"{fname}:{col}"], ra[f"{fname}:{col}"], RTOL)
        elif fname not in ref["json"]:
            misses.append(f"{fname}: no rule to check this file")
    return misses


# ---------------------------------------------------------------------------
# Storage: one .npz of arrays and one .json of the rest per workload, keyed
# by reference key and subcommand.


def save_references(ref_dir: Path, workload: str, refs: dict[str, dict[str, dict]]) -> None:
    """``refs[key][cmd]`` is the :func:`extract` of one op at the seed commit."""
    ref_dir.mkdir(parents=True, exist_ok=True)
    arrays, meta = {}, {}
    for key, by_cmd in refs.items():
        meta[key] = {}
        for cmd, ext in by_cmd.items():
            for name, arr in ext["arrays"].items():
                arrays[f"{key}|{cmd}|{name}"] = arr
            meta[key][cmd] = {k: ext[k] for k in ("files", "json", "validate")}
    np.savez_compressed(ref_dir / f"{workload}.npz", **arrays)
    (ref_dir / f"{workload}.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


def load_reference(ref_dir: Path, workload: str, key: str) -> dict[str, dict]:
    """``{cmd: extract}`` stored for one reference key; KeyError if absent."""
    meta = json.loads((ref_dir / f"{workload}.json").read_text())[key]
    refs = {cmd: dict(m, arrays={}) for cmd, m in meta.items()}
    with np.load(ref_dir / f"{workload}.npz", allow_pickle=False) as npz:
        for name in npz.files:
            k, cmd, col = name.split("|", 2)
            if k == key:
                refs[cmd]["arrays"][col] = npz[name]
    return refs
