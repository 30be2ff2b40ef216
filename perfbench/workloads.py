"""The chains, sizes and CLI invocations the benchmark runs.

Nothing here imports numpy, so that :func:`pin_threads` can run before the
BLAS library is loaded.  The reasons for each workload are in README.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

BLAS_THREADS = 1
MAX_SWEEP_THREADS = 2
# Disorder draws are keyed by ``--seed`` modulo this; reference outputs of
# the seed commit are stored for every key, so every seed is checked.
N_DISORDER_KEYS = 64


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_threads() -> int:
    """Disorder-sweep threads, so that BLAS threads x sweep threads <= nproc."""
    return max(1, min(MAX_SWEEP_THREADS, nproc() // BLAS_THREADS))


def pin_threads() -> dict[str, str]:
    """Fix the BLAS/OpenMP thread count; must run before numpy is imported."""
    pinned = {var: str(BLAS_THREADS)
              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    os.environ.update(pinned)
    return pinned


def import_topocorr():
    """Import ``topocorr.cli`` from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "topocorr" / "__init__.py").is_file():
        raise ImportError(f"no topocorr package under {src}")
    sys.path.insert(0, str(src))
    import topocorr.cli

    if Path(topocorr.cli.__file__).resolve().parents[1] != src.resolve():
        raise ImportError(f"topocorr imported from {topocorr.cli.__file__}, not {src}")
    return topocorr


@dataclass(frozen=True)
class Workload:
    """One chain and the subcommands run on it, in order, as one pass."""

    name: str
    model: str
    gamma: float
    n_sites: int
    commands: tuple[str, ...]
    omega_count: int = 101
    n_r: int = 0
    w_count: int = 13
    validate_n_sites: int = 40
    # Singular-value tolerance floor in units of the largest value at each
    # frequency: 0 where every SVD takes the channel route, which states full
    # relative accuracy; dense SVD bounds its error by eps * s_max.
    sv_floor: float = 0.0

    def reference_key(self, seed: int) -> str:
        """Symmetric and dimer chains are deterministic; the seed drives disorder only."""
        return str(seed % N_DISORDER_KEYS) if "disorder" in self.commands else "fixed"

    def config(self, seed: int) -> dict:
        """The CLI config file of this workload, as a mapping."""
        cfg = {
            "model": self.model,
            "params": {"n_sites": self.n_sites, "gamma": self.gamma},
            "omega_grid": {"min": -4.0, "max": 4.0, "count": self.omega_count},
            "winding": {"n_k": 256, "refine_tol": 1e-4},
            "quadrature": {"rel_tol": 1e-6, "tail_tol": 1e-8},
            "validate": {"n_sites": self.validate_n_sites},
        }
        if "disorder" in self.commands:
            cfg["threads"] = sweep_threads()
            cfg["disorder"] = {
                "w_grid": {"min": 0.0, "max": 3.0, "count": self.w_count},
                "n_r": self.n_r,
                "seed": int(self.reference_key(seed)),
            }
        return cfg

    def smoke(self) -> "Workload":
        """The same chain and route mix at sizes that run in about a second."""
        return replace(self, n_sites=5 if self.model == "model_ii_full" else 12,
                       omega_count=21, n_r=min(self.n_r, 2), w_count=3,
                       validate_n_sites=12)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("symmetric", "model_i", 5.0, 40,
                 ("spectrum", "winding", "correlations", "validate")),
        Workload("dimer", "model_ii_full", 3.0, 15,
                 ("spectrum", "winding", "correlations"), sv_floor=1e-13),
        Workload("disorder", "model_i", 5.0, 100, ("disorder",), n_r=4),
    )
}


@dataclass
class Op:
    """One subcommand invocation: its wall time, exit code and captured stdout."""

    cmd: str
    # wall time of the call, less the calibration units run inside it (run.py)
    seconds: float
    rc: int | None
    stdout: str
    out_dir: Path
    error: str = ""
    # ``seconds`` scaled to the calibration kernel's reference speed, or
    # ``seconds`` itself for an op run without a calibrator (run.py)
    scaled_s: float = 0.0
    misses: tuple[str, ...] = ()
    bytes_written: int = 0
    files_identical: int = 0

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.error) or bool(self.misses)


def write_config(workload: Workload, seed: int, work_dir: Path) -> Path:
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / "config.yaml"
    path.write_text(yaml.safe_dump(workload.config(seed), sort_keys=True))
    return path


def run_op(cli, cmd: str, config: Path, work_dir: Path, span=None) -> Op:
    """Run ``topocorr <cmd>`` in-process; only the ``cli.main`` call is timed.

    ``span`` is an optional context manager wrapped around the call, used by
    the traced run to record the command span.
    """
    out_dir = work_dir / cmd
    shutil.rmtree(out_dir, ignore_errors=True)
    buf = io.StringIO()
    error = ""
    rc = None
    with contextlib.redirect_stdout(buf), (span or contextlib.nullcontext()):
        t0 = time.perf_counter()
        try:
            rc = cli.main([cmd, "--config", str(config), "--out", str(out_dir)])
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    if error:
        print(f"{cmd} raised:\n{error}", file=sys.stderr)
    return Op(cmd=cmd, seconds=seconds, rc=rc, stdout=buf.getvalue(),
              out_dir=out_dir, error=error)
