"""Command-line front end: config parsing, sweeps, and CSV/JSON emission.

Configuration lives in a single YAML file (hierarchical key/value); any
value can be overridden from the command line, with flags taking precedence
over the file and the file over built-in defaults.  Every output file
starts with a header line carrying the package version and a hash of the
fully resolved configuration, and all numbers are written with 17
significant digits so outputs diff bit-identically across platforms.

Config schema (YAML, all keys optional unless noted)::

    model: model_i            # model_i | model_ii_full | model_ii_effective
    boundary: obc             # obc | pbc
    seed: 1234
    threads: 1                # disorder-sweep worker threads, a positive integer;
                              # default TOPOCORR_THREADS (same rule), else 1
    params:
      n_sites: 50             # model_i site count / model_ii cell count
      j: 1.0
      g_s: 1.0
      g_c: 1.0
      delta: 0.0
      phi: 1.5707963267948966
      gamma: 4.0
      g_c_prime: 3.0          # model_ii only
      gamma_prime: 30.0       # model_ii only
    omega_grid: {min: -4.0, max: 4.0, count: 601}
    winding: {n_k: 256, refine_tol: 1.0e-4}   # n_k from 1 to 262144; winding needs 64
    correlations: {omega: 0.0, equal_time: true}
                              # reference_site is accepted and ignored
    disorder:
      w_grid: [0.0, 0.25, 0.5]   # or {min, max, count}
      n_r: 100
      seed: 7
      observable: lambda_n       # lambda_n | r
      omega: 0.0
    quadrature: {rel_tol: 1.0e-6, tail_tol: 1.0e-8}
    outputs: {dir: out}
    validate: {n_sites: 40}

Each value must have the type of its default, so unknown keys, wrongly typed
values and non-integral sizes and counts are configuration errors.

Exit codes: 0 success, 2 configuration error, 3 dynamically unstable model,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .correlations import (
    QuadratureError,
    QuadratureSpec,
    equal_time,
    freq_correlations,
    lro_curve,
)
from .disorder import critical_disorder, disorder_sweep
from .greensvd import ResonanceError, singular_gap, singular_values, svd_at
from .models import (
    CouplingSet,
    ModelIParams,
    ModelIIParams,
    UnstableSystemError,
    adiabatic_eliminate,
    assert_stable,
    bloch_matrix,
    build_model_i,
    build_model_ii_full,
    dynamical_matrix,
)
from .topology import MAX_NK, MIN_NK, GapClosingError, winding_array, winding_number
from .validate import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "model": "model_i",
    "boundary": "obc",
    "seed": 1234,
    "threads": None,
    "params": {
        "n_sites": 50, "j": 1.0, "g_s": None, "g_c": None, "delta": 0.0,
        "phi": math.pi / 2, "gamma": 4.0, "g_c_prime": 3.0, "gamma_prime": 30.0,
    },
    "omega_grid": {"min": -4.0, "max": 4.0, "count": 601},
    "winding": {"n_k": 256, "refine_tol": 1e-4},
    "correlations": {"omega": 0.0, "reference_site": None, "equal_time": True},
    "disorder": {"w_grid": None, "n_r": 100, "seed": 7,
                 "observable": "lambda_n", "omega": 0.0},
    "quadrature": {"rel_tol": 1e-6, "tail_tol": 1e-8},
    "outputs": {"dir": "out"},
    "validate": {"n_sites": 40},
}

# model -> (parameter dataclass, chain builder); the first dataclass field is
# the size, which the config calls ``params.n_sites`` for every model
_MODELS = {
    "model_i": (ModelIParams, build_model_i),
    "model_ii_full": (ModelIIParams, build_model_ii_full),
    "model_ii_effective": (ModelIIParams, adiabatic_eliminate),
}

# string keys that take one of a fixed set of values
_CHOICES = {
    "model": tuple(_MODELS),
    "boundary": ("obc", "pbc"),
    "disorder.observable": ("lambda_n", "r"),
}

# flag -> (config path, argparse options); every flag but --config sets one key
_FLAGS = {
    "--model": ("model", {"choices": _CHOICES["model"]}),
    "--gamma": ("params.gamma", {"type": float}),
    "--omega-min": ("omega_grid.min", {"type": float}),
    "--omega-max": ("omega_grid.max", {"type": float}),
    "--omega-count": ("omega_grid.count", {"type": int}),
    "--bc": ("boundary", {"choices": _CHOICES["boundary"]}),
    "--n-sites": ("params.n_sites", {"type": int}),
    "--seed": ("seed", {"type": int}),
    "--out": ("outputs.dir", {"help": "output directory"}),
    "--threads": ("threads", {"type": int}),
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


# the kind of value a key whose default is None takes when it is set;
# correlations.reference_site is accepted and ignored
_UNSET_DEFAULTS = {"threads": 1, "params.g_s": 1.0, "params.g_c": 1.0}
# disorder.w_grid is a list of numbers or this mapping, which is also its default
_W_GRID = {"min": 0.0, "max": 3.0, "count": 13}


def _check_value(name: str, val, default) -> None:
    """Check a config value against the type of its default, naming its dotted path."""
    if isinstance(default, dict):
        if not isinstance(val, dict):
            raise ConfigError(f"{name} must be a mapping")
        for key, sub in val.items():
            path = f"{name}.{key}".lstrip(".")
            if key not in default:
                raise ConfigError(f"{path} is not a config key")
            _check_value(path, sub, default[key])
    elif name in _CHOICES:
        if val not in _CHOICES[name]:
            raise ConfigError(f"{name} must be one of {', '.join(_CHOICES[name])}, "
                              f"got {val!r}")
    elif default is None:
        if val is not None and name in _UNSET_DEFAULTS:
            _check_value(name, val, _UNSET_DEFAULTS[name])
    elif isinstance(default, bool):
        if not isinstance(val, bool):
            raise ConfigError(f"{name} must be true or false, got {val!r}")
    elif isinstance(default, (int, float)):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{name} must be a number, got {val!r}")
        if not math.isfinite(val):
            raise ConfigError(f"{name} must be finite, got {val}")
        if isinstance(default, int) and not isinstance(val, int):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
    elif not isinstance(val, str):
        raise ConfigError(f"{name} must be a string, got {val!r}")


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults < file < CLI flags)."""

    data: dict = field(default_factory=lambda: json.loads(json.dumps(_DEFAULTS)))

    @classmethod
    def load(cls, path: str | None, overrides: dict | None = None) -> "RunConfig":
        merged = json.loads(json.dumps(_DEFAULTS))
        if path is not None:
            try:
                with open(path) as fh:
                    loaded = yaml.safe_load(fh) or {}
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            if not isinstance(loaded, dict):
                raise ConfigError("config file must contain a mapping")
            merged = _deep_merge(merged, loaded)
        if overrides:
            merged = _deep_merge(merged, overrides)
        cfg = cls(data=merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check every value against ``_DEFAULTS``, then the rules beyond type."""
        _check_value("", self.data, _DEFAULTS)
        grid = self.data["disorder"]["w_grid"]
        if isinstance(grid, dict):
            _check_value("disorder.w_grid", grid, _W_GRID)
            if grid.keys() != _W_GRID.keys():
                raise ConfigError("disorder.w_grid mapping needs min, max and count")
        elif isinstance(grid, list):
            for val in grid:
                _check_value("disorder.w_grid", val, 0.0)
        elif grid is not None:
            raise ConfigError(f"disorder.w_grid must be a list or a mapping, got {grid!r}")
        if self.data["threads"] is not None and self.data["threads"] < 1:
            raise ConfigError(f"threads must be positive, got {self.data['threads']}")
        env = os.environ.get("TOPOCORR_THREADS", "1")
        if self.data["threads"] is None and not (env.strip().isdecimal() and int(env) > 0):
            raise ConfigError(f"TOPOCORR_THREADS must be a positive integer, got {env!r}")
        n_k = self.data["winding"]["n_k"]
        if not 1 <= n_k <= MAX_NK:
            raise ConfigError(f"winding.n_k must be between 1 and {MAX_NK}, got {n_k}")
        if not self.data["winding"]["refine_tol"] > 0:
            raise ConfigError("winding.refine_tol must be positive, got "
                              f"{self.data['winding']['refine_tol']}")
        og = self.data["omega_grid"]
        if og["count"] < 2:
            raise ConfigError("omega_grid.count must be >= 2")
        if not og["min"] < og["max"]:
            raise ConfigError("omega_grid.min must be below omega_grid.max")

    @property
    def config_hash(self) -> str:
        """Hash of the computational configuration (output paths excluded)."""
        payload = {k: v for k, v in self.data.items() if k != "outputs"}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    @property
    def threads(self) -> int:
        return self.data["threads"] or int(os.environ.get("TOPOCORR_THREADS", "1"))

    def coupling_set(self) -> CouplingSet:
        """The chain of ``model``; params left unset take the dataclass defaults."""
        params_cls, build = _MODELS[self.data["model"]]
        size, *names = (f.name for f in fields(params_cls))
        p = self.data["params"]
        given = {k: v for k, v in p.items() if k in names and v is not None}
        return build(params_cls(**{size: p["n_sites"]}, **given))

    def omega_values(self) -> np.ndarray:
        og = self.data["omega_grid"]
        return np.linspace(og["min"], og["max"], og["count"])

    def w_values(self) -> np.ndarray:
        grid = self.data["disorder"]["w_grid"]
        if grid is None:
            grid = _W_GRID
        if isinstance(grid, dict):
            return np.linspace(grid["min"], grid["max"], grid["count"])
        return np.asarray(grid, dtype=float)


# ---------------------------------------------------------------------------
# Output helpers


@functools.lru_cache(maxsize=None)
def _row_template(types: tuple) -> str:
    """``%``-template of a CSV row with values of these types: integers
    (bools and numpy integers too) print as ``str(int(x))``, everything
    else as ``format(float(x), ".17g")``."""
    return ",".join("%d" if issubclass(t, (int, np.integer)) else "%.17g"
                    for t in types) + "\n"


class OutputWriter:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.dir = Path(cfg.data["outputs"]["dir"])
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"outputs.dir cannot be created: {exc}") from exc
        self.written: list[Path] = []

    @property
    def header(self) -> str:
        return f"# topocorr v{__version__} config={self.cfg.config_hash}"

    def csv(self, name: str, columns: list[str], rows) -> Path:
        path = self.dir / name
        with open(path, "w", newline="\n") as fh:
            fh.write(self.header + "\n")
            fh.write(",".join(columns) + "\n")
            fh.writelines(_row_template(tuple(map(type, row))) % tuple(row) for row in rows)
        self.written.append(path)
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = self.dir / name
        with open(path, "w", newline="\n") as fh:
            fh.write(self.header + "\n")
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        self.written.append(path)
        return path


def matrix_rows(mat):
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            v = mat[i, j]
            yield i, j, v.real, v.imag, abs(v)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_spectrum(cfg: RunConfig) -> int:
    """Singular values over the frequency grid, OBC or per-band PBC minima."""
    c = cfg.coupling_set()
    out = OutputWriter(cfg)
    omegas = cfg.omega_values()
    if cfg.data["boundary"] == "obc":
        h = dynamical_matrix(c)
        assert_stable(h, "cmd_spectrum")
        values = singular_values(h, omegas)
        out.csv("spectrum_obc.csv", ["omega", "index", "singular_value"],
                ((w, i, s) for w, row in zip(omegas, values) for i, s in enumerate(row)))
    else:
        # Band structure is a property of the matrix family, not of a steady
        # state, so the stability gate does not apply under pbc.
        n_k = cfg.data["winding"]["n_k"]
        bloch = bloch_matrix(c, np.linspace(-np.pi, np.pi, n_k, endpoint=False))
        eye = np.eye(bloch.shape[-1])
        # one batched SVD per 8192 Bloch matrices: 32 frequencies at n_k = 256
        step = max(1, 8192 // n_k)
        band_min = np.concatenate([
            # ascending per band, then the minimum over k
            np.sort(np.linalg.svd(batch[:, None, None, None] * eye - bloch,
                                  compute_uv=False), axis=-1).min(axis=-2)
            for batch in np.split(omegas, range(step, omegas.size, step))
        ])
        out.csv("spectrum_pbc.csv", ["omega", "band", "min_singular_value"],
                ((w, i, s) for w, row in zip(omegas, band_min) for i, s in enumerate(row)))
    for p in out.written:
        print(p)
    return EXIT_OK


def cmd_winding(cfg: RunConfig) -> int:
    """Winding-number array over the frequency window, as JSON."""
    wcfg = cfg.data["winding"]
    if wcfg["n_k"] < MIN_NK:
        raise ConfigError(f"winding.n_k must be at least {MIN_NK} for winding, "
                          f"got {wcfg['n_k']}")
    c = cfg.coupling_set()
    og = cfg.data["omega_grid"]
    arr = winding_array(
        c,
        omega_max=max(abs(og["min"]), abs(og["max"])),
        n_omega=og["count"],
        refine_tol=wcfg["refine_tol"],
    )
    out = OutputWriter(cfg)
    out.json("winding.json", asdict(arr))
    try:
        nu0 = winding_number(c, 0.0, wcfg["n_k"])
    except GapClosingError:
        nu0 = "undefined, the gap closes at omega = 0"
    print(f"winding array: {arr.nus} closings at {[round(float(x), 6) for x in arr.closings]}"
          f" (nu(0) = {nu0})")
    for p in out.written:
        print(p)
    return EXIT_OK


def cmd_correlations(cfg: RunConfig) -> int:
    """Frequency-resolved and equal-time correlation matrices plus LRO curves."""
    q = cfg.data["quadrature"]
    quad = QuadratureSpec(rel_tol=q["rel_tol"], tail_tol=q["tail_tol"])
    c = cfg.coupling_set()
    h = dynamical_matrix(c)
    assert_stable(h, "cmd_correlations")
    out = OutputWriter(cfg)
    ccfg = cfg.data["correlations"]
    omega0 = float(ccfg["omega"])

    fc = freq_correlations(svd_at(h, omega0), c)
    out.csv("freq_nbar.csv", ["row", "col", "re", "im", "abs"],
            matrix_rows(np.nan_to_num(fc.n_bar)))
    out.csv("freq_mbar.csv", ["row", "col", "re", "im", "abs"],
            matrix_rows(np.nan_to_num(fc.m_bar)))

    out.csv("lro_curve.csv", ["omega", "lambda_n", "lambda_m"],
            zip(*lro_curve(c, cfg.omega_values())))

    if ccfg["equal_time"]:
        et = equal_time(c, quad)
        out.csv("equal_time_nbar.csv", ["row", "col", "re", "im", "abs"],
                matrix_rows(np.nan_to_num(et.n_bar)))
        out.csv("equal_time_mbar.csv", ["row", "col", "re", "im", "abs"],
                matrix_rows(np.nan_to_num(et.m_bar)))
        rep = et.quadrature_report
        print(f"equal-time quadrature: |omega| <= {rep.omega_max:.3g}, "
              f"{rep.panels} panels, {rep.evaluations} evaluations, "
              f"estimated error {rep.est_error:.3e}")
    for p in out.written:
        print(p)
    return EXIT_OK


def cmd_disorder(cfg: RunConfig) -> int:
    """Disorder sweep with rescaled collapse output and critical-disorder fit."""
    c = cfg.coupling_set()
    dcfg = cfg.data["disorder"]
    sweep = disorder_sweep(
        c, cfg.w_values(), n_r=dcfg["n_r"], seed=dcfg["seed"],
        observable=dcfg["observable"], omega=float(dcfg["omega"]),
        threads=cfg.threads,
    )
    h = dynamical_matrix(c)
    gap = singular_gap(svd_at(h, float(dcfg["omega"])), n_edge=1)
    out = OutputWriter(cfg)
    out.csv("disorder_sweep.csv", ["w", "mean", "stderr", "n_unstable"],
            zip(sweep.w_grid, sweep.means, sweep.stderrs, sweep.n_unstable))
    out.csv("disorder_collapse.csv",
            ["w", "w_over_sqrt_gap", "mean", "stderr"],
            zip(sweep.w_grid, sweep.w_grid / np.sqrt(gap), sweep.means, sweep.stderrs))
    payload = {"gap": gap, "n_r": sweep.n_r, "seed": sweep.seed,
               "observable": sweep.observable_name}
    try:
        w_c = critical_disorder(sweep)
        payload["w_c"] = w_c
        payload["c"] = w_c / math.sqrt(gap)
        print(f"W_c = {w_c:.4f}, gap = {gap:.4f}, c = W_c/sqrt(gap) = {payload['c']:.3f}")
    except ValueError as exc:
        payload["w_c"] = None
        print(f"critical disorder not identified: {exc}")
    frac_bad = sweep.n_unstable.max() / sweep.n_r
    if frac_bad > 0.1:
        print(f"warning: up to {100 * frac_bad:.0f}% unstable realizations at some W")
    out.json("disorder_fit.json", payload)
    for p in out.written:
        print(p)
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    """Run the invariant suite and print one pass/fail line per check."""
    report = run_validation(n_sites=cfg.data["validate"]["n_sites"],
                            seed=cfg.data["seed"])
    for line in report.lines():
        print(line)
    print(f"{'OK' if report.all_passed else 'FAILED'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks, "
          f"{report.elapsed_s:.1f} s)")
    return EXIT_OK if report.all_passed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topocorr",
        description="Steady-state topological diagnostics of driven-dissipative chains",
    )
    parser.add_argument("--version", action="version", version=f"topocorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", default=None, help="YAML configuration file")
        for flag, (_, options) in _FLAGS.items():
            p.add_argument(flag, **options)
    return parser


def _overrides_from_args(args) -> dict:
    over: dict = {}
    for flag, (path, _) in _FLAGS.items():
        val = getattr(args, flag[2:].replace("-", "_"))
        if val is not None:
            section, _, key = path.rpartition(".")
            node = over.setdefault(section, {}) if section else over
            node[key] = val
    return over


COMMANDS = {
    "spectrum": cmd_spectrum,
    "winding": cmd_winding,
    "correlations": cmd_correlations,
    "disorder": cmd_disorder,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, _overrides_from_args(args))
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except UnstableSystemError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (GapClosingError, ResonanceError, QuadratureError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # precondition violations surfaced by the library (window too small,
        # incompatible model for the requested quantity, ...)
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
