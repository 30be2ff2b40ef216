import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import topocorr as tc
from topocorr import cli
from topocorr.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNSTABLE,
    ConfigError,
    OutputWriter,
    RunConfig,
    _DEFAULTS,
    main,
)
from topocorr.topology import MAX_NK, MIN_NK

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def run_under_blas_threads(tmp_path, argv):
    """Run the CLI in a subprocess under 1 and then 2 OpenBLAS threads;
    returns the two output directories."""
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        outs.append(tmp_path / threads)
        subprocess.run([sys.executable, "-m", "topocorr.cli", *argv, "--out", str(outs[-1])],
                       env=env, check=True, capture_output=True)
    return outs


def read_lines(path):
    return path.read_text().splitlines()


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig.load(None)
        assert cfg.data["model"] == "model_i"

    def test_file_overridden_by_flags(self, tmp_path):
        f = tmp_path / "cfg.yaml"
        f.write_text(yaml.safe_dump({"params": {"gamma": 3.0}, "seed": 1}))
        cfg = RunConfig.load(str(f), {"params": {"gamma": 7.0}})
        assert cfg.data["params"]["gamma"] == 7.0
        assert cfg.data["seed"] == 1

    def test_bad_model_rejected(self):
        with pytest.raises(Exception):
            RunConfig.load(None, {"model": "nonsense"})

    @pytest.mark.parametrize("section,key", [
        ("params", "gamma"), ("params", "j"), ("omega_grid", "max"), ("omega_grid", "count"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
            RunConfig.load(None, {section: {key: value}})

    @pytest.mark.parametrize("section,key,value", [
        ("omega_grid", "min", "a"), ("omega_grid", "count", "x"), ("params", "gamma", "x"),
        ("quadrature", "rel_tol", "x"), ("winding", "refine_tol", "x"),
        ("params", "j", None), ("winding", "n_k", True),
    ])
    def test_non_numeric_values_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key} must be a number"):
            RunConfig.load(None, {section: {key: value}})

    @pytest.mark.parametrize("section", ["params", "omega_grid", "outputs"])
    def test_section_must_be_a_mapping(self, tmp_path, section):
        f = tmp_path / "cfg.yaml"
        f.write_text(f"{section}: null\n")
        with pytest.raises(ConfigError, match=f"{section} must be a mapping"):
            RunConfig.load(str(f))

    def test_hash_changes_with_content(self):
        a = RunConfig.load(None, {"seed": 1})
        b = RunConfig.load(None, {"seed": 2})
        assert a.config_hash != b.config_hash


class TestSpectrumCommand:
    def test_obc_output(self, tmp_path):
        rc = run([
            "spectrum", "--model", "model_i", "--gamma", "4.0", "--n-sites", "10",
            "--omega-min", "-1.0", "--omega-max", "1.0", "--omega-count", "5",
            "--out", str(tmp_path),
        ])
        assert rc == EXIT_OK
        lines = read_lines(tmp_path / "spectrum_obc.csv")
        assert lines[0].startswith("# topocorr v")
        assert lines[1] == "omega,index,singular_value"
        assert len(lines) == 2 + 5 * 20

    def test_flat_bands_zero_coupling(self, tmp_path):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "params": {"n_sites": 4, "j": 0.0, "g_s": 0.0, "g_c": 0.0, "gamma": 2.0},
            "omega_grid": {"min": -1.0, "max": 1.0, "count": 3},
            "outputs": {"dir": str(tmp_path / "out")},
        }))
        assert run(["spectrum", "--config", str(cfgfile)]) == EXIT_OK
        rows = read_lines(tmp_path / "out" / "spectrum_obc.csv")[2:]
        for row in rows:
            w, _, s = row.split(",")
            assert float(s) == pytest.approx(abs(float(w) + 1j), rel=1e-12)

    def test_pbc_band_minima(self, tmp_path):
        rc = run([
            "spectrum", "--model", "model_i", "--gamma", "8.0", "--bc", "pbc",
            "--n-sites", "10", "--omega-count", "5", "--out", str(tmp_path),
        ])
        assert rc == EXIT_OK
        cfg = RunConfig.load(None, {
            "boundary": "pbc", "params": {"gamma": 8.0, "n_sites": 10},
            "omega_grid": {"count": 5},
        })
        n_k = cfg.data["winding"]["n_k"]
        bloch = tc.bloch_matrix(cfg.coupling_set(),
                                np.linspace(-np.pi, np.pi, n_k, endpoint=False))
        expected = []
        for w in cfg.omega_values():
            svals = np.linalg.svd(w * np.eye(bloch.shape[-1]) - bloch, compute_uv=False)
            # values come descending per k; band 0 is the lowest
            expected.extend((w, band, s) for band, s in enumerate(svals[:, ::-1].min(axis=0)))
        rows = [row.split(",") for row in read_lines(tmp_path / "spectrum_pbc.csv")[2:]]
        assert [(float(w), int(b), float(s)) for w, b, s in rows] == expected

    @pytest.mark.parametrize("n_k", [0, 10**8])
    def test_pbc_grid_out_of_range_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                     n_k):
        # 10**8 k-points would be about 6 GB of Bloch matrices; the config is
        # rejected before any Bloch matrix is built
        def no_scan(*args):
            raise AssertionError("Bloch matrices built")

        monkeypatch.setattr(cli, "bloch_matrix", no_scan)
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({"winding": {"n_k": n_k}}))
        rc = run(["spectrum", "--config", str(cfgfile), "--bc", "pbc", "--n-sites", "4",
                  "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"configuration error: winding.n_k must be between 1 and {MAX_NK}, got {n_k}")
        assert not (tmp_path / "out").exists()

    def test_instability_exit_code(self, tmp_path):
        rc = run([
            "spectrum", "--model", "model_i", "--gamma", "1.0",
            "--n-sites", "8", "--out", str(tmp_path),
        ])
        assert rc == EXIT_UNSTABLE

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "spectrum", "--model", "model_i", "--gamma", "4.0", "--n-sites", "6",
            "--omega-count", "3",
        ]
        run(argv + ["--out", str(tmp_path / "a")])
        run(argv + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "spectrum_obc.csv").read_bytes() == \
            (tmp_path / "b" / "spectrum_obc.csv").read_bytes()

    def test_blas_thread_count_does_not_change_the_bytes(self, tmp_path):
        # the README spectrum, whose channel values call no BLAS
        one, two = run_under_blas_threads(tmp_path, [
            "spectrum", "--model", "model_i", "--gamma", "4", "--n-sites", "50"])
        assert (one / "spectrum_obc.csv").read_bytes() == (two / "spectrum_obc.csv").read_bytes()


class TestWindingCommand:
    def test_json_payload(self, tmp_path):
        rc = run([
            "winding", "--model", "model_i", "--gamma", "4.0", "--n-sites", "2",
            "--omega-count", "201", "--out", str(tmp_path),
        ])
        assert rc == EXIT_OK
        lines = read_lines(tmp_path / "winding.json")
        payload = json.loads(lines[1])
        assert payload["nus"] == [0, 1, 0]
        assert payload["stable"] is True
        np.testing.assert_allclose(
            payload["closings"], [-np.sqrt(3), np.sqrt(3)], atol=2e-2
        )

    def test_summary_line_prints_plain_floats(self, tmp_path, capsys):
        rc = run([
            "winding", "--model", "model_i", "--gamma", "4.0", "--n-sites", "2",
            "--omega-count", "201", "--out", str(tmp_path),
        ])
        assert rc == EXIT_OK
        closings = json.loads(read_lines(tmp_path / "winding.json")[1])["closings"]
        rounded = ", ".join(repr(round(x, 6)) for x in closings)
        assert capsys.readouterr().out.splitlines()[0] == (
            f"winding array: (0, 1, 0) closings at [{rounded}] (nu(0) = 1)"
        )

    @pytest.mark.parametrize("gamma,nus", [(2.0, [0, 1, 0]), (6.0, [0])])
    def test_gap_closing_at_zero_leaves_nu0_undefined(self, tmp_path, capsys, gamma, nus):
        # model_i's gap closes at omega = 0 for gamma = 2 and 6: the array is
        # written, and nu(0) is reported as undefined rather than an error
        rc = run(["winding", "--model", "model_i", "--gamma", str(gamma), "--n-sites", "20",
                  "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert json.loads(read_lines(tmp_path / "winding.json")[1])["nus"] == nus
        assert "(nu(0) = undefined, the gap closes at omega = 0)" in capsys.readouterr().out

    @pytest.mark.parametrize("n_k", [1, MIN_NK - 1])
    def test_grid_below_the_winding_floor_is_a_config_error(self, tmp_path, capsys, n_k):
        # spectrum --bc pbc accepts these grids; the winding pass needs MIN_NK
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({"winding": {"n_k": n_k},
                                           "omega_grid": {"count": 3}}))
        rc = run(["winding", "--config", str(cfgfile), "--n-sites", "4",
                  "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: winding.n_k must be at least {MIN_NK} for winding, "
            f"got {n_k}\n")
        assert not (tmp_path / "out").exists()
        assert run(["spectrum", "--config", str(cfgfile), "--bc", "pbc", "--n-sites", "4",
                    "--out", str(tmp_path / "pbc")]) == EXIT_OK


class TestCorrelationsCommand:
    def test_outputs(self, tmp_path):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "params": {"n_sites": 8, "gamma": 5.0},
            "omega_grid": {"min": -2.0, "max": 2.0, "count": 5},
            "outputs": {"dir": str(tmp_path / "out")},
        }))
        assert run(["correlations", "--config", str(cfgfile)]) == EXIT_OK
        out = tmp_path / "out"
        for name in ("freq_nbar.csv", "freq_mbar.csv", "lro_curve.csv",
                     "equal_time_nbar.csv", "equal_time_mbar.csv"):
            assert (out / name).exists(), name
        rows = read_lines(out / "freq_nbar.csv")[2:]
        assert len(rows) == 64
        # 17 significant digits in the payload
        first = rows[0].split(",")
        assert first[2] == "1" or len(first[2]) >= 15

    def test_quadrature_line_reports_the_evaluations(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "params": {"n_sites": 4, "gamma": 5.0}, "omega_grid": {"count": 3},
            "outputs": {"dir": str(tmp_path / "out")},
        }))
        assert run(["correlations", "--config", str(cfgfile)]) == EXIT_OK
        rep = tc.equal_time(tc.build_model_i(tc.ModelIParams(n_sites=4, gamma=5.0))
                            ).quadrature_report
        line = next(x for x in capsys.readouterr().out.splitlines()
                    if x.startswith("equal-time quadrature:"))
        assert f"{rep.panels} panels, {rep.evaluations} evaluations, " in line


    def test_blas_thread_count_does_not_change_the_bytes(self, tmp_path):
        # at omega = 0 the topological value of this channel chain is 5e-14
        # of the largest; freq_* take its closed-form triple and lro_curve the
        # channel resolvent, neither of which depends on the BLAS threads.
        # The equal-time Gram product (zherk) does, so it is left out.
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({"correlations": {"equal_time": False}}))
        one, two = run_under_blas_threads(tmp_path, [
            "correlations", "--config", str(cfgfile), "--model", "model_i", "--gamma", "5",
            "--n-sites", "100", "--omega-count", "21"])
        for name in ("freq_nbar.csv", "freq_mbar.csv", "lro_curve.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


class TestDisorderCommand:
    def test_sweep_and_collapse(self, tmp_path):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "params": {"n_sites": 16, "gamma": 5.0},
            "disorder": {"w_grid": [0.0, 1.0, 2.5], "n_r": 4, "seed": 3,
                         "observable": "r"},
            "outputs": {"dir": str(tmp_path / "out")},
        }))
        assert run(["disorder", "--config", str(cfgfile)]) == EXIT_OK
        out = tmp_path / "out"
        sweep = read_lines(out / "disorder_sweep.csv")
        assert sweep[1] == "w,mean,stderr,n_unstable"
        assert len(sweep) == 5
        collapse = read_lines(out / "disorder_collapse.csv")
        assert collapse[1] == "w,w_over_sqrt_gap,mean,stderr"
        fit = json.loads(read_lines(out / "disorder_fit.json")[1])
        assert fit["observable"] == "r"
        assert fit["w_c"] is None  # too few points for a slope estimate

    def test_unstable_base_exit_code(self, tmp_path):
        rc = run(["disorder", "--gamma", "1", "--n-sites", "8", "--out", str(tmp_path)])
        assert rc == EXIT_UNSTABLE


class TestValidateCommand:
    def test_passes(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({"validate": {"n_sites": 16}}))
        assert run(["validate", "--config", str(cfgfile)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("quadrature", [{"rel_tol": 0}, {"tail_tol": -1.0e-8}])
def test_non_positive_quadrature_tolerance_is_a_config_error(tmp_path, capsys, quadrature):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "params": {"n_sites": 4, "gamma": 5.0}, "omega_grid": {"count": 3},
        "quadrature": quadrature, "outputs": {"dir": str(tmp_path / "out")},
    }))
    assert run(["correlations", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert "must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unreachable_quadrature_tolerance_exits_numerical(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "params": {"n_sites": 4, "gamma": 5.0, "delta": 0.3}, "omega_grid": {"count": 3},
        "quadrature": {"rel_tol": 1e-300}, "outputs": {"dir": str(tmp_path / "out")},
    }))
    assert run(["correlations", "--config", str(cfgfile)]) == EXIT_NUMERICAL
    assert "within 4096 panels" in capsys.readouterr().err
    assert not (tmp_path / "out" / "equal_time_nbar.csv").exists()


@pytest.mark.parametrize("command,config,name", [
    ("disorder", {"disorder": {"w_grid": {"min": "a", "max": 1.0, "count": 3}}},
     "disorder.w_grid.min"),
    ("disorder", {"disorder": {"w_grid": {"min": 0.0, "max": 1.0}}}, "disorder.w_grid"),
    ("disorder", {"disorder": {"w_grid": [0.0, "x"]}}, "disorder.w_grid"),
    ("disorder", {"disorder": {"w_grid": 0.5}}, "disorder.w_grid"),
    ("disorder", {"disorder": {"n_r": "many"}}, "disorder.n_r"),
    ("disorder", {"disorder": {"seed": [7]}}, "disorder.seed"),
    ("disorder", {"disorder": {"omega": None}}, "disorder.omega"),
    ("validate", {"validate": {"n_sites": [3]}}, "validate.n_sites"),
    ("validate", {"seed": [1]}, "seed"),
    ("correlations", {"correlations": {"omega": [1]}}, "correlations.omega"),
    ("disorder", {"threads": "two"}, "threads"),
    ("disorder", {"threads": float("inf")}, "threads"),
    ("winding", {"winding": {"n_k": 1000000}}, "winding.n_k"),
    ("winding", {"winding": {"refine_tol": 0}}, "winding.refine_tol"),
    ("winding", {"winding": {"refine_tol": -1}}, "winding.refine_tol"),
])
def test_non_numeric_config_values_are_config_errors(tmp_path, capsys, command, config,
                                                     name):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "params": {"n_sites": 4, "gamma": 5.0}, "omega_grid": {"count": 3},
        "outputs": {"dir": str(tmp_path / "out")}, **config,
    }))
    assert run([command, "--config", str(cfgfile)]) == EXIT_CONFIG
    assert f"configuration error: {name}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def schema_leaves(defaults, prefix=""):
    """Dotted path and default of every leaf of the config schema."""
    for key, default in defaults.items():
        if isinstance(default, dict):
            yield from schema_leaves(default, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", default


def assert_config_error(tmp_path, capsys, monkeypatch, name, settings, flags=()):
    """``spectrum`` on a tiny chain with ``settings`` (dotted path -> value) set
    exits 2 naming ``name`` on one line, and writes nothing."""
    config = {"params": {"n_sites": 4, "gamma": 5.0}, "omega_grid": {"count": 3},
              "outputs": {"dir": str(tmp_path / "out")}}
    for path, value in settings.items():
        *sections, key = path.split(".")
        node = config
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    (tmp_path / "c.yaml").write_text(yaml.safe_dump(config))
    before = sorted(tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--config", str(tmp_path / "c.yaml"), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {name} ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


# every leaf but correlations.reference_site, which takes any value and is ignored
CHECKED_LEAVES = [leaf for leaf in schema_leaves(_DEFAULTS)
                  if leaf[0] != "correlations.reference_site"]


@pytest.mark.parametrize("name,default", CHECKED_LEAVES,
                         ids=[name for name, _ in CHECKED_LEAVES])
def test_wrongly_typed_leaf_is_a_config_error(tmp_path, capsys, monkeypatch, name, default):
    # a string where a number or bool belongs, a float where an integer does
    wrong = {str: 5, int: 2.5}.get(type(default), "x")
    assert_config_error(tmp_path, capsys, monkeypatch, name, {name: wrong})


# inputs that used to run, truncated or reinterpreted, and the key each error names
SILENTLY_ACCEPTED = [
    ("parms", {"parms": {"gamma": 3.0}}),
    ("params.gama", {"params.gama": 3.0}),
    ("params.n_sites", {"params.n_sites": 6.9}),
    ("omega_grid.count", {"omega_grid.count": 2.5}),
    ("disorder.n_r", {"disorder.n_r": 2.5}),
    ("disorder.w_grid.count", {"disorder.w_grid": {"min": 0.0, "max": 1.0, "count": 3.5}}),
    ("disorder.w_grid.step", {"disorder.w_grid": {"min": 0.0, "max": 1.0, "count": 3,
                                                  "step": 0.5}}),
    ("correlations.equal_time", {"correlations.equal_time": "no"}),
    ("threads", {"threads": 0}),
]


@pytest.mark.parametrize("name,settings", SILENTLY_ACCEPTED,
                         ids=[name for name, _ in SILENTLY_ACCEPTED])
def test_silently_accepted_inputs_are_config_errors(tmp_path, capsys, monkeypatch, name,
                                                    settings):
    assert_config_error(tmp_path, capsys, monkeypatch, name, settings)


@pytest.mark.parametrize("bad", ["number", "under-a-file"])
def test_unusable_output_dir_is_a_config_error(tmp_path, capsys, monkeypatch, bad):
    if bad == "number":
        assert_config_error(tmp_path, capsys, monkeypatch, "outputs.dir", {"outputs.dir": 5})
    else:
        (tmp_path / "afile").write_text("")
        assert_config_error(tmp_path, capsys, monkeypatch, "outputs.dir", {},
                            flags=["--out", str(tmp_path / "afile" / "sub")])


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_bad_thread_variable_is_a_config_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("TOPOCORR_THREADS", value)
    assert_config_error(tmp_path, capsys, monkeypatch, "TOPOCORR_THREADS", {})


def test_thread_variable_sets_the_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("TOPOCORR_THREADS", "2")
    assert RunConfig.load(None).threads == 2
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({"disorder": {"w_grid": [0.0, 1.0], "n_r": 3}}))
    rc = run(["disorder", "--config", str(cfgfile), "--gamma", "5", "--n-sites", "8",
              "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: not_a_model\n")
    assert run(["spectrum", "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ["--gamma", "nan"], ["--gamma", "inf"], ["--omega-max", "inf"], ["--omega-min", "nan"],
], ids=["gamma-nan", "gamma-inf", "omega-max-inf", "omega-min-nan"])
def test_non_finite_flag_is_a_config_error(tmp_path, capsys, flags):
    rc = run(["spectrum", "--n-sites", "4", "--omega-count", "3", "--out", str(tmp_path)]
             + flags)
    assert rc == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


def test_gap_closing_reported_as_numerical_failure(tmp_path):
    # a frequency window that cannot reach trivial winding at its edges
    rc = run([
        "winding", "--model", "model_i", "--gamma", "4.0", "--n-sites", "2",
        "--omega-max", "1.0", "--omega-min", "-1.0", "--omega-count", "51",
        "--out", str(tmp_path),
    ])
    assert rc == EXIT_CONFIG or rc == EXIT_NUMERICAL


def test_winding_reads_a_closing_on_a_grid_point(tmp_path):
    # model_i closes at +-1.2 for gamma = 1.2, on a point of the default
    # grid; the zero count finds the gap closed there, the point drops out,
    # and the closings are mirror images
    rc = run([
        "winding", "--model", "model_i", "--gamma", "1.2", "--n-sites", "40",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    arr = json.loads((tmp_path / "winding.json").read_text().splitlines()[1])
    assert arr["nus"] == [0, 1, 0, 1, 0]
    exact = [-np.sqrt(4 - 0.4**2), -1.2, 1.2, np.sqrt(4 - 0.4**2)]
    np.testing.assert_allclose(arr["closings"], exact, rtol=0, atol=0.5e-4)
    assert abs(arr["closings"][0] + arr["closings"][3]) < 1e-12
    assert abs(arr["closings"][1] + arr["closings"][2]) < 1e-12


def old_csv_value(x) -> str:
    """How every CSV value was written before rows were formatted by template."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


_CSV_VALUES = st.one_of(
    st.integers(-2**63, 2**64 - 1),
    st.booleans(),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")]),
)


@given(rows=st.lists(st.lists(_CSV_VALUES, min_size=1, max_size=6), max_size=8))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_rows_keep_the_value_rule(tmp_path, rows):
    cfg = RunConfig.load(None, {"outputs": {"dir": str(tmp_path)}})
    path = OutputWriter(cfg).csv("rows.csv", ["a"], rows)
    body = path.read_text().split("\n", 2)[2]
    assert body == "".join(",".join(old_csv_value(x) for x in row) + "\n" for row in rows)
