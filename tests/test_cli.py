"""CLI tests: exit-code contract, output formats, manifests, determinism,
and JSON-schema validity of machine-readable reports."""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap

import jsonschema
import pytest

import bureshall
from bureshall import cli
from bureshall.cli import _oracle_check, main
from bureshall.quadrature import QuadratureResult

CUMULANTS_SCHEMA = {
    "type": "object",
    "required": ["m", "n", "kappa1", "kappa2", "kappa3", "skewness"],
    "properties": {
        "m": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "kappa1": {"type": "number"},
        "kappa2": {"type": "number"},
        "kappa3": {"type": "number"},
        "skewness": {"type": ["number", "null"]},
        "exact": {
            "type": "object",
            "required": ["kappa1", "kappa2", "kappa3"],
            "additionalProperties": {"type": "string"},
        },
    },
    "additionalProperties": False,
}

REPORT_CASE_SCHEMA = {
    "type": "object",
    "required": ["identity_id", "params", "residual_is_zero"],
    "properties": {
        "identity_id": {"type": "string"},
        "params": {"type": "object"},
        "residual_is_zero": {"type": "boolean"},
        "residual_text_if_nonzero": {"type": "string"},
    },
    "additionalProperties": False,
}

IDENTITIES_REPORT_SCHEMA = {
    "type": "object",
    "required": ["target", "max_m", "n_cases", "n_failures", "all_passed", "cases"],
    "properties": {
        "target": {"const": "identities"},
        "max_m": {"type": "integer"},
        "n_cases": {"type": "integer"},
        "n_failures": {"type": "integer"},
        "all_passed": {"type": "boolean"},
        "cases": {"type": "array", "items": REPORT_CASE_SCHEMA},
    },
}

ORACLES_REPORT_SCHEMA = {
    "type": "object",
    "required": ["target", "n_cases", "n_failures", "all_passed", "cases"],
    "properties": {
        "target": {"const": "oracles"},
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["m", "n", "kind", "value", "target", "abs_diff",
                             "tolerance", "converged", "passed"],
                "properties": {"converged": {"type": "boolean"}},
            },
        },
    },
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["command", "argv", "seeds", "version", "timestamp", "outputs"],
    "properties": {
        "command": {"type": "string"},
        "argv": {"type": "array", "items": {"type": "string"}},
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "outputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256", "bytes"],
            },
        },
    },
}


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("BURESHALL_OUT_DIR", str(tmp_path))
    return tmp_path


class TestCumulantsCommand:
    def test_exact_text(self, capsys):
        assert main(["cumulants", "--m", "2", "--n", "2", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "kappa3 = 75/8*z3 - 33/160*z2 - 295/27" in out
        assert "kappa1 = 2*l2 - 7/6" in out

    def test_m1_all_zero(self, capsys):
        assert main(["cumulants", "--m", "1", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "kappa3 = 0.0" in out
        assert "skewness = None" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exact_past_int_digit_limit(self, capsys, fmt):
        # from (48, 96) on, exact coefficients outgrow Python's 4300-digit
        # int/str limit; the limit is lifted only while the text is written
        limit = sys.get_int_max_str_digits()
        assert main(["cumulants", "--m", "48", "--n", "96", "--exact", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert max(map(len, re.findall(r"\d+", out))) > limit
        assert sys.get_int_max_str_digits() == limit

    def test_json_schema(self, capsys):
        assert main(["cumulants", "--m", "3", "--n", "4", "--format", "json",
                     "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, CUMULANTS_SCHEMA)

    def test_m_greater_than_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cumulants", "--m", "5", "--n", "3"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cumulants", "--m", "2", "--n", "2", "--frobnicate"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_writes_csv_and_manifest(self, outdir, capsys):
        args = ["simulate", "--m", "2", "--n", "2", "--samples", "2000",
                "--seed", "9", "--out", "s.csv", "--burn-in", "300",
                "--thinning", "3", "--chains", "10"]
        assert main(args) == 0
        csv_path = outdir / "s.csv"
        manifest_path = outdir / "s.csv.manifest.json"
        assert csv_path.exists() and manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        assert manifest["seeds"] == [9]
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert manifest["outputs"][0]["sha256"] == digest
        out = capsys.readouterr().out
        assert "kappa1" in out and "k1" in out

        # deterministic rerun: identical CSV digest
        assert main(args) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest

    def test_matrix_backend_requires_square(self, outdir):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--m", "2", "--n", "3", "--backend", "matrix",
                  "--samples", "10", "--seed", "1"])
        assert exc.value.code == 2

    def test_matrix_backend_runs(self, outdir, capsys):
        assert main(["simulate", "--m", "2", "--n", "2", "--backend", "matrix",
                     "--samples", "5000", "--seed", "4", "--out", "mat.csv"]) == 0
        assert (outdir / "mat.csv").exists()

    def test_pure_spectrum_entropy_is_positive_zero(self, outdir, capsys):
        # at m = 1 every spectrum is pure, so S is exactly 0 and reads 0.0
        assert main(["simulate", "--m", "1", "--n", "3", "--samples", "3",
                     "--seed", "1", "--out", "m1.csv"]) == 0
        text = (outdir / "m1.csv").read_text()
        assert "-0.0" not in text
        header, *rows = text.splitlines()
        column = header.split(",").index("S")
        assert [row.split(",")[column] for row in rows] == ["0.0"] * 3

    @pytest.mark.parametrize("samples", [50, 90])
    def test_standard_errors_need_ninety_samples(self, outdir, capsys, samples):
        # batch-means SEs need 30 batches of 3; below that the SE is n/a
        assert main(["simulate", "--m", "2", "--n", "3", "--samples", str(samples),
                     "--seed", "1", "--out", "few.csv"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        short = samples < 90
        assert out.count("+- n/a") == (3 if short else 0)
        assert ("standard errors need at least 90 samples (30 batches of 3), got 50"
                in out) == short


class TestVerifyCommands:
    def test_identities_report(self, outdir, capsys):
        assert main(["verify", "identities", "--max-m", "2"]) == 0
        report_bytes = (outdir / "identities_report.json").read_bytes()
        report = json.loads(report_bytes)
        jsonschema.validate(report, IDENTITIES_REPORT_SCHEMA)
        assert report["all_passed"]
        assert report["n_cases"] == 856
        # the whole report, every case id and parameter set in order, is pinned
        assert hashlib.sha256(report_bytes).hexdigest() == (
            "3d29b884c791ca926d730b7e9a49fb210b320b8d6a9aeec78926daf0e1c4ffda")
        manifest = json.loads(
            (outdir / "identities_report.json.manifest.json").read_text()
        )
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        # the argv main parsed, not the host process's sys.argv
        assert manifest["argv"] == ["verify", "identities", "--max-m", "2"]

    def test_oracles_report(self, outdir, capsys):
        assert main(["verify", "oracles"]) == 0
        report = json.loads((outdir / "oracles_report.json").read_text())
        jsonschema.validate(report, ORACLES_REPORT_SCHEMA)
        assert report["all_passed"]
        assert all(c["converged"] for c in report["cases"])
        # each error estimate bounds the distance to the closed form
        assert all(c["abs_diff"] <= c["error_estimate"] for c in report["cases"])
        kinds = {c["kind"] for c in report["cases"]}
        assert kinds == {"normalization", "kappa1", "kappa2", "kappa3"}

    def test_figure1_small_run(self, outdir, capsys):
        assert main(["verify", "figures", "--fig", "1", "--samples", "20000",
                     "--seed", "7"]) == 0
        report = json.loads((outdir / "figure1_report.json").read_text())
        assert report["l1_edgeworth"] < report["l1_gaussian"]
        assert (outdir / "figure1_density.csv").exists()

    def test_figure2_small_run(self, outdir, capsys):
        assert main(["verify", "figures", "--fig", "2", "--samples", "20000",
                     "--seed", "11"]) == 0
        report = json.loads((outdir / "figure2_report.json").read_text())
        assert report["negative_with_decaying_magnitude"]
        assert all(c["passed"] for c in report["spot_checks"])
        csv_lines = (outdir / "figure2_kappa3.csv").read_text().splitlines()
        assert csv_lines[0] == "m,n,kappa3"
        assert len(csv_lines) == 31  # header + 10 m-values x 3 families
        manifest = json.loads((outdir / "figure2_report.json.manifest.json").read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        assert manifest["seeds"] == [11, 12, 13]  # one per spot check

    def test_unconverged_oracle_fails(self):
        # a value within tolerance does not pass when its quadrature did not converge
        res = QuadratureResult(1.0, 1e-3, 1, converged=False)
        check = _oracle_check(2, 2, "normalization", res, 1.0, 1e-10)
        assert check["abs_diff"] == 0.0
        assert not check["converged"]
        assert not check["passed"]

    def test_oracle_outside_error_estimate_fails(self):
        # a converged value within tolerance does not pass when it misses the
        # target by more than the quadrature's own error estimate
        res = QuadratureResult(1.0 + 1e-7, 1e-9, 1, converged=True)
        check = _oracle_check(3, 3, "kappa3", res, 1.0, 1e-6)
        assert res.error_estimate < check["abs_diff"] < check["tolerance"]
        assert not check["passed"]

    def test_verify_requires_target(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_figures_requires_seed(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "figures", "--fig", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "2", "--n", "2", "--samples", "0", "--seed", "1"],
    # k-statistics need three values
    ["simulate", "--m", "2", "--n", "2", "--samples", "2", "--seed", "1"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "-1"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--chains", "0"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--thinning", "0"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--burn-in", "-1"],
    ["verify", "figures", "--fig", "1", "--samples", "5000", "--seed", "1"],
    # figure 2 seeds its three spot checks with seed, seed + 1, seed + 2
    ["verify", "figures", "--fig", "2", "--seed", str(2 ** 64 - 2)],
    # max-m 0 would check no catalog identity at all
    ["verify", "identities", "--max-m", "0"],
    ["cumulants", "--m", "0", "--n", "2"],
    ["simulate", "--m", "0", "--n", "2", "--samples", "100", "--seed", "1"],
])
def test_out_of_range_input_is_usage_error(outdir, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


_SIMULATE = ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--out"]


def _never_run(args):
    raise AssertionError("the command started")


@pytest.mark.parametrize("out_dir, argv", [
    pytest.param("work", _SIMULATE + ["/proc/x.csv"], id="simulate-unwritable-dir",
                 marks=pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                          reason="needs procfs")),
    pytest.param("work", _SIMULATE + ["{tmp}/afile/x.csv"], id="simulate-dir-is-file"),
    pytest.param("work", _SIMULATE + ["./"], id="simulate-cwd"),
    pytest.param("work", ["verify", "identities", "--out", "{tmp}/work"],
                 id="verify-existing-dir"),
    pytest.param("afile", ["verify", "figures", "--fig", "1", "--seed", "1"],
                 id="verify-out-dir-env-is-file"),
])
def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys, out_dir, argv):
    # an output path that names a directory or cannot be written exits 2
    # before the command starts, and writes nothing anywhere
    (tmp_path / "work").mkdir()
    (tmp_path / "afile").write_text("x\n")
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv("BURESHALL_OUT_DIR", str(tmp_path / out_dir))
    monkeypatch.setattr(cli, "_cmd_simulate", _never_run)
    monkeypatch.setattr(cli, "_cmd_verify", _never_run)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("bureshall: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "work"]
    assert list((tmp_path / "work").iterdir()) == []
    assert (tmp_path / "afile").read_text() == "x\n"


def _child_env(tmp_path) -> dict:
    """Environment of a child interpreter that imports this bureshall and
    writes its outputs into tmp_path."""
    src = os.path.dirname(os.path.dirname(bureshall.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, BURESHALL_OUT_DIR=str(tmp_path))


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # no command needs scipy, only the sampling commands need numpy and only
    # `verify identities` needs the identity catalog; the other commands skip
    # those import costs
    code = textwrap.dedent("""
        import sys, bureshall.cli as cli
        def loaded(names=("numpy", "scipy", "bureshall.identities")):
            print("loaded", [name for name in names if name in sys.modules])
        loaded()
        assert cli.main(["cumulants", "--m", "4", "--n", "6"]) == 0
        loaded()
        assert cli.main(["verify", "identities", "--max-m", "1"]) == 0
        loaded(("numpy", "scipy"))
        assert cli.main(["verify", "oracles"]) == 0
        loaded(("numpy", "scipy"))
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=60)
    assert [line for line in out.stdout.splitlines() if line.startswith("loaded")] == ["loaded []"] * 4


def test_cli_import_leaves_mpmath_unloaded(tmp_path):
    # the numeric cumulants come from psi_numeric in the stdlib decimal
    # module, so only `verify oracles`, through its quadrature, loads mpmath
    code = textwrap.dedent("""
        import sys, bureshall.cli as cli
        dims = ["--m", "4", "--n", "6"]
        for argv in (["cumulants", *dims], ["cumulants", *dims, "--format", "json"],
                     ["cumulants", *dims, "--exact"], ["verify", "identities", "--max-m", "1"],
                     ["verify", "oracles"]):
            assert cli.main(argv) == 0
            print("loaded", "mpmath" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded False"] * 4 + ["loaded True"]


def test_cli_import_leaves_multiprocessing_unloaded(tmp_path):
    # only a CSV of two or more blocks and `verify identities` import
    # multiprocessing, for their worker pools, and only with two or more usable
    # CPUs; the child sees two, so its last line shows that the guard can fail
    code = textwrap.dedent("""
        import os, sys, bureshall.cli as cli
        os.sched_getaffinity = lambda pid: {0, 1}
        for argv in (["cumulants", "--m", "4", "--n", "6"], ["verify", "oracles"],
                     ["verify", "identities", "--max-m", "1"]):
            assert cli.main(argv) == 0
            print("loaded", "multiprocessing" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded False"] * 2 + ["loaded True"]


def test_cli_leaves_dataclasses_and_ring_unloaded(tmp_path):
    # the records are NamedTuples, so no command loads dataclasses (nor the
    # inspect, ast and dis modules behind it), and only exact arithmetic
    # loads the constant ring; `--exact` shows that the ring guard can fail
    code = textwrap.dedent("""
        import sys, bureshall.cli as cli
        dims = ["--m", "4", "--n", "6"]
        for argv in (["cumulants", *dims], ["cumulants", *dims, "--format", "json"],
                     ["cumulants", *dims, "--exact"], ["verify", "oracles"],
                     ["verify", "identities", "--max-m", "1"],
                     ["simulate", "--m", "3", "--n", "4", "--samples", "400", "--seed", "1",
                      "--chains", "8", "--burn-in", "100"]):
            assert cli.main(argv) == 0
            print("loaded", "dataclasses" in sys.modules, "bureshall.ring" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=120)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded False False"] * 2 + ["loaded False True"] * 4


TRACE_CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "trace_child.py")


@pytest.mark.parametrize("argv, layer_spans", [
    (["cumulants", "--m", "4", "--n", "6", "--exact"],
     {"cumulants.cumulant_set", "cumulants.kappa", "polygamma.psi_exact", "ring.mul",
      "ring.add"}),
    (["verify", "identities", "--max-m", "1"],
     {"identities.residual", "identities.degeneracy", "identities.telescope"}),
    (["verify", "oracles"], {"quadrature.normalization", "quadrature.oracle_cumulants"}),
    (["simulate", "--m", "3", "--n", "4", "--samples", "400", "--seed", "1", "--chains", "8",
      "--burn-in", "100"],
     {"sampler.mcmc", "sampler.csv_write", "sampler.kstats"}),
    (["simulate", "--m", "3", "--n", "3", "--samples", "400", "--seed", "1", "--backend",
      "matrix"],
     {"sampler.matrix", "sampler.csv_write", "sampler.kstats"}),
    (["verify", "figures", "--fig", "1", "--samples", "10000", "--seed", "1"],
     {"sampler.mcmc", "distribution.density_comparison", "distribution.write_density_csv"}),
], ids=["exact", "identities", "oracles", "mcmc", "matrix", "figure1"])
def test_benchmark_tracer_hooks(tmp_path, argv, layer_spans):
    # the benchmark's tracer wraps the layers' entry points by name; a renamed
    # or removed entry point fails its install step, a bypassed one its span
    spans_path = tmp_path / "spans.json"
    run = subprocess.run([sys.executable, TRACE_CHILD, str(spans_path), *argv],
                         env=_child_env(tmp_path), cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert layer_spans | {"cli.main"} <= names
