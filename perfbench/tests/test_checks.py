"""Each output check accepts the program's real output and rejects a
tampered one, and a rejected output counts its command as failed."""

import json
import random

import numpy as np
import pytest

import checks
import run
from bureshall import cli

GOLDEN = run._golden()
SMALL = 4096  # samples for in-process simulate runs


def cli_stdout(capsys, *args) -> str:
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


def settle_one(cmd, stdout, out_dir, code=0):
    return run.settle([cmd], [run.ChildResult(1.0, code, 10.0, stdout)], out_dir)


def test_cumulants_json(capsys):
    golden = GOLDEN["cumulants"]["10,20"]
    out = cli_stdout(capsys, "cumulants", "--m", "10", "--n", "20", "--format", "json")
    assert checks.check_cumulants_json(out, golden) == []

    payload = json.loads(out)
    payload["kappa2"] *= 1 + 1e-12
    assert checks.check_cumulants_json(json.dumps(payload), golden)
    del payload["skewness"]
    assert checks.check_cumulants_json(json.dumps(payload), golden)
    assert checks.check_cumulants_json("kappa1 = 2.0", golden)


def test_cumulants_exact_text(capsys):
    golden, text = GOLDEN["cumulants"]["4,6"], GOLDEN["exact_text"]["4,6"]
    out = cli_stdout(capsys, "cumulants", "--m", "4", "--n", "6", "--exact")
    assert checks.check_cumulants_exact_text(out, golden, text) == []

    for old, new in (("270769/720720", "270768/720720"),  # another polynomial
                     ("270769/720720", "270769/0"),  # does not parse
                     ("81/68*z3", "81/68*z3 + 0*g"),  # not canonical
                     ("-0.4500753290096698", "-0.45007532901")):  # skewness off by 7e-13
        assert old in out
        assert checks.check_cumulants_exact_text(out.replace(old, new), golden, text)
    assert checks.check_cumulants_exact_text(out.split("kappa3")[0], golden, text)


def write_report(path, **report):
    path.write_text(json.dumps(report))
    return str(path)


def test_verify_report(tmp_path):
    ok = write_report(tmp_path / "r.json", all_passed=True, n_cases=2452)
    assert checks.check_verify_report(ok, 2452) == []
    assert checks.check_verify_report(ok, None) == []

    skipped = write_report(tmp_path / "s.json", all_passed=True, n_cases=2000)
    assert checks.check_verify_report(skipped, 2452)
    failed = write_report(tmp_path / "f.json", all_passed=False, n_cases=2452)
    assert checks.check_verify_report(failed, 2452)
    assert checks.check_verify_report(str(tmp_path / "missing.json"), 2452)


@pytest.fixture
def simulated(tmp_path, monkeypatch, capsys):
    """A small MCMC sample CSV with its manifest, written by the CLI."""
    monkeypatch.setenv("BURESHALL_OUT_DIR", str(tmp_path))
    cmd = run._simulate("simulate_mcmc_s", 4, 6, SMALL, 5, GOLDEN, "ess_per_s.m4")
    out = cli_stdout(capsys, *cmd.args)
    return cmd, out, tmp_path, tmp_path / cmd.args[-1]


def test_simulate_output_passes_and_yields_ess(simulated):
    cmd, out, out_dir, _ = simulated
    seq = settle_one(cmd, out, out_dir)
    assert (seq.attempted, seq.failed) == (1, 0), seq.problems
    assert 0 < seq.metrics["ess_per_s.m4"] <= SMALL


def test_manifest_rejects_changed_output(simulated):
    cmd, out, out_dir, csv = simulated
    manifest = str(csv) + ".manifest.json"
    assert checks.check_manifest(manifest) == []
    csv.write_text(csv.read_text().replace("\n", "\n\n", 1))
    assert checks.check_manifest(manifest)
    assert settle_one(cmd, out, out_dir).failed == 1


def test_samples_reject_tampered_data(simulated):
    _, _, _, csv = simulated
    data = checks.load_csv(str(csv))
    kappa1 = GOLDEN["cumulants"]["4,6"]["kappa1"]
    assert checks.check_samples(data, 4, SMALL, kappa1) == []

    assert checks.check_samples(data[:-1], 4, SMALL, kappa1)  # a row short
    assert checks.check_samples(data[:, :-1], 4, SMALL, kappa1)  # a column short
    bad_sum = data.copy()
    bad_sum[7, 4] += 1e-9
    assert checks.check_samples(bad_sum, 4, SMALL, kappa1)
    shifted = data.copy()
    shifted[:, 3] += 12 * checks.chain_aware_se(data)
    assert checks.check_samples(shifted, 4, SMALL, kappa1)


def test_chain_aware_se_of_independent_draws():
    rng = np.random.default_rng(0)
    n = 64 * 500
    data = np.zeros((n, 5))
    data[:, 3] = rng.standard_normal(n)
    assert checks.chain_aware_se(data) == pytest.approx(1 / np.sqrt(n), rel=0.25)


def test_density_csv():
    assert checks.check_density_csv(np.zeros((1201, 4)), 1201) == []
    assert checks.check_density_csv(np.zeros((1200, 4)), 1201)
    nan = np.zeros((1201, 4))
    nan[3, 2] = np.nan
    assert checks.check_density_csv(nan, 1201)


def test_tampered_or_failing_commands_count_as_failed(capsys, tmp_path):
    commands = run.exact_workload(random.Random(0), GOLDEN)
    cmd = next(c for c in commands if "--exact" in c.args)
    out = cli_stdout(capsys, *cmd.args)
    assert settle_one(cmd, out, tmp_path).failed == 0
    assert settle_one(cmd, out.replace("81/68", "81/67"), tmp_path).failed == 1
    assert settle_one(cmd, out, tmp_path, code=1).failed == 1

    verify = run.verify_workload(random.Random(0), GOLDEN)
    seq = settle_one(verify[0], "", tmp_path)  # no report written
    assert (seq.attempted, seq.failed) == (1, 1)
