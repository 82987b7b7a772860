import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nilflow.checks as checks_module
import nilflow.cli
import nilflow.curvature
from nilflow import Family, Trajectory, closed_form
from nilflow.cli import _json_dumps, main


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- curvature -----------------------------------------------------------

def test_curvature_h1_json(tmp_path):
    out = tmp_path / "cur.json"
    assert run(["curvature", "--family", "heisenberg", "--n", "1",
                "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["family"] == "heisenberg"
    assert doc["result"]["ricci_diag"] == [-0.5, -0.5, 0.5]
    assert doc["result"]["scalar"] == -0.5
    assert doc["result"]["sigma"] == 1.0
    assert doc["result"]["ricci_offdiag_max"] == 0.0


def test_curvature_q1_json(tmp_path):
    out = tmp_path / "cur.json"
    assert run(["curvature", "--family", "quaternion", "--n", "1",
                "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["result"]["ricci_diag"] == [-1.5] * 4 + [1.0] * 3
    assert doc["result"]["scalar"] == -3.0
    assert doc["result"]["sigma_prime"] == 6.0
    assert doc["result"]["sigma_123"] == [2.0, 2.0, 2.0]


def test_curvature_custom_g0(tmp_path):
    out = tmp_path / "cur.json"
    assert run(["curvature", "--family", "heisenberg", "--n", "1",
                "--g0", "1.3,0.7,2.1", "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["result"]["ricci_diag"][2] == pytest.approx(
        2.1**2 / (2 * 1.3 * 0.7), rel=1e-15)


def test_curvature_evaluates_the_diagonal_kernel_once(tmp_path, monkeypatch):
    # the specialized Ricci diagonal, scalar and sigma all come from one evaluation
    calls = []
    real = nilflow.curvature._diag_curvature

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (nilflow.curvature, nilflow.cli):
        monkeypatch.setattr(module, "_diag_curvature", counted)
    assert run(["curvature", "--family", "quaternion", "--n", "2",
                "--output", str(tmp_path / "cur.json")]) == 0
    assert len(calls) == 1


def test_importing_the_cli_skips_the_sweep_pool():
    src = os.path.dirname(os.path.dirname(nilflow.__file__))
    code = "import sys, nilflow.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# --- flow ----------------------------------------------------------------

def test_flow_csv_matches_closed_form(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["flow", "--family", "heisenberg", "--n", "1",
                "--dt", "1e-3", "--t-end", "1", "--output", str(out)]) == 0
    text = out.read_text()
    traj = Trajectory.from_csv(text, Family.HEISENBERG, 1, 0.0)
    assert traj.times[-1] == pytest.approx(1.0)
    expected = closed_form(Family.HEISENBERG, np.ones(3), 1, 0.0, 1.0)
    assert np.abs(traj.final_state() - expected).max() < 1e-6
    assert traj.final_state()[0] == pytest.approx(4.0 ** (1 / 3), abs=1e-8)

    ledger = read_json(str(out) + ".ledger.json")
    assert ledger["result"]["terminated_reason"] == "horizon"
    assert all(v < 1e-8 for v in ledger["result"]["invariant_drift"].values())


def test_flow_deterministic_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["flow", "--family", "quaternion", "--n", "1", "--rho", "-0.25",
            "--dt", "1e-2", "--t-end", "0.5"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flow_csv_roundtrip_exact(tmp_path):
    out = tmp_path / "traj.csv"
    run(["flow", "--family", "heisenberg", "--n", "2", "--rho", "0.05",
         "--dt", "1e-2", "--t-end", "0.3", "--output", str(out)])
    text = out.read_text()
    traj = Trajectory.from_csv(text, Family.HEISENBERG, 2, 0.05)
    assert traj.to_csv() == text


def test_flow_strict_exit_on_early_termination(tmp_path):
    # rho far above the threshold blows up the center well before t-end
    out = tmp_path / "boom.csv"
    code = run(["flow", "--family", "heisenberg", "--n", "1", "--rho", "40",
                "--dt", "0.5", "--t-end", "1000", "--strict",
                "--output", str(out)])
    assert code == 3
    ledger = read_json(str(out) + ".ledger.json")
    assert ledger["result"]["terminated_reason"] in ("overflow", "degenerate")


def test_invalid_parameters_exit_2(tmp_path):
    out = tmp_path / "x"
    assert run(["flow", "--family", "heisenberg", "--n", "0",
                "--output", str(out)]) == 2
    assert run(["curvature", "--family", "heisenberg", "--n", "1",
                "--g0", "1,2", "--output", str(out)]) == 2
    assert run(["curvature", "--family", "heisenberg", "--n", "1",
                "--g0", "1,-2,1", "--output", str(out)]) == 2


@pytest.mark.parametrize("args", [
    ["curvature", "--family", "heisenberg", "--n=-1"],
    ["flow", "--family", "heisenberg", "--n=-1"],
    ["spectrum", "--family", "heisenberg", "--n=-1"],
    ["sweep", "--family", "heisenberg", "--n=-1"],
    ["curvature", "--family", "quaternion", "--n=0", "--g0", "1"],
], ids=["curvature", "flow", "spectrum", "sweep", "curvature-g0"])
def test_n_below_one_exit_2_naming_n(args, tmp_path, capsys):
    out = tmp_path / "x"
    assert run(args + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "n must be a positive integer" in err
    assert "negative dimensions" not in err and "--g0" not in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["curvature", "flow", "spectrum", "sweep"])
def test_nonpositive_g0_exit_2_with_one_message(subcommand, tmp_path, capsys):
    out = tmp_path / "x"
    args = [subcommand, "--family", "heisenberg", "--n", "1", "--g0", "1,-2,1",
            "--output", str(out)]
    if subcommand == "sweep":
        args += ["--output-dir", str(tmp_path / "runs")]
    assert run(args) == 2
    assert "diagonal metric has a nonpositive component" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "runs").exists()


def test_flow_time_grid_not_whole_steps_exit_2(tmp_path, capsys):
    # t_end = 1, dt = 0.3 would stop at t = 0.9 and still report a full horizon
    out = tmp_path / "traj.csv"
    assert run(["flow", "--family", "heisenberg", "--n", "1", "--t-end", "1",
                "--dt", "0.3", "--output", str(out)]) == 2
    assert "whole number of dt steps" in capsys.readouterr().err
    assert not out.exists()


def test_bad_usage_exit_2(capsys):
    assert run(["no-such-subcommand"]) == 2
    capsys.readouterr()


# --- verify --------------------------------------------------------------

@pytest.mark.parametrize("family,n", [("heisenberg", "1"), ("quaternion", "1")])
def test_verify_passes(tmp_path, family, n):
    out = tmp_path / "verify.json"
    assert run(["verify", "--family", family, "--n", n, "--rho", "-0.25",
                "--seed", "42", "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["result"]["all_pass"] is True
    names = {c["name"] for c in doc["result"]["checks"]}
    assert names == {
        "ricci_oracle_equivalence", "closed_form_agreement", "invariant_drift",
        "ricci_flow_reduction", "spectral_degradation", "p8_identities",
        "central_periods", "length_spectrum_witness",
    }
    assert all(c["pass"] for c in doc["result"]["checks"])


def test_verify_rejects_a_metric_exit_2(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--family", "heisenberg", "--n", "2", "--g0", "1,2,3,4,5",
                "--output", str(out)]) == 2
    assert "--g0 must be 'identity'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route,failing", [
    ("ricci_specialized_diag", {"ricci_oracle_equivalence", "ricci_flow_reduction"}),
    ("scalar_specialized", {"ricci_oracle_equivalence"}),
])
def test_verify_fails_exactly_the_checks_of_a_perturbed_route(tmp_path, monkeypatch,
                                                              route, failing):
    original = getattr(checks_module, route)
    monkeypatch.setattr(checks_module, route, lambda *a: original(*a) * (1.0 + 1e-9))
    out = tmp_path / "verify.json"
    assert run(["verify", "--family", "heisenberg", "--n", "2", "--output", str(out)]) == 1
    result = read_json(out)["result"]
    assert result["all_pass"] is False
    assert {c["name"] for c in result["checks"] if not c["pass"]} == failing


# --- spectrum ------------------------------------------------------------

def test_spectrum_identity(tmp_path):
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--family", "heisenberg", "--n", "1",
                "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["result"]["mu"] == 1
    assert doc["result"]["thetas"] == [1.0]
    assert doc["result"]["verdict"] == "HeisenbergType"
    assert doc["result"]["classification"] == "HeisenbergType"
    assert doc["result"]["p_factor_theoretical"] == 1.0
    assert doc["result"]["central_periods"]["set"] == [1.0]


def test_spectrum_flowed(tmp_path):
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--family", "quaternion", "--n", "1",
                "--t", "1", "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["result"]["p_factor_theoretical"] == pytest.approx(1 / 9)
    assert doc["result"]["p_factor_observed"] == pytest.approx(1 / 9, rel=1e-12)
    assert doc["result"]["verdict"] == "HeisenbergLike"
    z_norm = doc["result"]["central_periods"]["z_norm"]
    assert z_norm == pytest.approx(math.sqrt(9.0 ** (-1 / 4)), rel=1e-12)


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_spectrum_non_finite_t_exit_2(t, tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--family", "heisenberg", "--n", "1", f"--t={t}",
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "LinAlgError" not in err
    assert not out.exists()


def test_spectrum_center_with_too_many_periods_exit_2(tmp_path, capsys):
    # |Z*| = 1e10 would list about 1.6e9 central periods
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--family", "heisenberg", "--n", "1", "--g0", "1,1,1e20",
                "--output", str(out)]) == 2
    assert "central element norm" in capsys.readouterr().err
    assert not out.exists()


# --- sweep ---------------------------------------------------------------

def test_sweep(tmp_path):
    outdir = tmp_path / "runs"
    summary = tmp_path / "sweep.json"
    assert run(["sweep", "--family", "heisenberg", "--n", "1",
                "--rho=-0.5,0,0.05", "--dt", "1e-2", "--t-end", "1",
                "--output-dir", str(outdir), "--output", str(summary)]) == 0
    doc = read_json(summary)
    runs = doc["result"]["runs"]
    assert [r["rho"] for r in runs] == [-0.5, 0.0, 0.05]
    for r in runs:
        assert os.path.exists(r["csv"])
        assert r["terminated_reason"] == "horizon"
        g_end = closed_form(Family.HEISENBERG, np.ones(3), 1, r["rho"], 1.0)
        assert np.abs(np.array(r["final_state"]) - g_end).max() < 1e-6
    assert {os.path.basename(r["csv"]) for r in runs} == {
        "H1_rho-0.5.csv", "H1_rho0.csv", "H1_rho0.05.csv"}


def test_sweep_file_name_collision_exit_2(tmp_path, capsys):
    # {rho:g} keeps 6 significant digits: all three rhos would write H1_rho0.0123456.csv
    outdir = tmp_path / "runs"
    summary = tmp_path / "sweep.json"
    assert run(["sweep", "--family", "heisenberg", "--n", "1",
                "--rho=0.01234561,0.01234562,0.01234561", "--dt", "1e-2", "--t-end", "1",
                "--output-dir", str(outdir), "--output", str(summary)]) == 2
    assert "H1_rho0.0123456.csv" in capsys.readouterr().err
    assert not outdir.exists() and not summary.exists()


def _reject_non_finite(token):
    raise ValueError(f"non-finite JSON token {token}")


def test_spectrum_json_is_strict_with_non_finite_values(tmp_path):
    # this metric makes p_factor_observed nan; strict JSON has no token for it
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--family", "heisenberg", "--n", "2",
                "--g0", "1,2,1,1,1", "--output", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_non_finite)
    assert doc["result"]["p_factor_observed"] is None


def test_json_dumps_escapes_and_keeps_float_bytes():
    obj = {'k"e\\y\n': ['q"uo\\te', "tab\tbell\x07"],
           "x": [0.1, -1.0 / 3.0, np.float64(2.0) ** 0.5, 1e-300],
           "bad": [float("nan"), float("inf"), -np.inf]}
    text = _json_dumps(obj)
    doc = json.loads(text, parse_constant=_reject_non_finite)
    assert list(doc) == list(obj)
    assert doc['k"e\\y\n'] == obj['k"e\\y\n']
    assert doc["x"] == obj["x"]
    assert doc["bad"] == [None, None, None]
    # finite floats keep their 17 significant digits, byte for byte
    assert "0.10000000000000001" in text and "-0.33333333333333331" in text


def test_json_floats_roundtrip(tmp_path):
    out = tmp_path / "cur.json"
    run(["curvature", "--family", "heisenberg", "--n", "1",
         "--g0", "1.3,0.7,2.1", "--output", str(out)])
    doc = read_json(out)
    # 17 significant digits reproduce the double exactly
    assert doc["result"]["scalar_specialized"] == -0.5 * 2.1 / (1.3 * 0.7)
