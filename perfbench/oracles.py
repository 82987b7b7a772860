"""Strict output parsing and the oracle checks of each job kind.

Every check returns the job's largest error as a share of its tolerance
(``oracle.max_err_ratio``) or raises ``OracleFailure``.  Oracle error is a
pass/fail gate, never a compared metric: reordering a sum moves it by ulps.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FLOW_CLOSED_FORM_RTOL = 1e-6
FLOW_DRIFT_TOL = 1e-8
CURVATURE_TOL = 1e-12
SPECTRAL_EIG_RTOL = 1e-9
SPECTRAL_P8_TOL = 1e-10

# `nilflow verify` check names, in output order, with their tolerances.
VERIFY_TOLERANCES = {
    "ricci_oracle_equivalence": 1e-12,
    "closed_form_agreement": 1e-6,
    "invariant_drift": 1e-8,
    "ricci_flow_reduction": 0.0,
    "spectral_degradation": 1e-9,
    "p8_identities": 1e-10,
    "central_periods": 1e-12,
    "length_spectrum_witness": 1e-12,
}


class OracleFailure(Exception):
    """A job's output is malformed or disagrees with its oracle."""


def _reject_constant(token):
    raise OracleFailure(f"non-finite JSON token {token!r}")


def _unique_keys(pairs):
    out = dict(pairs)
    if len(out) != len(pairs):
        raise OracleFailure("duplicate JSON key")
    return out


def strict_json(text: str):
    """Parse JSON, rejecting NaN/Infinity tokens and duplicate keys."""
    try:
        return json.loads(text, parse_constant=_reject_constant,
                          object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise OracleFailure(f"invalid JSON: {exc}") from None


def strict_csv(text: str, dim: int) -> np.ndarray:
    """Parse a trajectory CSV: header t,g_1..g_dim, every row that wide, finite floats."""
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 3:
        raise OracleFailure("CSV must hold a header and rows, each ending in a newline")
    header = "t," + ",".join(f"g_{i + 1}" for i in range(dim))
    if lines[0] != header:
        raise OracleFailure(f"CSV header {lines[0]!r} is not {header!r}")
    rows = []
    for number, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise OracleFailure(f"CSV line {number} has {len(fields)} fields, header has {dim + 1}")
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise OracleFailure(f"CSV line {number} holds a non-number") from None
    out = np.array(rows)
    if not np.isfinite(out).all():
        raise OracleFailure("CSV holds a non-finite value")
    return out


def rel_err(observed, expected) -> float:
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape:
        raise OracleFailure(f"shape {observed.shape} where {expected.shape} was expected")
    return float(np.max(np.abs(observed - expected) / np.abs(expected)))


def within(value, tol: float, what: str) -> float:
    """``value / tol`` if ``0 <= value <= tol``; raises otherwise."""
    value = float(value)
    if not (math.isfinite(value) and 0.0 <= value <= tol):
        raise OracleFailure(f"{what}: {value!r} exceeds tolerance {tol:g}")
    return value / tol if tol > 0.0 else 0.0


def expect_exit_zero(exit_code) -> None:
    if exit_code != 0:
        raise OracleFailure(f"exit code {exit_code!r}")


def p_factor(family: str, n: int, rho: float, t: float) -> float:
    """Degradation factor of j(Z)^2 along the closed-form flow from an H-type g0."""
    rate = n + 2 - n * rho if family == "heisenberg" else 6 + 2 * n - 6 * n * rho
    return 1.0 / (rate * t + 1.0)


def check_sweep(nf, job, out: Path, exit_code) -> float:
    """Every CSV row against ``closed_form``; ledger drift; full horizon reached."""
    expect_exit_zero(exit_code)
    runs = strict_json((out / "summary.json").read_text())["result"]["runs"]
    if [run["rho"] for run in runs] != list(job.rhos):
        raise OracleFailure("sweep summary does not list the requested rhos")
    times = job.sample_times
    worst = 0.0
    for rho, run in zip(job.rhos, runs):
        if run["terminated_reason"] != "horizon" or run["t_final"] != times[-1]:
            raise OracleFailure(f"rho={rho:g}: stopped early at t={run['t_final']!r}")
        if not run["invariant_drift"]:
            raise OracleFailure(f"rho={rho:g}: empty invariant ledger")
        for name, drift in run["invariant_drift"].items():
            worst = max(worst, within(drift, FLOW_DRIFT_TOL, f"rho={rho:g} {name} drift"))
        csv_path = Path(run["csv"])
        if csv_path.parent != out:
            raise OracleFailure(f"CSV written outside the output directory: {csv_path}")
        rows = strict_csv(csv_path.read_text(), len(job.g0))
        if not np.array_equal(rows[:, 0], times):
            raise OracleFailure(f"rho={rho:g}: sample times differ from the step grid")
        for t, state in zip(rows[:, 0], rows[:, 1:]):
            exact = nf.flow.closed_form(job.family, job.g0, job.n, rho, t)
            worst = max(worst, within(rel_err(state, exact), FLOW_CLOSED_FORM_RTOL,
                                      f"rho={rho:g} t={t:g} closed form"))
        if not np.array_equal(np.asarray(run["final_state"], dtype=float), rows[-1, 1:]):
            raise OracleFailure(f"rho={rho:g}: final_state differs from the last CSV row")
    return worst


def check_curvature(nf, job, out: Path, exit_code) -> float:
    """Ricci diagonal, off-diagonal part and scalar against the specialized formulas."""
    expect_exit_zero(exit_code)
    result = strict_json((out / "curvature.json").read_text())["result"]
    family, n, g0 = job.family, job.n, np.array(job.g0)
    worst = within(rel_err(result["ricci_diag"], nf.curvature.ricci_specialized_diag(family, g0, n)),
                   CURVATURE_TOL, "Ricci diagonal")
    worst = max(worst, within(result["ricci_offdiag_max"], CURVATURE_TOL, "Ricci off-diagonal"))
    scalar = nf.curvature.scalar_specialized(family, g0, n)
    return max(worst, within(rel_err(result["scalar"], scalar), CURVATURE_TOL, "scalar curvature"))


def check_verify(job, out: Path, exit_code) -> float:
    """Every check present, passing, and within the tolerance listed here."""
    expect_exit_zero(exit_code)
    result = strict_json((out / "verify.json").read_text())["result"]
    checks = result["checks"]
    if [c["name"] for c in checks] != list(VERIFY_TOLERANCES):
        raise OracleFailure("verify reported a different set of checks")
    worst = 0.0
    for c in checks:
        if c["pass"] is not True:
            raise OracleFailure(f"check {c['name']} did not pass")
        worst = max(worst, within(c["value"], VERIFY_TOLERANCES[c["name"]], c["name"]))
    if result["all_pass"] is not True:
        raise OracleFailure("all_pass is not true")
    return worst


def check_spectral(job, output) -> float:
    """Eigenvalues of j(Z)^2 = -p(t)|Z|^2, the verdicts, and the p8 residual."""
    g_t, report, verdict, p8 = output
    p = p_factor(job.family, job.n, job.rho, job.t)
    z_norm2 = g_t[2 * job.n if job.family == "heisenberg" else 4 * job.n]
    dim_v = 2 * job.n if job.family == "heisenberg" else 4 * job.n
    eigs = np.array(report.eigenvalues)
    worst = within(rel_err(eigs, np.full(dim_v, -p * z_norm2)), SPECTRAL_EIG_RTOL, "eigenvalues")
    worst = max(worst, within(rel_err(report.p_factor_observed, p), SPECTRAL_EIG_RTOL, "p factor"))
    want = "HeisenbergType" if job.t == 0.0 else "HeisenbergLike"
    if report.verdict.value != want or verdict.value != want:
        raise OracleFailure(f"verdicts {report.verdict.value}/{verdict.value}, expected {want}")
    return max(worst, within(p8["max_residual"], SPECTRAL_P8_TOL, "p8 residual"))
