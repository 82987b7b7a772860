"""Command-line front end: curvature reports, flow runs, verification, spectra.

Subcommands: curvature, flow, verify, spectrum, sweep.  Output is CSV for
trajectories and JSON elsewhere; floats are printed with 17 significant
digits so files round-trip exactly.  Exit codes: 0 ok, 1 verification
failure, 2 invalid parameters, 3 early termination under --strict.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .algebra import Family, MetricState, build_group, family_dim
from .checks import CHECKS, VerifyCase
from .curvature import (
    curvature_report,
    literal_discrepancy,
    ricci_specialized_diag,
    scalar_specialized,
    sigma_heisenberg,
    sigma_quaternion,
)
from .errors import NilflowError
from .flow import FlowParams, TerminationReason, closed_form, integrate
from .joperator import classify, spectrum, theoretical_p_factor
from .spectrum import central_periods

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization: strict JSON with floats at 17 significant digits, nan/inf as null

def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_dumps(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_dumps(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no token for nan or inf
        return format(float(obj), ".17g") if np.isfinite(obj) else "null"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _envelope(config: dict, result: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": config, "result": result}


# ---------------------------------------------------------------------------
# argument handling

def _parse_g0(text: str, dim: int) -> np.ndarray:
    if text == "identity":
        return np.ones(dim)
    values = np.array([float(x) for x in text.split(",")])
    if values.shape != (dim,):
        raise NilflowError(f"--g0 needs {dim} comma-separated values, got {len(values)}")
    if not np.isfinite(values).all():
        raise NilflowError("--g0 entries must be finite")
    return values


def _parse_rho_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",")]
    if not all(np.isfinite(values)):
        raise NilflowError("--rho values must be finite")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilflow",
        description="Ricci-Bourguignon flow on Heisenberg and quaternion Lie groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, rho_list=False):
        p.add_argument("--family", required=True, choices=[f.value for f in Family])
        p.add_argument("--n", required=True, type=int)
        p.add_argument("--rho", default="0",
                       help="coupling constant" + (" (comma-separated list)" if rho_list else ""))
        p.add_argument("--g0", default="identity",
                       help="comma-separated diagonal entries or 'identity'")
        p.add_argument("--output", default="-", metavar="PATH",
                       help="output path, '-' for stdout")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("curvature", help="curvature report for a diagonal metric")
    common(p)

    p = sub.add_parser("flow", help="integrate the flow, write a trajectory CSV")
    common(p)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if the run terminates before t-end")
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="invariant-ledger JSON sidecar (default: <output>.ledger.json)")

    p = sub.add_parser("verify", help="run the invariant suite; exit 0 only if all pass")
    common(p)

    p = sub.add_parser("spectrum", help="spectral report of j(Z)^2 and period sets")
    common(p)
    p.add_argument("--t", type=float, default=0.0, help="flow time of the metric")

    p = sub.add_parser("sweep", help="run 'flow' across a rho list")
    common(p, rho_list=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output-dir", default=".", help="directory for per-rho CSVs")

    return parser


# ---------------------------------------------------------------------------
# subcommands

def _cmd_curvature(args, config) -> int:
    family = Family(args.family)
    g0 = _parse_g0(args.g0, family_dim(family, args.n))
    spec = build_group(family, args.n)
    metric = MetricState.from_diag(g0)
    report = curvature_report(spec, metric)
    ric = report.ricci
    r_dev, ric_dev, flagged = literal_discrepancy(spec, metric, report=report)
    result = {
        "ricci_diag": np.diag(ric),
        "ricci_offdiag_max": float(np.abs(ric - np.diag(np.diag(ric))).max()),
        "ricci_specialized_diag": ricci_specialized_diag(family, g0, args.n),
        "scalar": report.scalar,
        "scalar_specialized": scalar_specialized(family, g0, args.n),
        "literal_formula_deviation": {"riemann": r_dev, "ricci": ric_dev,
                                      "flagged": flagged},
    }
    if family is Family.HEISENBERG:
        result["sigma"] = sigma_heisenberg(g0, args.n)
    else:
        sp, s1, s2, s3 = sigma_quaternion(g0, args.n)
        result["sigma_prime"] = sp
        result["sigma_123"] = [s1, s2, s3]
    _write(args.output, _json_dumps(_envelope(config, result)) + "\n")
    return 0


def _run_flow(family, n, rho, g0, args):
    params = FlowParams(family=family, n=n, rho=rho, dt=args.dt,
                        t_end=args.t_end, record_every=args.record_every)
    return integrate(params, g0)


def _cmd_flow(args, config) -> int:
    family = Family(args.family)
    rho = float(args.rho)
    g0 = _parse_g0(args.g0, family_dim(family, args.n))
    traj = _run_flow(family, args.n, rho, g0, args)
    _write(args.output, traj.to_csv())
    ledger = {
        "terminated_reason": traj.terminated_reason.value,
        "t_final": float(traj.times[-1]),
        "invariant_drift": traj.invariant_ledger,
    }
    ledger_path = args.ledger
    if ledger_path is None:
        ledger_path = "-" if args.output == "-" else args.output + ".ledger.json"
    _write(ledger_path, _json_dumps(_envelope(config, ledger)) + "\n")
    if args.strict and traj.terminated_reason is not TerminationReason.HORIZON:
        return 3
    return 0


def _cmd_sweep(args, config) -> int:
    family = Family(args.family)
    rhos = _parse_rho_list(args.rho)
    g0 = _parse_g0(args.g0, family_dim(family, args.n))
    paths = [os.path.join(args.output_dir, f"{family.short}{args.n}_rho{rho:g}.csv")
             for rho in rhos]
    seen = {}
    for rho, path in zip(rhos, paths):
        if path in seen:
            raise NilflowError(f"--rho values {seen[path]!r} and {rho!r} would both write "
                               f"{path} (file names keep 6 significant digits of rho)")
        seen[path] = rho
    os.makedirs(args.output_dir, exist_ok=True)
    max_workers = int(os.environ.get("NILFLOW_THREADS", "0")) or min(len(rhos), 8)

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        trajs = list(pool.map(lambda r: _run_flow(family, args.n, r, g0, args), rhos))

    summary = []
    status = 0
    for rho, path, traj in zip(rhos, paths, trajs):
        _write(path, traj.to_csv())
        summary.append({
            "rho": rho,
            "csv": path,
            "terminated_reason": traj.terminated_reason.value,
            "t_final": float(traj.times[-1]),
            "final_state": traj.final_state(),
            "invariant_drift": traj.invariant_ledger,
        })
        if args.strict and traj.terminated_reason is not TerminationReason.HORIZON:
            status = 3
    _write(args.output, _json_dumps(_envelope(config, {"runs": summary})) + "\n")
    return status


def _cmd_spectrum(args, config) -> int:
    family = Family(args.family)
    rho = float(args.rho)
    g0 = _parse_g0(args.g0, family_dim(family, args.n))
    spec = build_group(family, args.n)
    g_t = closed_form(family, g0, args.n, rho, args.t) if args.t > 0.0 else g0
    metric = MetricState.from_diag(g_t, t=args.t)
    z = np.zeros(spec.dim)
    z[spec.center_indices[0]] = 1.0
    report = spectrum(spec, metric, z)
    z_norm = float(np.sqrt(g_t[spec.center_indices[0]]))
    periods = central_periods(z_norm)
    result = {
        "mu": report.mu,
        "thetas": list(report.thetas),
        "subspace_dims": list(report.subspace_dims),
        "verdict": report.verdict.value,
        "p_factor_observed": report.p_factor_observed,
        "p_factor_theoretical": theoretical_p_factor(family, args.n, rho, args.t),
        "classification": classify(spec, metric, seed=args.seed).value,
        "central_periods": {"z_norm": z_norm,
                            "values": list(periods.values),
                            "set": list(periods.as_set)},
    }
    _write(args.output, _json_dumps(_envelope(config, result)) + "\n")
    return 0


def _cmd_verify(args, config) -> int:
    if args.g0 != "identity":
        raise NilflowError(f"verify checks metrics of its own: --g0 must be 'identity', "
                           f"got {args.g0!r}")
    case = VerifyCase(args.family, args.n, float(args.rho), args.seed)
    checks = []
    for name, tolerance, value_on in CHECKS:
        value = float(value_on(case))
        checks.append({"name": name, "pass": value <= tolerance, "value": value})
    all_pass = all(c["pass"] for c in checks)
    result = {"checks": checks, "all_pass": all_pass}
    _write(args.output, _json_dumps(_envelope(config, result)) + "\n")
    return 0 if all_pass else 1


_DISPATCH = {
    "curvature": _cmd_curvature,
    "flow": _cmd_flow,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
}


def dispatch(args: argparse.Namespace) -> int:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _DISPATCH[args.subcommand](args, config)
    except (NilflowError, ValueError) as exc:
        print(f"nilflow: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; propagate its code
        return int(exc.code or 0)
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
