"""The oracle checks of `nilflow verify` and the acceptance suite, each written once.

Each function computes one check's value, its worst deviation from an oracle,
on the cases given as its arguments.  The worst is taken with ``np.max``, so a
nan anywhere makes the value nan and fails the check.  ``CHECKS`` lists
verify's checks in output order with their tolerances and verify's cases.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .algebra import LieAlgebraSpec, MetricState, build_group
from .curvature import _scalar, ricci_general, ricci_specialized_diag, scalar_specialized
from .flow import FlowParams, Trajectory, closed_form, integrate, rhs_diagonal
from .joperator import SpectralReport, spectrum, theoretical_p_factor, verify_p8
from .spectrum import central_periods, length_spectrum_witness

# |Z*| -> its central period set, ascending, worked by hand from the formula
EXACT_PERIODS = {
    math.pi: (math.pi,),
    2 * math.pi: (2 * math.pi,),
    4 * math.pi: (2 * math.sqrt(3.0) * math.pi, 4 * math.pi),
}


def _worst(values) -> float:
    return float(np.max(np.fromiter(values, dtype=float)))


def ricci_oracle_deviation(spec: LieAlgebraSpec, metrics) -> float:
    """max |Ric - diag(Ric_spec)| and |R - R_spec|: `ricci_general` against the closed forms."""
    def devs():
        for d in metrics:
            m = MetricState.from_diag(d)
            ric = ricci_general(spec, m)
            yield np.abs(ric - np.diag(ricci_specialized_diag(spec.family, d, spec.n))).max()
            yield abs(_scalar(m, ric) - scalar_specialized(spec.family, d, spec.n))

    return _worst(devs())


def closed_form_error(traj: Trajectory) -> float:
    """Max relative error of the samples against the exact solution from the first."""
    g0 = traj.states[0]
    return _worst(np.abs(state / closed_form(traj.family, g0, traj.n, traj.rho, t) - 1.0).max()
                  for t, state in zip(traj.times, traj.states))


def max_drift(traj: Trajectory) -> float:
    return _worst(traj.invariant_ledger.values())


def reduction_residual(spec: LieAlgebraSpec, metrics) -> float:
    """max |rhs at rho = 0 + 2 Ric_spec|: 0 when the flow reduces bitwise to the Ricci flow."""
    return _worst(np.abs(rhs_diagonal(spec.family, d, spec.n, 0.0)
                         + 2.0 * ricci_specialized_diag(spec.family, d, spec.n)).max()
                  for d in metrics)


def _flowed(spec: LieAlgebraSpec, rho: float, t: float) -> tuple[MetricState, float]:
    """The exact flow from the identity at time t, and p(t)."""
    g_t = closed_form(spec.family, np.ones(spec.dim), spec.n, rho, t)
    return MetricState.from_diag(g_t, t=t), theoretical_p_factor(spec.family, spec.n, rho, t)


def degradation_spectrum(spec: LieAlgebraSpec, rho: float,
                         t: float) -> tuple[SpectralReport, float, float]:
    """j(Z)'s spectrum on the exact flow from the identity, p(t) and |Z|_t^2; Z = e_center."""
    metric, p = _flowed(spec, rho, t)
    c = spec.center_indices[0]
    z = np.zeros(spec.dim)
    z[c] = 1.0
    return spectrum(spec, metric, z), p, metric.g[c, c]


def spectral_deviation(spec: LieAlgebraSpec, rho: float, times) -> float:
    """Max relative deviation of the eigenvalues of j(Z)^2 from -p(t)|Z|_t^2."""
    def devs():
        for t in times:
            report, p, z_norm2 = degradation_spectrum(spec, rho, t)
            yield from (abs(ev + p * z_norm2) / (p * z_norm2) for ev in report.eigenvalues)

    return _worst(devs())


def p8_residual(spec: LieAlgebraSpec, rho: float, times, samples: int, seed: int) -> float:
    """Max residual of the five P-factor identities on the exact flow from the identity."""
    return _worst(verify_p8(spec, *_flowed(spec, rho, t), samples=samples,
                            seed=seed)["max_residual"] for t in times)


def period_deviation(z_norms) -> float:
    """Max |computed - exact| period, pairing in ascending order (sizes are not compared)."""
    return _worst(abs(got - want) for z in z_norms
                  for got, want in zip(central_periods(z).as_set, EXACT_PERIODS[z]))


def witness_error(spec: LieAlgebraSpec, rho: float, times, rng: np.random.Generator,
                  samples: int = 1) -> float:
    """Max | |W*|_t - |V*|_0 | from the identity, for ``samples`` random V* per time."""
    ones = np.ones(spec.dim)
    return _worst(length_spectrum_witness(spec.family, spec.n, rho, ones, t,
                                          rng.standard_normal(spec.dim_v))["abs_error"]
                  for t in times for _ in range(samples))


class VerifyCase:
    """`nilflow verify`'s cases; one generator draws check 1's metrics, then check 8's V*."""

    def __init__(self, family, n: int, rho: float, seed: int):
        self.spec, self.rho, self.seed = build_group(family, n), rho, seed
        self.rng = np.random.default_rng(seed)

    @cached_property
    def trajectory(self) -> Trajectory:
        """RK4 from the identity, which is always admissible, to t = 2."""
        params = FlowParams(self.spec.family, self.spec.n, self.rho, dt=1e-3, t_end=2.0)
        return integrate(params, np.ones(self.spec.dim))


SPECTRAL_TIMES = (0.0, 0.5, 1.0, 2.0)

# (name, tolerance, value on a VerifyCase) in output order; a check passes when
# its value is at most its tolerance
CHECKS = (
    ("ricci_oracle_equivalence", 1e-12, lambda case: ricci_oracle_deviation(
        case.spec, [case.rng.uniform(0.5, 2.0, case.spec.dim) for _ in range(25)])),
    ("closed_form_agreement", 1e-6, lambda case: closed_form_error(case.trajectory)),
    ("invariant_drift", 1e-8, lambda case: max_drift(case.trajectory)),
    ("ricci_flow_reduction", 0.0,
     lambda case: reduction_residual(case.spec, [np.full(case.spec.dim, 1.3)])),
    ("spectral_degradation", 1e-9,
     lambda case: spectral_deviation(case.spec, case.rho, SPECTRAL_TIMES)),
    ("p8_identities", 1e-10, lambda case: p8_residual(
        case.spec, case.rho, SPECTRAL_TIMES, samples=50, seed=case.seed)),
    ("central_periods", 1e-12, lambda case: period_deviation((4 * math.pi, math.pi))),
    ("length_spectrum_witness", 1e-12,
     lambda case: witness_error(case.spec, case.rho, (0.5, 1.0, 2.0), case.rng)),
)

TOLERANCE = {name: tolerance for name, tolerance, _ in CHECKS}
