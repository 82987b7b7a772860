"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
print; under default capture they still appear for any failing criterion.
"""
import math
import warnings

import numpy as np

from nilflow import (
    Family,
    FlowParams,
    Verdict,
    build_group,
    center_growth_bound,
    central_periods,
    closed_form,
    integrate,
)
from nilflow.algebra import family_dim
from nilflow.checks import (
    EXACT_PERIODS,
    TOLERANCE,
    closed_form_error,
    degradation_spectrum,
    max_drift,
    p8_residual,
    period_deviation,
    reduction_residual,
    ricci_oracle_deviation,
    spectral_deviation,
    witness_error,
)

CASES = [(Family.HEISENBERG, n) for n in (1, 2, 3)] + \
        [(Family.QUATERNION, n) for n in (1, 2)]
SPECS = [build_group(family, n) for family, n in CASES]


def worst_of(values):
    # np.max, unlike max, keeps a nan
    return float(np.max(list(values)))


def report(number, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def identity_flow(family, n, rho, t_end, dt=1e-3, record_every=10):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rho above the existence threshold only warns
        params = FlowParams(family=family, n=n, rho=rho, dt=dt, t_end=t_end,
                            record_every=record_every)
        return integrate(params, np.ones(family_dim(family, n)))


def test_criterion_1_curvature_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst = worst_of(ricci_oracle_deviation(spec, [rng.uniform(0.3, 3.0, spec.dim)
                                                   for _ in range(100)]) for spec in SPECS)
    report(1, "curvature oracle equivalence", worst < TOLERANCE["ricci_oracle_equivalence"],
           f"max abs dev {worst:.3e}")


def test_criterion_2_closed_form_agreement_and_rk4_order():
    worst = worst_of(closed_form_error(identity_flow(family, n, rho, 2.0))
                     for family, n in CASES for rho in (-0.5, 0.0, 0.1))

    def maxerr(dt):
        traj = identity_flow(Family.HEISENBERG, 1, 0.0, 2.0, dt=dt, record_every=1)
        return max(
            float(np.abs(traj.states[i]
                         - closed_form(Family.HEISENBERG, np.ones(3), 1, 0.0, t)).max())
            for i, t in enumerate(traj.times)
        )

    ratio = maxerr(0.05) / maxerr(0.025)
    ok = worst < TOLERANCE["closed_form_agreement"] and 12.0 <= ratio <= 20.0
    report(2, "closed-form agreement + RK4 order", ok,
           f"max rel err {worst:.3e}, halving ratio {ratio:.2f}")


def test_criterion_3_conserved_quantities_drift():
    worst = worst_of(max_drift(identity_flow(family, n, rho, 2.0))
                     for family, n in CASES for rho in (-0.5, 0.0, 0.05))
    report(3, "conserved-quantity drift", worst < TOLERANCE["invariant_drift"],
           f"max drift {worst:.3e}")


def test_criterion_4_spectral_degradation():
    times = (0.0, 0.5, 1.0, 2.0)
    worst = worst_of(spectral_deviation(spec, 0.0, times) for spec in SPECS)
    verdicts_ok = all(
        degradation_spectrum(spec, 0.0, t)[0].verdict
        is (Verdict.HEISENBERG_TYPE if t == 0.0 else Verdict.HEISENBERG_LIKE)
        for spec in SPECS for t in times)
    ok = worst < TOLERANCE["spectral_degradation"] and verdicts_ok
    report(4, "spectral degradation factor", ok,
           f"max rel dev {worst:.3e}, verdicts {'ok' if verdicts_ok else 'wrong'}")


def test_criterion_5_p_factor_identities():
    worst = worst_of(p8_residual(spec, 0.0, (0.0, 1.0), samples=200, seed=5) for spec in SPECS)
    report(5, "P-factor identities", worst < TOLERANCE["p8_identities"],
           f"max residual {worst:.3e}")


def test_criterion_6_central_period_sets():
    z_norms = (math.pi, 2 * math.pi, 4 * math.pi)
    dev = period_deviation(z_norms)
    sizes_ok = all(len(central_periods(z).as_set) == len(EXACT_PERIODS[z]) for z in z_norms)
    report(6, "central period sets", sizes_ok and dev < TOLERANCE["central_periods"],
           f"max dev {dev:.3e}, set sizes {'ok' if sizes_ok else 'wrong'}")


def test_criterion_7_length_spectrum_witness():
    rng = np.random.default_rng(7)
    worst = worst_of(witness_error(build_group(family, 1), rho, (0.5, 1.0, 2.0), rng, samples=50)
                     for family in (Family.HEISENBERG, Family.QUATERNION) for rho in (-0.5, 0.0))
    report(7, "length-spectrum witness", worst < TOLERANCE["length_spectrum_witness"],
           f"max abs err {worst:.3e}")


def test_criterion_8_ricci_flow_reduction():
    rng = np.random.default_rng(8)
    worst = worst_of(reduction_residual(spec, [rng.uniform(0.3, 3.0, spec.dim)
                                               for _ in range(20)]) for spec in SPECS)
    report(8, "rho = 0 reduces to Ricci flow bitwise",
           worst == TOLERANCE["ricci_flow_reduction"], f"max residual {worst:.3e}")


def test_criterion_9_center_growth_bound():
    worst = math.inf
    mono = True
    for family, n in ((Family.HEISENBERG, 1), (Family.HEISENBERG, 2),
                      (Family.QUATERNION, 1)):
        rep = center_growth_bound(family, n, identity_flow(family, n, -0.5, 5.0))
        worst = min(worst, rep["min_slack"])
        mono = mono and rep["integral_monotone"]
    ok = worst >= -1e-12 and mono
    report(9, "center growth lower bound", ok, f"min slack {worst:.3e}")
