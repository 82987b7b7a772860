"""Ricci-Bourguignon flow dg/dt = -2 Ric + 2 rho R g on H_n and Q_n.

Diagonal initial metrics stay diagonal, so the flow reduces to an ODE system
for the diagonal components.  A fixed-step classical RK4 integrator is used;
exact solutions are available under the product/equality initial conditions.
"""
from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import Family, LieAlgebraSpec, MetricState, _check_integer, family_dim
from .curvature import (
    _check_diag,
    _diag_curvature,
    _scalar,
    ricci_general,
    sigma_heisenberg,
    sigma_quaternion,
)
from .errors import (
    InvalidParameterError,
    NotApplicableError,
    OutOfDomainError,
    SingularExponentError,
)

EPS_DEGENERATE = 1e-12
OVERFLOW_LIMIT = 1e300
HYPOTHESIS_RTOL = 1e-12
STEP_GRID_RTOL = 1e-9  # t_end/dt may miss a whole number by this much (rounding of dt)


class TerminationReason(str, Enum):
    HORIZON = "horizon"
    DEGENERATE = "degenerate"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class FlowParams:
    family: Family
    n: int
    rho: float = 0.0
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 10

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.dt <= 0.0:
            raise InvalidParameterError("dt must be positive")
        if self.t_end < 0.0:
            raise InvalidParameterError("t_end must be nonnegative")
        if self.t_end > 0.0 and self.dt > self.t_end:
            raise InvalidParameterError("dt must not exceed t_end")
        _check_integer("record_every", self.record_every, 1)
        if not np.isfinite([self.rho, self.dt, self.t_end]).all():
            raise InvalidParameterError("flow parameters must be finite")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > STEP_GRID_RTOL * steps:
            raise InvalidParameterError(
                f"t_end must be a whole number of dt steps; t_end/dt = {steps:.17g}"
            )
        bound = 1.0 / (2.0 * (self.dim - 1))
        if self.rho >= bound:
            warnings.warn(
                f"rho = {self.rho} is at or above the short-time existence "
                f"threshold 1/(2(dim-1)) = {bound:g}; formulas are evaluated anyway",
                stacklevel=2,
            )

    @property
    def dim(self) -> int:
        return family_dim(self.family, self.n)


@dataclass(frozen=True)
class ClosedFormCoeffs:
    b_or_c: float
    vector_exponent: float
    center_exponent: float


@dataclass
class Trajectory:
    family: Family
    n: int
    rho: float
    times: np.ndarray  # (n_samples,)
    states: np.ndarray  # (n_samples, dim), diagonal metric components
    terminated_reason: TerminationReason
    invariant_ledger: dict[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        """Header t,g_1,...,g_dim; 17 significant digits (round-trip exact)."""
        buf = io.StringIO()
        buf.write("t," + ",".join(f"g_{i + 1}" for i in range(self.dim)) + "\n")
        for t, row in zip(self.times, self.states):
            buf.write(",".join(format(x, ".17g") for x in (t, *row)) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, family: Family, n: int, rho: float,
                 terminated_reason: TerminationReason = TerminationReason.HORIZON) -> "Trajectory":
        """Read ``to_csv`` text back; a malformed table raises ``InvalidParameterError``."""
        family = Family(family)
        dim = family_dim(family, n)
        lines = [ln.split(",") for ln in text.strip().splitlines() if ln]
        if not lines or lines[0][0] != "t" or not all(h.startswith("g_") for h in lines[0][1:]):
            raise InvalidParameterError("bad trajectory CSV header")
        if len(lines[0]) != dim + 1:
            raise InvalidParameterError(f"trajectory CSV has {len(lines[0]) - 1} metric columns; "
                                        f"{family.short}{n} has dimension {dim}")
        if len(lines) < 2 or any(len(row) != dim + 1 for row in lines):
            raise InvalidParameterError("trajectory CSV needs rows, each as wide as its header")
        try:
            rows = np.array([[float(x) for x in row] for row in lines[1:]])
        except ValueError as exc:
            raise InvalidParameterError(f"trajectory CSV has a non-numeric cell: {exc}") from None
        if not np.isfinite(rows).all() or np.any(np.diff(rows[:, 0]) < 0.0):
            raise InvalidParameterError("trajectory CSV needs finite cells and nondecreasing times")
        return cls(
            family=family, n=n, rho=rho,
            times=rows[:, 0], states=rows[:, 1:],
            terminated_reason=terminated_reason,
        )


def rb_rhs_general(spec: LieAlgebraSpec, metric: MetricState, rho: float) -> np.ndarray:
    """-2 Ric(g) + 2 rho R(g) g for an arbitrary positive-definite metric."""
    ric = ricci_general(spec, metric)
    return -2.0 * ric + (2.0 * rho * _scalar(metric, ric)) * metric.g


def rhs_diagonal(family: Family, g, n: int, rho: float) -> np.ndarray:
    """Time derivative of the diagonal components under the reduced system.

    Built from the same specialized Ricci/scalar terms, so at rho = 0 this is
    bitwise equal to -2 * (diagonal Ricci).
    """
    r, scal, _, g = _diag_curvature(family, g, n)
    c = 2.0 * rho * scal
    return np.array([-2.0 * ri + c * gi for ri, gi in zip(r, g)])


def integrate(params: FlowParams, g0) -> Trajectory:
    """Classical fixed-step RK4 for the diagonal flow system.

    The state and the stages are lists of floats, each entry computed by the
    same float operations as the array expressions in the comments; each
    stage's derivative comes from one :func:`rhs_diagonal` call.
    """
    g = _check_diag(g0, params.dim)
    fam, n, rho, dt = params.family, params.n, params.rho, params.dt
    n_steps = int(round(params.t_end / dt)) if params.t_end > 0.0 else 0
    stage_steps = (0.5 * dt, 0.5 * dt, dt)  # k2, k3, k4 are taken at g + c * (previous k)
    sixth = dt / 6.0

    times = [0.0]
    states = [np.array(g)]  # recorded as arrays: a float list takes 4x an array's bytes
    reason = TerminationReason.HORIZON

    def ok(state: list) -> bool:
        for x in state:
            if not EPS_DEGENERATE < x < OVERFLOW_LIMIT:  # a nan fails too
                return False
        return True

    for step in range(1, n_steps + 1):
        k = rhs_diagonal(fam, g, n, rho).tolist()
        ks = [k]
        for c in stage_steps:
            state = [x + c * y for x, y in zip(g, k)]  # g + c * k
            if not ok(state):
                break
            k = rhs_diagonal(fam, state, n, rho).tolist()
            ks.append(k)
        else:  # g + sixth * (k1 + 2 k2 + 2 k3 + k4)
            state = [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                     for x, a, b, c, d in zip(g, *ks)]
        if not ok(state):
            reason = _failure_reason(state)
            break
        g = state
        if step % params.record_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(np.array(g))

    traj = Trajectory(
        family=fam, n=n, rho=rho,
        times=np.array(times), states=np.array(states),
        terminated_reason=reason,
    )
    traj.invariant_ledger = invariant_drift(traj)
    return traj


def _failure_reason(state) -> TerminationReason:
    state = np.asarray(state)
    if np.any(~np.isfinite(state)) or np.any(np.abs(state) >= OVERFLOW_LIMIT):
        return TerminationReason.OVERFLOW
    return TerminationReason.DEGENERATE


def _rate(family: Family, n: int, rho: float) -> float:
    """n + 2 - n rho on H_n, 6 + 2n - 6n rho on Q_n: the exact solutions' exponent denominator."""
    if not np.isfinite(rho):
        raise InvalidParameterError("rho must be finite")
    return n + 2 - n * rho if family is Family.HEISENBERG else 6.0 + 2 * n - 6 * n * rho


def _base(b: float, t: float) -> float:
    """The base 1 + b t of the exact solution's powers, for a finite t where it is positive."""
    if not np.isfinite(t):
        raise InvalidParameterError(f"t must be finite, got {t}")
    base = 1.0 + b * t
    if base <= 0.0:
        raise OutOfDomainError(f"1 + {b:g} * t is nonpositive at t = {t:g}")
    return base


def theoretical_p_factor(family: Family, n: int, rho: float, t: float) -> float:
    """The degradation factor 1/(1 + (n+2-n rho) t) or 1/(1 + (6+2n-6n rho) t); taken from
    the rate, not from ``closed_form_coeffs``, which raise at rate 0, where p is 1."""
    return 1.0 / _base(_rate(Family(family), n, rho), t)


def closed_form_coeffs(family: Family, g0, n: int, rho: float) -> ClosedFormCoeffs:
    """Constants of the exact solutions, after checking their hypotheses."""
    family = Family(family)
    g0 = np.array(_check_diag(g0, family_dim(family, n)))
    denom = _rate(family, n, rho)
    if family is Family.HEISENBERG:
        products = g0[:n] * g0[n : 2 * n]
        if np.any(np.abs(products - products[0]) > HYPOTHESIS_RTOL * products[0]):
            raise NotApplicableError(
                "exact solution needs g_i(0) g_{n+i}(0) constant across i"
            )
        if denom == 0.0:
            raise SingularExponentError("exponent denominator n+2-n*rho vanishes")
        b = denom * g0[2 * n] / products[0]
        return ClosedFormCoeffs(
            b_or_c=float(b),
            vector_exponent=(1.0 - n * rho) / denom,
            center_exponent=(n + n * rho) / (n * rho - n - 2.0),
        )
    if np.any(np.abs(g0[: 4 * n] - g0[0]) > HYPOTHESIS_RTOL * g0[0]) or np.any(
        np.abs(g0[4 * n :] - g0[4 * n]) > HYPOTHESIS_RTOL * g0[4 * n]
    ):
        raise NotApplicableError(
            "exact solution needs equal non-center components and equal center components"
        )
    if denom == 0.0:
        raise SingularExponentError("exponent denominator 6+2n-6n*rho vanishes")
    c = g0[4 * n] / g0[0] ** 2 * denom
    return ClosedFormCoeffs(
        b_or_c=float(c),
        vector_exponent=3.0 * (1.0 - 2 * n * rho) / denom,
        center_exponent=-n * (1.0 + 3 * rho) / (3.0 + n - 3 * n * rho),
    )


def closed_form(family: Family, g0, n: int, rho: float, t: float) -> np.ndarray:
    """Exact diagonal solution at time t, under the admissibility hypotheses on g0."""
    family = Family(family)
    g0 = np.asarray(g0, dtype=float)
    return _closed_form_at(family, g0, n, _power_laws(closed_form_coeffs(family, g0, n, rho), t))


def _power_laws(coeffs: ClosedFormCoeffs, t: float) -> tuple[float, float]:
    """The squared-norm factors (base**vector_exponent, base**center_exponent) at time t."""
    base = _base(coeffs.b_or_c, t)
    return base**coeffs.vector_exponent, base**coeffs.center_exponent


def _closed_form_at(family: Family, g0: np.ndarray, n: int, factors: tuple) -> np.ndarray:
    """The exact solution from the checked ``g0``, given its ``_power_laws`` factors."""
    vec, cen = factors
    out = np.empty_like(g0)
    if family is Family.HEISENBERG:
        out[: 2 * n] = g0[: 2 * n] * vec
        out[2 * n] = g0[2 * n] * cen
    else:
        out[: 4 * n] = g0[0] * vec
        out[4 * n :] = g0[4 * n] * cen
    return out


def _exact_metric(family: Family, n: int, rho: float, g0, t: float) -> tuple[MetricState, float]:
    """The exact flow from ``g0`` at time t as a metric, and p(t); at t = 0, g0 itself."""
    g_t = closed_form(family, g0, n, rho, t) if t > 0.0 else g0
    return MetricState.from_diag(g_t, t=t), theoretical_p_factor(family, n, rho, t)


def conserved_quantities(family: Family, n: int, rho: float, g) -> dict[str, float]:
    """Ratio invariants A_i (Heisenberg only) and the product invariant."""
    family = Family(family)
    g = np.array(_check_diag(g, family_dim(family, n)))
    if not np.isfinite(rho):
        raise InvalidParameterError("rho must be finite")
    out: dict[str, float] = {}
    if family is Family.HEISENBERG:
        if rho == -1.0:
            raise SingularExponentError("product invariant undefined at rho = -1")
        for i in range(n):
            out[f"ratio_{i + 1}"] = float(g[i] / g[n + i])
        expo = (1.0 - n * rho) / (1.0 + rho)
        out["product"] = float(np.prod(g[:n]) * g[2 * n] ** expo)
    else:
        if rho == -1.0 / 3.0:
            raise SingularExponentError("product invariant undefined at rho = -1/3")
        expo = 2.0 * (1.0 - 2 * n * rho) / (1.0 + 3 * rho)
        out["product"] = float(np.prod(g[: 4 * n]) * np.prod(g[4 * n :]) ** expo)
    return out


def invariant_drift(traj: Trajectory) -> dict[str, float]:
    """Max relative drift of each conserved quantity along the samples."""
    try:
        ref = conserved_quantities(traj.family, traj.n, traj.rho, traj.states[0])
    except SingularExponentError:
        return {}
    drift = {k: 0.0 for k in ref}
    for row in traj.states[1:]:
        cur = conserved_quantities(traj.family, traj.n, traj.rho, row)
        for k, v in cur.items():
            drift[k] = max(drift[k], abs(v - ref[k]) / max(abs(ref[k]), 1e-300))
    return drift


def center_growth_bound(family: Family, n: int, traj: Trajectory) -> dict:
    """Check g_center(t) >= 1/(Sigma(0) t + g_center(0)^-1) along a trajectory.

    Valid for rho < 0.  Also reports the trapezoid running integral of each
    center component, which is monotonically growing within the horizon.
    """
    family = Family(family)
    if traj.rho >= 0.0:
        raise NotApplicableError("the center lower bound requires rho < 0")
    g0 = traj.states[0]
    if family is Family.HEISENBERG:
        sigmas = [sigma_heisenberg(g0, n)]
        centers = [2 * n]
    else:
        _, s1, s2, s3 = sigma_quaternion(g0, n)
        sigmas = [s1, s2, s3]
        centers = [4 * n, 4 * n + 1, 4 * n + 2]

    slacks = []
    integrals = []
    for sig, idx in zip(sigmas, centers):
        comp = traj.states[:, idx]
        bound = 1.0 / (sig * traj.times + 1.0 / comp[0])
        slacks.append(float((comp - bound).min()))
        integrals.append(np.concatenate(
            [[0.0], np.cumsum(0.5 * np.diff(traj.times) * (comp[1:] + comp[:-1]))]
        ))
    return {
        "min_slack": min(slacks),
        "slack_per_center": slacks,
        "bound_holds": min(slacks) >= 0.0,
        "running_integral": integrals,
        "integral_monotone": all(bool(np.all(np.diff(gi) > 0.0)) for gi in integrals),
    }
