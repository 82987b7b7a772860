"""Explicit geodesics, period sets, and length-spectrum scaling along the flow.

All flowed norms here are evaluated on the exact closed-form metrics, not on
numeric trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Family, LieAlgebraSpec, MetricState, _bracket, build_group, inner
from .errors import InvalidParameterError, NotApplicableError
from .flow import _closed_form_at, _power_laws, closed_form, closed_form_coeffs
from .joperator import CLUSTER_RTOL, _full, _off_line, j_matrix

DEDUP_RTOL = 1e-12
# central_periods refuses a |Z*| with more than this many k, one period each
MAX_PERIOD_K = 10**6


@dataclass(frozen=True)
class GeodesicData:
    """Initial data of a geodesic through the identity with central part Z0 != 0."""

    x0: np.ndarray  # complement coordinates
    z0: np.ndarray  # full-length center vector
    theta: float  # j(Z0)^2 X0 = -theta^2 X0; 0 when X0 = 0
    j: np.ndarray  # j(Z0) on V
    x0_norm2: float
    z0_norm2: float


@dataclass(frozen=True)
class PeriodSet:
    values: tuple[float, ...]  # multiset, in formula order

    @property
    def as_set(self) -> tuple[float, ...]:
        """Deduplicated values, ascending."""
        out: list[float] = []
        for v in sorted(self.values):
            if not out or abs(v - out[-1]) > DEDUP_RTOL * max(1.0, abs(v)):
                out.append(v)
        return tuple(out)


def make_geodesic_data(spec: LieAlgebraSpec, metric: MetricState, x0, z0) -> GeodesicData:
    """Assemble J = j(Z0) and theta = |J X0| / |X0| for the geodesic formula.

    The formula holds when X0 lies in one eigenspace of J^2 (within
    ``CLUSTER_RTOL``) and [J X0, X0] on the line of Z0 (within ``LIKE_RTOL``);
    on the exact flow from the identity, theta^2 = p(t) |Z0|_t^2.
    """
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    v_idx, c_idx = spec.complement_array, spec.center_array
    if x0.shape != (len(v_idx),):
        raise InvalidParameterError("x0 must be given in complement coordinates")
    if not np.any(z0[c_idx]):
        raise NotApplicableError("the geodesic formula needs a nonzero central part")
    g_v = metric.g[spec.complement_block]
    x0_norm2 = float(x0 @ g_v @ x0)
    j = j_matrix(spec, metric, z0)
    theta2 = 0.0
    if x0_norm2 > 0.0:
        jx = j @ x0
        theta2 = float(jx @ g_v @ jx) / x0_norm2
        resid = j @ jx + theta2 * x0  # J^2 X0 + theta^2 X0
        if float(resid @ g_v @ resid) > (CLUSTER_RTOL * max(1.0, theta2)) ** 2 * x0_norm2:
            raise NotApplicableError("the geodesic formula needs X0 in one eigenspace of j(Z0)^2")
        br = _bracket(spec, *_full(spec, v_idx, np.array([jx, x0])))[c_idx]
        if _off_line(metric.g[np.ix_(c_idx, c_idx)], z0[None, c_idx], br[None],
                     np.array([x0 @ x0]))[0]:
            raise NotApplicableError("the geodesic formula needs [j(Z0)X0, X0] on the line of Z0")
    return GeodesicData(x0=x0, z0=z0, theta=math.sqrt(theta2), j=j,
                        x0_norm2=x0_norm2, z0_norm2=inner(metric, z0, z0))


def geodesic_point(data: GeodesicData, s: float):
    """(X(s), Z(s)) of the explicit geodesic; X in complement coordinates,
    Z as a full-length center vector.  X(0) = 0, Z(0) = 0."""
    th = data.theta
    if th == 0.0:  # X0 = 0: the one-parameter subgroup s Z0
        return np.zeros_like(data.x0), s * data.z0
    cos_m1 = math.cos(s * th) - 1.0
    sinc = math.sin(s * th) / th
    x = cos_m1 * np.linalg.solve(data.j, data.x0) + sinc * data.x0
    ratio = data.x0_norm2 / (2.0 * data.z0_norm2)
    z = (s * (1.0 + ratio) - sinc * ratio) * data.z0
    return x, z


def central_periods(z_norm: float) -> PeriodSet:
    """Periods {|Z*|} u {sqrt(4 pi k (|Z*| - pi k)) : 1 <= k <= |Z*|/(2 pi)}."""
    if not 0.0 < z_norm < math.inf:  # a nan fails too
        raise InvalidParameterError(
            f"central element norm must be positive and finite, got {z_norm}")
    k_max = math.floor(z_norm / (2.0 * math.pi))
    if k_max > MAX_PERIOD_K:
        raise InvalidParameterError(f"central element norm {z_norm:g} has {k_max} periods "
                                    f"past |Z*|, more than {MAX_PERIOD_K}")
    values = [float(z_norm)]
    for k in range(1, k_max + 1):
        values.append(math.sqrt(4.0 * math.pi * k * (z_norm - math.pi * k)))
    return PeriodSet(values=tuple(values))


def length_scaling_factors(family: Family, n: int, rho: float, g0, t: float):
    """Squared-norm scaling (vector_factor, center_factor) of the exact solution."""
    return _power_laws(closed_form_coeffs(family, g0, n, rho), t)


def _check_v_star(family: Family, n: int, v_star) -> np.ndarray:
    """V* as an array, after checking it is a nonzero vector in complement coordinates."""
    v_star = np.asarray(v_star, dtype=float)
    if v_star.shape != (build_group(family, n).dim_v,):
        raise InvalidParameterError("V* must be given in complement coordinates")
    if not np.any(v_star):
        raise InvalidParameterError("V* must be nonzero")
    return v_star


def _v_norm(v: np.ndarray, g_v: np.ndarray) -> float:
    """sqrt(sum(v**2 g_v)) taken on v / 2^k, 2^k near max |v|: the bits of the plain sum where
    it stays in range (powers of two scale exactly), and no underflow or overflow where not."""
    k = math.frexp(float(np.max(np.abs(v))))[1]
    return float(np.ldexp(np.sqrt(np.sum(np.ldexp(v, -k) ** 2 * g_v)), k))


def noncentral_period(family: Family, n: int, rho: float, g0, t: float, v_star) -> float:
    """The unique period |V*|_t of a noncentral element, on the closed-form metric."""
    v_star = _check_v_star(family, n, v_star)
    return _v_norm(v_star, closed_form(family, g0, n, rho, t)[: len(v_star)])


def length_spectrum_witness(family: Family, n: int, rho: float, g0, t: float,
                            v_star) -> dict:
    """Rescale V* so its flowed norm equals the initial norm |V*|_0.

    The witness W* = vector_factor^(-1/2) V* demonstrates the length-spectrum
    preservation mechanism; |W*|_t - |V*|_0 is reported.
    """
    v_star = _check_v_star(family, n, v_star)
    family = Family(family)
    g0 = np.asarray(g0, dtype=float)
    factors = _power_laws(closed_form_coeffs(family, g0, n, rho), t)
    scale = factors[0] ** -0.5
    w_star = scale * v_star
    norm_v0 = _v_norm(v_star, g0[: len(v_star)])
    norm_w_t = _v_norm(w_star, _closed_form_at(family, g0, n, factors)[: len(v_star)])
    return {
        "witness_scale": float(scale),
        "w_star": w_star,
        "norm_w_t": norm_w_t,
        "norm_v0": norm_v0,
        "abs_error": abs(norm_w_t - norm_v0),
    }
