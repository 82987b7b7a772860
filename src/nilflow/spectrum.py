"""Explicit geodesics, period sets, and length-spectrum scaling along the flow.

All flowed norms here are evaluated on the exact closed-form metrics, not on
numeric trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Family, LieAlgebraSpec, MetricState, family_dim, inner
from .errors import InvalidParameterError, NotApplicableError
from .flow import _closed_form_base, closed_form, closed_form_coeffs
from .joperator import j_matrix, theoretical_p_factor

DEDUP_RTOL = 1e-12
# central_periods refuses a |Z*| with more than this many k, one period each
MAX_PERIOD_K = 10**6


@dataclass(frozen=True)
class GeodesicData:
    """Initial data of a geodesic through the identity with central part Z0 != 0."""

    x0: np.ndarray  # complement coordinates
    z0: np.ndarray  # full-length center vector
    t: float
    theta: float
    j: np.ndarray  # j(Z0) on V at time t
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


def make_geodesic_data(spec: LieAlgebraSpec, metric: MetricState, x0, z0,
                       p_factor: float = 1.0) -> GeodesicData:
    """Assemble theta = sqrt(P) |Z0| and J = j(Z0) for the geodesic formula."""
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    v_idx = list(spec.complement_indices)
    if x0.shape != (len(v_idx),):
        raise InvalidParameterError("x0 must be given in complement coordinates")
    if not np.any(z0[list(spec.center_indices)]):
        raise NotApplicableError("the geodesic formula needs a nonzero central part")
    z0_norm2 = inner(metric, z0, z0)
    x0_full = np.zeros(spec.dim)
    x0_full[v_idx] = x0
    x0_norm2 = inner(metric, x0_full, x0_full)
    j = j_matrix(spec, metric, z0)
    return GeodesicData(
        x0=x0, z0=z0, t=metric.t,
        theta=float(np.sqrt(p_factor) * np.sqrt(z0_norm2)),
        j=j, x0_norm2=float(x0_norm2), z0_norm2=float(z0_norm2),
    )


def geodesic_point(data: GeodesicData, s: float):
    """(X(s), Z(s)) of the explicit geodesic; X in complement coordinates,
    Z as a full-length center vector.  X(0) = 0, Z(0) = 0."""
    th = data.theta
    if th <= 0.0:
        raise NotApplicableError("theta must be positive (Z0 != 0)")
    cos_m1 = math.cos(s * th) - 1.0
    sinc = math.sin(s * th) / th
    x = cos_m1 * np.linalg.solve(data.j, data.x0) + sinc * data.x0
    ratio = data.x0_norm2 / (2.0 * data.z0_norm2)
    z = (s * (1.0 + ratio) + sinc * ratio) * data.z0
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
    family = Family(family)
    coeffs = closed_form_coeffs(family, g0, n, rho)
    base = _closed_form_base(coeffs, t)
    return base**coeffs.vector_exponent, base**coeffs.center_exponent


def _check_v_star(family: Family, n: int, v_star) -> np.ndarray:
    """V* as an array, after checking it is a nonzero vector in complement coordinates."""
    v_star = np.asarray(v_star, dtype=float)
    n_center = 1 if Family(family) is Family.HEISENBERG else 3
    if v_star.shape != (family_dim(family, n) - n_center,):
        raise InvalidParameterError("V* must be given in complement coordinates")
    if not np.any(v_star):
        raise InvalidParameterError("V* must be nonzero")
    return v_star


def noncentral_period(family: Family, n: int, rho: float, g0, t: float, v_star) -> float:
    """The unique period |V*|_t of a noncentral element, on the closed-form metric."""
    v_star = _check_v_star(family, n, v_star)
    g_t = closed_form(family, g0, n, rho, t)
    return float(np.sqrt(np.sum(v_star**2 * g_t[: len(v_star)])))


def length_spectrum_witness(family: Family, n: int, rho: float, g0, t: float,
                            v_star) -> dict:
    """Rescale V* so its flowed norm equals the initial norm |V*|_0.

    The witness W* = vector_factor^(-1/2) V* demonstrates the length-spectrum
    preservation mechanism; |W*|_t - |V*|_0 is reported.
    """
    v_star = _check_v_star(family, n, v_star)
    vec_factor, _ = length_scaling_factors(family, n, rho, g0, t)
    scale = vec_factor**-0.5
    w_star = scale * v_star
    g0 = np.asarray(g0, dtype=float)
    norm_v0 = float(np.sqrt(np.sum(v_star**2 * g0[: len(v_star)])))
    norm_w_t = noncentral_period(family, n, rho, g0, t, w_star)
    return {
        "witness_scale": float(scale),
        "w_star": w_star,
        "norm_w_t": norm_w_t,
        "norm_v0": norm_v0,
        "abs_error": abs(norm_w_t - norm_v0),
    }
