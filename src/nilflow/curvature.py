"""Connection and curvature of a left-invariant metric from structure constants.

The canonical Riemann/Ricci path works for any metric in any 2-step algebra;
the specialized diagonal formulas for H_n and Q_n are provided separately and
must agree with it.  The printed component formulas for the Riemann and Ricci
tensors (whose indices do not all balance) are evaluated literally and only
reported against the canonical values, never used as the source of truth.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import Family, LieAlgebraSpec, MetricState, family_dim
from .errors import DegenerateMetricError, InvalidParameterError


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Levi-Civita coefficients gamma[i, j, k] and adjoint coefficients a[i, j, k]."""

    gamma: np.ndarray
    adjoint: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    sigma: float | None = None


@functools.lru_cache(maxsize=1024)
def _path(subscripts: str, shapes: tuple) -> list:
    # einsum_path reads only the operands' shapes; zero-stride views allocate nothing
    dummies = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *dummies, optimize="optimal")[0]


def _einsum(subscripts: str, *ops: np.ndarray) -> np.ndarray:
    """np.einsum along the optimal contraction order, searched once per (subscripts, shapes).

    Unoptimised, a 3-operand contraction such as ikm,jlp,mp->ijkl costs O(d^6);
    pairwise it costs O(d^5).  Only the order of the sums changes.  A pair has
    a single order, so it skips the path machinery and its per-call cost.
    """
    if len(ops) < 3:
        return np.einsum(subscripts, *ops)
    return np.einsum(subscripts, *ops, optimize=_path(subscripts, tuple(op.shape for op in ops)))


def adjoint_coeffs(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """a[i, j, k] with (ad e_i)* e_j = a_ij^k e_k, i.e. a_ij^k = C_il^m g_jm g^kl."""
    c = spec.structure_dense
    return _einsum("ilm,jm,kl->ijk", c, metric.g, metric.inverse)


def christoffel(spec: LieAlgebraSpec, metric: MetricState) -> ConnectionCoeffs:
    """Connection via nabla_X Y = (1/2){(adX)Y - (adX)*Y - (adY)*X}."""
    a = adjoint_coeffs(spec, metric)
    gamma = 0.5 * (spec.structure_dense - a - a.transpose(1, 0, 2))
    return ConnectionCoeffs(gamma=gamma, adjoint=a)


def christoffel_metric_components(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Connection via gamma_ij^k = (1/2) g^kl (C_ij^m g_lm - C_il^m g_jm - C_jl^m g_im).

    Independent route; agrees with :func:`christoffel` to machine precision.
    """
    c = spec.structure_dense
    g, ginv = metric.g, metric.inverse
    term = (
        _einsum("ijm,lm->ijl", c, g)
        - _einsum("ilm,jm->ijl", c, g)
        - _einsum("jlm,im->ijl", c, g)
    )
    return 0.5 * _einsum("kl,ijl->ijk", ginv, term)


def riemann(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Lowered tensor R_ijkl = <R(e_i, e_j)e_k, e_l>.

    Computed from <R(X,Y)Z,W> = <nabla_X Z, nabla_Y W> - <nabla_Y Z, nabla_X W>
    - <nabla_[X,Y] Z, W>, which for left-invariant fields is the curvature of
    the connection commutator.
    """
    gamma = christoffel(spec, metric).gamma
    c = spec.structure_dense
    g = metric.g
    t1 = _einsum("ikm,jlp,mp->ijkl", gamma, gamma, g)
    t3 = _einsum("ijm,mkp,pl->ijkl", c, gamma, g)
    return t1 - t1.transpose(1, 0, 2, 3) - t3


def riemann_bracket_formula(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Cross-check: the all-brackets expansion of 4<R(X,Y)Z,W>."""
    c = spec.structure_dense
    g = metric.g
    a = adjoint_coeffs(spec, metric)
    u = -0.5 * (a + a.transpose(1, 0, 2))

    # double brackets vanish on 2-step algebras; kept so the formula stays general
    four_r = (
        2.0 * _einsum("ijm,klp,mp->ijkl", c, c, g)  # 2<[X,Y],[Z,W]>
        + _einsum("ikm,jlp,mp->ijkl", c, c, g)      # <[X,Z],[Y,W]>
        - _einsum("ilm,jkp,mp->ijkl", c, c, g)      # <[X,W],[Y,Z]>
        - _einsum("ijm,mkp,pl->ijkl", c, c, g)      # <[[X,Y],Z],W>
        + _einsum("ijm,mlp,pk->ijkl", c, c, g)      # <[[X,Y],W],Z>
        - _einsum("klm,mip,pj->ijkl", c, c, g)      # <[[Z,W],X],Y>
        + _einsum("klm,mjp,pi->ijkl", c, c, g)      # <[[Z,W],Y],X>
        + 4.0 * _einsum("ikm,jlp,mp->ijkl", u, u, g)
        - 4.0 * _einsum("ilm,jkp,mp->ijkl", u, u, g)
    )
    return 0.25 * four_r


def riemann_literal(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Literal evaluation of the printed component formula for 4 R_ijkl.

    One printed term repeats an index three times; it is summed as written.
    Report-only: compare against :func:`riemann`.
    """
    c = spec.structure_dense
    g = metric.g
    a = adjoint_coeffs(spec, metric)
    s = a + a.transpose(1, 0, 2)
    four_r = (
        2.0 * _einsum("ijp,klq,pq->ijkl", c, c, g)
        + _einsum("ikp,jlq,pq->ijkl", c, c, g)
        - _einsum("ilp,jkq,pq->ijkl", c, c, g)
        - _einsum("ijp,pkq,ql->ijkl", c, c, g)
        + _einsum("ijp,plq,pk->ijkl", c, c, g)  # repeated p, as printed
        - _einsum("klp,piq,qj->ijkl", c, c, g)
        + _einsum("klp,pjq,qi->ijkl", c, c, g)
        + _einsum("ikp,jlq,pq->ijkl", s, s, g)
        - _einsum("ilp,jkq,pq->ijkl", s, s, g)
    )
    return 0.25 * four_r


def ricci_general(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Ricci matrix Ric_ij = g^km R_kijm, contracted from the connection coefficients.

    Each term of R = t1 - t1^T - t3 in :func:`riemann` is summed against g^km
    before it is expanded, so the d^4 Riemann tensor is never built: O(d^3)
    memory and O(d^4) time.
    """
    gamma = christoffel(spec, metric).gamma
    c = spec.structure_dense
    g, ginv = metric.g, metric.inverse
    return (
        _einsum("km,kjp,imq,pq->ij", ginv, gamma, gamma, g)    # g^km t1_kijm
        - _einsum("km,ijp,kmq,pq->ij", ginv, gamma, gamma, g)  # g^km t1_ikjm
        - _einsum("km,kip,pjq,qm->ij", ginv, c, gamma, g)      # g^km t3_kijm
    )


def ricci_literal(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Literal evaluation of the printed 4 R_ij component formula (report only).

    Each printed term is contracted with g^km on its own, so no d^4 array is built.
    """
    c = spec.structure_dense
    g, ginv = metric.g, metric.inverse
    a = adjoint_coeffs(spec, metric)
    s = a + a.transpose(1, 0, 2)
    four_ric = (
        2.0 * _einsum("kip,jmq,pq,km->ij", c, c, g, ginv)
        + _einsum("kjp,imq,pq,km->ij", c, c, g, ginv)
        - _einsum("kmp,ijq,pq,km->ij", c, c, g, ginv)
        - _einsum("kip,pjq,qm,km->ij", c, c, g, ginv)
        + _einsum("kip,pmq,qj,km->ij", c, c, g, ginv)
        - _einsum("jmp,pkq,qi,km->ij", c, c, g, ginv)
        # C_jm^p C_pj^q g_qk as printed carries no free i; broadcast over i
        + _einsum("jmp,pjq,qk,km->j", c, c, g, ginv)[None, :]
        + _einsum("jkp,imq,pq,km->ij", s, s, g, ginv)
        - _einsum("kmp,ijq,pq,km->ij", s, s, g, ginv)
    )
    return 0.25 * four_ric


def literal_discrepancy(spec: LieAlgebraSpec, metric: MetricState, tol: float = 1e-10,
                        report: CurvatureReport | None = None):
    """Max |literal - canonical| for the printed Riemann and Ricci formulas.

    The canonical values are those of ``report``, which must belong to
    ``metric``; without one, a :func:`curvature_report` is built.
    Returns (riemann_dev, ricci_dev, flagged).
    """
    if report is None:
        report = curvature_report(spec, metric)
    r_dev = float(np.abs(riemann_literal(spec, metric) - report.riemann).max())
    ric_dev = float(np.abs(ricci_literal(spec, metric) - report.ricci).max())
    return r_dev, ric_dev, bool(max(r_dev, ric_dev) > tol)


def _scalar(metric: MetricState, ric: np.ndarray) -> float:
    return float(_einsum("ij,ij->", metric.inverse, ric))


def scalar_curvature(spec: LieAlgebraSpec, metric: MetricState) -> float:
    return _scalar(metric, ricci_general(spec, metric))


def _check_diag(diag: np.ndarray, expected_len: int) -> np.ndarray:
    diag = np.asarray(diag, dtype=float)
    if diag.shape != (expected_len,):
        raise InvalidParameterError(
            f"diagonal metric must have length {expected_len}, got {diag.shape}"
        )
    if np.any(diag <= 0.0):
        raise DegenerateMetricError("diagonal metric has a nonpositive component")
    return diag


def sigma_heisenberg(metric_diag, n: int) -> float:
    """Sigma = sum_k 1/(g_k g_{n+k}) for a diagonal metric on H_n."""
    g = _check_diag(metric_diag, 2 * n + 1)
    return float(np.sum(1.0 / (g[:n] * g[n : 2 * n])))


def sigma_quaternion(metric_diag, n: int):
    """(Sigma', Sigma_1, Sigma_2, Sigma_3) for a diagonal metric on Q_n."""
    g = _check_diag(metric_diag, 4 * n + 3)
    v1, v2, v3, v4 = g[:n], g[n : 2 * n], g[2 * n : 3 * n], g[3 * n : 4 * n]
    s1 = float(np.sum(1.0 / (v1 * v2) + 1.0 / (v3 * v4)))
    s2 = float(np.sum(1.0 / (v1 * v4) + 1.0 / (v2 * v3)))
    s3 = float(np.sum(1.0 / (v1 * v3) + 1.0 / (v2 * v4)))
    sigma_prime = g[4 * n] * s1 + g[4 * n + 1] * s2 + g[4 * n + 2] * s3
    return float(sigma_prime), s1, s2, s3


def ricci_specialized_diag(family: Family, metric_diag, n: int) -> np.ndarray:
    """Diagonal Ricci entries from the closed-form expressions for H_n / Q_n."""
    family = Family(family)
    g = _check_diag(metric_diag, family_dim(family, n))
    r = np.empty_like(g)
    if family is Family.HEISENBERG:
        g_n = g[2 * n]
        r[:n] = -0.5 * g_n / g[n : 2 * n]
        r[n : 2 * n] = -0.5 * g_n / g[:n]
        r[2 * n] = 0.5 * g_n**2 * sigma_heisenberg(g, n)
    else:
        z1, z2, z3 = g[4 * n], g[4 * n + 1], g[4 * n + 2]
        v1, v2, v3, v4 = g[:n], g[n : 2 * n], g[2 * n : 3 * n], g[3 * n : 4 * n]
        r[:n] = -0.5 * (z1 / v2 + z3 / v3 + z2 / v4)
        r[n : 2 * n] = -0.5 * (z1 / v1 + z2 / v3 + z3 / v4)
        r[2 * n : 3 * n] = -0.5 * (z3 / v1 + z2 / v2 + z1 / v4)
        r[3 * n : 4 * n] = -0.5 * (z2 / v1 + z3 / v2 + z1 / v3)
        _, s1, s2, s3 = sigma_quaternion(g, n)
        r[4 * n] = 0.5 * z1**2 * s1
        r[4 * n + 1] = 0.5 * z2**2 * s2
        r[4 * n + 2] = 0.5 * z3**2 * s3
    return r


def ricci_specialized(family: Family, metric_diag, n: int) -> np.ndarray:
    return np.diag(ricci_specialized_diag(family, metric_diag, n))


def scalar_specialized(family: Family, metric_diag, n: int) -> float:
    """R = -(1/2) g_N Sigma on H_n, R = -(1/2) Sigma' on Q_n."""
    family = Family(family)
    g = _check_diag(metric_diag, family_dim(family, n))
    if family is Family.HEISENBERG:
        return -0.5 * float(g[2 * n]) * sigma_heisenberg(g, n)
    return -0.5 * sigma_quaternion(g, n)[0]


def curvature_report(spec: LieAlgebraSpec, metric: MetricState) -> CurvatureReport:
    """Riemann tensor, Ricci matrix and scalar curvature of one metric, each built once."""
    ric = ricci_general(spec, metric)
    sigma = None
    if metric.diagonal_flag:
        if spec.family is Family.HEISENBERG:
            sigma = sigma_heisenberg(metric.diag, spec.n)
        else:
            sigma = sigma_quaternion(metric.diag, spec.n)[0]
    return CurvatureReport(riemann=riemann(spec, metric), ricci=ric,
                           scalar=_scalar(metric, ric), sigma=sigma)
