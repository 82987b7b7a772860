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


def _check_diag(diag, expected_len: int) -> np.ndarray:
    diag = np.asarray(diag, dtype=float)
    if diag.shape != (expected_len,):
        raise InvalidParameterError(
            f"diagonal metric must have length {expected_len}, got {diag.shape}"
        )
    # two reductions: min is nan if any entry is nan, max is inf if any entry is +inf
    if not (diag.min() > 0.0 and diag.max() < np.inf):
        if not np.isfinite(diag).all():
            raise InvalidParameterError("diagonal metric has a non-finite component")
        raise DegenerateMetricError("diagonal metric has a nonpositive component")
    return diag


@functools.lru_cache(maxsize=256)
def _diag_kernel(family: Family, n: int):
    """The closed-form diagonal curvature of H_n or Q_n as one function of g.

    Built once per (family, n) on first use.  The returned ``kernel(g)`` takes a
    checked diagonal and gives ``(ricci_diag, scalar, sigma)``, where sigma is
    Sigma on H_n and (Sigma', Sigma_1, Sigma_2, Sigma_3) on Q_n, all from one
    evaluation of the sums.  Gather indices replace the per-block slices; each
    entry is computed by the same float operations, in the same order, as the
    slice formulas it stands for, so the results are bitwise those formulas'.
    """
    family = Family(family)
    if n < 1:
        raise InvalidParameterError("n must be positive")
    dim = family_dim(family, n)
    if family is Family.HEISENBERG:
        # Ric_i = -g_N / (2 g_{n+i}), Ric_{n+i} = -g_N / (2 g_i); the last slot is overwritten
        den = np.r_[n : 2 * n, :n, 2 * n]

        def kernel(g):
            g_n = g[2 * n]
            sigma = float(np.add.reduce(1.0 / (g[:n] * g[n : 2 * n])))
            r = -0.5 * g_n / g[den]
            r[2 * n] = 0.5 * g_n**2 * sigma
            return r, -0.5 * float(g_n) * sigma, sigma

        kernel.dim = dim
        return kernel

    # V block b (entries b*n .. b*n+n-1) has Ric = -(z_a/v_p + z_b/v_q + z_c/v_r)/2,
    # summed left to right; terms[b] lists its (center slot, V block) pairs
    terms = (((0, 1), (2, 2), (1, 3)), ((0, 0), (1, 2), (2, 3)),
             ((2, 0), (1, 1), (0, 3)), ((1, 0), (2, 1), (0, 2)))
    block = np.arange(n)
    # num_den[0] / num_den[1] is (3, dim): one row per term; the center columns
    # divide z_1 by itself and are overwritten
    num_den = np.full((2, 3, dim), 4 * n)
    for b, row in enumerate(terms):
        for a, (z, v) in enumerate(row):
            num_den[0, a, b * n : (b + 1) * n] = 4 * n + z
            num_den[1, a, b * n : (b + 1) * n] = v * n + block
    # Sigma_k = sum_i 1/(v_p v_q) + 1/(v_r v_s): pairs[0] * pairs[1] is (3, 2, n)
    blocks = (((0, 1), (2, 3)), ((0, 3), (1, 2)), ((0, 2), (1, 3)))
    pairs = np.array([[[p * n + block for p, _ in row] for row in blocks],
                      [[q * n + block for _, q in row] for row in blocks]])

    def kernel(g):
        nd = g[num_den]
        q = nd[0] / nd[1]
        r = -0.5 * (q[0] + q[1] + q[2])
        vv = g[pairs]
        p = 1.0 / (vv[0] * vv[1])
        s1, s2, s3 = np.add.reduce(p[:, 0] + p[:, 1], axis=1).tolist()
        z1, z2, z3 = g[4 * n :].tolist()
        sigma_prime = z1 * s1 + z2 * s2 + z3 * s3
        r[4 * n] = 0.5 * z1**2 * s1
        r[4 * n + 1] = 0.5 * z2**2 * s2
        r[4 * n + 2] = 0.5 * z3**2 * s3
        return r, -0.5 * sigma_prime, (sigma_prime, s1, s2, s3)

    kernel.dim = dim
    return kernel


def _diag_curvature(family: Family, metric_diag, n: int):
    kernel = _diag_kernel(family, n)
    return kernel(_check_diag(metric_diag, kernel.dim))


def sigma_heisenberg(metric_diag, n: int) -> float:
    """Sigma = sum_k 1/(g_k g_{n+k}) for a diagonal metric on H_n."""
    return _diag_curvature(Family.HEISENBERG, metric_diag, n)[2]


def sigma_quaternion(metric_diag, n: int):
    """(Sigma', Sigma_1, Sigma_2, Sigma_3) for a diagonal metric on Q_n."""
    return _diag_curvature(Family.QUATERNION, metric_diag, n)[2]


def ricci_specialized_diag(family: Family, metric_diag, n: int) -> np.ndarray:
    """Diagonal Ricci entries from the closed-form expressions for H_n / Q_n."""
    return _diag_curvature(family, metric_diag, n)[0]


def ricci_specialized(family: Family, metric_diag, n: int) -> np.ndarray:
    return np.diag(ricci_specialized_diag(family, metric_diag, n))


def scalar_specialized(family: Family, metric_diag, n: int) -> float:
    """R = -(1/2) g_N Sigma on H_n, R = -(1/2) Sigma' on Q_n."""
    return _diag_curvature(family, metric_diag, n)[1]


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
