"""The skew maps j(Z) on the complement V and their spectral classification.

j(Z) is defined by <j(Z)X, Y> = <Z, [X, Y]> for X, Y in V.  Its square is
self-adjoint with nonpositive eigenvalues; the distinct eigenvalues and their
eigenspaces decide whether the metric algebra is of Heisenberg type
(j(Z)^2 = -|Z|^2 Id for all central Z), merely Heisenberg-like
([j(Z)X_m, X_m] stays on the line of Z for eigenspace vectors), or neither.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Family, LieAlgebraSpec, MetricState, _bracket
from .errors import InvalidParameterError, OutOfDomainError

CLUSTER_RTOL = 1e-9
TYPE_ATOL = 1e-10
LIKE_RTOL = 1e-9
N_RANDOM_CENTER_DIRECTIONS = 8


class Verdict(str, Enum):
    HEISENBERG_TYPE = "HeisenbergType"
    HEISENBERG_LIKE = "HeisenbergLike"
    NEITHER = "Neither"


@dataclass(frozen=True)
class SpectralReport:
    mu: int
    thetas: tuple[float, ...]
    subspace_dims: tuple[int, ...]
    verdict: Verdict
    p_factor_observed: float
    eigenvalues: tuple[float, ...]


def _center_coords(spec: LieAlgebraSpec, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.dim,):
        raise InvalidParameterError("Z must be a full-length algebra vector")
    if not np.isfinite(z).all():
        raise InvalidParameterError("Z has a non-finite component")
    if np.any(z[spec.complement_array] != 0.0):
        raise InvalidParameterError("Z must lie in the center")
    return z


def j_matrix(spec: LieAlgebraSpec, metric: MetricState, z) -> np.ndarray:
    """Matrix of j(Z) on V in the complement basis.

    Solves G_V M = B^T with B_ij = <Z, [e_i, e_j]> over the complement basis.
    """
    z = _center_coords(spec, z)
    return _j_matrix(spec, metric.g, metric.g[spec.complement_block], z)


def _j_matrix(spec: LieAlgebraSpec, g: np.ndarray, g_v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unchecked ``j_matrix`` for a central Z, given the Gram matrix and its V block.

    Each C[i, j, :] has at most one nonzero entry, so each entry of B is a
    single product, the same one the per-pair dot ``(g z) . C[i, j]`` gives.
    """
    b = spec.structure_vv @ (g @ z)
    return np.linalg.solve(g_v, b.T)


def _metric_sqrt(g_v: np.ndarray):
    w, q = np.linalg.eigh(g_v)
    s = q @ np.diag(np.sqrt(w)) @ q.T
    s_inv = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
    return s, s_inv


def _cluster(eigs: np.ndarray) -> list[list[int]]:
    """Group ascending eigenvalues whose gaps are below the relative tolerance."""
    groups = [[0]]
    for i in range(1, len(eigs)):
        if abs(eigs[i] - eigs[groups[-1][0]]) <= CLUSTER_RTOL * max(1.0, abs(eigs[i])):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _heisenberg_like_for_z(spec, g, z, z_norm2, j, w_bases, rng=None) -> bool:
    """Check [j(Z)X, X] in span(Z) on eigenspace bases plus random combinations.

    ``g`` is the Gram matrix, ``z_norm2`` = <Z, Z> and ``j`` the matrix of j(Z).
    """
    v_idx = spec.complement_array
    if rng is None:
        rng = np.random.default_rng(20240 + spec.dim)
    for basis in w_bases:
        candidates = list(basis)
        if len(basis) > 1:
            coeffs = rng.standard_normal((N_RANDOM_CENTER_DIRECTIONS, len(basis)))
            candidates += [
                sum(cc * v for cc, v in zip(row, basis)) for row in coeffs
            ]
        for x_v in candidates:
            x = np.zeros(spec.dim)
            x[v_idx] = x_v
            jx = np.zeros(spec.dim)
            jx[v_idx] = j @ x_v
            br = _bracket(spec, jx, x)
            # residual of br orthogonal to Z under the metric
            proj = float(br @ g @ z) / z_norm2
            resid = br - proj * z
            scale = max(np.linalg.norm(br), np.linalg.norm(x_v) ** 2 * np.sqrt(z_norm2), 1e-30)
            if np.sqrt(max(float(resid @ g @ resid), 0.0)) > LIKE_RTOL * scale:
                return False
    return True


def spectrum(spec: LieAlgebraSpec, metric: MetricState, z) -> SpectralReport:
    """Eigen-analysis of j(Z)^2 and the per-direction classification verdict."""
    z = _center_coords(spec, z)
    if not np.any(z):
        raise InvalidParameterError("Z must be nonzero")
    g_v = metric.g[spec.complement_block]
    return _spectrum(spec, metric.g, g_v, _metric_sqrt(g_v), z)


def _spectrum(spec, g, g_v, root, z) -> SpectralReport:
    """Unchecked ``spectrum`` for a nonzero central Z; ``root`` is ``_metric_sqrt(g_v)``."""
    m = _j_matrix(spec, g, g_v, z)
    s, s_inv = root
    k = s @ m @ s_inv  # antisymmetric in the orthonormal frame
    eigs, vecs = np.linalg.eigh(k @ k)
    eigs = np.minimum(eigs, 0.0)

    groups = _cluster(eigs)
    thetas = []
    dims = []
    w_bases = []
    for grp in groups:
        lam = float(np.mean(eigs[grp]))
        thetas.append(float(np.sqrt(-lam)))
        dims.append(len(grp))
        w_bases.append([s_inv @ vecs[:, i] for i in grp])  # back to V coordinates
    order = np.argsort(thetas)
    thetas = [thetas[i] for i in order]
    dims = [dims[i] for i in order]
    w_bases = [w_bases[i] for i in order]

    z_norm2 = float(z @ g @ z)
    mu = len(thetas)
    if mu == 1 and abs(thetas[0] ** 2 - z_norm2) <= TYPE_ATOL * max(1.0, z_norm2):
        verdict = Verdict.HEISENBERG_TYPE
    elif _heisenberg_like_for_z(spec, g, z, z_norm2, m, w_bases):
        verdict = Verdict.HEISENBERG_LIKE
    else:
        verdict = Verdict.NEITHER

    p_obs = thetas[0] ** 2 / z_norm2 if mu == 1 else float("nan")
    return SpectralReport(
        mu=mu,
        thetas=tuple(thetas),
        subspace_dims=tuple(dims),
        verdict=verdict,
        p_factor_observed=float(p_obs),
        eigenvalues=tuple(float(e) for e in eigs),
    )


def classify(spec: LieAlgebraSpec, metric: MetricState, seed: int = 7) -> Verdict:
    """Verdict over the center basis plus random unit center directions."""
    rng = np.random.default_rng(seed)
    z_idx = list(spec.center_indices)
    samples = []
    for i in z_idx:
        z = np.zeros(spec.dim)
        z[i] = 1.0
        samples.append(z)
    for _ in range(N_RANDOM_CENTER_DIRECTIONS):
        z = np.zeros(spec.dim)
        coeffs = rng.standard_normal(len(z_idx))
        z[z_idx] = coeffs / np.linalg.norm(coeffs)
        samples.append(z)

    g_v = metric.g[spec.complement_block]
    root = _metric_sqrt(g_v)
    reports = [_spectrum(spec, metric.g, g_v, root, z) for z in samples]
    if all(r.verdict is Verdict.HEISENBERG_TYPE for r in reports):
        return Verdict.HEISENBERG_TYPE
    if all(r.verdict in (Verdict.HEISENBERG_TYPE, Verdict.HEISENBERG_LIKE) for r in reports):
        return Verdict.HEISENBERG_LIKE
    return Verdict.NEITHER


def theoretical_p_factor(family: Family, n: int, rho: float, t: float) -> float:
    """The degradation factor 1/((n+2-n rho) t + 1) or 1/((6+2n-6n rho) t + 1)."""
    family = Family(family)
    if not np.isfinite([rho, t]).all():
        raise InvalidParameterError(f"rho and t must be finite, got rho = {rho}, t = {t}")
    if family is Family.HEISENBERG:
        denom = (n + 2 - n * rho) * t + 1.0
    else:
        denom = (6 + 2 * n - 6 * n * rho) * t + 1.0
    if denom <= 0.0:
        raise OutOfDomainError(f"degradation-factor denominator {denom:g} is nonpositive")
    return 1.0 / denom


def verify_p8(spec: LieAlgebraSpec, metric: MetricState, p: float,
              samples: int = 200, seed: int = 0) -> dict:
    """Residuals of the five P-factor inner-product identities on random tuples."""
    if samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    v_idx = spec.complement_array
    z_idx = spec.center_array
    dim_v = len(v_idx)
    g = metric.g
    g_v = g[spec.complement_block]
    eye_v = np.eye(dim_v)
    names = ["cross_product", "polarized", "norm", "anticommutator", "bracket"]
    worst = dict.fromkeys(names, 0.0)

    def full(idx, coords):
        v = np.zeros(spec.dim)
        v[idx] = coords
        return v

    for _ in range(samples):
        xv = rng.standard_normal(dim_v)
        yv = rng.standard_normal(dim_v)
        z = full(z_idx, rng.standard_normal(len(z_idx)))
        zs = full(z_idx, rng.standard_normal(len(z_idx)))
        jz = _j_matrix(spec, g, g_v, z)
        jzs = _j_matrix(spec, g, g_v, zs)
        jz_x = jz @ xv
        x_x = xv @ g_v @ xv
        z_zs = float(z @ g @ zs)
        z_z = float(z @ g @ z)

        r1 = abs(jz_x @ g_v @ (jzs @ xv) - p * z_zs * x_x)
        r2 = abs(jz_x @ g_v @ (jz @ yv) - p * z_z * (xv @ g_v @ yv))
        r3 = abs(np.sqrt(jz_x @ g_v @ jz_x)
                 - np.sqrt(p) * np.sqrt(z_z) * np.sqrt(x_x))
        r4 = np.abs(jz @ jzs + jzs @ jz + 2.0 * p * z_zs * eye_v).max()
        br = _bracket(spec, full(v_idx, xv), full(v_idx, jz_x))
        r5 = np.abs(br - p * x_x * z).max()

        for name, r in zip(names, (r1, r2, r3, r4, r5)):
            worst[name] = max(worst[name], float(r))
    worst["max_residual"] = max(worst[n] for n in names)
    return worst
