"""The skew maps j(Z) on the complement V and their spectral classification.

j(Z) is defined by <j(Z)X, Y> = <Z, [X, Y]> for X, Y in V.  Its square is
self-adjoint with nonpositive eigenvalues; the distinct eigenvalues and their
eigenspaces decide whether the metric algebra is of Heisenberg type
(j(Z)^2 = -|Z|^2 Id for all central Z), merely Heisenberg-like
([j(Z)X_m, X_m] stays on the line of Z for eigenspace vectors), or neither.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .algebra import LieAlgebraSpec, MetricState, _bracket, _check_integer
from .errors import InvalidParameterError

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
    """Unchecked ``j_matrix`` for a central Z, or a stack of them with shape (S, dim).

    Each row takes one Z's ``g z`` product and ``solve``.  Each C[i, j, :] has at
    most one nonzero entry, so each entry of B is the one product ``(g z) . C[i, j]`` gives.
    """
    b = spec.structure_vv @ (g @ z[..., None])[..., 0].T
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


def _full(spec, idx, coords) -> np.ndarray:
    """Each row of ``coords`` placed at positions ``idx`` of a zero algebra vector."""
    v = np.zeros((len(coords), spec.dim))
    v[:, idx] = coords
    return v


def _off_line(g, z, br, x_norm2) -> np.ndarray:
    """Which brackets ``br`` = [j(Z)X, X], in center coordinates like ``g`` and ``z``, lie
    off the line of Z beyond tolerance; ``x_norm2`` holds each X's Euclidean |X|^2."""
    z_norm2 = np.sum((z @ g) * z, axis=1)
    # residual of br orthogonal to Z under the metric
    resid = br - (np.sum((br @ g) * z, axis=1) / z_norm2)[:, None] * z
    lhs = np.sqrt(np.maximum(np.sum((resid @ g) * resid, axis=1), 0.0))
    scale = np.maximum(np.maximum(np.linalg.norm(br, axis=1), x_norm2 * np.sqrt(z_norm2)), 1e-30)
    return lhs > LIKE_RTOL * scale


def spectrum(spec: LieAlgebraSpec, metric: MetricState, z) -> SpectralReport:
    """Eigen-analysis of j(Z)^2 and the per-direction classification verdict."""
    z = _center_coords(spec, z)
    if not np.any(z):
        raise InvalidParameterError("Z must be nonzero")
    g_v = metric.g[spec.complement_block]
    return _spectra(spec, metric.g, g_v, _metric_sqrt(g_v), z[None])[0]


def _spectra(spec, g, g_v, root, zs) -> list[SpectralReport]:
    """Unchecked ``spectrum`` for each row of a stack of nonzero central Z.

    ``root`` is ``_metric_sqrt(g_v)``; each row's eigenvalues are bit for bit those
    of a one-row stack.  A direction not of Heisenberg type is Heisenberg-like when
    [j(Z)X, X] lies on the line of Z for each eigenspace basis vector X and random
    combinations of each basis; one test runs over the candidates of all directions.
    """
    m = _j_matrix(spec, g, g_v, zs)
    s, s_inv = root
    k = s @ m @ s_inv  # antisymmetric in the orthonormal frame
    eigs, vecs = np.linalg.eigh(k @ k)
    eigs = np.minimum(eigs, 0.0)

    v_idx = spec.complement_array
    reports, brs, x_norm2s, owners = [], [], [], []
    for d, (z, e) in enumerate(zip(zs, eigs)):
        groups = _cluster(e)
        thetas = [float(np.sqrt(-float(np.mean(e[grp])))) for grp in groups]
        order = np.argsort(thetas)
        groups, thetas = [groups[i] for i in order], [thetas[i] for i in order]
        z_norm2 = float(z @ g @ z)
        mu = len(thetas)
        is_type = mu == 1 and abs(thetas[0] ** 2 - z_norm2) <= TYPE_ATOL * max(1.0, z_norm2)
        reports.append(SpectralReport(
            mu=mu,
            thetas=tuple(thetas),
            subspace_dims=tuple(len(grp) for grp in groups),
            verdict=Verdict.HEISENBERG_TYPE if is_type else Verdict.HEISENBERG_LIKE,
            p_factor_observed=float(thetas[0] ** 2 / z_norm2 if mu == 1 else float("nan")),
            eigenvalues=tuple(e.tolist()),
        ))
        if not is_type:
            rng = np.random.default_rng(20240 + spec.dim)  # the same stream for each direction
            w = s_inv @ vecs[d]  # back to V coordinates, one eigenvector per column
            x = []
            for grp in groups:
                x.append(w[:, grp].T)
                if len(grp) > 1:
                    x.append(rng.standard_normal((N_RANDOM_CENTER_DIRECTIONS, len(grp))) @ x[-1])
            x = np.concatenate(x)
            # [J X, X] in center coordinates, one direction block at a time
            br = _bracket(spec, _full(spec, v_idx, x @ m[d].T), _full(spec, v_idx, x))
            brs.append(br[:, spec.center_array])
            x_norm2s.append(np.einsum("ij,ij->i", x, x))
            owners += [d] * len(x)

    if owners:
        owner = np.array(owners)
        c_idx = spec.center_array
        off = _off_line(g[np.ix_(c_idx, c_idx)], zs[:, c_idx][owner],
                        np.concatenate(brs), np.concatenate(x_norm2s))
        for d in set(owner[off].tolist()):
            reports[d] = replace(reports[d], verdict=Verdict.NEITHER)
    return reports


def classify(spec: LieAlgebraSpec, metric: MetricState, seed: int = 7) -> Verdict:
    """Verdict over the center basis plus random unit center directions."""
    _check_integer("seed", seed, 0)
    coeffs = np.random.default_rng(seed).standard_normal((N_RANDOM_CENTER_DIRECTIONS, spec.dim_z))
    zs = _full(spec, spec.center_array,
               np.vstack([np.eye(spec.dim_z)] + [c / np.linalg.norm(c) for c in coeffs]))
    g_v = metric.g[spec.complement_block]
    verdicts = {r.verdict for r in _spectra(spec, metric.g, g_v, _metric_sqrt(g_v), zs)}
    if verdicts == {Verdict.HEISENBERG_TYPE}:
        return Verdict.HEISENBERG_TYPE
    if Verdict.NEITHER not in verdicts:
        return Verdict.HEISENBERG_LIKE
    return Verdict.NEITHER


# verify_p8 takes its samples in blocks of about this many bytes of one (samples, dim_V,
# dim_V) stack, so its peak memory does not grow with the sample count.
_P8_BLOCK_BYTES = 1 << 15


def verify_p8(spec: LieAlgebraSpec, metric: MetricState, p: float,
              samples: int = 200, seed: int = 0) -> dict:
    """Residuals of the five P-factor inner-product identities on random tuples.

    Each residual is the largest over the samples, taken with ``np.max`` so
    that a nan is reported, not passed over.  The samples are taken as stacks,
    a block of about ``_P8_BLOCK_BYTES`` at a time; each residual is bit for bit
    the one a loop over the samples gives.
    """
    _check_integer("samples", samples, 1)
    _check_integer("seed", seed, 0)
    if not (np.isfinite(p) and p >= 0.0):
        raise InvalidParameterError(f"p must be finite and nonnegative, got {p}")
    rng = np.random.default_rng(seed)
    g = metric.g
    g_v = g[spec.complement_block]
    names = ["cross_product", "polarized", "norm", "anticommutator", "bracket"]
    worst = np.zeros(len(names))  # the residuals are nonnegative or nan
    size = max(1, _P8_BLOCK_BYTES // (8 * spec.dim_v**2))
    for lo in range(0, samples, size):
        # one row per sample: x, y in V coordinates, then Z, Z* in center coordinates,
        # the values four draws per sample would give
        draw = rng.standard_normal((min(size, samples - lo), 2 * (spec.dim_v + spec.dim_z)))
        worst = np.maximum(worst, np.max(_p8_residuals(spec, g, g_v, p, draw), axis=0))
    report = dict(zip(names, worst.tolist()))
    report["max_residual"] = float(np.max(worst))
    return report


# Products of (S, m) stacks of vectors, each taken as (S, 1, m) rows or (S, m, 1)
# columns, so that each slice is the product one sample's 1-D vectors make.
def _dot(a, b):
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_times(a, m):
    return (a[:, None, :] @ m)[:, 0]


def _times_column(m, a):
    return (m @ a[:, :, None])[..., 0]


def _p8_residuals(spec, g, g_v, p, draw) -> np.ndarray:
    """The five residuals of each row (x, y, Z, Z*) of ``draw``, shape (S, 5).

    Each product is a stacked ``matmul`` whose slices have the shapes of one
    sample's 1-D products (a dot, a row vector times a matrix, a matrix times a
    column), so numpy runs the same BLAS routine on each slice.
    """
    dim_v, v_idx, z_idx = spec.dim_v, spec.complement_array, spec.center_array
    xv, yv, zc, zsc = np.split(draw, np.cumsum([dim_v, dim_v, spec.dim_z]), axis=1)
    z, zs = _full(spec, z_idx, zc), _full(spec, z_idx, zsc)
    jz = _j_matrix(spec, g, g_v, z)
    jzs = _j_matrix(spec, g, g_v, zs)
    jz_x = _times_column(jz, xv)
    jz_x_g = _row_times(jz_x, g_v)
    x_g = _row_times(xv, g_v)
    x_x = _dot(x_g, xv)
    z_g = _row_times(z, g)
    z_zs = _dot(z_g, zs)
    z_z = _dot(z_g, z)

    r1 = np.abs(_dot(jz_x_g, _times_column(jzs, xv)) - p * z_zs * x_x)
    r2 = np.abs(_dot(jz_x_g, _times_column(jz, yv)) - p * z_z * _dot(x_g, yv))
    r3 = np.abs(np.sqrt(_dot(jz_x_g, jz_x)) - np.sqrt(p) * np.sqrt(z_z) * np.sqrt(x_x))
    r4 = np.abs(jz @ jzs + jzs @ jz
                + (2.0 * p * z_zs)[:, None, None] * np.eye(dim_v)).max(axis=(1, 2))
    br = _bracket(spec, _full(spec, v_idx, xv), _full(spec, v_idx, jz_x))
    r5 = np.abs(br - (p * x_x)[:, None] * z).max(axis=1)
    return np.column_stack([r1, r2, r3, r4, r5])
