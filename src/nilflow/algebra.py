"""Heisenberg and quaternion nilpotent Lie algebras with left-invariant metrics.

Bases are indexed 0-based internally; reports and CSV headers use the
customary 1-based labels.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateMetricError, InvalidParameterError

EPS_POS = 1e-12

# Bracket table for one quaternionic block: ([X1,X2] = -Z1, [X1,X3] = Z3, ...)
# entries are (a, b, center_slot, sign) with a, b in {0..3} labelling X_{a+1,l}.
_QUATERNION_BLOCK = (
    (0, 1, 0, -1.0),
    (0, 2, 2, +1.0),
    (0, 3, 1, +1.0),
    (1, 2, 1, +1.0),
    (1, 3, 2, -1.0),
    (2, 3, 0, -1.0),
)


class Family(str, Enum):
    HEISENBERG = "heisenberg"
    QUATERNION = "quaternion"

    @property
    def short(self) -> str:
        return "H" if self is Family.HEISENBERG else "Q"


def family_dim(family: Family, n: int) -> int:
    return 2 * n + 1 if family is Family.HEISENBERG else 4 * n + 3


@dataclass(frozen=True)
class LieAlgebraSpec:
    """A 2-step nilpotent algebra given by sparse structure constants.

    ``structure`` lists (i, j, k, value) with i < j; the antisymmetric
    counterpart is implied.  Every k lies in ``center_indices``.
    """

    dim: int
    structure: tuple[tuple[int, int, int, float], ...]
    center_indices: tuple[int, ...]
    complement_indices: tuple[int, ...]
    family: Family
    n: int

    @cached_property
    def structure_dense(self) -> np.ndarray:
        """Dense C[i, j, k] with both orientations filled in."""
        c = np.zeros((self.dim, self.dim, self.dim))
        for i, j, k, v in self.structure:
            c[i, j, k] += v
            c[j, i, k] -= v
        return c

    @cached_property
    def complement_array(self) -> np.ndarray:
        return np.array(self.complement_indices, dtype=np.intp)

    @cached_property
    def center_array(self) -> np.ndarray:
        return np.array(self.center_indices, dtype=np.intp)

    @cached_property
    def complement_block(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.ix_`` index pair that cuts the V x V block out of a dim x dim matrix."""
        return np.ix_(self.complement_array, self.complement_array)

    @cached_property
    def structure_vv(self) -> np.ndarray:
        """The (dim_V, dim_V, dim) complement block of ``structure_dense``."""
        return self.structure_dense[self.complement_block]

    @cached_property
    def structure_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (i, j, k, value) columns of ``structure`` as arrays."""
        cols = np.array(self.structure, dtype=float).reshape(-1, 4).T
        i, j, k = cols[:3].astype(np.intp)
        return i, j, k, cols[3]

    @property
    def dim_v(self) -> int:
        return len(self.complement_indices)

    @property
    def dim_z(self) -> int:
        return len(self.center_indices)


@dataclass(frozen=True)
class MetricState:
    """A left-invariant metric: the Gram matrix of the chosen basis."""

    g: np.ndarray
    t: float = 0.0
    diagonal_flag: bool = False

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidParameterError("metric must be a square matrix")
        if not np.isfinite(g).all():
            raise InvalidParameterError("metric has a non-finite entry")
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-13 * max(1.0, np.abs(g).max())):
            raise InvalidParameterError("metric must be symmetric")
        if np.linalg.eigvalsh(g).min() <= EPS_POS:
            raise DegenerateMetricError("metric is not positive definite")
        if self.diagonal_flag and np.any(g - np.diag(np.diag(g)) != 0.0):
            raise InvalidParameterError("diagonal_flag set but off-diagonal entries nonzero")
        if not (np.isfinite(self.t) and self.t >= 0.0):
            raise InvalidParameterError(f"flow time must be finite and nonnegative, got {self.t}")

    @classmethod
    def from_diag(cls, diag, t: float = 0.0) -> "MetricState":
        diag = np.asarray(diag, dtype=float)
        if diag.ndim != 1:
            raise InvalidParameterError("diagonal metric must be a vector")
        return cls(g=np.diag(diag), t=t, diagonal_flag=True)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.g)

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.g)


def build_group(family: Family, n: int) -> LieAlgebraSpec:
    """Structure constants of H_n (dim 2n+1) or Q_n (dim 4n+3)."""
    family = Family(family)
    if n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n}")
    if family is Family.HEISENBERG:
        dim = 2 * n + 1
        struct = tuple((i, n + i, 2 * n, 1.0) for i in range(n))
        center = (2 * n,)
    else:
        dim = 4 * n + 3
        struct = tuple(
            (a * n + l, b * n + l, 4 * n + z, sign)
            for l in range(n)
            for a, b, z, sign in _QUATERNION_BLOCK
        )
        center = (4 * n, 4 * n + 1, 4 * n + 2)
    complement = tuple(i for i in range(dim) if i not in center)
    return LieAlgebraSpec(
        dim=dim,
        structure=struct,
        center_indices=center,
        complement_indices=complement,
        family=family,
        n=n,
    )


def bracket(spec: LieAlgebraSpec, x, y) -> np.ndarray:
    """[x, y] by bilinear extension of the structure constants."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (spec.dim,) or y.shape != (spec.dim,):
        raise InvalidParameterError("bracket arguments must have length dim")
    return _bracket(spec, x, y)


def _bracket(spec: LieAlgebraSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unchecked ``bracket``: ``add.at`` accumulates each ``out[k]`` in structure order."""
    i, j, k, v = spec.structure_columns
    out = np.zeros(spec.dim)
    np.add.at(out, k, v * (x[i] * y[j] - x[j] * y[i]))
    return out


def inner(metric: MetricState, x, y) -> float:
    """<x, y> under the metric."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (metric.dim,) or y.shape != (metric.dim,):
        raise InvalidParameterError("vector length does not match metric dimension")
    return float(x @ metric.g @ y)


def norm(metric: MetricState, x) -> float:
    return float(np.sqrt(inner(metric, x, x)))


def basis_vector(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim)
    e[i] = 1.0
    return e
