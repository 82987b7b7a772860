"""Connection and curvature of a left-invariant metric from structure constants.

The canonical Riemann/Ricci path works for any metric in any 2-step algebra;
the specialized diagonal formulas for H_n and Q_n are provided separately and
must agree with it.  The printed component formulas for the Riemann and Ricci
tensors (whose indices do not all balance) are evaluated literally and only
reported against the canonical values, never used as the source of truth.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Family, LieAlgebraSpec, MetricState, build_group
from .errors import DegenerateMetricError, InvalidParameterError, NotApplicableError


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Levi-Civita coefficients gamma[i, j, k] and adjoint coefficients a[i, j, k]."""

    gamma: np.ndarray
    adjoint: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    ricci: np.ndarray
    scalar: float


def _einsum(subscripts: str, *ops: np.ndarray) -> np.ndarray:
    """np.einsum along the optimal contraction order, searched once per (subscripts, shapes).

    Unoptimised, a 3-operand contraction such as ikm,jlp,mp->ijkl costs O(d^6);
    pairwise it costs O(d^5).  Only the order of the sums changes.  A pair has
    a single order, so it skips the path machinery and its per-call cost.
    """
    if len(ops) < 3:
        return np.einsum(subscripts, *ops)
    stages = _stages(subscripts, tuple(op.shape for op in ops))
    return np.einsum(subscripts, *ops, optimize=["einsum_path", *(pos for pos, _ in stages)])


@functools.lru_cache(maxsize=1024)
def _stages(subscripts: str, shapes: tuple) -> tuple:
    """The pairwise steps of ``_einsum(subscripts, ...)`` at these shapes, as (positions, subscripts).

    Each step pops the operands at ``positions`` from the operand list, in that
    order, and appends their contraction.
    """
    # einsum_path reads only the operands' shapes; zero-stride views allocate nothing
    dummies = [np.broadcast_to(0.0, shape) for shape in shapes]
    steps = np.einsum_path(subscripts, *dummies, optimize="optimal", einsum_call=True)[1]
    # numpy >= 2.3 lists (positions, subscripts, ...); older versions put the
    # removed indices between them
    return tuple((step[0], step[1] if isinstance(step[1], str) else step[2]) for step in steps)


def _join(subscripts: str, a: np.ndarray, b: np.ndarray) -> tuple:
    """The terms of ``np.einsum(subscripts, a, b)``, a contraction over one index, unsummed.

    Every nonzero entry of ``a`` times every nonzero entry of ``b`` with the
    same summed index.  Returns the output index of each product (one row per
    output subscript) and its value.
    """
    inputs, output = subscripts.split("->")
    left, right = inputs.split(",")
    (summed,) = set(left) & set(right)
    # b with the summed axis first, so its nonzero entries come sorted by it
    k = right.index(summed)
    b = b.transpose(k, *(i for i in range(b.ndim) if i != k))
    right = summed + right.replace(summed, "")
    at_a, at_b = np.nonzero(a), np.nonzero(b)
    # each entry of a, once per entry of b in the run of its summed index
    ma = at_a[left.index(summed)]
    count = np.bincount(at_b[0], minlength=len(b))
    reps = count[ma]
    pa = np.repeat(np.arange(len(ma)), reps)
    pb = np.repeat((count.cumsum() - count)[ma] - (reps.cumsum() - reps), reps) + np.arange(len(pa))
    at = np.array([at_a[left.index(x)][pa] if x in left else at_b[right.index(x)][pb]
                   for x in output])
    return at, a[at_a][pa] * b[at_b][pb]


def adjoint_coeffs(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """a[i, j, k] with (ad e_i)* e_j = a_ij^k e_k, i.e. a_ij^k = C_il^m g_jm g^kl."""
    c = spec.structure_dense
    return _einsum("ilm,jm,kl->ijk", c, metric.g, metric.inverse)


def christoffel(spec: LieAlgebraSpec, metric: MetricState) -> ConnectionCoeffs:
    """Connection via nabla_X Y = (1/2){(adX)Y - (adX)*Y - (adY)*X}."""
    a = adjoint_coeffs(spec, metric)
    gamma = 0.5 * (spec.structure_dense - a - a.transpose(1, 0, 2))
    return ConnectionCoeffs(gamma=gamma, adjoint=a)


# The d^4 tensors as data: rows of (product subscripts summed over (x, y, g),
# (x, y), uses), where a use is (sign, axes of the term in the product).  The
# terms are summed in this order, the first one scaled by its sign.
_RIEMANN = (  # R = t1 - t1^T - t3
    ("ikm,jlp,mp->ijkl", ("gamma", "gamma"), ((1.0, None), (-1.0, (1, 0, 2, 3)))),
    ("ijm,mkp,pl->ijkl", ("c", "gamma"), ((-1.0, None),)),
)
# The printed formula for 4 R_ijkl, summed term by term in its order.  Its first
# three terms are the one product C_ijp g_pq C_klq with permuted indices, and
# its last two a product of S, so each product is contracted once.  The fifth
# term repeats an index three times and is summed as written.
_LITERAL_RIEMANN = (
    ("ijp,klq,pq->ijkl", ("c", "c"), ((2.0, None), (1.0, (0, 2, 1, 3)), (-1.0, (0, 2, 3, 1)))),
    ("ijp,pkq,ql->ijkl", ("c", "c"), ((-1.0, None),)),
    ("ijp,plq,pk->ijkl", ("c", "c"), ((1.0, None),)),
    ("klp,piq,qj->ijkl", ("c", "c"), ((-1.0, None),)),
    ("klp,pjq,qi->ijkl", ("c", "c"), ((1.0, None),)),
    ("ikp,jlq,pq->ijkl", ("s", "s"), ((1.0, None), (-1.0, (0, 1, 3, 2)))),
)


def _dense(terms: tuple, x: dict, g: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` as a whole d^4 array."""
    total = None
    for subscripts, names, uses in terms:
        p = _einsum(subscripts, *(x[name] for name in names), g)
        for sign, axes in uses:
            term = p if axes is None else p.transpose(axes)
            if total is None:
                total = sign * term
            elif sign > 0:
                total += term
            else:
                total -= term
    return total


def _nonzero_terms(terms: tuple, x: dict, g: np.ndarray) -> tuple:
    """The nonzero entries of each of ``terms``, in their order: (flat d^4 indices, signed values).

    Each product's first pairwise step (``_stages``) is contracted whole, and its
    last step by :func:`_join`.  On a diagonal metric in H_n or Q_n every entry
    of each step has at most one nonzero term, so each value has the bits of
    the same entry in :func:`_dense`, and adding the values of an index in this
    order rounds as its sum does.
    """
    stride = g.shape[0] ** np.arange(3, -1, -1)
    indices, values = [], []
    for subscripts, names, uses in terms:
        operands = [*(x[name] for name in names), g]
        (first, step), (last, last_step) = _stages(subscripts, tuple(op.shape for op in operands))
        operands.append(np.einsum(step, *[operands.pop(i) for i in first]))
        at, value = _join(last_step, *[operands.pop(i) for i in last])
        for sign, axes in uses:
            indices.append(stride @ (at if axes is None else at[list(axes)]))
            values.append(sign * value)
    return np.concatenate(indices), np.concatenate(values)


def riemann(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Lowered tensor R_ijkl = <R(e_i, e_j)e_k, e_l>.

    Computed from <R(X,Y)Z,W> = <nabla_X Z, nabla_Y W> - <nabla_Y Z, nabla_X W>
    - <nabla_[X,Y] Z, W>, which for left-invariant fields is the curvature of
    the connection commutator: R = t1 - t1^T - t3.
    """
    x = {"c": spec.structure_dense, "gamma": christoffel(spec, metric).gamma}
    return _dense(_RIEMANN, x, metric.g)


def riemann_literal(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Literal evaluation of the printed component formula for 4 R_ijkl.

    One printed term repeats an index three times; it is summed as written.
    Report-only: compare against :func:`riemann`.
    """
    a = adjoint_coeffs(spec, metric)
    four_r = _dense(_LITERAL_RIEMANN, {"c": spec.structure_dense, "s": a + a.transpose(1, 0, 2)},
                    metric.g)
    four_r *= 0.25
    return four_r


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


# literal_discrepancy flags a deviation above this
_LITERAL_TOL = 1e-10


def _riemann_entries(spec: LieAlgebraSpec, metric: MetricState) -> tuple:
    """``(keys, r, four_r)``: :func:`riemann` and :func:`riemann_literal` at flat d^4 indices.

    For a diagonal ``metric`` the entries at ``keys`` are bit for bit those of
    the whole tensors, and every other entry of both is zero.  No d^4 array is
    built.
    """
    conn = christoffel(spec, metric)
    c, a = spec.structure_dense, conn.adjoint
    canonical = _nonzero_terms(_RIEMANN, {"c": c, "gamma": conn.gamma}, metric.g)
    literal = _nonzero_terms(_LITERAL_RIEMANN, {"c": c, "s": a + a.transpose(1, 0, 2)}, metric.g)
    keys, inverse = np.unique(np.concatenate([canonical[0], literal[0]]), return_inverse=True)
    # bincount adds each index's values in input order: the order of the terms
    split = len(canonical[0])
    r = np.bincount(inverse[:split], weights=canonical[1], minlength=len(keys))
    four_r = np.bincount(inverse[split:], weights=literal[1], minlength=len(keys))
    four_r *= 0.25
    return keys, r, four_r


def literal_discrepancy(spec: LieAlgebraSpec, metric: MetricState,
                        report: CurvatureReport | None = None):
    """Max |literal - canonical| for the printed Riemann and Ricci formulas, on a diagonal metric.

    The canonical Ricci matrix is that of ``report``, which must belong to
    ``metric``; without one, a :func:`curvature_report` is built.  Both Riemann
    tensors are taken from their nonzero entries only, which a metric with a
    nonzero off-diagonal entry does not keep sparse: it raises
    NotApplicableError.
    Returns (riemann_dev, ricci_dev, flagged).
    """
    g = metric.g
    if np.count_nonzero(g - np.diag(g.diagonal())):
        raise NotApplicableError("the literal-formula report needs a diagonal metric")
    if report is None:
        report = curvature_report(spec, metric)
    _, r, four_r = _riemann_entries(spec, metric)
    r_dev = float(np.abs(four_r - r).max(initial=0.0))
    ric_dev = float(np.abs(ricci_literal(spec, metric) - report.ricci).max())
    return r_dev, ric_dev, bool(max(r_dev, ric_dev) > _LITERAL_TOL)


def _scalar(metric: MetricState, ric: np.ndarray) -> float:
    return float(_einsum("ij,ij->", metric.inverse, ric))


def scalar_curvature(spec: LieAlgebraSpec, metric: MetricState) -> float:
    return _scalar(metric, ricci_general(spec, metric))


def _check_diag(diag, expected_len: int) -> list:
    """The entries of a diagonal metric as a list of floats, after one shape check and one pass."""
    values = np.asarray(diag, dtype=float)
    if values.shape != (expected_len,):
        raise InvalidParameterError(
            f"diagonal metric must have length {expected_len}, got {values.shape}"
        )
    values = values.tolist()
    for x in values:
        if not 0.0 < x < math.inf:  # a nan fails too
            if not all(map(math.isfinite, values)):
                raise InvalidParameterError("diagonal metric has a non-finite component")
            raise DegenerateMetricError("diagonal metric has a nonpositive component")
    return values


def _add_reduce(terms: list) -> float:
    """``np.add.reduce`` of a list of floats, bit for bit: numpy's order of additions.

    numpy adds fewer than 8 terms left to right, from 0.0.  Up to 128 terms,
    eight accumulators take every eighth term and are combined as a balanced
    tree, then the terms past the last multiple of 8 are added in order.  Above
    128, the terms are split at the multiple of 8 at or below the middle, and
    the halves' sums are added.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _add_reduce(terms[:half]) + _add_reduce(terms[half:])
    total, tail = 0.0, 0  # numpy's 0.0 start only turns a -0.0 sum into 0.0
    if n >= 8:
        tail = n - n % 8
        acc = terms[:8]
        for i in range(8, tail, 8):
            acc = [a + x for a, x in zip(acc, terms[i : i + 8])]
        total += ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for x in terms[tail:]:
        total += x
    return total


@functools.lru_cache(maxsize=256)
def _diag_kernel(family: Family, n: int):
    """The closed-form diagonal curvature of H_n or Q_n as one function of g.

    Built once per (family, n) on first use.  The returned ``kernel(g)`` takes a
    checked diagonal as a list of floats and gives ``(ricci_diag, scalar, sigma)``,
    with the Ricci diagonal as a list and sigma Sigma on H_n and
    (Sigma', Sigma_1, Sigma_2, Sigma_3) on Q_n, all from one evaluation of the
    sums.  Each value is computed by the same float operations, in the same
    order, as the block-slice formulas on arrays, with each sum in
    ``np.add.reduce``'s order, so the results are bitwise those formulas'.
    """
    spec = build_group(family, n)
    # the bracket table in its order: each V entry's (center, partner) pairs, each center's (i, j)
    partners = {i: [] for i in spec.complement_indices}
    brackets = {k: [] for k in spec.center_indices}
    for i, j, k, _ in spec.structure:
        partners[i].append((k, j))
        partners[j].append((k, i))
        brackets[k].append((i, j))
    if spec.family is Family.HEISENBERG:
        # Ric_i = -g_N / (2 g_j) for i's partner j, Ric_N = g_N^2 Sigma / 2, Sigma = sum 1/(g_i g_j)
        den = [j for pairs in partners.values() for _, j in pairs]
        (sigma_at,) = brackets.values()

        def kernel(g):
            g_n = g[2 * n]
            sigma = _add_reduce([1.0 / (g[a] * g[b]) for a, b in sigma_at])
            half = -0.5 * g_n
            r = [half / g[i] for i in den]
            r.append(0.5 * g_n**2 * sigma)
            return r, half * sigma, sigma

        kernel.dim = spec.dim
        return kernel

    # a V entry has Ric = -(z_a/v_p + z_b/v_q + z_c/v_r)/2 over its (center, partner) pairs,
    # summed left to right; ricci_at lists each entry's (z_a, v_p, z_b, v_q, z_c, v_r)
    ricci_at = [tuple(x for pair in pairs for x in pair) for pairs in partners.values()]
    # Sigma_k sums 1/(v_p v_q) + 1/(v_r v_s) over each copy's two consecutive brackets (p, q),
    # (r, s) into center k; sigma_at lists Sigma_1's n terms, then Sigma_2's and Sigma_3's
    sigma_at = [(*pq, *rs) for pairs in brackets.values()
                for pq, rs in zip(pairs[::2], pairs[1::2])]

    def kernel(g):
        r = [-0.5 * (g[za] / g[vp] + g[zb] / g[vq] + g[zc] / g[vr])
             for za, vp, zb, vq, zc, vr in ricci_at]
        t = [1.0 / (g[p] * g[q]) + 1.0 / (g[u] * g[w]) for p, q, u, w in sigma_at]
        s1, s2, s3 = _add_reduce(t[:n]), _add_reduce(t[n : 2 * n]), _add_reduce(t[2 * n :])
        z1, z2, z3 = g[4 * n :]
        sigma_prime = z1 * s1 + z2 * s2 + z3 * s3
        r += (0.5 * z1**2 * s1, 0.5 * z2**2 * s2, 0.5 * z3**2 * s3)
        return r, -0.5 * sigma_prime, (sigma_prime, s1, s2, s3)

    kernel.dim = spec.dim
    return kernel


def _diag_curvature(family: Family, metric_diag, n: int):
    """``(ricci_diag, scalar, sigma, g)`` of the kernel, with g the checked diagonal as floats.

    Python floats raise where IEEE arithmetic overflows to inf (``**``) or
    divides by zero (an underflowed product); there the kernel runs again on
    numpy scalars, which take the same operations to inf or nan with numpy's
    warnings, as the array formulas do.
    """
    kernel = _diag_kernel(family, n)
    g = _check_diag(metric_diag, kernel.dim)
    try:
        return (*kernel(g), g)
    except (OverflowError, ZeroDivisionError):
        r, scalar, sigma = kernel([np.float64(x) for x in g])
        sigma = tuple(map(float, sigma)) if isinstance(sigma, tuple) else float(sigma)
        return [float(x) for x in r], float(scalar), sigma, g


def sigma_heisenberg(metric_diag, n: int) -> float:
    """Sigma = sum_k 1/(g_k g_{n+k}) for a diagonal metric on H_n."""
    return _diag_curvature(Family.HEISENBERG, metric_diag, n)[2]


def sigma_quaternion(metric_diag, n: int):
    """(Sigma', Sigma_1, Sigma_2, Sigma_3) for a diagonal metric on Q_n."""
    return _diag_curvature(Family.QUATERNION, metric_diag, n)[2]


def ricci_specialized_diag(family: Family, metric_diag, n: int) -> np.ndarray:
    """Diagonal Ricci entries from the closed-form expressions for H_n / Q_n."""
    return np.array(_diag_curvature(family, metric_diag, n)[0])


def scalar_specialized(family: Family, metric_diag, n: int) -> float:
    """R = -(1/2) g_N Sigma on H_n, R = -(1/2) Sigma' on Q_n."""
    return _diag_curvature(family, metric_diag, n)[1]


def curvature_report(spec: LieAlgebraSpec, metric: MetricState) -> CurvatureReport:
    """Ricci matrix and scalar curvature of one metric, each built once; no d^4 tensor."""
    ric = ricci_general(spec, metric)
    return CurvatureReport(ricci=ric, scalar=_scalar(metric, ric))
