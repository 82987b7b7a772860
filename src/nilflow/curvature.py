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
    ricci: np.ndarray
    scalar: float


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


# The d^4 tensors are built in blocks of rows of their first index, each about
# this many bytes, so the literal-formula report holds O(d^3) memory.  A tensor
# that fits in one block (d <= 19) is contracted whole.  Smaller blocks mean
# more and smaller matrix products, which cost more per flop: 512 KB blocks
# made the curvature_ladder benchmark's pass about 40% slower (2-core x86 VM).
_BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=1024)
def _stages(subscripts: str, shapes: tuple) -> tuple:
    """The pairwise steps of ``_einsum(subscripts, ...)`` at these shapes, as (positions, subscripts).

    Each step pops the operands at ``positions`` from the operand list, in that
    order, and appends their contraction.
    """
    dummies = [np.broadcast_to(0.0, shape) for shape in shapes]
    steps = np.einsum_path(subscripts, *dummies, optimize="optimal", einsum_call=True)[1]
    # numpy >= 2.3 lists (positions, subscripts, ...); older versions put the
    # removed indices between them
    return tuple((step[0], step[1] if isinstance(step[1], str) else step[2]) for step in steps)


def _pairwise(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The step np.einsum makes for ``subscripts`` on (a, b).

    With the explicit path (0, 1), np.einsum pops its second operand first,
    so the pair goes in swapped to arrive as (a, b).
    """
    inputs, output = subscripts.split("->")
    left, right = inputs.split(",")
    return np.einsum(f"{right},{left}->{output}", b, a, optimize=["einsum_path", (0, 1)])


def _row_contraction(subscripts: str, *ops: np.ndarray):
    """``rows(index, block)``: the rows ``block`` of output ``index`` of ``_einsum(subscripts, *ops)``.

    ``block=None`` is the whole contraction, made by ``_einsum`` itself.  Otherwise
    the full-shape path is kept: its first pairwise step runs once, on the full
    operands, and only the last step sees sliced operands.  Each element then
    goes through the same float operations as in the whole contraction, so the
    blocks are bitwise its rows; a path searched for the sliced shapes can
    order the sums differently.
    """
    last = None

    def rows(index: str, block: slice | None) -> np.ndarray:
        nonlocal last
        if block is None:
            return _einsum(subscripts, *ops)
        if last is None:
            operands = list(ops)
            (first, step), (final, final_step) = _stages(subscripts,
                                                         tuple(op.shape for op in ops))
            operands.append(_pairwise(step, *[operands.pop(x) for x in first]))
            last = final_step, [operands.pop(x) for x in final]
        step, operands = last
        sliced = [op[(slice(None),) * term.index(index) + (block,)] if index in term else op
                  for term, op in zip(step.split("->")[0].split(","), operands)]
        return _pairwise(step, *sliced)

    return rows


def _blocks(lo: int, hi: int, size: int) -> list:
    return [slice(i, min(i + size, hi)) for i in range(lo, hi, size)]


def _row_blocks(dim: int) -> list:
    """Slices of the first index, each of about _BLOCK_BYTES of a d^4 tensor; [None] if one fits."""
    size = max(1, _BLOCK_BYTES // (8 * dim**3))
    return [None] if size >= dim else _blocks(0, dim, size)


def adjoint_coeffs(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """a[i, j, k] with (ad e_i)* e_j = a_ij^k e_k, i.e. a_ij^k = C_il^m g_jm g^kl."""
    c = spec.structure_dense
    return _einsum("ilm,jm,kl->ijk", c, metric.g, metric.inverse)


def christoffel(spec: LieAlgebraSpec, metric: MetricState) -> ConnectionCoeffs:
    """Connection via nabla_X Y = (1/2){(adX)Y - (adX)*Y - (adY)*X}."""
    a = adjoint_coeffs(spec, metric)
    gamma = 0.5 * (spec.structure_dense - a - a.transpose(1, 0, 2))
    return ConnectionCoeffs(gamma=gamma, adjoint=a)


def _riemann_rows(spec: LieAlgebraSpec, metric: MetricState, gamma: np.ndarray):
    """``rows(block)``: rows ``block`` of the first index of :func:`riemann` (None: all)."""
    c = spec.structure_dense
    g = metric.g
    t1 = _row_contraction("ikm,jlp,mp->ijkl", gamma, gamma, g)
    t3 = _row_contraction("ijm,mkp,pl->ijkl", c, gamma, g)

    def rows(block: slice | None = None) -> np.ndarray:
        if block is None:  # t1 once, and its transpose
            t = t1("i", None)
            r = t - t.transpose(1, 0, 2, 3)
        else:
            r = t1("i", block)
            r -= t1("j", block).transpose(1, 0, 2, 3)
        r -= t3("i", block)
        return r

    return rows


def riemann(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Lowered tensor R_ijkl = <R(e_i, e_j)e_k, e_l>.

    Computed from <R(X,Y)Z,W> = <nabla_X Z, nabla_Y W> - <nabla_Y Z, nabla_X W>
    - <nabla_[X,Y] Z, W>, which for left-invariant fields is the curvature of
    the connection commutator: R = t1 - t1^T - t3.
    """
    return _riemann_rows(spec, metric, christoffel(spec, metric).gamma)()


# The printed formula for 4 R_ijkl, summed term by term in its order.  Its first
# three terms are the one product C_ijp g_pq C_klq with permuted indices, and
# its last two a product of S, so each product is contracted once.  Rows of
# (product subscripts summed over (x, x, g), x, uses); a use is (sign, axes of
# the term in the product).  The fifth term repeats an index three times and is
# summed as written.
_LITERAL_RIEMANN = (
    ("ijp,klq,pq->ijkl", "c", ((2.0, None), (1.0, (0, 2, 1, 3)), (-1.0, (0, 2, 3, 1)))),
    ("ijp,pkq,ql->ijkl", "c", ((-1.0, None),)),
    ("ijp,plq,pk->ijkl", "c", ((1.0, None),)),
    ("klp,piq,qj->ijkl", "c", ((-1.0, None),)),
    ("klp,pjq,qi->ijkl", "c", ((1.0, None),)),
    ("ikp,jlq,pq->ijkl", "s", ((1.0, None), (-1.0, (0, 1, 3, 2)))),
)


def _literal_rows(spec: LieAlgebraSpec, metric: MetricState, adjoint: np.ndarray):
    """``rows(block)``: rows ``block`` of the first index of :func:`riemann_literal` (None: all)."""
    x = {"c": spec.structure_dense, "s": adjoint + adjoint.transpose(1, 0, 2)}
    products = [(_row_contraction(subscripts, x[name], x[name], metric.g), uses)
                for subscripts, name, uses in _LITERAL_RIEMANN]

    def rows(block: slice | None = None) -> np.ndarray:
        four_r = None
        for product, uses in products:
            p = product("i", block)
            for sign, axes in uses:
                term = p if axes is None else p.transpose(axes)
                if four_r is None:
                    four_r = sign * term
                elif sign > 0:
                    four_r += term
                else:
                    four_r -= term
            del p, term  # freed before the next product: at most two blocks are live
        four_r *= 0.25
        return four_r

    return rows


def riemann_literal(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Literal evaluation of the printed component formula for 4 R_ijkl.

    One printed term repeats an index three times; it is summed as written.
    Report-only: compare against :func:`riemann`.
    """
    return _literal_rows(spec, metric, adjoint_coeffs(spec, metric))()


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

    The canonical Ricci matrix is that of ``report``, which must belong to
    ``metric``; without one, a :func:`curvature_report` is built.  Both Riemann
    tensors are taken a block of first-index rows at a time (_BLOCK_BYTES), so
    the memory held is O(d^3).
    Returns (riemann_dev, ricci_dev, flagged).
    """
    if report is None:
        report = curvature_report(spec, metric)
    conn = christoffel(spec, metric)
    canonical = _riemann_rows(spec, metric, conn.gamma)
    literal = _literal_rows(spec, metric, conn.adjoint)
    del conn  # the kernels keep what they use; the adjoint is freed

    def block_dev(block: slice | None) -> float:
        dev = literal(block)
        if block is None:
            dev -= canonical(None)
        else:  # the canonical rows in two halves: at most two blocks' bytes are live
            lo, hi = block.start, block.stop
            for rows in _blocks(lo, hi, (hi - lo + 1) // 2):
                dev[rows.start - lo : rows.stop - lo] -= canonical(rows)
        return np.abs(dev, out=dev).max()

    r_dev = float(np.max([block_dev(block) for block in _row_blocks(spec.dim)]))
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


def scalar_specialized(family: Family, metric_diag, n: int) -> float:
    """R = -(1/2) g_N Sigma on H_n, R = -(1/2) Sigma' on Q_n."""
    return _diag_curvature(family, metric_diag, n)[1]


def curvature_report(spec: LieAlgebraSpec, metric: MetricState) -> CurvatureReport:
    """Ricci matrix and scalar curvature of one metric, each built once; no d^4 tensor."""
    ric = ricci_general(spec, metric)
    return CurvatureReport(ricci=ric, scalar=_scalar(metric, ric))
