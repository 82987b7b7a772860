"""Second routes to the connection and Riemann tensor, kept only to cross-check curvature.py."""
from __future__ import annotations

import numpy as np

from .algebra import LieAlgebraSpec, MetricState
from .curvature import _einsum, adjoint_coeffs


def christoffel_metric_components(spec: LieAlgebraSpec, metric: MetricState) -> np.ndarray:
    """Connection via gamma_ij^k = (1/2) g^kl (C_ij^m g_lm - C_il^m g_jm - C_jl^m g_im).

    Independent route; agrees with :func:`nilflow.curvature.christoffel` to machine precision.
    """
    c = spec.structure_dense
    g, ginv = metric.g, metric.inverse
    term = (
        _einsum("ijm,lm->ijl", c, g)
        - _einsum("ilm,jm->ijl", c, g)
        - _einsum("jlm,im->ijl", c, g)
    )
    return 0.5 * _einsum("kl,ijl->ijk", ginv, term)


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
