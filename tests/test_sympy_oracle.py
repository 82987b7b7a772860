"""Exact oracle: the closed-form solutions and the conserved quantities, in sympy.

The right-hand side is built here exactly, from the integer structure
constants and the Ricci tensor of a nilpotent metric Lie algebra in the
orthonormal basis f_i = e_i / sqrt(g_i):

    Ric(f_k, f_k) = -1/2 sum_{i,m} <[f_k, f_i], f_m>^2 + 1/4 sum_{i,j} <[f_i, f_j], f_k>^2,

so that dg_k/dt = -2 g_k Ric(f_k, f_k) + 2 rho R g_k with R = sum_k Ric(f_k, f_k).
It is tied to ``rhs_diagonal`` at a rational point; then sympy shows that
``closed_form`` solves it and that each invariant of ``conserved_quantities``
has zero time derivative along it, at rational rho.
"""
from fractions import Fraction

import numpy as np
import pytest

from nilflow import Family, build_group, closed_form, conserved_quantities, rhs_diagonal
from nilflow.flow import closed_form_coeffs

sp = pytest.importorskip("sympy")

# (family, n, rho, admissible g0): H_n needs g_i g_{n+i} constant, Q_n equal
# vector and equal center entries; every entry is exact in binary
CASES = [
    (Family.HEISENBERG, 1, Fraction(-1, 4), (2.0, 3.0, 5.0)),
    (Family.HEISENBERG, 1, Fraction(1, 8), (1.5, 0.5, 2.0)),
    (Family.HEISENBERG, 2, Fraction(-1, 2), (1.0, 2.0, 4.0, 2.0, 3.0)),
    (Family.HEISENBERG, 2, Fraction(0), (0.5, 4.0, 2.0, 0.25, 1.5)),
    (Family.QUATERNION, 1, Fraction(-1, 4), (1.5,) * 4 + (1.25,) * 3),
    (Family.QUATERNION, 1, Fraction(1, 16), (0.75,) * 4 + (2.0,) * 3),
]
IDS = [f"{family.value}{n}-rho{rho}" for family, n, rho, _ in CASES]


def simplified(expr):
    return sp.simplify(sp.powsimp(sp.powdenest(expr, force=True), force=True))


def exact_rhs(family: Family, n: int, rho, g: list) -> list:
    """dg/dt of the Ricci-Bourguignon flow for the diagonal metric g, exactly."""
    c = build_group(family, n).structure_dense
    dim = len(g)
    nonzero = [(i, j, m, int(c[i, j, m])) for i, j, m in zip(*np.nonzero(c))]
    assert all(float(k) == c[i, j, m] for i, j, m, k in nonzero)  # integer constants
    ric = [sp.Integer(0)] * dim  # Ric(f_k, f_k)
    for i, j, m, k in nonzero:
        ric[i] -= sp.Rational(1, 2) * k**2 * g[m] / (g[i] * g[j])
        ric[m] += sp.Rational(1, 4) * k**2 * g[m] / (g[i] * g[j])
    scalar = sum(ric)
    return [-2 * g[k] * ric[k] + 2 * rho * scalar * g[k] for k in range(dim)]


def exact(x: float):
    """x as a fraction with denominator at most 10^6, which must lie within 1e-15 of x."""
    r = Fraction(x).limit_denominator(10**6)
    assert abs(float(r) - x) <= 1e-15 * abs(x)
    return sp.Rational(r.numerator, r.denominator)


@pytest.mark.parametrize("family, n, rho, g0", CASES, ids=IDS)
def test_exact_rhs_is_rhs_diagonal(family, n, rho, g0):
    rng = np.random.default_rng(n)
    g = [exact(float(x)) for x in np.round(rng.uniform(0.5, 2.0, len(g0)) * 64) / 64]
    want = [float(v) for v in exact_rhs(family, n, sp.Rational(rho.numerator, rho.denominator), g)]
    got = rhs_diagonal(family, [float(x) for x in g], n, float(rho))
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("family, n, rho, g0", CASES, ids=IDS)
def test_closed_form_solves_the_flow_exactly(family, n, rho, g0):
    t = sp.Symbol("t", positive=True)
    rho_q = sp.Rational(rho.numerator, rho.denominator)
    coeffs = closed_form_coeffs(family, g0, n, float(rho))
    base = 1 + exact(coeffs.b_or_c) * t
    split = 2 * n if family is Family.HEISENBERG else 4 * n
    g = [exact(x) * base ** exact(coeffs.vector_exponent if k < split else coeffs.center_exponent)
         for k, x in enumerate(g0)]
    for when in (0.1, 0.7):  # the symbolic solution is the one closed_form evaluates
        want = [float(x.subs(t, sp.Rational(str(when)))) for x in g]
        assert np.allclose(closed_form(family, g0, n, float(rho), when), want,
                           rtol=1e-13, atol=0.0)
    rhs = exact_rhs(family, n, rho_q, g)
    for g_k, rhs_k in zip(g, rhs):
        assert simplified(sp.diff(g_k, t) - rhs_k) == 0


@pytest.mark.parametrize("family, n, rho, g0", CASES, ids=IDS)
def test_invariants_are_conserved_exactly(family, n, rho, g0):
    # for every diagonal metric, not only along the closed-form solutions
    rho_q = sp.Rational(rho.numerator, rho.denominator)
    g = list(sp.symbols(f"g0:{len(g0)}", positive=True))
    if family is Family.HEISENBERG:
        invariants = {f"ratio_{i + 1}": g[i] / g[n + i] for i in range(n)}
        invariants["product"] = sp.Mul(*g[:n]) * g[2 * n] ** ((1 - n * rho_q) / (1 + rho_q))
    else:
        invariants = {"product": sp.Mul(*g[: 4 * n])
                      * sp.Mul(*g[4 * n :]) ** (2 * (1 - 2 * n * rho_q) / (1 + 3 * rho_q))}
    # the invariants conserved_quantities computes
    point = {x: exact(v) for x, v in zip(g, g0)}
    computed = conserved_quantities(family, n, float(rho), g0)
    assert computed.keys() == invariants.keys()
    for name, invariant in invariants.items():
        assert np.isclose(computed[name], float(invariant.subs(point)), rtol=1e-13, atol=0.0)
    rhs = exact_rhs(family, n, rho_q, g)
    for invariant in invariants.values():
        derivative = sum(sp.diff(invariant, x) * rhs_x for x, rhs_x in zip(g, rhs))
        assert simplified(derivative) == 0
