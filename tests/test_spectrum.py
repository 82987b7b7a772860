import math

import numpy as np
import pytest

from nilflow import (
    Family,
    InvalidParameterError,
    MetricState,
    NotApplicableError,
    PeriodSet,
    build_group,
    central_periods,
    closed_form,
    geodesic_point,
    length_scaling_factors,
    length_spectrum_witness,
    make_geodesic_data,
    noncentral_period,
    theoretical_p_factor,
)
from nilflow.spectrum import _v_norm

H1 = build_group(Family.HEISENBERG, 1)
ID3 = MetricState.from_diag(np.ones(3))


# --- geodesics -----------------------------------------------------------

def test_geodesic_h1_example():
    # X0 = e1, Z0 = e3 on the identity metric: at s = pi the horizontal part
    # is exactly 2 e2 and the central part is (3 pi / 2) e3
    data = make_geodesic_data(H1, ID3, [1.0, 0.0], [0.0, 0.0, 1.0])
    assert data.theta == pytest.approx(1.0)
    x, z = geodesic_point(data, math.pi)
    assert np.allclose(x, [0.0, 2.0], atol=1e-14)
    assert np.allclose(z, [0.0, 0.0, 1.5 * math.pi], atol=1e-14)


def test_geodesic_starts_at_origin():
    data = make_geodesic_data(H1, ID3, [0.3, -0.4], [0.0, 0.0, 2.0])
    x, z = geodesic_point(data, 0.0)
    assert np.allclose(x, 0.0, atol=1e-15)
    assert np.allclose(z, 0.0, atol=1e-15)


def test_geodesic_initial_velocity():
    # sigma'(0) = X0 + Z0: d exp at 0 is the identity
    x0 = np.array([0.7, -0.2])
    z0 = np.array([0.0, 0.0, 1.3])
    data = make_geodesic_data(H1, ID3, x0, z0)
    h = 1e-6
    xp, zp = geodesic_point(data, h)
    xm, zm = geodesic_point(data, -h)
    assert np.allclose((xp - xm) / (2 * h), x0, atol=1e-8)
    assert np.allclose((zp - zm) / (2 * h), z0, atol=1e-8)


def test_geodesic_horizontal_period():
    # the horizontal part closes up after s = 2 pi / theta
    data = make_geodesic_data(H1, ID3, [1.0, 0.5], [0.0, 0.0, 2.0])
    x, _ = geodesic_point(data, 2.0 * math.pi / data.theta)
    assert np.allclose(x, 0.0, atol=1e-12)


def test_geodesic_pure_center():
    # X0 = 0: the horizontal part stays at the origin and Z grows linearly
    data = make_geodesic_data(H1, ID3, [0.0, 0.0], [0.0, 0.0, 1.0])
    x, z = geodesic_point(data, 2.5)
    assert np.allclose(x, 0.0, atol=1e-15)
    assert np.allclose(z, [0.0, 0.0, 2.5], atol=1e-14)


def test_geodesic_needs_central_part():
    with pytest.raises(NotApplicableError):
        make_geodesic_data(H1, ID3, [1.0, 0.0], np.zeros(3))


def test_geodesic_with_degradation_factor():
    # theta is read off j(Z0) on the metric: on the exact flow from the identity,
    # theta^2 = p(t) |Z0|_t^2
    for family, n, x0 in ((Family.HEISENBERG, 1, [1.0, 0.0]),
                          (Family.QUATERNION, 1, [0.3, -1.0, 0.2, 0.5])):
        spec = build_group(family, n)
        for rho, t in ((0.0, 1.0), (-0.25, 2.0)):
            metric = MetricState.from_diag(closed_form(family, np.ones(spec.dim), n, rho, t))
            z0 = np.zeros(spec.dim)
            z0[spec.center_array] = np.arange(1.0, spec.dim_z + 1.0)
            data = make_geodesic_data(spec, metric, x0, z0)
            p = theoretical_p_factor(family, n, rho, t)
            assert data.theta**2 == pytest.approx(p * data.z0_norm2, rel=1e-12)


def test_geodesic_needs_x0_in_one_eigenspace():
    # on H2 (1, 2, 1, 1, 3) j(e5)^2 is -9 on span(e1, e3) and -9/2 on span(e2, e4)
    spec = build_group(Family.HEISENBERG, 2)
    metric = MetricState.from_diag([1.0, 2.0, 1.0, 1.0, 3.0])
    z0 = [0.0, 0.0, 0.0, 0.0, 1.0]
    with pytest.raises(NotApplicableError, match="eigenspace"):
        make_geodesic_data(spec, metric, [1.0, 1.0, 0.0, 0.0], z0)
    assert make_geodesic_data(spec, metric, [1.0, 0.0, 0.5, 0.0], z0).theta == 3.0


def test_geodesic_needs_the_bracket_on_the_line_of_z0():
    # on Q1 with center (1, 2, 3), j(Z)^2 is scalar but [j(Z)X, X] leaves the line of Z
    spec = build_group(Family.QUATERNION, 1)
    metric = MetricState.from_diag([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
    with pytest.raises(NotApplicableError, match="line of Z0"):
        make_geodesic_data(spec, metric, [1.0, 0.0, 0.0, 0.0], [0, 0, 0, 0, 1.0, 1.0, 0])


def geodesic_ode(spec, data, s_end, steps, samples):
    """RK4 of x' = X, X' = j(Z0) X, z' = Z0 + [x, x']/2 from the identity: the geodesic
    with velocity X0 + Z0 in exponential coordinates.  (x, z) at ``samples`` equal
    steps up to ``s_end``, z in center coordinates."""
    dv, c = spec.dim_v, spec.center_array
    block = spec.structure_vv[:, :, c].reshape(dv, -1)  # [x, y] = (x @ block) reshaped, times y

    def rhs(y):
        x, v = y[:dv], y[dv : 2 * dv]
        br = (x @ block).reshape(dv, -1).T @ v
        return np.concatenate([v, data.j @ v, data.z0[c] + 0.5 * br])

    y = np.concatenate([np.zeros(dv), data.x0, np.zeros(len(c))])
    h = s_end / steps
    out = []
    for step in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % (steps // samples) == 0:
            out.append((step * h, y[:dv], y[2 * dv :]))
    return out


def _admissible(family, n, rng):
    if family is Family.HEISENBERG:
        a = rng.uniform(0.5, 2.0, n)
        return np.concatenate([a, 1.5 / a, [rng.uniform(0.5, 2.0)]])
    return np.repeat(rng.uniform(0.5, 2.0, 2), [4 * n, 3])


@pytest.mark.parametrize("family,n", [(Family.HEISENBERG, 1), (Family.HEISENBERG, 2),
                                      (Family.QUATERNION, 1)])
@pytest.mark.parametrize("kind", ["identity", "admissible", "flowed"])
def test_geodesic_meets_the_geodesic_equation(family, n, kind):
    spec = build_group(family, n)
    rng = np.random.default_rng([spec.dim, len(kind)])
    g0 = np.ones(spec.dim) if kind == "identity" else _admissible(family, n, rng)
    if kind == "flowed":
        g0 = closed_form(family, g0, n, -0.25, 1.5)
    z0 = np.zeros(spec.dim)
    z0[spec.center_array] = rng.standard_normal(spec.dim_z)
    data = make_geodesic_data(spec, MetricState.from_diag(g0), rng.standard_normal(spec.dim_v), z0)
    coarse, fine = (geodesic_ode(spec, data, 2.5, steps, 5) for steps in (1000, 2000))
    for (s, x_c, z_c), (_, x, z) in zip(coarse, fine):
        # step halving: RK4's error falls 16-fold, so the fine run is within |fine - coarse| / 15
        assert max(np.abs(x - x_c).max(), np.abs(z - z_c).max()) / 15.0 < 1e-11
        x_f, z_f = geodesic_point(data, s)
        assert np.abs(x_f - x).max() <= 1e-10
        assert np.abs(z_f[spec.center_array] - z).max() <= 1e-10


# --- central periods -----------------------------------------------------

def test_central_periods_pi():
    ps = central_periods(math.pi)
    assert ps.as_set == pytest.approx((math.pi,))


def test_central_periods_two_pi_collapses():
    # k = 1 contributes sqrt(4 pi (2 pi - pi)) = 2 pi, so the set is {2 pi}
    ps = central_periods(2.0 * math.pi)
    assert len(ps.values) == 2
    assert ps.as_set == pytest.approx((2.0 * math.pi,))


def test_central_periods_four_pi():
    ps = central_periods(4.0 * math.pi)
    assert ps.as_set == pytest.approx((2.0 * math.sqrt(3.0) * math.pi, 4.0 * math.pi))


def test_central_periods_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        central_periods(0.0)


# 2 pi (10**6 + 1) itself rounds to floor(|Z*|/(2 pi)) = 10**6; the half step lands on 10**6 + 1
@pytest.mark.parametrize("z_norm", [math.inf, math.nan, 2.0 * math.pi * (10**6 + 1.5)])
def test_central_periods_rejects_non_finite_or_too_many_periods(z_norm):
    with pytest.raises(InvalidParameterError, match="central element norm"):
        central_periods(z_norm)


def test_period_set_dedup():
    ps = PeriodSet(values=(2.0, 1.0, 2.0 + 1e-15))
    assert ps.as_set == (1.0, 2.0)


# --- length scaling along the flow ---------------------------------------

def test_length_scaling_h1():
    vec, cen = length_scaling_factors(Family.HEISENBERG, 1, 0.0, np.ones(3), 1.0)
    assert vec == pytest.approx(4.0 ** (1 / 3), rel=1e-14)
    assert cen == pytest.approx(4.0 ** (-1 / 3), rel=1e-14)


def test_length_scaling_q1():
    vec, cen = length_scaling_factors(Family.QUATERNION, 1, 0.0, np.ones(7), 1.0)
    assert vec == pytest.approx(9.0 ** (3 / 8), rel=1e-14)
    assert cen == pytest.approx(9.0 ** (-1 / 4), rel=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_length_scaling_rejects_non_finite_t(bad):
    with pytest.raises(InvalidParameterError, match="t must be finite"):
        length_scaling_factors(Family.HEISENBERG, 1, 0.0, np.ones(3), bad)


def test_length_scaling_matches_closed_form():
    g0 = np.ones(5)
    for t in (0.0, 0.5, 2.0):
        vec, cen = length_scaling_factors(Family.HEISENBERG, 2, -0.3, g0, t)
        g_t = closed_form(Family.HEISENBERG, g0, 2, -0.3, t)
        assert np.allclose(g_t[:4], vec, rtol=1e-13)
        assert g_t[4] == pytest.approx(cen, rel=1e-13)


# --- noncentral periods and the witness ----------------------------------

def test_noncentral_period_examples():
    p = noncentral_period(Family.HEISENBERG, 1, 0.0, np.ones(3), 1.0, [1.0, 0.0])
    assert p == pytest.approx(4.0 ** (1 / 6), rel=1e-14)
    q = noncentral_period(Family.QUATERNION, 1, 0.0, np.ones(7), 1.0,
                          [1.0, 0.0, 0.0, 0.0])
    assert q == pytest.approx(9.0 ** (3 / 16), rel=1e-14)


def test_noncentral_period_validation():
    with pytest.raises(InvalidParameterError):
        noncentral_period(Family.HEISENBERG, 1, 0.0, np.ones(3), 1.0, [0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        noncentral_period(Family.HEISENBERG, 1, 0.0, np.ones(3), 1.0, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("v_star", [np.zeros(2), np.zeros(1), np.ones(5)])
def test_witness_checks_v_star_as_noncentral_period_does(v_star):
    for check in (noncentral_period, length_spectrum_witness):
        with pytest.raises(InvalidParameterError, match="V\\*"):
            check(Family.HEISENBERG, 1, 0.0, np.ones(3), 1.0, v_star)


@pytest.mark.parametrize("v_star,norm", [([5e-324, 0.0], 5e-324), ([1e-170, 0.0], 1e-170),
                                         ([1e160, 1e160], math.sqrt(2.0) * 1e160)])
def test_norms_neither_underflow_nor_overflow(v_star, norm):
    # |V*|_1 on the H1 flow from the identity at rho = 0 is 4^(1/6) |V*|_0
    period = noncentral_period(Family.HEISENBERG, 1, 0.0, np.ones(3), 1.0, v_star)
    assert period == pytest.approx(4.0 ** (1 / 6) * norm, rel=1e-15, abs=5e-324)
    out = length_spectrum_witness(Family.HEISENBERG, 1, 0.0, np.ones(3), 1.0, v_star)
    assert out["norm_v0"] == pytest.approx(norm, rel=1e-15)
    assert out["abs_error"] <= 1e-15 * norm


def test_v_norm_is_bitwise_the_plain_sum_in_range():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        dim = rng.integers(1, 13)
        v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-100, 100)
        g = rng.uniform(0.1, 10.0, dim)
        assert _v_norm(v, g) == float(np.sqrt(np.sum(v**2 * g)))


def test_witness_restores_initial_norm():
    rng = np.random.default_rng(21)
    for family, n in ((Family.HEISENBERG, 2), (Family.QUATERNION, 1)):
        dim_v = 4
        for rho in (-0.5, 0.0):
            for t in (0.5, 1.0, 2.0):
                v = rng.standard_normal(dim_v)
                g0 = np.ones(5 if family is Family.HEISENBERG else 7)
                out = length_spectrum_witness(family, n, rho, g0, t, v)
                assert out["abs_error"] < 1e-12
                # flowed norm of the original element grows by sqrt(vector factor)
                vec, _ = length_scaling_factors(family, n, rho, g0, t)
                norm_v_t = noncentral_period(family, n, rho, g0, t, v)
                assert norm_v_t == pytest.approx(out["norm_v0"] * math.sqrt(vec),
                                                 rel=1e-12)
