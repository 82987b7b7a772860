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
)

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
    # sigma'(0) = (X0, (1 + 2q) Z0) with q = |X0|^2 / (2 |Z0|^2)
    x0 = np.array([0.7, -0.2])
    z0 = np.array([0.0, 0.0, 1.3])
    data = make_geodesic_data(H1, ID3, x0, z0)
    q = data.x0_norm2 / (2.0 * data.z0_norm2)
    h = 1e-6
    xp, zp = geodesic_point(data, h)
    xm, zm = geodesic_point(data, -h)
    assert np.allclose((xp - xm) / (2 * h), x0, atol=1e-8)
    assert np.allclose((zp - zm) / (2 * h), (1.0 + 2.0 * q) * z0, atol=1e-8)


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
    data = make_geodesic_data(H1, ID3, [1.0, 0.0], [0.0, 0.0, 2.0], p_factor=0.25)
    assert data.theta == pytest.approx(1.0)  # sqrt(0.25) * 2


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
