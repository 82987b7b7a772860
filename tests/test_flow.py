import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import (
    DegenerateMetricError,
    Family,
    FlowParams,
    InvalidParameterError,
    MetricState,
    NotApplicableError,
    OutOfDomainError,
    SingularExponentError,
    TerminationReason,
    Trajectory,
    build_group,
    center_growth_bound,
    closed_form,
    closed_form_coeffs,
    conserved_quantities,
    integrate,
    rb_rhs_general,
    rhs_diagonal,
    ricci_specialized_diag,
    scalar_specialized,
)
from nilflow.algebra import family_dim
from nilflow.checks import TOLERANCE, closed_form_error


# --- right-hand sides ----------------------------------------------------

def test_rb_rhs_general_examples():
    spec = build_group(Family.HEISENBERG, 1)
    m = MetricState.from_diag(np.ones(3))
    assert np.allclose(rb_rhs_general(spec, m, 0.0), np.diag([1.0, 1.0, -1.0]), atol=1e-13)
    assert np.allclose(rb_rhs_general(spec, m, 0.1), np.diag([0.9, 0.9, -1.1]), atol=1e-13)


def test_rhs_diagonal_examples():
    assert np.allclose(rhs_diagonal(Family.HEISENBERG, np.ones(3), 1, 0.0), [1, 1, -1])
    assert np.allclose(rhs_diagonal(Family.HEISENBERG, np.ones(3), 1, 0.1), [0.9, 0.9, -1.1])
    assert np.allclose(rhs_diagonal(Family.QUATERNION, np.ones(7), 1, 0.0),
                       [3, 3, 3, 3, -2, -2, -2])


def test_rhs_diagonal_matches_general():
    rng = np.random.default_rng(0)
    for family, n in ((Family.HEISENBERG, 2), (Family.QUATERNION, 1)):
        spec = build_group(family, n)
        d = rng.uniform(0.5, 2.0, family_dim(family, n))
        general = np.diag(rb_rhs_general(spec, MetricState.from_diag(d), 0.07))
        assert np.abs(general - rhs_diagonal(family, d, n, 0.07)).max() < 1e-12


def test_rho_zero_reduction_is_bitwise():
    rng = np.random.default_rng(1)
    for family, n in ((Family.HEISENBERG, 3), (Family.QUATERNION, 2)):
        d = rng.uniform(0.5, 2.0, family_dim(family, n))
        rhs = rhs_diagonal(family, d, n, 0.0)
        assert np.all(rhs == -2.0 * ricci_specialized_diag(family, d, n))


def test_rhs_rejects_nonpositive_component():
    with pytest.raises(DegenerateMetricError):
        rhs_diagonal(Family.HEISENBERG, np.array([1.0, 0.0, 1.0]), 1, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rhs_rejects_non_finite_component(bad):
    with pytest.raises(InvalidParameterError):
        rhs_diagonal(Family.HEISENBERG, np.array([1.0, bad, 1.0]), 1, 0.0)


def slice_formulas(family, g, n):
    """Diagonal Ricci and scalar by block slices, as the closed forms are printed.

    The same float operations in the same order as the library's gathered
    kernel, so the two must agree bit for bit.
    """
    r = np.empty_like(g)
    if family is Family.HEISENBERG:
        g_n = g[2 * n]
        r[:n] = -0.5 * g_n / g[n : 2 * n]
        r[n : 2 * n] = -0.5 * g_n / g[:n]
        sigma = float(np.sum(1.0 / (g[:n] * g[n : 2 * n])))
        r[2 * n] = 0.5 * g_n**2 * sigma
        return r, -0.5 * float(g_n) * sigma
    z1, z2, z3 = g[4 * n], g[4 * n + 1], g[4 * n + 2]
    v1, v2, v3, v4 = g[:n], g[n : 2 * n], g[2 * n : 3 * n], g[3 * n : 4 * n]
    r[:n] = -0.5 * (z1 / v2 + z3 / v3 + z2 / v4)
    r[n : 2 * n] = -0.5 * (z1 / v1 + z2 / v3 + z3 / v4)
    r[2 * n : 3 * n] = -0.5 * (z3 / v1 + z2 / v2 + z1 / v4)
    r[3 * n : 4 * n] = -0.5 * (z2 / v1 + z3 / v2 + z1 / v3)
    s1 = float(np.sum(1.0 / (v1 * v2) + 1.0 / (v3 * v4)))
    s2 = float(np.sum(1.0 / (v1 * v4) + 1.0 / (v2 * v3)))
    s3 = float(np.sum(1.0 / (v1 * v3) + 1.0 / (v2 * v4)))
    r[4 * n] = 0.5 * z1**2 * s1
    r[4 * n + 1] = 0.5 * z2**2 * s2
    r[4 * n + 2] = 0.5 * z3**2 * s3
    return r, -0.5 * float(z1 * s1 + z2 * s2 + z3 * s3)


@st.composite
def diagonal_cases(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, 12))
    d = family_dim(family, n)
    g = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=d, max_size=d)))
    return family, n, g, draw(st.floats(-1.0, 0.1))


@settings(max_examples=150, deadline=None)
@given(diagonal_cases())
def test_rhs_is_bitwise_the_specialized_terms(case):
    family, n, g, rho = case
    rhs = rhs_diagonal(family, g, n, rho)
    ric = ricci_specialized_diag(family, g, n)
    scal = scalar_specialized(family, g, n)
    assert rhs.tobytes() == (-2.0 * ric + (2.0 * rho * scal) * g).tobytes()
    slice_ric, slice_scal = slice_formulas(family, g, n)
    assert ric.tobytes() == slice_ric.tobytes()
    assert scal == slice_scal
    if n <= 3:
        general = np.diag(rb_rhs_general(build_group(family, n), MetricState.from_diag(g), rho))
        # entries reach ~2e3 on this domain, where one ulp is 2.3e-13
        assert np.abs(general - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


# --- integrator ----------------------------------------------------------

def test_integrate_h1_matches_closed_form_value():
    params = FlowParams(Family.HEISENBERG, 1, rho=0.0, dt=1e-3, t_end=1.0)
    traj = integrate(params, np.ones(3))
    assert traj.terminated_reason is TerminationReason.HORIZON
    assert traj.final_state()[0] == pytest.approx(4.0 ** (1 / 3), abs=1e-8)


def test_integrate_q1_center_matches_closed_form_value():
    params = FlowParams(Family.QUATERNION, 1, rho=0.0, dt=1e-3, t_end=1.0)
    traj = integrate(params, np.ones(7))
    assert traj.final_state()[-1] == pytest.approx(9.0 ** (-1 / 4), abs=1e-8)


def test_integrate_zero_horizon():
    params = FlowParams(Family.HEISENBERG, 1, rho=0.0, dt=1e-3, t_end=0.0)
    traj = integrate(params, np.array([1.0, 2.0, 3.0]))
    assert len(traj.times) == 1
    assert np.all(traj.states[0] == [1.0, 2.0, 3.0])


def test_integrate_rejects_bad_g0():
    params = FlowParams(Family.HEISENBERG, 1)
    with pytest.raises(InvalidParameterError):
        integrate(params, np.ones(4))
    with pytest.raises(DegenerateMetricError):
        integrate(params, np.array([1.0, 1.0, -1.0]))


def test_integrate_rejects_non_finite_g0():
    params = FlowParams(Family.HEISENBERG, 1)
    with pytest.raises(InvalidParameterError):
        integrate(params, np.array([1.0, np.nan, 1.0]))


def test_flow_params_validation():
    with pytest.raises(InvalidParameterError):
        FlowParams(Family.HEISENBERG, 1, dt=0.0)
    with pytest.raises(InvalidParameterError):
        FlowParams(Family.HEISENBERG, 1, dt=2.0, t_end=1.0)
    with pytest.warns(UserWarning):
        FlowParams(Family.HEISENBERG, 1, rho=0.5)


@pytest.mark.parametrize("t_end,dt", [(1.0, 0.3), (2.0, 0.15), (1.0, 1e-3 * 1.5)])
def test_flow_params_rejects_partial_last_step(t_end, dt):
    # a horizon that is not a whole number of steps would stop short of t_end
    with pytest.raises(InvalidParameterError):
        FlowParams(Family.HEISENBERG, 1, dt=dt, t_end=t_end)


@pytest.mark.parametrize("t_end,dt", [(2.0, 1e-3), (0.25, 1e-3), (1000.0, 0.5)])
def test_flow_params_accepts_whole_step_grids(t_end, dt):
    assert FlowParams(Family.HEISENBERG, 1, dt=dt, t_end=t_end).t_end == t_end


def test_times_increasing_and_states_positive():
    params = FlowParams(Family.HEISENBERG, 2, rho=-0.5, dt=1e-2, t_end=2.0)
    traj = integrate(params, np.ones(5))
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times[0] == 0.0
    assert np.all(traj.states > 0.0)


@pytest.mark.parametrize("family,ns", [(Family.HEISENBERG, (1, 2, 3)),
                                       (Family.QUATERNION, (1, 2))])
@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.1])
def test_analytic_agreement(family, ns, rho):
    for n in ns:
        params = FlowParams(family, n, rho=rho, dt=1e-3, t_end=2.0)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = integrate(params, np.ones(family_dim(family, n)))
        assert closed_form_error(traj) < TOLERANCE["closed_form_agreement"]


def test_monotone_noncenter_for_negative_rho():
    for family, n in ((Family.HEISENBERG, 2), (Family.QUATERNION, 1)):
        d = family_dim(family, n)
        n_center = 1 if family is Family.HEISENBERG else 3
        params = FlowParams(family, n, rho=-0.3, dt=1e-2, t_end=2.0)
        g0 = np.linspace(1.0, 1.5, d)
        traj = integrate(params, g0)
        noncenter = traj.states[:, : d - n_center]
        assert np.all(np.diff(noncenter, axis=0) >= 0.0)


# --- closed forms --------------------------------------------------------

def test_closed_form_h1_example():
    out = closed_form(Family.HEISENBERG, np.ones(3), 1, 0.0, 1.0)
    assert out[0] == pytest.approx(4.0 ** (1 / 3), rel=1e-14)
    assert out[1] == pytest.approx(4.0 ** (1 / 3), rel=1e-14)
    # center exponent (n + n rho)/(n rho - n - 2) = -1/3 at n=1, rho=0
    assert out[2] == pytest.approx(4.0 ** (-1 / 3), rel=1e-14)


def test_closed_form_q1_example():
    out = closed_form(Family.QUATERNION, np.ones(7), 1, 0.0, 1.0)
    assert np.allclose(out[:4], 9.0 ** (3 / 8), rtol=1e-14)
    assert np.allclose(out[4:], 9.0 ** (-1 / 4), rtol=1e-14)


def test_closed_form_at_zero_is_initial():
    g0 = np.array([2.0, 0.5, 1.0, 4.0, 0.7])  # both pair products equal 2
    out = closed_form(Family.HEISENBERG, g0, 2, 0.3, 0.0)
    assert np.all(out == g0)


def test_closed_form_coeffs_h():
    c = closed_form_coeffs(Family.HEISENBERG, np.ones(3), 1, 0.0)
    assert c.b_or_c == 3.0
    assert c.vector_exponent == pytest.approx(1 / 3)
    assert c.center_exponent == pytest.approx(-1 / 3)


def test_closed_form_coeffs_q():
    c = closed_form_coeffs(Family.QUATERNION, np.ones(7), 1, 0.0)
    assert c.b_or_c == 8.0
    assert c.vector_exponent == pytest.approx(3 / 8)
    assert c.center_exponent == pytest.approx(-1 / 4)


def test_closed_form_hypothesis_violation():
    with pytest.raises(NotApplicableError):
        closed_form(Family.HEISENBERG, np.array([1.0, 1.0, 2.0, 1.0, 1.0]), 2, 0.0, 1.0)
    with pytest.raises(NotApplicableError):
        closed_form(Family.QUATERNION, np.array([1, 1, 1, 2, 1, 1, 1.0]), 1, 0.0, 1.0)


def test_closed_form_out_of_domain():
    # rho > 1 makes b negative for H_1; far enough t leaves the domain
    with pytest.raises(OutOfDomainError):
        closed_form(Family.HEISENBERG, np.ones(3), 1, 4.0, 10.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closed_form_coeffs_rejects_non_finite_g0(bad):
    with pytest.raises(InvalidParameterError):
        closed_form_coeffs(Family.HEISENBERG, [1.0, 1.0, bad], 1, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_form_rejects_non_finite_t(bad):
    with pytest.raises(InvalidParameterError):
        closed_form(Family.QUATERNION, np.ones(7), 1, 0.0, bad)


# --- conserved quantities ------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_conserved_rejects_non_finite_metric(bad):
    with pytest.raises(InvalidParameterError):
        conserved_quantities(Family.HEISENBERG, 1, 0.0, [1.0, bad, 1.0])

def test_conserved_identity_values():
    q = conserved_quantities(Family.HEISENBERG, 1, 0.0, np.ones(3))
    assert q == {"ratio_1": 1.0, "product": 1.0}
    qq = conserved_quantities(Family.QUATERNION, 1, 0.0, np.ones(7))
    assert qq == {"product": 1.0}


def test_conserved_along_closed_form():
    for t in (0.0, 0.5, 1.0):
        g = closed_form(Family.HEISENBERG, np.ones(3), 1, 0.0, t)
        q = conserved_quantities(Family.HEISENBERG, 1, 0.0, g)
        assert q["product"] == pytest.approx(1.0, rel=1e-12)
        assert q["ratio_1"] == pytest.approx(1.0, rel=1e-12)
        gq = closed_form(Family.QUATERNION, np.ones(7), 1, 0.0, t)
        assert conserved_quantities(Family.QUATERNION, 1, 0.0, gq)["product"] == \
            pytest.approx(1.0, rel=1e-12)


def test_conserved_singular_exponent():
    with pytest.raises(SingularExponentError):
        conserved_quantities(Family.HEISENBERG, 1, -1.0, np.ones(3))
    with pytest.raises(SingularExponentError):
        conserved_quantities(Family.QUATERNION, 1, -1.0 / 3.0, np.ones(7))


def test_ratio_conserved_for_arbitrary_diagonal_g0():
    rng = np.random.default_rng(2)
    g0 = rng.uniform(0.5, 2.0, 7)
    params = FlowParams(Family.HEISENBERG, 3, rho=0.05, dt=1e-3, t_end=2.0)
    traj = integrate(params, g0)
    for k, v in traj.invariant_ledger.items():
        if k.startswith("ratio"):
            assert v < 1e-8


def test_invariant_drift_small_along_numeric_trajectories():
    for family, n in ((Family.HEISENBERG, 2), (Family.QUATERNION, 1)):
        params = FlowParams(family, n, rho=-0.4, dt=1e-3, t_end=2.0)
        traj = integrate(params, np.ones(family_dim(family, n)))
        assert max(traj.invariant_ledger.values()) < 1e-8


# --- center growth bound -------------------------------------------------

def test_center_bound_h1():
    params = FlowParams(Family.HEISENBERG, 1, rho=-0.5, dt=1e-3, t_end=2.0)
    traj = integrate(params, np.ones(3))
    report = center_growth_bound(Family.HEISENBERG, 1, traj)
    assert report["bound_holds"]
    assert report["min_slack"] >= -1e-12
    assert report["integral_monotone"]
    # equality at t = 0
    assert traj.states[0, 2] == 1.0 / (1.0 / traj.states[0, 2])


def test_center_bound_q1_all_three_centers():
    params = FlowParams(Family.QUATERNION, 1, rho=-0.5, dt=1e-3, t_end=2.0)
    traj = integrate(params, np.ones(7))
    report = center_growth_bound(Family.QUATERNION, 1, traj)
    assert len(report["slack_per_center"]) == 3
    assert report["min_slack"] >= -1e-12


def test_center_bound_requires_negative_rho():
    params = FlowParams(Family.HEISENBERG, 1, rho=0.0, dt=1e-2, t_end=1.0)
    traj = integrate(params, np.ones(3))
    with pytest.raises(NotApplicableError):
        center_growth_bound(Family.HEISENBERG, 1, traj)


# --- CSV -----------------------------------------------------------------

def test_trajectory_csv_roundtrip():
    params = FlowParams(Family.HEISENBERG, 1, rho=0.0, dt=1e-3, t_end=0.5)
    traj = integrate(params, np.array([1.0, 1.0, 1.0]))
    text = traj.to_csv()
    assert text.splitlines()[0] == "t,g_1,g_2,g_3"
    back = Trajectory.from_csv(text, Family.HEISENBERG, 1, 0.0)
    assert np.all(back.times == traj.times)
    assert np.all(back.states == traj.states)


@st.composite
def csv_trajectories(draw):
    """Rows as wide as the header, finite cells, nondecreasing times."""
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    times = sorted(draw(st.lists(finite, min_size=rows, max_size=rows)))
    states = draw(st.lists(st.lists(finite, min_size=family_dim(family, n),
                                    max_size=family_dim(family, n)),
                           min_size=rows, max_size=rows))
    return Trajectory(family=family, n=n, rho=0.0, times=np.array(times),
                      states=np.array(states), terminated_reason=TerminationReason.HORIZON)


@settings(max_examples=100, deadline=None)
@given(csv_trajectories())
def test_csv_roundtrip_is_bitwise(traj):
    back = Trajectory.from_csv(traj.to_csv(), traj.family, traj.n, traj.rho)
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.states.tobytes() == traj.states.tobytes()


H1_HEADER = "t,g_1,g_2,g_3\n"


@pytest.mark.parametrize("text", [
    "",  # no header
    "x,g_1,g_2,g_3\n0,1,1,1\n",  # bad header
    H1_HEADER,  # no rows
    "t,g_1,g_2,g_3,g_4,g_5\n0,1,1,1,1,1\n",  # H2's width for H1
    "t,g_1,g_2\n0,1,1\n",  # too narrow for H1
    H1_HEADER + "0,1,1,1\n0.1,1,1\n",  # ragged: a short row
    H1_HEADER + "0,1,1,1\n0.1,1,1,1,1\n",  # ragged: a long row
    H1_HEADER + "0,1,abc,1\n",  # non-numeric cell
    H1_HEADER + "0,1,,1\n",  # empty cell
    H1_HEADER + "0,1,nan,1\n",  # non-finite cell
    H1_HEADER + "0,1,1,1\n0.2,1,1,1\n0.1,1,1,1\n",  # times out of order
])
def test_from_csv_rejects_a_malformed_table(text):
    with pytest.raises(InvalidParameterError):
        Trajectory.from_csv(text, Family.HEISENBERG, 1, 0.0)
