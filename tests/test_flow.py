import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilflow.flow

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
from nilflow.curvature import _add_reduce
from nilflow.flow import EPS_DEGENERATE, OVERFLOW_LIMIT, invariant_drift


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

    The same float operations in the same order as the library's scalar
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
    """n up to 24: from n = 16 each sigma sum takes two of numpy's 8-term blocks."""
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, 24))
    d = family_dim(family, n)
    g = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=d, max_size=d)))
    return family, n, g, draw(st.floats(-1.0, 0.1))


def _seeded_case(family, n, rho):
    return family, n, np.random.default_rng(n).uniform(0.3, 3.0, family_dim(family, n)), rho


@settings(max_examples=150, deadline=None)
@given(diagonal_cases())
@example(_seeded_case(Family.HEISENBERG, 17, -0.25))
@example(_seeded_case(Family.QUATERNION, 16, 0.05))
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


@pytest.mark.parametrize("family,n,g", [
    (Family.HEISENBERG, 1, [1.0, 1.0, 1e160]),  # g_N**2 overflows
    (Family.HEISENBERG, 2, [1e-170, 1.0, 1e-170, 1.0, 1.0]),  # g_1 g_3 underflows to 0
    (Family.QUATERNION, 1, [1.0] * 4 + [1e160, 1.0, 1.0]),  # z_1**2 overflows
    (Family.QUATERNION, 1, [1e-170] * 4 + [1.0] * 3),
])
def test_out_of_range_terms_follow_ieee_arithmetic(family, n, g):
    # Python floats raise here; the kernel then gives the array formulas' inf and nan
    g = np.array(g)
    with np.errstate(all="ignore"):
        slice_ric, slice_scal = slice_formulas(family, g, n)
        ric = ricci_specialized_diag(family, g, n)
        scal = scalar_specialized(family, g, n)
        rhs = rhs_diagonal(family, g, n, 0.1)
    assert ric.tobytes() == slice_ric.tobytes()
    assert np.float64(scal).tobytes() == np.float64(slice_scal).tobytes()
    assert type(scal) is float
    with np.errstate(all="ignore"):
        assert rhs.tobytes() == (-2.0 * ric + (2.0 * 0.1 * scal) * g).tobytes()


def test_non_finite_entry_outranks_a_nonpositive_one():
    with pytest.raises(InvalidParameterError, match="non-finite"):
        rhs_diagonal(Family.HEISENBERG, [0.0, np.nan, 1.0], 1, 0.0)
    with pytest.raises(DegenerateMetricError, match="nonpositive"):
        rhs_diagonal(Family.HEISENBERG, [1.0, -2.0, 1.0], 1, 0.0)
    with pytest.raises(InvalidParameterError, match=r"length 3, got \(1, 3\)"):
        rhs_diagonal(Family.HEISENBERG, [[1.0, 1.0, 1.0]], 1, 0.0)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(
    lambda size: st.lists(st.floats(-1e300, 1e300), min_size=size, max_size=size)))
def test_add_reduce_is_numpys_sum(terms):
    assert _bits(_add_reduce(terms)) == _bits(np.add.reduce(np.array(terms)))


def test_add_reduce_is_numpys_sum_at_every_length():
    rng = np.random.default_rng(4)
    for size in range(1, 301):
        terms = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        assert _bits(_add_reduce(terms.tolist())) == _bits(np.add.reduce(terms)), size


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
    with pytest.raises(InvalidParameterError, match="n must be a positive integer, got 1.5"):
        FlowParams(Family.HEISENBERG, 1.5)
    with pytest.warns(UserWarning):
        FlowParams(Family.HEISENBERG, 1, rho=0.5)


@pytest.mark.parametrize("record_every", [2.5, True, 0, "2"])
def test_flow_params_record_every_is_an_integer_of_at_least_one(record_every):
    # 2.5 used to record every 5 steps, and True was taken as 1
    with pytest.raises(InvalidParameterError, match="record_every must be a positive integer"):
        FlowParams(Family.HEISENBERG, 1, dt=0.1, t_end=1.0, record_every=record_every)


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
        # the float RK4 loop is out of errstate's reach: a run cut short by an
        # overflow or a degenerate state must fail here, not pass on fewer samples
        assert traj.terminated_reason is TerminationReason.HORIZON
        assert traj.times[-1] == 2.0
        assert np.isfinite(traj.states).all()
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


def counted_rhs_calls(monkeypatch) -> list:
    """Count the calls integrate makes to the module-global rhs_diagonal."""
    calls = [0]
    inner = nilflow.flow.rhs_diagonal

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(nilflow.flow, "rhs_diagonal", counted)
    return calls


@pytest.mark.parametrize("family,n", [(Family.HEISENBERG, 1), (Family.QUATERNION, 2)])
def test_integrate_calls_rhs_diagonal_four_times_per_step(monkeypatch, family, n):
    calls = counted_rhs_calls(monkeypatch)
    traj = integrate(FlowParams(family, n, rho=-0.25, dt=1e-2, t_end=1.0),
                     np.ones(family_dim(family, n)))
    assert traj.terminated_reason is TerminationReason.HORIZON
    assert calls == [4 * 100]


def test_a_stopped_run_calls_rhs_diagonal_only_for_the_stages_it_takes(monkeypatch):
    calls = counted_rhs_calls(monkeypatch)
    with pytest.warns(UserWarning):
        params = FlowParams(Family.HEISENBERG, 1, rho=4.0, dt=1e-2, t_end=2.0, record_every=1)
    traj = integrate(params, np.ones(3))
    assert traj.terminated_reason is TerminationReason.DEGENERATE
    done = int(round(traj.times[-1] / params.dt))  # whole steps before the failed one
    assert 4 * done < calls[0] <= 4 * done + 4 < 4 * 200


# --- the array RK4 of earlier versions, kept as the reference --------------
# integrate and its curvature kernel as they were on numpy arrays; the
# library's float loop must give the same bytes.

def reference_check_diag(diag, expected_len: int) -> np.ndarray:
    diag = np.asarray(diag, dtype=float)
    if diag.shape != (expected_len,):
        raise InvalidParameterError(
            f"diagonal metric must have length {expected_len}, got {diag.shape}"
        )
    if not (diag.min() > 0.0 and diag.max() < np.inf):
        if not np.isfinite(diag).all():
            raise InvalidParameterError("diagonal metric has a non-finite component")
        raise DegenerateMetricError("diagonal metric has a nonpositive component")
    return diag


@functools.lru_cache(maxsize=None)
def reference_diag_kernel(family: Family, n: int):
    dim = family_dim(family, n)
    if family is Family.HEISENBERG:
        den = np.r_[n : 2 * n, :n, 2 * n]

        def kernel(g):
            g_n = g[2 * n]
            sigma = float(np.add.reduce(1.0 / (g[:n] * g[n : 2 * n])))
            r = -0.5 * g_n / g[den]
            r[2 * n] = 0.5 * g_n**2 * sigma
            return r, -0.5 * float(g_n) * sigma, sigma

        kernel.dim = dim
        return kernel

    terms = (((0, 1), (2, 2), (1, 3)), ((0, 0), (1, 2), (2, 3)),
             ((2, 0), (1, 1), (0, 3)), ((1, 0), (2, 1), (0, 2)))
    block = np.arange(n)
    num_den = np.full((2, 3, dim), 4 * n)
    for b, row in enumerate(terms):
        for a, (z, v) in enumerate(row):
            num_den[0, a, b * n : (b + 1) * n] = 4 * n + z
            num_den[1, a, b * n : (b + 1) * n] = v * n + block
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


def reference_rhs(family: Family, g, n: int, rho: float) -> np.ndarray:
    kernel = reference_diag_kernel(family, n)
    g = reference_check_diag(g, kernel.dim)
    r, scal, _ = kernel(g)
    return -2.0 * r + (2.0 * rho * scal) * g


def reference_integrate(params: FlowParams, g0) -> Trajectory:
    fam, n, rho, dt = params.family, params.n, params.rho, params.dt
    n_steps = int(round(params.t_end / dt)) if params.t_end > 0.0 else 0
    stage_steps = (0.5 * dt, 0.5 * dt, dt)
    sixth = dt / 6.0
    g0 = np.asarray(g0, dtype=float)
    times, states, g = [0.0], [g0.copy()], g0.copy()
    reason = TerminationReason.HORIZON

    def ok(state):
        return state.min() > EPS_DEGENERATE and state.max() < OVERFLOW_LIMIT

    for step in range(1, n_steps + 1):
        ks = [reference_rhs(fam, g, n, rho)]
        for c in stage_steps:
            state = g + c * ks[-1]
            if not ok(state):
                break
            ks.append(reference_rhs(fam, state, n, rho))
        else:
            k1, k2, k3, k4 = ks
            state = g + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not ok(state):
            overflow = np.any(~np.isfinite(state)) or np.any(np.abs(state) >= OVERFLOW_LIMIT)
            reason = TerminationReason.OVERFLOW if overflow else TerminationReason.DEGENERATE
            break
        g = state
        if step % params.record_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(g)

    traj = Trajectory(family=fam, n=n, rho=rho, times=np.array(times),
                      states=np.array(states), terminated_reason=reason)
    traj.invariant_ledger = invariant_drift(traj)
    return traj


@st.composite
def flow_cases(draw):
    """H1-H12 and Q1-Q12 from a random diagonal or admissible g0, rho in [-1, 0.1]."""
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, 12))
    d = family_dim(family, n)
    entry = st.floats(0.3, 3.0)
    if not draw(st.booleans()):
        g0 = draw(st.lists(entry, min_size=d, max_size=d))
    elif family is Family.HEISENBERG:  # g_i g_{n+i} constant
        a, product = draw(st.lists(entry, min_size=n, max_size=n)), draw(entry)
        g0 = [*a, *(product / x for x in a), draw(entry)]
    else:  # equal V entries, equal center entries
        g0 = [draw(entry)] * (4 * n) + [draw(entry)] * 3
    return family, n, g0, draw(st.floats(-1.0, 0.1)), draw(st.integers(1, 10))


@settings(max_examples=60, deadline=None)
@given(flow_cases())
@example((Family.HEISENBERG, 1, [1.0] * 3, 4.0, 1))  # blows up at t* = 1: stops degenerate
@example((Family.QUATERNION, 1, [1.0] * 7, 5.0, 1))  # blows up at t* = 1/22: stops at 0.04
@example((Family.HEISENBERG, 2, [1.0, 2.0, 0.5, 1.0, 1.0], 10.0, 3))  # degenerate stop
@example((Family.HEISENBERG, 1, [1.0, 1.0, 1e100], -10.0, 1))  # overflow stop
@example((Family.HEISENBERG, 1, [1.0, 1.0, 1e160], 0.0, 1))  # g_N**2 overflows in the kernel
def test_integrate_is_bitwise_the_array_loop(case):
    family, n, g0, rho, record_every = case
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        params = FlowParams(family, n, rho=rho, dt=1e-2, t_end=1.0, record_every=record_every)
        got, want = integrate(params, g0), reference_integrate(params, g0)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.terminated_reason is want.terminated_reason
    assert [(k, _bits(v)) for k, v in got.invariant_ledger.items()] == \
        [(k, _bits(v)) for k, v in want.invariant_ledger.items()]


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
