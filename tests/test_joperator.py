import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import joperator
from nilflow import (
    Family,
    InvalidParameterError,
    MetricState,
    OutOfDomainError,
    Verdict,
    bracket,
    build_group,
    classify,
    closed_form,
    j_matrix,
    spectrum,
    theoretical_p_factor,
    verify_p8,
)
from nilflow.checks import degradation_spectrum, p8_residual

H1 = build_group(Family.HEISENBERG, 1)
Q1 = build_group(Family.QUATERNION, 1)
ID3 = MetricState.from_diag(np.ones(3))
ID7 = MetricState.from_diag(np.ones(7))


def random_spd_metric(dim, rng):
    a = rng.standard_normal((dim, dim))
    return MetricState(g=a @ a.T + dim * np.eye(dim))


# --- j matrix ------------------------------------------------------------

def test_j_matrix_h1_identity():
    j = j_matrix(H1, ID3, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(j, [[0.0, -1.0], [1.0, 0.0]])


def test_j_matrix_zero_z_is_zero():
    assert np.all(j_matrix(H1, ID3, np.zeros(3)) == 0.0)


def test_j_matrix_rejects_noncentral_z():
    with pytest.raises(InvalidParameterError):
        j_matrix(H1, ID3, np.array([1.0, 0.0, 1.0]))


def test_j_matrix_defining_relation_and_skewness():
    rng = np.random.default_rng(12)
    for spec in (H1, Q1):
        m = random_spd_metric(spec.dim, rng)
        v_idx = list(spec.complement_indices)
        g_v = m.g[np.ix_(v_idx, v_idx)]
        z = np.zeros(spec.dim)
        z[list(spec.center_indices)] = rng.standard_normal(len(spec.center_indices))
        j = j_matrix(spec, m, z)
        # <j(Z)X, Y> = <Z, [X, Y]> on the complement basis
        for a, i in enumerate(v_idx):
            for c, k in enumerate(v_idx):
                lhs = (g_v @ j)[c, a]
                rhs = (m.g @ z) @ spec.structure_dense[i, k]
                assert lhs == pytest.approx(rhs, abs=1e-10)
        # skew with respect to the metric
        gj = g_v @ j
        assert np.abs(gj + gj.T).max() < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_j_matrix_and_spectrum_reject_non_finite_z(bad):
    z = np.array([0.0, 0.0, 0.0, 0.0, bad])
    spec = build_group(Family.HEISENBERG, 2)
    metric = MetricState.from_diag(np.ones(5))
    with pytest.raises(InvalidParameterError):
        j_matrix(spec, metric, z)
    with pytest.raises(InvalidParameterError):
        spectrum(spec, metric, z)


def test_j_matrix_linear_in_z():
    rng = np.random.default_rng(13)
    m = random_spd_metric(7, rng)
    z1 = np.zeros(7)
    z2 = np.zeros(7)
    z1[4:] = rng.standard_normal(3)
    z2[4:] = rng.standard_normal(3)
    lhs = j_matrix(Q1, m, 2.0 * z1 - 0.5 * z2)
    rhs = 2.0 * j_matrix(Q1, m, z1) - 0.5 * j_matrix(Q1, m, z2)
    assert np.abs(lhs - rhs).max() < 1e-12


# --- spectrum and classification ----------------------------------------

def test_spectrum_h1_identity_is_type():
    rep = spectrum(H1, ID3, np.array([0.0, 0.0, 1.0]))
    assert rep.mu == 1
    assert rep.thetas == pytest.approx((1.0,))
    assert rep.subspace_dims == (2,)
    assert rep.verdict is Verdict.HEISENBERG_TYPE
    assert rep.p_factor_observed == pytest.approx(1.0)


def test_spectrum_q1_identity_is_type():
    z = np.zeros(7)
    z[4] = 1.0
    rep = spectrum(Q1, ID7, z)
    assert rep.mu == 1
    assert rep.subspace_dims == (4,)
    assert rep.verdict is Verdict.HEISENBERG_TYPE


def test_spectrum_rejects_zero_z():
    with pytest.raises(InvalidParameterError):
        spectrum(H1, ID3, np.zeros(3))


@pytest.mark.parametrize("family,n,expected_p", [
    (Family.HEISENBERG, 1, 0.25),
    (Family.QUATERNION, 1, 1.0 / 9.0),
])
def test_spectrum_degradation_along_flow(family, n, expected_p):
    rep, _, z_norm2 = degradation_spectrum(build_group(family, n), 0.0, 1.0)
    assert rep.mu == 1
    # theta^2 = p |Z|_t^2 with |Z|_t^2 = g_center(1)
    assert rep.thetas[0] ** 2 == pytest.approx(expected_p * z_norm2, rel=1e-12)
    assert rep.p_factor_observed == pytest.approx(expected_p, rel=1e-12)


def test_classification_transition_type_to_like():
    for family, n in ((Family.HEISENBERG, 1), (Family.QUATERNION, 1)):
        spec = build_group(family, n)
        assert classify(spec, MetricState.from_diag(np.ones(spec.dim))) is \
            Verdict.HEISENBERG_TYPE
        g1 = closed_form(family, np.ones(spec.dim), n, 0.0, 1.0)
        verdict = classify(spec, MetricState.from_diag(g1, t=1.0))
        assert verdict in (Verdict.HEISENBERG_TYPE, Verdict.HEISENBERG_LIKE)
        assert verdict is Verdict.HEISENBERG_LIKE


def test_heisenberg_diag_always_at_least_like():
    spec = build_group(Family.HEISENBERG, 2)
    m = MetricState.from_diag([1.0, 5.0, 1.0, 1.0, 2.0])
    assert classify(spec, m) in (Verdict.HEISENBERG_TYPE, Verdict.HEISENBERG_LIKE)


# --- theoretical degradation factor --------------------------------------

def test_theoretical_p_factor_values():
    assert theoretical_p_factor(Family.HEISENBERG, 1, 0.0, 0.0) == 1.0
    assert theoretical_p_factor(Family.HEISENBERG, 1, 0.0, 1.0) == pytest.approx(0.25)
    assert theoretical_p_factor(Family.QUATERNION, 1, 0.0, 1.0) == pytest.approx(1 / 9)
    assert theoretical_p_factor(Family.HEISENBERG, 2, 0.5, 1.0) == pytest.approx(0.25)


@pytest.mark.parametrize("rho,t", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0)])
def test_theoretical_p_factor_rejects_non_finite(rho, t):
    with pytest.raises(InvalidParameterError):
        theoretical_p_factor(Family.HEISENBERG, 1, rho, t)


def test_theoretical_p_factor_out_of_domain():
    with pytest.raises(OutOfDomainError):
        theoretical_p_factor(Family.HEISENBERG, 1, 4.0, 1.0)


# --- the five identities --------------------------------------------------

def test_p8_identities_identity_metric():
    for spec in (H1, Q1):
        report = verify_p8(spec, MetricState.from_diag(np.ones(spec.dim)), 1.0)
        assert report["max_residual"] < 1e-10
        for name in ("cross_product", "polarized", "norm", "anticommutator", "bracket"):
            assert report[name] <= report["max_residual"]


def test_p8_identities_along_flow():
    for family, n in ((Family.HEISENBERG, 2), (Family.QUATERNION, 1)):
        # verify_p8's default samples and seed
        residual = p8_residual(build_group(family, n), -0.25, (0.5, 2.0), samples=200, seed=0)
        assert residual < 1e-10


def test_p8_fails_for_wrong_p():
    report = verify_p8(H1, ID3, 0.5)
    assert report["max_residual"] > 1e-2


@pytest.mark.parametrize("samples", [0, -3])
def test_p8_rejects_fewer_than_one_sample(samples):
    with pytest.raises(InvalidParameterError):
        verify_p8(H1, ID3, 1.0, samples=samples)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, -1.0])
def test_p8_rejects_a_non_finite_or_negative_p(p):
    with pytest.raises(InvalidParameterError):
        verify_p8(H1, ID3, p)


def test_p8_reports_a_nan_residual(monkeypatch):
    # one nan j(Z) must reach every residual it feeds and max_residual
    def nan_j(spec, g, g_v, z):
        return np.full((len(g_v), len(g_v)), np.nan)

    monkeypatch.setattr(joperator, "_j_matrix", nan_j)
    report = verify_p8(H1, ID3, 1.0, samples=3)
    assert np.isnan(report["max_residual"])
    assert all(np.isnan(report[name]) for name in
               ("cross_product", "polarized", "norm", "anticommutator", "bracket"))


# --- the vectorised j(Z) layer against its loop references -----------------

def j_matrix_loop(spec, metric, z):
    """j(Z) with one dot per complement pair, as the layer computed it before."""
    v_idx = list(spec.complement_indices)
    gz = metric.g @ z
    b = np.zeros((len(v_idx), len(v_idx)))
    for a, i in enumerate(v_idx):
        for c, j in enumerate(v_idx):
            b[a, c] = gz @ spec.structure_dense[i, j]
    return np.linalg.solve(metric.g[np.ix_(v_idx, v_idx)], b.T)


def bracket_loop(spec, x, y):
    out = np.zeros(spec.dim)
    for i, j, k, v in spec.structure:
        out[k] += v * (x[i] * y[j] - x[j] * y[i])
    return out


@st.composite
def j_cases(draw):
    spec = build_group(draw(st.sampled_from(list(Family))), draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        metric = MetricState.from_diag(rng.uniform(0.3, 3.0, spec.dim))
    else:
        metric = random_spd_metric(spec.dim, rng)
    z = np.zeros(spec.dim)
    z[list(spec.center_indices)] = rng.standard_normal(spec.dim_z)
    return spec, metric, z, rng.standard_normal((2, spec.dim))


@settings(max_examples=120, deadline=None)
@given(j_cases())
def test_j_layer_is_bitwise_its_loop_reference(case):
    spec, metric, z, (x, y) = case
    j = j_matrix(spec, metric, z)
    assert np.array_equal(j, j_matrix_loop(spec, metric, z))
    assert np.array_equal(bracket(spec, x, y), bracket_loop(spec, x, y))
    # <j(Z)X, Y> = <Z, [X, Y]> for X, Y in V
    v_idx = list(spec.complement_indices)
    xv, yv = np.zeros(spec.dim), np.zeros(spec.dim)
    xv[v_idx], yv[v_idx] = x[v_idx], y[v_idx]
    lhs = (j @ x[v_idx]) @ metric.g[np.ix_(v_idx, v_idx)] @ y[v_idx]
    rhs = z @ metric.g @ bracket(spec, xv, yv)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(joperator, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(joperator, name, counted)
    return calls


def test_spectrum_builds_j_once(monkeypatch):
    # a HeisenbergLike direction, so the eigenspace check runs too
    spec = build_group(Family.HEISENBERG, 2)
    metric = MetricState.from_diag([1.0, 2.0, 1.0, 1.0, 1.0])
    calls = count_calls(monkeypatch, "_j_matrix")
    assert spectrum(spec, metric, np.eye(5)[4]).verdict is Verdict.HEISENBERG_LIKE
    assert len(calls) == 1


def test_classify_takes_one_metric_root(monkeypatch):
    spec = build_group(Family.QUATERNION, 2)
    metric = MetricState.from_diag(np.linspace(0.5, 2.0, spec.dim))
    roots = count_calls(monkeypatch, "_metric_sqrt")
    js = count_calls(monkeypatch, "_j_matrix")
    classify(spec, metric)
    assert len(roots) == 1
    assert len(js) == spec.dim_z + joperator.N_RANDOM_CENTER_DIRECTIONS
