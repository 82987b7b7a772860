import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import joperator
from nilflow.algebra import _bracket
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
    stacks = []
    original = joperator._j_matrix

    def recorded(spec, g, g_v, z):
        stacks.append(z.shape)
        return original(spec, g, g_v, z)

    monkeypatch.setattr(joperator, "_j_matrix", recorded)
    classify(spec, metric)
    assert len(roots) == 1
    assert stacks == [(spec.dim_z + joperator.N_RANDOM_CENTER_DIRECTIONS, spec.dim)]


# --- the stacked spectral path against the per-direction loop --------------

def heisenberg_like_loop(spec, g, z, z_norm2, j, w_bases):
    """The per-candidate eigenspace check as the layer ran it one direction at a time,
    but going on past the first failing candidate.

    Returns its verdict, each candidate's lhs / (LIKE_RTOL * scale), the factor by
    which it passes (< 1) or fails (> 1) the test, and the candidates.
    """
    v_idx = spec.complement_array
    rng = np.random.default_rng(20240 + spec.dim)
    like, ratios, tested = True, [], []
    for basis in w_bases:
        candidates = list(basis)
        if len(basis) > 1:
            coeffs = rng.standard_normal((joperator.N_RANDOM_CENTER_DIRECTIONS, len(basis)))
            candidates += [sum(cc * v for cc, v in zip(row, basis)) for row in coeffs]
        tested += candidates
        for x_v in candidates:
            x = np.zeros(spec.dim)
            x[v_idx] = x_v
            jx = np.zeros(spec.dim)
            jx[v_idx] = j @ x_v
            br = bracket(spec, jx, x)
            proj = float(br @ g @ z) / z_norm2
            resid = br - proj * z
            scale = max(np.linalg.norm(br), np.linalg.norm(x_v) ** 2 * np.sqrt(z_norm2), 1e-30)
            lhs = np.sqrt(max(float(resid @ g @ resid), 0.0))
            like = like and not lhs > joperator.LIKE_RTOL * scale
            ratios.append(lhs / (joperator.LIKE_RTOL * scale))
    return like, ratios, tested


def spectrum_loop(spec, metric, z):
    """One direction's eigenvalues, verdict, candidate ratios and candidates, by the former path."""
    g = metric.g
    g_v = g[spec.complement_block]
    j = joperator._j_matrix(spec, g, g_v, z)
    s, s_inv = joperator._metric_sqrt(g_v)
    k = s @ j @ s_inv
    eigs, vecs = np.linalg.eigh(k @ k)
    eigs = np.minimum(eigs, 0.0)
    groups = joperator._cluster(eigs)
    thetas = [float(np.sqrt(-float(np.mean(eigs[grp])))) for grp in groups]
    w_bases = [[s_inv @ vecs[:, i] for i in groups[o]] for o in np.argsort(thetas)]
    z_norm2 = float(z @ g @ z)
    if len(thetas) == 1 and abs(thetas[0] ** 2 - z_norm2) <= joperator.TYPE_ATOL * max(1.0, z_norm2):
        return eigs, Verdict.HEISENBERG_TYPE, [], []
    like, ratios, candidates = heisenberg_like_loop(spec, g, z, z_norm2, j, w_bases)
    return eigs, Verdict.HEISENBERG_LIKE if like else Verdict.NEITHER, ratios, candidates


def classify_loop(spec, metric, seed):
    """``classify`` one direction at a time; its verdict and all candidate ratios."""
    rng = np.random.default_rng(seed)
    z_idx = list(spec.center_indices)
    zs = list(np.eye(spec.dim)[z_idx])
    for _ in range(joperator.N_RANDOM_CENTER_DIRECTIONS):
        z = np.zeros(spec.dim)
        coeffs = rng.standard_normal(len(z_idx))
        z[z_idx] = coeffs / np.linalg.norm(coeffs)
        zs.append(z)
    verdicts, ratios = set(), []
    for z in zs:
        _, verdict, r, _ = spectrum_loop(spec, metric, z)
        verdicts.add(verdict)
        ratios += r
    if verdicts == {Verdict.HEISENBERG_TYPE}:
        return Verdict.HEISENBERG_TYPE, ratios
    return (Verdict.NEITHER if Verdict.NEITHER in verdicts else Verdict.HEISENBERG_LIKE), ratios


SMALL_GROUPS = ((Family.HEISENBERG, 1), (Family.HEISENBERG, 2), (Family.HEISENBERG, 3),
                (Family.QUATERNION, 1), (Family.QUATERNION, 2))


def diagonal_or_flowed(spec, rng, diagonal):
    """A random diagonal metric, or else a closed-form flow from an admissible g0."""
    if diagonal:
        return MetricState.from_diag(rng.uniform(0.3, 3.0, spec.dim))
    # admissible g0: g_i g_{n+i} = P on H_n, equal V and equal center entries on Q_n
    family, n = spec.family, spec.n
    v, ratio = rng.uniform(0.5, 2.0, 2)
    if family is Family.HEISENBERG:
        a = rng.uniform(0.5, 2.0, n)
        g0 = np.concatenate([a, v / a, [ratio * v]])
    else:
        g0 = np.concatenate([np.full(4 * n, v), np.full(3, ratio * v * v)])
    return MetricState.from_diag(
        closed_form(family, g0, n, rng.uniform(-0.5, 0.0), rng.uniform(0.0, 2.0)))


@st.composite
def classified_metrics(draw):
    """Random diagonal metrics, and closed-form flows from admissible g0."""
    spec = build_group(*draw(st.sampled_from(SMALL_GROUPS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    metric = diagonal_or_flowed(spec, rng, draw(st.booleans()))
    return spec, metric, draw(st.integers(0, 2**31 - 1))


def assert_margin(ratios):
    # a rounding change moves lhs by a few ulps of scale, about 1e-7 of LIKE_RTOL * scale
    ratios = np.asarray(ratios)
    assert np.all((ratios <= 1e-3) | (ratios >= 1e3)), ratios[(ratios > 1e-3) & (ratios < 1e3)]


@settings(max_examples=80, deadline=None)
@given(classified_metrics())
def test_stacked_verdicts_match_the_per_candidate_loop(case):
    spec, metric, seed = case
    expected, ratios = classify_loop(spec, metric, seed)
    assert classify(spec, metric, seed=seed) is expected
    assert_margin(ratios)
    rng = np.random.default_rng(seed)
    zs = list(np.eye(spec.dim)[list(spec.center_indices)])
    zs.append(np.zeros(spec.dim))
    zs[-1][list(spec.center_indices)] = rng.standard_normal(spec.dim_z)
    for z in zs:
        eigs, verdict, ratios, _ = spectrum_loop(spec, metric, z)
        report = spectrum(spec, metric, z)
        assert report.verdict is verdict
        assert report.eigenvalues == tuple(eigs.tolist())
        assert_margin(ratios)


def test_classify_directions_are_one_direction_spectra(monkeypatch):
    spec = build_group(Family.QUATERNION, 3)
    metric = MetricState.from_diag(np.random.default_rng(5).uniform(0.5, 2.0, spec.dim))
    calls = []
    original = joperator._spectra

    def recorded(spec, g, g_v, root, zs):
        calls.append((zs, original(spec, g, g_v, root, zs)))
        return calls[-1][1]

    monkeypatch.setattr(joperator, "_spectra", recorded)
    classify(spec, metric, seed=11)
    assert len(calls) == 1
    zs, reports = calls[0]
    assert len(zs) == spec.dim_z + joperator.N_RANDOM_CENTER_DIRECTIONS
    for z, report in zip(zs, reports):
        single = spectrum(spec, metric, z)
        assert report.eigenvalues == single.eigenvalues
        assert report.thetas == single.thetas
        assert report.verdict is single.verdict


@pytest.mark.parametrize("spec,diag", [
    (build_group(Family.HEISENBERG, 2), [1.0, 2.0, 1.0, 1.0, 1.0]),  # two 2-dim eigenspaces
    (Q1, [1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5]),  # three directions, one 4-dim eigenspace each
])
def test_candidates_are_the_loop_candidates(monkeypatch, spec, diag):
    # same stream from the start for each direction, drawn group by group in theta order
    metric = MetricState.from_diag(diag)
    zs = np.eye(spec.dim)[list(spec.center_indices)]
    tested = []
    original = joperator._bracket

    def recorded(spec, jx, x):
        tested.append(x[:, spec.complement_array])
        return original(spec, jx, x)

    monkeypatch.setattr(joperator, "_bracket", recorded)
    g_v = metric.g[spec.complement_block]
    reports = joperator._spectra(spec, metric.g, g_v, joperator._metric_sqrt(g_v), zs)
    assert {r.verdict for r in reports} == {Verdict.HEISENBERG_LIKE}
    assert len(tested) == len(zs)  # one block per direction
    for z, x in zip(zs, tested):
        expected = spectrum_loop(spec, metric, z)[3]
        assert x.shape == (len(expected), spec.dim_v)
        assert np.allclose(x, expected, rtol=0.0, atol=1e-12)


# --- Neither, and a stack mixing verdicts ------------------------------------

Q1_SKEWED = MetricState.from_diag([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0])


def test_classify_q1_skewed_center_is_neither():
    assert classify(Q1, Q1_SKEWED) is Verdict.NEITHER
    assert classify_loop(Q1, Q1_SKEWED, 7)[0] is Verdict.NEITHER


def test_spectrum_on_a_failing_direction_is_neither():
    z = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    report = spectrum(Q1, Q1_SKEWED, z)
    assert report.mu == 1
    assert report.verdict is Verdict.NEITHER
    assert spectrum_loop(Q1, Q1_SKEWED, z)[1] is Verdict.NEITHER


def test_one_stack_keeps_each_direction_verdict():
    # j(Z)^2 = -(z1^2 + 4 z2^2 + z3^2) Id: e_5 and e_7 are Type, e_6 is Like, e_5 + e_6 is Neither
    zs = np.zeros((4, 7))
    zs[[0, 1, 2, 3, 3], [4, 5, 6, 4, 5]] = 1.0
    g = Q1_SKEWED.g
    g_v = g[Q1.complement_block]
    reports = joperator._spectra(Q1, g, g_v, joperator._metric_sqrt(g_v), zs)
    assert [r.verdict for r in reports] == [Verdict.HEISENBERG_TYPE, Verdict.HEISENBERG_LIKE,
                                            Verdict.HEISENBERG_TYPE, Verdict.NEITHER]
    assert [r.thetas for r in reports[:3]] == [(1.0,), (2.0,), (1.0,)]


# --- integer arguments --------------------------------------------------------

@pytest.mark.parametrize("kwargs", [{"samples": 2.5}, {"samples": "3"}, {"samples": True},
                                    {"seed": 1.5}, {"seed": -1}])
def test_p8_rejects_a_non_integer_count_or_seed(kwargs):
    with pytest.raises(InvalidParameterError):
        verify_p8(H1, ID3, 1.0, **kwargs)


@pytest.mark.parametrize("seed", [1.5, "7", -1, None])
def test_classify_rejects_a_non_integer_seed(seed):
    with pytest.raises(InvalidParameterError):
        classify(H1, ID3, seed=seed)


def test_integer_arguments_of_numpy_type_are_accepted():
    assert classify(H1, ID3, seed=np.int64(3)) is Verdict.HEISENBERG_TYPE
    assert verify_p8(H1, ID3, 1.0, samples=np.int32(2), seed=np.uint8(1))["max_residual"] < 1e-10


# --- the stacked verify_p8 against its per-sample loop ------------------------

P8_NAMES = ("cross_product", "polarized", "norm", "anticommutator", "bracket")


def verify_p8_loop(spec, metric, p, samples, seed):
    """``verify_p8`` one sample at a time, as the layer computed it before."""
    rng = np.random.default_rng(seed)
    v_idx, z_idx = spec.complement_array, spec.center_array
    g = metric.g
    g_v = g[spec.complement_block]
    residuals = np.empty((samples, len(P8_NAMES)))

    def full(idx, coords):
        v = np.zeros(spec.dim)
        v[idx] = coords
        return v

    for row in residuals:
        xv = rng.standard_normal(spec.dim_v)
        yv = rng.standard_normal(spec.dim_v)
        z = full(z_idx, rng.standard_normal(spec.dim_z))
        zs = full(z_idx, rng.standard_normal(spec.dim_z))
        jz = joperator._j_matrix(spec, g, g_v, z)
        jzs = joperator._j_matrix(spec, g, g_v, zs)
        jz_x = jz @ xv
        x_x = xv @ g_v @ xv
        z_zs = float(z @ g @ zs)
        z_z = float(z @ g @ z)
        r1 = abs(jz_x @ g_v @ (jzs @ xv) - p * z_zs * x_x)
        r2 = abs(jz_x @ g_v @ (jz @ yv) - p * z_z * (xv @ g_v @ yv))
        r3 = abs(np.sqrt(jz_x @ g_v @ jz_x) - np.sqrt(p) * np.sqrt(z_z) * np.sqrt(x_x))
        r4 = np.abs(jz @ jzs + jzs @ jz + 2.0 * p * z_zs * np.eye(spec.dim_v)).max()
        br = _bracket(spec, full(v_idx, xv), full(v_idx, jz_x))
        row[:] = r1, r2, r3, r4, np.abs(br - p * x_x * z).max()
    worst = dict(zip(P8_NAMES, np.max(residuals, axis=0).tolist()))
    worst["max_residual"] = float(np.max(residuals))
    return worst


def hexed(report):
    return {name: float(value).hex() for name, value in report.items()}


P8_GROUPS = tuple((Family.HEISENBERG, n) for n in range(1, 5)) + \
    tuple((Family.QUATERNION, n) for n in range(1, 4))


@st.composite
def p8_cases(draw):
    spec = build_group(*draw(st.sampled_from(P8_GROUPS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    metric = diagonal_or_flowed(spec, rng, draw(st.booleans()))
    p = draw(st.floats(0.0, 3.0))
    return spec, metric, p, draw(st.sampled_from([1, 2, 7, 50, 200])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(p8_cases())
def test_stacked_p8_is_bitwise_its_per_sample_loop(case):
    spec, metric, p, samples, seed = case
    report = verify_p8(spec, metric, p, samples=samples, seed=seed)
    assert hexed(report) == hexed(verify_p8_loop(spec, metric, p, samples, seed))


def test_p8_one_nan_sample_reaches_its_residuals(monkeypatch):
    # a nan j(Z*) in the last of 200 samples at Q3, in the last block, reaches the two
    # residuals that use j(Z*) and max_residual; the other residuals keep their bits
    spec = build_group(Family.QUATERNION, 3)
    metric = MetricState.from_diag(np.random.default_rng(3).uniform(0.5, 2.0, spec.dim))
    clean = verify_p8(spec, metric, 1.0, samples=200, seed=4)
    original = joperator._j_matrix
    calls = []

    def nan_last_z_star(spec, g, g_v, z):
        j = original(spec, g, g_v, z)
        calls.append(len(z))
        if sum(calls) == 2 * 200:  # the j(Z*) call of the last block
            j[-1] = np.nan
        return j

    monkeypatch.setattr(joperator, "_j_matrix", nan_last_z_star)
    report = verify_p8(spec, metric, 1.0, samples=200, seed=4)
    assert sum(calls) == 2 * 200 and len(calls) > 2
    assert np.isnan(report["max_residual"])
    assert np.isnan(report["cross_product"]) and np.isnan(report["anticommutator"])
    for name in ("polarized", "norm", "bracket"):
        assert report[name].hex() == clean[name].hex()


def test_p8_makes_one_j_call_for_z_and_one_for_z_star_per_block(monkeypatch):
    spec = build_group(Family.QUATERNION, 3)
    metric = MetricState.from_diag(np.linspace(0.5, 2.0, spec.dim))
    stacks = []
    original = joperator._j_matrix

    def recorded(spec, g, g_v, z):
        stacks.append(z.shape)
        return original(spec, g, g_v, z)

    monkeypatch.setattr(joperator, "_j_matrix", recorded)
    verify_p8(spec, metric, 1.0, samples=200, seed=0)
    blocks = [shape[0] for shape in stacks[::2]]
    assert stacks == [(b, spec.dim) for b in blocks for _ in range(2)]
    assert sum(blocks) == 200 and len(set(blocks[:-1])) == 1 and 0 < blocks[-1] <= blocks[0]


def p8_peak(spec, metric, samples):
    tracemalloc.start()
    try:
        verify_p8(spec, metric, 1.0, samples=samples, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_p8_peak_memory_does_not_grow_with_samples():
    # unblocked, 400 samples at Q6 would hold several 1.8 MB (samples, 24, 24) stacks
    spec = build_group(Family.QUATERNION, 6)
    metric = MetricState.from_diag(np.random.default_rng(5).uniform(0.5, 2.0, spec.dim))
    p8_peak(spec, metric, 5)
    few, many = p8_peak(spec, metric, 50), p8_peak(spec, metric, 400)
    assert many <= few + joperator._P8_BLOCK_BYTES // 4, (few, many)
