import tracemalloc

import numpy as np
import pytest

import nilflow.checks as checks_module
import nilflow.curvature as curvature_module
from nilflow import (
    DegenerateMetricError,
    Family,
    InvalidParameterError,
    MetricState,
    NotApplicableError,
    adjoint_coeffs,
    bracket,
    basis_vector,
    build_group,
    christoffel,
    curvature_report,
    inner,
    literal_discrepancy,
    ricci_general,
    ricci_specialized_diag,
    riemann,
    scalar_curvature,
    scalar_specialized,
    sigma_heisenberg,
    sigma_quaternion,
)
from nilflow._oracles import christoffel_metric_components, riemann_bracket_formula
from nilflow.checks import ricci_oracle_deviation
from nilflow.cli import main

H1 = build_group(Family.HEISENBERG, 1)
Q1 = build_group(Family.QUATERNION, 1)
ID3 = MetricState.from_diag(np.ones(3))
ID7 = MetricState.from_diag(np.ones(7))


def random_spd_metric(dim, rng):
    a = rng.standard_normal((dim, dim))
    return MetricState(g=a @ a.T + dim * np.eye(dim))


# --- adjoint -------------------------------------------------------------

def test_adjoint_h1_identity():
    a = adjoint_coeffs(H1, ID3)
    # (ad e1)* e3 = e2, brute-forced: <e3, [e1, e2]> = 1
    assert a[0, 2, 1] == pytest.approx(1.0, abs=1e-14)
    assert inner(ID3, basis_vector(3, 2), bracket(H1, basis_vector(3, 0), basis_vector(3, 1))) == 1.0


def test_adjoint_defining_relation_brute_force():
    rng = np.random.default_rng(3)
    for spec, dim in ((H1, 3), (Q1, 7)):
        m = random_spd_metric(dim, rng)
        a = adjoint_coeffs(spec, m)
        for i in range(dim):
            for j in range(dim):
                star = a[i, j]  # (ad e_i)* e_j
                for y in range(dim):
                    ey = basis_vector(dim, y)
                    lhs = inner(m, star, ey)
                    rhs = inner(m, basis_vector(dim, j),
                                bracket(spec, basis_vector(dim, i), ey))
                    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_adjoint_complement_pairs_vanish_on_heisenberg():
    spec = build_group(Family.HEISENBERG, 2)
    a = adjoint_coeffs(spec, MetricState.from_diag(np.ones(5)))
    comp = list(spec.complement_indices)
    assert np.abs(a[np.ix_(comp, comp)]).max() == 0.0


def test_adjoint_q1_example():
    # (ad X_11)* Z_1 = -e2
    a = adjoint_coeffs(Q1, ID7)
    assert np.allclose(a[0, 4], -basis_vector(7, 1))


# --- connection ----------------------------------------------------------

def test_christoffel_h1_identity_values():
    gamma = christoffel(H1, ID3).gamma
    assert gamma[0, 1, 2] == pytest.approx(0.5)
    assert gamma[0, 2, 1] == pytest.approx(-0.5)
    assert gamma[1, 2, 0] == pytest.approx(0.5)
    for i in range(3):
        assert np.abs(gamma[i, i]).max() == 0.0


def test_christoffel_two_routes_agree():
    rng = np.random.default_rng(5)
    for spec, dim in ((H1, 3), (Q1, 7)):
        for _ in range(5):
            m = random_spd_metric(dim, rng)
            dev = np.abs(christoffel(spec, m).gamma
                         - christoffel_metric_components(spec, m)).max()
            assert dev < 1e-12


def test_christoffel_torsion_free_and_metric_compatible():
    rng = np.random.default_rng(6)
    for spec, dim in ((build_group(Family.HEISENBERG, 2), 5), (Q1, 7)):
        m = random_spd_metric(dim, rng)
        cc = christoffel(spec, m)
        c = spec.structure_dense
        assert np.abs(cc.gamma - cc.gamma.transpose(1, 0, 2) - c).max() < 1e-12
        # <nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0
        low = np.einsum("ijm,mk->ijk", cc.gamma, m.g)
        assert np.abs(low + low.transpose(0, 2, 1)).max() < 1e-11


# --- Riemann -------------------------------------------------------------

def test_riemann_h1_identity_values():
    r = riemann(H1, ID3)
    assert r[0, 1, 1, 0] == pytest.approx(-0.75)
    assert r[0, 2, 2, 0] == pytest.approx(0.25)


def test_riemann_symmetries_and_bianchi_random_spd():
    rng = np.random.default_rng(7)
    for spec, dim in ((H1, 3), (build_group(Family.HEISENBERG, 3), 7), (Q1, 7)):
        for _ in range(3):
            m = random_spd_metric(dim, rng)
            r = riemann(spec, m)
            scale = max(1.0, np.abs(r).max())
            assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-10 * scale
            assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-10 * scale
            assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-10 * scale
            bianchi = (r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r))
            assert np.abs(bianchi).max() < 1e-10 * scale
            # R_iikl = 0
            assert max(np.abs(r[i, i]).max() for i in range(dim)) < 1e-12 * scale


def test_riemann_matches_bracket_expansion():
    rng = np.random.default_rng(8)
    for spec, dim in ((H1, 3), (Q1, 7)):
        for _ in range(3):
            m = random_spd_metric(dim, rng)
            dev = np.abs(riemann(spec, m) - riemann_bracket_formula(spec, m)).max()
            assert dev < 1e-11


# --- Ricci and scalar ----------------------------------------------------

def _contract_ricci(r, metric):
    return np.einsum("km,kijm->ij", metric.inverse, r)


@pytest.mark.parametrize("family,n", [(Family.HEISENBERG, 1), (Family.QUATERNION, 1),
                                      (Family.QUATERNION, 3), (Family.HEISENBERG, 8),
                                      (Family.QUATERNION, 6)])
def test_ricci_general_matches_riemann_contractions(family, n):
    # ricci_general never builds the Riemann tensor; both d^4 routes are its oracles
    rng = np.random.default_rng(12)
    spec = build_group(family, n)
    for _ in range(2):
        m = random_spd_metric(spec.dim, rng)
        ric = ricci_general(spec, m)
        scale = np.abs(ric).max()
        for r in (riemann(spec, m), riemann_bracket_formula(spec, m)):
            assert np.abs(ric - _contract_ricci(r, m)).max() <= 1e-12 * scale


def test_ricci_h1_identity():
    assert np.allclose(ricci_general(H1, ID3), np.diag([-0.5, -0.5, 0.5]), atol=1e-14)


def test_ricci_q1_identity():
    expected = np.diag([-1.5, -1.5, -1.5, -1.5, 1.0, 1.0, 1.0])
    assert np.allclose(ricci_general(Q1, ID7), expected, atol=1e-13)


def test_ricci_diagonal_preserved_h2():
    d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    ric = ricci_general(build_group(Family.HEISENBERG, 2), MetricState.from_diag(d))
    off = ric - np.diag(np.diag(ric))
    assert np.abs(off).max() < 1e-12


@pytest.mark.parametrize("family,ns", [(Family.HEISENBERG, (1, 2, 3)),
                                       (Family.QUATERNION, (1, 2))])
def test_specialized_matches_general(family, ns):
    rng = np.random.default_rng(9)
    for n in ns:
        spec = build_group(family, n)
        metrics = [rng.uniform(0.4, 2.5, spec.dim) for _ in range(10)]
        assert ricci_oracle_deviation(spec, metrics) < 1e-12


def test_scalar_curvature_examples():
    assert scalar_curvature(H1, ID3) == pytest.approx(-0.5, abs=1e-13)
    assert scalar_curvature(Q1, ID7) == pytest.approx(-3.0, abs=1e-13)
    for n in (2, 3):
        spec = build_group(Family.HEISENBERG, n)
        m = MetricState.from_diag(np.ones(2 * n + 1))
        assert scalar_curvature(spec, m) == pytest.approx(-n / 2.0, abs=1e-12)


def test_scalar_matches_closed_forms_random():
    rng = np.random.default_rng(10)
    for family, n in ((Family.HEISENBERG, 2), (Family.QUATERNION, 1)):
        spec = build_group(family, n)
        d = rng.uniform(0.5, 2.0, spec.dim)
        assert scalar_curvature(spec, MetricState.from_diag(d)) == pytest.approx(
            scalar_specialized(family, d, n), rel=1e-12)


def test_sigma_values():
    assert sigma_heisenberg(np.ones(3), 1) == 1.0
    assert sigma_heisenberg(np.array([1.0, 2, 3, 4, 7]), 2) == pytest.approx(1 / 3 + 1 / 8)
    sp, s1, s2, s3 = sigma_quaternion(np.ones(7), 1)
    assert (sp, s1, s2, s3) == (6.0, 2.0, 2.0, 2.0)
    with pytest.raises(DegenerateMetricError):
        sigma_heisenberg(np.array([1.0, 0.0, 1.0]), 1)


def test_h1_center_ricci_component():
    # R_33 = c^2 / (2ab) for diag(a, b, c)
    a, b, c = 1.3, 0.7, 2.1
    r = ricci_specialized_diag(Family.HEISENBERG, np.array([a, b, c]), 1)
    assert r[2] == pytest.approx(c**2 / (2 * a * b), rel=1e-14)


def test_degenerate_metric_raises():
    with pytest.raises(DegenerateMetricError):
        ricci_specialized_diag(Family.HEISENBERG, np.array([1.0, 1.0, -1.0]), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_specialized_rejects_non_finite_metric(bad):
    g = np.array([1.0, bad, 1.0])
    with pytest.raises(InvalidParameterError):
        ricci_specialized_diag(Family.HEISENBERG, g, 1)
    with pytest.raises(InvalidParameterError):
        scalar_specialized(Family.HEISENBERG, g, 1)
    with pytest.raises(InvalidParameterError):
        sigma_quaternion(np.r_[np.ones(6), bad], 1)


def test_specialized_rejects_n_below_one():
    with pytest.raises(InvalidParameterError):
        ricci_specialized_diag(Family.HEISENBERG, np.ones(1), 0)
    with pytest.raises(InvalidParameterError):
        scalar_specialized(Family.QUATERNION, np.ones(3), 0)


# --- printed component formulas (report only) ----------------------------

def test_literal_formulas_agree_on_these_algebras():
    # the index-unbalanced printed terms vanish identically on 2-step algebras
    rng = np.random.default_rng(11)
    for spec in (H1, Q1):
        d = rng.uniform(0.5, 2.0, spec.dim)
        r_dev, ric_dev, flagged = literal_discrepancy(spec, MetricState.from_diag(d))
        assert not flagged
        assert max(r_dev, ric_dev) < 1e-10


def test_literal_formulas_agree_q3():
    rng = np.random.default_rng(13)
    spec = build_group(Family.QUATERNION, 3)
    m = MetricState.from_diag(rng.uniform(0.5, 2.0, spec.dim))
    r_dev, ric_dev, flagged = literal_discrepancy(spec, m)
    assert not flagged
    assert max(r_dev, ric_dev) < 1e-10
    report = curvature_report(spec, m)
    assert literal_discrepancy(spec, m, report=report) == (r_dev, ric_dev, flagged)


def test_curvature_command_builds_no_riemann_tensor(tmp_path, monkeypatch):
    # the literal-formula report takes both tensors from their nonzero entries
    calls = []

    def counting(function):
        def wrapped(spec, metric):
            calls.append(function.__name__)
            return function(spec, metric)
        return wrapped

    monkeypatch.setattr(curvature_module, "riemann", counting(curvature_module.riemann))
    monkeypatch.setattr(curvature_module, "riemann_literal",
                        counting(curvature_module.riemann_literal))
    assert main(["curvature", "--family", "quaternion", "--n", "2",
                 "--g0", ",".join(["1.5"] * 8 + ["0.5"] * 3),
                 "--output", str(tmp_path / "cur.json")]) == 0
    assert calls == []


def test_curvature_command_memory_stays_below_one_d4_tensor(tmp_path):
    # Q6 (d = 27) is split into row blocks; a single d^4 float64 array is 4.25 MB
    dim = 27
    tracemalloc.start()
    try:
        assert main(["curvature", "--family", "quaternion", "--n", "6",
                     "--output", str(tmp_path / "cur.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim**4


def diagonal_metrics(dim, rng):
    """Entries spread over e^+-5, uniform(0.5, 2), identity, and one metric scaled by e^+-20."""
    base = rng.uniform(0.5, 2.0, dim)
    return [np.exp(rng.uniform(-5.0, 5.0, dim)), rng.uniform(0.5, 2.0, dim), np.ones(dim),
            np.exp(20.0) * base, np.exp(-20.0) * base]


@pytest.mark.parametrize("family, n", [(f, n) for f in Family for n in range(1, 13)])
def test_nonzero_entries_are_bitwise_the_whole_tensors(family, n):
    spec = build_group(family, n)
    dim = spec.dim
    for g0 in diagonal_metrics(dim, np.random.default_rng(200 + n)):
        metric = MetricState.from_diag(g0)
        keys, r, four_r = curvature_module._riemann_entries(spec, metric)
        whole = {}  # built one at a time: at Q12 (d = 51) each is 54 MB
        for name, entries in (("riemann", r), ("riemann_literal", four_r)):
            whole[name] = getattr(curvature_module, name)(spec, metric)
            scattered = np.zeros(dim**4)
            scattered[keys] = entries
            assert np.array_equal(scattered.reshape(whole[name].shape), whole[name]), name
            del scattered
        dev = whole["riemann_literal"]
        dev -= whole["riemann"]
        assert literal_discrepancy(spec, metric)[0] == float(np.abs(dev, out=dev).max())


def test_literal_discrepancy_rejects_a_non_diagonal_metric():
    metric = random_spd_metric(Q1.dim, np.random.default_rng(5))
    with pytest.raises(NotApplicableError):
        literal_discrepancy(Q1, metric)


def test_verify_command_builds_each_ricci_matrix_once(tmp_path, monkeypatch):
    calls = []
    original = curvature_module.ricci_general

    def counting_ricci(spec, metric):
        calls.append(metric)
        return original(spec, metric)

    monkeypatch.setattr(curvature_module, "ricci_general", counting_ricci)
    monkeypatch.setattr(checks_module, "ricci_general", counting_ricci)
    assert main(["verify", "--family", "heisenberg", "--n", "1",
                 "--output", str(tmp_path / "verify.json")]) == 0
    assert len(calls) == 25  # one per random metric of the oracle check
