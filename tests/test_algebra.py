import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import (
    DegenerateMetricError,
    Family,
    InvalidParameterError,
    MetricState,
    basis_vector,
    bracket,
    build_group,
    inner,
)


def test_heisenberg_1_structure():
    spec = build_group(Family.HEISENBERG, 1)
    assert spec.dim == 3
    assert spec.center_indices == (2,)
    assert spec.structure == ((0, 1, 2, 1.0),)
    c = spec.structure_dense
    assert c[0, 1, 2] == 1.0 and c[1, 0, 2] == -1.0


def test_heisenberg_3_structure():
    spec = build_group(Family.HEISENBERG, 3)
    assert spec.dim == 7
    assert len(spec.structure) == 3
    assert all(k == 6 for _, _, k, _ in spec.structure)


def test_quaternion_1_structure():
    spec = build_group(Family.QUATERNION, 1)
    assert spec.dim == 7
    assert len(spec.structure) == 6
    assert spec.center_indices == (4, 5, 6)
    # [X_11, X_21] = -Z_1
    assert np.allclose(bracket(spec, basis_vector(7, 0), basis_vector(7, 1)),
                       -basis_vector(7, 4))
    # [X_11, X_41] = Z_2, i.e. bracket(e1, e4) = e6 in 1-based labels
    assert np.allclose(bracket(spec, basis_vector(7, 0), basis_vector(7, 3)),
                       basis_vector(7, 5))


def test_bracket_h1():
    spec = build_group(Family.HEISENBERG, 1)
    e1, e2, e3 = (basis_vector(3, i) for i in range(3))
    assert np.allclose(bracket(spec, e1, e2), e3)
    assert np.allclose(bracket(spec, e2, e1), -e3)
    assert np.allclose(bracket(spec, e1, e1), 0.0)


def test_build_group_rejects_n_zero():
    with pytest.raises(InvalidParameterError):
        build_group(Family.HEISENBERG, 0)


def test_bracket_rejects_length_mismatch():
    spec = build_group(Family.HEISENBERG, 1)
    with pytest.raises(InvalidParameterError):
        bracket(spec, np.ones(4), np.ones(3))


@pytest.mark.parametrize("family,n", [
    (Family.HEISENBERG, 1), (Family.HEISENBERG, 2), (Family.HEISENBERG, 3),
    (Family.QUATERNION, 1), (Family.QUATERNION, 2), (Family.QUATERNION, 3),
])
def test_two_step_nilpotency_and_jacobi(family, n):
    spec = build_group(family, n)
    # all structure constants land in the center; center brackets vanish
    for i, j, k, _ in spec.structure:
        assert k in spec.center_indices
        assert i not in spec.center_indices and j not in spec.center_indices
    basis = [basis_vector(spec.dim, i) for i in range(spec.dim)]
    for x in basis:
        for y in basis:
            xy = bracket(spec, x, y)
            for z in basis:
                assert np.all(bracket(spec, xy, z) == 0.0)
                jac = (bracket(spec, bracket(spec, x, y), z)
                       + bracket(spec, bracket(spec, y, z), x)
                       + bracket(spec, bracket(spec, z, x), y))
                assert np.all(jac == 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=7, max_size=7),
       st.lists(st.floats(-10, 10), min_size=7, max_size=7),
       st.floats(-5, 5), st.floats(-5, 5))
def test_bracket_bilinear_antisymmetric(xs, ys, a, b):
    spec = build_group(Family.QUATERNION, 1)
    x, y = np.array(xs), np.array(ys)
    assert np.allclose(bracket(spec, x, y), -bracket(spec, y, x))
    lhs = bracket(spec, a * x + b * y, y)
    rhs = a * bracket(spec, x, y) + b * bracket(spec, y, y)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_inner_examples():
    m = MetricState.from_diag(np.ones(3))
    e1 = basis_vector(3, 0)
    assert inner(m, e1, e1) == 1.0
    m2 = MetricState.from_diag([2.0, 3.0, 5.0])
    assert inner(m2, basis_vector(3, 1), basis_vector(3, 1)) == 3.0
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert inner(m2, x, y) == pytest.approx(inner(m2, y, x), rel=1e-14)


def test_metric_state_validation():
    with pytest.raises(DegenerateMetricError):
        MetricState.from_diag([1.0, -1.0, 1.0])
    with pytest.raises(InvalidParameterError):
        MetricState(g=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        MetricState(g=np.array([[1.0, 0.1], [0.1, 1.0]]), diagonal_flag=True)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_metric_state_rejects_bad_flow_time(t):
    with pytest.raises(InvalidParameterError):
        MetricState.from_diag([1.0, 1.0, 1.0], t=t)


@pytest.mark.filterwarnings("error")  # rejected before numpy can warn or raise
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda bad: MetricState.from_diag([1.0, bad, 1.0]),
    lambda bad: MetricState(g=np.array([[2.0, bad, 0.0], [bad, 2.0, 0.0], [0.0, 0.0, 2.0]])),
], ids=["from_diag", "full"])
def test_metric_state_rejects_non_finite_entries(build, bad):
    with pytest.raises(InvalidParameterError, match="non-finite"):
        build(bad)


def test_metric_state_diagonal_fast_path():
    m = MetricState.from_diag([1.0, 2.0, 4.0])
    assert m.diagonal_flag
    assert np.allclose(m.inverse, np.diag([1.0, 0.5, 0.25]))
