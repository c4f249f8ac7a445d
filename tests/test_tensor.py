import numpy as np
import pytest

from baryeval import (
    CollocationError,
    FieldValues,
    InvalidInputError,
    NodeKind,
    TensorBasis,
    make_node_set,
    multi_bary_direct,
    sample_on_grid,
    tensor_evaluate,
)
from baryeval.kernel import counters
from baryeval.tensor import eta_grid


def _basis(counts, kinds=None):
    kinds = kinds or [NodeKind.GAUSS_LOBATTO_LEGENDRE] * len(counts)
    return TensorBasis(tuple(make_node_set(k, n) for k, n in zip(kinds, counts)))


def _random_tensor_poly(rng, counts):
    """Random polynomial with per-dimension degree n_q - 1; brute-force oracle."""
    coeffs = rng.uniform(-1, 1, size=tuple(reversed(counts)))

    def f(eta):
        val = 0.0
        for idx in np.ndindex(*coeffs.shape):
            term = coeffs[idx]
            for q, j in enumerate(reversed(idx)):
                term *= eta[q] ** j
            val += term
        return val

    return f


def test_grid_ordering_dimension_one_fastest():
    basis = _basis((2, 3))
    grid = eta_grid(basis)
    # first index varies fastest: consecutive points differ in eta_1 first
    assert grid.shape == (6, 2)
    assert grid[0][1] == grid[1][1]
    assert grid[0][0] != grid[1][0]


def test_separable_quadratic_2d():
    basis = _basis((3, 3))
    field = sample_on_grid(basis, lambda e: e[0] ** 2 + e[1] ** 2)
    res = tensor_evaluate(basis, field, [0.5, -0.5], gradient=True)
    assert res.value == pytest.approx(0.5, abs=1e-14)
    assert res.d1 == pytest.approx([1.0, -1.0], abs=1e-13)


def test_constant_3d():
    basis = _basis((3, 4, 3))
    field = sample_on_grid(basis, lambda e: 7.0)
    res = tensor_evaluate(basis, field, [0.3, -0.2, 0.9], gradient=True)
    assert res.value == pytest.approx(7.0, rel=1e-14)
    assert np.max(np.abs(res.d1)) <= 1e-12


def test_grid_point_returns_stored_value():
    rng = np.random.default_rng(3)
    basis = _basis((4, 3))
    field = FieldValues(rng.uniform(-1, 1, size=12))
    grid = eta_grid(basis)
    for idx in (0, 5, 11):
        res = tensor_evaluate(basis, field, grid[idx])
        assert res.value == field.data[idx]  # collocation propagates exactly


@pytest.mark.parametrize(
    "counts,kinds",
    [
        ((5, 4), (NodeKind.GAUSS_LOBATTO_LEGENDRE, NodeKind.GAUSS_RADAU_MINUS)),
        ((4, 3, 5), (NodeKind.GAUSS_LOBATTO_LEGENDRE,
                     NodeKind.CHEBYSHEV_GAUSS_LOBATTO,
                     NodeKind.GAUSS_RADAU_MINUS)),
    ],
)
def test_exactness_on_tensor_polynomials(counts, kinds):
    rng = np.random.default_rng(42)
    basis = _basis(counts, kinds)
    f = _random_tensor_poly(rng, counts)
    field = sample_on_grid(basis, f)
    for _ in range(50):
        eta = rng.uniform(-1, 1, size=len(counts))
        want = f(eta)
        got = tensor_evaluate(basis, field, eta).value
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("counts,kinds", [
    ((5, 6), None),
    ((4, 3, 4), None),
    ((9,), None),
    ((7, 5, 6), (NodeKind.GAUSS_RADAU_MINUS, NodeKind.CHEBYSHEV_GAUSS_LOBATTO,
                 NodeKind.EQUISPACED)),
], ids=["counts0", "counts1", "counts2", "counts3"])
def test_agreement_with_direct_form(counts, kinds):
    rng = np.random.default_rng(11)
    basis = _basis(counts, kinds)
    for _ in range(50):
        field = FieldValues(rng.uniform(-1, 1, size=int(np.prod(counts))))
        eta = rng.uniform(-0.95, 0.95, size=len(counts))
        # keep a conditioning margin from every grid line
        if any(np.min(np.abs(ax.nodes - eta[q])) < 1e-2
               for q, ax in enumerate(basis.axes)):
            continue
        a = tensor_evaluate(basis, field, eta).value
        b = multi_bary_direct(basis, field, eta)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_direct_form_1d_matches_kernel():
    rng = np.random.default_rng(4)
    basis = _basis((7,))
    field = FieldValues(rng.uniform(-1, 1, size=7))
    for eta in (-0.513, 0.222, 0.87):
        a = tensor_evaluate(basis, field, [eta]).value
        b = multi_bary_direct(basis, field, [eta])
        assert a == pytest.approx(b, rel=1e-13)


def test_direct_form_constant():
    basis = _basis((3, 3))
    field = sample_on_grid(basis, lambda e: 2.5)
    assert multi_bary_direct(basis, field, [0.3, 0.4]) == pytest.approx(2.5, rel=1e-13)


def test_direct_form_collocated_rejected():
    basis = _basis((3, 3))
    field = sample_on_grid(basis, lambda e: 1.0)
    with pytest.raises(CollocationError):
        multi_bary_direct(basis, field, [0.0, 0.5])  # eta_1 on a grid line


def test_kernel_reduction_counts():
    rng = np.random.default_rng(0)
    basis2 = _basis((5, 4))
    field2 = FieldValues(rng.uniform(-1, 1, size=20))
    basis3 = _basis((3, 4, 5))
    field3 = FieldValues(rng.uniform(-1, 1, size=60))
    counters.enabled = True
    try:
        counters.reset()
        tensor_evaluate(basis2, field2, [0.11, 0.22], gradient=True)
        assert counters.kernel_calls == 4 + 2
        counters.reset()
        tensor_evaluate(basis2, field2, [0.11, 0.22])
        assert counters.kernel_calls == 4 + 1
        counters.reset()
        tensor_evaluate(basis3, field3, [0.11, 0.22, 0.33], gradient=True)
        assert counters.kernel_calls == 4 * 5 + 2 * 5 + 3
        counters.reset()
        tensor_evaluate(basis3, field3, [0.11, 0.22, 0.33])
        assert counters.kernel_calls == 4 * 5 + 5 + 1
    finally:
        counters.enabled = False


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    basis = _basis((5, 5, 4))
    f = _random_tensor_poly(rng, (5, 5, 4))
    field = sample_on_grid(basis, f)
    h = 1e-5
    for _ in range(5):
        eta = rng.uniform(-0.9, 0.9, size=3)
        res = tensor_evaluate(basis, field, eta, gradient=True)
        for q in range(3):
            step = np.zeros(3)
            step[q] = h
            fd = (tensor_evaluate(basis, field, eta + step).value
                  - tensor_evaluate(basis, field, eta - step).value) / (2 * h)
            assert res.d1[q] == pytest.approx(fd, abs=1e-6)


def test_input_validation():
    basis = _basis((3, 3))
    field = sample_on_grid(basis, lambda e: 0.0)
    with pytest.raises(InvalidInputError):
        tensor_evaluate(basis, field, [0.1])
    with pytest.raises(InvalidInputError):
        tensor_evaluate(basis, FieldValues(np.zeros(5)), [0.1, 0.2])
    with pytest.raises(InvalidInputError):
        TensorBasis(tuple(make_node_set(NodeKind.EQUISPACED, 3) for _ in range(4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_refused(bad):
    basis = _basis((4, 5, 3))
    field = FieldValues(np.ones(basis.size))
    for q in range(3):
        eta = np.array([0.3, -0.2, 0.1])
        eta[q] = bad
        for gradient in (False, True):
            with pytest.raises(InvalidInputError):
                tensor_evaluate(basis, field, eta, gradient=gradient)
        with pytest.raises(InvalidInputError):
            multi_bary_direct(basis, field, eta)


def test_field_values_copy_the_callers_samples():
    a = np.ones(25)
    field = FieldValues(a)
    a[0] = 2.0
    assert a.flags.writeable
    assert field.data[0] == 1.0
    with pytest.raises(ValueError):
        field.data.setflags(write=True)


def test_field_values_compare_and_hash_by_identity():
    f, g = FieldValues(np.ones(25)), FieldValues(np.ones(25))
    assert f == f and f != g
    assert len({f, g, f}) == 2
