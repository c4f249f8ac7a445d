import numpy as np
import pytest
from scipy.special import roots_jacobi

from baryeval import (
    DegenerateNodesError,
    InvalidInputError,
    InvalidSizeError,
    NodeKind,
    NodeSet,
    bary_weights,
    diff_matrix,
    generate_nodes,
    make_node_set,
)
from baryeval.fields import horner_derivative_coeffs, horner_eval
from baryeval.nodes import MAX_NODES, _node_set

ARRAYS = ("nodes", "weights", "d1", "d2")

ALL_KINDS = list(NodeKind)


def test_gll_small_cases():
    assert np.allclose(generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, 2), [-1, 1])
    # interior root of P'_2(x) = 3x is 0
    assert np.allclose(generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, 3), [-1, 0, 1])
    # roots of P'_3(x) = (15x^2 - 3)/2 are +-1/sqrt(5)
    got = generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, 4)
    s = 1 / np.sqrt(5)
    assert np.allclose(got, [-1, -s, s, 1], atol=1e-14)


def test_gauss_radau_small_cases():
    # (P_1 + P_2)/(1 + x) = (3x - 1)/2: root 1/3
    got = generate_nodes(NodeKind.GAUSS_RADAU_MINUS, 2)
    assert np.allclose(got, [-1, 1 / 3], atol=1e-14)
    # (P_2 + P_3)/(1 + x) = (5x^2 - 2x - 1)/2: roots (1 +- sqrt(6))/5
    got = generate_nodes(NodeKind.GAUSS_RADAU_MINUS, 3)
    r = np.sqrt(6)
    assert np.allclose(got, [-1, (1 - r) / 5, (1 + r) / 5], atol=1e-14)


def test_equispaced_and_chebyshev():
    assert np.allclose(generate_nodes(NodeKind.EQUISPACED, 3), [-1, 0, 1])
    got = generate_nodes(NodeKind.CHEBYSHEV_GAUSS_LOBATTO, 5)
    want = np.sort(np.cos(np.pi * np.arange(5) / 4))
    assert np.allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("n", range(2, MAX_NODES + 1))
def test_gll_matches_jacobi_roots(n):
    # interior GLL nodes are the roots of P'_{n-1}, i.e. of Jacobi(1,1)_{n-2}
    got = generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, n)
    want = roots_jacobi(n - 2, 1.0, 1.0)[0] if n > 2 else np.empty(0)
    assert np.max(np.abs(got[1:-1] - want), initial=0.0) < 1e-13
    assert got[0] == -1.0 and got[-1] == 1.0


@pytest.mark.parametrize("n", range(2, MAX_NODES + 1))
def test_gll_nodes_are_exactly_antisymmetric(n):
    got = generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, n)
    assert np.array_equal(got, -got[::-1])
    if n % 2:
        assert got[n // 2] == 0.0


@pytest.mark.parametrize("n", range(2, MAX_NODES + 1))
def test_gauss_radau_matches_jacobi_roots(n):
    # free Radau nodes are the roots of Jacobi(0,1)_{n-1}
    got = generate_nodes(NodeKind.GAUSS_RADAU_MINUS, n)
    want, _ = roots_jacobi(n - 1, 0.0, 1.0)
    assert np.max(np.abs(got[1:] - want)) < 1e-13
    assert got[0] == -1.0 and got[-1] < 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", range(2, MAX_NODES + 1))
def test_nodes_well_formed(kind, n):
    nodes = generate_nodes(kind, n)
    assert len(nodes) == n
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] >= -1.0 and nodes[-1] <= 1.0
    if kind != NodeKind.GAUSS_RADAU_MINUS:
        assert nodes[0] == -1.0 and nodes[-1] == 1.0


def test_node_count_bounds():
    with pytest.raises(InvalidSizeError):
        generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, 1)
    with pytest.raises(InvalidSizeError):
        generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, 65)


def test_bary_weights_examples():
    assert np.allclose(bary_weights([-1.0, 0.0, 1.0]), [0.5, -1.0, 0.5])
    assert np.allclose(bary_weights([-1.0, 1.0]), [0.5, -0.5])


def test_bary_weights_match_product_formula():
    rng = np.random.default_rng(7)
    for kind in ALL_KINDS:
        for n in (2, 5, 11, 21):
            nodes = generate_nodes(kind, n)
            got = bary_weights(nodes)
            # independent naive evaluation of the defining product
            for j in rng.choice(n, size=min(n, 4), replace=False):
                prod = 1.0
                for i in range(n):
                    if i != j:
                        prod *= nodes[i] - nodes[j]
                assert got[j] == pytest.approx(1.0 / prod, rel=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 3, 7, 16, 21])
def test_weight_signs_alternate(kind, n):
    w = bary_weights(generate_nodes(kind, n))
    assert np.all(w[:-1] * w[1:] < 0)


def test_duplicate_nodes_rejected():
    with pytest.raises(DegenerateNodesError):
        bary_weights([-1.0, 0.0, 0.0, 1.0])


# A division by zero must not stand in for a refusal.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nodes, weights", [
    ([-1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
    ([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]),
])
def test_diff_matrix_refuses_duplicate_nodes_and_zero_weights(nodes, weights):
    with pytest.raises(DegenerateNodesError):
        diff_matrix(nodes, weights)


def test_diff_matrix_examples():
    nodes = np.array([-1.0, 0.0, 1.0])
    d = diff_matrix(nodes, bary_weights(nodes))
    field = np.array([1.0, 0.0, 1.0])  # samples of eta^2
    assert np.allclose(d @ field, [-2.0, 0.0, 2.0], atol=1e-14)
    assert np.allclose(d @ np.ones(3), 0.0, atol=1e-14)
    assert np.allclose((d @ d) @ field, [2.0, 2.0, 2.0], atol=1e-13)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 4, 9, 15, 21])
def test_diff_matrix_exact_for_polynomials(kind, n):
    rng = np.random.default_rng(n)
    ns = make_node_set(kind, n)
    for _ in range(5):
        coeffs = rng.uniform(-1, 1, size=n)
        dcoeffs = horner_derivative_coeffs(coeffs)
        p = np.array([horner_eval(coeffs, z) for z in ns.nodes])
        dp = np.array([horner_eval(dcoeffs, z) for z in ns.nodes])
        scale = max(1.0, np.max(np.abs(dp)))
        assert np.max(np.abs(ns.d1 @ p - dp)) <= 1e-10 * scale


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 6, 9, 12])
def test_row_sums_vanish(kind, n):
    ns = make_node_set(kind, n)
    assert np.max(np.abs(ns.d1.sum(axis=1))) <= 1e-12
    assert np.max(np.abs(ns.d2.sum(axis=1))) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [16, 22])
def test_row_sums_vanish_large_n(kind, n):
    # beyond n ~ 12 the achievable cancellation is bounded by the row mass
    ns = make_node_set(kind, n)
    for mat in (ns.d1, ns.d2):
        floor = 64 * np.finfo(float).eps * np.abs(mat).sum(axis=1)
        assert np.all(np.abs(mat.sum(axis=1)) <= np.maximum(floor, 1e-12))


def test_d2_is_d1_squared():
    for kind in ALL_KINDS:
        ns = make_node_set(kind, 9)
        prod = ns.d1 @ ns.d1
        scale = np.max(np.abs(prod))
        assert np.max(np.abs(ns.d2 - prod)) <= 1e-12 * scale


def test_nodeset_arrays_immutable():
    ns = make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5)
    with pytest.raises(ValueError):
        ns.nodes[0] = 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_node_sets_are_built_once_and_shared(kind):
    ns = make_node_set(kind, 7)
    assert make_node_set(kind, 7) is ns
    assert make_node_set(kind, np.int64(7)) is ns
    assert make_node_set(kind, np.int32(7)) is ns
    assert make_node_set(kind, 8) is not ns


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_shared_arrays_cannot_be_made_writeable(kind):
    ns = make_node_set(kind, 6)
    for name in ARRAYS:
        with pytest.raises(ValueError):
            getattr(ns, name).setflags(write=True)
        with pytest.raises(ValueError):
            getattr(ns, name)[0] = 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 7, 16, 64])
def test_shared_node_set_matches_a_fresh_build(kind, n):
    shared, fresh = make_node_set(kind, n), _node_set.__wrapped__(kind, n)
    assert fresh is not shared
    for name in ARRAYS:
        a, b = getattr(shared, name), getattr(fresh, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_node_set_cache_is_bounded():
    for kind in ALL_KINDS:
        for n in range(2, MAX_NODES + 1):
            make_node_set(kind, n)
        for bad in (1, MAX_NODES + 1):
            with pytest.raises(InvalidSizeError):
                make_node_set(kind, bad)
    assert _node_set.cache_info().currsize <= len(ALL_KINDS) * (MAX_NODES - 1) == 252


@pytest.mark.parametrize("size", [5.0, 2.5, "5", None])
def test_non_integer_sizes_are_refused(size):
    with pytest.raises(InvalidSizeError, match="integer"):
        make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, size)
    with pytest.raises(InvalidSizeError, match="integer"):
        generate_nodes(NodeKind.GAUSS_LOBATTO_LEGENDRE, size)


@pytest.mark.parametrize("kind", ["gll", None, [NodeKind.EQUISPACED]])
def test_unknown_kinds_are_refused(kind):
    with pytest.raises(InvalidSizeError, match="unknown node kind"):
        make_node_set(kind, 5)


def test_node_sets_compare_and_hash_by_identity():
    gll5 = make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5)
    assert gll5 == make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5)
    assert gll5 != make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 6)
    assert gll5 != _node_set.__wrapped__(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5)
    assert {gll5: 1}[make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5)] == 1


def test_node_set_copies_the_arrays_it_is_given():
    ns = make_node_set(NodeKind.EQUISPACED, 3)
    arrays = [getattr(ns, name).copy() for name in ARRAYS]
    own = NodeSet(NodeKind.EQUISPACED, *arrays)
    for name, a in zip(ARRAYS, arrays):
        assert a.flags.writeable
        a[0] = 7.0
        assert np.array_equal(getattr(own, name), getattr(ns, name))


def test_node_set_refuses_arrays_that_disagree():
    # Two weights for three nodes used to build, and tensor_evaluate on that
    # set returned 2.1304... for the linear field whose value is 2.3.
    eye = np.eye(3)
    for arrays in (([-1.0, 0.0, 1.0], [0.5, -1.0], eye, eye),
                   ([-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], eye, eye),
                   ([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5], eye, eye),
                   ([-1.0, 0.0, 1.0], [0.5, -1.0, 0.5], np.eye(2), eye),
                   ([-1.0, 0.0, 1.0], [0.5, -1.0, 0.5], eye, np.full((3, 3), np.inf))):
        with pytest.raises(InvalidInputError):
            NodeSet(NodeKind.EQUISPACED, *arrays)

