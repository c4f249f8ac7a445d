import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryeval import (
    ElementEvaluator,
    FieldValues,
    InvalidInputError,
    NodeKind,
    NodeSet,
    Shape,
    TensorBasis,
    bary_evaluate,
    diff_matrix,
    make_node_set,
    tensor_evaluate,
)
from baryeval.fields import horner_derivative_coeffs, horner_eval
from baryeval.kernel import SNAP_TOL, _axis_rows, _float_rows, counters

ALL_KINDS = list(NodeKind)


@pytest.fixture
def ns3():
    return make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_refused(ns3, bad):
    with pytest.raises(InvalidInputError):
        bary_evaluate(ns3, [1.0, 0.0, 1.0], bad, deriv=2)


def test_bary_evaluate_quadratic(ns3):
    vals = [1.0, 0.0, 1.0]  # eta^2 on {-1, 0, 1}
    res = bary_evaluate(ns3, vals, 0.5, deriv=2)
    assert res.value == pytest.approx(0.25, abs=1e-14)
    assert res.d1[0] == pytest.approx(1.0, abs=1e-13)
    assert res.d2 == pytest.approx(2.0, abs=1e-12)


def test_bary_evaluate_collocated(ns3):
    vals = [1.0, 0.0, 1.0]
    res = bary_evaluate(ns3, vals, 0.0, deriv=2)
    assert res.value == 0.0  # stored value, exactly
    assert res.d1[0] == pytest.approx(0.0, abs=1e-14)
    assert res.d2 == pytest.approx(2.0, abs=1e-13)


def test_bary_evaluate_constant(ns3):
    res = bary_evaluate(ns3, [3.25] * 3, 0.7321, deriv=2)
    assert res.value == pytest.approx(3.25, rel=1e-14)
    assert res.d1[0] == pytest.approx(0.0, abs=1e-12)
    assert res.d2 == pytest.approx(0.0, abs=1e-12)


def test_derivative_request_levels(ns3):
    res = bary_evaluate(ns3, [1.0, 0.0, 1.0], 0.5)
    assert res.d1 is None and res.d2 is None
    res = bary_evaluate(ns3, [1.0, 0.0, 1.0], 0.5, deriv=1)
    assert res.d1 is not None and res.d2 is None
    with pytest.raises(InvalidInputError):
        bary_evaluate(ns3, [1.0, 0.0, 1.0], 0.5, deriv=3)


def test_length_mismatch(ns3):
    with pytest.raises(InvalidInputError):
        bary_evaluate(ns3, [1.0, 2.0], 0.5)


def _random_eta(rng, nodes, min_dist):
    while True:
        eta = rng.uniform(-1, 1)
        if np.min(np.abs(nodes - eta)) >= min_dist:
            return eta


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 3, 6, 11, 21])
def test_polynomial_exactness_vs_horner(kind, n):
    rng = np.random.default_rng(100 * n)
    ns = make_node_set(kind, n)
    for _ in range(4):
        coeffs = rng.uniform(-1, 1, size=n)
        vals = [horner_eval(coeffs, z) for z in ns.nodes]
        for _ in range(25):
            eta = rng.uniform(-1, 1)
            want = horner_eval(coeffs, eta)
            got = bary_evaluate(ns, vals, eta).value
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [3, 7, 14, 21])
def test_derivative_consistency_vs_horner(kind, n):
    # points are kept a small distance off the nodes: both derivative forms
    # lose digits as the query approaches a node
    rng = np.random.default_rng(13 * n)
    ns = make_node_set(kind, n)
    coeffs = rng.uniform(-1, 1, size=n)
    d1c = horner_derivative_coeffs(coeffs)
    d2c = horner_derivative_coeffs(d1c)
    vals = [horner_eval(coeffs, z) for z in ns.nodes]
    for _ in range(40):
        eta = _random_eta(rng, ns.nodes, 1e-4)
        res = bary_evaluate(ns, vals, eta, deriv=2)
        want1 = horner_eval(d1c, eta)
        want2 = horner_eval(d2c, eta)
        assert abs(res.d1[0] - want1) <= 1e-10 * max(1.0, abs(want1))
        assert abs(res.d2 - want2) <= 1e-8 * max(1.0, abs(want2))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_collocation_continuity(kind):
    rng = np.random.default_rng(5)
    ns = make_node_set(kind, 9)
    vals = rng.uniform(-1, 1, size=9)
    scale = max(1.0, np.max(np.abs(vals)))
    for j, z in enumerate(ns.nodes):
        for eps in (-1e-9, 1e-9):
            eta = z + eps
            if abs(eta) > 1.0:
                continue
            got = bary_evaluate(ns, vals, eta).value
            assert abs(got - vals[j]) <= 1e-6 * scale


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [2, 5, 12])
def test_nodes_reproduce_stored_values_exactly(kind, n):
    rng = np.random.default_rng(n)
    ns = make_node_set(kind, n)
    vals = rng.uniform(-1, 1, size=n)
    for j, z in enumerate(ns.nodes):
        res = bary_evaluate(ns, vals, z, deriv=2)
        assert res.value == vals[j]  # bit-for-bit
        assert res.d1[0] == pytest.approx(float(ns.d1[j] @ vals), abs=1e-14)
        assert res.d2 == pytest.approx(float(ns.d2[j] @ vals), abs=1e-14)


def _entry_points(ns, vals):
    """The entry points as eta -> EvalResult; tensor_evaluate gives no p''.

    The 1D ones reduce their one line with `kernel._reduce_lines`.  The 2D
    one holds the samples constant along a second axis (GLL, 4 nodes), so
    axis 1, the line of eta, is a product axis: its l' is the array that
    `kernel._axis_rows` builds, and d1[0] is p'(eta).
    """
    ev = ElementEvaluator(Shape.SEGMENT, TensorBasis((ns,)), FieldValues(vals))
    basis2 = TensorBasis((ns, make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 4)))
    field2 = FieldValues(np.tile(vals, 4))
    return {"bary_evaluate": lambda eta: bary_evaluate(ns, vals, eta, deriv=2),
            "phys_evaluate_1d": lambda eta: ev.phys_evaluate_1d(eta, deriv=2),
            "tensor_evaluate": lambda eta: tensor_evaluate(ev.basis, ev.field, [eta],
                                                           gradient=True),
            "tensor_evaluate_2d": lambda eta: tensor_evaluate(basis2, field2, [eta, 0.3],
                                                              gradient=True)}


def _check_derivatives_next_to_a_node(ns, coeffs):
    # offsets from 1e-15 to 1e-3 on both sides of every node, through every
    # entry point (tensor_evaluate gives p' only); the rows take one
    # formula at every offset above SNAP_TOL.  The bound is that of the
    # property test below: 1e-9 |p^(k)|, the rounding floor of the rows at the
    # node and, within SNAP_TOL, the collocated branch's error h |p^(k+1)|
    d1c = horner_derivative_coeffs(coeffs)
    d2c = horner_derivative_coeffs(d1c)
    d3c = horner_derivative_coeffs(d2c)
    vals = [horner_eval(coeffs, z) for z in ns.nodes]
    floors = [np.abs(dk) @ np.abs(vals) for dk in (ns.d1, ns.d2)]
    offsets = [s * 10.0**-e for e in range(3, 16) for s in (1.0, -1.0)]
    offsets += [s * 1e-8 * f for f in (0.999, 1.001) for s in (1.0, -1.0)]
    for entry, evaluate in _entry_points(ns, vals).items():
        for i, z in enumerate(ns.nodes):
            floor1, floor2 = 1e-14 * floors[0][i], 1e-14 * floors[1][i]
            for off in offsets:
                eta = z + off
                if abs(eta) > 1.0:
                    continue
                res = evaluate(eta)
                h = abs(eta - z)
                snap = h if h <= SNAP_TOL else 0.0
                want1, want2, want3 = (horner_eval(c, eta) for c in (d1c, d2c, d3c))
                tol1 = 1e-9 * max(1.0, abs(want1)) + floor1 + snap * abs(want2)
                tol2 = 1e-9 * max(1.0, abs(want2)) + floor2 + snap * abs(want3)
                assert abs(res.d1[0] - want1) <= tol1, (entry, z, off)
                if res.d2 is not None:
                    assert abs(res.d2 - want2) <= tol2, (entry, z, off)
            # continuity across 1e-8: two floors, plus the change of p^(k)
            # itself over the step, |step| |p^(k+1)|
            for s in (1.0, -1.0):
                if abs(z + s * 1e-8) > 1.0:
                    continue
                etas = [z + s * 1e-8 * f for f in (0.999, 1.001)]
                below, above = (evaluate(eta) for eta in etas)
                step = abs(etas[1] - etas[0])
                want2, want3 = (horner_eval(c, etas[1]) for c in (d2c, d3c))
                assert abs(below.d1[0] - above.d1[0]) <= \
                    1e-9 * max(1.0, abs(above.d1[0])) + 2.0 * floor1 + step * abs(want2)
                if below.d2 is not None:
                    assert abs(below.d2 - above.d2) <= \
                        1e-9 * max(1.0, abs(above.d2)) + 2.0 * floor2 + step * abs(want3)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [5, 12, 21])
def test_derivatives_next_to_a_node(kind, n):
    coeffs = np.random.default_rng(7 * n).uniform(-1, 1, size=n)
    _check_derivatives_next_to_a_node(make_node_set(kind, n), coeffs)


def test_derivatives_next_to_a_node_seed_876():
    # regression input: on 21 equispaced nodes this polynomial's p'' next to
    # the end nodes lies above 1e-9 |p''| but within the rounding floor
    coeffs = np.random.default_rng(876).uniform(-1, 1, size=21)
    _check_derivatives_next_to_a_node(make_node_set(NodeKind.EQUISPACED, 21), coeffs)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_float_rows_match_axis_rows(kind):
    # the two forms of the one row formula, l and l', on the offset grid of
    # the tests above: entry k of l' takes the cancellation-free form in both,
    # and l alone is the NumPy quotient.  Both return unnormalised rows and
    # their scale g; g times the rows are compared.
    for n in (5, 12, 21):
        ns = make_node_set(kind, n)
        z, w = ns.floats
        offsets = [s * 10.0**-e for e in range(3, 16) for s in (1.0, -1.0)]
        for node in ns.nodes:
            for off in offsets:
                eta = float(node + off)
                if abs(eta) > 1.0:
                    continue
                for deriv in (0, 1):
                    rows, scale, snapped = _axis_rows(ns, eta, deriv)
                    want = scale * np.atleast_2d(rows)
                    k, g, rows = _float_rows(z, w, eta, deriv)
                    if not rows:
                        assert snapped == z[k] and scale == 1.0
                        assert np.array_equal(want[0], np.eye(n)[k])
                        continue
                    assert snapped == eta
                    got = g * np.array(rows)
                    scale = np.abs(want).max(axis=1, keepdims=True)
                    assert np.all(np.abs(got - want) <= 1e-13 * scale), (n, node, off)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n=st.sampled_from([5, 12, 21]),
    node=st.integers(0, 20),
    exponent=st.floats(min_value=3.0, max_value=15.0),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 1000),
)
def test_derivatives_next_to_a_node_property(kind, n, node, exponent, sign, seed):
    # the offset scan above as a property: any offset 1e-15..1e-3 from any
    # node, against Horner, through every entry point.  The bound adds to
    # 1e-9 |p^(k)| the rounding floor of the rows at the node, eps-scaled
    # sum_j |D_k[i, j] y_j| (near the ends of an equispaced set it lies far
    # above 1e-9 |p^(k)|), and, within SNAP_TOL, the collocated branch's
    # error h |p^(k+1)|
    ns = make_node_set(kind, n)
    i = node % n
    coeffs = np.random.default_rng(seed).uniform(-1, 1, size=n)
    d1c = horner_derivative_coeffs(coeffs)
    d2c = horner_derivative_coeffs(d1c)
    d3c = horner_derivative_coeffs(d2c)
    vals = [horner_eval(coeffs, z) for z in ns.nodes]
    eta = ns.nodes[i] + sign * 10.0**-exponent
    if abs(eta) > 1.0:
        eta = ns.nodes[i] - sign * 10.0**-exponent
    h = abs(eta - ns.nodes[i])
    snap = h if h <= SNAP_TOL else 0.0
    want1, want2, want3 = (horner_eval(c, eta) for c in (d1c, d2c, d3c))
    floor1, floor2 = (float(np.abs(dk[i]) @ np.abs(vals)) for dk in (ns.d1, ns.d2))
    tol1 = 1e-9 * max(1.0, abs(want1)) + 1e-14 * floor1 + snap * abs(want2)
    tol2 = 1e-9 * max(1.0, abs(want2)) + 1e-14 * floor2 + snap * abs(want3)
    for entry, evaluate in _entry_points(ns, vals).items():
        res = evaluate(eta)
        assert abs(res.d1[0] - want1) <= tol1, entry
        if res.d2 is not None:
            assert abs(res.d2 - want2) <= tol2, entry


def test_division_count_is_linear():
    ns = make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 17)
    vals = np.arange(17.0)
    counters.enabled = True
    counters.reset()
    try:
        bary_evaluate(ns, vals, 0.1234, deriv=2)
        assert counters.kernel_calls == 1
        assert counters.divisions <= 3 * 17 + 8
        counters.reset()
        bary_evaluate(ns, vals, 0.1234)
        assert counters.divisions <= 17 + 2
    finally:
        counters.enabled = False


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(min_value=-8.0, max_value=8.0).filter(lambda v: abs(v) > 1e-3),
    seed=st.integers(0, 1000),
)
def test_weight_scaling_invariance(c, seed):
    # rescaling all weights by a common factor cancels in every ratio
    rng = np.random.default_rng(seed)
    base = make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 8)
    w = base.weights * c
    d1 = diff_matrix(base.nodes, w)
    scaled = NodeSet(base.kind, base.nodes.copy(), w, d1, d1 @ d1)
    vals = rng.uniform(-1, 1, size=8)
    eta = rng.uniform(-0.99, 0.99)
    a = bary_evaluate(base, vals, eta, deriv=2)
    b = bary_evaluate(scaled, vals, eta, deriv=2)
    assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
    assert a.d1[0] == pytest.approx(b.d1[0], rel=1e-9, abs=1e-9)
    assert a.d2 == pytest.approx(b.d2, rel=1e-7, abs=1e-7)
