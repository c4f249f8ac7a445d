import numpy as np
import pytest

from baryeval import (
    ALL_SHAPES,
    ElementEvaluator,
    InvalidInputError,
    NodeKind,
    OutOfRegionError,
    Shape,
    SingularCollapseError,
    axis_kinds,
    basis_for_order,
    basis_for_shape,
    make_node_set,
    benchmark_field,
    sample_field,
    xi_grid,
)
from baryeval.fields import (
    exact_multi_indices,
    monomial_field,
    random_interior_point,
    singular_distance,
)
from baryeval.kernel import SNAP_TOL, counters
from baryeval.bench import Q_VALUE, Q_VALUE_D1, _BarySweep
from baryeval.shapes import (
    SHAPE_SPECS, SINGULAR_TOL, _chain_rule, centroid, collapse, collapse_floats, dim_of, expand)
from baryeval.tensor import TensorBasis, tensor_evaluate

GLL = NodeKind.GAUSS_LOBATTO_LEGENDRE
RADAU = NodeKind.GAUSS_RADAU_MINUS


def test_axis_kinds_avoid_the_singular_endpoint():
    assert axis_kinds(Shape.SEGMENT) == (GLL,)
    assert axis_kinds(Shape.QUAD) == (GLL, GLL)
    assert axis_kinds(Shape.TRI) == (GLL, RADAU)
    assert axis_kinds(Shape.HEX) == (GLL, GLL, GLL)
    assert axis_kinds(Shape.PRISM) == (GLL, RADAU, GLL)
    assert axis_kinds(Shape.PYR) == (GLL, GLL, RADAU)
    assert axis_kinds(Shape.TET) == (GLL, RADAU, RADAU)


def test_order_to_points_convention():
    basis = basis_for_order(Shape.TRI, 5)
    assert basis.counts == (7, 7)  # order P uses P + 2 points per axis


def test_tet_benchmark_field():
    fld = benchmark_field(3)
    ev = ElementEvaluator.for_order(Shape.TET, 4, fld.eval)
    res = ev.phys_evaluate([-0.5, -0.5, -0.5], gradient=True)
    assert res.value == pytest.approx(0.25, abs=1e-12)
    assert res.d1 == pytest.approx([-1.0, -1.0, 1.0], abs=1e-11)


def test_tri_benchmark_field():
    fld = benchmark_field(2)
    ev = ElementEvaluator.for_order(Shape.TRI, 4, fld.eval)
    res = ev.phys_evaluate([-0.5, -0.5], gradient=True)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.d1 == pytest.approx([-1.0, -1.0], abs=1e-11)


def test_constant_field_everywhere():
    for shape in ALL_SHAPES:
        ev = ElementEvaluator.for_order(shape, 3, lambda xi: 4.5)
        xi = random_interior_point(shape, np.random.default_rng(1),
                                   singular_margin=0.05)
        res = ev.phys_evaluate(xi, gradient=True)
        assert res.value == pytest.approx(4.5, rel=1e-13)
        assert np.max(np.abs(res.d1)) <= 1e-11
        # value also works on the singular face through the degenerate branch
        if shape is Shape.TRI:
            assert ev.phys_evaluate([-1.0, 1.0]).value == pytest.approx(4.5, rel=1e-12)


def test_segment_second_derivative():
    ev = ElementEvaluator.for_order(Shape.SEGMENT, 4, lambda xi: xi[0] ** 2)
    res = ev.phys_evaluate_1d(0.5, deriv=2)
    assert res.value == pytest.approx(0.25, abs=1e-13)
    assert res.d1[0] == pytest.approx(1.0, abs=1e-12)
    assert res.d2 == pytest.approx(2.0, abs=1e-11)
    node = ev.basis.axes[0].nodes[2]
    res = ev.phys_evaluate_1d(node, deriv=2)
    assert res.value == ev.field.data[2]


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_exactness_inside_the_set(shape):
    rng = np.random.default_rng(7)
    k = 4
    basis = basis_for_shape(shape, k + 1)
    alphas = exact_multi_indices(shape, k)
    picks = rng.choice(len(alphas), min(8, len(alphas)), replace=False)
    for alpha in [alphas[i] for i in picks]:
        fld = monomial_field(alpha)
        ev = ElementEvaluator(shape, basis, sample_field(shape, basis, fld.eval))
        for _ in range(8):
            xi = random_interior_point(shape, rng, margin=1e-3)
            want = fld.eval(xi)
            got = ev.phys_evaluate(xi).value
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


_WITNESS = {
    Shape.SEGMENT: (5,),
    Shape.QUAD: (5, 0),
    Shape.TRI: (0, 5),
    Shape.HEX: (0, 0, 5),
    Shape.PRISM: (0, 0, 5),
    Shape.PYR: (0, 0, 5),
    Shape.TET: (0, 0, 5),
}


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_inexactness_witness(shape):
    # one constrained degree sum exceeding k by one must break exactness
    rng = np.random.default_rng(11)
    k = 4
    alpha = _WITNESS[shape]
    assert not __import__("baryeval").exactness_contains(shape, [k] * dim_of(shape), alpha)
    fld = monomial_field(alpha)
    basis = basis_for_shape(shape, k + 1)
    ev = ElementEvaluator(shape, basis, sample_field(shape, basis, fld.eval))
    errs = []
    for _ in range(10):
        xi = random_interior_point(shape, rng, margin=0.01)
        errs.append(abs(ev.phys_evaluate(xi).value - fld.eval(xi)))
    assert max(errs) > 1e-6


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_gradient_matches_finite_differences(shape):
    rng = np.random.default_rng(3)
    fld = benchmark_field(dim_of(shape))
    ev = ElementEvaluator.for_order(shape, 6, fld.eval)
    h = 1e-5
    for _ in range(8):
        xi = random_interior_point(shape, rng, margin=0.05, singular_margin=0.1)
        grad = ev.phys_evaluate(xi, gradient=True).d1
        for q in range(dim_of(shape)):
            step = np.zeros(dim_of(shape))
            step[q] = h
            fd = (fld.eval(xi + step) - fld.eval(xi - step)) / (2 * h)
            assert abs(grad[q] - fd) <= 1e-6


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("order", [3, 8])
def test_grid_points_return_stored_values(shape, order):
    rng = np.random.default_rng(order)
    basis = basis_for_order(shape, order)
    from baryeval import FieldValues

    field = FieldValues(rng.uniform(-1, 1, size=basis.size))
    ev = ElementEvaluator(shape, basis, field)
    grid = xi_grid(shape, basis)
    for idx in rng.choice(len(grid), min(12, len(grid)), replace=False):
        assert ev.phys_evaluate(grid[idx]).value == field.data[idx]


def test_out_of_region_rejected():
    ev = ElementEvaluator.for_order(Shape.TRI, 3, lambda xi: 0.0)
    with pytest.raises(OutOfRegionError):
        ev.phys_evaluate([0.5, 0.6])


def test_gradient_at_singular_face_raises():
    ev = ElementEvaluator.for_order(Shape.TRI, 3, lambda xi: 0.0)
    with pytest.raises(SingularCollapseError):
        ev.phys_evaluate([-1.0, 1.0], gradient=True)


def test_basis_validation():
    basis = basis_for_order(Shape.TRI, 3)
    with pytest.raises(InvalidInputError):
        ElementEvaluator(Shape.TET, basis, sample_field(Shape.TRI, basis, lambda x: 0.0))
    # a GLL axis where the collapse needs Radau is rejected (+1 is singular)
    bad = TensorBasis((make_node_set(GLL, 5), make_node_set(GLL, 5)))
    from baryeval import FieldValues

    with pytest.raises(InvalidInputError):
        ElementEvaluator(Shape.TRI, bad, FieldValues(np.zeros(25)))


def test_weight_storage_is_linear_per_axis():
    for shape in ALL_SHAPES:
        for order in (2, 5, 9):
            ev = ElementEvaluator.for_order(shape, order, lambda xi: 0.0)
            assert ev.weight_storage() == dim_of(shape) * (order + 2)


def test_phys_evaluate_1d_only_for_segments():
    ev = ElementEvaluator.for_order(Shape.QUAD, 2, lambda xi: 0.0)
    with pytest.raises(InvalidInputError):
        ev.phys_evaluate_1d(0.1)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_refused(shape, bad):
    ev = ElementEvaluator.for_order(shape, 3, benchmark_field(dim_of(shape)).eval)
    for q in range(dim_of(shape)):
        xi = centroid(shape)
        xi[q] = bad
        for gradient in (False, True):
            with pytest.raises(OutOfRegionError):
                ev.phys_evaluate(xi, gradient=gradient)


def test_in_tolerance_point_next_to_a_collapsed_vertex():
    # Inside the 1e-10 region tolerance, outside the triangle, next to the
    # collapsed vertex (-1, 1); it must not extrapolate.
    xi = np.array([-1.0 + 9e-11, 1.0 + 2e-12])
    ev = ElementEvaluator.for_order(Shape.TRI, 4, benchmark_field(2).eval)
    assert abs(ev.phys_evaluate(xi).value - benchmark_field(2).eval(xi)) <= 1e-9


def _exact_polynomial(shape, k, rng):
    """A random combination of every monomial in the degree-k exactness set."""
    alphas = exact_multi_indices(shape, k)
    terms = [(c, monomial_field(alpha))
             for c, alpha in zip(rng.uniform(-1, 1, len(alphas)), alphas)]
    return (lambda xi: sum(c * f.eval(xi) for c, f in terms),
            lambda xi: sum(c * f.grad(xi) for c, f in terms))


def _row_path_points(shape, basis, rng):
    """Scattered, collocated, snapped, singular-face and near-node points, by kind."""
    scattered = [random_interior_point(shape, rng, singular_margin=0.05) for _ in range(6)]
    grid = xi_grid(shape, basis)
    collocated = list(grid[rng.choice(len(grid), min(6, len(grid)), replace=False)])
    # cube points 5e-13 from a node on every axis, toward the inside
    snapped = []
    for _ in range(6):
        eta = np.array([ax.nodes[rng.integers(ax.n)] for ax in basis.axes])
        eta -= 5e-13 * np.where(eta > 0.0, 1.0, -1.0)
        snapped.append(expand(shape, eta))
    vertices = np.asarray(SHAPE_SPECS[shape].vertices)
    singular = [p for p in (0.5 * (u + v) for u in vertices for v in vertices)
                if singular_distance(shape, p) < SINGULAR_TOL]
    # cube points 1e-11 to 1e-7 from an interior node on one axis, on both
    # sides, where entry k of the derivative rows would lose digits if it
    # were computed directly
    near_node = []
    for q, ax in enumerate(basis.axes):
        for off in (1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7):
            eta = rng.uniform(-0.8, 0.8, size=basis.dim)
            eta[q] = ax.nodes[rng.integers(1, ax.n - 1)] + off
            near_node.append(expand(shape, eta))
    return {"scattered": scattered, "collocated": collocated, "snapped": snapped,
            "singular": singular, "near_node": near_node}


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_row_path_against_exact_polynomials(shape):
    """F = 1 and F = 3, values and gradients, on every branch of the rows."""
    rng = np.random.default_rng(17)
    k = 4
    basis = basis_for_shape(shape, k + 1)
    polys = [_exact_polynomial(shape, k, rng) for _ in range(3)]
    fields = tuple(sample_field(shape, basis, value) for value, _ in polys)
    multi = ElementEvaluator(shape, basis, fields)
    singles = [ElementEvaluator(shape, basis, f) for f in fields]
    points = _row_path_points(shape, basis, rng)
    if dim_of(shape) > 1:
        assert points["singular"] or not SHAPE_SPECS[shape].duffy_pairs
    for kind, pts in points.items():
        for xi in pts:
            want = [value(xi) for value, _ in polys]
            res = multi.phys_evaluate(xi)
            assert res.value.shape == (3,) and res.d1 is None
            for f, ev in enumerate(singles):
                one = ev.phys_evaluate(xi)
                assert isinstance(one.value, float) and one.d1 is None
                assert abs(one.value - want[f]) <= 1e-10 * max(1.0, abs(want[f])), kind
                assert abs(res.value[f] - one.value) <= 1e-13 * max(1.0, abs(one.value))
            if kind == "collocated":
                assert res.value.tolist() == [ev.phys_evaluate(xi).value for ev in singles]
            if kind == "singular":
                with pytest.raises(SingularCollapseError):
                    multi.phys_evaluate(xi, gradient=True)
                continue
            res = multi.phys_evaluate(xi, gradient=True)
            assert res.value.shape == (3,) and res.d1.shape == (3, dim_of(shape))
            for f, ev in enumerate(singles):
                one = ev.phys_evaluate(xi, gradient=True)
                grad = polys[f][1](xi)
                scale = max(1.0, np.max(np.abs(grad)))
                assert one.d1.shape == (dim_of(shape),)
                assert np.max(np.abs(one.d1 - grad)) <= 1e-8 * scale, kind
                assert abs(res.value[f] - one.value) <= 1e-13 * max(1.0, abs(one.value))
                assert np.max(np.abs(res.d1[f] - one.d1)) <= 1e-13 * max(
                    1.0, np.max(np.abs(one.d1)))


def _collocated_on_one_axis(shape, basis, rng):
    """Cube points on an interior node of axis a and between nodes elsewhere, each a."""
    nodes = [ax.nodes for ax in basis.axes]
    mids = [0.5 * (z[1:-2] + z[2:-1]) if len(z) > 3 else 0.5 * (z[:-1] + z[1:])
            for z in nodes]
    pts = []
    for a in range(basis.dim):
        for _ in range(4):
            eta = [z[rng.integers(1, len(z) - 1)] if q == a else m[rng.integers(len(m))]
                   for q, (z, m) in enumerate(zip(nodes, mids))]
            xi = expand(shape, eta)
            on_node = [np.min(np.abs(z - e)) <= SNAP_TOL
                       for z, e in zip(nodes, collapse(shape, xi))]
            assert on_node == [q == a for q in range(basis.dim)]
            pts.append(xi)
    return pts


def _snap(basis, eta):
    """eta with each coordinate within SNAP_TOL of a node moved onto it."""
    out = []
    for ax, e in zip(basis.axes, eta):
        k = int(np.argmin(np.abs(ax.nodes - e)))
        out.append(float(ax.nodes[k]) if abs(ax.nodes[k] - e) <= SNAP_TOL else e)
    return out


@pytest.mark.parametrize("order", [3, 12])
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_one_field_agrees_with_a_field_tuple(shape, order):
    # The three callers of `tensor._contract` agree: `phys_evaluate` (one
    # field reduces its last line on Python floats, a tuple of fields takes
    # one more product of the same rows), `tensor_evaluate` (samples as a
    # transposed view) and the bench's timed sweep (the evaluator's matrix).
    rng = np.random.default_rng(order)
    basis = basis_for_order(shape, order)
    spec = SHAPE_SPECS[shape]
    fields = tuple(sample_field(shape, basis, lambda xi, c=c: np.sin(c + 2.0 * np.sum(xi))
                                + c * xi[-1] ** 3) for c in range(3))
    multi = ElementEvaluator(shape, basis, fields)
    singles = [ElementEvaluator(shape, basis, f) for f in fields]
    kinds = _row_path_points(shape, basis, rng)
    pts = (kinds["scattered"] + kinds["snapped"] + kinds["near_node"]
           + _collocated_on_one_axis(shape, basis, rng))
    sweeps = {gradient: [_BarySweep(ev, pts, Q_VALUE_D1 if gradient else Q_VALUE)()
                         for ev in singles] for gradient in (False, True)}
    for i, xi in enumerate(pts):
        eta = collapse_floats(shape, xi)
        for gradient in (False, True):
            res = multi.phys_evaluate(xi, gradient=gradient)
            for f, ev in enumerate(singles):
                one = ev.phys_evaluate(xi, gradient=gradient)
                cube = tensor_evaluate(basis, fields[f], eta, gradient=gradient)
                values, grads, _ = sweeps[gradient][f]
                for got in (one.value, cube.value, values[i]):
                    assert abs(got - res.value[f]) <= 1e-13 * max(1.0, abs(res.value[f])), xi
                if gradient:
                    scale = max(1.0, np.max(np.abs(res.d1[f])))
                    chained = _chain_rule(spec, _snap(basis, eta), cube.d1.tolist())
                    for got in (one.d1, np.array(chained), grads[i]):
                        assert np.max(np.abs(got - res.d1[f])) <= 1e-13 * scale, xi


def test_snapped_coordinates_reach_the_chain_rule():
    # A cube coordinate 5e-13 off a node is evaluated on the node, and the
    # gradient uses the Jacobian there.
    basis = basis_for_shape(Shape.TRI, 5)
    ev = ElementEvaluator(Shape.TRI, basis, sample_field(Shape.TRI, basis,
                                                         benchmark_field(2).eval))
    eta = np.array([basis.axes[0].nodes[1], basis.axes[1].nodes[3] + 5e-13])
    xi = expand(Shape.TRI, eta)
    on_node = expand(Shape.TRI, [basis.axes[0].nodes[1], basis.axes[1].nodes[3]])
    assert not np.array_equal(collapse(Shape.TRI, xi), collapse(Shape.TRI, on_node))
    a = ev.phys_evaluate(xi, gradient=True)
    b = ev.phys_evaluate(on_node, gradient=True)
    assert a.value == b.value
    assert np.array_equal(a.d1, b.d1)


def test_multi_field_reduction_counts():
    # A contraction over F fields counts F times the lines of one field.
    basis = basis_for_shape(Shape.TET, 4)
    fields = tuple(sample_field(Shape.TET, basis, lambda xi, c=c: c + xi[0])
                   for c in range(3))
    xi = [-0.41, -0.33, -0.52]
    counts = {}
    counters.enabled = True
    try:
        for label, ev in (("one", ElementEvaluator(Shape.TET, basis, fields[0])),
                          ("three", ElementEvaluator(Shape.TET, basis, fields))):
            for gradient in (False, True):
                counters.reset()
                ev.phys_evaluate(xi, gradient=gradient)
                counts[label, gradient] = counters.kernel_calls
    finally:
        counters.enabled = False
        counters.reset()
    assert counts["one", False] == 4 * 4 + 4 + 1
    assert counts["one", True] == 4 * 4 + 2 * 4 + 3
    for gradient in (False, True):
        assert counts["three", gradient] == 3 * counts["one", gradient]


def test_multi_field_validation():
    basis = basis_for_order(Shape.QUAD, 2)
    from baryeval import FieldValues

    with pytest.raises(InvalidInputError):
        ElementEvaluator(Shape.QUAD, basis, ())
    with pytest.raises(InvalidInputError):
        ElementEvaluator(Shape.QUAD, basis, (FieldValues(np.zeros(basis.size)),
                                             FieldValues(np.zeros(5))))
    seg = basis_for_order(Shape.SEGMENT, 2)
    field = FieldValues(np.zeros(seg.size))
    with pytest.raises(InvalidInputError):
        ElementEvaluator(Shape.SEGMENT, seg, (field, field)).phys_evaluate_1d(0.1)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_bases_compare_and_hash_by_their_shared_node_sets(shape):
    basis = basis_for_order(shape, 3)
    assert basis == basis_for_order(shape, np.int64(3))
    assert all(a is b for a, b in zip(basis.axes, basis_for_order(shape, 3).axes))
    assert basis != basis_for_order(shape, 4)
    assert {basis: shape}[basis_for_order(shape, 3)] is shape


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_gradient_is_read_as_a_truth_value(shape):
    # every reader of `gradient` takes its truth value: a truthy flag returns
    # what True returns and a falsy one what False returns, bit for bit
    rng = np.random.default_rng(7)
    basis = basis_for_order(shape, 3)
    fields = tuple(sample_field(shape, basis, lambda xi, c=c: np.sin(c + 2.0 * np.sum(xi)))
                   for c in range(3))
    evaluators = (ElementEvaluator(shape, basis, fields[0]),
                  ElementEvaluator(shape, basis, fields))
    for xi in [random_interior_point(shape, rng, margin=0.01, singular_margin=0.05)
               for _ in range(4)]:
        eta = collapse(shape, xi)
        for flags, ref in (((2, 0.5, "yes", np.True_), True), ((0, 0.0, "", None), False)):
            calls = [lambda g, ev=ev: ev.phys_evaluate(xi, gradient=g) for ev in evaluators]
            calls.append(lambda g: tensor_evaluate(basis, fields[0], eta, gradient=g))
            for call in calls:
                want = call(ref)
                for flag in flags:
                    got = call(flag)
                    assert np.array_equal(got.value, want.value), (flag, xi)
                    if ref:
                        assert np.array_equal(got.d1, want.d1), (flag, xi)
                    else:
                        assert got.d1 is None, (flag, xi)
