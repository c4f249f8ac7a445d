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
    build_operator,
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


def _batch_points(shape, basis, rng):
    """The kinds of `_row_path_points`, with the points of
    `_collocated_on_one_axis` added to the collocated ones and the near-node
    points taken at the offsets of `test_kernel.test_derivatives_next_to_a_node`,
    1e-3 to 1e-15 off an interior node of one axis."""
    kinds = _row_path_points(shape, basis, rng)
    kinds["collocated"] += _collocated_on_one_axis(shape, basis, rng)
    offsets = [s * 10.0**-e for e in range(3, 16) for s in (1.0, -1.0)]
    kinds["near_node"] = []
    for q, ax in enumerate(basis.axes):
        for off in offsets:
            eta = rng.uniform(-0.8, 0.8, size=basis.dim)
            eta[q] = ax.nodes[rng.integers(1, ax.n - 1)] + off
            kinds["near_node"].append(expand(shape, eta))
    return kinds


@pytest.mark.parametrize("order", [3, 12])
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_evaluate_agrees_with_phys_evaluate(shape, order):
    # One field and a tuple of three, values and gradients, on every kind of
    # point; values within 1e-12 max(1, |v|), gradients within
    # 1e-10 max(1, |g|_inf).  Values on a singular face succeed.
    # `phys_evaluate` moves a cube coordinate within SNAP_TOL of a node onto
    # it and `evaluate` does not, which moves such a point by at most
    # d SNAP_TOL / 2 in region coordinates at the offsets used here (the
    # snapped kind and the three smallest near-node offsets), so values there
    # may also differ by 2 SNAP_TOL |g|_1.
    rng = np.random.default_rng(order + 1)
    basis = basis_for_order(shape, order)
    fields = tuple(sample_field(shape, basis, lambda xi, c=c: np.sin(c + 2.0 * np.sum(xi))
                                + c * xi[-1] ** 3) for c in range(3))
    for ev in (ElementEvaluator(shape, basis, fields[1]), ElementEvaluator(shape, basis, fields)):
        for kind, pts in _batch_points(shape, basis, rng).items():
            if not pts:
                continue
            pts = np.array(pts)
            got = ev.evaluate(pts)
            assert got.d1 is None
            want = [ev.phys_evaluate(xi, gradient=kind != "singular") for xi in pts]
            values = np.array([w.value for w in want])
            bound = 1e-12 * np.maximum(1.0, np.abs(values))
            if kind != "singular":
                etas = [collapse_floats(shape, xi) for xi in pts]
                moved = np.array([_snap(basis, eta) != eta for eta in etas])
                moved = moved.reshape(-1, *[1] * (values.ndim - 1))
                bound += moved * 2 * SNAP_TOL * np.abs([w.d1 for w in want]).sum(axis=-1)
            assert got.value.shape == values.shape
            assert np.all(np.abs(got.value - values) <= bound), kind
            if kind == "singular":
                continue
            got = ev.evaluate(pts, gradient=True)
            grads = np.array([w.d1 for w in want])
            assert got.d1.shape == grads.shape
            assert np.all(np.abs(got.value - values) <= bound), kind
            scale = np.maximum(1.0, np.abs(grads).max(axis=-1, keepdims=True))
            assert np.all(np.abs(got.d1 - grads) <= 1e-10 * scale), kind


def _polynomial(alphas, coeffs):
    """Value and gradient of sum_t coeffs[t] xi^alphas[t], at one point or an (M, d) array."""
    d = alphas.shape[1]
    lowered = [np.maximum(alphas - np.eye(d, dtype=int)[q], 0) for q in range(d)]

    def monomials(xi, exps):
        # xi_q^e for e = 0..max from a table of repeated products, one per exponent row
        xi = np.asarray(xi, dtype=float)[..., None]
        table = np.cumprod(np.concatenate([np.ones_like(xi)] + [xi] * alphas.max(), axis=-1),
                           axis=-1)
        return np.prod(table[..., np.arange(d), exps], axis=-1)

    def value(xi):
        return monomials(xi, alphas) @ coeffs

    def grad(xi):
        return np.stack([monomials(xi, low) @ (coeffs * alphas[:, q])
                         for q, low in enumerate(lowered)], axis=-1)

    return value, grad


@pytest.mark.parametrize("order", [3, 12])
@pytest.mark.parametrize("shape", [Shape.TRI, Shape.PRISM, Shape.PYR, Shape.TET])
def test_gradients_next_to_a_collapsed_vertex(shape, order):
    # The README's bound: for a polynomial in the exactness space, a gradient
    # at distance D (`singular_distance`) from the collapsed vertex (prism:
    # edge) is off by at most 1e-13 max(1, |g|_inf) / D, |g|_inf the largest
    # exact gradient over the points.  Both `evaluate` and `phys_evaluate`,
    # which snaps a grid point's perturbed cube coordinates onto the nodes,
    # on every grid point and the points of `_collocated_on_one_axis`.
    rng = np.random.default_rng(order)
    basis = basis_for_order(shape, order)
    alphas = np.array(exact_multi_indices(shape, order + 1))
    value, grad = _polynomial(alphas, rng.uniform(-1.0, 1.0, len(alphas)))
    ev = ElementEvaluator(shape, basis, sample_field(shape, basis, value))
    pts = np.concatenate([xi_grid(shape, basis), _collocated_on_one_axis(shape, basis, rng)])
    want = grad(pts)
    bound = 1e-13 * max(1.0, np.abs(want).max()) / np.array(
        [singular_distance(shape, xi) for xi in pts])
    single = np.array([ev.phys_evaluate(xi, gradient=True).d1 for xi in pts])
    for got in (ev.evaluate(pts, gradient=True).d1, single):
        assert np.all(np.abs(got - want).max(axis=1) <= bound)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_evaluate_refuses_with_the_index_of_the_first_bad_point(shape):
    ev = ElementEvaluator.for_order(shape, 3, benchmark_field(dim_of(shape)).eval)
    mid = centroid(shape)
    outside = mid + 3.0
    for gradient in (False, True):
        with pytest.raises(OutOfRegionError, match=r"point 1 at "):
            ev.evaluate([mid, outside, mid, outside], gradient=gradient)
    vertices = np.asarray(SHAPE_SPECS[shape].vertices)
    singular = [v for v in vertices if singular_distance(shape, v) < SINGULAR_TOL]
    if singular:
        pts = [mid, mid, singular[0], singular[-1]]
        assert ev.evaluate(pts).value.shape == (4,)
        with pytest.raises(SingularCollapseError, match=r"point 2 at "):
            ev.evaluate(pts, gradient=True)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_evaluate_zero_and_one_point(shape):
    d = dim_of(shape)
    basis = basis_for_order(shape, 4)
    fields = tuple(sample_field(shape, basis, lambda xi, c=c: c + xi[0]) for c in range(3))
    for ev, f in ((ElementEvaluator(shape, basis, fields[0]), ()),
                  (ElementEvaluator(shape, basis, fields), (3,))):
        res = ev.evaluate(np.empty((0, d)), gradient=True)
        assert res.value.shape == (0, *f) and res.d1.shape == (0, *f, d)
        assert ev.evaluate(np.empty((0, d))).value.shape == (0, *f)
        xi = centroid(shape)
        res, want = ev.evaluate([xi], gradient=True), ev.phys_evaluate(xi, gradient=True)
        assert res.value.shape == (1, *f) and res.d1.shape == (1, *f, d)
        assert np.allclose(res.value[0], want.value, rtol=0.0, atol=1e-13)
        assert np.allclose(res.d1[0], want.d1, rtol=0.0, atol=1e-12)


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
    # every reader of `gradient`, and `build_operator` of `want_derivs`, takes
    # its truth value: a truthy flag returns what True returns and a falsy one
    # what False returns, bit for bit
    rng = np.random.default_rng(7)
    basis = basis_for_order(shape, 3)
    fields = tuple(sample_field(shape, basis, lambda xi, c=c: np.sin(c + 2.0 * np.sum(xi)))
                   for c in range(3))
    evaluators = (ElementEvaluator(shape, basis, fields[0]),
                  ElementEvaluator(shape, basis, fields))
    xis = np.array([random_interior_point(shape, rng, margin=0.01, singular_margin=0.05)
                    for _ in range(4)])
    calls = [lambda g, ev=ev: ev.evaluate(xis, gradient=g) for ev in evaluators]
    for xi in xis:
        eta = collapse(shape, xi)
        calls += [lambda g, ev=ev, xi=xi: ev.phys_evaluate(xi, gradient=g) for ev in evaluators]
        calls.append(lambda g, eta=eta: tensor_evaluate(basis, fields[0], eta, gradient=g))
    for flags, ref in (((2, 0.5, "yes", np.True_), True), ((0, 0.0, "", None), False)):
        for call in calls:
            want = call(ref)
            for flag in flags:
                got = call(flag)
                assert np.array_equal(got.value, want.value), flag
                if ref:
                    assert np.array_equal(got.d1, want.d1), flag
                else:
                    assert got.d1 is None, flag
        want = build_operator(shape, basis, xis, want_derivs=ref)
        for flag in flags:
            got = build_operator(shape, basis, xis, want_derivs=flag)
            assert np.array_equal(got.value_matrix, want.value_matrix), flag
            if ref:
                assert np.array_equal(got.deriv_matrices, want.deriv_matrices), flag
            else:
                assert got.deriv_matrices is None, flag
