import re

import numpy as np
import pytest

from baryeval import (
    ALL_SHAPES,
    ElementEvaluator,
    FieldValues,
    InvalidInputError,
    NodeKind,
    OutOfRegionError,
    Shape,
    SingularCollapseError,
    TensorBasis,
    apply_operator,
    basis_for_order,
    basis_for_shape,
    build_operator,
    benchmark_field,
    make_node_set,
    sample_field,
    xi_grid,
)
from baryeval.bench import _scalar_cards_derivs
from baryeval.fields import random_interior_point, singular_distance
from baryeval.lagrange import _assemble_rows, _cardinal_rows, cardinal_values
from baryeval.shapes import (SINGULAR_TOL, centroid, collapse_batch, dim_of, jacobian,
                             spec_for)


def _ratio_product_rows(z, etas, dtype=float):
    """The cardinal rows as the (M, n, n) product of the ratios (eta - z_i) / (z_j - z_i),
    the direct O(n^2) form the batch rows replaced, in dtype: the oracle."""
    z = z.astype(dtype)
    delta = z[:, None] - z[None, :]
    np.fill_diagonal(delta, 1.0)
    idx = np.arange(len(z))
    out = []
    for chunk in np.array_split(etas.astype(dtype), max(1, len(etas) // 256)):
        ratios = (chunk[:, None, None] - z[None, None, :]) / delta[None, :, :]
        ratios[:, idx, idx] = 1.0
        out.append(ratios.prod(axis=2))
    return np.concatenate(out)


def _row_etas(z, rng):
    """The nodes, then a fine grid, random points and points 1e-13 to 1e-3 off every node."""
    offsets = np.array([s * 10.0**-e for e in range(3, 14) for s in (1.0, -1.0)])
    near = (z[:, None] + offsets).ravel()
    return np.concatenate((z, np.linspace(-1.0, 1.0, 1001), rng.uniform(-1.0, 1.0, 500),
                           near[np.abs(near) <= 1.0]))


@pytest.mark.parametrize("kind", list(NodeKind))
@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 24, 32, 40, 48, 64])
def test_cardinal_rows_against_the_ratio_product(kind, n):
    # The rows divide exclusive prefix times suffix products of (eta - z_i) by
    # the same products at eta = z_j: unit rows at the nodes bit for bit,
    # finite everywhere, and within 1e-15 times the Lebesgue constant of the
    # ratio products where that constant is small; equispaced sets, whose
    # constant reaches 1e17 at n = 64, are held to the first two.  The
    # oracle runs in long double: in double its own rounding reaches
    # 1.3e-15 times the constant on 64 GLL nodes, the rows' 8.7e-16.
    ns = make_node_set(kind, n)
    z = ns.nodes
    etas = _row_etas(z, np.random.default_rng(n))
    cards = cardinal_values(z, etas)
    (rows,) = _cardinal_rows(TensorBasis((ns,)), etas[:, None], 1)
    assert np.array_equal(rows[:, 0], cards)
    assert np.isfinite(rows).all()
    assert np.array_equal(cards[:n], np.eye(n))
    assert np.array_equal(rows[:n, 1], ns.d1)
    if kind is not NodeKind.EQUISPACED:
        want = _ratio_product_rows(z, etas, np.longdouble)
        lebesgue = np.abs(want).sum(axis=1).max()
        assert np.max(np.abs(cards - want)) <= 1e-15 * lebesgue


@pytest.mark.parametrize("kind", [NodeKind.GAUSS_LOBATTO_LEGENDRE, NodeKind.GAUSS_RADAU_MINUS])
def test_cardinal_values_of_nodes_spread_far_from_one(kind):
    # the rows see the nodes' spread only through rounding: nodes and points
    # scaled by a power of two give the same rows bit for bit, and nodes
    # 1e-200 or 1e200 apart, whose raw products underflow or overflow, give
    # finite rows, the unit rows at the nodes, and no refusal
    z = make_node_set(kind, 16).nodes
    etas = _row_etas(z, np.random.default_rng(3))
    cards = cardinal_values(z, etas)
    for e in (-700, -60, 60, 700):
        assert np.array_equal(cardinal_values(np.ldexp(z, e), np.ldexp(etas, e)), cards), e
    for scale in (1e-200, 1e200):
        rows = cardinal_values(scale * z, scale * etas)
        assert np.array_equal(rows[:16], np.eye(16)), scale
        assert np.max(np.abs(rows - cards)) <= 1e-12, scale
    assert np.array_equal(cardinal_values(1e-200 * np.array([-1.0, 0.0, 1.0]), [0.0]),
                          [[0.0, 1.0, 0.0]])


def test_segment_row_example():
    basis = basis_for_shape(Shape.SEGMENT, 3)
    op = build_operator(Shape.SEGMENT, basis, [[0.5]])
    # l0 = z(z-1)/2, l1 = 1-z^2, l2 = z(z+1)/2 at z = 0.5
    assert np.allclose(op.value_matrix[0], [-0.125, 0.75, 0.375], atol=1e-15)


def test_apply_segment_quadratic():
    basis = basis_for_shape(Shape.SEGMENT, 3)
    op = build_operator(Shape.SEGMENT, basis, [[0.5]])
    values, _ = apply_operator(op, FieldValues([1.0, 0.0, 1.0]))
    assert values[0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("order", [2, 3, 10])
def test_unit_rows_at_grid_points(shape, order):
    basis = basis_for_order(shape, order)
    grid = xi_grid(shape, basis)
    idx = [0, len(grid) // 2, len(grid) - 1]
    op = build_operator(shape, basis, grid[idx])
    for row_i, grid_i in enumerate(idx):
        want = np.zeros(basis.size)
        want[grid_i] = 1.0
        assert np.max(np.abs(op.value_matrix[row_i] - want)) <= 1e-12


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("order", [2, 5, 10])
def test_partition_of_unity(shape, order):
    rng = np.random.default_rng(2)
    basis = basis_for_order(shape, order)
    pts = np.array([random_interior_point(shape, rng) for _ in range(100)])
    op = build_operator(shape, basis, pts)
    assert np.max(np.abs(op.value_matrix.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_values_agree_with_barycentric_path(shape):
    rng = np.random.default_rng(8)
    fld = benchmark_field(dim_of(shape))
    basis = basis_for_order(shape, 6)
    field = sample_field(shape, basis, fld.eval)
    ev = ElementEvaluator(shape, basis, field)
    pts = np.array([random_interior_point(shape, rng) for _ in range(25)])
    op = build_operator(shape, basis, pts)
    values, _ = apply_operator(op, field)
    for xi, got in zip(pts, values):
        want = ev.phys_evaluate(xi).value
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_derivative_rows_match_analytic_gradient(shape):
    rng = np.random.default_rng(21)
    fld = benchmark_field(dim_of(shape))
    basis = basis_for_order(shape, 5)
    field = sample_field(shape, basis, fld.eval)
    pts = np.array([
        random_interior_point(shape, rng, margin=0.02, singular_margin=0.05)
        for _ in range(20)
    ])
    op = build_operator(shape, basis, pts, want_derivs=True)
    _, derivs = apply_operator(op, field)
    for q in range(dim_of(shape)):
        for m, xi in enumerate(pts):
            assert derivs[q, m] == pytest.approx(fld.grad(xi)[q], abs=1e-10)


def test_storage_counts():
    shape = Shape.QUAD
    basis = basis_for_order(shape, 6)  # 8x8 grid
    pts = np.array([[-0.3, -0.4], [0.1, 0.2], [0.5, -0.5], [0.0, 0.0]])
    op = build_operator(shape, basis, pts)
    assert op.storage_count() == 4 * 64
    op = build_operator(shape, basis, pts, want_derivs=True)
    assert op.storage_count() == (1 + 2) * 4 * 64


def test_out_of_region_point_rejected():
    basis = basis_for_order(Shape.TRI, 3)
    with pytest.raises(OutOfRegionError):
        build_operator(Shape.TRI, basis, [[0.6, 0.6]])


def test_derivative_build_at_singular_face_raises():
    basis = basis_for_order(Shape.TRI, 3)
    assert build_operator(Shape.TRI, basis, [[-1.0, 1.0]]) is not None
    with pytest.raises(SingularCollapseError):
        build_operator(Shape.TRI, basis, [[-1.0, 1.0]], want_derivs=True)


def test_apply_field_length_checked():
    basis = basis_for_order(Shape.SEGMENT, 3)
    op = build_operator(Shape.SEGMENT, basis, [[0.5]])
    with pytest.raises(InvalidInputError):
        apply_operator(op, FieldValues(np.zeros(4)))


def _segment_rows(ns, etas):
    """Value and derivative rows of a segment operator on the node set ns."""
    op = build_operator(Shape.SEGMENT, TensorBasis((ns,)), etas[:, None], want_derivs=True)
    return op.value_matrix, op.deriv_matrices[0]


@pytest.mark.parametrize("kind", list(NodeKind))
def test_cardinal_derivatives_consistent_with_fd(kind):
    ns = make_node_set(kind, 7)
    etas = np.array([-0.83, -0.11, 0.47, 0.92])
    h = 1e-6
    cards, dcards = _segment_rows(ns, etas)
    up = cardinal_values(ns.nodes, etas + h)
    dn = cardinal_values(ns.nodes, etas - h)
    assert np.max(np.abs((up - dn) / (2 * h) - dcards)) <= 1e-6
    assert np.max(np.abs(cards - cardinal_values(ns.nodes, etas))) == 0.0


def test_cardinal_derivatives_exact_at_nodes():
    # collocated queries must not divide by zero; rows reduce to the
    # differentiation matrix there
    ns = make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 6)
    cards, dcards = _segment_rows(ns, ns.nodes)
    assert np.allclose(cards, np.eye(6), atol=1e-14)
    assert np.array_equal(dcards, ns.d1)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_refused(shape, bad):
    basis = basis_for_order(shape, 3)
    points = np.array([centroid(shape)] * 2)
    points[1, -1] = bad
    for want_derivs in (False, True):
        with pytest.raises(OutOfRegionError):
            build_operator(shape, basis, points, want_derivs=want_derivs)


def _reference_deriv_rows(shape, basis, points):
    """The derivative rows assembled the long way: cardinal derivatives by the
    float prefix/suffix products of the bench, d cube-space matrices, then the
    dense collapse Jacobian of every point applied to the stack."""
    etas = collapse_batch(shape, points)
    per_axis = [[_scalar_cards_derivs(ax.nodes.tolist(), eta) for eta in etas[:, q].tolist()]
                for q, ax in enumerate(basis.axes)]
    cards = [np.array([c for c, _ in rows]) for rows in per_axis]
    dcards = [np.array([dc for _, dc in rows]) for rows in per_axis]
    d = basis.dim
    deta = np.stack([
        _assemble_rows([dcards[i] if i == q else cards[i] for i in range(d)])
        for q in range(d)
    ])
    jac = np.array([jacobian(shape, eta) for eta in etas])
    return np.einsum("miq,imn->qmn", jac, deta)


def _batch(shape, rng, m=64):
    return np.array([
        random_interior_point(shape, rng, singular_margin=0.05) for _ in range(m)
    ])


def _sampling_points_off_singular_faces(shape):
    from baryeval.bench import sampling_points

    pts = sampling_points(shape)
    return pts[[singular_distance(shape, xi) > SINGULAR_TOL for xi in pts]]


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("order", [2, 7])
def test_derivative_rows_match_the_reference_assembly(shape, order):
    rng = np.random.default_rng(order)
    basis = basis_for_order(shape, order)
    for points in (_batch(shape, rng), _sampling_points_off_singular_faces(shape)):
        op = build_operator(shape, basis, points, want_derivs=True)
        for got, want in ((op.value_matrix, build_operator(shape, basis, points).value_matrix),
                          (op.deriv_matrices, _reference_deriv_rows(shape, basis, points))):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


HIGH_ORDER_CELLS = [(Shape.HEX, 12), (Shape.TET, 14), (Shape.PRISM, 13), (Shape.PYR, 12),
                    (Shape.SEGMENT, 14), (Shape.TRI, 12)]


@pytest.mark.parametrize("shape, order", HIGH_ORDER_CELLS)
def test_operator_matches_barycentric_path_at_high_order(shape, order):
    rng = np.random.default_rng(order)
    basis = basis_for_order(shape, order)
    field = FieldValues(rng.uniform(-1.0, 1.0, size=basis.size))
    ev = ElementEvaluator(shape, basis, field)
    d = dim_of(shape)
    for points in (_batch(shape, rng, 32), _sampling_points_off_singular_faces(shape)):
        m = len(points)
        op = build_operator(shape, basis, points, want_derivs=True)
        assert op.value_matrix.shape == (m, basis.size)
        assert op.deriv_matrices.shape == (d, m, basis.size)
        assert op.value_matrix.flags.c_contiguous and op.deriv_matrices.flags.c_contiguous
        assert op.value_matrix.ctypes.data % 64 == 0
        values, grads = apply_operator(op, field)
        want = [ev.phys_evaluate(xi, gradient=True) for xi in points]
        want_values = np.array([w.value for w in want])
        want_grads = np.array([w.d1 for w in want]).T
        assert np.max(np.abs(values - want_values)) <= 1e-12 * max(1.0, np.max(np.abs(want_values)))
        assert np.max(np.abs(grads - want_grads)) <= 1e-12 * max(1.0, np.max(np.abs(want_grads)))


@pytest.mark.parametrize("want_derivs", [False, True])
def test_out_of_region_refusal_names_the_first_bad_point(want_derivs):
    basis = basis_for_order(Shape.TRI, 3)
    points = [[-0.5, -0.5], [0.0, 0.0], [0.6, 0.6], [0.7, 0.7]]
    with pytest.raises(OutOfRegionError, match=r"point 2 at \[0\.6 0\.6\]"):
        build_operator(Shape.TRI, basis, points, want_derivs=want_derivs)


@pytest.mark.parametrize("shape", [s for s in ALL_SHAPES if spec_for(s).duffy_pairs])
def test_singular_refusal_names_the_first_bad_point(shape):
    basis = basis_for_order(shape, 3)
    vertices = np.asarray(spec_for(shape).vertices, dtype=float)
    apex = vertices[[singular_distance(shape, v) <= SINGULAR_TOL for v in vertices]][-1]
    points = np.array([centroid(shape), centroid(shape), apex, apex])
    with pytest.raises(SingularCollapseError, match=rf"point 2 at {re.escape(str(apex))}"):
        build_operator(shape, basis, points, want_derivs=True)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_zero_points_give_empty_matrices(shape):
    basis = basis_for_order(shape, 3)
    d = dim_of(shape)
    field = FieldValues(np.ones(basis.size))
    op = build_operator(shape, basis, np.empty((0, d)))
    assert op.value_matrix.shape == (0, basis.size) and op.deriv_matrices is None
    assert apply_operator(op, field)[0].shape == (0,)
    op = build_operator(shape, basis, np.empty((0, d)), want_derivs=True)
    assert op.value_matrix.shape == (0, basis.size)
    assert op.deriv_matrices.shape == (d, 0, basis.size)
    values, grads = apply_operator(op, field)
    assert values.shape == (0,) and grads.shape == (d, 0)
