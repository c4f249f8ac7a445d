from itertools import product

import numpy as np
import pytest

from baryeval import (
    ALL_SHAPES,
    InvalidInputError,
    OutOfRegionError,
    Shape,
    SingularCollapseError,
    ancestors,
    collapse,
    contains_point,
    exactness_contains,
    expand,
    jacobian,
    shape_from_name,
)
from baryeval.bench import sampling_points
from baryeval.fields import random_interior_point, singular_distance
from baryeval.shapes import (
    SHAPE_SPECS,
    SINGULAR_TOL,
    centroid,
    collapse_batch,
    contains_batch,
    dim_of,
    expand_batch,
    jacobian_entries,
)

TABLE = {
    Shape.SEGMENT: ((), {1: {1}}),
    Shape.QUAD: ((), {1: {1}, 2: {2}}),
    Shape.TRI: (((1, 2),), {1: {1}, 2: {1, 2}}),
    Shape.HEX: ((), {1: {1}, 2: {2}, 3: {3}}),
    Shape.PRISM: (((1, 2),), {1: {1}, 2: {1, 2}, 3: {3}}),
    Shape.PYR: (((1, 3), (2, 3)), {1: {1}, 2: {2}, 3: {1, 2, 3}}),
    Shape.TET: (((1, 2), (2, 3)), {1: {1}, 2: {1, 2}, 3: {1, 2, 3}}),
}


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_collapse_pairs_and_ancestor_sets(shape):
    pairs, g = TABLE[shape]
    spec = SHAPE_SPECS[shape]
    assert spec.duffy_pairs == pairs
    for q, want in g.items():
        assert ancestors(shape, q) == frozenset(want)
    # collapsed dimensions appear in strictly increasing order
    a_dims = [a for a, _ in spec.duffy_pairs]
    assert a_dims == sorted(a_dims)
    assert all(a < b for a, b in spec.duffy_pairs)


def test_ancestors_range_check():
    with pytest.raises(InvalidInputError):
        ancestors(Shape.TRI, 3)


def test_collapse_examples():
    assert np.allclose(collapse(Shape.TRI, [-0.5, 0.0]), [0.0, 0.0], atol=1e-15)
    assert np.allclose(collapse(Shape.TRI, [-1.0, 1.0]), [-1.0, 1.0])
    xi = np.array([0.3, -0.7, 0.2])
    assert np.allclose(collapse(Shape.HEX, xi), xi)


def test_collapse_rejects_outside_points():
    with pytest.raises(OutOfRegionError):
        collapse(Shape.TRI, [0.5, 0.6])
    with pytest.raises(OutOfRegionError):
        collapse(Shape.TET, [0.1, 0.2, -0.3])


def test_expand_examples():
    assert np.allclose(expand(Shape.TRI, [0.0, 0.0]), [-0.5, 0.0])
    assert np.allclose(expand(Shape.TET, [-1.0, -1.0, -1.0]), [-1.0, -1.0, -1.0])


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_round_trip_well_conditioned(shape):
    # the algebraic identity; floating point needs O(1) collapse denominators
    rng = np.random.default_rng(17)
    d = dim_of(shape)
    done = 0
    while done < 1000:
        eta = rng.uniform(-1.0, 1.0, size=d)
        xi = expand(shape, eta)
        if singular_distance(shape, xi) < 0.08:
            continue
        done += 1
        back = collapse(shape, xi)
        assert np.max(np.abs(back - eta)) <= 1e-14


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_round_trip_near_singular(shape):
    # approaching the collapsed faces the recovered coordinate degrades like
    # eps / denominator; assert a conditioning-aware band
    rng = np.random.default_rng(23)
    d = dim_of(shape)
    for _ in range(200):
        eta = rng.uniform(-1.0, 1.0 - 1e-8, size=d)
        xi = expand(shape, eta)
        back = collapse(shape, xi)
        den = max(singular_distance(shape, xi), 1e-300)
        tol = 1e-13 * (1.0 + 2.0 / den)
        assert np.max(np.abs(back - eta)) <= tol


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_expand_image_in_region(shape):
    rng = np.random.default_rng(5)
    d = dim_of(shape)
    for _ in range(500):
        eta = rng.uniform(-1, 1, size=d)
        assert contains_point(shape, expand(shape, eta), 1e-12)


def test_contains_examples():
    assert contains_point(Shape.TET, [-0.5, -0.5, -0.5], 0.0)
    assert not contains_point(Shape.TET, [0.1, 0.2, -0.3], 0.0)
    assert contains_point(Shape.QUAD, [1.0, 1.0], 0.0)
    assert contains_point(Shape.PYR, [-0.2, -0.2, 0.1], 0.0)
    assert not contains_point(Shape.PYR, [0.5, 0.0, 0.6], 0.0)


def test_exactness_examples():
    assert not exactness_contains(Shape.TRI, [4, 4], [2, 3])
    assert exactness_contains(Shape.TRI, [4, 4], [2, 2])
    assert exactness_contains(Shape.HEX, [3, 3, 3], [3, 3, 3])
    # pyramid degrees accumulate from both horizontal axes onto the vertical
    assert exactness_contains(Shape.PYR, [3, 3, 3], [3, 0, 0])
    assert not exactness_contains(Shape.PYR, [3, 3, 3], [3, 3, 0])
    assert not exactness_contains(Shape.TET, [3, 3, 3], [2, 1, 1])


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_exactness_monotone(shape):
    rng = np.random.default_rng(31)
    d = dim_of(shape)
    k = [4] * d
    for _ in range(200):
        alpha = rng.integers(0, 5, size=d)
        if not exactness_contains(shape, k, alpha):
            continue
        smaller = np.maximum(alpha - rng.integers(0, 2, size=d), 0)
        assert exactness_contains(shape, k, smaller)


def test_jacobian_examples():
    assert np.allclose(jacobian(Shape.TRI, [0.0, 0.0]), [[2.0, 1.0], [0.0, 1.0]])
    assert np.allclose(jacobian(Shape.QUAD, [0.3, -0.8]), np.eye(2))
    j = jacobian(Shape.TET, [-1.0, -1.0, -1.0])
    assert np.all(np.isfinite(j))


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_jacobian_matches_finite_differences(shape):
    # J[i, q] = d(eta_i)/d(xi_q) via central differences of collapse
    rng = np.random.default_rng(7)
    h = 1e-6
    d = dim_of(shape)
    for _ in range(25):
        xi = random_interior_point(shape, rng, margin=0.05, singular_margin=0.1)
        eta = collapse(shape, xi)
        jac = jacobian(shape, eta)
        for q in range(d):
            step = np.zeros(d)
            step[q] = h
            fd = (collapse(shape, xi + step) - collapse(shape, xi - step)) / (2 * h)
            assert np.max(np.abs(jac[:, q] - fd)) <= 1e-6


def test_jacobian_singular_face_raises():
    with pytest.raises(SingularCollapseError):
        jacobian(Shape.TRI, [0.0, 1.0])
    with pytest.raises(SingularCollapseError):
        jacobian(Shape.PYR, [0.0, 0.0, 1.0])
    with pytest.raises(SingularCollapseError):
        jacobian(Shape.TET, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_degree_accumulation(shape):
    # monomials inside the exactness set pull back to tensor polynomials of
    # per-dimension degree <= k: interpolation on a (k+1)-point grid per axis
    # reproduces the pullback exactly
    from baryeval import basis_for_shape, sample_on_grid, tensor_evaluate

    rng = np.random.default_rng(3)
    d = dim_of(shape)
    k = 4
    basis = basis_for_shape(shape, k + 1)
    from baryeval.fields import exact_multi_indices

    alphas = exact_multi_indices(shape, k)
    picks = rng.choice(len(alphas), min(6, len(alphas)), replace=False)
    for alpha in [alphas[i] for i in picks]:
        def pullback(eta):
            xi = expand(shape, eta)
            return float(np.prod(xi ** np.asarray(alpha)))

        field = sample_on_grid(basis, pullback)
        for _ in range(10):
            eta = rng.uniform(-0.98, 0.98, size=d)
            want = pullback(eta)
            got = tensor_evaluate(basis, field, eta).value
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _denominators_from_jacobian(shape, eta):
    """min |D_a| over collapsed axes a, read off J[a, a] = 2 / D_a."""
    jac = jacobian(shape, eta)
    return min((2.0 / abs(jac[a - 1, a - 1]) for a, _ in SHAPE_SPECS[shape].duffy_pairs),
               default=np.inf)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_batch_helpers_match_scalar(shape):
    rng = np.random.default_rng(19)
    pts = np.array([
        random_interior_point(shape, rng, margin=0.01, singular_margin=0.05)
        for _ in range(20)
    ])
    assert contains_batch(shape, pts, 1e-10).all()
    batch = collapse_batch(shape, pts)
    entries, singular = jacobian_entries(shape, batch)
    assert not singular.any()
    jbatch = np.tile(np.eye(dim_of(shape)), (len(batch), 1, 1))
    for (a, b), column in entries.items():
        if column is not None:
            jbatch[:, a, b] = column
    for i, xi in enumerate(pts):
        eta = collapse(shape, xi)
        assert np.allclose(batch[i], eta, atol=1e-15)
        assert np.allclose(jbatch[i], jacobian(shape, eta), atol=1e-12)
        assert singular_distance(shape, xi) == pytest.approx(
            _denominators_from_jacobian(shape, eta), rel=1e-12)
    # boundary inputs: the vertices and the benchmark's fixed sampling grid
    edge = np.vstack([SHAPE_SPECS[shape].vertices, sampling_points(shape)])
    for tol in (0.0, 1e-10):
        assert (contains_batch(shape, edge, tol).tolist()
                == [contains_point(shape, xi, tol) for xi in edge])
    assert contains_batch(shape, edge, 1e-10).all()
    etas = collapse_batch(shape, edge)
    assert np.array_equal(etas, [collapse(shape, xi) for xi in edge])
    assert np.array_equal(expand_batch(shape, etas), [expand(shape, eta) for eta in etas])
    for xi, eta in zip(edge, etas):
        if singular_distance(shape, xi) < SINGULAR_TOL:
            with pytest.raises(SingularCollapseError):
                jacobian(shape, eta)
        else:
            assert singular_distance(shape, xi) == pytest.approx(
                _denominators_from_jacobian(shape, eta), rel=1e-12)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_in_tolerance_points_collapse_into_the_cube(shape):
    # Vertices and edge midpoints (collapsed ones included), moved off by up
    # to 9e-11 per coordinate; every move the 1e-10 region test admits must
    # land in [-1, 1]^d, however small the collapse denominator there.
    vertices = np.asarray(SHAPE_SPECS[shape].vertices)
    anchors = [0.5 * (u + v) for u in vertices for v in vertices]
    steps = (-9e-11, -2e-12, 0.0, 2e-12, 9e-11)
    pts = np.array([a + np.array(step) for a in anchors
                    for step in product(steps, repeat=dim_of(shape))])
    pts = pts[contains_batch(shape, pts, 1e-10)]
    assert len(pts) > len(anchors)
    etas = collapse_batch(shape, pts)
    assert np.all(np.abs(etas) <= 1.0)
    for xi, eta in zip(pts, etas):
        assert np.array_equal(collapse(shape, xi), eta)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_vertices_satisfy_halfspaces_and_are_corner_images(shape):
    spec = SHAPE_SPECS[shape]
    images = [expand(shape, c) for c in product((-1.0, 1.0), repeat=spec.dim)]
    for v in spec.vertices:
        assert all(np.dot(a, v) <= b for a, b in spec.halfspaces)
        assert any(np.array_equal(v, x) for x in images)
    for x in images:
        assert any(np.array_equal(v, x) for v in spec.vertices)


# Each shape's vertex set and centroid, as the geometry table once listed
# them; `locate` starts every search without `init` at the centroid.
GEOMETRY = {
    Shape.SEGMENT: ({(-1.0,), (1.0,)}, (0.0,)),
    Shape.QUAD: ({(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)}, (0.0, 0.0)),
    Shape.TRI: ({(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)},
                (-0.3333333333333333, -0.3333333333333333)),
    Shape.HEX: ({(x, y, z) for z in (-1.0, 1.0) for y in (-1.0, 1.0) for x in (-1.0, 1.0)},
                (0.0, 0.0, 0.0)),
    Shape.PRISM: ({(x, y, z) for z in (-1.0, 1.0)
                   for (x, y) in ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))},
                  (-0.3333333333333333, -0.3333333333333333, 0.0)),
    Shape.PYR: ({(-1.0, -1.0, -1.0), (1.0, -1.0, -1.0), (1.0, 1.0, -1.0),
                 (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)}, (-0.2, -0.2, -0.6)),
    Shape.TET: ({(-1.0, -1.0, -1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0),
                 (-1.0, -1.0, 1.0)}, (-0.5, -0.5, -0.5)),
}


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_vertices_and_centroid_are_pinned(shape):
    vertices, mid = GEOMETRY[shape]
    spec = SHAPE_SPECS[shape]
    assert len(spec.vertices) == len(vertices) and set(spec.vertices) == vertices
    assert centroid(shape).tolist() == list(mid)  # bit for bit
    assert spec.centroid.tolist() == list(mid)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_outside(shape, bad):
    for q in range(dim_of(shape)):
        xi = centroid(shape)
        xi[q] = bad
        assert not contains_point(shape, xi, 1e-10)
        assert not contains_batch(shape, xi[None, :], 1e-10)[0]
        with pytest.raises(OutOfRegionError):
            collapse(shape, xi)


def test_centroid_is_interior():
    for shape in ALL_SHAPES:
        assert contains_point(shape, centroid(shape), -1e-6)


def test_shape_names_round_trip():
    for shape in ALL_SHAPES:
        assert shape_from_name(shape.value) is shape
    with pytest.raises(InvalidInputError):
        shape_from_name("dodecahedron")
