import numpy as np
import pytest

from baryeval import (
    ALL_SHAPES,
    ConfigError,
    InvalidInputError,
    LocateConfig,
    LocateProblem,
    Shape,
    basis_for_order,
    locate,
    sample_field,
)
from baryeval.fields import random_interior_point
from baryeval.pointlocate import ARMIJO_C, project_into_region
from baryeval.shapes import centroid, contains_point, dim_of, spec_for


def _identity_fields(shape, basis):
    d = dim_of(shape)
    return tuple(
        sample_field(shape, basis, lambda xi, q=q: float(xi[q])) for q in range(d)
    )


def test_identity_map_quad():
    shape = Shape.QUAD
    basis = basis_for_order(shape, 3)
    problem = LocateProblem(shape, basis, _identity_fields(shape, basis),
                            np.array([0.25, -0.5]))
    res = locate(problem)
    assert res.converged
    assert res.residual <= 1e-10
    assert np.allclose(res.xi, [0.25, -0.5], atol=1e-9)


def test_affine_map_quad():
    shape = Shape.QUAD
    basis = basis_for_order(shape, 3)
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 0.0])
    fields = tuple(
        sample_field(shape, basis, lambda xi, i=i: float(a[i] @ xi + b[i]))
        for i in range(2)
    )
    res = locate(LocateProblem(shape, basis, fields, np.array([1.5, -0.5])))
    assert res.converged
    assert np.allclose(res.xi, [0.25, -0.5], atol=1e-8)


def test_curved_map_quad():
    shape = Shape.QUAD
    basis = basis_for_order(shape, 4)
    fields = (
        sample_field(shape, basis, lambda xi: float(xi[0] + 0.1 * xi[1] ** 2)),
        sample_field(shape, basis, lambda xi: float(xi[1])),
    )
    target = np.array([0.3 + 0.1 * 0.16, 0.4])
    res = locate(LocateProblem(shape, basis, fields, target))
    assert res.converged
    assert np.allclose(res.xi, [0.3, 0.4], atol=1e-8)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_self_consistency_perturbed_identity(shape):
    rng = np.random.default_rng(hash(shape.value) % 2**32)
    d = dim_of(shape)
    basis = basis_for_order(shape, 4)

    def perturbed(q, coeffs):
        def f(xi):
            base = float(xi[q])
            bump = coeffs[0] * xi[0] * xi[-1] + coeffs[1] * xi[q] ** 2
            return base + 0.05 * float(bump)
        return f

    fields = tuple(
        sample_field(shape, basis, perturbed(q, rng.uniform(-1, 1, 2)))
        for q in range(d)
    )
    from baryeval import ElementEvaluator

    evals = [ElementEvaluator(shape, basis, f) for f in fields]
    for _ in range(10):
        target_xi = random_interior_point(shape, rng, margin=0.05,
                                          singular_margin=0.05)
        target = np.array([ev.phys_evaluate(target_xi).value for ev in evals])
        res = locate(LocateProblem(shape, basis, fields, target))
        assert res.converged
        assert res.iterations <= 50
        assert np.max(np.abs(res.xi - target_xi)) <= 1e-8


def test_armijo_condition_on_accepted_steps():
    shape = Shape.QUAD
    basis = basis_for_order(shape, 3)
    cfg = LocateConfig(keep_history=True)
    fields = (
        sample_field(shape, basis, lambda xi: float(xi[0] + 0.1 * xi[1] ** 2)),
        sample_field(shape, basis, lambda xi: float(xi[1] - 0.05 * xi[0] ** 2)),
    )
    res = locate(LocateProblem(shape, basis, fields, np.array([0.4, -0.3]), cfg))
    assert res.converged and res.history
    for f_old, f_new, alpha, slope in res.history:
        assert f_new <= f_old + ARMIJO_C * alpha * slope + 1e-15


def test_custom_init_and_iteration_cap():
    shape = Shape.TRI
    basis = basis_for_order(shape, 3)
    fields = _identity_fields(shape, basis)
    cfg = LocateConfig(init=np.array([-0.9, -0.9]), max_iters=2)
    res = locate(LocateProblem(shape, basis, fields, np.array([-0.3, -0.4]), cfg))
    assert res.iterations <= 2


def test_config_validation():
    with pytest.raises(ConfigError):
        LocateConfig(max_iters=0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_projection_restores_region(shape):
    rng = np.random.default_rng(1)
    d = dim_of(shape)
    for _ in range(50):
        xi = rng.uniform(-2.0, 2.0, size=d)
        proj = project_into_region(shape, xi)
        assert contains_point(shape, proj, 1e-9)
    inside = centroid(shape)
    assert np.allclose(project_into_region(shape, inside), inside)


@pytest.mark.parametrize("shape", [Shape.SEGMENT, Shape.TRI, Shape.TET])
def test_one_evaluation_per_point_for_all_coordinate_maps(shape, monkeypatch):
    # Every point locate evaluates costs one phys_evaluate call returning all
    # d coordinates and their gradients: one for the start, then per accepted
    # step one per trial step length; the accepted trial is not evaluated again.
    from baryeval import ElementEvaluator

    d = dim_of(shape)
    basis = basis_for_order(shape, 4)
    fields = tuple(
        sample_field(shape, basis, lambda xi, q=q: float(xi[q] + 0.05 * xi[q] ** 2))
        for q in range(d)
    )
    calls = []
    gradients = []
    evaluate = ElementEvaluator.phys_evaluate

    def counted(self, xi, gradient=False):
        res = evaluate(self, xi, gradient=gradient)
        calls.append(np.shape(res.value))
        gradients.append(gradient)
        return res

    monkeypatch.setattr(ElementEvaluator, "phys_evaluate", counted)
    target_xi = centroid(shape) + 0.1
    target = target_xi[:d] + 0.05 * target_xi[:d] ** 2
    cfg = LocateConfig(keep_history=True)
    res = locate(LocateProblem(shape, basis, fields, target, cfg))
    assert res.converged and res.iterations == len(res.history) > 0
    trials = sum(round(np.log2(1.0 / alpha)) + 1 for _, _, alpha, _ in res.history)
    assert len(calls) == 1 + trials
    assert set(calls) == {(d,)}
    assert all(g is True for g in gradients)


def _quadratic_map(d, rng, amplitude):
    # X_i = xi_i + sum_{j<=l} c[i, jl] xi_j xi_l with sum_jl |c[i, jl]| =
    # amplitude: on the reference regions |X - xi| <= amplitude, and for
    # amplitude < 0.5 the map is injective with a nonsingular Jacobian.
    pairs = [(j, l) for j in range(d) for l in range(j, d)]
    c = rng.uniform(-1.0, 1.0, size=(d, len(pairs)))
    c *= amplitude / np.abs(c).sum(axis=1, keepdims=True)

    def x_of(xi):
        xi = np.asarray(xi, dtype=float)
        return xi + c @ np.array([xi[j] * xi[l] for j, l in pairs])
    return x_of


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_locate_recovers_every_target_of_quadratic_maps(shape):
    from baryeval.bench import sampling_points

    d = dim_of(shape)
    rng = np.random.default_rng(list(Shape).index(shape))
    basis = basis_for_order(shape, 6)
    mid = centroid(shape)
    for amplitude in (0.1, 0.3, 0.45):
        x_of = _quadratic_map(d, rng, amplitude)
        fields = tuple(
            sample_field(shape, basis, lambda xi, i=i: float(x_of(xi)[i])) for i in range(d)
        )
        cases = [(xi, None) for xi in sampling_points(shape)]
        cases += [(random_interior_point(shape, rng), None) for _ in range(10)]
        for v in np.asarray(spec_for(shape).vertices, dtype=float):
            cases += [(v, mid), (v, v)]
        for target_xi, init in cases:
            cfg = LocateConfig(init=init)
            res = locate(LocateProblem(shape, basis, fields, x_of(target_xi), cfg))
            assert res.converged, (amplitude, target_xi, init)
            assert res.iterations <= 10, (amplitude, target_xi, init)
            assert np.max(np.abs(res.xi - target_xi)) <= 1e-7, (amplitude, target_xi, init)

        direction = rng.normal(size=d)
        outside = x_of(mid) + 10.0 * direction / np.linalg.norm(direction)
        cfg = LocateConfig(max_iters=20)
        res = locate(LocateProblem(shape, basis, fields, outside, cfg))
        assert not res.converged
        assert contains_point(shape, res.xi, 1e-9)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_outside_targets_stop_on_the_boundary(shape):
    # A target outside the element has no preimage: the search stops where
    # the projected steepest-descent step no longer moves xi, in the region.
    d = dim_of(shape)
    rng = np.random.default_rng(list(Shape).index(shape))
    basis = basis_for_order(shape, 6)
    for _ in range(4):
        x_of = _quadratic_map(d, rng, 0.3)
        fields = tuple(
            sample_field(shape, basis, lambda xi, i=i: float(x_of(xi)[i])) for i in range(d)
        )
        direction = rng.normal(size=d)
        target = x_of(centroid(shape)) + 10.0 * direction / np.linalg.norm(direction)
        res = locate(LocateProblem(shape, basis, fields, target))
        assert not res.converged
        assert res.iterations <= 10, direction
        assert contains_point(shape, res.xi, 1e-9)


def test_slanted_pyramid_face_target_stops():
    # The second order-6 target of seed 305, drawn as in
    # test_outside_targets_stop_on_the_boundary, slides along the edge where
    # xi_1 = -1 meets the slanted face xi_2 + xi_3 = 0; with a projection
    # that was not Euclidean the search ran to max_iters there.
    shape = Shape.PYR
    rng = np.random.default_rng(305)
    basis = basis_for_order(shape, 6)
    for _ in range(2):
        x_of = _quadratic_map(3, rng, 0.3)
        direction = rng.normal(size=3)
    fields = tuple(
        sample_field(shape, basis, lambda xi, i=i: float(x_of(xi)[i])) for i in range(3)
    )
    target = x_of(centroid(shape)) + 10.0 * direction / np.linalg.norm(direction)
    res = locate(LocateProblem(shape, basis, fields, target))
    assert not res.converged
    assert res.iterations <= 10
    assert contains_point(shape, res.xi, 1e-9)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_projection_is_euclidean(shape):
    # KKT conditions of the nearest region point p = P(x): x - p is a
    # non-negative combination of the normals of the half-spaces tight at p,
    # and region points map to themselves.
    from scipy.optimize import nnls

    spec = spec_for(shape)
    a = np.array([row for row, _ in spec.halfspaces], dtype=float)
    b = np.array([off for _, off in spec.halfspaces])
    rng = np.random.default_rng(list(Shape).index(shape))
    points = [rng.uniform(-3.0, 3.0, size=spec.dim) for _ in range(300)]
    points += [random_interior_point(shape, rng) for _ in range(20)]
    points += list(np.asarray(spec.vertices, dtype=float))
    for x in points:
        p = project_into_region(shape, x)
        if contains_point(shape, x, 1e-12):
            assert np.array_equal(p, x)
            continue
        assert np.all(a @ p <= b + 1e-12), x
        tight = np.abs(a @ p - b) <= 1e-9
        assert tight.any(), x
        _, resid = nnls(a[tight].T, x - p)
        assert resid <= 1e-9 * np.linalg.norm(x - p), x


@pytest.mark.parametrize("target, init", [
    ([np.inf, 0.0], None),
    ([np.nan, 0.0], None),
    ([-0.5], None),
    ([-0.3, -0.4], [np.nan, -0.5]),
    ([-0.3, -0.4], [np.inf, -0.5]),
    ([-0.3, -0.4], [-0.5]),
])
def test_locate_refuses_malformed_points(target, init):
    shape = Shape.TRI
    basis = basis_for_order(shape, 3)
    cfg = LocateConfig(init=None if init is None else np.array(init))
    problem = LocateProblem(shape, basis, _identity_fields(shape, basis),
                            np.array(target), cfg)
    with pytest.raises(InvalidInputError):
        locate(problem)


@pytest.mark.parametrize("xi", [[np.nan, 0.0], [np.inf, -np.inf], [0.5, -np.inf]])
def test_projection_refuses_non_finite_points(xi):
    with pytest.raises(InvalidInputError):
        project_into_region(Shape.TRI, xi)
