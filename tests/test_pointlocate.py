import numpy as np
import pytest

from baryeval import (
    ALL_SHAPES,
    ConfigError,
    LocateConfig,
    LocateProblem,
    Shape,
    basis_for_order,
    locate,
    sample_field,
)
from baryeval.fields import random_interior_point
from baryeval.pointlocate import project_into_region
from baryeval.shapes import centroid, contains_point, dim_of


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
        assert f_new <= f_old + cfg.armijo_c * alpha * slope + 1e-15


def test_custom_init_and_iteration_cap():
    shape = Shape.TRI
    basis = basis_for_order(shape, 3)
    fields = _identity_fields(shape, basis)
    cfg = LocateConfig(init=np.array([-0.9, -0.9]), max_iters=2)
    res = locate(LocateProblem(shape, basis, fields, np.array([-0.3, -0.4]), cfg))
    assert res.iterations <= 2


def test_config_validation():
    with pytest.raises(ConfigError):
        LocateConfig(grad_tol=-1.0)
    with pytest.raises(ConfigError):
        LocateConfig(armijo_c=1.5)
    with pytest.raises(ConfigError):
        LocateConfig(backtrack_factor=0.0)
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
    # d coordinates: one for the start, then per accepted step one per trial
    # step length and one with the gradient.
    from baryeval import ElementEvaluator

    d = dim_of(shape)
    basis = basis_for_order(shape, 4)
    fields = tuple(
        sample_field(shape, basis, lambda xi, q=q: float(xi[q] + 0.05 * xi[q] ** 2))
        for q in range(d)
    )
    calls = []
    evaluate = ElementEvaluator.phys_evaluate

    def counted(self, xi, gradient=False):
        res = evaluate(self, xi, gradient=gradient)
        calls.append(np.shape(res.value))
        return res

    monkeypatch.setattr(ElementEvaluator, "phys_evaluate", counted)
    target_xi = centroid(shape) + 0.1
    target = target_xi[:d] + 0.05 * target_xi[:d] ** 2
    cfg = LocateConfig(keep_history=True)
    res = locate(LocateProblem(shape, basis, fields, target, cfg))
    assert res.converged and res.iterations == len(res.history) > 0
    trials = sum(round(np.log2(1.0 / alpha)) + 1 for _, _, alpha, _ in res.history)
    assert len(calls) == 1 + trials + res.iterations
    assert set(calls) == {(d,)}
