"""Inverse mapping: recover the reference coordinates whose isoparametric
image matches a target point.

Minimizes f(xi) = 0.5 * ||X(xi) - target||^2 where the coordinate maps X_i are
fields sampled on the element grid and evaluated barycentrically, all d of
them by one evaluator in one contraction per point.  The problem is square
(d maps, d unknowns) and every evaluation returns the exact Jacobian
J = dX/dxi, so the search takes the Gauss-Newton direction -J^{-1} r, falling
back to steepest descent -J^T r where J is singular or the direction does not
descend.  Step lengths backtrack from a unit step under the Armijo rule,
and a trial point is accepted only if it lowers f; one outside the reference
region is replaced by its Euclidean projection P (`project_into_region`).
Each trial point is evaluated once, value and Jacobian together, and the
accepted one becomes the next iterate.

For a target outside the element f keeps a positive minimum on the
boundary, where its gradient does not vanish.  When a unit step fails, the
search therefore also stops, not converged, if the projected
steepest-descent step P(xi - grad f) moves xi by at most GRAD_TOL times
max(1, |target|) while f is still above the convergence bound (the
projected-gradient test, which needs P to be the Euclidean projection); a
step that succeeds at once pays nothing for the test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .element import ElementEvaluator
from .errors import ConfigError, InvalidInputError, SingularCollapseError
from .shapes import Shape, centroid, contains_batch, contains_point, dim_of, spec_for


# Stationarity tolerance (times max(1, |target|)), Armijo constant and
# backtracking factor of the line search.
GRAD_TOL = 1e-10
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5


@dataclass(frozen=True)
class LocateConfig:
    max_iters: int = 100
    init: np.ndarray = None
    keep_history: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be positive, got {self.max_iters}")


@dataclass(frozen=True)
class LocateProblem:
    shape: Shape
    basis: object
    coord_fields: tuple            # d FieldValues sampling the coordinate maps
    target: np.ndarray
    config: LocateConfig = LocateConfig()


@dataclass
class LocateResult:
    xi: np.ndarray
    residual: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list)


def project_into_region(shape, xi):
    """The Euclidean projection p of xi onto the reference region.

    A point within 1e-12 of the region is returned as it is.  Otherwise p lies
    in the relative interior of a face cut out by at most d independent tight
    half-spaces S, so p = P_S xi + q_S is a candidate of `ShapeSpec.faces`;
    feasible candidates are region points, none nearer than p, so the nearest
    is p.  A point that is not finite is refused.
    """
    xi = np.array(xi, dtype=float)
    if contains_point(shape, xi, 1e-12):
        return xi
    if not np.isfinite(xi).all():
        raise InvalidInputError(f"cannot project the non-finite point {xi}")
    maps, shifts = spec_for(shape).faces
    cands = (maps @ xi).reshape(shifts.shape) + shifts
    feasible = contains_batch(shape, cands, 1e-12)
    return cands[np.where(feasible, ((cands - xi) ** 2).sum(axis=1), np.inf).argmin()]


def _coordinates(shape, value, what):
    """value as d finite floats; anything else is refused."""
    d = dim_of(shape)
    try:
        x = np.array(value, dtype=float)
    except (TypeError, ValueError):
        x = None
    if x is None or x.shape != (d,) or not np.isfinite(x).all():
        raise InvalidInputError(f"{what} must be {d} finite coordinates, got {value!r}")
    return x


def locate(problem):
    """Run the projected Gauss-Newton search; see module docstring."""
    shape = problem.shape
    cfg = problem.config
    target = _coordinates(shape, problem.target, "target")
    coords = ElementEvaluator(shape, problem.basis, tuple(problem.coord_fields))
    mid = centroid(shape)

    def evaluate(xi):
        try:
            res = coords.phys_evaluate(xi, gradient=True)
        except SingularCollapseError:
            xi = xi + 1e-9 * (mid - xi)  # step off the singular face
            res = coords.phys_evaluate(xi, gradient=True)
        r = res.value - target
        return 0.5 * float(r @ r), res.d1, r, xi  # res.d1 rows are grad X_i

    xi = mid if cfg.init is None else _coordinates(shape, cfg.init, "init")
    fval, jac, r, xi = evaluate(project_into_region(shape, xi))
    history, iterations = [], 0
    tol = GRAD_TOL * max(1.0, float(np.linalg.norm(target)))

    for _ in range(cfg.max_iters):
        grad = jac.T @ r
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol or fval == 0.0:
            break
        iterations += 1
        try:
            direction = -np.linalg.solve(jac, r)
            slope = float(grad @ direction)
        except np.linalg.LinAlgError:
            slope = 0.0
        if not slope < 0.0:  # singular J or no descent: steepest descent
            direction = -grad
            slope = -gnorm * gnorm
        alpha, step = 1.0, None
        while alpha > 1e-14:
            trial = evaluate(project_into_region(shape, xi + alpha * direction))
            if trial[0] < fval and trial[0] <= fval + ARMIJO_C * alpha * slope:
                step = trial
                break
            if alpha == 1.0 and fval > tol and np.linalg.norm(
                project_into_region(shape, xi - grad) - xi
            ) <= tol:
                break  # stationary on the boundary: the target lies outside
            alpha *= BACKTRACK_FACTOR
        if step is None:
            break  # stationary on the boundary, or no acceptable step remains
        if cfg.keep_history:
            history.append((fval, step[0], alpha, slope))
        fval, jac, r, xi = step

    gnorm = float(np.linalg.norm(jac.T @ r))
    residual = float(np.linalg.norm(r))
    converged = gnorm <= tol and residual <= np.sqrt(2.0 * tol)
    return LocateResult(xi, residual, iterations, converged, history)
