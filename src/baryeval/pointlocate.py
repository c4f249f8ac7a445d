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

The coordinate evaluator of an element and its value and Jacobian at the
centroid, where every search without `init` starts, do not depend on the
target.  `_element` builds them once per (shape, basis, coord_fields) and
keeps the last CACHE_SIZE elements (`functools.lru_cache`), so further
targets in one element pay only for their own trial points.  The key is
sound because FieldValues are read-only and compare by identity, and a basis
compares by its node sets, which compare by identity: a hit is the same
fields, and the cache keeps them alive, so no other fields can take their
identity.  `locate` checks the basis and the fields before they are hashed.
The cache holds up to CACHE_SIZE elements' coordinate fields and the
evaluator's stacked copy of them: about 6 MB at order 14 (32 elements of 3
fields of 4096 samples, twice).  The search itself runs on Python floats: r,
J and J^T r are lists of d floats, norms use `math.sqrt`, and the
Gauss-Newton direction is solved by Cramer's rule (`_newton_direction`),
which leaves the steepest-descent fallback to an exactly zero det J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .element import ElementEvaluator
from .errors import ConfigError, InvalidInputError, SingularCollapseError
from .shapes import (
    Shape, _check_basis, _finite_floats, _floats, _inside, centroid, contains_batch, spec_for)
from .tensor import _check_field


# Stationarity tolerance (times max(1, |target|)), Armijo constant and
# backtracking factor of the line search.
GRAD_TOL = 1e-10
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
# How many elements' coordinate evaluators and centroid evaluations locate keeps.
CACHE_SIZE = 32


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
    spec = spec_for(shape)
    x = _floats(spec, xi)
    if _inside(spec, x, 1e-12):
        return np.array(x)
    if not all(map(math.isfinite, x)):
        raise InvalidInputError(f"cannot project the non-finite point {x}")
    xi = np.array(x)
    maps, shifts = spec.faces
    cands = (maps @ xi).reshape(shifts.shape) + shifts
    feasible = contains_batch(shape, cands, 1e-12)
    return cands[np.where(feasible, ((cands - xi) ** 2).sum(axis=1), np.inf).argmin()]


def _dot(u, v):
    """The dot product of two sequences of floats, summed in order."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _newton_direction(jac, r):
    """The solution p of J p = -r for d = 1, 2 or 3 by Cramer's rule, as a list;
    None where det J is exactly zero."""
    if len(r) == 1:
        ((a,),) = jac
        return None if a == 0.0 else [-r[0] / a]
    if len(r) == 2:
        (a, b), (c, d) = jac
        det = a * d - b * c
        if det == 0.0:
            return None
        r0, r1 = r
        return [(b * r1 - d * r0) / det, (c * r0 - a * r1) / det]
    (a, b, c), (d, e, f), (g, h, i) = jac
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g  # cofactors of row 0
    det = a * c0 + b * c1 + c * c2
    if det == 0.0:
        return None
    r0, r1, r2 = r
    return [-(c0 * r0 + (c * h - b * i) * r1 + (b * f - c * e) * r2) / det,
            -(c1 * r0 + (a * i - c * g) * r1 + (c * d - a * f) * r2) / det,
            -(c2 * r0 + (b * g - a * h) * r1 + (a * e - b * d) * r2) / det]


def _coord_fields(shape, basis, coord_fields):
    """coord_fields as a tuple of d FieldValues on basis, a basis for shape;
    anything else is refused before it is hashed."""
    spec = _check_basis(shape, basis)
    try:
        fields = tuple(coord_fields)
    except TypeError:
        raise InvalidInputError(
            f"coord_fields must be a sequence of FieldValues, got {type(coord_fields).__name__}"
        ) from None
    if len(fields) != spec.dim:
        raise InvalidInputError(
            f"a {shape.value} needs {spec.dim} coordinate fields, got {len(fields)}")
    for f in fields:
        _check_field(basis, f)
    return fields


@lru_cache(maxsize=CACHE_SIZE)
def _element(shape, basis, coord_fields):
    """The coordinate evaluator of one element, and the value and Jacobian of
    its coordinate maps at the centroid as tuples of floats."""
    coords = ElementEvaluator(shape, basis, coord_fields)
    res = coords.phys_evaluate(centroid(shape), gradient=True)
    return coords, tuple(res.value.tolist()), tuple(map(tuple, res.d1.tolist()))


def locate(problem):
    """Run the projected Gauss-Newton search; see module docstring."""
    shape = problem.shape
    cfg = problem.config
    spec = spec_for(shape)
    target = _finite_floats(spec, problem.target, "target")
    coords, start_value, start_jac = _element(
        shape, problem.basis, _coord_fields(shape, problem.basis, problem.coord_fields))
    mid = spec.centroid

    def state(value, jac, xi):
        r = [v - t for v, t in zip(value, target)]
        return 0.5 * _dot(r, r), jac, r, xi  # jac rows are grad X_i

    def evaluate(xi):
        try:
            res = coords.phys_evaluate(xi, gradient=True)
        except SingularCollapseError:
            xi = xi + 1e-9 * (mid - xi)  # step off the singular face
            res = coords.phys_evaluate(xi, gradient=True)
        return state(res.value.tolist(), res.d1.tolist(), xi.tolist())

    if cfg.init is None:
        fval, jac, r, xi = state(start_value, start_jac, mid.tolist())
    else:
        fval, jac, r, xi = evaluate(
            project_into_region(shape, _finite_floats(spec, cfg.init, "init")))
    history, iterations = [], 0
    tol = GRAD_TOL * max(1.0, math.sqrt(_dot(target, target)))

    for _ in range(cfg.max_iters):
        grad = [_dot(col, r) for col in zip(*jac)]  # J^T r
        gnorm = math.sqrt(_dot(grad, grad))
        if gnorm <= tol or fval == 0.0:
            break
        iterations += 1
        direction = _newton_direction(jac, r)
        slope = 0.0 if direction is None else _dot(grad, direction)
        if not slope < 0.0:  # singular J or no descent: steepest descent
            direction = [-g for g in grad]
            slope = -gnorm * gnorm
        alpha, step = 1.0, None
        while alpha > 1e-14:
            trial = evaluate(project_into_region(
                shape, [x + alpha * p for x, p in zip(xi, direction)]))
            if trial[0] < fval and trial[0] <= fval + ARMIJO_C * alpha * slope:
                step = trial
                break
            if alpha == 1.0 and fval > tol and math.dist(project_into_region(
                    shape, [x - g for x, g in zip(xi, grad)]).tolist(), xi) <= tol:
                break  # stationary on the boundary: the target lies outside
            alpha *= BACKTRACK_FACTOR
        if step is None:
            break  # stationary on the boundary, or no acceptable step remains
        if cfg.keep_history:
            history.append((fval, step[0], alpha, slope))
        fval, jac, r, xi = step

    grad = [_dot(col, r) for col in zip(*jac)]
    gnorm = math.sqrt(_dot(grad, grad))
    residual = math.sqrt(_dot(r, r))
    converged = gnorm <= tol and residual <= math.sqrt(2.0 * tol)
    return LocateResult(np.array(xi), residual, iterations, converged, history)
