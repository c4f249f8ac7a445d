"""Correctness sweeps driven by the CLI `verify` subcommand.

For each (shape, order) cell the sweep checks

* oracle equivalence: barycentric evaluation against the cached interpolation
  matrix on the fixed sampling grid,
* monomial exactness: random monomials inside the exactness set reproduce
  their analytic values,
* gradient consistency: analytic and central finite-difference gradients of
  the quadratic benchmark field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bench import _cells, sampling_points
from .element import ElementEvaluator, basis_for_order, sample_field
from .fields import benchmark_field, random_exact_monomial, random_interior_point
from .lagrange import apply_operator, build_operator
from .shapes import dim_of

ORDER_RANGE = (2, 20)
# Error bounds of the checks, and the random monomials and points per cell.
ORACLE_TOL, EXACTNESS_TOL, GRAD_ANALYTIC_TOL, GRAD_FD_TOL = 1e-11, 1e-10, 1e-10, 1e-6
NUM_MONOMIALS = NUM_POINTS = 5


@dataclass
class CheckResult:
    shape: str
    order: int
    name: str
    passed: bool
    detail: str


def _rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def check_oracle_equivalence(shape, order):
    """Barycentric vs cached-matrix values on the sampling grid."""
    basis = basis_for_order(shape, order)
    fld = benchmark_field(dim_of(shape))
    field = sample_field(shape, basis, fld.eval)
    ev = ElementEvaluator(shape, basis, field)
    points = sampling_points(shape)
    op = build_operator(shape, basis, points)
    matrix_vals, _ = apply_operator(op, field)
    worst = max(
        _rel_err(ev.phys_evaluate(p).value, mv)
        for p, mv in zip(points, matrix_vals)
    )
    return worst <= ORACLE_TOL, f"max rel err {worst:.3e} (tol {ORACLE_TOL:.0e})"


def check_exactness(shape, order, rng):
    """Random exactness-set monomials reproduce analytic values."""
    basis = basis_for_order(shape, order)
    cap = order + 1  # per-axis degree capacity of an order-P basis
    worst = 0.0
    for _ in range(NUM_MONOMIALS):
        _, fld = random_exact_monomial(shape, cap, rng)
        ev = ElementEvaluator(shape, basis, sample_field(shape, basis, fld.eval))
        for _ in range(NUM_POINTS):
            xi = random_interior_point(shape, rng, margin=1e-3)
            worst = max(worst, _rel_err(ev.phys_evaluate(xi).value, fld.eval(xi)))
    return worst <= EXACTNESS_TOL, f"max rel err {worst:.3e} (tol {EXACTNESS_TOL:.0e})"


def check_gradients(shape, order, rng):
    """Gradients of the quadratic field vs analytic and finite differences."""
    basis = basis_for_order(shape, order)
    fld = benchmark_field(dim_of(shape))
    ev = ElementEvaluator(shape, basis, sample_field(shape, basis, fld.eval))
    h = 1e-5
    worst_a = worst_fd = 0.0
    for _ in range(NUM_POINTS):
        xi = random_interior_point(shape, rng, margin=0.05, singular_margin=0.1)
        grad = ev.phys_evaluate(xi, gradient=True).d1
        worst_a = max(worst_a, float(np.max(np.abs(grad - fld.grad(xi)))))
        for q in range(dim_of(shape)):
            step = np.zeros(dim_of(shape))
            step[q] = h
            fd = (fld.eval(xi + step) - fld.eval(xi - step)) / (2 * h)
            worst_fd = max(worst_fd, abs(grad[q] - fd))
    ok = worst_a <= GRAD_ANALYTIC_TOL and worst_fd <= GRAD_FD_TOL
    return ok, f"analytic err {worst_a:.3e}, fd err {worst_fd:.3e}"


def run_verify(shapes=None, orders=None, seed=0):
    """Run all sweeps; returns (all_passed, list of CheckResult)."""
    shapes, orders = _cells(shapes, orders, ORDER_RANGE, range(2, 11))
    rng = np.random.default_rng(seed)
    results = []
    for shape in shapes:
        for order in orders:
            for name, fn in (
                ("oracle-equivalence", lambda: check_oracle_equivalence(shape, order)),
                ("exactness", lambda: check_exactness(shape, order, rng)),
                ("gradients", lambda: check_gradients(shape, order, rng)),
            ):
                passed, detail = fn()
                results.append(CheckResult(shape.value, order, name, passed, detail))
    return all(r.passed for r in results), results
