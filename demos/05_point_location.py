"""Point location: inverting a curved coordinate map.

Given coordinate maps X(xi) sampled on an element grid and a target point in
physical space, recover the reference coordinates with a Gauss-Newton search
(direction -J^{-1} r from the exact Jacobian, backtracking line search, trial
points projected back into the reference region).
"""

import numpy as np

from baryeval import LocateConfig, LocateProblem, Shape, locate, sample_field
from baryeval.element import ElementEvaluator, basis_for_order

shape = Shape.QUAD
basis = basis_for_order(shape, 5)

# a gently curved map: X1 bulges with xi2^2, X2 shears with xi1
coord_fns = (
    lambda xi: float(xi[0] + 0.15 * xi[1] ** 2),
    lambda xi: float(xi[1] + 0.10 * xi[0]),
)
fields = tuple(sample_field(shape, basis, f) for f in coord_fns)
evals = [ElementEvaluator(shape, basis, f) for f in fields]

true_xi = np.array([0.37, -0.21])
target = np.array([ev.phys_evaluate(true_xi).value for ev in evals])
print(f"hidden reference point: {true_xi}")
print(f"physical target X(xi):  {np.round(target, 8)}\n")

result = locate(LocateProblem(shape, basis, fields, target, LocateConfig()))
print(f"recovered xi: {np.round(result.xi, 10)}")
print(f"residual:     {result.residual:.2e}")
print(f"iterations:   {result.iterations}")
print(f"converged:    {result.converged}")
print(f"recovery error: {np.max(np.abs(result.xi - true_xi)):.2e}")

# starting from a corner still converges thanks to the projected line search
cfg = LocateConfig(init=np.array([-1.0, 1.0]))
result = locate(LocateProblem(shape, basis, fields, target, cfg))
print(f"\nfrom the corner (-1, 1): {result.iterations} iterations, "
      f"error {np.max(np.abs(result.xi - true_xi)):.2e}")
