"""The interpolation-matrix baseline.

The classical alternative to per-point barycentric evaluation: build a matrix
of tensorized cardinal Lagrange values for a fixed set of query points, then
evaluate fields by matrix-vector products.  Cheap to apply once built, but the
build costs O(n^2) per point per axis and the matrix costs M*N storage where
the barycentric path stores only the per-axis weights.
"""

import numpy as np

from baryeval import (
    ElementEvaluator,
    Shape,
    apply_operator,
    build_operator,
    benchmark_field,
    sample_field,
)
from baryeval.element import basis_for_order
from baryeval.fields import random_interior_point

shape = Shape.TRI
order = 6
basis = basis_for_order(shape, order)
fld = benchmark_field(2)
field = sample_field(shape, basis, fld.eval)

rng = np.random.default_rng(0)
points = np.array([random_interior_point(shape, rng, singular_margin=0.02)
                   for _ in range(6)])

op = build_operator(shape, basis, points, want_derivs=True)
print(f"operator for {len(points)} points on a {shape.value} of order {order}:")
print(f"  value matrix {op.value_matrix.shape}, row sums "
      f"{np.round(op.value_matrix.sum(axis=1), 12)}")
print(f"  stored entries: {op.storage_count()} "
      f"(barycentric path: {2 * (order + 2)} weights)\n")

values, derivs = apply_operator(op, field)
ev = ElementEvaluator(shape, basis, field)
print(f"{'matrix':>10s} {'barycentric':>12s} {'exact':>10s}")
for m, xi in enumerate(points):
    print(f"{values[m]:10.6f} {ev.phys_evaluate(xi).value:12.6f} "
          f"{fld.eval(xi):10.6f}")

print("\nderivative rows agree with the analytic gradient:")
print(np.round(derivs[:, 0], 8), "vs", np.round(fld.grad(points[0]), 8))
