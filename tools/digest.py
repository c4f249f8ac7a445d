"""A bit-for-bit digest of baryeval's outputs, one `name sha256` line per entry point.

    PYTHONPATH=<checkout>/src python3 tools/digest.py

Run it once on each of two checkouts and compare the two outputs with
`diff`: an equal line means the entry point returned the same float64 bytes,
sign bits included, on every input.  Each hash also covers the shape of every
array and marks a missing part (None), so a changed layout shows too.

Inputs, per shape (all seven) and order (2, 3, 7 and 12):
64 seeded scattered interior points plus the bench's `sampling_points`, one
smooth field and a tuple of three.  Entry points: `build_operator` with and
without derivative rows, `evaluate` and `phys_evaluate` (one field and three,
values and gradients), `bary_evaluate` at deriv 0-2 and `cardinal_values` on
every axis, `locate` (xi, residual, iterations, converged and history, for a
few targets per element, one of them outside), `centroid`, the sorted
`vertices`, `sampling_points`, the `run_bench` records at reps=1 without
their times, and the `kernel.counters` totals over all of these.

The script reads only names that baryeval has had since commit 719ebf2, so
one copy of it runs on both sides of a comparison.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from baryeval import (ElementEvaluator, LocateConfig, LocateProblem, Shape, bary_evaluate,
                      basis_for_order, build_operator, cardinal_values, centroid, locate,
                      random_interior_point, run_bench, sample_field, sampling_points)
from baryeval import kernel, pointlocate
from baryeval.shapes import SHAPE_SPECS

ORDERS = (2, 3, 7, 12)
NUM_POINTS = 64
SEED = 2029
ENTRY_POINTS = ("build_operator", "evaluate", "phys_evaluate", "bary_evaluate",
                "cardinal_values", "locate", "centroid", "vertices", "sampling_points",
                "run_bench", "counters")


class _Hash:
    """sha256 over float64 arrays, each preceded by its shape."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts):
        for x in parts:
            if x is None:
                self._h.update(b"None;")
                continue
            x = np.ascontiguousarray(x, dtype=np.float64)
            self._h.update(repr(x.shape).encode())
            self._h.update(x.tobytes())

    def text(self, *parts):
        self._h.update(repr(parts).encode())

    def hexdigest(self):
        return self._h.hexdigest()


def _field(c):
    return lambda xi: np.sin(c + 1.0 + 2.0 * np.sum(xi)) + c * xi[0] ** 3


def _coord(q, d):
    return lambda xi: xi[q] + 0.1 * np.sin(2.0 * xi[(q + 1) % d] + q)


def _element(h, shape, order, points):
    """Hash the evaluators, the operator and the 1D kernels of one element."""
    basis = basis_for_order(shape, order)
    one = sample_field(shape, basis, _field(0))
    three = tuple(sample_field(shape, basis, _field(c)) for c in range(3))
    for want in (False, True):
        op = build_operator(shape, basis, points, want_derivs=want)
        h["build_operator"].add(op.value_matrix, op.deriv_matrices)
    for field in (one, three):
        ev = ElementEvaluator(shape, basis, field)
        for gradient in (False, True):
            res = ev.evaluate(points, gradient=gradient)
            h["evaluate"].add(res.value, res.d1)
            for xi in points:
                res = ev.phys_evaluate(xi, gradient=gradient)
                h["phys_evaluate"].add(res.value, res.d1)
    for ax in basis.axes:
        etas = np.concatenate([np.linspace(-1.0, 1.0, 17), ax.nodes[1:3]])
        values = np.sin(1.0 + 2.0 * ax.nodes)
        for eta in etas:
            for deriv in range(3):
                res = bary_evaluate(ax, values, float(eta), deriv)
                h["bary_evaluate"].add(res.value, res.d1, res.d2)
        h["cardinal_values"].add(cardinal_values(ax.nodes, etas))


def _locate(h, shape, order, points):
    """Hash `locate` on a curved element for three targets inside and one outside."""
    basis = basis_for_order(shape, order)
    d = len(basis.axes)
    coords = tuple(sample_field(shape, basis, _coord(q, d)) for q in range(d))
    maps = [_coord(q, d) for q in range(d)]

    def x_of(xi):
        return np.array([m(xi) for m in maps])

    targets = [x_of(xi) for xi in points[:3]] + [x_of(centroid(shape)) + 3.0]
    for target in targets:
        res = locate(LocateProblem(shape, basis, coords, target,
                                   LocateConfig(keep_history=True)))
        h["locate"].add(res.xi, res.residual, res.iterations, float(res.converged),
                        np.array(res.history, dtype=float).reshape(-1))


def digest(shapes, orders):
    """The lines `name sha256`, one per entry point of ENTRY_POINTS."""
    h = {name: _Hash() for name in ENTRY_POINTS}
    pointlocate._element.cache_clear()
    counters = kernel.counters
    was_enabled = counters.enabled
    counters.reset()
    counters.enabled = True
    try:
        for i, shape in enumerate(shapes):
            rng = np.random.default_rng([SEED, i])
            scattered = [random_interior_point(shape, rng, margin=0.01, singular_margin=0.05)
                         for _ in range(NUM_POINTS)]
            grid = sampling_points(shape)
            points = np.vstack([scattered, grid])
            h["centroid"].add(centroid(shape))
            h["vertices"].add(sorted(map(tuple, SHAPE_SPECS[shape].vertices)))
            h["sampling_points"].add(grid)
            for order in orders:
                _element(h, shape, order, points)
                _locate(h, shape, order, points)
                for r in run_bench(shapes=[shape], orders=[order], reps=1, seed=SEED):
                    h["run_bench"].text(r.shape, r.order, r.method, r.quantity,
                                        r.sample_points, r.reps)
        h["counters"].add(counters.kernel_calls, counters.divisions,
                          np.array(counters.per_call_nodes, dtype=float))
    finally:
        counters.enabled = was_enabled
        counters.reset()
    return [f"{name} {h[name].hexdigest()}" for name in ENTRY_POINTS]


def main():
    print(f"baryeval from {sys.modules['baryeval'].__file__}", file=sys.stderr)
    print("\n".join(digest(list(Shape), ORDERS)))


if __name__ == "__main__":
    main()
