"""Interpolation-matrix baseline: tensorized cardinal Lagrange rows.

The operator holds one row per query point; entry (m, j) is the product over
axes of the univariate cardinal values

    l_j(eta) = prod_{i != j} (eta - z_i) / (z_j - z_i)

computed by the direct O(n^2) product formula at the collapsed coordinates of
point m.  Derivative rows take l' = l D, D the axis's differentiation matrix
(`NodeSet.d1`), also O(n^2): l'_j has degree n - 2, so it equals its own
interpolant sum_i l_i(eta) D[i, j], and at a node the row is D[k] exactly.
They are composed with the collapse Jacobian, mirroring the chain rule of the
barycentric path.  The Jacobian is applied before the tensor product, on the
rows of axes 2..d, through its nonzero entries only; one batched product
with the axis-1 values and derivatives then writes the value row and the d
derivative rows of every point once, into one C-contiguous (1 + d, M, N)
array, starting on a 64-byte boundary, whose slices are the value matrix and
the derivative stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegionError, SingularCollapseError, as_floats
from .nodes import _line
from .shapes import REGION_TOL, _check_basis, collapse_batch, contains_batch, jacobian_entries
from .tensor import _check_field


def cardinal_values(nodes, etas):
    """Cardinal Lagrange values l_j(eta) for all j at each finite eta, (M, n)."""
    etas = _line(np.atleast_1d(as_floats(etas, "eta")), "eta")
    return _cardinal_values(_line(nodes, "nodes"), etas)


def _cardinal_values(z, etas):
    """`cardinal_values` on checked (n,) nodes and (M,) etas."""
    delta = z[:, None] - z[None, :]
    np.fill_diagonal(delta, 1.0)
    ratios = (etas[:, None, None] - z[None, None, :]) / delta[None, :, :]
    n = len(z)
    idx = np.arange(n)
    ratios[:, idx, idx] = 1.0
    return ratios.prod(axis=2)


@dataclass
class InterpOperator:
    """Interpolation (and derivative) matrices for a fixed set of query points."""

    shape: object
    basis: object
    points: np.ndarray          # (M, d) region coordinates
    value_matrix: np.ndarray    # (M, N)
    deriv_matrices: np.ndarray  # (d, M, N) or None

    @property
    def num_points(self):
        return self.points.shape[0]

    def storage_count(self):
        """Number of stored matrix entries: M*N, plus d*M*N with derivatives."""
        count = self.value_matrix.size
        if self.deriv_matrices is not None:
            count += self.deriv_matrices.size
        return count


def _assemble_rows(per_axis):
    """Tensor rows from per-axis (M, n_q) factors, dimension 1 fastest."""
    rows = per_axis[0]
    for factors in per_axis[1:]:
        size = factors.shape[1] * rows.shape[1]  # not -1, which M = 0 leaves undefined
        rows = (factors[:, :, None] * rows[:, None, :]).reshape(len(rows), size)
    return rows


def _operator_rows(cards, dcards, jac):
    """Value and region-derivative rows in one C-contiguous (1 + d, M, N) array.

    Every row splits over axis 1 as R_r (x) l_1 + S_r (x) l_1', with R_r and
    S_r on axes 2..d (M x N/n_1):

        value row       R = P,  S = 0,          P = prod_{q >= 2} l_q
        d/dxi_b row     R = sum_{a >= 2} J[a, b] P_a',   S = J[1, b] P

    where P_a' is P with l_a' in place of l_a.  `jac` holds the nonzero
    entries of the collapse Jacobian only (`shapes.jacobian_entries`), so it
    enters at the small M x N/n_1 level, and one batched product with
    [l_1; l_1'] writes every full row once.
    """
    m, d = len(cards[0]), len(cards)
    tails = [
        _assemble_rows([dcards[q] if q == a else cards[q] for q in range(1, d)])
        if d > 1 else np.ones((m, 1))
        for a in range(d)
    ]  # tails[0] is P, tails[a] is P_a'
    k, n1 = tails[0].shape[1], cards[0].shape[1]
    parts = np.zeros((1 + d, m, k, 2))  # [R_r, S_r]
    parts[0, :, :, 0] = tails[0]
    for (a, b), coef in jac.items():
        term = tails[a] if coef is None else coef[:, None] * tails[a]
        parts[1 + b, :, :, 1 if a == 0 else 0] += term
    first = np.concatenate((cards[0], dcards[0]), axis=1).reshape(m, 2, n1)  # [l_1; l_1']
    # Start the buffer on a 64-byte boundary: the BLAS matrix-vector kernels
    # of a cached apply_operator lose 5-10% on rows that start 16 bytes past
    # one, where large allocations begin.
    size = (1 + d) * m * k * n1
    raw = np.empty(size + 8)
    skip = -(raw.ctypes.data // 8) % 8
    rows = raw[skip:skip + size].reshape(1 + d, m, k * n1)
    np.matmul(parts, first, out=rows.reshape(1 + d, m, k, n1))
    return rows


def build_operator(shape, basis, points, want_derivs=False):
    """Build the cardinal interpolation operator for the given query points.

    Refuses, naming the index and coordinates of the first bad point, a point
    outside the reference region (`OutOfRegionError`) and, with derivatives,
    a point on a singular face of the collapse (`SingularCollapseError`).
    """
    _check_basis(shape, basis)
    points = np.atleast_2d(as_floats(points, "points"))
    inside = contains_batch(shape, points, REGION_TOL)
    if not np.all(inside):
        m = int(np.argmin(inside))
        raise OutOfRegionError(
            f"point {m} at {points[m]} lies outside the {shape.value} reference region"
        )
    etas = collapse_batch(shape, points)
    cards = [_cardinal_values(ax.nodes, etas[:, q]) for q, ax in enumerate(basis.axes)]

    if not want_derivs:
        return InterpOperator(shape, basis, points, _assemble_rows(cards), None)

    jac, singular = jacobian_entries(shape, etas)
    if singular.any():
        m = int(np.argmax(singular))
        raise SingularCollapseError(
            f"point {m} at {points[m]} lies on a singular face of the {shape.value} "
            "collapse, where derivative rows are undefined"
        )
    dcards = [c @ ax.d1 for c, ax in zip(cards, basis.axes)]
    rows = _operator_rows(cards, dcards, jac)
    return InterpOperator(shape, basis, points, rows[0], rows[1:])


def apply_operator(op, field):
    """Values (and derivatives) at all query points of the operator."""
    _check_field(op.basis, field)
    values = op.value_matrix @ field.data
    if op.deriv_matrices is None:
        return values, None
    return values, op.deriv_matrices @ field.data
