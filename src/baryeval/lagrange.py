"""Interpolation-matrix baseline: tensorized cardinal Lagrange rows.

The operator holds one row per query point; entry (m, j) is the product over
axes of the univariate cardinal values

    l_j(eta) = prod_{i != j} (eta - z_i) / prod_{i != j} (z_j - z_i)

at the collapsed coordinates of point m, the division-free first barycentric
form, which is backward stable (Higham 2004).  The numerators are built in
O(n) per point and axis, as an exclusive prefix product times an exclusive
suffix product of (eta - z_i); the denominators are the same products at
eta = z_j, taken once per node set (`NodeSet.denominators`) by the same
operations, so a point on a node gets the unit row bit for bit, with no
snap, mask or division by eta - z_j.  `_cardinal_rows` builds them axis by
axis; `cardinal_values` is the same formula on caller nodes.
Derivative rows take l' = l D, D the axis's differentiation matrix
(`NodeSet.d1`), O(n^2): l'_j has degree n - 2, so it equals its own
interpolant sum_i l_i(eta) D[i, j], and at a node the row is D[k] exactly.

`_front` is the batch front end shared with `ElementEvaluator.evaluate`:
the region test, the collapse, the rows and the collapse Jacobian entries,
each on NumPy columns for all M points.  The operator composes the rows
with the Jacobian, mirroring the chain rule of the barycentric path.  The
Jacobian is applied before the tensor product, on the rows of axes 2..d,
through its nonzero entries only; one batched product with the axis-1
values and derivatives then writes the value row and the d derivative rows
of every point once, into one C-contiguous (1 + d, M, N) array, starting on
a 64-byte boundary, whose slices are the value matrix and the derivative
stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegionError, SingularCollapseError, as_floats
from .nodes import _cardinal_denominators, _distinct, _exclusive_products, _line
from .shapes import REGION_TOL, _check_basis, collapse_batch, contains_batch, jacobian_entries
from .tensor import _check_field


def cardinal_values(nodes, etas):
    """Cardinal Lagrange values l_j(eta) for all j at each finite eta, (M, n).

    Refuses nodes that repeat a value with DegenerateNodesError.  The rows
    are those of `_cardinal_rows`, over `nodes._cardinal_denominators` of the
    nodes.  l_j is unchanged when every difference is scaled alike, so the
    differences eta - z_i and the nodes are scaled, exactly, by the power of
    two that brings the nodes' spread into [2, 4): nodes spread far from O(1)
    do not by that alone underflow or overflow the products.  As for
    `bary_weights`, node sets whose products leave the float range even so
    (many nodes with gaps tiny against their spread) are unsupported.
    """
    etas = _line(np.atleast_1d(as_floats(etas, "eta")), "eta")
    z = _line(nodes, "nodes")
    _distinct(z)
    scale = np.ldexp(1.0, 2 - np.frexp(z.max() - z.min() if len(z) else 0.0)[1])
    return (_exclusive_products((etas[:, None] - z) * scale)
            / _cardinal_denominators(z * scale))


def _cardinal_rows(basis, etas, deriv):
    """[l_q; l_q'] of every axis q at the (M, d) cube points etas.

    Returns a list of d (M, 1 + deriv, n_q) arrays, one product pass per axis.
    """
    rows = []
    for q, ax in enumerate(basis.axes):
        r = np.empty((len(etas), 1 + deriv, ax.n))
        cards = np.divide(_exclusive_products(etas[:, q, None] - ax.nodes), ax.denominators,
                          out=r[:, 0])
        if deriv:
            np.matmul(cards, ax.d1, out=r[:, 1])
        rows.append(r)
    return rows


def _front(shape, basis, points, deriv):
    """The batch front end of `build_operator` and `ElementEvaluator.evaluate`.

    Reads points as an (M, d) array, refusing, with the index and coordinates
    of the first bad point, a point outside the reference region
    (`OutOfRegionError`) and, with `deriv`, a point on a singular face of the
    collapse (`SingularCollapseError`).  Returns the points, the rows of
    `_cardinal_rows` at their cube coordinates, and with `deriv` the nonzero
    entries of their collapse Jacobians (`shapes.jacobian_entries`), else None.
    `deriv` is read by its truth value.
    """
    deriv = bool(deriv)
    points = np.atleast_2d(as_floats(points, "points"))
    inside = contains_batch(shape, points, REGION_TOL)
    if not np.all(inside):
        m = int(np.argmin(inside))
        raise OutOfRegionError(
            f"point {m} at {points[m]} lies outside the {shape.value} reference region"
        )
    etas = collapse_batch(shape, points)
    jac = None
    if deriv:
        jac, singular = jacobian_entries(shape, etas)
        if singular.any():
            m = int(np.argmax(singular))
            raise SingularCollapseError(
                f"point {m} at {points[m]} lies on a singular face of the {shape.value} "
                "collapse, where derivatives are undefined"
            )
    return points, _cardinal_rows(basis, etas, deriv), jac


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


def _operator_rows(rows, jac):
    """Value and region-derivative rows in one C-contiguous (1 + d, M, N) array.

    Every row splits over axis 1 as R_r (x) l_1 + S_r (x) l_1', with R_r and
    S_r on axes 2..d (M x N/n_1):

        value row       R = P,  S = 0,          P = prod_{q >= 2} l_q
        d/dxi_b row     R = sum_{a >= 2} J[a, b] P_a',   S = J[1, b] P

    where P_a' is P with l_a' in place of l_a.  rows[q] is the (M, 2, n_q)
    stack [l_q; l_q'] of `_cardinal_rows`.  `jac` holds the nonzero
    entries of the collapse Jacobian only (`shapes.jacobian_entries`), so it
    enters at the small M x N/n_1 level, and one batched product with
    [l_1; l_1'] writes every full row once.
    """
    m, d = len(rows[0]), len(rows)
    tails = [
        _assemble_rows([rows[q][:, 1 if q == a else 0] for q in range(1, d)])
        if d > 1 else np.ones((m, 1))
        for a in range(d)
    ]  # tails[0] is P, tails[a] is P_a'
    k, n1 = tails[0].shape[1], rows[0].shape[2]
    parts = np.zeros((1 + d, m, k, 2))  # [R_r, S_r]
    parts[0, :, :, 0] = tails[0]
    for (a, b), coef in jac.items():
        term = tails[a] if coef is None else coef[:, None] * tails[a]
        parts[1 + b, :, :, 1 if a == 0 else 0] += term
    # Start the buffer on a 64-byte boundary: the BLAS matrix-vector kernels
    # of a cached apply_operator lose 5-10% on rows that start 16 bytes past
    # one, where large allocations begin.
    size = (1 + d) * m * k * n1
    raw = np.empty(size + 8)
    skip = -(raw.ctypes.data // 8) % 8
    out = raw[skip:skip + size].reshape(1 + d, m, k * n1)
    np.matmul(parts, rows[0], out=out.reshape(1 + d, m, k, n1))
    return out


def build_operator(shape, basis, points, want_derivs=False):
    """Build the cardinal interpolation operator for the given query points.

    Refuses, naming the index and coordinates of the first bad point, a point
    outside the reference region (`OutOfRegionError`) and, with derivatives,
    a point on a singular face of the collapse (`SingularCollapseError`).
    """
    _check_basis(shape, basis)
    points, rows, jac = _front(shape, basis, points, want_derivs)
    if not want_derivs:
        return InterpOperator(shape, basis, points, _assemble_rows([r[:, 0] for r in rows]), None)
    rows = _operator_rows(rows, jac)
    return InterpOperator(shape, basis, points, rows[0], rows[1:])


def apply_operator(op, field):
    """Values (and derivatives) at all query points of the operator."""
    _check_field(op.basis, field)
    values = op.value_matrix @ field.data
    if op.deriv_matrices is None:
        return values, None
    return values, op.deriv_matrices @ field.data
