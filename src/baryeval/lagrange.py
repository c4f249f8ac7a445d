"""Interpolation-matrix baseline: tensorized cardinal Lagrange rows.

The operator holds one row per query point; entry (m, j) is the product over
axes of the univariate cardinal values

    l_j(eta) = prod_{i != j} (eta - z_i) / (z_j - z_i)

computed by the direct O(n^2) product formula at the collapsed coordinates of
point m.  Derivative rows differentiate the product (sum-of-products via
exclusive prefix/suffix products, still O(n^2) per point per axis) and are
composed with the collapse Jacobian, mirroring the chain rule of the
barycentric path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfRegionError
from .shapes import collapse_batch, contains_batch, dim_of, jacobian_batch, spec_for

REGION_TOL = 1e-10


def cardinal_values(nodes, etas):
    """Cardinal Lagrange values l_j(eta) for all j at each eta, (M, n)."""
    z = np.asarray(nodes, dtype=float)
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    delta = z[:, None] - z[None, :]
    np.fill_diagonal(delta, 1.0)
    ratios = (etas[:, None, None] - z[None, None, :]) / delta[None, :, :]
    n = len(z)
    idx = np.arange(n)
    ratios[:, idx, idx] = 1.0
    return ratios.prod(axis=2)


def cardinal_values_and_derivatives(nodes, etas):
    """Cardinal values and derivatives, each (M, n).

    l'_j(eta) = sum_{m != j} [1/(z_j - z_m)] prod_{i != j, m} (eta - z_i)/(z_j - z_i),
    assembled from exclusive prefix/suffix products so collocated etas are exact.
    """
    z = np.asarray(nodes, dtype=float)
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    n = len(z)
    delta = z[:, None] - z[None, :]
    np.fill_diagonal(delta, 1.0)
    inv_delta = 1.0 / delta
    np.fill_diagonal(inv_delta, 0.0)
    ratios = (etas[:, None, None] - z[None, None, :]) / delta[None, :, :]
    idx = np.arange(n)
    ratios[:, idx, idx] = 1.0

    cum = np.cumprod(ratios, axis=2)
    cards = cum[:, :, -1].copy()
    pre = np.ones_like(ratios)
    pre[:, :, 1:] = cum[:, :, :-1]
    cum_rev = np.cumprod(ratios[:, :, ::-1], axis=2)[:, :, ::-1]
    suf = np.ones_like(ratios)
    suf[:, :, :-1] = cum_rev[:, :, 1:]
    dcards = np.einsum("mji,ji->mj", pre * suf, inv_delta)
    return cards, dcards


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
        rows = (factors[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return rows


def build_operator(shape, basis, points, want_derivs=False):
    """Build the cardinal interpolation operator for the given query points."""
    if basis.dim != dim_of(shape):
        raise InvalidInputError(
            f"basis dim {basis.dim} does not match {shape.value} dim {dim_of(shape)}"
        )
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != basis.dim:
        raise InvalidInputError(
            f"points have dim {points.shape[1]}, shape needs {basis.dim}"
        )
    inside = contains_batch(shape, points, REGION_TOL)
    if not np.all(inside):
        bad = points[~inside][0]
        raise OutOfRegionError(
            f"{bad} lies outside the {shape.value} reference region"
        )
    etas = collapse_batch(shape, points)

    if not want_derivs:
        cards = [cardinal_values(ax.nodes, etas[:, q]) for q, ax in enumerate(basis.axes)]
        value_matrix = _assemble_rows(cards)
        return InterpOperator(shape, basis, points, value_matrix, None)

    cards, dcards = [], []
    for q, ax in enumerate(basis.axes):
        c, dc = cardinal_values_and_derivatives(ax.nodes, etas[:, q])
        cards.append(c)
        dcards.append(dc)
    value_matrix = _assemble_rows(cards)
    deta = np.stack(
        [
            _assemble_rows([dcards[i] if i == q else cards[i] for i in range(basis.dim)])
            for q in range(basis.dim)
        ]
    )
    if spec_for(shape).duffy_pairs:
        jac = jacobian_batch(shape, etas)  # raises on singular faces
        deriv_matrices = np.einsum("miq,imn->qmn", jac, deta)
    else:
        deriv_matrices = deta
    return InterpOperator(shape, basis, points, value_matrix, deriv_matrices)


def apply_operator(op, field):
    """Values (and derivatives) at all query points of the operator."""
    if len(field) != op.basis.size:
        raise InvalidInputError(
            f"field has {len(field)} values, grid has {op.basis.size}"
        )
    values = op.value_matrix @ field.data
    if op.deriv_matrices is None:
        return values, None
    return values, op.deriv_matrices @ field.data
