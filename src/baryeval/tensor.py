"""Tensor-product evaluation on the [-1,1]^d orthotope by dimension-by-dimension
contraction, plus the direct multivariate barycentric form used as a slow oracle.

Field samples are stored flat with the dimension-1 index running fastest: the
line for fixed (j2, j3) starts at offset (j3*n2 + j2)*n1.  `_contract` reduces
them with the per-axis cardinal rows of the kernel, the one univariate formula
of the package, unnormalised, and divides once per point by the product of
the per-axis sums, as the direct form `multi_bary_direct` does.  It is the one
per-point contraction: `tensor_evaluate`, `ElementEvaluator.phys_evaluate` and
the timed bench sweep all run it.  `_contract_batch` is its form for M
points, on the rows of `lagrange._cardinal_rows`, behind
`ElementEvaluator.evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CollocationError, InvalidInputError, as_floats
from .kernel import SNAP_TOL, EvalResult, _axis_rows, _reduce_lines, counters
from .nodes import NodeSet, _line, _read_only


@dataclass(frozen=True)
class TensorBasis:
    """Per-dimension node sets defining a tensor grid (d = 1, 2 or 3).

    `counts` and `size` are computed on first use; `==` and the hash read `axes` only.
    """

    axes: tuple

    def __post_init__(self):
        if not (isinstance(self.axes, tuple) and all(isinstance(a, NodeSet) for a in self.axes)):
            raise InvalidInputError(f"basis axes must be a tuple of NodeSets, got {self.axes!r}")
        if not 1 <= len(self.axes) <= 3:
            raise InvalidInputError(f"dimension must be 1..3, got {len(self.axes)}")

    @property
    def dim(self):
        return len(self.axes)

    @cached_property
    def counts(self):
        return tuple(ax.n for ax in self.axes)

    @cached_property
    def size(self):
        return math.prod(self.counts)


@dataclass(frozen=True, eq=False)
class FieldValues:
    """Read-only copy of finite field samples on the tensor grid, flat, dimension-1 fastest."""

    data: np.ndarray

    def __post_init__(self):
        samples = _line(self.data, "field samples")
        object.__setattr__(self, "data", _read_only(samples, "field samples"))

    def __len__(self):
        return len(self.data)


def _check_tensor_basis(basis):
    """Refuse anything but a TensorBasis."""
    if not isinstance(basis, TensorBasis):
        raise InvalidInputError(f"a basis must be a TensorBasis, got {type(basis).__name__}")


def eta_grid(basis):
    """All grid points as an (N, d) array in field ordering."""
    _check_tensor_basis(basis)
    axes_1d = [ax.nodes for ax in basis.axes]
    # Reversed meshgrid so that dimension 1 varies fastest in the flat order.
    mesh = np.meshgrid(*axes_1d[::-1], indexing="ij")[::-1]
    return np.stack([m.ravel() for m in mesh], axis=1)


def sample_on_grid(basis, func):
    """Sample func(eta) on the tensor grid into FieldValues."""
    pts = eta_grid(basis)
    return FieldValues([func(p) for p in pts])


def _check_field(basis, field):
    """Refuse a basis that is not a TensorBasis, and anything but a FieldValues
    with one sample per node of basis."""
    _check_tensor_basis(basis)
    if not isinstance(field, FieldValues):
        raise InvalidInputError(f"a field must be FieldValues, got {type(field).__name__}")
    if len(field.data) != basis.size:
        raise InvalidInputError(f"field has {len(field.data)} values, grid has {basis.size}")


def _query(basis, field, eta):
    """The field check, then eta as a (d,) array of finite floats; anything else is refused."""
    _check_field(basis, field)
    eta = np.atleast_1d(as_floats(eta, "point"))
    if eta.shape != (basis.dim,) or not np.isfinite(eta).all():
        raise InvalidInputError(f"point must be {basis.dim} finite coordinates, got {eta}")
    return eta


def _stage1(basis, data):
    """One field, (N,), or F fields, (F, N), as the (n1, F N / n1) matrix that
    stage 1 of `_contract` multiplies, a transposed view: column c is line c."""
    return data.reshape(-1, basis.counts[0]).T


def _contract(basis, samples, eta, gradient, one):
    """Values, and with `gradient` cube-space gradients, of one or F fields at eta.

    `gradient` is read by its truth value, as `build_operator` reads `want_derivs`.

    samples is the matrix of `_stage1`, with any strides; `ElementEvaluator`
    keeps a C-contiguous copy, `tensor_evaluate` passes the view.  `one` says
    that F = 1 and a list of floats is wanted.  The contraction runs one axis
    at a time, dimension 1 first, over the parts held so far (value,
    d/deta_1, ..., d/deta_{q-1} of every field, stacked in that order):
    every part is reduced with the unnormalised l row of `kernel._axis_rows`,
    and the value part alone also with its unnormalised l' row, which
    appends d/deta_q.  Every axis but the last is one product over all
    lines.  On the last axis one field leaves one
    short line, or d with gradients, which `kernel._reduce_lines` reduces
    on Python floats; F fields leave F times as many lines, and the last
    axis stays a product.  The barycentric normalisation is applied once,
    as the product G of the axes' scales g: inside `_reduce_lines`' multiply
    per output for one field, as one product with the result for F fields.

    Returns the parts, a list of P floats for one field or a (P, F) array for
    F fields (P = 1, or 1 + d with gradients), and eta as a list with the
    coordinates within SNAP_TOL of a node snapped onto it.
    """
    eta = list(eta)
    deriv = 1 if gradient else 0
    counts = basis.counts
    axes = basis.axes
    scale = 1.0
    parts = lines = samples
    for q in range(len(counts) - 1 if one else len(counts)):
        rows, g, eta[q] = _axis_rows(axes[q], eta[q], deriv)
        scale *= g
        if q:
            lines = parts.reshape(-1, counts[q]).T
        if counters.enabled:
            counters.kernel_calls += lines.shape[1]
            counters.per_call_nodes.extend([counts[q]] * lines.shape[1])
        # Row r of `parts` is rows[r] applied to every line, so the l-reduced
        # parts followed by the l'-reduced value part are a prefix of it (all
        # of it on axis 1).
        parts = rows @ lines
        if deriv and q:
            m = lines.shape[1]
            parts = parts.ravel()[:m + m // (q + 1)]
    if not one:
        return parts.reshape(1 + deriv * len(counts), -1) * scale, eta
    parts, eta[-1] = _reduce_lines(axes[-1], eta[-1], deriv,
                                   parts.reshape(-1, counts[-1]).tolist(), scale)
    return parts, eta


def _contract_batch(samples, rows):
    """Values, and with derivative rows cube-space gradients, of F fields at M points.

    samples is the (E, n1, F N / n1) stack of `_stage1` matrices, one element
    here (E = 1); rows[q] is the (M, R, n_q) stack of the cardinal rows of
    axis q at every point, [l_q] (R = 1) or [l_q; l_q'] (R = 2).  Stage 1 is
    one product of the stacked axis-1 rows of all points with the samples.
    Each later axis is one batched product over the points that reduces, as
    `_contract` does, every part held so far with l_q and the value part also
    with l_q'.  Returns the (M, P, F) parts, P = 1 or 1 + d: the value, then
    d/deta_1, ..., d/deta_d.
    """
    m, r, n1 = rows[0].shape
    width = r * samples.shape[2]  # per point; not -1 in a reshape, which M = 0 leaves undefined
    parts = np.matmul(rows[0].reshape(1, m * r, n1), samples).reshape(m, width)
    for q in range(1, len(rows)):
        n = rows[q].shape[2]
        lines = parts.reshape(m, width // n, n).transpose(0, 2, 1)
        parts = np.matmul(rows[q], lines).reshape(m, r * (width // n))
        width = width // n + (r - 1) * (width // n) // (q + 1)
        parts = parts[:, :width]
    p = 1 + (r - 1) * len(rows)
    return parts.reshape(m, p, width // p)


def tensor_evaluate(basis, fieldvalues, eta, gradient=False):
    """Evaluate the tensor interpolant (and its gradient) at one point.

    Per axis q the cardinal rows l (value) and l' (derivative) are built in
    O(n_q), and the samples are contracted with them dimension 1 first.  One
    kernel reduction is one line-row product: with gradients this takes
    n2 + 2 reductions in 2D and n2*n3 + 2*n3 + 3 in 3D (value only: n2 + 1
    and n2*n3 + n3 + 1).
    """
    eta = _query(basis, fieldvalues, eta)
    parts, _ = _contract(basis, _stage1(basis, fieldvalues.data), eta.tolist(), gradient, True)
    return EvalResult(parts[0], np.array(parts[1:])) if gradient else EvalResult(parts[0])


def multi_bary_direct(basis, fieldvalues, eta):
    """Direct multivariate barycentric ratio with product weights.

    Slow O(N) oracle for tensor_evaluate; undefined on grid lines.
    """
    eta = _query(basis, fieldvalues, eta)
    per_axis = []
    for q, ax in enumerate(basis.axes):
        if np.abs(ax.nodes - eta[q]).min() <= SNAP_TOL:
            raise CollocationError(
                f"coordinate {q + 1} of {eta} lies on a grid line"
            )
        per_axis.append(ax.weights / (eta[q] - ax.nodes))
    # Full tensor of product weights over differences, dimension 1 fastest.
    terms = per_axis[0]
    for a in per_axis[1:]:
        terms = np.multiply.outer(a, terms)
    terms = terms.ravel()
    return float((fieldvalues.data * terms).sum() / terms.sum())
