"""Shape-aware arbitrary-point evaluation.

An ElementEvaluator owns a shape, a tensor basis and one field, or several
fields, sampled on the shape's grid.  Evaluation collapses the query point to
cube coordinates, contracts the samples of every field with one set of
per-axis cardinal rows there (`tensor._contract`, the one per-point
contraction, which the timed bench sweep runs too) with one normalisation
per point, and maps gradients back with the collapse Jacobian:

    grad_xi p = J^T grad_eta p,    J[i, j] = d(eta_i)/d(xi_j).

Cube coordinates within SNAP_TOL (1e-12, the package's one collocation
tolerance) of a basis node are snapped onto it while the rows are built, so
such points take the collocated branch and the chain rule sees the snapped
coordinates.  Segment second derivatives (`phys_evaluate_1d`) come from the
same rows through `bary_evaluate`.  The last axis of one field is reduced on
Python floats.  Several fields on one basis cost one contraction per point,
every axis a product; `pointlocate` evaluates all d coordinate maps so.

`evaluate` takes M points at once.  It shares the batch front end of
`lagrange.build_operator` (region test, collapse, the O(n) cardinal rows of
every axis, Jacobian entries, and the same refusals), multiplies the
stacked axis-1 rows of all points with the stage-1 matrix in one product,
reduces the later axes with batched products (`tensor._contract_batch`) and
applies the chain rule on columns.  It does not snap: the rows are exact at
a node and continuous next to one.  A call costs about 90 us before the
first point, so `phys_evaluate` stays the per-point path.

Axes that appear as the `along` dimension of a collapse pair use Radau points
anchored at -1 so that no grid node touches the singular value +1; all other
axes use Gauss-Lobatto-Legendre points.  "Order P" bases carry P + 2 points
per axis.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .kernel import SNAP_TOL, EvalResult, bary_evaluate  # noqa: F401 (re-exported)
from .lagrange import _front
from .nodes import NodeKind, make_node_set
from .shapes import REGION_TOL  # noqa: F401 (re-exported)
from .shapes import Shape, _chain_rule, _check_basis, collapse_floats, expand_batch, spec_for
from .tensor import (FieldValues, TensorBasis, _check_field, _contract, _contract_batch, _stage1,
                     eta_grid)


def axis_kinds(shape):
    """Node family per axis: Radau on collapsed `along` axes, GLL elsewhere."""
    spec = spec_for(shape)
    return tuple(
        NodeKind.GAUSS_RADAU_MINUS if q in spec.along else NodeKind.GAUSS_LOBATTO_LEGENDRE
        for q in range(1, spec.dim + 1)
    )


def basis_for_shape(shape, num_points):
    """Isotropic basis with `num_points` nodes per axis, shape-appropriate kinds."""
    kinds = axis_kinds(shape)
    return TensorBasis(tuple(make_node_set(kind, num_points) for kind in kinds))


def basis_for_order(shape, order):
    """Basis for polynomial order P, using P + 2 points per axis."""
    if order < 0:
        raise InvalidInputError(f"order must be non-negative, got {order}")
    return basis_for_shape(shape, order + 2)


def xi_grid(shape, basis):
    """The grid of a basis for shape mapped into the reference region, field ordering."""
    _check_basis(shape, basis)
    return expand_batch(shape, eta_grid(basis))


def sample_field(shape, basis, func):
    """Sample func(xi) on the shape's grid into FieldValues."""
    return FieldValues([func(xi) for xi in xi_grid(shape, basis)])


class ElementEvaluator:
    """Arbitrary-point evaluation of fields on one reference element.

    `field` is one FieldValues, or a tuple of F of them on the same basis.
    With one field a result holds a float value and a (d,) gradient; with a
    tuple it holds (F,) values and an (F, d) gradient, one row per field.

    The evaluator keeps the samples once more, as a C-contiguous copy of
    the (n1, F N / n1) matrix that stage 1 of `tensor._contract` multiplies
    (`tensor._stage1`: column c is line c of the fields' samples, F fields
    one after another).
    """

    def __init__(self, shape, basis, field):
        self._spec = _check_basis(shape, basis)
        single = not isinstance(field, tuple)
        fields = (field,) if single else field
        if not fields:
            raise InvalidInputError("an evaluator needs at least one field")
        for f in fields:
            _check_field(basis, f)
        self.shape = shape
        self.basis = basis
        self.field = field
        self._single = single
        self._samples = _stage1(basis, np.stack([f.data for f in fields])).copy()

    @classmethod
    def for_order(cls, shape, order, func):
        """Build an evaluator of order P sampling func on the element grid."""
        basis = basis_for_order(shape, order)
        return cls(shape, basis, sample_field(shape, basis, func))

    def weight_storage(self):
        """Persistent barycentric-weight storage: sum of n_q, not prod n_q."""
        return sum(ax.n for ax in self.basis.axes)

    def phys_evaluate(self, xi, gradient=False):
        """Value (and gradient) at a region point xi, for every field.

        Value-only queries succeed on singular faces through the degenerate
        collapse branch; gradient queries there raise SingularCollapseError.
        """
        eta = collapse_floats(self.shape, xi)
        parts, eta = _contract(self.basis, self._samples, eta, gradient, self._single)
        if self._single:
            return EvalResult(parts[0], np.array(_chain_rule(self._spec, eta, parts[1:]))
                              if gradient else None)
        grads = None
        if gradient:
            grads = np.array([_chain_rule(self._spec, eta, g) for g in parts[1:].T.tolist()])
        return EvalResult(parts[0], grads)

    def evaluate(self, xis, gradient=False):
        """Values (and gradients) at M region points xis, (M, d), for every field.

        The batch runs the front end of `lagrange.build_operator`: the region
        test, the collapse, the cardinal rows of every axis at every point
        and the collapse Jacobian entries.  So it refuses what that refuses:
        a point outside the region (`OutOfRegionError`) and, with `gradient`,
        a point on a singular face (`SingularCollapseError`), each naming the
        index of the first such point.  Values on a singular face succeed.
        The samples are contracted for all points at once
        (`tensor._contract_batch`) and gradients mapped back with the
        Jacobian.

        With one field the result holds (M,) values and (M, d) gradients;
        with a tuple of F fields, (M, F) values and (M, F, d) gradients.
        """
        _, rows, jac = _front(self.shape, self.basis, xis, gradient)
        parts = _contract_batch(self._samples[None], rows)
        values = parts[:, 0]
        grads = None
        if gradient:
            cube = parts[:, 1:]
            grads = np.zeros_like(cube)
            for (a, b), coef in jac.items():
                grads[:, b] += cube[:, a] if coef is None else coef[:, None] * cube[:, a]
            grads = grads.transpose(0, 2, 1)
        if self._single:
            return EvalResult(values[:, 0], None if grads is None else grads[:, 0])
        return EvalResult(values, grads)

    def phys_evaluate_1d(self, xi, deriv=0):
        """Segment evaluation with derivatives up to order 2."""
        if self.shape is not Shape.SEGMENT:
            raise InvalidInputError("phys_evaluate_1d applies to segments only")
        if not self._single:
            raise InvalidInputError("phys_evaluate_1d evaluates a single field")
        (eta,) = collapse_floats(self.shape, xi)
        return bary_evaluate(self.basis.axes[0], self.field.data, eta, deriv)
