"""Malformed fields, bases and points are refused with a BaryevalError.

Each input rule has one owner: `nodes` checks node kinds and sizes,
`tensor` checks fields and cube points, `shapes` checks bases for a shape
and region points, one or a batch, and `pointlocate` a target and a start.
Every entry point that takes such an input goes through that check, so
each row below names an entry point and an input its owner refuses.
"""

import numpy as np
import pytest

from baryeval import (
    BaryevalError,
    ElementEvaluator,
    FieldValues,
    LocateConfig,
    LocateProblem,
    NodeKind,
    Shape,
    TensorBasis,
    apply_operator,
    bary_evaluate,
    basis_for_order,
    build_operator,
    locate,
    make_node_set,
    multi_bary_direct,
    sample_field,
    tensor_evaluate,
)
from baryeval.pointlocate import project_into_region
from baryeval.shapes import collapse, contains_point, jacobian

TRI = basis_for_order(Shape.TRI, 3)  # N = 25
QUAD = basis_for_order(Shape.QUAD, 3)
GLL_TRI = TensorBasis(tuple(make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5) for _ in range(2)))
FIELD = sample_field(Shape.TRI, TRI, lambda xi: 1.0)
SEGMENT = ElementEvaluator.for_order(Shape.SEGMENT, 3, lambda xi: xi[0])
TRI_EVAL = ElementEvaluator(Shape.TRI, TRI, FIELD)
OPERATOR = build_operator(Shape.TRI, TRI, [[-0.5, -0.5]])
COLUMN = [[-0.5], [-0.5]]  # a (d, 1) point
COORDS = tuple(sample_field(Shape.TRI, TRI, lambda xi, q=q: xi[q]) for q in range(2))


def _column_field():
    return FieldValues(np.ones((25, 1)))


CASES = {
    "multi_bary_direct, (N, 1) samples":
        lambda: multi_bary_direct(TRI, _column_field(), [0.1, 0.2]),
    "tensor_evaluate, (N, 1) samples": lambda: tensor_evaluate(TRI, _column_field(), [0.1, 0.2]),
    "ElementEvaluator, (N, 1) samples": lambda: ElementEvaluator(Shape.TRI, TRI, _column_field()),
    "ElementEvaluator, raw array": lambda: ElementEvaluator(Shape.TRI, TRI, FIELD.data),
    # refused for its type, not as a field of two samples
    "ElementEvaluator, list of fields": lambda: ElementEvaluator(Shape.TRI, TRI, [FIELD, FIELD]),
    "apply_operator, raw array": lambda: apply_operator(OPERATOR, FIELD.data),
    "phys_evaluate_1d, two coordinates": lambda: SEGMENT.phys_evaluate_1d([0.5, 9.0]),
    "contains_point, (d, 1) point": lambda: contains_point(Shape.TRI, COLUMN, 1e-10),
    "collapse, (d, 1) point": lambda: collapse(Shape.TRI, COLUMN),
    "phys_evaluate, (d, 1) point": lambda: TRI_EVAL.phys_evaluate(COLUMN),
    "jacobian, (1, 1) point": lambda: jacobian(Shape.SEGMENT, [[0.5]]),
    "project_into_region, (d, 1) point": lambda: project_into_region(Shape.TRI, COLUMN),
    "tensor_evaluate, (d, 1) point":
        lambda: tensor_evaluate(QUAD, sample_field(Shape.QUAD, QUAD, lambda xi: 1.0),
                                [[0.1], [0.2]]),
    "build_operator, node at +1 on a collapsed axis":
        lambda: build_operator(Shape.TRI, GLL_TRI, [[-0.5, -0.5]]),
    "bary_evaluate, (n, 1) values":
        lambda: bary_evaluate(TRI.axes[0], np.ones((5, 1)), 0.1),
    "bary_evaluate, eta of shape (1,)":
        lambda: bary_evaluate(TRI.axes[0], np.ones(5), np.array([0.1])),
    "make_node_set, size 5.0": lambda: make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5.0),
    "basis_for_order, order 2.5": lambda: basis_for_order(Shape.TRI, 2.5),
    "locate, non-numeric target":
        lambda: locate(LocateProblem(Shape.TRI, TRI, COORDS, ["a", 0])),
    "locate, non-numeric init":
        lambda: locate(LocateProblem(Shape.TRI, TRI, COORDS, [-0.5, -0.5],
                                     LocateConfig(init=["a", 0]))),
}


@pytest.mark.parametrize("case", CASES)
def test_malformed_input_is_refused(case):
    with pytest.raises(BaryevalError, match="list" if "list" in case else None):
        CASES[case]()
