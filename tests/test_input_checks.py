"""Malformed fields, bases and points are refused with a BaryevalError.

Each input rule has one owner: `nodes` checks node kinds, sizes and arrays,
`tensor` checks that a basis is a TensorBasis, basis axes, fields and cube
points, `shapes` checks bases for a shape and region points, one or a batch,
and `pointlocate` a target, a start and the number of coordinate fields.
Every entry point that takes such an input goes through that check, so
each row of `CASES` names an entry point and an input its owner refuses.
Every caller-supplied number is read by one helper, `errors.as_floats`, so
each entry point of `READERS` turns anything NumPy cannot read as real
numbers into a BaryevalError, and returns finite numbers for the rest.
Every integer argument is read by `errors.as_index`, so each row of
`INTEGERS` is refused with an InvalidInputError that names the argument.
"""

import dataclasses
import math

import numpy as np
import pytest

from baryeval import (
    BaryevalError,
    ElementEvaluator,
    FieldValues,
    InvalidInputError,
    LocateConfig,
    LocateProblem,
    NodeKind,
    NodeSet,
    OutOfRegionError,
    Shape,
    TensorBasis,
    apply_operator,
    bary_evaluate,
    bary_weights,
    basis_for_order,
    build_operator,
    cardinal_values,
    collapse,
    contains_point,
    diff_matrix,
    eta_grid,
    exactness_contains,
    expand,
    jacobian,
    locate,
    make_node_set,
    multi_bary_direct,
    sample_field,
    sample_on_grid,
    tensor_evaluate,
)
from baryeval.bench import run_bench
from baryeval.fields import exact_multi_indices, monomial_field
from baryeval.pointlocate import project_into_region
from baryeval.shapes import ancestors

TRI = basis_for_order(Shape.TRI, 3)  # N = 25
QUAD = basis_for_order(Shape.QUAD, 3)
GLL_TRI = TensorBasis(tuple(make_node_set(NodeKind.GAUSS_LOBATTO_LEGENDRE, 5) for _ in range(2)))
FIELD = sample_field(Shape.TRI, TRI, lambda xi: 1.0)
SEGMENT = ElementEvaluator.for_order(Shape.SEGMENT, 3, lambda xi: xi[0])
TRI_EVAL = ElementEvaluator(Shape.TRI, TRI, FIELD)
OPERATOR = build_operator(Shape.TRI, TRI, [[-0.5, -0.5]])
COLUMN = [[-0.5], [-0.5]]  # a (d, 1) point
COORDS = tuple(sample_field(Shape.TRI, TRI, lambda xi, q=q: xi[q]) for q in range(2))
QUAD_FIELD = sample_field(Shape.QUAD, QUAD, lambda xi: xi[0] - 2.0 * xi[1])
AXIS = TRI.axes[0]  # five GLL nodes
LINE = [-1.0, 0.0, 1.0]


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
    "diff_matrix, two weights for three nodes": lambda: diff_matrix(LINE, [0.5, -1.0]),
    "TensorBasis, integer axes": lambda: TensorBasis((1, 2)),
    "TensorBasis, a node array as an axis": lambda: TensorBasis((AXIS, AXIS.nodes)),
    "TensorBasis, an integer": lambda: TensorBasis(5),
    "basis_for_order, order 2.5": lambda: basis_for_order(Shape.TRI, 2.5),
    "locate, non-numeric target":
        lambda: locate(LocateProblem(Shape.TRI, TRI, COORDS, ["a", 0])),
    "locate, non-numeric init":
        lambda: locate(LocateProblem(Shape.TRI, TRI, COORDS, [-0.5, -0.5],
                                     LocateConfig(init=["a", 0]))),
    # refused before the fields are hashed as a cache key
    "locate, coordinate arrays":
        lambda: locate(LocateProblem(Shape.TRI, TRI, tuple(f.data for f in COORDS), [-0.5, -0.5])),
    "locate, integer coordinates":
        lambda: locate(LocateProblem(Shape.TRI, TRI, (1, 2), [-0.5, -0.5])),
    "locate, an integer as coord_fields":
        lambda: locate(LocateProblem(Shape.TRI, TRI, 5, [-0.5, -0.5])),
    "locate, one coordinate field for a triangle":
        lambda: locate(LocateProblem(Shape.TRI, TRI, COORDS[:1], [-0.5, -0.5])),
    "NodeSet, two weights for three nodes":
        lambda: NodeSet(NodeKind.EQUISPACED, LINE, [0.5, -1.0], np.eye(3), np.eye(3)),
    "NodeSet, nodes out of order":
        lambda: NodeSet(NodeKind.EQUISPACED, [-1.0, 1.0, 0.0], [0.5, 0.5, -1.0],
                        np.eye(3), np.eye(3)),
    "NodeSet, a repeated node":
        lambda: NodeSet(NodeKind.EQUISPACED, [-1.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                        np.eye(3), np.eye(3)),
    "NodeSet, a zero weight":
        lambda: NodeSet(NodeKind.EQUISPACED, LINE, [0.5, 0.0, 0.5], np.eye(3), np.eye(3)),
    "NodeSet, (2, 2) d1":
        lambda: NodeSet(NodeKind.EQUISPACED, LINE, [0.5, -1.0, 0.5], np.eye(2), np.eye(3)),
    "NodeSet, (3, 2) d2":
        lambda: NodeSet(NodeKind.EQUISPACED, LINE, [0.5, -1.0, 0.5], np.eye(3), np.ones((3, 2))),
    "diff_matrix, a repeated node": lambda: diff_matrix([-1.0, 0.0, 0.0, 1.0], np.ones(4)),
    "cardinal_values, a repeated node": lambda: cardinal_values([-1.0, 0.0, 0.0], [0.1]),
    "diff_matrix, a zero weight": lambda: diff_matrix(LINE, [0.5, 0.0, 0.5]),
    "bary_evaluate, deriv 1.0 at a node": lambda: bary_evaluate(AXIS, np.ones(5), 0.0, 1.0),
    "phys_evaluate_1d, deriv 2.0 off a node": lambda: SEGMENT.phys_evaluate_1d(0.3, deriv=2.0),
    "LocateConfig, max_iters 2.5": lambda: LocateConfig(max_iters=2.5),
    "LocateConfig, max_iters '3'": lambda: LocateConfig(max_iters="3"),
    "LocateConfig, max_iters None": lambda: LocateConfig(max_iters=None),
    "LocateConfig, max_iters 0": lambda: LocateConfig(max_iters=0),
    "sample_field, quad basis on a triangle":
        lambda: sample_field(Shape.TRI, QUAD, lambda xi: 1.0),
    "sample_field, quad basis on a tet": lambda: sample_field(Shape.TET, QUAD, lambda xi: 1.0),
    "sample_field, hex basis on a prism":
        lambda: sample_field(Shape.PRISM, basis_for_order(Shape.HEX, 3), lambda xi: 1.0),
    "basis_for_order, order -1": lambda: basis_for_order(Shape.TRI, -1),
    "exactness_contains, three exponents for a triangle":
        lambda: exactness_contains(Shape.TRI, 3, [1, 0, 0]),
}

# Integer arguments are read by `errors.as_index`, which reads NumPy
# integers too; anything else is refused with InvalidInputError naming the
# argument.  Each row: (call, the argument's name in the message).
INTEGERS = {
    "exactness_contains, exponents 1.7 and 0.2":
        (lambda: exactness_contains(Shape.TRI, 3, [1.7, 0.2]), "alpha"),
    "exactness_contains, exponents 'ab'": (lambda: exactness_contains(Shape.TRI, 3, "ab"), "alpha"),
    "exactness_contains, three degrees for a triangle":
        (lambda: exactness_contains(Shape.TRI, [3, 2, 1], [1, 1]), "k"),
    "ancestors, dimension '1'": (lambda: ancestors(Shape.TET, "1"), "q"),
    "basis_for_order, order '3'": (lambda: basis_for_order(Shape.TRI, "3"), "order"),
    "basis_for_order, order None": (lambda: basis_for_order(Shape.TRI, None), "order"),
    "exact_multi_indices, degree 2.5": (lambda: exact_multi_indices(Shape.TRI, 2.5), "k"),
    "run_bench, reps 2.5":
        (lambda: run_bench(shapes=[Shape.SEGMENT], orders=[2], reps=2.5), "reps"),
    "monomial_field, exponent 1.5": (lambda: monomial_field([1.5, 0]), "alpha"),
}
CASES.update({name: call for name, (call, _) in INTEGERS.items()})


@pytest.mark.parametrize("case", INTEGERS)
def test_integer_arguments_are_refused_by_name(case):
    call, name = INTEGERS[case]
    with pytest.raises(InvalidInputError, match=rf"\b{name}\b"):
        call()


def test_numpy_integers_are_read_as_integers():
    assert exactness_contains(Shape.TRI, np.int64(3), np.array([1, 2]))
    assert ancestors(Shape.TET, np.int64(2)) == ancestors(Shape.TET, 2)
    assert basis_for_order(Shape.TRI, np.int64(3)) == basis_for_order(Shape.TRI, 3)
    assert exact_multi_indices(Shape.TRI, np.int64(2)) == exact_multi_indices(Shape.TRI, 2)
    assert monomial_field(np.array([2, 1])).eval([0.5, 3.0]) == 0.75

# Every entry point that takes a basis refuses one that is not a TensorBasis.
NOT_A_BASIS = {"[1, 2]": [1, 2], "None": None, "a tuple of node sets": TRI.axes}
BASIS_TAKERS = {
    "ElementEvaluator": lambda b: ElementEvaluator(Shape.TRI, b, FIELD),
    "build_operator": lambda b: build_operator(Shape.TRI, b, [[-0.5, -0.5]]),
    "sample_field": lambda b: sample_field(Shape.TRI, b, lambda xi: 1.0),
    "sample_on_grid": lambda b: sample_on_grid(b, lambda eta: 1.0),
    "eta_grid": eta_grid,
    "tensor_evaluate": lambda b: tensor_evaluate(b, FIELD, [0.1, 0.2]),
    "multi_bary_direct": lambda b: multi_bary_direct(b, FIELD, [0.1, 0.2]),
    "locate": lambda b: locate(LocateProblem(Shape.TRI, b, COORDS, [-0.5, -0.5])),
}
CASES.update({f"{name}, basis {what}": lambda call=call, basis=basis: call(basis)
              for name, call in BASIS_TAKERS.items() for what, basis in NOT_A_BASIS.items()})


@pytest.mark.parametrize("case", CASES)
def test_malformed_input_is_refused(case):
    with pytest.raises(BaryevalError, match="list" if "list" in case else None):
        CASES[case]()


# Each entry point that reads a point, a batch, samples or a scalar
# coordinate, as (call on that one input, a well-formed value of it).
READERS = {
    "contains_point": (lambda x: contains_point(Shape.TRI, x, 1e-10), [-0.5, -0.2]),
    "collapse": (lambda x: collapse(Shape.TRI, x), [-0.5, -0.2]),
    "expand": (lambda x: expand(Shape.TRI, x), [0.1, 0.2]),
    "jacobian": (lambda x: jacobian(Shape.TRI, x), [0.1, 0.2]),
    "phys_evaluate": (lambda x: TRI_EVAL.phys_evaluate(x, gradient=True), [-0.5, -0.2]),
    "phys_evaluate, fields": (lambda x: ElementEvaluator(Shape.TRI, TRI, COORDS).phys_evaluate(
        x, gradient=True), [-0.5, -0.2]),
    "phys_evaluate_1d": (lambda x: SEGMENT.phys_evaluate_1d(x, deriv=2), 0.3),
    "evaluate": (lambda x: TRI_EVAL.evaluate(x, gradient=True), [[-0.5, -0.2], [0.1, -0.6]]),
    "evaluate, fields": (lambda x: ElementEvaluator(Shape.TRI, TRI, COORDS).evaluate(
        x, gradient=True), [[-0.5, -0.2], [0.1, -0.6]]),
    "tensor_evaluate": (lambda x: tensor_evaluate(QUAD, QUAD_FIELD, x, gradient=True), [0.1, 0.2]),
    "multi_bary_direct": (lambda x: multi_bary_direct(QUAD, QUAD_FIELD, x), [0.1, 0.2]),
    "build_operator": (lambda x: build_operator(Shape.TRI, TRI, x, want_derivs=True),
                       [[-0.5, -0.2], [0.1, -0.6]]),
    "project_into_region": (lambda x: project_into_region(Shape.TRI, x), [0.5, 0.5]),
    "locate, target": (lambda x: locate(LocateProblem(Shape.TRI, TRI, COORDS, x)), [-0.5, -0.2]),
    "locate, init": (lambda x: locate(LocateProblem(Shape.TRI, TRI, COORDS, [-0.5, -0.2],
                                                    LocateConfig(init=x))), [0.1, -0.6]),
    "FieldValues": (FieldValues, [1.0, -2.0, 0.5]),
    "sample_field": (lambda x: sample_field(Shape.TRI, TRI, lambda xi: x), 0.5),
    "sample_on_grid": (lambda x: sample_on_grid(QUAD, lambda eta: x), 0.5),
    "bary_evaluate, values": (lambda x: bary_evaluate(AXIS, x, 0.1, 2), [1.0, 2.0, 0.5, 0.3, 0.1]),
    "bary_evaluate, eta": (lambda x: bary_evaluate(AXIS, np.ones(5), x, 2), 0.1),
    "cardinal_values, nodes": (lambda x: cardinal_values(x, [0.1, 0.2]), LINE),
    "cardinal_values, eta": (lambda x: cardinal_values(LINE, x), [0.1, 0.2]),
    "bary_weights": (bary_weights, LINE),
    "diff_matrix, nodes": (lambda x: diff_matrix(x, [0.5, -1.0, 0.5]), LINE),
    "diff_matrix, weights": (lambda x: diff_matrix(LINE, x), [0.5, -1.0, 0.5]),
    "NodeSet, nodes": (lambda x: NodeSet(NodeKind.EQUISPACED, x, [0.5, -1.0, 0.5],
                                         np.eye(3), np.eye(3)), LINE),
    "NodeSet, d1": (lambda x: NodeSet(NodeKind.EQUISPACED, LINE, [0.5, -1.0, 0.5],
                                      x, np.eye(3)), np.eye(3).tolist()),
}


def _object_array(good, x):
    """good as an object array with its first number replaced by x."""
    out = np.array(good, dtype=object)
    out.flat[0] = x
    return out


def _first(good, x):
    """good with its first number replaced by x."""
    return _object_array(good, x).tolist()


# Malformed forms of a well-formed input.
MALFORMED = {
    "non-numeric string": lambda good: _first(good, "a"),
    "complex number": lambda good: _first(good, 1 + 1j),
    "complex array": lambda good: np.asarray(good) + 1j,
    "dict": lambda good: {"x": good},
    "ragged list": lambda good: [[0.1, 0.2], [0.3]],
    "object array": lambda good: _object_array(good, object()),
    "object array of NumPy complex": lambda good: _object_array(good, np.complex128(1 + 1j)),
    "wrong shape": lambda good: [good],
    "NaN": lambda good: _first(good, math.nan),
    "+inf": lambda good: _first(good, math.inf),
    "-inf": lambda good: _first(good, -math.inf),
}


def _finite(result):
    """Whether every number in a result (arrays, floats, dataclass fields) is finite."""
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return all(map(_finite, result))
    if isinstance(result, (np.ndarray, np.number, float, int)):
        return bool(np.isfinite(result).all())
    return True  # enums and None


@pytest.mark.parametrize("reader", READERS)
def test_well_formed_input_is_read(reader):
    call, good = READERS[reader]
    assert _finite(call(good))


# A NumPy warning (say, a complex value cast to real) must not stand in for a refusal.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", MALFORMED)
@pytest.mark.parametrize("reader", READERS)
def test_malformed_input_is_refused_or_read_as_finite_numbers(reader, form):
    call, good = READERS[reader]
    try:
        result = call(MALFORMED[form](good))
    except BaryevalError:
        return
    assert _finite(result)


@pytest.mark.parametrize("call", [
    lambda: jacobian(Shape.TRI, [math.nan, 0.0]),
    lambda: expand(Shape.TRI, [math.nan, 0.0]),
    lambda: FieldValues([1.0, math.nan]),
    lambda: bary_evaluate(AXIS, [1.0, 2.0, math.inf, 0.3, 0.1], 0.1),
    lambda: bary_evaluate(AXIS, np.ones(5), math.nan),
])
def test_non_finite_input_is_refused(call):
    with pytest.raises(InvalidInputError, match="finite"):
        call()


def test_booleans_numeric_strings_and_none_read_as_numpy_reads_them():
    """True is 1.0, "0.1" is 0.1 and None is NaN, which meets the finite rules."""
    assert (tensor_evaluate(QUAD, QUAD_FIELD, [True, False]).value
            == tensor_evaluate(QUAD, QUAD_FIELD, [1.0, 0.0]).value)
    assert np.array_equal(collapse(Shape.TRI, ["-0.5", "-0.2"]), collapse(Shape.TRI, [-0.5, -0.2]))
    assert (bary_evaluate(AXIS, np.ones(5), "0.1").value
            == bary_evaluate(AXIS, np.ones(5), 0.1).value)
    assert not contains_point(Shape.TRI, [None, 0.0], 1e-10)
    with pytest.raises(OutOfRegionError):
        collapse(Shape.TRI, [None, 0.0])
    for call in (lambda: jacobian(Shape.TRI, [None, 0.0]),
                 lambda: FieldValues([None, 1.0]),
                 lambda: bary_evaluate(AXIS, np.ones(5), None)):
        with pytest.raises(InvalidInputError, match="finite"):
            call()
