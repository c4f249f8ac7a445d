"""Barycentric evaluation of high-order polynomial fields on finite-element
reference shapes: 1D node sets and kernels, tensor-product contraction,
coordinate collapses for simplicial shapes, an interpolation-matrix baseline,
point location, and a benchmark harness.
"""

from .bench import (
    BenchRecord,
    run_bench,
    sampling_basis,
    sampling_points,
    scaling_cells_1d,
    speedup_report,
)
from .element import (
    ElementEvaluator,
    axis_kinds,
    basis_for_order,
    basis_for_shape,
    sample_field,
    xi_grid,
)
from .errors import (
    BaryevalError,
    CollocationError,
    ConfigError,
    ConvergenceError,
    DegenerateNodesError,
    InvalidInputError,
    InvalidSizeError,
    OutOfRegionError,
    ReportError,
    SingularCollapseError,
)
from .fields import (
    AnalyticField,
    exact_multi_indices,
    horner_eval,
    monomial_field,
    benchmark_field,
    random_exact_monomial,
    random_interior_point,
)
from .kernel import EvalResult, bary_evaluate, counters
from .lagrange import (
    InterpOperator,
    apply_operator,
    build_operator,
    cardinal_values,
)
from .nodes import (
    MAX_NODES,
    NodeKind,
    NodeSet,
    bary_weights,
    diff_matrix,
    generate_nodes,
    make_node_set,
)
from .pointlocate import LocateConfig, LocateProblem, LocateResult, locate
from .shapes import (
    ALL_SHAPES,
    Shape,
    ShapeSpec,
    ancestors,
    centroid,
    collapse,
    contains_point,
    exactness_contains,
    expand,
    jacobian,
    shape_from_name,
)
from .tensor import (
    FieldValues,
    TensorBasis,
    eta_grid,
    multi_bary_direct,
    sample_on_grid,
    tensor_evaluate,
)
from .verify import run_verify

__version__ = "0.1.0"
