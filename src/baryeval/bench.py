"""Timing benchmarks comparing barycentric evaluation against the
interpolation-matrix baseline, with CSV output and a speedup report.

Protocol per cell (shape, order, method, quantity):

* element of order P with P + 2 points per axis, field = the quadratic
  benchmark polynomial sampled on the element grid;
* a fixed sampling grid of 64 total points (64 in 1D, 8^2 in 2D, 4^3 in 3D)
  built from the same node families as the element basis;
* the timed unit is one sweep evaluating all sampling points; sweeps are
  repeated `reps` times and mean/stddev of the sweep time are reported.

The two sweeps that the speedup report compares run point by point, and
each of their reductions is either one bulk product, where it touches many
values, or Python over plain floats, where it touches a few short lines and
array dispatch would cost more than the arithmetic.  The measured ratios
therefore track the arithmetic-operation counts of the algorithms rather
than interpreter or dispatch overhead (the sampling grids are far too small
for vectorizing over the points to be representative):

* `bary` evaluates point by point through collapse and
  `tensor._contract`, the contraction that `ElementEvaluator.phys_evaluate`
  runs, on the evaluator's stage-1 matrix: every axis but the last is one
  product with the kernel's unnormalised cardinal rows l and l', the last
  lines are reduced on Python floats, and one scale per point normalises.
  A 1D point reduces its one line with `kernel._reduce_lines`, p''
  included.
  Like the rebuilt-matrix sweep it skips the region test, which the sampling
  points pass by construction;
* `matrix_recomputed` rebuilds the cardinal value rows and cube-space
  derivative rows inside the timed sweep, O(n^2) float loops per point and
  axis, and applies them as matrix-vector products.

Both apply the chain rule (`shapes._chain_rule`) to the d cube-space
derivatives of each point.  `matrix_cached` applies matrices that
`lagrange.build_operator` built before timing, whose derivative rows already
hold the Jacobian.  Both matrix methods take 1D p'' as the value rows applied
to D2 f.  Every method is cross-checked against the per-point evaluator
before any timing starts.
"""

from __future__ import annotations

import csv
import gc
import io
import time
from dataclasses import dataclass

import numpy as np

from .element import ElementEvaluator, axis_kinds, basis_for_order, sample_field, xi_grid
from .errors import InvalidInputError, ReportError, as_index
from .fields import benchmark_field, random_interior_point
from .kernel import _reduce_lines
from .lagrange import build_operator
from .nodes import MAX_NODES, make_node_set
from .shapes import ALL_SHAPES, Shape, _chain_rule, _collapse, dim_of, shape_from_name, spec_for
from .tensor import TensorBasis, _contract

METHOD_BARY = "bary"
METHOD_CACHED = "matrix_cached"
METHOD_RECOMPUTED = "matrix_recomputed"
METHODS = (METHOD_BARY, METHOD_CACHED, METHOD_RECOMPUTED)

Q_VALUE = "value"
Q_VALUE_D1 = "value_d1"
Q_VALUE_D1_D2 = "value_d1_d2"

CSV_HEADER = ["shape", "order", "method", "quantity",
              "sample_points", "reps", "mean_ns", "stddev_ns"]

_DEFAULT_REPS = {1: 1000, 2: 100, 3: 100}
_SAMPLING_COUNTS = {1: (64,), 2: (8, 8), 3: (4, 4, 4)}


@dataclass
class BenchRecord:
    shape: str
    order: int
    method: str
    quantity: str
    sample_points: int
    reps: int
    mean_ns: float
    stddev_ns: float


def sampling_basis(shape):
    """The fixed 64-point sampling grid, same node families as the element."""
    counts = _SAMPLING_COUNTS[dim_of(shape)]
    kinds = axis_kinds(shape)
    return TensorBasis(tuple(make_node_set(k, n) for k, n in zip(kinds, counts)))


def sampling_points(shape):
    """Sampling grid mapped into the reference region, (M, d)."""
    return xi_grid(shape, sampling_basis(shape))


def quantities_for(dim):
    if dim == 1:
        return (Q_VALUE, Q_VALUE_D1, Q_VALUE_D1_D2)
    return (Q_VALUE, Q_VALUE_D1)


# ---------------------------------------------------------------------------
# Scalar building blocks of the rebuilt-matrix sweep.
# ---------------------------------------------------------------------------


def _scalar_cards(z, eta):
    n = len(z)
    out = [0.0] * n
    for j in range(n):
        zj = z[j]
        p = 1.0
        for i in range(n):
            if i != j:
                p *= (eta - z[i]) / (zj - z[i])
        out[j] = p
    return out


def _scalar_cards_derivs(z, eta):
    """Cardinal values and derivatives by exclusive prefix/suffix products."""
    n = len(z)
    cards = [0.0] * n
    dcards = [0.0] * n
    for j in range(n):
        zj = z[j]
        r = [1.0] * n
        for i in range(n):
            if i != j:
                r[i] = (eta - z[i]) / (zj - z[i])
        pre = [1.0] * n
        acc = 1.0
        for i in range(n):
            pre[i] = acc
            acc *= r[i]
        cards[j] = acc
        suf = 1.0
        s = 0.0
        for i in range(n - 1, -1, -1):
            if i != j:
                s += pre[i] * suf / (zj - z[i])
            suf *= r[i]
        dcards[j] = s
    return cards, dcards


class _BarySweep:
    """Per-point barycentric sweep: collapse, `tensor._contract`, chain rule.

    A 1D point reduces the one line of samples, held as floats, with
    `kernel._reduce_lines`, which adds p'' to the same rows.
    """

    def __init__(self, evaluator, points, quantity):
        self.spec = spec_for(evaluator.shape)
        self.basis = evaluator.basis
        self.data = evaluator._samples
        self.pts = [tuple(map(float, p)) for p in np.atleast_2d(points)]
        self.deriv = 2 if quantity == Q_VALUE_D1_D2 else int(quantity != Q_VALUE)

    def __call__(self):
        spec, basis, data, deriv = self.spec, self.basis, self.data, self.deriv
        if basis.dim == 1:
            ax, lines = basis.axes[0], [data.ravel().tolist()]
            p = []
            for (e,) in self.pts:
                p += _reduce_lines(ax, e, deriv, lines)[0]
            p = np.array(p).reshape(-1, 1 + deriv)
            return p[:, 0], p[:, 1:2] if deriv else None, p[:, 2] if deriv > 1 else None
        values = []
        grads = []
        for xi in self.pts:
            p, eta = _contract(basis, data, _collapse(spec, xi), deriv, True)
            values.append(p[0])
            if deriv:
                grads.append(_chain_rule(spec, eta, p[1:]))
        return np.array(values), np.array(grads) if deriv else None, None


def _tensor_row(per_axis):
    """Tensor product of per-axis factor lists, dimension 1 fastest."""
    row = per_axis[-1]
    for factors in per_axis[-2::-1]:
        row = [r * c for r in row for c in factors]
    return row


def _d2_values(value_matrix, evaluator):
    """1D p'' at every row's point: the value rows applied to D2 f."""
    return value_matrix @ (evaluator.basis.axes[0].d2 @ evaluator.field.data)


class _CachedSweep:
    """Applies a `lagrange` operator built once, outside the timed call."""

    def __init__(self, evaluator, points, quantity):
        self.evaluator = evaluator
        self.quantity = quantity
        self.op = build_operator(evaluator.shape, evaluator.basis, points,
                                 want_derivs=quantity != Q_VALUE)

    def __call__(self):
        op, field = self.op, self.evaluator.field.data
        values = op.value_matrix @ field
        if op.deriv_matrices is None:
            return values, None, None
        d2s = (_d2_values(op.value_matrix, self.evaluator)
               if self.quantity == Q_VALUE_D1_D2 else None)
        return values, (op.deriv_matrices @ field).T, d2s


class _RebuiltSweep:
    """Rebuilds the cardinal rows by O(n^2) float loops per point and axis
    inside every call and applies them as matrix-vector products; the
    cube-space derivatives of each point then go through the chain rule."""

    def __init__(self, evaluator, points, quantity):
        self.evaluator = evaluator
        self.spec = spec_for(evaluator.shape)
        self.dim = evaluator.basis.dim
        self.z = [ax.nodes.tolist() for ax in evaluator.basis.axes]
        self.field = evaluator.field.data
        self.pts = [tuple(map(float, p)) for p in np.atleast_2d(points)]
        self.quantity = quantity

    def __call__(self):
        spec, z, field = self.spec, self.z, self.field
        etas = [_collapse(spec, xi) for xi in self.pts]
        if self.quantity == Q_VALUE:
            rows = [_tensor_row(list(map(_scalar_cards, z, eta))) for eta in etas]
            return np.asarray(rows) @ field, None, None
        value_rows = []
        deriv_rows = [[] for _ in range(self.dim)]
        for eta in etas:
            cards, dcards = zip(*map(_scalar_cards_derivs, z, eta))
            value_rows.append(_tensor_row(cards))
            for a, rows in enumerate(deriv_rows):
                rows.append(_tensor_row(cards[:a] + dcards[a:a + 1] + cards[a + 1:]))
        value_matrix = np.asarray(value_rows)
        geta = (np.asarray(deriv_rows) @ field).T.tolist()
        grads = np.array([_chain_rule(spec, eta, g) for eta, g in zip(etas, geta)])
        d2s = (_d2_values(value_matrix, self.evaluator)
               if self.quantity == Q_VALUE_D1_D2 else None)
        return value_matrix @ field, grads, d2s


_SWEEPS = {METHOD_BARY: _BarySweep, METHOD_CACHED: _CachedSweep,
           METHOD_RECOMPUTED: _RebuiltSweep}


# Cross-check tolerances per component: values are forward stable, first and
# second derivatives lose digits near tightly spaced nodes.
_CHECK_TOLS = {"value": 1e-11, "d1": 1e-10, "d2": 1e-8}


def _crosscheck(evaluator, points, sweeps, quantity):
    """All methods must agree with the per-point evaluator before timing."""
    outputs = {name: sweep() for name, sweep in sweeps.items()}
    for i, xi in enumerate(points):
        if quantity == Q_VALUE_D1_D2:
            ref = evaluator.phys_evaluate_1d(xi, deriv=2)
            ref_vals = [("value", ref.value), ("d1", ref.d1[0]), ("d2", ref.d2)]
        elif quantity == Q_VALUE_D1:
            ref = evaluator.phys_evaluate(xi, gradient=True)
            ref_vals = [("value", ref.value)] + [("d1", g) for g in ref.d1]
        else:
            ref_vals = [("value", evaluator.phys_evaluate(xi).value)]
        for name, (values, grads, d2s) in outputs.items():
            got = [values[i]]
            if quantity != Q_VALUE:
                got.extend(np.atleast_1d(grads[i]))
            if quantity == Q_VALUE_D1_D2:
                got.append(d2s[i])
            for g, (kind, r) in zip(got, ref_vals):
                if abs(g - r) > _CHECK_TOLS[kind] * max(1.0, abs(r)):
                    raise InvalidInputError(
                        f"method {name} disagrees with the per-point evaluator "
                        f"({kind}) at point {xi}: {g} vs {r}"
                    )


def _time_sweep(sweep, reps):
    for _ in range(2):  # untimed warm-up calls
        sweep()
    times = np.empty(reps)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(reps):
            t0 = time.perf_counter_ns()
            sweep()
            times[i] = time.perf_counter_ns() - t0
    finally:
        if was_enabled:
            gc.enable()
    return float(times.mean()), float(times.std())


def _check_order(order):
    if not 2 <= order <= MAX_NODES - 2:
        raise InvalidInputError(
            f"order must lie in [2, {MAX_NODES - 2}], got {order}"
        )


def run_bench(shapes=None, orders=None, reps=None, seed=0, methods=METHODS, quantities=None):
    """Time all requested cells; returns a list of BenchRecord."""
    shapes = list(shapes) if shapes else list(ALL_SHAPES)
    orders = list(orders) if orders else list(range(2, 21))
    for order in orders:
        _check_order(order)
    if reps is not None:
        count = as_index(reps)
        if count is None or count < 1:
            raise InvalidInputError(f"reps must be an integer >= 1, got {reps!r}")
        reps = count
    rng = np.random.default_rng(seed)
    records = []
    for shape in shapes:
        dim = dim_of(shape)
        cell_reps = reps if reps is not None else _DEFAULT_REPS[dim]
        points = sampling_points(shape)
        fld = benchmark_field(dim)
        for order in orders:
            basis = basis_for_order(shape, order)
            field = sample_field(shape, basis, fld.eval)
            evaluator = ElementEvaluator(shape, basis, field)
            for quantity in quantities or quantities_for(dim):
                sweeps = {
                    method: _SWEEPS[method](evaluator, points, quantity)
                    for method in methods
                }
                extra = np.array([random_interior_point(shape, rng, margin=0.01,
                                                        singular_margin=0.05)
                                  for _ in range(5)])
                check_sweeps = {name: _SWEEPS[name](evaluator, extra, quantity)
                                for name in sweeps}
                _crosscheck(evaluator, extra, check_sweeps, quantity)
                _crosscheck(evaluator, points, sweeps, quantity)
                for method, sweep in sweeps.items():
                    mean_ns, std_ns = _time_sweep(sweep, cell_reps)
                    records.append(
                        BenchRecord(shape.value, order, method, quantity,
                                    len(points), cell_reps, mean_ns, std_ns)
                    )
    return records


def scaling_cells_1d():
    """Sweep times for 11- and 41-node segments (orders 9 and 39), value only.

    Barycentric sweeps grow roughly linearly with the node count while the
    rebuilt-matrix sweeps grow quadratically; the returned ratios feed the
    scaling-sanity checks.  Each cell times 150 reps and takes the best of 3
    passes since scheduling noise only ever inflates a timing.
    """
    out = {}
    for _ in range(3):
        for order in (9, 39):
            recs = run_bench(
                shapes=[Shape.SEGMENT], orders=[order], reps=150,
                methods=(METHOD_BARY, METHOD_RECOMPUTED), quantities=(Q_VALUE,),
            )
            for r in recs:
                key = (r.method, order)
                out[key] = min(out.get(key, np.inf), r.mean_ns)
    return {
        "bary_ratio": out[(METHOD_BARY, 39)] / out[(METHOD_BARY, 9)],
        "matrix_ratio": out[(METHOD_RECOMPUTED, 39)] / out[(METHOD_RECOMPUTED, 9)],
    }


def _csv(header, rows):
    """The header and rows as CSV text, one line each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_text(records):
    return _csv(CSV_HEADER, ([r.shape, r.order, r.method, r.quantity, r.sample_points, r.reps,
                              f"{r.mean_ns:.3f}", f"{r.stddev_ns:.3f}"] for r in records))


def read_csv(stream):
    reader = csv.DictReader(stream)
    records = []
    for row in reader:
        records.append(
            BenchRecord(
                shape=row["shape"], order=int(row["order"]), method=row["method"],
                quantity=row["quantity"], sample_points=int(row["sample_points"]),
                reps=int(row["reps"]), mean_ns=float(row["mean_ns"]),
                stddev_ns=float(row["stddev_ns"]),
            )
        )
    return records


def speedup_report(records):
    """Per-cell ratio matrix_recomputed / bary as (header, rows)."""
    if not records:
        raise ReportError("no benchmark records given")
    by_key = {}
    for r in records:
        by_key[(r.shape, r.order, r.quantity, r.method)] = r
    cells = sorted(
        {(r.shape, r.order, r.quantity) for r in records
         if r.method in (METHOD_BARY, METHOD_RECOMPUTED)},
        key=lambda c: (c[0], c[1], c[2]),
    )
    if not cells:
        raise ReportError("no bary/matrix_recomputed records given")
    rows = []
    for shape, order, quantity in cells:
        bary = by_key.get((shape, order, quantity, METHOD_BARY))
        rec = by_key.get((shape, order, quantity, METHOD_RECOMPUTED))
        if bary is None or rec is None:
            missing = METHOD_BARY if bary is None else METHOD_RECOMPUTED
            raise ReportError(
                f"cell (shape={shape}, order={order}, quantity={quantity}) "
                f"is missing the {missing} record"
            )
        rows.append((shape, order, quantity, rec.mean_ns / bary.mean_ns))
    return ["shape", "order", "quantity", "speedup"], rows


def speedup_csv(records):
    header, rows = speedup_report(records)
    return _csv(header, ([shape, order, quantity, f"{ratio:.4f}"]
                         for shape, order, quantity, ratio in rows))


def parse_shapes(text):
    """Parse a CLI shape list ('all' or comma-separated names)."""
    if text.strip().lower() == "all":
        return list(ALL_SHAPES)
    return [shape_from_name(part.strip()) for part in text.split(",") if part.strip()]


def parse_orders(text):
    """Parse a CLI order range 'a..b' or comma-separated list."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidInputError(f"cannot parse orders from {text!r}") from None
