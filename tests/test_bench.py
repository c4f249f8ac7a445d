import io

import numpy as np
import pytest

from baryeval import (ALL_SHAPES, ElementEvaluator, InvalidInputError, ReportError, Shape,
                      basis_for_order, sample_field)
from baryeval import bench
from baryeval.bench import (
    METHOD_BARY,
    METHOD_CACHED,
    METHOD_RECOMPUTED,
    Q_VALUE,
    Q_VALUE_D1,
    Q_VALUE_D1_D2,
    BenchRecord,
    _BarySweep,
    _crosscheck,
    csv_text,
    parse_orders,
    parse_shapes,
    quantities_for,
    read_csv,
    run_bench,
    scaling_cells_1d,
    sampling_points,
    speedup_csv,
    speedup_report,
)
from baryeval.kernel import SNAP_TOL
from baryeval.shapes import collapse, contains_point, expand


def test_sampling_grids_are_64_points():
    for shape in ALL_SHAPES:
        pts = sampling_points(shape)
        assert len(pts) == 64
        assert all(contains_point(shape, p, 1e-12) for p in pts)


def test_quantities_per_dimension():
    assert quantities_for(1) == (Q_VALUE, Q_VALUE_D1, Q_VALUE_D1_D2)
    assert quantities_for(3) == (Q_VALUE, Q_VALUE_D1)


def test_record_layout_and_csv_round_trip(tmp_path):
    records = run_bench(shapes=[Shape.SEGMENT], orders=list(range(2, 21)),
                        reps=1, methods=(METHOD_BARY, METHOD_CACHED),
                        quantities=(Q_VALUE,))
    assert len(records) == 19 * 2  # 19 orders x 2 methods, value quantity
    text = csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == "shape,order,method,quantity,sample_points,reps,mean_ns,stddev_ns"
    assert len(lines) == 1 + len(records)
    parsed = read_csv(io.StringIO(text))
    assert [(r.shape, r.order, r.method) for r in parsed] == \
        [(r.shape, r.order, r.method) for r in records]
    assert all(r.sample_points == 64 and r.reps == 1 for r in parsed)


def test_non_timing_columns_deterministic():
    a = run_bench(shapes=[Shape.TRI], orders=[4], reps=1, seed=3)
    b = run_bench(shapes=[Shape.TRI], orders=[4], reps=1, seed=3)
    key = [(r.shape, r.order, r.method, r.quantity, r.sample_points, r.reps)
           for r in a]
    assert key == [(r.shape, r.order, r.method, r.quantity, r.sample_points,
                    r.reps) for r in b]


def test_crosscheck_runs_all_methods():
    # exercises the pre-timing verification hook on every shape, including
    # the chain rule on collapsed shapes and the 1D value_d1_d2 cells; order 6
    # makes the 2D sampling grid coincide with the basis grid
    records = run_bench(shapes=ALL_SHAPES, orders=[6], reps=1)
    assert {r.method for r in records} == set((METHOD_BARY, METHOD_CACHED,
                                               METHOD_RECOMPUTED))


def test_segment_cell_with_seed_36():
    # regression input: the order-12 segment cell with seed 36 once failed
    # the value_d1_d2 cross-check
    records = run_bench(shapes=[Shape.SEGMENT], orders=[12], reps=1, seed=36)
    assert {r.quantity for r in records} == {Q_VALUE, Q_VALUE_D1, Q_VALUE_D1_D2}


def test_tet_cell_with_seed_794364573():
    # regression input: the bary p' of this cell's cross-check points was
    # once 3.2e-10 off the per-point evaluator
    records = run_bench(shapes=[Shape.TET], orders=[7], reps=1, seed=794364573)
    assert {r.method for r in records} == set((METHOD_BARY, METHOD_CACHED,
                                               METHOD_RECOMPUTED))


def test_bary_sweep_second_derivative_next_to_a_node():
    # every axis of the sweep takes the kernel's rows; at offsets where entry
    # k of l' and l'', computed directly, loses digits, p' (and the 1D p'')
    # must still match the per-point evaluator
    cases = [(shape, Q_VALUE_D1) for shape in ALL_SHAPES] + [(Shape.SEGMENT, Q_VALUE_D1_D2)]
    for shape, quantity in cases:
        basis = basis_for_order(shape, 12)
        ev = ElementEvaluator(shape, basis, sample_field(
            shape, basis, lambda xi: np.sin(3.0 * np.sum(xi))))
        interior = [ax.nodes[1:-1] for ax in basis.axes]
        pts = [expand(shape, [nodes[(i + 5 * q) % len(nodes)] + off
                              for q, nodes in enumerate(interior)])
               for i in range(len(interior[0]))
               for off in (1e-11, -1e-9, 1e-8, -1e-7, 1e-5)]
        values, grads, d2s = _BarySweep(ev, pts, quantity)()
        for i, xi in enumerate(pts):
            if quantity == Q_VALUE_D1_D2:
                ref = ev.phys_evaluate_1d(xi, deriv=2)
                assert abs(d2s[i] - ref.d2) <= 1e-10 * max(1.0, abs(ref.d2))
            else:
                ref = ev.phys_evaluate(xi, gradient=True)
            assert abs(values[i] - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
            scale = max(1.0, np.max(np.abs(ref.d1)))
            assert np.max(np.abs(grads[i] - ref.d1)) <= 1e-10 * scale, (shape, xi)


@pytest.mark.parametrize("order", [3, 12])
@pytest.mark.parametrize("shape", [Shape.HEX, Shape.PRISM, Shape.PYR, Shape.TET])
def test_bary_sweep_collocated_on_one_axis(shape, order):
    # each axis in turn sits on an interior node while the other two lie
    # halfway between nodes, so every axis takes its collocated rows once
    basis = basis_for_order(shape, order)
    ev = ElementEvaluator(shape, basis, sample_field(
        shape, basis, lambda xi: np.sin(2.0 * np.sum(xi)) + xi[0] ** 3))
    nodes = [ax.nodes for ax in basis.axes]
    mids = [0.5 * (z[1:-2] + z[2:-1]) for z in nodes]
    for a in range(3):
        pts = []
        for i in range(1, len(nodes[a]) - 1):
            eta = [z[i] if q == a else m[(i + 3 * q) % len(m)]
                   for q, (z, m) in enumerate(zip(nodes, mids))]
            pts.append(expand(shape, eta))
        for xi in pts:
            eta = collapse(shape, xi)
            on_node = [np.min(np.abs(z - e)) <= SNAP_TOL for z, e in zip(nodes, eta)]
            assert on_node == [q == a for q in range(3)]
        for quantity in (Q_VALUE, Q_VALUE_D1):
            _crosscheck(ev, pts, {METHOD_BARY: _BarySweep(ev, pts, quantity)}, quantity)


def test_direction_bary_beats_recomputed():
    records = run_bench(shapes=[Shape.QUAD], orders=[6], reps=5,
                        quantities=(Q_VALUE_D1,))
    mean = {r.method: r.mean_ns for r in records}
    assert mean[METHOD_BARY] < mean[METHOD_RECOMPUTED]


def test_speedup_report():
    def rec(method, mean, shape="tri", order=4, quantity=Q_VALUE):
        return BenchRecord(shape, order, method, quantity, 64, 3, mean, 0.0)

    header, rows = speedup_report([rec(METHOD_BARY, 100.0),
                                   rec(METHOD_RECOMPUTED, 100.0)])
    assert header == ["shape", "order", "quantity", "speedup"]
    assert rows == [("tri", 4, Q_VALUE, 1.0)]
    text = speedup_csv([rec(METHOD_BARY, 50.0), rec(METHOD_RECOMPUTED, 200.0)])
    assert text.splitlines()[1] == "tri,4,value,4.0000"
    with pytest.raises(ReportError):
        speedup_report([rec(METHOD_BARY, 100.0)])
    with pytest.raises(ReportError):
        speedup_report([])
    with pytest.raises(ReportError, match="no bary/matrix_recomputed"):
        speedup_report([rec(METHOD_CACHED, 100.0)])


class _OffByOne:
    """A sweep of `method` whose values are 1 more than the real sweep's."""

    def __init__(self, method):
        self.sweep = bench._SWEEPS[method]

    def __call__(self, evaluator, points, quantity):
        sweep = self.sweep(evaluator, points, quantity)

        def shifted():
            values, grads, d2s = sweep()
            return values + 1.0, grads, d2s
        return shifted


@pytest.mark.parametrize("method", [METHOD_BARY, METHOD_CACHED, METHOD_RECOMPUTED])
def test_run_bench_refuses_a_sweep_that_disagrees(monkeypatch, method):
    monkeypatch.setitem(bench._SWEEPS, method, _OffByOne(method))
    with pytest.raises(InvalidInputError, match=f"method {method} disagrees"):
        run_bench(shapes=[Shape.TRI], orders=[3], reps=1)


def test_scaling_cells_are_cross_checked(monkeypatch):
    # the scaling cells time two methods; each is checked before it is timed
    monkeypatch.setitem(bench._SWEEPS, METHOD_RECOMPUTED, _OffByOne(METHOD_RECOMPUTED))
    with pytest.raises(InvalidInputError, match=f"method {METHOD_RECOMPUTED} disagrees"):
        scaling_cells_1d()


def test_order_and_reps_validation():
    with pytest.raises(InvalidInputError):
        run_bench(shapes=[Shape.SEGMENT], orders=[1], reps=1)
    with pytest.raises(InvalidInputError):
        run_bench(shapes=[Shape.SEGMENT], orders=[63], reps=1)
    with pytest.raises(InvalidInputError):
        run_bench(shapes=[Shape.SEGMENT], orders=[4], reps=0)


def test_parse_helpers():
    assert parse_shapes("all") == list(ALL_SHAPES)
    assert parse_shapes("tri, hex") == [Shape.TRI, Shape.HEX]
    assert parse_orders("2..5") == [2, 3, 4, 5]
    assert parse_orders("3,7,9") == [3, 7, 9]
    with pytest.raises(InvalidInputError):
        parse_shapes("blob")
    with pytest.raises(InvalidInputError):
        parse_orders("5..2")
    with pytest.raises(InvalidInputError):
        parse_orders("abc")


def test_methods_agree_on_collocated_sampling_grid():
    # order 2 in 3D: the 4-point sampling grid per axis coincides with the
    # basis grid; collocated branches of every method must line up
    records = run_bench(shapes=[Shape.HEX, Shape.TET], orders=[2], reps=1)
    assert {r.shape for r in records} == {"hex", "tet"}
