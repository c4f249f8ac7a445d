"""One benchmark run: set-up, timed phases, correctness checks and metrics.

Every operation's output is checked against `exact` (the random polynomial
the field was sampled from, or the known preimage of a locate target), never
against the program's own output.  An operation that raises or disagrees is
counted as failed.

A phase is made of steps, one element each; a round is one step on every
element.  Steps of all phases are interleaved over the run, and each phase
ends on a whole round.
"""

from __future__ import annotations

import gc
import statistics
import zlib
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import numpy as np

from baryeval import (ElementEvaluator, LocateProblem, TensorBasis, apply_operator,
                      axis_kinds, build_operator, locate, make_node_set, run_bench,
                      sample_field, sampling_points, shape_from_name)
from baryeval import element, kernel, pointlocate, shapes, tensor

import exact
from calibrate import REFERENCE_NS, Calibration
from spans import Tracer
from workloads import BATCH_POINTS, FIELD_TERMS, PHASE_SHARES, SINGULAR_MARGIN

VALUE_TOL = 1e-10   # relative, on values from every path
GRAD_TOL = 1e-8     # relative, on gradients (infinity norm per point)
LOCATE_TOL = 1e-7   # absolute, on the recovered reference coordinates
SWEEP_QUANTITIES = ("value", "value_d1")
SWEEP_METHODS = {"bary": "sweep_bary_ms", "matrix_recomputed": "sweep_rebuilt_ms",
                 "matrix_cached": "sweep_cached_ms"}
PHASES = tuple(PHASE_SHARES)

MAX_FAILURE_NOTES = 20


def _close(got, want, tol):
    """Per-row relative agreement; rows are points, columns components."""
    got = np.asarray(got, dtype=float).reshape(len(want), -1)
    want = np.asarray(want, dtype=float).reshape(len(want), -1)
    err = np.max(np.abs(got - want), axis=1)
    return err <= tol * np.maximum(1.0, np.max(np.abs(want), axis=1))


def _snap(basis, eta):
    """The element's snap of collapsed coordinates onto grid nodes, so a
    replayed tensor call sees exactly the eta that phys_evaluate passed on."""
    for q, ax in enumerate(basis.axes):
        j = int(np.argmin(np.abs(ax.nodes - eta[q])))
        if abs(ax.nodes[j] - eta[q]) <= element.SNAP_TOL:
            eta[q] = ax.nodes[j]
    return eta


def _describe(out):
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if hasattr(out, "converged"):
        return f"xi={out.xi.tolist()} converged={out.converged}"
    return "disagrees with the exact answer"


def _median_us(ns_values):
    return statistics.median(ns_values) / 1e3


def _rate(steps):
    """Points per second of a round of (points, busy ns) steps."""
    return sum(n for n, _ in steps) / (sum(ns for _, ns in steps) * 1e-9)


class Element:
    """One (shape, order) cell: seeded inputs, exact answers and set-up state."""

    def __init__(self, shape_name, order, rng, snapshots, probes):
        self.name = shape_name
        self.shape = shape_from_name(shape_name)
        self.order = order
        self.polys = [exact.Polynomial.random(shape_name, order + 1, rng, FIELD_TERMS)
                      for _ in range(snapshots)]
        self.qmap = exact.QuadraticMap(shape_name, rng)
        self.grid = sampling_points(self.shape) if probes else None
        self.batch = (self.grid if probes else
                      exact.uniform_points(shape_name, rng, BATCH_POINTS, SINGULAR_MARGIN))
        self.batch_exact = [(p.values(self.batch), p.gradients(self.batch))
                            for p in self.polys]

    def build(self, call):
        """The timed set-up; call(name, fn, *args) runs fn inside a span when tracing."""
        kinds = axis_kinds(self.shape)
        self.basis = TensorBasis(tuple(
            call("nodes.make_node_set", make_node_set, kind, self.order + 2) for kind in kinds))
        self.fields = [call("element.sample_field", sample_field, self.shape, self.basis, p)
                       for p in self.polys]
        self.coord_fields = tuple(
            call("element.sample_field", sample_field, self.shape, self.basis,
                 self.qmap.coordinate(i))
            for i in range(len(kinds)))
        self.evaluators = [ElementEvaluator(self.shape, self.basis, f) for f in self.fields]
        self.cached_op = build_operator(self.shape, self.basis, self.batch, want_derivs=True)


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.calibration = Calibration()
        self.wid = zlib.crc32(workload.name.encode())
        rng = np.random.default_rng([seed, self.wid])
        self.elements = [Element(s, p, rng, workload.snapshots, workload.probes)
                         for s, p in workload.cells]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.op = 0
        self.setup_round_of_op = {}
        self.end_to_end = {}
        self.per_layer = {}
        self.details = {}

    # -- bookkeeping -------------------------------------------------------

    def _rng(self, phase, r, i):
        return np.random.default_rng([self.seed, self.wid, PHASES.index(phase), r, i])

    def _outcome(self, ok, describe):
        """Count one operation; describe() is called only when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(describe())

    def _call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        t0 = perf_counter_ns()
        out = fn(*args, **kwargs)
        self.tracer.add(name, t0, perf_counter_ns(), self.op)
        return out

    def _interleave(self, steps):
        """Rounds of every phase's step(r, i), interleaved over the run.

        The next step goes to the phase furthest below its share of the time,
        so every phase samples the whole run and slow spells of a shared
        machine hit all metrics alike.  Once every phase has a round, no step
        starts that is expected to end after --seconds, except to complete a
        round.  Returns, per phase, its rounds as lists of step results.
        """
        n = len(self.elements)
        out = {name: [] for name in steps}
        used = dict.fromkeys(steps, 0.0)
        start = perf_counter()
        while True:
            pending = [p for p in steps if len(out[p]) < n]
            name = min(pending or steps, key=lambda p: used[p] / PHASE_SHARES[p])
            if not pending and perf_counter() - start + used[name] / len(out[name]) > self.seconds:
                break
            k = len(out[name])
            t0 = perf_counter()
            out[name].append(steps[name](k // n, k % n))
            used[name] += perf_counter() - t0
        for name, done in out.items():
            while len(done) % n:
                done.append(steps[name](len(done) // n, len(done) % n))
        return {name: [done[k:k + n] for k in range(0, len(done), n)]
                for name, done in out.items()}

    # -- the run -------------------------------------------------------------

    def execute(self):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            first_setup = [self._setup_step(0, i) for i in range(len(self.elements))]
            if self.tracer is not None:
                self._count_eval("eval_grad", True)
                self._count_eval("eval_value", False)
                with self._locate_wrappers():
                    self._count_locate()
            gc.collect()
            rounds = self._interleave({
                "setup": lambda r, i: self._setup_step(r + 1, i),
                "eval_grad": lambda r, i: self._eval_step("eval_grad", r, i, True),
                "eval_value": lambda r, i: self._eval_step("eval_value", r, i, False),
                "matrix_rebuilt": self._rebuilt_step,
                "matrix_cached": self._cached_step,
                "locate": self._locate_step,
                "sweeps": self._sweep_step,
                "calibrate": self.calibration.step,
            })
        finally:
            if gc_was_enabled:
                gc.enable()
        self.details["rounds"] = {name: len(r) for name, r in rounds.items()}
        setup = [sum(r) for r in [first_setup] + rounds["setup"]]
        self.end_to_end["setup_s"] = statistics.median(setup)
        self.details["setup_s_all"] = setup
        for name in ("eval_grad", "eval_value", "matrix_rebuilt", "matrix_cached"):
            self.end_to_end[f"{name}_pts_per_s"] = statistics.median(map(_rate, rounds[name]))
        times_ms = np.array([t for r in rounds["locate"] for step in r for t in step]) / 1e6
        self.end_to_end["locate_ms_per_target"] = float(np.median(times_ms))
        self.details["locate_targets"] = len(times_ms)
        self.details["locate_p90_ms"] = float(np.quantile(times_ms, 0.9))
        for method, metric in SWEEP_METHODS.items():
            self.end_to_end[metric] = statistics.median(
                sum(step[method] for step in r) for r in rounds["sweeps"])
        self.details["raw_end_to_end"] = dict(self.end_to_end)
        speed = statistics.median(t for r in rounds["calibrate"] for t in r) / REFERENCE_NS
        self.details["speed_factor"] = speed
        for name, beta in self.w.speed_exponents.items():
            self.end_to_end[name] *= speed ** (beta if name.endswith("_per_s") else -beta)
        if self.tracer is not None:
            self._layer_metrics()
        return self

    def _setup_step(self, r, i):
        """Build element i's state afresh; returns the seconds it took.

        Set-up is repeated across the run so that its median, like every
        other metric, samples the whole run."""
        self.op += 1
        self.setup_round_of_op[self.op] = r
        t0 = perf_counter()
        self.elements[i].build(self._call)
        return perf_counter() - t0

    # -- per-point evaluation --------------------------------------------------

    def _points(self, phase, r, i):
        """Query points of element i in round r of a per-point phase."""
        el = self.elements[i]
        if self.w.probes:
            return el.grid
        return exact.uniform_points(el.name, self._rng(phase, r, i), self.w.points_per_round,
                                    SINGULAR_MARGIN)

    def _eval_step(self, phase, r, i, gradient):
        el = self.elements[i]
        pts = self._points(phase, r, i)
        snap = r % len(el.evaluators)
        if self.tracer is None:
            ev = el.evaluators[snap]
            results = []
            t0 = perf_counter_ns()
            for p in pts:
                try:
                    results.append(ev.phys_evaluate(p, gradient=gradient))
                except Exception as exc:  # counted as a failed operation
                    results.append(exc)
            busy = perf_counter_ns() - t0
        else:
            results, busy = self._eval_traced(el, snap, pts, gradient)
        self._check_points(el, snap, pts, results, gradient)
        return len(pts), busy

    def _eval_traced(self, el, snap, pts, gradient):
        """Per-point spans, then the shapes and tensor calls replayed on the same inputs."""
        tr = self.tracer
        ev = el.evaluators[snap]
        kind = "grad" if gradient else "value"
        results = []
        busy = 0
        for p in pts:
            self.op += 1
            t0 = perf_counter_ns()
            try:
                res = ev.phys_evaluate(p, gradient=gradient)
            except Exception as exc:  # counted as a failed operation
                res = exc
            t1 = perf_counter_ns()
            results.append(res)
            busy += t1 - t0
            parent = tr.add(f"element.phys_evaluate_{kind}", t0, t1, self.op)
            if isinstance(res, Exception):
                continue
            t0 = perf_counter_ns()
            shapes.contains_point(el.shape, p, element.REGION_TOL)
            t1 = perf_counter_ns()
            eta = shapes.collapse(el.shape, p)
            t2 = perf_counter_ns()
            tr.add("shapes.contains_point", t0, t1, self.op, parent)
            tr.add("shapes.collapse", t1, t2, self.op, parent)
            eta = _snap(el.basis, eta)
            if gradient:
                t0 = perf_counter_ns()
                shapes.jacobian(el.shape, eta)
                tr.add("shapes.jacobian", t0, perf_counter_ns(), self.op, parent)
            t0 = perf_counter_ns()
            tensor.tensor_evaluate(el.basis, ev.field, eta, gradient=gradient)
            tr.add(f"tensor.tensor_evaluate_{kind}", t0, perf_counter_ns(), self.op, parent)
        return results, busy

    def _count_eval(self, phase, gradient):
        """Exact kernel counts per evaluation over the inputs of round 0."""
        per_op = []
        kernel.counters.enabled = True
        try:
            for i, el in enumerate(self.elements):
                pts = self._points(phase, 0, i)
                results = []
                for p in pts:
                    kernel.counters.reset()
                    try:
                        results.append(el.evaluators[0].phys_evaluate(p, gradient=gradient))
                    except Exception as exc:  # counted as a failed operation
                        results.append(exc)
                    c = kernel.counters
                    per_op.append((c.kernel_calls, c.divisions, sum(c.per_call_nodes)))
                self._check_points(el, 0, pts, results, gradient)
        finally:
            kernel.counters.enabled = False
            kernel.counters.reset()
        calls, divisions, visits = (statistics.fmean(col) for col in zip(*per_op))
        if gradient:
            self.per_layer["kernel.reductions_per_grad_eval"] = calls
            self.per_layer["kernel.divisions_per_grad_eval"] = divisions
            self.per_layer["kernel.node_visits_per_grad_eval"] = visits
        else:
            self.per_layer["kernel.reductions_per_value_eval"] = calls

    def _check_points(self, el, snap, pts, results, gradient):
        good = [i for i, res in enumerate(results) if not isinstance(res, Exception)]
        ok = np.zeros(len(results), dtype=bool)
        if good:
            poly = el.polys[snap]
            sel = pts[good]
            passed = _close([results[i].value for i in good], poly.values(sel), VALUE_TOL)
            if gradient:
                passed &= _close([results[i].d1 for i in good], poly.gradients(sel), GRAD_TOL)
            ok[good] = passed
        for i, res in enumerate(results):
            self._outcome(bool(ok[i]), lambda: f"phys_evaluate {el.name} P={el.order} at "
                          f"{pts[i].tolist()}: {_describe(res)}")

    # -- interpolation-matrix baseline ----------------------------------------

    def _rebuilt_step(self, r, i):
        el = self.elements[i]
        snap = r % len(el.fields)
        if self.w.probes:
            pts, want = el.batch, el.batch_exact[snap]
        else:
            pts = exact.uniform_points(el.name, self._rng("matrix_rebuilt", r, i),
                                       BATCH_POINTS, SINGULAR_MARGIN)
            want = None
        self.op += 1
        t0 = perf_counter_ns()
        try:
            op = build_operator(el.shape, el.basis, pts, want_derivs=True)
            t1 = perf_counter_ns()
            out = apply_operator(op, el.fields[snap])
        except Exception as exc:  # counted as a failed operation
            t1 = perf_counter_ns()
            out = exc
        t2 = perf_counter_ns()
        if self.tracer is not None:
            self.tracer.add("lagrange.build_operator", t0, t1, self.op)
            self.tracer.add("lagrange.apply_operator", t1, t2, self.op)
        if want is None:
            want = (el.polys[snap].values(pts), el.polys[snap].gradients(pts))
        self._check_batch(el, "rebuilt", out, want, len(pts))
        return len(pts), t2 - t0

    def _cached_step(self, r, i):
        el = self.elements[i]
        busy = 0
        for snap, field in enumerate(el.fields):
            self.op += 1
            t0 = perf_counter_ns()
            try:
                out = apply_operator(el.cached_op, field)
            except Exception as exc:  # counted as a failed operation
                out = exc
            t1 = perf_counter_ns()
            busy += t1 - t0
            if self.tracer is not None:
                self.tracer.add("lagrange.apply_operator_cached", t0, t1, self.op)
            self._check_batch(el, "cached", out, el.batch_exact[snap], len(el.batch))
        return len(el.fields) * len(el.batch), busy

    def _check_batch(self, el, mode, out, want, m):
        ok = not isinstance(out, Exception)
        if ok:
            values, derivs = out
            ok = bool(np.all(_close(values, want[0], VALUE_TOL))
                      and np.all(_close(np.asarray(derivs).T, want[1], GRAD_TOL)))
        self._outcome(ok, lambda: f"matrix {mode} {el.name} P={el.order} ({m} points): "
                      f"{_describe(out)}")

    # -- point location --------------------------------------------------------

    def _targets(self, r, i):
        """Preimages xi* of the locate targets of element i in round r."""
        el = self.elements[i]
        if self.w.probes:
            return el.grid
        return exact.uniform_points(el.name, self._rng("locate", r, i),
                                    self.w.targets_per_round, SINGULAR_MARGIN)

    @contextmanager
    def _locate_wrappers(self):
        """When tracing, spans around the two public functions locate calls.

        The wrappers replace the attributes in memory for the duration of a
        locate step only; no file of the program changes.
        """
        if self.tracer is None:
            yield
            return
        saved = pointlocate.project_into_region, ElementEvaluator.phys_evaluate
        pointlocate.project_into_region = self.tracer.wrap(
            "pointlocate.project_into_region", saved[0])
        ElementEvaluator.phys_evaluate = self.tracer.wrap("element.phys_evaluate", saved[1])
        try:
            yield
        finally:
            pointlocate.project_into_region, ElementEvaluator.phys_evaluate = saved

    def _locate_one(self, el, xstar, name):
        """Locate the image of xstar; returns the call's duration in ns and its result."""
        problem = LocateProblem(el.shape, el.basis, el.coord_fields, el.qmap(xstar[None])[0])
        self.op += 1
        sid = self.tracer.begin(name, self.op) if self.tracer is not None else 0
        t0 = perf_counter_ns()
        try:
            res = locate(problem)
        except Exception as exc:  # counted as a failed operation
            res = exc
        t1 = perf_counter_ns()
        if sid:
            self.tracer.end(sid)
        ok = (not isinstance(res, Exception) and res.converged
              and float(np.max(np.abs(res.xi - xstar))) <= LOCATE_TOL)
        self._outcome(ok, lambda: f"locate {el.name} P={el.order} xi*={xstar.tolist()}: "
                      f"{_describe(res)}")
        return t1 - t0, res

    def _locate_step(self, r, i):
        """Durations in ns of element i's locate calls in round r."""
        el = self.elements[i]
        with self._locate_wrappers():
            return [self._locate_one(el, xstar, "pointlocate.locate")[0]
                    for xstar in self._targets(r, i)]

    def _count_locate(self):
        """Exact per-target counts over the targets of round 0."""
        rows = []
        kernel.counters.enabled = True
        try:
            for i, el in enumerate(self.elements):
                for xstar in self._targets(0, i):
                    kernel.counters.reset()
                    self.tracer.calls.clear()
                    _, res = self._locate_one(el, xstar, "pointlocate.locate_counted")
                    rows.append((getattr(res, "iterations", 0),
                                 self.tracer.calls["element.phys_evaluate"],
                                 kernel.counters.kernel_calls))
        finally:
            kernel.counters.enabled = False
            kernel.counters.reset()
        its, evals, reductions = (statistics.fmean(col) for col in zip(*rows))
        self.per_layer["pointlocate.iterations_per_target"] = its
        self.per_layer["pointlocate.evaluations_per_target"] = evals
        self.per_layer["pointlocate.reductions_per_target"] = reductions

    # -- paper-protocol sweeps -------------------------------------------------

    def _sweep_step(self, r, i):
        """Per method, run_bench's mean sweep ms for element i, summed over quantities."""
        el = self.elements[i]
        totals = dict.fromkeys(SWEEP_METHODS, 0.0)
        seed = int(np.random.SeedSequence([self.seed, self.wid, r, i]).generate_state(1)[0])
        self.op += 1
        try:
            records = self._call("bench.run_bench", run_bench, shapes=[el.shape],
                                 orders=[el.order], reps=self.w.sweep_reps, seed=seed,
                                 quantities=SWEEP_QUANTITIES)
        except Exception as exc:  # the built-in cross-check raises on disagreement
            self._outcome(False, lambda: f"run_bench {el.name} P={el.order} seed={seed}: "
                          f"{_describe(exc)}")
            return totals
        cells = {(rec.method, rec.quantity) for rec in records}
        ok = (cells == {(m, q) for m in SWEEP_METHODS for q in SWEEP_QUANTITIES}
              and all(np.isfinite(rec.mean_ns) and rec.mean_ns > 0 for rec in records))
        self._outcome(ok, lambda: f"run_bench {el.name} P={el.order}: malformed records")
        for rec in records:
            totals[rec.method] += rec.mean_ns / 1e6
        return totals

    # -- per-layer metrics from the spans --------------------------------------

    def _layer_metrics(self):
        tr = self.tracer
        L = self.per_layer
        for name in ("nodes.make_node_set", "element.sample_field"):
            per_setup = dict.fromkeys(set(self.setup_round_of_op.values()), 0)
            for s in tr.spans:
                if s[3] == name:
                    per_setup[self.setup_round_of_op[s[2]]] += s[5] - s[4]
            L[f"{name}_ms"] = statistics.median(per_setup.values()) / 1e6
        for name in ("shapes.contains_point", "shapes.collapse", "shapes.jacobian",
                     "tensor.tensor_evaluate_grad", "tensor.tensor_evaluate_value",
                     "element.phys_evaluate_grad", "element.phys_evaluate_value"):
            L[f"{name}_us"] = _median_us(tr.durations(name))
        L["element.self_grad_us"] = _median_us(tr.self_ns("element.phys_evaluate_grad"))
        m = BATCH_POINTS
        L["lagrange.build_us_per_point"] = _median_us(tr.durations("lagrange.build_operator")) / m
        L["lagrange.apply_us_per_point"] = _median_us(
            tr.durations("lagrange.apply_operator_cached")) / m
        L["lagrange.entries_per_point"] = statistics.fmean(
            el.cached_op.storage_count() / el.cached_op.num_points for el in self.elements)
        L["element.weight_storage"] = statistics.fmean(
            el.evaluators[0].weight_storage() for el in self.elements)
        L["pointlocate.project_us_per_target"] = _median_us(
            tr.children_ns("pointlocate.locate", "pointlocate.project_into_region"))
        L["pointlocate.self_ms_per_target"] = _median_us(tr.self_ns("pointlocate.locate")) / 1e3

    def result(self):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed}
