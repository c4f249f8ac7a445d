"""Self-test of the benchmark, run from the root of a source checkout.

    python3 perfbench/selftest.py

1. Every workload, shrunk to low orders and a handful of points, runs one
   round of each phase untraced and traced, fails nothing, and reports
   every metric named in BENCHMARK.json (end-to-end ones positive).
2. A field whose samples are shifted by 1e-6, and a coordinate map whose
   samples are shifted by 1e-6, are each counted as failed operations of
   exactly the phases that use them.
3. run.py in a directory holding only BENCHMARK.json and perfbench/ exits
   non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess

from run import HERE, OUT, ROOT, import_program

import_program()

import exact  # noqa: E402
from harness import Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHIFT = 1e-6
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(workload):
    return dataclasses.replace(
        workload, cells=tuple((s, min(p, 3)) for s, p in workload.cells),
        points_per_round=2, targets_per_round=1, sweep_reps=1)


def run_once(workload, trace=False, perturb=None):
    run = Run(workload, seed=0, seconds=0, trace=trace)
    if perturb is not None:
        perturb(run.elements[0])
    return run.execute()


def test_workloads():
    for name, workload in WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            run = run_once(tiny(workload), trace=trace)
            check(run.attempted > 0 and run.failed == 0,
                  f"{name} trace={trace}: {run.failed}/{run.attempted} failed: {run.failures}")
            values = run.per_layer if trace else run.end_to_end
            for metric in SPEC[key]:
                # A self time from a handful of calls can come out negative;
                # only end-to-end figures must be positive.
                v = values.get(metric["name"])
                check(v is not None and math.isfinite(v) and (trace or v > 0),
                      f"{name} trace={trace}: metric {metric['name']} = {v}")
        print(f"selftest: {name} ok")


class ShiftedPolynomial(exact.Polynomial):
    """Samples shifted by SHIFT; the exact answers (values, gradients) are not."""

    def __call__(self, xi):
        return super().__call__(xi) + SHIFT


class ShiftedMap:
    """Coordinate samples shifted by SHIFT; the exact targets are not."""

    def __init__(self, qmap):
        self.qmap = qmap

    def coordinate(self, i):
        exact_coordinate = self.qmap.coordinate(i)
        return lambda xi: exact_coordinate(xi) + SHIFT

    def __call__(self, xis):
        return self.qmap(xis)


def shift_field(el):
    p = el.polys[0]
    el.polys[0] = ShiftedPolynomial(p.alphas, p.coeffs)


def shift_map(el):
    el.qmap = ShiftedMap(el.qmap)


def test_perturbations():
    w = tiny(WORKLOADS["scatter-low"])
    first = w.cells[0][0]
    # One round per phase; round 0 uses snapshot 0 of every element.  The
    # shifted snapshot fails each point of both evaluation phases, the
    # rebuilt-matrix batch and the cached apply on that snapshot.
    run = run_once(w, perturb=shift_field)
    check(run.failed == 2 * w.points_per_round + 2,
          f"shifted field: {run.failed} failed, notes {run.failures}")
    check(all(n.startswith(("phys_evaluate " + first, "matrix rebuilt " + first,
                            "matrix cached " + first)) for n in run.failures),
          f"shifted field: unexpected failures {run.failures}")
    check(not run.result()["correct"], "shifted field: result still reads correct")

    run = run_once(w, perturb=shift_map)
    check(run.failed == w.targets_per_round
          and all(n.startswith("locate " + first) for n in run.failures),
          f"shifted map: {run.failed} failed, notes {run.failures}")
    check(not run.result()["correct"], "shifted map: result still reads correct")
    print("selftest: perturbed field and locate results are counted as failed")


def test_bare_directory():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "scatter-low", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("selftest: without the sources the benchmark exits", proc.returncode)


if __name__ == "__main__":
    test_workloads()
    test_perturbations()
    test_bare_directory()
    print("selftest: ok")
