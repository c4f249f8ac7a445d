"""Benchmark of baryeval's public API, run from the root of a source checkout.

    python3 perfbench/run.py --workload scatter-low --seed 1 --seconds 25 --trace 0

Runs one workload in this single process and thread against the package
under ./src, checks every output against exact answers computed here, and
prints as its last line one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  The full
result, with the environment, goes to perfbench/out/; a traced run also
writes its spans there.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def import_program():
    """Import baryeval from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "baryeval" / "__init__.py").is_file():
        sys.exit(f"error: no baryeval sources under {src}")
    sys.path.insert(0, str(src))
    import baryeval

    if src not in Path(baryeval.__file__).resolve().parents:
        sys.exit(f"error: baryeval imported from {baryeval.__file__}, not {src}")
    return baryeval


def git_revision():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(baryeval):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "baryeval": baryeval.__version__,
        "git_revision": git_revision(),
    }


def metric_block(values, specs):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_THREAD_VARS:  # the command sets these; direct calls get the same
        os.environ.setdefault(var, "1")
    baryeval = import_program()

    from harness import Run
    from workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).execute()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(baryeval),
        **run.result(), "failures": run.failures, "details": run.details,
        "end_to_end": run.end_to_end, "per_layer": run.per_layer,
    }
    if args.trace:
        run.tracer.write(stem.with_name(stem.name + "-spans.json.gz"))
        untraced = stem.with_name(stem.name + "-trace0.json")
        if untraced.is_file():
            # Slowdown of each end-to-end metric under tracing, as a share.
            base = json.loads(untraced.read_text())["end_to_end"]
            record["tracing_overhead"] = {
                m["name"]: (run.end_to_end[m["name"]] / base[m["name"]]) ** (
                    1 if m["better"] == "lower" else -1) - 1.0
                for m in spec["end_to_end"]}
    stem.with_name(f"{stem.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("environment:", json.dumps(record["environment"]))
    for note in run.failures:
        print("failed:", note)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run.per_layer if args.trace else run.end_to_end
    print(json.dumps({**run.result(), "metrics": metric_block(values, specs)}))


if __name__ == "__main__":
    main()
