"""Command-line interface.

Subcommands:

* verify   -- run the correctness sweeps, exit 1 on any failure
* bench    -- run the timing benchmark, write CSV
* speedup  -- ratio report from a benchmark CSV
* locate   -- demo point location with an identity coordinate map

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from .element import basis_for_order, sample_field
from .errors import BaryevalError
from .pointlocate import LocateConfig, LocateProblem, locate
from .shapes import dim_of, shape_from_name
from .verify import run_verify

USAGE_ERROR = 2


def coordinates(text):
    """A comma-separated list of numbers; argparse reports a ValueError as a usage error."""
    return np.array(text.split(","), dtype=float)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="baryeval",
        description="Barycentric reference-element evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run correctness sweeps")
    p_verify.add_argument("--shapes", default="all")
    p_verify.add_argument("--orders", default="2..10")
    p_verify.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="run timing benchmarks")
    p_bench.add_argument("--shapes", default="all")
    p_bench.add_argument("--orders", default="2..20")
    p_bench.add_argument("--reps", type=int, default=None,
                         help="sweep repetitions (default 1000 in 1D, 100 in 2D/3D)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_speed = sub.add_parser("speedup", help="speedup table from a benchmark CSV")
    p_speed.add_argument("--in", dest="infile", required=True)
    p_speed.add_argument("--out", default=None)

    p_locate = sub.add_parser("locate", help="locate a point under the identity map")
    p_locate.add_argument("--shape", required=True)
    p_locate.add_argument("--order", type=int, default=4)
    p_locate.add_argument("--target", required=True, type=coordinates,
                      help="comma-separated coordinates; use --target=-0.5,... for negative values")
    return parser


def _cmd_verify(args):
    shapes = bench_mod.parse_shapes(args.shapes)
    orders = bench_mod.parse_orders(args.orders)
    ok, results = run_verify(shapes, orders, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.shape:8s} order {r.order:2d}  {r.name:20s} {r.detail}")
    print(f"verify: {'all checks passed' if ok else 'FAILURES detected'}")
    return 0 if ok else 1


def _emit(text, out, what):
    """Write text to the file out, saying that `what` was written there, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args):
    shapes = bench_mod.parse_shapes(args.shapes)
    orders = bench_mod.parse_orders(args.orders)
    records = bench_mod.run_bench(shapes, orders, reps=args.reps, seed=args.seed)
    return _emit(bench_mod.csv_text(records), args.out, f"{len(records)} records")


def _cmd_speedup(args):
    with open(args.infile) as fh:
        records = bench_mod.read_csv(fh)
    return _emit(bench_mod.speedup_csv(records), args.out, "speedup table")


def _cmd_locate(args):
    shape = shape_from_name(args.shape)
    d = dim_of(shape)
    basis = basis_for_order(shape, args.order)
    coord_fields = tuple(
        sample_field(shape, basis, lambda xi, q=q: float(xi[q])) for q in range(d)
    )
    problem = LocateProblem(shape, basis, coord_fields, args.target, LocateConfig())
    result = locate(problem)
    print(f"shape:      {shape.value}")
    print(f"target:     {np.array2string(args.target, precision=12)}")
    print(f"found xi:   {np.array2string(result.xi, precision=12)}")
    print(f"residual:   {result.residual:.3e}")
    print(f"iterations: {result.iterations}")
    print(f"converged:  {result.converged}")
    return 0 if result.converged else 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    handlers = {
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "speedup": _cmd_speedup,
        "locate": _cmd_locate,
    }
    try:
        return handlers[args.command](args)
    except (BaryevalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
