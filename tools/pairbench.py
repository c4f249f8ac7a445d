"""Paired benchmark runs of two git revisions, written as BENCH_<workload>.json.

    python3 tools/pairbench.py --parent e9018e2 --change HEAD --workload probes-fixed \
        --seeds 9601-9615 --workdir /tmp/pairs --about "what the change does and claims"

Clones the repository twice under --workdir, checks out the parent and the
change, and runs the benchmark command of BENCHMARK.json (perfbench/run.py,
--trace 0) once per seed on each side, alternating which side runs first:
the parent first on the first seed.  Every run must exit cleanly.  For each
workload it writes BENCH_<workload>.json to --out (default: the current
directory) with

* `summary`: per end-to-end metric of BENCHMARK.json, its unit, direction
  and `bound`, the median and quartiles of each side's calibrated values,
  `change_over_parent` (change median / parent median),
  `pairs_change_better` (pairs in which the change read strictly better),
  `change_worse_by` (how much worse the change's median is than the
  parent's, relative to the parent's, in the metric's direction: positive
  when worse, to hold against `bound`) and `parent_iqr_over_median` (the
  spread of the parent's runs, relative to its median);
* `sweep_rounds`: the number of rounds each side's sweep metrics are the
  median of, per run;
* `pairs`: per seed, which side ran first and both result files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def summarize(pairs, metrics):
    """The summary of paired result records, one entry per end-to-end metric.

    `pairs` holds {"parent": record, "change": record} items, each record
    with an `end_to_end` mapping of metric name to value; `metrics` is the
    `end_to_end` list of BENCHMARK.json (name, unit, better, bound).
    """
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {side: np.array([p[side]["end_to_end"][name] for p in pairs], dtype=float)
                  for side in SIDES}
        better = values["change"] > values["parent"] if higher else (
            values["change"] < values["parent"])
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side in SIDES:
            entry[f"{side}_median"] = float(np.median(values[side]))
            entry[f"{side}_quartiles"] = np.percentile(values[side], [25, 75]).tolist()
        entry["change_over_parent"] = entry["change_median"] / entry["parent_median"]
        entry["pairs_change_better"] = int(better.sum())
        ratio = entry["change_over_parent"]
        entry["change_worse_by"] = 1.0 - ratio if higher else ratio - 1.0
        low, high = entry["parent_quartiles"]
        entry["parent_iqr_over_median"] = (high - low) / entry["parent_median"]
        out[name] = entry
    return out


def report_lines(summary, n_pairs):
    """One line per metric of `summarize`: the ratio, the worsening against its bound, the
    parent's spread and the pairs won."""
    return [f"{name}: change/parent {e['change_over_parent']:.3f}, worse by "
            f"{e['change_worse_by']:+.3f} (bound {e['bound']}), parent IQR/median "
            f"{e['parent_iqr_over_median']:.3f}, change better in "
            f"{e['pairs_change_better']}/{n_pairs} pairs" for name, e in summary.items()]


def parse_seeds(text):
    """'9601-9615' or '1,5,9' as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _clone(rev, path):
    """A fresh clone of this repository at path, checked out at rev."""
    if path.exists():
        sys.exit(f"error: {path} exists; give an empty --workdir")
    _git("clone", "--quiet", "--no-hardlinks", str(ROOT), str(path))
    _git("checkout", "--quiet", rev, cwd=path)


def _run(clone, command, workload, seed, seconds):
    """One benchmark run in clone; returns the result file it wrote."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=clone, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: {' '.join(args)} in {clone} exited {proc.returncode}:\n{proc.stderr}")
    out = clone / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(out.read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload of BENCHMARK.json; repeat for several")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="first-last, or a comma-separated list")
    ap.add_argument("--workdir", required=True, type=Path, help="where the two clones go")
    ap.add_argument("--about", required=True, help="what the change does and claims")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    clones = {side: args.workdir / side for side in SIDES}
    args.workdir.mkdir(parents=True, exist_ok=True)
    for side in SIDES:
        _clone(revs[side], clones[side])
    spec = json.loads((clones["change"] / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(clones[side], command, workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"correct={pair[side]['correct']} failed={pair[side]['failed']}", flush=True)
            pairs.append(pair)
        shell = " ".join(command)
        summary = summarize(pairs, spec["end_to_end"])
        for line in report_lines(summary, len(pairs)):
            print(f"{workload} {line}", flush=True)
        record = {
            "workload": workload,
            "command": f"{shell} --workload {workload} --seed SEED --seconds {seconds} --trace 0",
            "about": (f"Paired runs of the parent commit ({revs['parent'][:7]}) and of the change "
                      f"({revs['change'][:7]}), each from its own git clone, alternating which "
                      f"side ran first; seeds {', '.join(map(str, args.seeds))}. "
                      + args.about),
            "machine": f"{os.cpu_count()}-CPU {platform.machine()}, one process and one BLAS "
                       "thread per run",
            "summary": summary,
            "sweep_rounds": {side: [p[side]["details"]["rounds"]["sweeps"] for p in pairs]
                             for side in SIDES},
            "pairs": pairs,
        }
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main()
