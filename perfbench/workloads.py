"""The benchmark's workloads: which elements, which points, how many per round.

A round is one pass over every element of the workload.  The timed phases
run whole rounds, interleaved over the run, so every run attempts the same
operations in the same proportions whatever its length.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple            # ((shape name, order), ...), one element each
    probes: bool            # fixed 64-point sampling grids instead of fresh points
    snapshots: int          # field snapshots sampled per element
    points_per_round: int   # per element and round, per-point phases (scatter only)
    targets_per_round: int  # locate targets per element and round (scatter only)
    sweep_reps: int         # run_bench repetitions per (shape, order) cell
    speed_exponents: dict   # end-to-end metric -> exponent of the speed factor


WORKLOADS = {
    w.name: w
    for w in (
        # Streamline/pathline seeds: fresh scattered points at low order, where
        # per-call overhead in element, shapes and tensor sets the cost.
        Workload("scatter-low",
                 (("segment", 4), ("quad", 3), ("tri", 4), ("prism", 3), ("pyr", 2)),
                 probes=False, snapshots=2, points_per_round=24,
                 targets_per_round=2, sweep_reps=30,
                 speed_exponents={
                     "setup_s": 0.75, "eval_grad_pts_per_s": 0.8,
                     "eval_value_pts_per_s": 0.8, "matrix_rebuilt_pts_per_s": 0.6,
                     "matrix_cached_pts_per_s": 0.7, "locate_ms_per_target": 0.45,
                     "sweep_bary_ms": 0.6, "sweep_rebuilt_ms": 0.55,
                     "sweep_cached_ms": 0.45}),
        # High order in 3D: thousands of samples per element, so the matrix
        # row build, field sampling and kernel reductions dominate.
        Workload("scatter-high",
                 (("hex", 12), ("tet", 14), ("prism", 13), ("pyr", 12)),
                 probes=False, snapshots=2, points_per_round=12,
                 targets_per_round=2, sweep_reps=4,
                 speed_exponents={
                     "setup_s": 0.45, "eval_grad_pts_per_s": 0.85,
                     "eval_value_pts_per_s": 0.8, "matrix_rebuilt_pts_per_s": 0.35,
                     "matrix_cached_pts_per_s": 0.25, "locate_ms_per_target": 0.8,
                     "sweep_bary_ms": 0.45, "sweep_rebuilt_ms": 0.4,
                     "sweep_cached_ms": 0.15}),
        # Mortaring/projection: the paper's fixed sampling grids against several
        # field snapshots; points repeat and sit on faces and edges.
        Workload("probes-fixed",
                 (("segment", 8), ("quad", 8), ("tri", 8), ("hex", 6),
                  ("prism", 7), ("pyr", 6), ("tet", 7)),
                 probes=True, snapshots=4, points_per_round=0,
                 targets_per_round=0, sweep_reps=10,
                 speed_exponents={
                     "setup_s": 0.95, "eval_grad_pts_per_s": 1.0,
                     "eval_value_pts_per_s": 1.0, "matrix_rebuilt_pts_per_s": 0.55,
                     "matrix_cached_pts_per_s": 0.7, "locate_ms_per_target": 1.0,
                     "sweep_bary_ms": 0.95, "sweep_rebuilt_ms": 1.0,
                     "sweep_cached_ms": 0.45}),
    )
}

# Points scattered for gradients, matrix batches and locate targets keep this
# distance from collapsed faces, where gradients are ill-conditioned.
SINGULAR_MARGIN = 0.05

# Terms of each random field polynomial; the top-degree monomial is one of them.
FIELD_TERMS = 6

# Points of every matrix batch, as in the paper's protocol.
BATCH_POINTS = 64

# Share of --seconds given to each timed phase.
PHASE_SHARES = {
    "setup": 0.06,
    "eval_grad": 0.10,
    "eval_value": 0.07,
    "matrix_rebuilt": 0.09,
    "matrix_cached": 0.06,
    "locate": 0.18,
    "sweeps": 0.40,
    "calibrate": 0.04,
}
