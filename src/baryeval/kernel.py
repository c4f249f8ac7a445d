"""Univariate barycentric evaluation: the cardinal rows of one axis.

Every value and derivative in the package comes from one formula for the
cardinal rows l, l' and l'' of a node set at a coordinate, built in O(n).
With x_j = z_j - eta, l = (w / x) / sum(w / x) and u = 1/x - sum(l / x),

    l'  = l u,     l'' = 2 l (u / x - sum(l u^2)).

Computed directly, entry k of l' and of l'' (k the nearest node) loses
digits like eps / |eta - z_k| and eps / |eta - z_k|^2.  With t = w / x,
f = sum t and the sums f' = sum_{j != k} t_j and c' = sum_{j != k} t_j / x_j,
entry k of l' is l'_k = t_k (f' / x_k - c') / f^2, which has no cancellation;
entry k of l'' is minus the sum of the others, since the rows of a partition
of unity sum to zero.  A query within SNAP_TOL of node k is collocated: the
rows are the unit row e_k, D[k] and D2[k].  Every other query takes the one
formula above.

`_float_rows` is the one implementation: it builds l, l' and l'' on Python
floats, and `_reduce_lines` applies them to a few short lines, where array
dispatch would cost more than the arithmetic.  `_axis_rows` returns the rows
of one axis as a NumPy array, for an axis whose rows are applied to many
lines in one product.  Its rows are unnormalised, returned with their scale
g = 1 / sum(t): [t; l' / g], the rows of `_float_rows`, or t = w / x alone
as a NumPy quotient, which at high order costs less than turning float rows
into an array.  `tensor._contract`, the one per-point contraction behind
`ElementEvaluator.phys_evaluate` and the timed bench sweep, takes the array
for every axis but the last of one field (every axis of several fields),
reduces the last line of one field with `_reduce_lines`, and normalises once
per point, by the product of the axes' g, as the paper's tensor-product
barycentric form divides once; `bary_evaluate` reduces its one line with
`_reduce_lines`.  With |x| > SNAP_TOL an unnormalised value row holds at
most max|w| / SNAP_TOL, so nothing overflows up to `nodes.MAX_NODES`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import mul as _mul
from operator import truediv as _div

import numpy as np

from .errors import InvalidInputError, as_floats, as_index
from .nodes import _line

# Cube coordinates within this distance of a node are collocated with it and
# snapped onto it.  Collapse arithmetic perturbs grid-point preimages by a few
# ulps (amplified near collapsed vertices); snapping restores the exact
# collocation branch.  The value perturbation for genuinely distinct points is
# below 1e-12 times the field derivative.
SNAP_TOL = 1e-12


@dataclass
class OpCounters:
    """Instrumentation for the cost properties of the kernel.

    One kernel call (a reduction) is one line of samples reduced by the rows
    of one axis, however many rows there are; `per_call_nodes` records the
    line length.  One division is one floating-point division while the rows
    are built: n + 1 for l, n + 2 more for l' and n more for l''.  Collocated
    rows cost none.
    """

    enabled: bool = False
    kernel_calls: int = 0
    divisions: int = 0
    per_call_nodes: list = field(default_factory=list)

    def reset(self):
        self.kernel_calls = 0
        self.divisions = 0
        self.per_call_nodes = []


counters = OpCounters()


@dataclass
class EvalResult:
    """Value and optional derivatives of a field at one point, or of fields at many.

    d1 holds one gradient component per reference coordinate; d2 is the 1D
    second derivative.  Both are present only when requested.  Several fields
    add a field axis before the component axis, and `ElementEvaluator.evaluate`
    a leading point axis.
    """

    value: float
    d1: np.ndarray | None = None
    d2: float | None = None


def _nearest(z, e):
    """Index of the node of z (ascending floats) nearest e, the first of a tie.

    e must be finite; every entry point refuses any other.
    """
    k = bisect_left(z, e)
    if k == len(z) or (k and e - z[k - 1] <= z[k] - e):
        k -= 1
    return k


def _axis_rows(ax, e, deriv):
    """Unnormalised cardinal rows of one axis at e, their scale g, and e snapped.

    Returns (rows, g, e): rows is t = w / x as an (n,) array for deriv = 0,
    or the rows of `_float_rows` as a (2, n) array for deriv = 1, and l (and
    l') are g times them, so l' has one source.  A collocated e becomes the
    node, with the rows e_k and D[k] and g = 1.
    """
    z, w = ax.floats
    if deriv:
        k, g, rows = _float_rows(z, w, e, 1)
        if rows:
            return np.array(rows), g, e
    else:
        k = _nearest(z, e)
        if abs(z[k] - e) > SNAP_TOL:
            t = ax.weights / (ax.nodes - e)
            if counters.enabled:
                counters.divisions += ax.n + 1
            return t, 1.0 / sum(t.tolist()), e
    rows = np.zeros((deriv + 1, ax.n))
    rows[0, k] = 1.0
    if deriv:
        rows[1] = ax.d1[k]
    return rows if deriv else rows[0], 1.0, z[k]


def _float_rows(z, w, e, deriv):
    """The cardinal rows on Python floats, for nodes z and weights w at e.

    Returns (k, g, rows) with k the nearest node.  If e lies within SNAP_TOL
    of node k, rows is empty: the rows are e_k, D[k] and D2[k].  Otherwise
    rows holds t = w / x, then for deriv >= 1 l' / g and for deriv = 2
    l'' / g, where x = z - e and g = 1 / sum(t), so that l = g t.
    """
    k = _nearest(z, e)
    x = [zj - e for zj in z]
    if abs(x[k]) <= SNAP_TOL:
        return k, 1.0, ()
    if counters.enabled:
        counters.divisions += (deriv + 1) * len(z) + (1, 3, 3)[deriv]
    t = list(map(_div, w, x))
    if not deriv:
        return k, 1.0 / sum(t), (t,)
    # l' / g = t / x - s t with s = sum(t / x) g; entry k is t_k (f' / x_k - c') g
    # from f' and c', the sums of t and t / x over j != k
    tx = list(map(_div, t, x))
    tk, txk = t[k], tx[k]
    t[k] = tx[k] = 0.0
    f1, c1 = sum(t), sum(tx)
    t[k], tx[k] = tk, txk
    g = 1.0 / (f1 + tk)
    s = (c1 + txk) * g
    l1 = [a - tj * s for a, tj in zip(tx, t)]
    l1[k] = tk * (f1 / x[k] - c1) * g
    if deriv == 1:
        return k, g, (t, l1)
    # l'' = 2 l (u / x - sum(l' u)), so l'' / g = 2 (u t / x - t sum(l' u))
    u = [1.0 / xj - s for xj in x]
    c = sum(map(_mul, l1, u)) * g
    l2 = [2.0 * (a * uj - tj * c) for a, tj, uj in zip(tx, t, u)]
    l2[k] = 0.0
    l2[k] = -sum(l2)
    return k, g, (t, l1, l2)


def _reduce_lines(ax, e, deriv, lines, scale=1.0):
    """Reduce float lines of samples along axis ax at e, on Python floats.

    `lines` is a list of n-long float lists.  Returns every line reduced with
    l, followed by lines[0] reduced with l' for deriv >= 1 and with l'' for
    deriv = 2, each times `scale`, as one list; and e, snapped onto its node
    when collocated.
    """
    z, w = ax.floats
    k, g, rows = _float_rows(z, w, e, deriv)
    if counters.enabled:
        counters.kernel_calls += len(lines)
        counters.per_call_nodes.extend([ax.n] * len(lines))
    out = []
    if not rows:
        for line in lines:
            out.append(line[k] * scale)
        # one NumPy dot per row, so that a collocated query returns D[k] @ v
        # and D2[k] @ v to the bit
        for d in (ax.d1, ax.d2)[:deriv]:
            out.append(float(d[k] @ lines[0]) * scale)
        return out, z[k]
    g *= scale
    t = rows[0]
    for line in lines:
        out.append(sum(map(_mul, t, line)) * g)
    for r in rows[1:]:
        out.append(sum(map(_mul, r, lines[0])) * g)
    return out, e


def bary_evaluate(nodeset, values, eta, deriv=0):
    """Evaluate the interpolant of `values` at eta, with derivatives up to `deriv`.

    deriv = 0 returns the value only, 1 adds the first derivative, 2 adds the
    second.  All requested quantities come from one set of cardinal rows,
    applied on floats by `_reduce_lines`.
    """
    order = as_index(deriv)
    if order not in (0, 1, 2):
        raise InvalidInputError(f"derivative order must be the integer 0, 1 or 2, got {deriv!r}")
    v = _line(values, "values")
    if len(v) != nodeset.n:
        raise InvalidInputError(f"values must be {nodeset.n} numbers, got {len(v)}")
    e = as_floats(eta, "eta")
    if e.ndim or not math.isfinite(e):
        raise InvalidInputError(f"eta must be a finite real scalar, got {eta!r}")
    p, _ = _reduce_lines(nodeset, float(e), order, [v.tolist()])
    return EvalResult(p[0], np.array(p[1:2]) if order else None,
                      p[2] if order > 1 else None)
