"""Univariate barycentric evaluation: the cardinal rows of one axis.

Every value and derivative in the package comes from `_axis_rows`, which
builds the cardinal rows l, l' and l'' of a node set at a coordinate in
O(n).  With x_j = z_j - eta, l = (w / x) / sum(w / x) and u = 1/x - sum(l / x),

    l'  = l u,     l'' = 2 l (u / x - sum(l u^2)).

Entry k of l' and of l'' (k the nearest node) is taken as minus the sum of
the others, since the rows of a partition of unity sum to zero; computed
directly they lose digits like eps / |eta - z_k| and eps / |eta - z_k|^2.
With t = w / x, f = sum t and the sums f' = sum_{j != k} t_j and
c' = sum_{j != k} t_j / x_j, this is l'_k = t_k (f' / x_k - c') / f^2,
which has no cancellation.  A query within SNAP_TOL of node k is
collocated: the rows are the unit row e_k, D[k] and D2[k].  Every other
query takes the one formula above.

`tensor._contract` reduces the samples of any shape with these rows axis by
axis; `bary_evaluate` applies them to one line of samples; the timed bench
sweep reduces every axis but the last with one product of these rows and
builds the same rows on Python floats (`bench._float_rows`) for its last line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

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
    """Value and optional derivatives of a field at one point.

    d1 holds one gradient component per reference coordinate; d2 is the 1D
    second derivative.  Both are present only when requested.
    """

    value: float
    d1: np.ndarray | None = None
    d2: float | None = None


def _axis_rows(ax, e, deriv):
    """Cardinal rows of one axis at coordinate e, and e snapped onto a node.

    Returns l, [l; l'] or [l; l'; l''] for deriv = 0, 1 or 2 as a
    (deriv + 1, n) array; see the module docstring for the formulas and the
    collocated branch.  A collocated e becomes the node.
    """
    if not math.isfinite(e):
        raise InvalidInputError(f"query coordinate {e} is not finite")
    x = ax.nodes - e
    k = int(np.abs(x).argmin())
    rows = np.zeros((deriv + 1, ax.n))
    if abs(x.item(k)) <= SNAP_TOL:
        rows[0, k] = 1.0
        if deriv:
            rows[1] = ax.d1[k]
        if deriv > 1:
            rows[2] = ax.d2[k]
        return rows, float(ax.nodes[k])
    lv = rows[0]
    np.divide(ax.weights, x, out=lv)
    if not deriv:
        lv *= 1.0 / np.add.reduce(lv)
        if counters.enabled:
            counters.divisions += ax.n + 1
        return rows, e
    # l' = l u = (t / x - t s) / f with t = w / x, f = sum t, s = sum(t / x) / f;
    # with t_k zeroed the one reduction gives f' and c', the sums over j != k
    l1 = rows[1]
    tk, xk = lv.item(k), x.item(k)
    lv[k] = 0.0
    np.divide(lv, x, out=l1)
    f1, c1, *_ = np.add.reduce(rows, axis=1).tolist()  # an l'' row is still zero
    lv[k] = tk
    g = 1.0 / (f1 + tk)
    s = (c1 + tk / xk) * g
    l1 -= lv * s
    rows *= g
    l1[k] = tk * (f1 / xk - c1) * g * g
    if deriv > 1:
        r = 1.0 / x
        u = r - s
        l2 = rows[2]
        np.multiply(lv, u * r - l1 @ u, out=l2)
        l2 *= 2.0
        l2[k] = 0.0
        l2[k] = -l2.sum()
    if counters.enabled:
        counters.divisions += (3 if deriv > 1 else 2) * ax.n + 3
    return rows, e


def bary_evaluate(nodeset, values, eta, deriv=0):
    """Evaluate the interpolant of `values` at eta, with derivatives up to `deriv`.

    deriv = 0 returns the value only, 1 adds the first derivative, 2 adds the
    second.  All requested quantities come from one set of cardinal rows.
    """
    if deriv not in (0, 1, 2):
        raise InvalidInputError(f"derivative order must be 0, 1 or 2, got {deriv}")
    v = np.asarray(values, dtype=float)
    if len(v) != nodeset.n:
        raise InvalidInputError(f"expected {nodeset.n} values, got {len(v)}")
    rows, _ = _axis_rows(nodeset, eta, deriv)
    if counters.enabled:
        counters.kernel_calls += 1
        counters.per_call_nodes.append(nodeset.n)
    # One dot per row, so that a collocated query returns D[j] @ v and
    # D2[j] @ v to the bit; a stacked product may differ in the last ulp.
    p = [float(row @ v) for row in rows]
    return EvalResult(p[0], np.array(p[1:2]) if deriv else None,
                      p[2] if deriv > 1 else None)
