"""Univariate barycentric evaluation kernel.

Evaluates a polynomial given by its samples on a node set, together with its
first and second derivatives, in one O(n) pass.  With x_j = z_j - eta,
t_j = w_j / x_j and F = sum_j t_j, the derivatives are barycentric sums of
divided differences (Schneider & Werner, Math. Comp. 1986):

    value = sum_j t_j v_j / F
    p'    = sum_j t_j p[z_j, eta] / F,            p[z_j, eta] = (v_j - value) / x_j
    p''   = 2 sum_j t_j p[z_j, eta, eta] / F,     p[z_j, eta, eta] = (p[z_j, eta] - p') / x_j

Each difference is formed before it is weighted, so no large power sums
cancel; the error still grows like eps / |eta - z_k| next to node k.  Within
TAYLOR_TOL of node k the derivatives come instead from the stored
differentiation-matrix rows, p' = D[k] v + delta D2[k] v and p'' = D2[k] v
with delta = eta - z_k.  A query collocated with node j skips the sums
entirely and returns the stored sample, with derivatives from the rows.

This is the 1D path with second derivatives (`bary_evaluate`, `s_sum`,
`ElementEvaluator.phys_evaluate_1d`); values and gradients on every shape go
through the cardinal rows of `tensor._contract`.  On both paths `counters`
counts one reduction per line reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CollocationError, InvalidInputError

# Points closer to a node than this are treated as collocated.  Exact-zero
# tests are fragile after coordinate-collapse arithmetic.
_EPS = np.finfo(float).eps


# Below this distance to a node the divided differences lose more digits than
# the first-order Taylor expansion from the differentiation rows.
TAYLOR_TOL = 1e-8


def collocation_tolerance(node):
    return 4.0 * _EPS * max(1.0, abs(node))


@dataclass
class OpCounters:
    """Instrumentation for the cost properties of the kernel."""

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


def _collocated_index(nodes, eta):
    """Index of the node collocated with eta, or -1; refuses NaN and +-inf.

    Every evaluation entry point passes its query coordinates through here.
    """
    if not math.isfinite(eta):
        raise InvalidInputError(f"query coordinate {eta} is not finite")
    j = int(np.argmin(np.abs(nodes - eta)))
    if abs(nodes[j] - eta) <= collocation_tolerance(nodes[j]):
        return j
    return -1


def s_sum(r, values, nodeset, eta):
    """The weighted power sum sum_j v_j * w_j / (eta - z_j)^r in one pass."""
    if r not in (1, 2, 3):
        raise InvalidInputError(f"sum order must be 1, 2 or 3, got {r}")
    v = np.asarray(values, dtype=float)
    z = nodeset.nodes
    if len(v) != len(z):
        raise InvalidInputError(f"expected {len(z)} values, got {len(v)}")
    if _collocated_index(z, eta) >= 0:
        raise CollocationError(f"point {eta} is collocated with a node")
    x = eta - z
    return float(np.sum(v * nodeset.weights / x**r))


def bary_evaluate(nodeset, values, eta, deriv=0):
    """Evaluate the interpolant of `values` at eta, with derivatives up to `deriv`.

    deriv = 0 returns the value only, 1 adds the first derivative, 2 adds the
    second.  All requested quantities come from a single pass over the nodes.
    """
    v = np.asarray(values, dtype=float)
    if len(v) != nodeset.n:
        raise InvalidInputError(f"expected {nodeset.n} values, got {len(v)}")
    value, d1, d2 = _kernel(nodeset, v, eta, deriv)
    return EvalResult(
        value=value,
        d1=None if deriv < 1 else np.array([d1]),
        d2=None if deriv < 2 else d2,
    )


def _kernel(nodeset, values, eta, deriv):
    """One pass over the nodes; returns plain floats."""
    z = nodeset.nodes
    n = len(z)
    if counters.enabled:
        counters.kernel_calls += 1
        counters.per_call_nodes.append(n)

    j = _collocated_index(z, eta)
    if j >= 0:
        value = float(values[j])
        d1 = float(nodeset.d1[j] @ values) if deriv >= 1 else 0.0
        d2 = float(nodeset.d2[j] @ values) if deriv >= 2 else 0.0
        return value, d1, d2

    x = z - eta
    t1 = nodeset.weights / x
    f = float(t1.sum())
    value = float(t1 @ values) / f
    d1 = d2 = 0.0
    divisions = n + 1
    if deriv >= 1:
        k = int(np.argmin(np.abs(x)))
        if abs(x[k]) < TAYLOR_TOL:
            d2 = float(nodeset.d2[k] @ values)
            d1 = float(nodeset.d1[k] @ values - x[k] * d2)
        else:
            dd1 = (values - value) / x
            d1 = float(t1 @ dd1) / f
            divisions *= 2
            if deriv >= 2:
                d2 = 2.0 * float(t1 @ ((dd1 - d1) / x)) / f
                divisions += n + 1
    if counters.enabled:
        counters.divisions += divisions
    return value, d1, d2
