"""Univariate barycentric evaluation kernel.

Evaluates a polynomial given by its samples on a node set, together with its
first and second derivatives, in one O(n) pass.  The accumulators follow the
convention x_j = z_j - eta, under which

    value = A / F
    p'    = (B*F - A*C) / F^2
    p''   = 2*D/F - 2*E*A/F^2 - 2*B*C/F^2 + 2*C*(A*C)/F^3

with A, F the weighted sums of v_j*w_j/x_j and w_j/x_j, B, C the analogous
1/x^2 sums and D, E the 1/x^3 sums.  A query collocated with node j skips the
sums entirely and returns the stored sample, with derivatives taken from the
precomputed differentiation-matrix rows.

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
    a = float(t1 @ values)
    f = float(t1.sum())
    value = a / f
    d1 = d2 = 0.0
    if deriv >= 1:
        t2 = t1 / x
        b = float(t2 @ values)
        c = float(t2.sum())
        ff = f * f
        ac = a * c
        d1 = (b * f - ac) / ff
        if deriv >= 2:
            t3 = t2 / x
            d = float(t3 @ values)
            e = float(t3.sum())
            d2 = (2 * d) / f - (2 * e * a) / ff - (2 * b * c) / ff + (2 * c * ac) / (ff * f)
    if counters.enabled:
        counters.divisions += n * (deriv + 1) + (1, 2, 6)[deriv]
    return value, d1, d2
