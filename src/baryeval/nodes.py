"""1D interpolation node sets, barycentric weights and differentiation matrices.

Node families supported on [-1, 1]:

* Gauss-Lobatto-Legendre (includes both endpoints),
* Gauss-Radau-Legendre anchored at -1 (excludes +1),
* Chebyshev-Gauss-Lobatto,
* equispaced.

The barycentric weights follow

    w_j = 1 / prod_{i != j} (z_i - z_j)

which differs from the Berrut-Trefethen convention by a factor (-1)^k common
to all j.  Every downstream quantity is a ratio of weighted sums, so the
common factor cancels; see the weight-scaling test.  `make_node_set` builds
each (kind, n) once per process and shares that NodeSet with every caller; a
NodeSet is read-only and compares by identity.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConvergenceError, DegenerateNodesError, InvalidSizeError

MAX_NODES = 64
NEWTON_TOL = 1e-14
NEWTON_MAX_ITERS = 100


class NodeKind(enum.Enum):
    GAUSS_LOBATTO_LEGENDRE = "gll"
    GAUSS_RADAU_MINUS = "radau-"
    CHEBYSHEV_GAUSS_LOBATTO = "cgl"
    EQUISPACED = "equi"


def _legendre_pair(m, x):
    """Evaluate (P_{m-1}, P_m) at x with the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if m == 0:
        return np.zeros_like(x), p_prev
    p = x.copy()
    for j in range(1, m):
        p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
    return p_prev, p


def _legendre_derivatives(m, x):
    """P_m, P'_m and P''_m at interior points (|x| < 1)."""
    p_prev, p = _legendre_pair(m, x)
    omx2 = 1.0 - x * x
    dp = m * (p_prev - x * p) / omx2
    ddp = (2.0 * x * dp - m * (m + 1) * p) / omx2
    return p, dp, ddp


def _newton(guesses, fun):
    """Vectorized Newton iteration; fun(x) returns (f, f')."""
    x = np.array(guesses, dtype=float)
    for _ in range(NEWTON_MAX_ITERS):
        f, df = fun(x)
        step = f / df
        x -= step
        if np.max(np.abs(step)) <= NEWTON_TOL:
            return x
    raise ConvergenceError(
        "Newton iteration for interpolation nodes did not converge "
        f"(tol={NEWTON_TOL}, max_iters={NEWTON_MAX_ITERS})"
    )


def _gll_nodes(n):
    """Endpoints plus the roots of P'_{n-1}."""
    if n == 2:
        return np.array([-1.0, 1.0])
    m = n - 1
    # Chebyshev-Gauss-Lobatto interior points as initial guesses.
    guesses = -np.cos(np.pi * np.arange(1, n - 1) / m)

    def fun(x):
        _, dp, ddp = _legendre_derivatives(m, x)
        return dp, ddp

    interior = _newton(guesses, fun)
    return np.concatenate(([-1.0], interior, [1.0]))


def _gauss_radau_minus_nodes(n):
    """-1 plus the roots of (P_{n-1}(x) + P_n(x)) / (1 + x)."""
    m = n - 1
    # Mirrored Chebyshev-Radau angles land close to the Legendre-Radau roots.
    guesses = -np.cos(2.0 * np.pi * np.arange(1, n) / (2 * n - 1))

    def fun(x):
        pm1, dpm1, _ = _legendre_derivatives(m, x)
        pm, dpm, _ = _legendre_derivatives(n, x)
        return pm1 + pm, dpm1 + dpm

    interior = _newton(guesses, fun)
    return np.concatenate(([-1.0], interior))


def _check(kind, n):
    """n as an int in [2, MAX_NODES], refusing it or an unknown kind."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidSizeError(f"node count must be an integer, got {n!r}") from None
    if not 2 <= n <= MAX_NODES:
        raise InvalidSizeError(f"node count must be in [2, {MAX_NODES}], got {n}")
    if not isinstance(kind, NodeKind):
        raise InvalidSizeError(f"unknown node kind: {kind!r}")
    return n


def generate_nodes(kind, n):
    """Generate n strictly ascending interpolation nodes in [-1, 1]."""
    n = _check(kind, n)
    if kind == NodeKind.GAUSS_LOBATTO_LEGENDRE:
        nodes = _gll_nodes(n)
    elif kind == NodeKind.GAUSS_RADAU_MINUS:
        nodes = _gauss_radau_minus_nodes(n)
    elif kind == NodeKind.CHEBYSHEV_GAUSS_LOBATTO:
        nodes = -np.cos(np.pi * np.arange(n) / (n - 1))
        nodes[0], nodes[-1] = -1.0, 1.0
    else:
        nodes = np.linspace(-1.0, 1.0, n)
    if np.any(np.diff(nodes) <= 0.0):
        raise ConvergenceError(f"generated nodes are not strictly ascending for {kind}")
    return nodes


def bary_weights(nodes):
    """Barycentric weights w_j = 1 / prod_{i != j}(z_i - z_j)."""
    z = np.asarray(nodes, dtype=float)
    n = len(z)
    diffs = z[None, :] - z[:, None]  # diffs[j, i] = z_i - z_j
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(diffs[off_diag] == 0.0):
        raise DegenerateNodesError("interpolation nodes contain duplicates")
    np.fill_diagonal(diffs, 1.0)
    return 1.0 / diffs.prod(axis=1)


def diff_matrix(nodes, weights):
    """Spectral differentiation matrix for the given nodes and weights.

    D[i, j] = (w_j / w_i) / (z_i - z_j) off the diagonal; the diagonal is the
    negative row sum so constants differentiate to exactly zero.
    """
    z = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    d = (w[None, :] / w[:, None]) / dz
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def _read_only(values):
    """A float copy of values that no caller can write: a read-only view of a read-only base."""
    base = np.array(values, dtype=float)
    base.setflags(write=False)
    return base.view()


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Read-only copies of nodes, barycentric weights and derivative matrices; `==` is `is`."""

    kind: NodeKind
    nodes: np.ndarray
    weights: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @property
    def n(self):
        return len(self.nodes)

    @cached_property
    def floats(self):
        """nodes and weights as tuples of Python floats, built on first use."""
        return tuple(self.nodes.tolist()), tuple(self.weights.tolist())

    def __post_init__(self):
        for name in ("nodes", "weights", "d1", "d2"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))


def make_node_set(kind, n):
    """The shared NodeSet of the given kind and size, built on the first call for (kind, n)."""
    return _node_set(kind, _check(kind, n))


@cache
def _node_set(kind, n):
    """Build a NodeSet of the given kind and size."""
    nodes = generate_nodes(kind, n)
    weights = bary_weights(nodes)
    d1 = diff_matrix(nodes, weights)
    d2 = d1 @ d1
    # Re-derive the diagonal so rows of d2 also annihilate constants.
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    return NodeSet(kind=kind, nodes=nodes, weights=weights, d1=d1, d2=d2)
