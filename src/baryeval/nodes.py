"""1D interpolation node sets, barycentric weights and differentiation matrices.

Node families supported on [-1, 1]:

* Gauss-Lobatto-Legendre (includes both endpoints),
* Gauss-Radau-Legendre anchored at -1 (excludes +1),
* Chebyshev-Gauss-Lobatto,
* equispaced.

The free nodes of both Gauss families are roots of a Jacobi polynomial,
computed as the eigenvalues of its symmetric tridiagonal Jacobi matrix
(Golub & Welsch 1969): the n - 2 interior GLL nodes are the roots of
P_{n-2}^(1,1), made exactly antisymmetric about 0, and the n - 1 Radau nodes
after -1 are the roots of P_{n-1}^(0,1).

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

from .errors import (
    ConvergenceError, DegenerateNodesError, InvalidInputError, InvalidSizeError, as_floats)

MAX_NODES = 64


class NodeKind(enum.Enum):
    GAUSS_LOBATTO_LEGENDRE = "gll"
    GAUSS_RADAU_MINUS = "radau-"
    CHEBYSHEV_GAUSS_LOBATTO = "cgl"
    EQUISPACED = "equi"


def _jacobi_roots(m, a, b):
    """The m roots of the Jacobi polynomial P_m^(a,b), ascending.

    They are the eigenvalues of its symmetric tridiagonal Jacobi matrix, the
    three-term recurrence of the orthonormal polynomials (Golub & Welsch 1969).
    """
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    diag = (b * b - a * a) / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


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
        z = _jacobi_roots(n - 2, 1.0, 1.0)
        nodes = np.concatenate(([-1.0], 0.5 * (z - z[::-1]), [1.0]))  # exactly antisymmetric
    elif kind == NodeKind.GAUSS_RADAU_MINUS:
        nodes = np.concatenate(([-1.0], _jacobi_roots(n - 1, 0.0, 1.0)))
    elif kind == NodeKind.CHEBYSHEV_GAUSS_LOBATTO:
        nodes = -np.cos(np.pi * np.arange(n) / (n - 1))
        nodes[0], nodes[-1] = -1.0, 1.0
    else:
        nodes = np.linspace(-1.0, 1.0, n)
    if np.any(np.diff(nodes) <= 0.0):
        raise ConvergenceError(f"generated nodes are not strictly ascending for {kind}")
    return nodes


def _line(values, what):
    """values as a 1-D array of finite floats, refusing any other shape, a NaN or an inf."""
    x = as_floats(values, what)
    if x.ndim != 1:
        raise InvalidInputError(f"{what} must be 1-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{what} must be finite")
    return x


def bary_weights(nodes):
    """Barycentric weights w_j = 1 / prod_{i != j}(z_i - z_j).

    Node sets whose products leave the float range (spreads far from O(1))
    give inf or 0 weights and are unsupported; `NodeSet` refuses them.
    """
    z = _line(nodes, "nodes")
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
    z, w = _line(nodes, "nodes"), _line(weights, "weights")
    if w.shape != z.shape:
        raise InvalidInputError(f"{len(z)} nodes need {len(z)} weights, got {len(w)}")
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    if not dz.all():
        raise DegenerateNodesError("interpolation nodes contain duplicates")
    if not w.all():
        raise DegenerateNodesError("barycentric weights contain a zero")
    d = (w[None, :] / w[:, None]) / dz
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def _exclusive_products(x):
    """prod_{i != j} x[..., i] for every j along the last axis, in O(n): an
    exclusive prefix product times an exclusive suffix product, two cumulative
    products."""
    out = np.empty_like(x)
    after = np.empty_like(x)
    out[..., :1] = after[..., -1:] = 1.0
    np.multiply.accumulate(x[..., :-1], axis=-1, out=out[..., 1:])
    np.multiply.accumulate(x[..., :0:-1], axis=-1, out=after[..., -2::-1])
    out *= after
    return out


def _cardinal_denominators(z):
    """prod_{i != j} (z_j - z_i) for every node j of z.

    These are the products of `_exclusive_products` at eta = z_j, taken by the
    same operations, so the cardinal row l_j = prod_{i != j} (eta - z_i) / this
    is 1.0 exactly at eta = z_j, and 0.0 at every other node.  An entry is 0
    where z repeats a node.
    """
    return _exclusive_products(z[:, None] - z).diagonal().copy()


def _read_only(values, what):
    """A float copy of values that no caller can write: a read-only view of a read-only base."""
    base = np.array(as_floats(values, what))
    base.setflags(write=False)
    return base.view()


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Read-only copies of nodes, barycentric weights and derivative matrices; `==` is `is`.

    The arrays are checked against each other: the kernel bisects the nodes
    and divides by the weights.
    """

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

    @cached_property
    def denominators(self):
        """The cardinal denominators prod_{i != j} (z_j - z_i), read-only, built on first use."""
        return _read_only(_cardinal_denominators(self.nodes), "denominators")

    def __post_init__(self):
        """Refuse nodes that are not strictly ascending, weights that are not
        one nonzero number per node, and d1 or d2 that is not (n, n); every
        array must be finite."""
        z, w = _line(self.nodes, "nodes"), _line(self.weights, "weights")
        n = len(z)
        if np.any(np.diff(z) <= 0.0):
            raise InvalidInputError(f"nodes must be strictly ascending, got {z}")
        if w.shape != z.shape or not w.all():
            raise InvalidInputError(f"{n} nodes need {n} nonzero weights, got {w}")
        arrays = {"nodes": z, "weights": w}
        for name in ("d1", "d2"):
            m = as_floats(getattr(self, name), name)
            if m.shape != (n, n) or not np.isfinite(m).all():
                raise InvalidInputError(
                    f"{name} must be a finite ({n}, {n}) array, got shape {m.shape}")
            arrays[name] = m
        for name, values in arrays.items():
            object.__setattr__(self, name, _read_only(values, name))


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
