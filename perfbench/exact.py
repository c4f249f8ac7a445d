"""Reference geometry and exact fields, written independently of baryeval.

Everything the benchmark checks the program against comes from this module:
the reference regions as half-spaces, the collapse-singular distances, the
monomial exactness space of each shape, seeded random polynomials in that
space with their exact values and gradients, and seeded quadratic coordinate
maps whose inverses are known by construction.
"""

from __future__ import annotations

import numpy as np

# Half-spaces a . xi <= b of each reference region.
REGIONS = {
    "segment": ([[1], [-1]], [1, 1]),
    "quad": ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1]),
    "tri": ([[-1, 0], [0, -1], [1, 1]], [1, 1, 0]),
    "hex": ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            [1, 1, 1, 1, 1, 1]),
    "prism": ([[-1, 0, 0], [0, -1, 0], [1, 1, 0], [0, 0, 1], [0, 0, -1]],
              [1, 1, 0, 1, 1]),
    "pyr": ([[-1, 0, 0], [0, -1, 0], [1, 0, 1], [0, 1, 1], [0, 0, -1]],
            [1, 1, 0, 0, 1]),
    "tet": ([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]], [1, 1, 1, -1]),
}

# Exactness space on an isotropic degree-k grid: for every row r of the
# table, sum_j r[j] * alpha[j] <= k.  A row lists the dimensions whose
# degrees a coordinate collapse accumulates onto one cube axis.
EXACTNESS_ROWS = {
    "segment": [[1]],
    "quad": [[1, 0], [0, 1]],
    "tri": [[1, 0], [1, 1]],
    "hex": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "prism": [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
    "pyr": [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
    "tet": [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
}


def dim(shape):
    return len(EXACTNESS_ROWS[shape][0])


def inside(shape, xis):
    """Row mask of the (M, d) points lying in the region."""
    a, b = REGIONS[shape]
    return np.all(np.asarray(xis) @ np.asarray(a, dtype=float).T <= b, axis=1)


def singular_distance(shape, xis):
    """Smallest collapse denominator per point; inf for tensor-product shapes."""
    xis = np.asarray(xis, dtype=float)
    if shape in ("tri", "prism"):
        return 1.0 - xis[:, 1]
    if shape == "pyr":
        return 1.0 - xis[:, 2]
    if shape == "tet":
        return np.minimum(-xis[:, 1] - xis[:, 2], 1.0 - xis[:, 2])
    return np.full(len(xis), np.inf)


def uniform_points(shape, rng, m, singular_margin=0.0):
    """m points uniform in the region, at least singular_margin from collapses."""
    d = dim(shape)
    out = np.empty((0, d))
    while len(out) < m:
        cand = rng.uniform(-1.0, 1.0, size=(8 * m, d))
        keep = inside(shape, cand) & (singular_distance(shape, cand) >= singular_margin)
        out = np.vstack([out, cand[keep]])
    return out[:m]


def exactness_space(shape, k):
    """All exponent vectors alpha of the shape's degree-k exactness space."""
    d = dim(shape)
    grid = np.stack(np.meshgrid(*[np.arange(k + 1)] * d, indexing="ij"), -1).reshape(-1, d)
    rows = np.asarray(EXACTNESS_ROWS[shape])
    return grid[np.all(grid @ rows.T <= k, axis=1)]


class Polynomial:
    """sum_t coeffs[t] * xi^alphas[t] with exact value and gradient."""

    def __init__(self, alphas, coeffs):
        self.alphas = np.asarray(alphas, dtype=int)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self._terms = [(float(c), tuple(int(a) for a in al))
                       for c, al in zip(self.coeffs, self.alphas)]

    @classmethod
    def random(cls, shape, k, rng, terms):
        """terms distinct monomials drawn from the degree-k space; the
        highest-degree monomial of the space is always one of them."""
        space = exactness_space(shape, k)
        terms = min(terms, len(space))
        top = int(np.argmax(space.sum(axis=1)))
        rest = rng.choice(np.delete(np.arange(len(space)), top), terms - 1, replace=False)
        alphas = space[np.concatenate(([top], rest))]
        return cls(alphas, rng.uniform(-1.0, 1.0, size=terms))

    def __call__(self, xi):
        """Scalar evaluation at one point; this is what gets sampled."""
        x = xi.tolist()
        total = 0.0
        for c, alpha in self._terms:
            for xq, aq in zip(x, alpha):
                c *= xq ** aq
            total += c
        return total

    def values(self, xis):
        xis = np.asarray(xis, dtype=float)
        return np.prod(xis[:, None, :] ** self.alphas[None], axis=2) @ self.coeffs

    def gradients(self, xis):
        """(M, d) exact gradients."""
        xis = np.asarray(xis, dtype=float)
        powers = xis[:, None, :] ** self.alphas[None]
        out = np.empty_like(xis)
        for q in range(xis.shape[1]):
            aq = self.alphas[:, q]
            dq = aq * xis[:, None, q] ** np.maximum(aq - 1, 0)
            others = np.prod(np.delete(powers, q, axis=2), axis=2)
            out[:, q] = (dq * others) @ self.coeffs
        return out


class QuadraticMap:
    """X_i(xi) = xi_i + sum_{j<=l} c[i, j, l] xi_j xi_l with sum |c[i]| = amplitude.

    On the reference regions |xi| <= 1, so |X - xi| <= amplitude and
    ||dX/dxi - I||_inf <= 2 * amplitude: the map is injective and its
    inverse at X(xi*) is xi*.
    """

    def __init__(self, shape, rng, amplitude=0.1):
        d = dim(shape)
        eye = np.eye(d, dtype=int)
        alphas = [eye[j] + eye[l] for j in range(d) for l in range(j, d)]
        c = rng.uniform(-1.0, 1.0, size=(d, len(alphas)))
        c *= amplitude / np.abs(c).sum(axis=1, keepdims=True)
        self.components = [Polynomial(alphas, row) for row in c]

    def coordinate(self, i):
        """Scalar X_i, for sampling on the element grid."""
        quad = self.components[i]
        return lambda xi: float(xi[i]) + quad(xi)

    def __call__(self, xis):
        xis = np.asarray(xis, dtype=float)
        return xis + np.stack([p.values(xis) for p in self.components], axis=1)
