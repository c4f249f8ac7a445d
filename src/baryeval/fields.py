"""Analytic test fields: closed-form polynomials with exact derivatives,
random monomials from the exactness set of a shape, and a Horner evaluator
used as an independent univariate oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InvalidInputError, as_floats
from .shapes import (SINGULAR_TOL, _degrees, _denominators, contains_point, dim_of,
                     exactness_contains, spec_for)


@dataclass(frozen=True)
class AnalyticField:
    """A field with closed-form value, gradient and (1D) second derivative."""

    description: str
    eval: callable
    grad: callable
    hess_1d: callable = None


def benchmark_field(dim):
    """The quadratic benchmark field xi_1^2 + xi_2^2 - xi_3^2, truncated to dim."""
    if dim not in (1, 2, 3):
        raise InvalidInputError(f"dim must be 1, 2 or 3, got {dim}")
    signs = np.array([1.0, 1.0, -1.0][:dim])

    def value(xi):
        xi = as_floats(xi, "point")
        return float((signs * xi * xi).sum())

    def grad(xi):
        xi = as_floats(xi, "point")
        return 2.0 * signs * xi

    names = ["x1^2", "x1^2 + x2^2", "x1^2 + x2^2 - x3^2"]
    return AnalyticField(names[dim - 1], value, grad, hess_1d=lambda xi: 2.0)


def monomial_field(alpha):
    """xi^alpha with its analytic gradient; alpha is a sequence of non-negative integers."""
    alpha = np.array(_degrees(alpha, "alpha"), dtype=int)

    def value(xi):
        xi = as_floats(xi, "point")
        return float(np.prod(xi**alpha))

    def grad(xi):
        xi = as_floats(xi, "point")
        out = np.zeros(len(alpha))
        for q in range(len(alpha)):
            if alpha[q] == 0:
                continue
            rest = np.prod(np.delete(xi, q) ** np.delete(alpha, q))
            out[q] = alpha[q] * xi[q] ** (alpha[q] - 1) * rest
        return out

    desc = " ".join(f"x{q + 1}^{a}" for q, a in enumerate(alpha) if a) or "1"
    return AnalyticField(desc, value, grad)


def exact_multi_indices(shape, k):
    """All monomial exponents evaluated exactly on an isotropic degree-k grid,
    k a non-negative integer."""
    d = dim_of(shape)
    (degree,) = _degrees([k], "k")
    return [
        alpha
        for alpha in product(range(degree + 1), repeat=d)
        if exactness_contains(shape, degree, alpha)
    ]


def random_exact_monomial(shape, k, rng):
    """Uniformly sampled monomial from the exactness set, with its exponents."""
    candidates = exact_multi_indices(shape, k)
    alpha = candidates[rng.integers(len(candidates))]
    return alpha, monomial_field(alpha)


def horner_eval(coeffs, eta):
    """Nested evaluation of sum_j coeffs[j] * eta^j."""
    acc = 0.0
    for c in reversed(list(coeffs)):
        acc = acc * eta + c
    return acc


def horner_derivative_coeffs(coeffs):
    """Coefficients of the derivative polynomial."""
    return [j * c for j, c in enumerate(coeffs)][1:] or [0.0]


def singular_distance(shape, xi):
    """Smallest collapse denominator |D_a| at xi (inf for tensorial shapes)."""
    dens = _denominators(spec_for(shape), as_floats(xi, "point"))
    return min((abs(den) for den in dens), default=np.inf)


def random_interior_point(shape, rng, margin=0.0, singular_margin=0.0):
    """Rejection-sample a point inside the reference region.

    margin shrinks the region; singular_margin keeps the point away from
    collapse singularities (for gradient evaluation).
    """
    d = dim_of(shape)
    for _ in range(10000):
        xi = rng.uniform(-1.0, 1.0, size=d)
        if not contains_point(shape, xi, -margin):
            continue
        if singular_distance(shape, xi) < max(singular_margin, SINGULAR_TOL):
            continue
        return xi
    raise RuntimeError(f"could not sample an interior point of {shape}")
