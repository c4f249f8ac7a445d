"""Reference shapes built from coordinate collapses of the cube.

Each non-tensorial shape is the image of [-1,1]^d under a composition of
two-dimensional collapse maps; `collapse` inverts that map (cube coordinates
eta from region coordinates xi), `expand` applies it.  The collapse pairs
(a, b) record which dimension collapses along which, and the ancestor sets
g(q) record which polynomial degrees accumulate onto dimension q under the
composition; they determine the monomial exactness set tested by
`exactness_contains`.

Reference regions:

    segment            xi_1 in [-1, 1]
    quad / hex         |xi_q| <= 1
    triangle           xi_1, xi_2 >= -1,  xi_1 + xi_2 <= 0
    prism              triangle in (xi_1, xi_2), |xi_3| <= 1
    pyramid            xi_1, xi_2 >= -1, xi_1 + xi_3 <= 0, xi_2 + xi_3 <= 0,
                       |xi_3| <= 1
    tetrahedron        xi_q >= -1,  xi_1 + xi_2 + xi_3 <= -1

`SHAPE_SPECS` is the only description of this geometry: the region as
half-spaces a.xi <= b, and the collapse pairs.  Following the pairs from a
collapsed axis a gives its chain C(a) (tetrahedron: C(1) = (2, 3),
C(2) = (3,); pyramid: C(1) = C(2) = (3,)), and every collapse formula follows
from the chains, with all other coordinates passed through unchanged:

    D_a     = (2 - |C(a)|) - sum_{b in C(a)} xi_b = 2 prod_{b in C(a)} (1 - eta_b)/2
    eta_a   = 2 (1 + xi_a) / D_a - 1          (-1 where |D_a| < SINGULAR_TOL)
    xi_a    = (1 + eta_a) prod_{b in C(a)} (1 - eta_b)/2 - 1
    J[a, a] = 2 / D_a,   J[a, b] = (1 + eta_a) / D_a for b in C(a)

`ShapeSpec` derives the rest: the chains, g(q) = {q} | {a : q in C(a)}, the
`along` dimensions b (Radau axes), the half-spaces as sparse rows and as
arrays (A, b), the vertices as the distinct images of the cube corners under
`expand` (eta_1 fastest) and their average, and the face table of the region
projection: x -> P_S x + q_S onto A_S x = b_S for every set S of <= d rows.

Collapse clamps every eta into [-1, 1]: a point admitted by a region
tolerance but outside the region would otherwise map far outside the cube
next to a collapsed vertex, where D_a is tiny, and evaluation would
extrapolate.

The formulas are written twice over the table: on Python floats for single
points, where array dispatch would cost more than the arithmetic, and on
NumPy columns for batches.  Inputs are checked once, here: a point by
`_floats`, a batch by `_rows`, a basis for a shape by `_check_basis`.  A
point or batch that does not read as real numbers (`errors.as_floats`) or
has the wrong shape raises InvalidInputError.  A non-finite point is outside
every region (`contains_point` is False, `collapse` raises OutOfRegionError);
`expand` and `jacobian` refuse it (`_finite_floats`).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, OutOfRegionError, SingularCollapseError, as_floats, as_index
from .tensor import _check_tensor_basis

# A collapse denominator smaller than this is treated as singular.
SINGULAR_TOL = 1e-12
# How far outside its reference region a query point is still accepted.
REGION_TOL = 1e-10


class Shape(enum.Enum):
    SEGMENT = "segment"
    QUAD = "quad"
    TRI = "tri"
    HEX = "hex"
    PRISM = "prism"
    PYR = "pyr"
    TET = "tet"


def _expand(chains, etas):
    """Region points of the (M, d) cube points etas: xi_a from the chain of
    every collapsed axis a, every other coordinate passed through."""
    xis = etas.copy()
    for a, chain, _ in chains:
        x = 1.0 + etas[:, a]
        for b in chain:
            x = x * (0.5 * (1.0 - etas[:, b]))
        xis[:, a] = x - 1.0
    return xis


@dataclass(frozen=True)
class ShapeSpec:
    shape: Shape
    dim: int
    duffy_pairs: tuple        # ((a, b), ...) collapse pairs, a collapses along b
    halfspaces: tuple         # ((a, b), ...): the region is a.xi <= b for each row
    # Derived (module docstring), arrays read-only: chains as ((a, C(a),
    # 2 - |C(a)|), ...), 0-based, in descending a for the chain rule; region
    # rows (((i, a_i), ...), b); faces (P_S stacked as (K d, d), q_S as (K, d));
    # vertices as tuples of floats.
    chains: tuple = field(init=False, repr=False, compare=False)
    vertices: tuple = field(init=False, repr=False, compare=False)
    ancestor_sets: tuple = field(init=False, repr=False, compare=False)
    along: frozenset = field(init=False, repr=False, compare=False)
    region: tuple = field(init=False, repr=False, compare=False)
    planes: tuple = field(init=False, repr=False, compare=False)
    faces: tuple = field(init=False, repr=False, compare=False)
    centroid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        along = dict(self.duffy_pairs)
        chains = []
        ancestor_sets = [{q} for q in range(1, self.dim + 1)]
        for a, _ in self.duffy_pairs:
            chain, b = [], a
            while b in along:
                b = along[b]
                chain.append(b - 1)
                ancestor_sets[b - 1].add(a)
            chains.append((a - 1, tuple(chain), 2.0 - len(chain)))
        corners = np.array([c[::-1] for c in itertools.product((-1.0, 1.0), repeat=self.dim)])
        vertices = tuple(dict.fromkeys(map(tuple, _expand(chains, corners).tolist())))
        region = tuple(
            (tuple((i, float(c)) for i, c in enumerate(a) if c), float(b))
            for a, b in self.halfspaces
        )
        # P_S = I - pinv(A_S) A_S and q_S = pinv(A_S) b_S per set S of at
        # most d rows, with rounding noise zeroed (a vertex's P_S is then 0).
        a, b = (np.array(x, dtype=float) for x in zip(*self.halfspaces))
        sets = [list(rows) for k in range(1, self.dim + 1)
                for rows in itertools.combinations(range(len(b)), k)]
        pinvs = [np.linalg.pinv(a[rows]) for rows in sets]
        maps = [np.eye(self.dim) - pinv @ a[rows] for pinv, rows in zip(pinvs, sets)]
        shifts = [pinv @ b[rows] for pinv, rows in zip(pinvs, sets)]
        maps, shifts = (np.where(np.abs(x) < 1e-12, 0.0, x) for x in (maps, shifts))
        mid = np.array(vertices).mean(axis=0)
        for x in (a, b, maps, shifts, mid):
            x.flags.writeable = False
        object.__setattr__(self, "chains", tuple(sorted(chains, reverse=True)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "ancestor_sets", tuple(map(frozenset, ancestor_sets)))
        object.__setattr__(self, "along", frozenset(along.values()))
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "planes", (a, b))
        object.__setattr__(self, "faces", (maps.reshape(-1, self.dim), shifts))
        object.__setattr__(self, "centroid", mid)


SHAPE_SPECS = {
    Shape.SEGMENT: ShapeSpec(Shape.SEGMENT, 1, (), (((1,), 1.0), ((-1,), 1.0))),
    Shape.QUAD: ShapeSpec(
        Shape.QUAD, 2, (),
        (((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0)),
    ),
    Shape.TRI: ShapeSpec(
        Shape.TRI, 2, ((1, 2),), (((-1, 0), 1.0), ((0, -1), 1.0), ((1, 1), 0.0)),
    ),
    Shape.HEX: ShapeSpec(
        Shape.HEX, 3, (),
        (((1, 0, 0), 1.0), ((-1, 0, 0), 1.0),
         ((0, 1, 0), 1.0), ((0, -1, 0), 1.0),
         ((0, 0, 1), 1.0), ((0, 0, -1), 1.0)),
    ),
    Shape.PRISM: ShapeSpec(
        Shape.PRISM, 3, ((1, 2),),
        (((-1, 0, 0), 1.0), ((0, -1, 0), 1.0), ((1, 1, 0), 0.0),
         ((0, 0, 1), 1.0), ((0, 0, -1), 1.0)),
    ),
    Shape.PYR: ShapeSpec(
        Shape.PYR, 3, ((1, 3), (2, 3)),
        (((-1, 0, 0), 1.0), ((0, -1, 0), 1.0),
         ((1, 0, 1), 0.0), ((0, 1, 1), 0.0),
         ((0, 0, 1), 1.0), ((0, 0, -1), 1.0)),
    ),
    Shape.TET: ShapeSpec(
        Shape.TET, 3, ((1, 2), (2, 3)),
        (((-1, 0, 0), 1.0), ((0, -1, 0), 1.0), ((0, 0, -1), 1.0),
         ((1, 1, 1), -1.0)),
    ),
}

ALL_SHAPES = tuple(SHAPE_SPECS)


def spec_for(shape):
    return SHAPE_SPECS[shape]


def shape_from_name(name):
    try:
        return Shape(name)
    except ValueError:
        raise InvalidInputError(
            f"unknown shape {name!r}; expected one of "
            + ", ".join(s.value for s in Shape)
        ) from None


def dim_of(shape):
    return SHAPE_SPECS[shape].dim


def centroid(shape):
    """Vertex average; an interior point for every reference region."""
    return SHAPE_SPECS[shape].centroid.copy()


def ancestors(shape, q):
    """The set of dimensions whose degrees accumulate onto dimension q."""
    spec = SHAPE_SPECS[shape]
    index = as_index(q)
    if index is None:
        raise InvalidInputError(f"dimension index q must be an integer, got {q!r}")
    if not 1 <= index <= spec.dim:
        raise InvalidInputError(f"dimension index {index} out of range 1..{spec.dim}")
    return spec.ancestor_sets[index - 1]


def _check_basis(shape, basis):
    """The spec of shape, refusing a basis of another dimension, or with a node
    at +1 on an `along` axis (the collapse singularity), or that is not a
    TensorBasis."""
    _check_tensor_basis(basis)
    spec = SHAPE_SPECS[shape]
    if basis.dim != spec.dim:
        raise InvalidInputError(
            f"basis dim {basis.dim} does not match {shape.value} dim {spec.dim}")
    for q in spec.along:
        if basis.axes[q - 1].nodes[-1] >= 1.0:
            raise InvalidInputError(
                f"axis {q} of a {shape.value} basis must exclude +1 (collapse singularity)")
    return spec


def _integers(values, what):
    """values, a sequence of integers (`errors.as_index`), as a list of ints;
    anything else raises InvalidInputError naming `what`."""
    try:
        out = [as_index(v) for v in values]
    except TypeError:  # not a sequence
        out = [None]
    if None in out:
        raise InvalidInputError(f"{what} must be a sequence of integers, got {values!r}")
    return out


def _degrees(values, what):
    """`_integers` for degrees and exponents, which are non-negative."""
    out = _integers(values, what)
    if min(out, default=0) < 0:
        raise InvalidInputError(f"{what} must be non-negative integers, got {values!r}")
    return out


def exactness_contains(shape, k, alpha):
    """Whether the monomial xi^alpha is evaluated exactly on a degree-k grid.

    True iff sum_{j in g(q)} alpha_j <= k_q for every dimension q.  k is one
    non-negative integer for every dimension or d of them, and alpha d
    non-negative integers.
    """
    spec = SHAPE_SPECS[shape]
    k = _degrees(k if as_index(k) is None else [k] * spec.dim, "k")
    alpha = _degrees(alpha, "alpha")
    for name, values in (("k", k), ("alpha", alpha)):
        if len(values) != spec.dim:
            raise InvalidInputError(f"{name} has dim {len(values)}, shape needs {spec.dim}")
    return all(sum(alpha[j - 1] for j in g) <= kq for g, kq in zip(spec.ancestor_sets, k))


# ---------------------------------------------------------------------------
# Single points on Python floats.
# ---------------------------------------------------------------------------


def _floats(spec, xi, what="point"):
    """xi, of shape (d,) (a scalar on a segment), as a list of d floats."""
    xi = np.atleast_1d(as_floats(xi, what))
    if xi.shape != (spec.dim,):
        raise InvalidInputError(f"{what} has shape {xi.shape}, shape needs ({spec.dim},)")
    return xi.tolist()


def _finite_floats(spec, xi, what="point"):
    """`_floats`, refusing a coordinate that is NaN or infinite."""
    x = _floats(spec, xi, what)
    if not all(map(math.isfinite, x)):
        raise InvalidInputError(f"{what} {x} is not finite")
    return x


def _inside(spec, x, tol):
    """Region test; a NaN coordinate fails every half-space it enters."""
    for row, b in spec.region:
        s = 0.0
        for i, c in row:
            s += c * x[i]
        if not s <= b + tol:
            return False
    return True


def _collapse(spec, x):
    """Cube coordinates of the region point x, without a region test."""
    eta = list(x)
    for a, chain, den in spec.chains:
        for b in chain:
            den -= x[b]
        eta[a] = -1.0 if abs(den) < SINGULAR_TOL else 2.0 * (1.0 + x[a]) / den - 1.0
    return [-1.0 if e < -1.0 else 1.0 if e > 1.0 else e for e in eta]


def _chain_rule(spec, eta, geta):
    """Region-space gradient J^T geta from the cube-space gradient geta.

    Axis a's own entry is set before the axes collapsing along it add into
    it, which the descending order of the chains guarantees.
    """
    out = list(geta)
    for a, chain, _ in spec.chains:
        den = 2.0
        for b in chain:
            den *= 0.5 * (1.0 - eta[b])
        if abs(den) < SINGULAR_TOL:
            raise SingularCollapseError(f"collapse singular at eta={np.asarray(eta)}")
        g = geta[a]
        out[a] = 2.0 / den * g
        off = (1.0 + eta[a]) / den * g
        for b in chain:
            out[b] += off
    return out


def contains_point(shape, xi, tol):
    """Whether xi lies in the reference region, inflated by tol.

    A point with a NaN or infinite coordinate is never inside.
    """
    spec = SHAPE_SPECS[shape]
    return _inside(spec, _floats(spec, xi), tol)


def collapse_floats(shape, xi):
    """`collapse` as a list of floats; refuses a point outside the region."""
    spec = SHAPE_SPECS[shape]
    x = _floats(spec, xi)
    if not _inside(spec, x, REGION_TOL):
        raise OutOfRegionError(
            f"{np.array(x)} lies outside the {shape.value} reference region"
        )
    return _collapse(spec, x)


def collapse(shape, xi):
    """Map a region point xi to cube coordinates eta (inverse of expand).

    On singular faces the collapsed coordinate degenerates to -1 and the
    remaining coordinates are kept.
    """
    return np.array(collapse_floats(shape, xi))


def jacobian(shape, eta):
    """Jacobian d(eta_i)/d(xi_j) of the collapse map, expressed in eta.

    Well defined only away from singular faces (every collapse denominator at
    least SINGULAR_TOL in magnitude).  Row i of J is J^T e_i, so the rows are
    `_chain_rule` applied to the unit rows.
    """
    spec = SHAPE_SPECS[shape]
    eta = _finite_floats(spec, eta)
    return np.array([_chain_rule(spec, eta, row) for row in np.eye(spec.dim).tolist()])


def expand(shape, eta):
    """Map cube coordinates eta to region coordinates xi (inverse of collapse)."""
    spec = SHAPE_SPECS[shape]
    return expand_batch(shape, [_finite_floats(spec, eta)])[0]


# ---------------------------------------------------------------------------
# Batches of points on NumPy columns.
# ---------------------------------------------------------------------------


def _denominators(spec, x):
    """D_a per collapsed axis; x holds NumPy columns or one point's floats."""
    out = []
    for _, chain, den in spec.chains:
        for b in chain:
            den = den - x[b]
        out.append(den)
    return out


def _rows(spec, pts):
    pts = as_floats(pts, "points")
    if pts.ndim != 2 or pts.shape[1] != spec.dim:
        raise InvalidInputError(
            f"points have shape {pts.shape}, shape needs (M, {spec.dim})"
        )
    return pts


def contains_batch(shape, xis, tol):
    """Vectorized contains_point over an (M, d) array of points."""
    spec = SHAPE_SPECS[shape]
    a, b = spec.planes
    with np.errstate(invalid="ignore"):  # inf * 0 on a point that fails anyway
        return (a @ _rows(spec, xis).T <= b[:, None] + tol).all(axis=0)


def collapse_batch(shape, xis):
    """Vectorized collapse over an (M, d) array of in-region points."""
    spec = SHAPE_SPECS[shape]
    xis = _rows(spec, xis)
    etas = xis.copy()
    for (a, _, _), den in zip(spec.chains, _denominators(spec, xis.T)):
        singular = np.abs(den) < SINGULAR_TOL
        safe = np.where(singular, 1.0, den)
        etas[:, a] = np.where(singular, -1.0, 2.0 * (1.0 + xis[:, a]) / safe - 1.0)
    return np.clip(etas, -1.0, 1.0, out=etas)


def jacobian_entries(shape, etas):
    """The nonzero entries of `jacobian` over an (M, d) array of cube points.

    Returns {(a, b): J[a, b]} with each entry an (M,) column, or None for the
    unit diagonal entry of an axis that does not collapse, and a boolean mask
    of the points where some collapse denominator is below SINGULAR_TOL; their
    entries are not finite, and callers refuse them.
    """
    spec = SHAPE_SPECS[shape]
    etas = _rows(spec, etas)
    entries = {(a, a): None for a in range(spec.dim)}
    singular = np.zeros(len(etas), dtype=bool)
    for a, chain, _ in spec.chains:
        den = 2.0
        for b in chain:
            den = den * (0.5 * (1.0 - etas[:, b]))
        singular |= np.abs(den) < SINGULAR_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            entries[a, a] = 2.0 / den
            off = (1.0 + etas[:, a]) / den
        for b in chain:
            entries[a, b] = off
    return entries, singular


def expand_batch(shape, etas):
    """Vectorized expand over an (M, d) array of cube points."""
    spec = SHAPE_SPECS[shape]
    return _expand(spec.chains, _rows(spec, etas))
