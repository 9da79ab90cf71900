"""Composite Gauss-Legendre quadrature aligned with interpolation centers.

Polyharmonic interpolants are only piecewise smooth: their higher radial
derivatives kink at the centers.  All basis integrals (inner products
<psi_k, psi_j'>, mass entries h_n = int psi_n, energies int u_N^2) place
panel boundaries at every center involved, which makes the composite rule
effectively exact (~1e-10) and lets the discrete energy and conservation
identities close numerically.  2D integrals are tensor products over the
rectangular domain.
"""

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .interpolation import NodalBasis


class NonpositiveMassWarning(UserWarning):
    """A mass-vector entry int psi_n came out nonpositive."""


def gauss_legendre_nodes(n: int):
    """Gauss-Legendre nodes (increasing) and weights on [-1, 1], 1 <= n <= 64."""
    if not 1 <= n <= 64:
        raise ValueError(f"point count {n} outside supported range 1..64")
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite rule: ``panels`` subdivisions per segment, fixed points each.

    The segments are the gaps between consecutive breakpoints (for basis
    integrals, the inter-center gaps), so ``panels`` acts as a refinement
    multiplier on the center-aligned panels.
    """

    points_per_panel: int = 10
    panels: int = 1
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panel count must be >= 1")
        nodes, weights = gauss_legendre_nodes(self.points_per_panel)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def panel_points(breakpoints, rule: QuadratureRule):
    """Quadrature points/weights with ``rule.panels`` panels per gap.

    Points are emitted panel-major, node-minor, so summation order is
    deterministic.
    """
    breaks = np.asarray(breakpoints, dtype=float)
    xs, ws = [], []
    for left, right in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(left, right, rule.panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            xs.append(0.5 * (a + b) + half * rule.nodes)
            ws.append(half * rule.weights)
    return np.concatenate(xs), np.concatenate(ws)


def _breaks_1d(nb: NodalBasis, extra=None) -> np.ndarray:
    pts = [nb.domain[0], nb.centers.points[:, 0]]
    if extra is not None:
        pts.append(np.asarray(extra, dtype=float).ravel())
    lo, hi = nb.domain[0]
    vals = np.unique(np.concatenate([np.asarray(p).ravel() for p in pts]))
    return vals[(vals >= lo) & (vals <= hi)]


def quadrature_grid_1d(nb: NodalBasis, rule: QuadratureRule, extra_breaks=None):
    """Center-aligned 1D quadrature grid covering the basis domain."""
    return panel_points(_breaks_1d(nb, extra_breaks), rule)


def quadrature_grid_2d(nb: NodalBasis, rule: QuadratureRule):
    """Tensor-product grid over the rectangular domain, axis breaks at centers."""
    (x0, x1), (y0, y1) = nb.domain
    cx = np.unique(np.concatenate([[x0, x1], nb.centers.points[:, 0]]))
    cy = np.unique(np.concatenate([[y0, y1], nb.centers.points[:, 1]]))
    qx, wx = panel_points(cx[(cx >= x0) & (cx <= x1)], rule)
    qy, wy = panel_points(cy[(cy >= y0) & (cy <= y1)], rule)
    gx, gy = np.meshgrid(qx, qy, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w = np.outer(wx, wy).ravel()
    return pts, w


def quadrature_grid(nb: NodalBasis, rule: QuadratureRule):
    """Grid for the basis domain with points always shaped (M, d)."""
    if nb.dim == 1:
        x, w = quadrature_grid_1d(nb, rule)
        return x.reshape(-1, 1), w
    return quadrature_grid_2d(nb, rule)


_CHUNK = 4096
# Cardinal rows are cached when the (points x centers) matrix has at most
# this many entries (16 MB); larger grids are evaluated in chunks per pass.
_CACHE_ENTRIES = 2_000_000


class QuadratureView:
    """The quadrature grid of one basis under one rule, with its cardinal rows.

    ``psi`` holds the cardinal values at the grid points when that matrix
    fits under the cache size, else None; then every pass re-evaluates the
    raw basis rows chunk by chunk and contracts them with ``nb.coef``.
    Obtain views through ``quadrature_view``, which caches them on the basis.
    A view refers to its basis weakly, so keep the basis alive while using it.
    """

    def __init__(self, nb: NodalBasis, rule: QuadratureRule):
        # A weak reference: the basis caches its views, and a strong one
        # would make a cycle that only the cyclic garbage collector frees.
        self.nb = weakref.proxy(nb)
        self.points, self.weights = quadrature_grid(nb, rule)
        self.psi = None
        if self.points.shape[0] * nb.n <= _CACHE_ENTRIES:
            self.psi = nb.psi_rows(self.points)

    def row_blocks(self):
        """(slice, raw basis rows) over the grid, ``_CHUNK`` points at a time.

        Callers drop each block before asking for the next, so that only one
        block is alive while the next one is built.
        """
        for start in range(0, self.points.shape[0], _CHUNK):
            sl = slice(start, start + _CHUNK)
            yield sl, self.nb.basis_rows(self.points[sl])

    def square_integrals(self, fields, target=None, exact_fn=None):
        """int u_N^2 for each row of ``fields``, in one pass over the grid.

        With ``target`` (nodal values) and ``exact_fn`` (taking the
        coordinate arrays), the same pass also returns the L2 error
        sqrt(int (u_N - exact)^2) of the target, else None.  Each row is
        contracted with its own matrix-vector product, so a row's value does
        not depend on the others in the block.
        """
        fields = np.asarray(fields, dtype=float)
        sums = np.zeros(fields.shape[0])
        err = None if target is None else 0.0
        w = self.weights
        with np.errstate(over="ignore"):
            if self.psi is not None:
                for j, u in enumerate(fields):
                    sums[j] = w @ (self.psi @ u) ** 2
                if target is not None:
                    err = w @ (self.psi @ target - exact_fn(*self.points.T)) ** 2
            else:
                coeffs = [self.nb.coef @ u for u in fields]
                if target is not None:
                    target_coeff = self.nb.coef @ target
                for sl, rows in self.row_blocks():
                    for j, coeff in enumerate(coeffs):
                        sums[j] += w[sl] @ (rows @ coeff) ** 2
                    if target is not None:
                        err += w[sl] @ (rows @ target_coeff - exact_fn(*self.points[sl].T)) ** 2
                    del rows
        return sums, None if err is None else math.sqrt(max(err, 0.0))


def quadrature_view(nb: NodalBasis, rule: QuadratureRule) -> QuadratureView:
    """The basis's view for this rule, built on first use and cached on the basis.

    Keyed by (points_per_panel, panels): the rule itself holds arrays and is
    not hashable.  A SAT operator's mass vector and the run's energy samples
    and L2 error therefore share one grid and one set of cardinal rows.
    """
    key = (rule.points_per_panel, rule.panels)
    if key not in nb.quadrature_views:
        nb.quadrature_views[key] = QuadratureView(nb, rule)
    return nb.quadrature_views[key]


def mass_vector(nb: NodalBasis, rule: QuadratureRule) -> np.ndarray:
    """h_n = int_Omega psi_n dx over the basis domain.

    Warns (without failing) when any entry is nonpositive; the SAT penalty
    scaling divides by these entries.
    """
    view = quadrature_view(nb, rule)
    if view.psi is not None:
        h = view.psi.T @ view.weights
    else:
        acc = np.zeros(nb.n + nb.poly.q)
        for sl, rows in view.row_blocks():
            acc += rows.T @ view.weights[sl]
            del rows
        h = np.asarray(nb.coef.astype(np.longdouble).T @ acc.astype(np.longdouble), dtype=float)
    bad = int((h <= 0.0).sum())
    if bad:
        warnings.warn(
            f"mass vector has {bad} nonpositive entries (min {h.min():.3e})",
            NonpositiveMassWarning,
            stacklevel=2,
        )
    return h


def union_rows(nb: NodalBasis, other: NodalBasis, rule: QuadratureRule, extended: bool = True):
    """Weights w, psi_k rows of ``nb`` and tilde-psi_j' rows of ``other`` on their union grid (1D).

    Panel boundaries include every center of both bases.

    ``extended=False`` evaluates the cardinal functions with plain float64
    contractions.  The correction-function system is assembled that way:
    the matrix is structurally rank-deficient and its reported condition
    number is set by the assembly noise floor, which the extended path
    pushes another two orders down.
    """
    pts, w = quadrature_grid_1d(nb, rule, extra_breaks=other.centers.points[:, 0])
    if extended:
        return w, nb.psi_rows(pts), other.psi_deriv_rows(pts)
    return w, nb.basis_rows(pts) @ nb.coef, other.deriv_basis_rows(pts) @ other.coef


def inner_product_matrix(
    nb: NodalBasis, other: NodalBasis, rule: QuadratureRule, extended: bool = True
) -> np.ndarray:
    """All <psi_k, tilde-psi_j'> = int psi_k(x) tilde-psi_j'(x) dx (1D), shape (N, N_other)."""
    w, psi, dpsi = union_rows(nb, other, rule, extended)
    return psi.T @ (w[:, None] * dpsi)
