"""RBF interpolation with polynomial augmentation, in 1D and 2D.

The augmented interpolant through centers x_1..x_N is

    u_N(x) = sum_n alpha_n phi(|x - x_n|) + sum_i beta_i p_i(x)

with the matching constraints P alpha = 0, where P holds the values of a
monomial basis of polynomials of degree < m at the centers.  Coefficients
come from the symmetric block system V = [[Phi, P^T], [P, 0]].

The cardinal functions psi_k (psi_k(x_n) = delta_kn) give the nodal
representation u_N = sum_k u_k psi_k used by every semidiscrete operator:
their coefficient columns are computed once per center set with one
LAPACK solve of V and reused for evaluation, derivative evaluation and
dense differentiation matrices.

Monomials are taken in coordinates affinely scaled to [-1, 1] per axis,
which keeps the P block of V well scaled.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCentersError, DimensionError, SingularSystemError
from .kernels import Kernel
from .linalg import condition_number, lu_factor, solve

UNISOLVENCY_RTOL = 1e-10


def as_points(x, dim: int) -> np.ndarray:
    """Normalize scalars, coordinate tuples or arrays to shape (M, dim)."""
    a = np.asarray(x)
    if a.dtype != np.longdouble:
        a = a.astype(float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        # A length-d vector is one point; otherwise M points in 1D.
        a = a.reshape(1, dim) if a.shape[0] == dim and dim > 1 else a.reshape(-1, 1)
    if a.shape[1] != dim:
        raise DimensionError(f"points have dimension {a.shape[1]}, expected {dim}")
    return a


def distance_matrix(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Euclidean distances |x_m - c_n| between (M, d) points and (N, d) centers.

    Squared differences are accumulated one axis at a time, in axis order,
    so the result equals sqrt(((x[:, None] - c[None]) ** 2).sum(axis=2)) bit
    for bit without its (M, N, d) temporaries.  Longdouble points give a
    longdouble matrix.
    """
    r = np.subtract.outer(points[:, 0], centers[:, 0])
    r *= r
    for axis in range(1, points.shape[1]):
        diff = np.subtract.outer(points[:, axis], centers[:, axis])
        diff *= diff
        r += diff
    return np.sqrt(r, out=r)


@dataclass(frozen=True)
class CenterSet:
    """Distinct interpolation centers with their minimal spacing.

    ``points`` has shape (N, d) with d in {1, 2}; 1D centers are stored
    strictly increasing.  ``h`` is the smallest pairwise Euclidean
    distance, the mesh parameter used by the CFL rule.
    """

    points: np.ndarray
    h: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise DimensionError(f"centers must have shape (N, 1) or (N, 2), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("need at least one center")
        if pts.shape[1] == 1:
            pts = pts[np.argsort(pts[:, 0])]
        object.__setattr__(self, "points", pts)
        if pts.shape[0] == 1:
            object.__setattr__(self, "h", 1.0)
            return
        dist = distance_matrix(pts, pts)
        np.fill_diagonal(dist, np.inf)
        h = float(dist.min())
        if h <= 0.0:
            raise ValueError("centers must be pairwise distinct")
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def bounding_box(self) -> np.ndarray:
        return np.stack([self.points.min(axis=0), self.points.max(axis=0)], axis=1)


def equidistant_centers(n: int, a: float = 0.0, b: float = 1.0) -> CenterSet:
    """n equidistant points on [a, b] including both boundary points."""
    if n < 2:
        raise ValueError("need at least two centers")
    return CenterSet(np.linspace(a, b, n).reshape(-1, 1))


def grid_centers(nx: int, ny: int, bounds=((0.0, 1.0), (0.0, 1.0))) -> CenterSet:
    """Tensor-product grid on a rectangle, edges included, x-major order."""
    xs = np.linspace(bounds[0][0], bounds[0][1], nx)
    ys = np.linspace(bounds[1][0], bounds[1][1], ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return CenterSet(np.column_stack([gx.ravel(), gy.ravel()]))


@dataclass(frozen=True)
class PolynomialSpace:
    """Monomials of total degree < degree_bound in scaled coordinates."""

    degree_bound: int
    exponents: np.ndarray  # (Q, d)
    shift: np.ndarray      # (d,)
    halfwidth: np.ndarray  # (d,)

    @property
    def q(self) -> int:
        return self.exponents.shape[0]

    @property
    def dim(self) -> int:
        return self.exponents.shape[1]

    def _scaled(self, points: np.ndarray) -> np.ndarray:
        return (points - self.shift) / self.halfwidth

    def rows(self, points: np.ndarray) -> np.ndarray:
        """Matrix of p_i(x_j), shape (Q, M)."""
        if self.q == 0:
            return np.zeros((0, points.shape[0]))
        t = self._scaled(points)  # (M, d)
        return np.prod(t[None, :, :] ** self.exponents[:, None, :], axis=2)

    def deriv_rows(self, points: np.ndarray, axis: int) -> np.ndarray:
        """Matrix of d p_i / d x_axis at the points, shape (Q, M)."""
        if self.q == 0:
            return np.zeros((0, points.shape[0]))
        t = self._scaled(points)
        exps = self.exponents.astype(float)
        lowered = self.exponents.copy()
        lowered[:, axis] = np.maximum(lowered[:, axis] - 1, 0)
        vals = np.prod(t[None, :, :] ** lowered[:, None, :], axis=2)
        return exps[:, axis][:, None] / self.halfwidth[axis] * vals


def polynomial_space(m: int, box) -> PolynomialSpace:
    """Monomial basis of P_{m-1} scaled to the box (d rows of (lo, hi))."""
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box.reshape(1, 2)
    d = box.shape[0]
    if m < 0:
        raise ValueError("polynomial degree bound must be nonnegative")
    if d == 1:
        exps = np.arange(m).reshape(-1, 1)
    else:
        exps = np.array([(deg - j, j) for deg in range(m) for j in range(deg + 1)], dtype=int)
        exps = exps.reshape(-1, 2)
    shift = 0.5 * (box[:, 0] + box[:, 1])
    halfwidth = 0.5 * (box[:, 1] - box[:, 0])
    halfwidth[halfwidth == 0.0] = 1.0
    space = PolynomialSpace(m, exps, shift, halfwidth)
    expected = math.comb(d + m - 1, d) if m > 0 else 0
    assert space.q == expected
    return space


def assemble_vandermonde(centers: CenterSet, kernel: Kernel, poly: PolynomialSpace) -> np.ndarray:
    """Block matrix [[Phi, P^T], [P, 0]] of shape (N+Q, N+Q).

    Raises DegenerateCentersError when the centers cannot determine the
    polynomial part (N < Q or rank-deficient P).
    """
    n, q = centers.n, poly.q
    if n < q:
        raise DegenerateCentersError(f"{n} centers cannot support {q} polynomial terms")
    pts = centers.points
    phi = kernel.phi(distance_matrix(pts, pts))
    if q == 0:
        return phi
    p = poly.rows(pts)
    s = np.linalg.svd(p, compute_uv=False)
    if s[-1] <= UNISOLVENCY_RTOL * s[0]:
        raise DegenerateCentersError(
            f"centers are not unisolvent for degree < {poly.degree_bound}"
        )
    v = np.zeros((n + q, n + q))
    v[:n, :n] = phi
    v[:n, n:] = p.T
    v[n:, :n] = p
    return v


@dataclass
class NodalBasis:
    """Cardinal basis psi_k(x_n) = delta_kn over a center set.

    ``coef`` has shape (N+Q, N); column k holds (alpha^(k), beta^(k)) of
    psi_k.  The basis is immutable after construction and shared by all
    downstream operators.
    """

    centers: CenterSet
    kernel: Kernel
    poly: PolynomialSpace
    domain: np.ndarray  # (d, 2)
    coef: np.ndarray
    coef_ext: np.ndarray | None  # 1D only: longdouble copy carrying the refined digits
    vandermonde_cond: float
    _dmat: dict = field(default_factory=dict, repr=False)
    # Quadrature views keyed by (points_per_panel, panels); see quadrature.quadrature_view.
    quadrature_views: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.centers.n

    @property
    def dim(self) -> int:
        return self.centers.dim

    def basis_rows(self, points) -> np.ndarray:
        """Raw basis [phi(|x - x_n|), p_i(x)] at the points, shape (M, N+Q).

        Longdouble input points propagate through the whole evaluation.
        """
        pts = as_points(points, self.dim)
        rows = np.empty((pts.shape[0], self.n + self.poly.q), dtype=pts.dtype)
        rows[:, : self.n] = self.kernel.phi(distance_matrix(pts, self.centers.points))
        if self.poly.q:
            rows[:, self.n:] = self.poly.rows(pts).T
        return rows

    def deriv_basis_rows(self, points, axis: int = 0) -> np.ndarray:
        """d/dx_axis of the raw basis at the points, shape (M, N+Q)."""
        pts = as_points(points, self.dim)
        centers = self.centers.points
        diff = np.subtract.outer(pts[:, axis], centers[:, axis])
        rows = np.empty((pts.shape[0], self.n + self.poly.q), dtype=pts.dtype)
        rows[:, : self.n] = self.kernel.d1_over_r(distance_matrix(pts, centers)) * diff
        if self.poly.q:
            rows[:, self.n:] = self.poly.deriv_rows(pts, axis).T
        return rows

    def _extended(self, m_rows: int) -> bool:
        # The cardinal coefficients reach ~1e9 with heavy cancellation for
        # the quintic kernel at N = 80: float64 basis values alone leave
        # evaluation noise ~1e-7, above the 1e-8 cardinality contract.
        # Extended precision is affordable at 1D sizes.  2D bases carry no
        # refined coefficients (see _refine): their conditioning is milder
        # and their volumes stay in float64.
        return self.dim == 1 and m_rows * self.n <= 1_000_000

    def _cardinal(self, points, deriv_axis: int | None) -> np.ndarray:
        pts = as_points(points, self.dim)
        if self._extended(pts.shape[0]):
            pts = pts.astype(np.longdouble)
            coef = self.coef_ext
        else:
            coef = self.coef
        rows = self.basis_rows(pts) if deriv_axis is None else self.deriv_basis_rows(pts, deriv_axis)
        return np.asarray(rows @ coef, dtype=float)

    def psi_rows(self, points) -> np.ndarray:
        """Cardinal function values psi_k(x), shape (M, N)."""
        return self._cardinal(points, None)

    def psi_deriv_rows(self, points, axis: int = 0) -> np.ndarray:
        """Cardinal function derivatives d psi_k / d x_axis, shape (M, N)."""
        return self._cardinal(points, axis)

    def evaluate(self, values, x) -> float:
        """Interpolant value sum_k u_k psi_k(x) at a single point."""
        return float((self.psi_rows(x) @ np.asarray(values, dtype=float))[0])

    def evaluate_many(self, values, points) -> np.ndarray:
        return self.psi_rows(points) @ np.asarray(values, dtype=float)

    def differentiation_matrix(self, axis: int = 0) -> np.ndarray:
        """Dense matrix D with D[n, k] = d psi_k / d x_axis (x_n), cached."""
        if axis not in self._dmat:
            self._dmat[axis] = self.psi_deriv_rows(self.centers.points, axis)
        return self._dmat[axis]


def build_nodal_basis(
    centers: CenterSet,
    kernel: Kernel,
    degree_bound: int | None = None,
    domain=None,
) -> NodalBasis:
    """Construct the cardinal basis for a center set.

    ``degree_bound`` defaults to the kernel's CPD order (the smallest value
    for which the interpolant is guaranteed well defined) and must not fall
    below it.  ``domain`` defaults to the bounding box of the centers and
    fixes both the polynomial scaling and the integration region.
    """
    m = kernel.cpd_order if degree_bound is None else degree_bound
    if m < kernel.cpd_order:
        raise ValueError(
            f"degree bound m={m} is below the kernel CPD order {kernel.cpd_order}"
        )
    box = np.asarray(domain, dtype=float) if domain is not None else centers.bounding_box()
    if box.ndim == 1:
        box = box.reshape(1, 2)
    poly = polynomial_space(m, box)
    v = assemble_vandermonde(centers, kernel, poly)
    cond = condition_number(v)
    fact = lu_factor(v, cond)
    if fact.singular:
        raise SingularSystemError(
            f"singular Vandermonde system: kernel={kernel.name}, N={centers.n}, m={m}"
        )
    rhs = np.zeros((centers.n + poly.q, centers.n))
    rhs[: centers.n, :] = np.eye(centers.n)
    coef = solve(fact, rhs)
    coef_ext = None
    if centers.dim == 1:
        coef_ext = _refine(centers, kernel, poly, fact, rhs, coef)
        coef = np.asarray(coef_ext, dtype=float)
    return NodalBasis(centers, kernel, poly, box, coef, coef_ext, cond)


def _refine(centers, kernel, poly, fact, rhs, coef) -> np.ndarray:
    """Two steps of iterative refinement against the longdouble system.

    In 1D the blocks reach condition numbers ~1e11 (quintic, N = 80) and
    cardinal coefficients ~1e9, so float64 assembly and solve alone cap the
    cardinal-property accuracy near 1e-7, above the 1e-8 contract.  Each
    step is one float64 solve of the residual system.  2D bases skip it: on
    the 20x20 grid the float64 solve alone holds the cardinal defect at the
    centers to 5.4e-11 (cubic) and 1.5e-8 (quintic), while refinement
    takes ~0.75 s per basis against ~0.04 s for the rest of the build.
    """
    n, q = centers.n, poly.q
    pts_ext = centers.points.astype(np.longdouble)
    v_ext = np.zeros((n + q, n + q), dtype=np.longdouble)
    v_ext[:n, :n] = kernel.phi(distance_matrix(pts_ext, pts_ext))
    if q:
        p_ext = poly.rows(pts_ext)
        v_ext[:n, n:] = p_ext.T
        v_ext[n:, :n] = p_ext
    coef_ext = coef.astype(np.longdouble)
    rhs_ext = rhs.astype(np.longdouble)
    for _ in range(2):
        residual = np.asarray(rhs_ext - v_ext @ coef_ext, dtype=float)
        coef_ext = coef_ext + solve(fact, residual).astype(np.longdouble)
    return coef_ext
