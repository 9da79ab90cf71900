"""Semidiscrete right-hand-side operators for linear advection.

Three boundary treatments share the same collocation core -a D u:

* strong injection ("usual"): inflow nodal values are overwritten with the
  boundary data at every stage evaluation and their time derivative is
  pinned to zero;
* flux reconstruction (FR): boundary mismatches of the interpolated flux
  are spread into the domain through correction-function derivatives;
* simultaneous approximation terms (SAT): a penalty vector H^{-1} e_b,
  scaled by the boundary mismatch, drives the boundary value toward the
  data weakly.  The Dirac delta is discretized as the indicator of the
  boundary center divided by its mass entry, mirroring the discrete 2D
  form -1/2 H^{-1} E_w u.

Each operator also exposes the pieces of its continuous energy and
conservation identities (boundary interpolant values, numerical fluxes,
exact-derivative volume integrals) so the diagnostics can check the
stability statements at quadrature accuracy rather than at the much
coarser nodal re-interpolation level.
"""

import numpy as np

from .correction import CorrectionFunctions, build_corrections, verify_corrections
from .errors import ConfigurationError, StabilityParameterError
from .interpolation import NodalBasis
from .quadrature import QuadratureRule, mass_vector, quadrature_grid_1d


def upwind(a: float, u_left: float, u_right: float) -> float:
    """Upwind numerical flux: a*u_left if a >= 0, else a*u_right."""
    return a * u_left if a >= 0 else a * u_right


class SemidiscreteOperator:
    """Base interface: L(u, t) plus an optional post-step state fixup."""

    variant = "abstract"

    def rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def post_step(self, u: np.ndarray, t: float) -> np.ndarray:
        return u


def _require_boundary_center(nb: NodalBasis, x: float, side: str) -> int:
    pts = nb.centers.points[:, 0]
    idx = 0 if side == "left" else nb.n - 1
    if not np.isclose(pts[idx], x):
        raise ConfigurationError(f"{side} boundary {x} is not a center; this method needs one")
    return idx


class UsualAdvection1D(SemidiscreteOperator):
    """Strong enforcement: overwrite the inflow node, pin its derivative."""

    variant = "usual"

    def __init__(self, nb: NodalBasis, a: float, g=None):
        if g is None:
            raise ConfigurationError("usual operator needs boundary data g(t)")
        self.nb = nb
        self.a = float(a)
        self.g = g
        self.d_matrix = nb.differentiation_matrix()
        x_l, x_r = nb.domain[0]
        self.i_in = _require_boundary_center(nb, x_l if a >= 0 else x_r, "left" if a >= 0 else "right")
        self.lambda_max = abs(self.a)

    def rhs(self, u, t):
        w = np.array(u, dtype=float)
        w[self.i_in] = self.g(t)
        out = -self.a * (self.d_matrix @ w)
        out[self.i_in] = 0.0
        return out

    def post_step(self, u, t):
        u[self.i_in] = self.g(t)
        return u


class FluxReconstruction1D(SemidiscreteOperator):
    """FR-RBF: corrected flux derivative with upwind boundary fluxes.

    Boundary data enters at the left end only, so the flow must run
    rightward (a >= 0); with a < 0 both upwind flux mismatches vanish
    identically and no data would enter at all.
    """

    variant = "fr"

    def __init__(
        self,
        nb: NodalBasis,
        a: float,
        g=None,
        corrections: CorrectionFunctions | None = None,
        rule: QuadratureRule | None = None,
    ):
        if corrections is None or corrections.residuals is None:
            raise ConfigurationError("FR operator requires verified correction functions")
        if g is None:
            raise ConfigurationError("FR operator needs boundary data g(t)")
        if a < 0:
            raise ConfigurationError(f"FR operator needs inflow at the left boundary, got a = {a}")
        self.nb = nb
        self.a = float(a)
        self.g = g
        self.corrections = corrections
        self.cond_correction = corrections.cond
        self.d_matrix = nb.differentiation_matrix()
        x_l, x_r = nb.domain[0]
        self.row_l = nb.psi_rows(np.array([x_l]))[0]
        self.row_r = nb.psi_rows(np.array([x_r]))[0]
        self.c_l_prime = corrections.deriv_left(nb.centers.points)
        self.c_r_prime = corrections.deriv_right(nb.centers.points)
        # Exact-function integrals of c_L' and c_R' for the conservation
        # identity; equal -1 and +1 up to the cond(A)-scaled defect.
        rule = rule or QuadratureRule()
        xq, wq = quadrature_grid_1d(nb, rule, extra_breaks=corrections.aux.centers.points[:, 0])
        pq = xq.reshape(-1, 1)
        self.int_c_l_prime = float(wq @ corrections.deriv_left(pq))
        self.int_c_r_prime = float(wq @ corrections.deriv_right(pq))
        self.lambda_max = abs(self.a)

    def numerical_fluxes(self, u, t):
        u_l = float(self.row_l @ u)
        u_r = float(self.row_r @ u)
        g_l = self.g(t)
        g_r = u_r  # no datum on the outflow side
        return upwind(self.a, g_l, u_l), upwind(self.a, u_r, g_r), u_l, u_r

    def rhs(self, u, t):
        f_l, f_r, u_l, u_r = self.numerical_fluxes(u, t)
        out = -self.a * (self.d_matrix @ u)
        out -= self.c_l_prime * (f_l - self.a * u_l)
        out -= self.c_r_prime * (f_r - self.a * u_r)
        return out

    def integral_of_rhs(self, u, t) -> float:
        """int L(u) dx with exact derivatives: the conservation identity side."""
        f_l, f_r, u_l, u_r = self.numerical_fluxes(u, t)
        return (
            -self.a * (u_r - u_l)
            - self.int_c_l_prime * (f_l - self.a * u_l)
            - self.int_c_r_prime * (f_r - self.a * u_r)
        )


class SatAdvection1D(SemidiscreteOperator):
    """SAT-RBF: weak boundary penalty tau a+- H^-1 e_b (u_N(x_b) - g)."""

    variant = "sat"

    def __init__(
        self,
        nb: NodalBasis,
        a: float,
        g=None,
        rule: QuadratureRule | None = None,
        tau_l: float = -1.0,
        tau_r: float = -1.0,
        g_right=None,
    ):
        if not tau_l < -0.5:
            raise StabilityParameterError(f"tau_L = {tau_l} violates tau_L < -1/2")
        if a > 0 and g is None:
            raise ConfigurationError("inflow at the left boundary needs data g(t)")
        self.nb = nb
        self.a = float(a)
        self.g = g
        self.g_right = g_right
        self.tau_l = float(tau_l)
        self.tau_r = float(tau_r)
        self.d_matrix = nb.differentiation_matrix()
        rule = rule or QuadratureRule()
        self.mass = mass_vector(nb, rule)
        x_l, x_r = nb.domain[0]
        i_l = _require_boundary_center(nb, x_l, "left")
        i_r = _require_boundary_center(nb, x_r, "right")
        self.pen_l = np.zeros(nb.n)
        self.pen_l[i_l] = 1.0 / self.mass[i_l]
        self.pen_r = np.zeros(nb.n)
        self.pen_r[i_r] = 1.0 / self.mass[i_r]
        self.row_l = nb.psi_rows(np.array([x_l]))[0]
        self.row_r = nb.psi_rows(np.array([x_r]))[0]
        self.lambda_max = abs(self.a)

    def boundary_mismatches(self, u, t):
        u_l = float(self.row_l @ u)
        u_r = float(self.row_r @ u)
        g_l = self.g(t) if self.g is not None else 0.0
        g_r = self.g_right(t) if self.g_right is not None else 0.0
        return u_l, u_r, g_l, g_r

    def rhs(self, u, t):
        u_l, u_r, g_l, g_r = self.boundary_mismatches(u, t)
        out = -self.a * (self.d_matrix @ u)
        a_plus = max(self.a, 0.0)
        a_minus = min(self.a, 0.0)
        if a_plus:
            out += self.tau_l * a_plus * (u_l - g_l) * self.pen_l
        if a_minus:
            out += self.tau_r * a_minus * (u_r - g_r) * self.pen_r
        return out


class SatVariableCoeff1D(SemidiscreteOperator):
    """SAT with the skew-symmetric split of d/dx(a(x) u)."""

    variant = "sat-varcoeff"

    def __init__(
        self,
        nb: NodalBasis,
        a_fn,
        a_prime_fn,
        g,
        rule: QuadratureRule | None = None,
        tau_l: float = -1.0,
        alpha: float = 0.5,
    ):
        if not tau_l < -0.5:
            raise StabilityParameterError(f"tau_L = {tau_l} violates tau_L < -1/2")
        self.nb = nb
        self.g = g
        self.alpha = float(alpha)
        self.tau_l = float(tau_l)
        self.d_matrix = nb.differentiation_matrix()
        x = nb.centers.points[:, 0]
        self.a_values = np.asarray(a_fn(x), dtype=float)
        self.a_prime_values = np.asarray(a_prime_fn(x), dtype=float)
        rule = rule or QuadratureRule()
        self.mass = mass_vector(nb, rule)
        x_l, _ = nb.domain[0]
        i_l = _require_boundary_center(nb, x_l, "left")
        self.pen_l = np.zeros(nb.n)
        self.pen_l[i_l] = 1.0 / self.mass[i_l]
        self.row_l = nb.psi_rows(np.array([x_l]))[0]
        self.a_left = float(a_fn(np.array(x_l)))
        self.lambda_max = float(np.abs(self.a_values).max())

    def rhs(self, u, t):
        d = self.d_matrix
        flux_form = d @ (self.a_values * u)
        product_form = self.a_prime_values * u + self.a_values * (d @ u)
        out = -(self.alpha * flux_form + (1.0 - self.alpha) * product_form)
        a_plus = max(self.a_left, 0.0)
        if a_plus:
            out += self.tau_l * a_plus * (float(self.row_l @ u) - self.g(t)) * self.pen_l
        return out


class SatAcousticSystem(SemidiscreteOperator):
    """SAT penalties on the incoming characteristics of the 2x2 wave system.

    State layout is the 2N vector (u, v) for d/dt (u, v) = -c D (v, u) +
    penalties.  The characteristic transform W = (1/sqrt 2) [[1, 1], [1, -1]]
    diagonalizes the system matrix A = [[0, c], [c, 0]]; the penalty at each
    end acts on the incoming characteristic only, with strength
    sigma = -(1 + R), so R in (0, 1) keeps sigma strictly below -1/2 with
    margin: the weaker range (-1, -1/2) leaves the quintic collocation
    spectrum with O(0.1)-positive real parts and long runs blow up.
    """

    variant = "sat-system"

    def __init__(
        self,
        nb: NodalBasis,
        c: float,
        g0,
        g1,
        rule: QuadratureRule | None = None,
        r0: float = 0.5,
        r1: float = 0.5,
    ):
        if not (0.0 < r0 < 1.0 and 0.0 < r1 < 1.0):
            raise StabilityParameterError(f"reflection parameters R0={r0}, R1={r1} must lie in (0, 1)")
        self.nb = nb
        self.c = float(c)
        self.g0 = g0
        self.g1 = g1
        self.sigma0 = -(1.0 + r0)
        self.sigma1 = -(1.0 + r1)
        self.w_transform = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        self.system_matrix = np.array([[0.0, self.c], [self.c, 0.0]])
        # Physical-space boundary operators Pi_b = W Sigma_b W^T.
        self.pi0 = self.sigma0 * self.c * np.outer(self.w_transform[:, 0], self.w_transform[:, 0])
        self.pi1 = self.sigma1 * self.c * np.outer(self.w_transform[:, 1], self.w_transform[:, 1])
        self._check_definiteness()
        self.d_matrix = nb.differentiation_matrix()
        rule = rule or QuadratureRule()
        self.mass = mass_vector(nb, rule)
        x_l, x_r = nb.domain[0]
        i0 = _require_boundary_center(nb, x_l, "left")
        i1 = _require_boundary_center(nb, x_r, "right")
        self.pen0 = np.zeros(nb.n)
        self.pen0[i0] = 1.0 / self.mass[i0]
        self.pen1 = np.zeros(nb.n)
        self.pen1[i1] = 1.0 / self.mass[i1]
        self.row0 = nb.psi_rows(np.array([x_l]))[0]
        self.row1 = nb.psi_rows(np.array([x_r]))[0]
        self.lambda_max = abs(self.c)

    def _check_definiteness(self):
        # Energy dissipation needs A + Pi0 + Pi0^T <= 0 at the left end and
        # -A + Pi1 + Pi1^T <= 0 at the right end.
        left = self.system_matrix + self.pi0 + self.pi0.T
        right = -self.system_matrix + self.pi1 + self.pi1.T
        for name, mat in (("left", left), ("right", right)):
            if np.linalg.eigvalsh(mat).max() > 1e-12:
                raise StabilityParameterError(f"{name} boundary operator is not dissipative")

    def rhs(self, state, t):
        n = self.nb.n
        u, v = state[:n], state[n:]
        du = -self.c * (self.d_matrix @ v)
        dv = -self.c * (self.d_matrix @ u)
        w = self.w_transform
        # Left end: penalize the incoming (+c) characteristic w1.
        bnd0 = np.array([self.row0 @ u, self.row0 @ v])
        char0 = w @ bnd0 - np.asarray(self.g0(t), dtype=float)
        p0 = w @ np.array([self.sigma0 * self.c * char0[0], 0.0])
        du += p0[0] * self.pen0
        dv += p0[1] * self.pen0
        # Right end: penalize the incoming (-c) characteristic w2.
        bnd1 = np.array([self.row1 @ u, self.row1 @ v])
        char1 = w @ bnd1 - np.asarray(self.g1(t), dtype=float)
        p1 = w @ np.array([0.0, self.sigma1 * self.c * char1[1]])
        du += p1[0] * self.pen1
        dv += p1[1] * self.pen1
        return np.concatenate([du, dv])


def _node_cell_weights(nb: NodalBasis) -> np.ndarray:
    """Diagonal mass entries h_n = int psi_n by the node-supported rule.

    Evaluating the integral with a quadrature whose points are the tensor
    grid nodes reduces, by cardinality psi_n(x_m) = delta_nm, to the
    node's tensor-trapezoid cell weight.  The center-aligned Gauss rule
    gives much smaller corner entries (the cardinal functions overshoot),
    and the resulting penalty is too stiff for SSPRK(3,3) at the reduced
    CFL this problem runs at.
    """

    def line_weights(coords: np.ndarray) -> dict:
        c = np.unique(coords)
        w = np.zeros_like(c)
        w[:-1] += 0.5 * np.diff(c)
        w[1:] += 0.5 * np.diff(c)
        return dict(zip(c.tolist(), w.tolist()))

    pts = nb.centers.points
    wx = line_weights(pts[:, 0])
    wy = line_weights(pts[:, 1])
    return np.array([wx[x] * wy[y] for x, y in pts])


class SatAdvection2D(SemidiscreteOperator):
    """2D SAT with zero inflow data: -a1 Dx u - a2 Dy u - 1/2 H^-1 E_w u."""

    variant = "sat-2d"

    def __init__(self, nb: NodalBasis, a=(1.0, 0.0), rule: QuadratureRule | None = None):
        self.nb = nb
        self.a = (float(a[0]), float(a[1]))
        self.dx_matrix = nb.differentiation_matrix(0)
        self.dy_matrix = nb.differentiation_matrix(1)
        self.mass = _node_cell_weights(nb)
        x_l = nb.domain[0][0]
        self.edge_mask = np.isclose(nb.centers.points[:, 0], x_l)
        if not self.edge_mask.any():
            raise ConfigurationError("no centers on the inflow edge")
        self.sat_scale = np.where(self.edge_mask, -0.5 / self.mass, 0.0)
        # Admissibility: the chosen Pi = a/2 gives 2 Pi.n = a.n on the edge.
        self.pi = (0.5 * self.a[0], 0.5 * self.a[1])
        self.lambda_max = max(abs(self.a[0]), abs(self.a[1]))

    def rhs(self, u, t):
        out = -self.a[0] * (self.dx_matrix @ u) - self.a[1] * (self.dy_matrix @ u)
        out += self.sat_scale * u
        return out


class UsualAdvection2D(SemidiscreteOperator):
    """2D strong enforcement on the inflow edge."""

    variant = "usual-2d"

    def __init__(self, nb: NodalBasis, a=(1.0, 0.0), g=None):
        self.nb = nb
        self.a = (float(a[0]), float(a[1]))
        self.g = g if g is not None else (lambda t, pts: np.zeros(pts.shape[0]))
        self.dx_matrix = nb.differentiation_matrix(0)
        self.dy_matrix = nb.differentiation_matrix(1)
        x_l = nb.domain[0][0]
        self.edge_mask = np.isclose(nb.centers.points[:, 0], x_l)
        if not self.edge_mask.any():
            raise ConfigurationError("no centers on the inflow edge for strong enforcement")
        self.edge_points = nb.centers.points[self.edge_mask]
        self.lambda_max = max(abs(self.a[0]), abs(self.a[1]))

    def rhs(self, u, t):
        w = np.array(u, dtype=float)
        w[self.edge_mask] = self.g(t, self.edge_points)
        out = -self.a[0] * (self.dx_matrix @ w) - self.a[1] * (self.dy_matrix @ w)
        out[self.edge_mask] = 0.0
        return out

    def post_step(self, u, t):
        u[self.edge_mask] = self.g(t, self.edge_points)
        return u


def build_fr_operator(
    nb: NodalBasis,
    a: float,
    g=None,
    rule: QuadratureRule | None = None,
    aux: NodalBasis | None = None,
    tsvd_rtol: float | None = None,
) -> FluxReconstruction1D:
    """Build, verify and wire the correction functions for an FR operator."""
    from .interpolation import build_nodal_basis, equidistant_centers

    rule = rule or QuadratureRule()
    if aux is None:
        x_l, x_r = nb.domain[0]
        aux_centers = equidistant_centers(nb.n + 2, x_l, x_r)
        aux = build_nodal_basis(aux_centers, nb.kernel, nb.poly.degree_bound, domain=nb.domain)
    cf = build_corrections(nb, aux, rule, tsvd_rtol=tsvd_rtol)
    verify_corrections(cf, nb, rule)
    return FluxReconstruction1D(nb, a, g=g, corrections=cf, rule=rule)
