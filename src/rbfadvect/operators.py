"""Semidiscrete right-hand sides for linear advection, all of one form.

Every boundary treatment compared here is affine in the state, so one
operator class represents them all: du/dt = A u + sum_k g_k(t) b_k, with
a dense matrix A and a short list of forcing pairs (b_k, g_k) built once
by a per-method assembly function:

* strong injection ("usual"): the inflow rows and columns of -a D are
  zeroed, the column moves into the forcing, and the inflow nodes are
  overwritten with the data after every step;
* flux reconstruction (FR): boundary mismatches of the interpolated flux
  are spread into the domain through correction-function derivatives;
* simultaneous approximation terms (SAT): a penalty vector H^{-1} e_b,
  scaled by the boundary mismatch, drives the boundary value toward the
  data weakly.  The Dirac delta is discretized as the indicator of the
  boundary center divided by its mass entry, mirroring the discrete 2D
  form -1/2 H^{-1} E_w u.

FR and SAT operators keep a BoundaryRecord from which the pieces of their
continuous energy and conservation identities are computed, so the
diagnostics check the stability statements at quadrature accuracy rather
than at the much coarser nodal re-interpolation level.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correction import CorrectionFunctions, build_corrections, verify_corrections
from .errors import ConfigurationError, StabilityParameterError
from .interpolation import NodalBasis
from .quadrature import QuadratureRule, mass_vector

# Characteristic transform of the acoustic system: W [[0, c], [c, 0]] W^T
# = diag(c, -c), so column 0 carries the +c wave and column 1 the -c wave.
CHARACTERISTICS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def upwind(a: float, u_left: float, u_right: float) -> float:
    """Upwind numerical flux: a*u_left if a >= 0, else a*u_right."""
    return a * u_left if a >= 0 else a * u_right


class SemidiscreteOperator:
    """rhs(u, t) = A u + sum_k g_k(t) b_k, with optional pinned nodes.

    ``forcing`` holds (b_k, g_k) pairs with scalar-valued g_k.  ``pinned``
    is None or a (mask, data) pair; post_step writes data(t) into u[mask].
    ``boundary`` is the BoundaryRecord of FR and SAT operators, None for
    the others.  ``cond_correction`` is the condition number of the FR
    correction system, NaN for every other method.
    """

    def __init__(self, nb: NodalBasis, variant: str, lambda_max: float, matrix: np.ndarray,
                 forcing=(), pinned=None, boundary=None, cond_correction: float = math.nan):
        self.nb = nb
        self.variant = variant
        self.lambda_max = float(lambda_max)
        self.matrix = matrix
        self.forcing = list(forcing)
        self.pinned = pinned
        self.boundary = boundary
        self.cond_correction = cond_correction

    def rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        out = self.matrix @ u
        for b, g in self.forcing:
            out += g(t) * b
        return out

    def post_step(self, u: np.ndarray, t: float) -> np.ndarray:
        if self.pinned is not None:
            mask, data = self.pinned
            u[mask] = data(t)
        return u


@dataclass(frozen=True)
class BoundaryRecord:
    """Speed, penalties, data and boundary rows psi(x_L), psi(x_R) of a 1D operator.

    ``int_c_l_prime``/``int_c_r_prime``: exact integrals of the FR correction
    derivatives (-1 and +1 up to the cond-scaled defect), as
    ``verify_corrections`` computed them; NaN for SAT.
    """

    a: float
    g: Callable | None
    row_l: np.ndarray
    row_r: np.ndarray
    tau_l: float = -1.0
    tau_r: float = -1.0
    g_right: Callable | None = None
    int_c_l_prime: float = math.nan
    int_c_r_prime: float = math.nan


def numerical_fluxes(bnd: BoundaryRecord, u, t):
    """FR upwind fluxes (f_L, f_R) and boundary values (u_L, u_R)."""
    u_l = float(bnd.row_l @ u)
    u_r = float(bnd.row_r @ u)
    # No datum on the outflow side: the right flux sees u_R on both sides.
    return upwind(bnd.a, bnd.g(t), u_l), upwind(bnd.a, u_r, u_r), u_l, u_r


def integral_of_rhs(bnd: BoundaryRecord, u, t) -> float:
    """int L(u) dx of an FR operator with exact derivatives: the conservation identity side."""
    f_l, f_r, u_l, u_r = numerical_fluxes(bnd, u, t)
    return (
        -bnd.a * (u_r - u_l)
        - bnd.int_c_l_prime * (f_l - bnd.a * u_l)
        - bnd.int_c_r_prime * (f_r - bnd.a * u_r)
    )


def boundary_mismatches(bnd: BoundaryRecord, u, t):
    """SAT boundary values (u_L, u_R) and data (g_L, g_R); absent data reads 0."""
    g_l = bnd.g(t) if bnd.g is not None else 0.0
    g_r = bnd.g_right(t) if bnd.g_right is not None else 0.0
    return float(bnd.row_l @ u), float(bnd.row_r @ u), g_l, g_r


def _require_boundary_center(nb: NodalBasis, side: str) -> int:
    x = nb.domain[0][0 if side == "left" else 1]
    idx = 0 if side == "left" else nb.n - 1
    if not np.isclose(nb.centers.points[idx, 0], x):
        raise ConfigurationError(f"{side} boundary {x} is not a center; this method needs one")
    return idx


def _boundary_rows(nb: NodalBasis):
    x_l, x_r = nb.domain[0]
    return nb.psi_rows(np.array([x_l]))[0], nb.psi_rows(np.array([x_r]))[0]


def _penalty(nb: NodalBasis, mass: np.ndarray, side: str) -> np.ndarray:
    """H^-1 e_b at the boundary center of one side: the discrete boundary delta."""
    idx = _require_boundary_center(nb, side)
    pen = np.zeros(mass.shape[0])
    pen[idx] = 1.0 / mass[idx]
    return pen


def _check_tau(tau_l: float, tau_r: float = -1.0):
    """Penalty strengths are finite, and tau_L < -1/2 for energy stability."""
    if not (math.isfinite(tau_l) and math.isfinite(tau_r)):
        raise StabilityParameterError(f"tau_L = {tau_l} and tau_R = {tau_r} must be finite")
    if not tau_l < -0.5:
        raise StabilityParameterError(f"tau_L = {tau_l} violates tau_L < -1/2")


def _pin(matrix: np.ndarray, mask) -> np.ndarray:
    """Zero the rows and columns of pinned nodes in place; return the removed columns."""
    cols = matrix[:, mask].copy()
    cols[mask] = 0.0
    matrix[:, mask] = 0.0
    matrix[mask, :] = 0.0
    return cols


def usual_1d(nb: NodalBasis, a: float, g=None) -> SemidiscreteOperator:
    """Strong enforcement: overwrite the inflow node, pin its derivative."""
    if g is None:
        raise ConfigurationError("usual operator needs boundary data g(t)")
    i_in = _require_boundary_center(nb, "left" if a >= 0 else "right")
    matrix = -float(a) * nb.differentiation_matrix()
    forcing = [(_pin(matrix, i_in), g)]
    return SemidiscreteOperator(nb, "usual", abs(a), matrix, forcing, pinned=(i_in, g))


def fr_1d(nb: NodalBasis, a: float, g=None,
          corrections: CorrectionFunctions | None = None) -> SemidiscreteOperator:
    """FR-RBF: -a D u - c_L' (f_L - a u_L) - c_R' (f_R - a u_R) with upwind fluxes.

    Boundary data enters at the left end only, so the flow must run
    rightward (a >= 0); with a < 0 both upwind flux mismatches vanish
    identically and no data would enter at all.  For a >= 0 the outflow
    mismatch f_R - a u_R is exactly zero, so c_R' never enters A.
    """
    if corrections is None or corrections.residuals is None:
        raise ConfigurationError("FR operator requires verified correction functions")
    if g is None:
        raise ConfigurationError("FR operator needs boundary data g(t)")
    if a < 0:
        raise ConfigurationError(f"FR operator needs inflow at the left boundary, got a = {a}")
    a = float(a)
    row_l, row_r = _boundary_rows(nb)
    c_l_prime = corrections.deriv_left(nb.centers.points)
    matrix = -a * nb.differentiation_matrix() + np.outer(a * c_l_prime, row_l)
    res = corrections.residuals
    bnd = BoundaryRecord(a, g, row_l, row_r, int_c_l_prime=res.int_c_l_prime,
                         int_c_r_prime=res.int_c_r_prime)
    return SemidiscreteOperator(nb, "fr", abs(a), matrix, [(-a * c_l_prime, g)],
                                boundary=bnd, cond_correction=corrections.cond)


def sat_1d(nb: NodalBasis, a: float, g=None, rule: QuadratureRule | None = None,
           tau_l: float = -1.0, tau_r: float = -1.0, g_right=None) -> SemidiscreteOperator:
    """SAT-RBF: -a D u + tau a+- H^-1 e_b (u_N(x_b) - g)."""
    _check_tau(tau_l, tau_r)
    if a > 0 and g is None:
        raise ConfigurationError("inflow at the left boundary needs data g(t)")
    a = float(a)
    mass = mass_vector(nb, rule or QuadratureRule())
    pen_l, pen_r = _penalty(nb, mass, "left"), _penalty(nb, mass, "right")
    row_l, row_r = _boundary_rows(nb)
    matrix = -a * nb.differentiation_matrix()
    forcing = []
    for strength, pen, row, data in ((tau_l * max(a, 0.0), pen_l, row_l, g),
                                     (tau_r * min(a, 0.0), pen_r, row_r, g_right)):
        if strength:
            matrix += np.outer(strength * pen, row)
            if data is not None:
                forcing.append((-strength * pen, data))
    bnd = BoundaryRecord(a, g, row_l, row_r, float(tau_l), float(tau_r), g_right)
    return SemidiscreteOperator(nb, "sat", abs(a), matrix, forcing, boundary=bnd)


def sat_varcoeff_1d(nb: NodalBasis, a_fn, a_prime_fn, g, rule: QuadratureRule | None = None,
                    tau_l: float = -1.0, alpha: float = 0.5) -> SemidiscreteOperator:
    """SAT with the skew-symmetric split of d/dx(a(x) u):

    A = -(alpha D diag(a) + (1 - alpha) (diag(a') + diag(a) D)) + left penalty.
    """
    _check_tau(tau_l)
    d = nb.differentiation_matrix()
    x = nb.centers.points[:, 0]
    a_values = np.asarray(a_fn(x), dtype=float)
    a_prime_values = np.asarray(a_prime_fn(x), dtype=float)
    matrix = -(alpha * (d * a_values) + (1.0 - alpha) * (np.diag(a_prime_values) + a_values[:, None] * d))
    pen_l = _penalty(nb, mass_vector(nb, rule or QuadratureRule()), "left")
    strength = tau_l * max(float(a_fn(np.array(nb.domain[0][0]))), 0.0)
    forcing = []
    if strength:
        matrix += np.outer(strength * pen_l, nb.psi_rows(np.array([nb.domain[0][0]]))[0])
        forcing.append((-strength * pen_l, g))
    return SemidiscreteOperator(nb, "sat-varcoeff", np.abs(a_values).max(), matrix, forcing)


def acoustic_penalties(c: float, r0: float, r1: float):
    """Physical-space boundary operators Pi_b = W Sigma_b W^T of the wave system.

    The penalty at each end acts on the incoming characteristic only,
    with strength sigma = -(1 + R), so R in (0, 1) keeps sigma strictly
    below -1/2 with margin: the weaker range (-1, -1/2) leaves the quintic
    collocation spectrum with O(0.1)-positive real parts and long runs
    blow up.  Energy dissipation needs F + Pi0 + Pi0^T <= 0 at the left
    end and -F + Pi1 + Pi1^T <= 0 at the right end, F = [[0, c], [c, 0]].
    """
    if not (0.0 < r0 < 1.0 and 0.0 < r1 < 1.0):
        raise StabilityParameterError(f"reflection parameters R0={r0}, R1={r1} must lie in (0, 1)")
    w0, w1 = CHARACTERISTICS[:, 0], CHARACTERISTICS[:, 1]
    pi0 = -(1.0 + r0) * c * np.outer(w0, w0)
    pi1 = -(1.0 + r1) * c * np.outer(w1, w1)
    flux = np.array([[0.0, c], [c, 0.0]])
    for name, mat in (("left", flux + pi0 + pi0.T), ("right", -flux + pi1 + pi1.T)):
        if np.linalg.eigvalsh(mat).max() > 1e-12:
            raise StabilityParameterError(f"{name} boundary operator is not dissipative")
    return pi0, pi1


def sat_acoustic(nb: NodalBasis, c: float, g0, g1, rule: QuadratureRule | None = None,
                 r0: float = 0.5, r1: float = 0.5) -> SemidiscreteOperator:
    """SAT penalties on the incoming characteristics of the 2x2 wave system.

    The state is the 2N vector (u, v) for d/dt (u, v) = -c D (v, u) plus
    the penalties Pi_b (x) H^-1 e_b psi_b^T.  g0(t)[0] and g1(t)[1] are the
    incoming characteristic data at the left and right ends.
    """
    c = float(c)
    pi0, pi1 = acoustic_penalties(c, r0, r1)
    mass = mass_vector(nb, rule or QuadratureRule())
    pen0, pen1 = _penalty(nb, mass, "left"), _penalty(nb, mass, "right")
    row0, row1 = _boundary_rows(nb)
    n = nb.n
    matrix = np.kron(pi0, np.outer(pen0, row0)) + np.kron(pi1, np.outer(pen1, row1))
    d = nb.differentiation_matrix()
    matrix[:n, n:] -= c * d
    matrix[n:, :n] -= c * d
    # Pi_b w_b = sigma_b c w_b: the datum enters along the incoming characteristic.
    forcing = [(-np.kron(pi0 @ CHARACTERISTICS[:, 0], pen0), lambda t: g0(t)[0]),
               (-np.kron(pi1 @ CHARACTERISTICS[:, 1], pen1), lambda t: g1(t)[1])]
    return SemidiscreteOperator(nb, "sat-system", abs(c), matrix, forcing)


def _node_cell_weights(nb: NodalBasis) -> np.ndarray:
    """Diagonal mass entries h_n = int psi_n by the node-supported rule.

    Evaluating the integral with a quadrature whose points are the tensor
    grid nodes reduces, by cardinality psi_n(x_m) = delta_nm, to the
    node's tensor-trapezoid cell weight.  The center-aligned Gauss rule
    gives much smaller corner entries (the cardinal functions overshoot),
    and the resulting penalty is too stiff for SSPRK(3,3) at the reduced
    CFL this problem runs at.
    """
    weights = np.ones(nb.n)
    for axis in range(2):
        c, node_line = np.unique(nb.centers.points[:, axis], return_inverse=True)
        w = np.zeros_like(c)
        w[:-1] += 0.5 * np.diff(c)
        w[1:] += 0.5 * np.diff(c)
        weights *= w[node_line]
    return weights


def _advection_2d(nb: NodalBasis, a):
    """-a1 Dx - a2 Dy, the inflow-edge mask x = x_L, and the largest speed."""
    matrix = -float(a[0]) * nb.differentiation_matrix(0)
    matrix -= float(a[1]) * nb.differentiation_matrix(1)
    edge = np.isclose(nb.centers.points[:, 0], nb.domain[0][0])
    if not edge.any():
        raise ConfigurationError("no centers on the inflow edge")
    return matrix, edge, max(abs(a[0]), abs(a[1]))


def sat_2d(nb: NodalBasis, a=(1.0, 0.0)) -> SemidiscreteOperator:
    """2D SAT with zero inflow data: -a1 Dx u - a2 Dy u - 1/2 H^-1 E_w u."""
    matrix, edge, speed = _advection_2d(nb, a)
    matrix[np.diag_indices(nb.n)] += np.where(edge, -0.5 / _node_cell_weights(nb), 0.0)
    return SemidiscreteOperator(nb, "sat-2d", speed, matrix)


def usual_2d(nb: NodalBasis, a=(1.0, 0.0)) -> SemidiscreteOperator:
    """2D strong enforcement of zero data on the inflow edge."""
    matrix, edge, speed = _advection_2d(nb, a)
    _pin(matrix, edge)
    return SemidiscreteOperator(nb, "usual-2d", speed, matrix, pinned=(edge, lambda t: 0.0))


def build_fr_operator(nb: NodalBasis, a: float, g=None,
                      rule: QuadratureRule | None = None) -> SemidiscreteOperator:
    """Build, verify and wire the correction functions for an FR operator."""
    rule = rule or QuadratureRule()
    cf = build_corrections(nb, rule)
    verify_corrections(cf, nb, rule)
    return fr_1d(nb, a, g=g, corrections=cf)
