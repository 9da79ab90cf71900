"""Boundary correction functions for the flux-reconstruction operator.

c_L and c_R are RBF interpolants on an auxiliary basis of N+2 equidistant
centers including both boundary points, built here with the primal
basis's kernel, polynomial degree bound and domain.  Each solves an
(N+2) x (N+2) linear system A gamma = rhs: two rows pin the boundary
values c(x_L), c(x_R); the remaining N rows impose the integral conditions
int psi_k c' dx against the primal cardinal basis.  A is notoriously
ill-conditioned, so construction records cond(A) and every residual is
judged against a cond(A)-scaled tolerance instead of being hidden by
regularization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CorrectionBuildError
from .interpolation import NodalBasis, build_nodal_basis, equidistant_centers
from .linalg import condition_number, lu_factor, solve
from .quadrature import QuadratureRule, inner_product_matrix, union_rows


@dataclass
class CorrectionResiduals:
    """Max defects of the N+2 defining conditions, per correction function.

    ``int_c_l_prime``/``int_c_r_prime`` are the integrals of c_L' and c_R'
    on the grid the integral conditions are checked on: -1 and +1 up to
    the boundary defects.
    """

    boundary_left: float
    integral_left: float
    boundary_right: float
    integral_right: float
    int_c_l_prime: float
    int_c_r_prime: float

    @property
    def max_left(self) -> float:
        return max(self.boundary_left, self.integral_left)

    @property
    def max_right(self) -> float:
        return max(self.boundary_right, self.integral_right)


@dataclass
class CorrectionFunctions:
    """Correction interpolants c_L, c_R over the auxiliary basis.

    ``gamma_left``/``gamma_right`` are the nodal coefficients of c_L and
    c_R in the auxiliary cardinal basis.  ``cond`` is the 2-norm condition
    number of the construction matrix A.  ``residuals`` is populated by
    :func:`verify_corrections`.
    """

    aux: NodalBasis
    gamma_left: np.ndarray
    gamma_right: np.ndarray
    cond: float
    residuals: CorrectionResiduals | None = None

    def tolerance(self) -> float:
        """Residual tolerance scaled by the conditioning of A."""
        return max(1e-6, self.cond * 1e-13)

    def value_left(self, x) -> float:
        return self.aux.evaluate(self.gamma_left, x)

    def value_right(self, x) -> float:
        return self.aux.evaluate(self.gamma_right, x)

    def deriv_left(self, points) -> np.ndarray:
        return self.aux.psi_deriv_rows(points) @ self.gamma_left

    def deriv_right(self, points) -> np.ndarray:
        return self.aux.psi_deriv_rows(points) @ self.gamma_right


def build_corrections(nb: NodalBasis, rule: QuadratureRule) -> CorrectionFunctions:
    """Build the auxiliary basis and solve the correction systems for c_L and c_R.

    Raises CorrectionBuildError (carrying cond(A)) when A is singular to
    working precision.
    """
    n = nb.n
    x_l, x_r = nb.domain[0]
    aux = build_nodal_basis(equidistant_centers(n + 2, x_l, x_r), nb.kernel,
                            nb.poly.degree_bound, domain=nb.domain)

    row_l = aux.psi_rows(np.array([x_l]))[0]
    row_r = aux.psi_rows(np.array([x_r]))[0]
    gram = inner_product_matrix(nb, aux, rule, extended=False)  # (N, N+2)
    a = np.vstack([row_l, row_r, gram])

    psi_l = nb.psi_rows(np.array([x_l]))[0]
    psi_r = nb.psi_rows(np.array([x_r]))[0]
    rhs = np.zeros((n + 2, 2))
    rhs[0, 0] = 1.0
    rhs[2:, 0] = -psi_l
    rhs[1, 1] = 1.0
    rhs[2:, 1] = psi_r

    cond = condition_number(a)
    fact = lu_factor(a, cond)
    if fact.singular:
        raise CorrectionBuildError(
            f"singular correction system: kernel={nb.kernel.name}, N={n}, cond(A)={cond:.3e}",
            cond=cond,
        )
    gammas = solve(fact, rhs)
    return CorrectionFunctions(aux, gammas[:, 0], gammas[:, 1], cond)


def verify_corrections(
    cf: CorrectionFunctions, nb: NodalBasis, rule: QuadratureRule
) -> CorrectionResiduals:
    """Recompute all N+2 defining conditions of each correction function.

    One evaluation of the union-grid rows gives both the Gram matrix and
    the integrals of c_L' and c_R'.  Stores and returns the max residuals
    with those integrals; callers judge the residuals against
    ``cf.tolerance()``.
    """
    x_l, x_r = nb.domain[0]
    psi_l = nb.psi_rows(np.array([x_l]))[0]
    psi_r = nb.psi_rows(np.array([x_r]))[0]
    w, psi, dpsi = union_rows(nb, cf.aux, rule)
    gram = psi.T @ (w[:, None] * dpsi)

    b_left = max(abs(cf.value_left(x_l) - 1.0), abs(cf.value_left(x_r)))
    i_left = float(np.abs(gram @ cf.gamma_left + psi_l).max())
    b_right = max(abs(cf.value_right(x_l)), abs(cf.value_right(x_r) - 1.0))
    i_right = float(np.abs(gram @ cf.gamma_right - psi_r).max())

    cf.residuals = CorrectionResiduals(b_left, i_left, b_right, i_right,
                                       float(w @ (dpsi @ cf.gamma_left)),
                                       float(w @ (dpsi @ cf.gamma_right)))
    return cf.residuals
