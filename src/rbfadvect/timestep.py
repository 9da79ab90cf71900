"""SSPRK(3,3) time integration with CFL step selection and recording hooks.

The three-stage scheme is the optimal third-order strong-stability
preserving Runge-Kutta method written as convex combinations of Euler
steps.  All three stage evaluations receive the step's base time t, so
boundary data is refreshed per stage but not shifted to the stage
abscissae (0, 1, 1/2).  Runs driven by boundary data are therefore only
first order in time, and the lag does not vanish under the spatial error:
on inflow_bump (cubic, N = 40, CFL 0.1) the SAT and usual final states
differ from a time-converged reference by up to 2e-2 at a node, and by
2.5e-3 in the mean, against a spatial l1 error of 1.1e-2; with shifted
stage times the difference is 2.1e-4 at most, and it falls third order.
The last step is truncated so the trajectory lands exactly on the
requested end time, which keeps errors comparable across runs.  Any
non-finite entry after a stage raises a structured BlowUpError instead of
propagating NaNs.

Block-fused stepping.  For an affine operator du/dt = A u + sum_b g_b(t) b
the stages above make one step of length dt the affine map

    u <- S u + sum_b g_b(t) F b,   Z = dt A,
    S = I + Z + Z^2/2 + Z^3/6 = I + Z (I + Z/2 (I + Z/3)),
    F = dt (I + Z/2 + Z^2/6),

(Gottlieb, Shu and Tadmor, SIAM Review 2001), so k = record_stride full
steps from t_n are one product

    u <- S^k u + sum_b G_b [g_b(t_n), ..., g_b(t_{n+k-1})],
    G_b = [S^{k-1} F b, ..., S F b, F b].

``integrate`` builds S, S^k and the G_b once per run and advances whole
stride blocks that way; hooks fall on block ends, and the step times are
accumulated by the same t + dt sequence as the stagewise loop, so step
counts, hook times and the landing time are identical.

S^k is formed by repeated squaring, as np.linalg.matrix_power does, but
every squaring and multiply is an accurate product (_accurate_dot).  The
FR operators are non-normal and grow, and plain float64 squarings put S^k
of FR quintic N = 80 2.7e-15 (relative) away from S^k in longdouble, 40
times its rounding error.  On inflow_bump (t = 0.5, two BLAS threads) the
fused final state then lies 5.9e-11 from a longdouble trajectory and its
energies 1.3e-10 from the stagewise ones; with accurate products it lies
2.0e-11 away and the energies 5.1e-11, against 6.0e-12 for the stagewise
state.

Costs are counted in n-vector matrix-vector products, n the state
dimension: the build takes p n + k (number of forcing pairs), where p is
the number of n x n products (2 for S, 3 for each accurate product of the
squaring), against 3 per step for stagewise stepping.  A run fuses only
when the build is cheaper than stagewise stepping through its full
blocks, and when its forcing blocks stay small (_MAX_FORCING_ENTRIES).
Pinned nodes (strong injection) fold in when A's pinned columns are zero,
which makes them invisible to the rest of the state: post_step then runs
at block ends only.

``ssprk33_step`` with ``op.rhs`` stays the reference path.  It takes every
step of a run that does not fuse, the block holding the truncated last
step and everything after it, and the replay of a block whose fused
result is non-finite or near overflow (_FUSED_CEILING): that check runs
once per block, and the replay from the block's start state either
finishes the block or raises the BlowUpError with the exact time, step and
stage of the stagewise run.
"""

import math
from dataclasses import dataclass

import numpy as np

# A fused block whose result exceeds this magnitude (or is non-finite) is
# replayed stagewise: a stage inside the block may already have overflowed,
# and only the stagewise path knows the step and stage where it did.
_FUSED_CEILING = 1e300
# Largest forcing block (entries of all G_b together) a fused run builds:
# 8 MB.  A larger record stride steps stagewise rather than hold n x k
# columns per forcing pair.
_MAX_FORCING_ENTRIES = 1 << 20


class BlowUpError(RuntimeError):
    """The state left the finite range during time integration.

    ``integrate`` attaches the step index and the counters of the steps
    completed before it (see IntegrationTrace).
    """

    def __init__(self, t: float, stage: int, step: int | None = None):
        self.t = t
        self.stage = stage
        self.step = step
        self.fused_steps = 0
        self.rhs_evals = 0
        super().__init__(f"non-finite state at t={t:.6g}, stage {stage}" +
                         (f", step {step}" if step is not None else ""))


@dataclass(frozen=True)
class TimeIntegration:
    """CFL constant, end time and recording stride for one trajectory."""

    t_end: float
    cfl: float = 0.1
    record_stride: int = 10

    def __post_init__(self):
        if not math.isfinite(self.t_end) or self.t_end < 0:
            raise ValueError(f"end time must be finite and nonnegative, got {self.t_end}")
        if not math.isfinite(self.cfl) or self.cfl <= 0:
            raise ValueError(f"CFL constant must be finite and positive, got {self.cfl}")
        if self.record_stride < 1:
            raise ValueError("record stride must be >= 1")


@dataclass
class IntegrationTrace:
    """What the integrator did: step count, nominal dt, landing time.

    ``rhs_evals`` counts the right-hand-side evaluations of completed
    stagewise steps and ``fused_steps`` the steps advanced in blocks, so
    that steps == fused_steps + rhs_evals / 3.
    """

    steps: int
    dt: float
    t_final: float
    rhs_evals: int = 0
    fused_steps: int = 0


def compute_dt(cfl: float, h: float, lambda_max: float) -> float:
    """Time step C*h/lambda_max from spacing and the largest wave speed."""
    if cfl <= 0 or h <= 0 or lambda_max <= 0:
        raise ValueError("CFL constant, spacing and wave speed must all be positive")
    return cfl * h / lambda_max


def _check_finite(u: np.ndarray, t: float, stage: int):
    if not np.all(np.isfinite(u)):
        raise BlowUpError(t, stage)


def ssprk33_step(rhs, u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One SSPRK(3,3) step of du/dt = rhs(u, t).

    Every stage evaluates the right-hand side at the step's base time t,
    which makes the step first order in time for time-dependent boundary
    data (see the module docstring).
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = u + dt * rhs(u, t)
        _check_finite(u1, t, 1)
        u2 = 0.75 * u + 0.25 * u1 + 0.25 * dt * rhs(u1, t)
        _check_finite(u2, t, 2)
        u_new = u / 3.0 + (2.0 / 3.0) * u2 + (2.0 / 3.0) * dt * rhs(u2, t)
        _check_finite(u_new, t, 3)
    return u_new


def _split(a: np.ndarray, axis: int):
    """a = hi + lo, hi rounded per row (axis=1) or column (axis=0) to a grid
    coarse enough that a product of two such parts of n x n matrices is
    exact in float64 (Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 2012)."""
    tau = math.ceil((53 + math.log2(a.shape[0])) / 2)
    sigma = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=axis, keepdims=True))[1] + tau)
    hi = (a + sigma) - sigma
    return hi, a - hi


def _accurate_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b to about one rounding, from three BLAS products: a_hi @ b_hi is
    exact, and the low parts are 2^(tau - 52) of the row or column maxima
    (2^-22 at n = 80), so the rounding of the two other products is that
    much smaller."""
    a_hi, a_lo = _split(a, 1)
    b_hi, b_lo = _split(b, 0)
    return a_hi @ b_hi + (a_hi @ b_lo + a_lo @ b)


def _accurate_power(s: np.ndarray, k: int) -> np.ndarray:
    """s^k by the squarings and multiplies of np.linalg.matrix_power, each accurate."""
    result, square = None, s
    while True:
        k, bit = divmod(k, 2)
        if bit:
            result = square if result is None else _accurate_dot(result, square)
        if not k:
            return result
        square = _accurate_dot(square, square)


class _Blocks:
    """S^k and the forcing blocks G_b of one operator, step dt and block length k."""

    def __init__(self, op, dt: float, k: int):
        z = dt * op.matrix
        eye = np.eye(z.shape[0])
        columns = []
        with np.errstate(over="ignore", invalid="ignore"):
            step = eye + z @ (eye + 0.5 * z @ (eye + z / 3.0))
            self.power = _accurate_power(step, k)
            for b, _ in op.forcing:
                block = [dt * (b + z @ (0.5 * b + z @ b / 6.0))]  # F b
                for _ in range(k - 1):
                    block.append(step @ block[-1])
                columns.extend(reversed(block))
        self.forcing = np.column_stack(columns) if columns else None
        self.data = [g for _, g in op.forcing]

    def advance(self, u: np.ndarray, times) -> np.ndarray:
        """The state k steps after u, the steps starting at ``times``."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.power @ u
            if self.data:
                out += self.forcing @ np.array([g(s) for g in self.data for s in times])
        return out


def _plan_blocks(op, dt: float, ti: TimeIntegration) -> _Blocks | None:
    """The block stepper when fusing pays for itself (module docstring), else None."""
    matrix = getattr(op, "matrix", None)
    if matrix is None:
        return None
    if op.pinned is not None and matrix[:, op.pinned[0]].any():
        return None
    k = ti.record_stride
    pairs = len(op.forcing)
    if k * pairs * matrix.shape[0] > _MAX_FORCING_ENTRIES:
        return None
    # S^k takes bit_length - 1 squarings and one multiply per further set
    # bit of k, each an accurate product of three.
    products = 2 + 3 * ((k.bit_length() - 1) + (bin(k).count("1") - 1))
    full_block_steps = (ti.t_end / dt) // k * k
    if products * matrix.shape[0] + k * pairs >= 3 * full_block_steps:
        return None
    return _Blocks(op, dt, k)


def _block_times(t: float, dt: float, reach: float, k: int, t_end: float):
    """Start times of the next k steps and the time after them, or None
    when one of them is the truncated last step."""
    times = []
    for _ in range(k):
        if t_end - t <= reach:
            return None
        times.append(t)
        t = t + dt
    return times, t


def integrate(op, u0, ti: TimeIntegration, hooks=()) -> tuple[np.ndarray, IntegrationTrace]:
    """Evolve an operator's state to ``ti.t_end``, sampling hooks en route.

    Hooks are callables ``hook(t, u)`` invoked at t = 0, every
    ``record_stride`` accepted steps, and at the final time.  Blow-ups
    propagate with step context attached; hook data collected so far stays
    with the caller.  Affine operators (``op.matrix``, ``op.forcing``,
    ``op.pinned``) advance in fused blocks where that pays; any other
    operator needs only ``rhs`` and ``post_step`` and steps stagewise.
    """
    u = np.array(u0, dtype=float)
    t = 0.0
    u = op.post_step(u, t)
    for hook in hooks:
        hook(t, u)
    dt0 = compute_dt(ti.cfl, op.nb.centers.h, op.lambda_max)
    reach = dt0 * (1.0 + 1e-12)
    k = ti.record_stride
    blocks = _plan_blocks(op, dt0, ti)
    step = fused = rhs_evals = 0
    replay = 0  # stagewise steps left before the next block is tried
    while t < ti.t_end:
        if blocks is not None and not replay:
            planned = _block_times(t, dt0, reach, k, ti.t_end)
            if planned is None:
                blocks = None  # this block holds the last step: stagewise to the end
            else:
                times, t_next = planned
                u_next = blocks.advance(u, times)
                if np.abs(u_next).max() <= _FUSED_CEILING:
                    t = t_next
                    step += k
                    fused += k
                    u = op.post_step(u_next, t)
                    for hook in hooks:
                        hook(t, u)
                    continue
                replay = k
        last = ti.t_end - t <= reach
        dt = ti.t_end - t if last else dt0
        try:
            u = ssprk33_step(op.rhs, u, t, dt)
        except BlowUpError as err:
            err.step, err.fused_steps, err.rhs_evals = step, fused, rhs_evals
            raise
        rhs_evals += 3
        replay = max(replay - 1, 0)
        t = ti.t_end if last else t + dt
        step += 1
        u = op.post_step(u, t)
        if step % k == 0 or t == ti.t_end:
            for hook in hooks:
                hook(t, u)
    return u, IntegrationTrace(steps=step, dt=dt0, t_final=t, rhs_evals=rhs_evals,
                               fused_steps=fused)
