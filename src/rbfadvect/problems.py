"""The test problems: self-describing specifications with exact solutions.

Each constructor returns a ProblemSpec bundling domain, velocity data,
initial condition, boundary data and (where known) the exact solution.
Center-set generators live here too, including the scattered-node model
that perturbs an equidistant grid with seeded uniform noise.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateCentersError
from .interpolation import CenterSet


@dataclass(frozen=True)
class ProblemSpec:
    """One named test problem.

    ``kind`` selects the operator family: "advection1d" (constant a),
    "varcoeff1d" (a(x) with derivative), "system1d" (wave system with
    speed c and characteristic boundary data) or "advection2d".
    ``exact``, when present, takes (t, x[, y]) and satisfies the initial
    condition at t = 0.
    """

    name: str
    kind: str
    domain: tuple
    initial: Callable
    velocity: float | tuple | None = None
    velocity_fn: Callable | None = None
    velocity_prime_fn: Callable | None = None
    wave_speed: float = 1.0
    boundary: Callable | None = None
    boundary_left: Callable | None = None
    boundary_right: Callable | None = None
    exact: Callable | None = None
    n_fields: int = 1


@dataclass(frozen=True)
class ScatterConfig:
    """Noise level and seed for scattered center generation."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("noise parameter sigma must be positive")


def bump(x):
    """Compactly supported smooth bump on (0, 0.5), peak value 1 at x = 1/4."""
    x = np.asarray(x, dtype=float)
    s = 4.0 * x - 1.0
    inside = (x > 0.0) & (x < 0.5)
    denom = np.where(inside, 1.0 - s ** 2, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.exp(16.0) * np.exp(-16.0 / denom)
    return np.where(inside, vals, 0.0)


def inflow_bump() -> ProblemSpec:
    """Advection of a smooth bump entering through the left boundary."""

    def g(t):
        return float(bump(0.5 - t))

    def exact(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= t, bump(x - t), bump(0.5 - t + x))

    return ProblemSpec(
        name="inflow_bump",
        kind="advection1d",
        domain=(0.0, 1.0),
        velocity=1.0,
        initial=bump,
        boundary=g,
        exact=exact,
    )


def periodic_sin2() -> ProblemSpec:
    """Periodic advection of sin^2(2 pi x); continuous energy is 3/8.

    Periodicity is imposed through the known periodic inflow trace
    g(t) = u(t, 0) = sin^2(2 pi t): feeding the outflow interpolant value
    back into the boundary treatment instead couples the domain into a
    feedback loop whose semidiscrete spectrum acquires strongly positive
    real parts for the quintic kernel, and long-time runs blow up.
    """

    def initial(x):
        return np.sin(2.0 * np.pi * np.asarray(x, dtype=float)) ** 2

    def exact(t, x):
        return np.sin(2.0 * np.pi * (np.asarray(x, dtype=float) - t)) ** 2

    def g(t):
        return float(np.sin(2.0 * np.pi * t) ** 2)

    return ProblemSpec(
        name="periodic_sin2",
        kind="advection1d",
        domain=(0.0, 1.0),
        velocity=1.0,
        initial=initial,
        boundary=g,
        exact=exact,
    )


def varcoeff_problem() -> ProblemSpec:
    """Variable-coefficient advection d_t u + d_x(x u) = 0 on (0, 2 pi)."""

    def initial(x):
        return np.sin(12.0 * (np.asarray(x, dtype=float) - 0.1))

    def exact(t, x):
        return np.exp(-t) * initial(np.asarray(x, dtype=float) * np.exp(-t))

    return ProblemSpec(
        name="varcoeff",
        kind="varcoeff1d",
        domain=(0.0, 2.0 * np.pi),
        velocity_fn=lambda x: np.asarray(x, dtype=float),
        velocity_prime_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        initial=initial,
        boundary=lambda t: 0.0,
        exact=exact,
    )


def acoustic_problem() -> ProblemSpec:
    """Wave system d_t u + c d_x v = 0, d_t v + c d_x u = 0, zero IC.

    Sinusoidal data enters through the incoming characteristic at each
    end: W (u, v)(0) = (sin t, 0) and W (u, v)(1) = (0, sin t) with the
    orthogonal transform W = (1/sqrt 2) [[1, 1], [1, -1]].
    """

    def initial(x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def g0(t):
        return np.array([np.sin(t), 0.0])

    def g1(t):
        return np.array([0.0, np.sin(t)])

    return ProblemSpec(
        name="acoustic",
        kind="system1d",
        domain=(0.0, 1.0),
        wave_speed=1.0,
        initial=initial,
        boundary_left=g0,
        boundary_right=g1,
        n_fields=2,
    )


def advection_2d() -> ProblemSpec:
    """2D advection with velocity (1, 0) and zero inflow at x = 0."""

    def initial(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.sin(4.0 * np.pi * x) * (1.0 - 0.5 * np.sin(2.0 * np.pi * y))

    def exact(t, x, y):
        x = np.asarray(x, dtype=float)
        return np.where(x <= t, 0.0, initial(x - t, y))

    return ProblemSpec(
        name="advect2d",
        kind="advection2d",
        domain=((0.0, 1.0), (0.0, 1.0)),
        velocity=(1.0, 0.0),
        initial=initial,
        boundary=lambda t: 0.0,
        exact=exact,
    )


_PROBLEMS = {
    "inflow_bump": inflow_bump,
    "periodic_sin2": periodic_sin2,
    "varcoeff": varcoeff_problem,
    "acoustic": acoustic_problem,
    "advect2d": advection_2d,
}


def problem_by_name(name: str) -> ProblemSpec:
    if name not in _PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; choose from {sorted(_PROBLEMS)}")
    return _PROBLEMS[name]()


def scattered_centers(n: int, cfg: ScatterConfig) -> CenterSet:
    """n+1 points on [0, 1]: fixed endpoints, noisy equidistant interior.

    Interior points are n/N + Z_n with Z_n uniform on
    (-1/(sigma n), 1/(sigma n)) from a seeded 64-bit generator (PCG64).
    Draws violating strict ordering or a minimum spacing of 0.1/n are
    resampled, at most 100 times; then DegenerateCentersError is raised.
    """
    if n < 2:
        raise ValueError("need at least two intervals")
    rng = np.random.default_rng(cfg.seed)
    base = np.arange(1, n) / n
    half = 1.0 / (cfg.sigma * n)
    for _ in range(100):
        interior = base + rng.uniform(-half, half, size=n - 1)
        pts = np.concatenate([[0.0], interior, [1.0]])
        if np.all(np.diff(pts) >= 0.1 / n):
            return CenterSet(pts.reshape(-1, 1))
    raise DegenerateCentersError(
        f"could not draw ordered scattered centers for sigma={cfg.sigma}, N={n}"
    )
