"""Radial kernels with analytic first radial derivatives.

The polyharmonic splines r^(2k-1) and r^(2k) log(r) are the workhorses
here: they carry no shape parameter and are conditionally positive
definite, so the interpolation module pairs them with low-degree
polynomial augmentation.  Gaussian and multiquadric kernels are included
for completeness.  Derivatives are closed forms, not finite differences,
so differentiation matrices are reproducible to machine precision; the
r = 0 values are the analytic limits because every kernel matrix diagonal
sits at r = 0.
"""

from dataclasses import dataclass

import numpy as np

_FAMILIES = ("phs_odd", "phs_even", "gaussian", "multiquadric")


def _radius(r):
    r = np.asarray(r)
    if r.dtype != np.longdouble:
        r = r.astype(float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return r


def _maybe_scalar(out, r):
    return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out


@dataclass(frozen=True)
class Kernel:
    """A radial function phi(r) together with its CPD order.

    family: "phs_odd" -> r^(2k-1), "phs_even" -> r^(2k) log r,
    "gaussian" -> exp(-(eps r)^2), "multiquadric" -> sqrt((eps r)^2 + 1).
    ``k`` is ignored by the smooth kernels, ``epsilon`` by the splines.
    """

    family: str
    k: int = 1
    epsilon: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family.startswith("phs") and self.k < 1:
            raise ValueError("polyharmonic exponent k must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("shape parameter epsilon must be positive")

    @property
    def cpd_order(self) -> int:
        """Order of conditional positive definiteness."""
        if self.family == "gaussian":
            return 0
        if self.family == "multiquadric":
            return 1
        if self.family == "phs_odd":
            return self.k
        return self.k + 1

    @property
    def name(self) -> str:
        if self.family == "phs_odd":
            return {2: "cubic", 3: "quintic"}.get(self.k, f"phs{2 * self.k - 1}")
        if self.family == "phs_even":
            return f"tps{self.k}"
        return self.family

    def phi(self, r):
        """Kernel value phi(r); the even splines return 0 at r = 0."""
        r = _radius(r)
        if self.family == "phs_odd":
            out = r ** (2 * self.k - 1)
        elif self.family == "phs_even":
            safe = np.where(r > 0, r, 1.0)
            out = np.where(r > 0, safe ** (2 * self.k) * np.log(safe), 0.0)
        elif self.family == "gaussian":
            out = np.exp(-((self.epsilon * r) ** 2))
        else:
            out = np.sqrt((self.epsilon * r) ** 2 + 1.0)
        return _maybe_scalar(out, r)

    def d1_over_r(self, r):
        """phi'(r)/r with its analytic r -> 0 limit, for chain-rule gradients."""
        r = _radius(r)
        if self.family == "phs_odd":
            if self.k == 1:
                out = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
            else:
                out = (2 * self.k - 1) * r ** (2 * self.k - 3)
        elif self.family == "phs_even":
            safe = np.where(r > 0, r, 1.0)
            out = np.where(r > 0, safe ** (2 * self.k - 2) * (2 * self.k * np.log(safe) + 1.0), 0.0)
        elif self.family == "gaussian":
            e2 = self.epsilon ** 2
            out = -2.0 * e2 * np.exp(-e2 * r ** 2)
        else:
            e2 = self.epsilon ** 2
            out = e2 / np.sqrt(e2 * r ** 2 + 1.0)
        return _maybe_scalar(out, r)


def cubic() -> Kernel:
    return Kernel("phs_odd", k=2)


def quintic() -> Kernel:
    return Kernel("phs_odd", k=3)


def thin_plate(k: int = 1) -> Kernel:
    return Kernel("phs_even", k=k)


def gaussian(epsilon: float = 1.0) -> Kernel:
    return Kernel("gaussian", epsilon=epsilon)


def multiquadric(epsilon: float = 1.0) -> Kernel:
    return Kernel("multiquadric", epsilon=epsilon)


def kernel_from_name(spec: str) -> Kernel:
    """Parse a kernel from config text.

    Accepted names: ``cubic``, ``quintic``, ``tps<k>``, ``gaussian``,
    ``multiquadric``, optionally followed by ``epsilon=<float>`` separated
    by whitespace, comma or colon, e.g. ``"gaussian epsilon=4"``.
    """
    tokens = [t for t in spec.replace(",", " ").replace(":", " ").split() if t]
    if not tokens:
        raise ValueError("empty kernel specification")
    name, eps = tokens[0].lower(), None
    for extra in tokens[1:]:
        key, _, val = extra.partition("=")
        if key != "epsilon" or not val:
            raise ValueError(f"unrecognized kernel option {extra!r}")
        eps = float(val)
    if name == "cubic":
        kern = cubic()
    elif name == "quintic":
        kern = quintic()
    elif name.startswith("tps"):
        kern = thin_plate(int(name[3:] or 1))
    elif name == "gaussian":
        kern = gaussian(eps if eps is not None else 1.0)
    elif name == "multiquadric":
        kern = multiquadric(eps if eps is not None else 1.0)
    else:
        raise ValueError(f"unknown kernel {name!r}")
    if eps is not None and kern.family.startswith("phs"):
        raise ValueError("polyharmonic kernels take no shape parameter")
    return kern
