"""Specifications of the integro-differential generator and its pieces.

The operator acting on test functions is

    L^b[u] = -lambda0 * Lap(u) - tr(Sigma Sigma^T D^2 u) - I(x, [u]) + b . Du

where I is the compensated jump integral against a symmetric Levy measure
whose density is pinched between lam/|z|^{1+sigma} and Lam/|z|^{1+sigma}.
These dataclasses only describe the pieces; discretizations live in
``operators`` and the solvers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .weights import bracket

__all__ = [
    "stable_normalization",
    "LevyMeasureSpec",
    "LocalDiffusionSpec",
    "DriftSpec",
    "GeneratorSpec",
]


def _tempered_symbol(xi: np.ndarray, sigma: float, c: float) -> np.ndarray:
    """Fourier symbol of the tempered kernel c * exp(-|z|) / |z|^{1+sigma}:
    int (1 - cos(xi z)) density(z) dz = c * 2 Gamma(-sigma) (1 - Re (1 + i xi)^sigma)
    (Koponen, Phys. Rev. E 52, 1995).

    Written without the poles of Gamma(-sigma) at sigma = 1 as
    -2 Gamma(2 - sigma) / sigma * Re[(1 + i xi) expm1(eps L) / eps] with
    eps = sigma - 1 and L = log(1 + i xi) = l + i theta, taking L itself at
    eps = 0. Re expm1(eps L) = expm1(eps l) cos(eps theta) - 2 sin^2(eps theta / 2)
    keeps the small-xi limit xi^2 Gamma(2 - sigma) free of cancellation.
    """
    ell = 0.5 * np.log1p(xi * xi)
    theta = np.arctan(xi)
    eps = sigma - 1.0
    if eps == 0.0:
        re, im = ell, theta
    else:
        re = (np.expm1(eps * ell) * np.cos(eps * theta) - 2.0 * np.sin(0.5 * eps * theta) ** 2) / eps
        im = np.exp(eps * ell) * np.sin(eps * theta) / eps
    # Re[(1 + i xi)(re + i im)] = re - xi * im
    return -2.0 * c * math.gamma(2.0 - sigma) / sigma * (re - xi * im)


def stable_normalization(sigma: float) -> float:
    """Constant C(sigma) with (-Lap)^{sigma/2} u = C * PV-integral of
    (u(x) - u(x+z)) / |z|^{1+sigma} dz in d = 1, i.e. the density making the
    Fourier symbol exactly |xi|^sigma."""
    if not 0.0 < sigma < 2.0:
        raise ValueError(f"sigma must lie in (0, 2), got {sigma}")
    return (
        sigma
        * 2.0 ** (sigma - 1.0)
        * math.gamma((1.0 + sigma) / 2.0)
        / (math.pi ** 0.5 * math.gamma(1.0 - sigma / 2.0))
    )


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Symmetric jump measure with density ``density(|z|)`` in d=1 and its
    exact Fourier symbol ``symbol(|xi|)`` = int (1 - cos(xi z)) density(z) dz.

    ``lower`` is the declared multiplier lam in the pinching
    lam/|z|^{1+sigma} <= density(z) <= Lam/|z|^{1+sigma}; each constructor
    states its Lam. For the tempered kind the lower bound is only claimed on
    |z| <= 1, which is where the small-jump ellipticity argument uses it.
    """

    kind: str
    sigma: float = 0.0
    scale: float = 1.0
    lower: float = 0.0
    density: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    symbol: Callable[[np.ndarray], np.ndarray] = field(default=np.zeros_like, repr=False)

    @staticmethod
    def none() -> "LevyMeasureSpec":
        return LevyMeasureSpec(kind="none")

    @staticmethod
    def fractional(sigma: float, scale: float = 1.0) -> "LevyMeasureSpec":
        """density = scale * C(1, sigma) / |z|^{1+sigma}; symbol scale*|xi|^sigma.
        The pinching is an equality: lam = Lam = scale * C(1, sigma)."""
        if not 0.0 < sigma < 2.0:
            raise ValueError(f"fractional measure needs sigma in (0, 2), got {sigma}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        c = scale * stable_normalization(sigma)
        return LevyMeasureSpec(
            kind="fractional",
            sigma=sigma,
            scale=scale,
            lower=c,
            density=lambda z: c / np.abs(z) ** (1.0 + sigma),
            symbol=lambda xi: scale * xi**sigma,
        )

    @staticmethod
    def tempered(sigma: float, scale: float | None = None) -> "LevyMeasureSpec":
        """density = C * exp(-|z|) / |z|^{1+sigma} with C defaulting to the
        stable normalization, so it matches the fractional kind near z = 0;
        symbol ``_tempered_symbol``. Lam = C bounds it on every z, and
        lam = C / e bounds it from below on |z| <= 1."""
        if not 0.0 < sigma < 2.0:
            raise ValueError(f"tempered measure needs sigma in (0, 2), got {sigma}")
        c = stable_normalization(sigma) if scale is None else float(scale)
        if c <= 0:
            raise ValueError(f"scale must be positive, got {c}")
        return LevyMeasureSpec(
            kind="tempered",
            sigma=sigma,
            scale=c,
            lower=c * math.exp(-1.0),
            density=lambda z: c * np.exp(-np.abs(z)) / np.abs(z) ** (1.0 + sigma),
            symbol=lambda xi: _tempered_symbol(xi, sigma, c),
        )

    @property
    def is_active(self) -> bool:
        return self.kind != "none"


@dataclass(frozen=True)
class LocalDiffusionSpec:
    """Constant lambda0 plus a bounded variable coefficient Sigma(x) (d=1)."""

    lambda0: float
    sigma0: float = 0.0
    sigma_fn: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.lambda0 < 0 or not np.isfinite(self.lambda0):
            raise ValueError(f"lambda0 must be >= 0, got {self.lambda0}")

    @staticmethod
    def constant(lambda0: float) -> "LocalDiffusionSpec":
        return LocalDiffusionSpec(lambda0=lambda0)

    @staticmethod
    def tanh_variable(lambda0: float, a: float) -> "LocalDiffusionSpec":
        """Sigma(x) = a*tanh(x), with sup bound sigma0 = a."""
        if a < 0:
            raise ValueError(f"amplitude must be >= 0, got {a}")
        return LocalDiffusionSpec(
            lambda0=lambda0,
            sigma0=a,
            sigma_fn=lambda x: a * np.tanh(x),
        )

    @property
    def has_variable_part(self) -> bool:
        return self.sigma_fn is not None and self.sigma0 > 0

    def sigma_squared(self, x: np.ndarray) -> np.ndarray:
        if not self.has_variable_part:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.sigma_fn(x) ** 2


@dataclass(frozen=True)
class DriftSpec:
    """Velocity field b(t, x) with declared confinement and one-sided bounds;
    it stores the alpha and gamma the Lyapunov checks read, and each
    constructor states its R and c0.

    Confinement:  b(t, x) . x >= alpha * |x|^gamma   for |x| >= R.
    One-sided:    (b(x) - b(y)) . (x - y) >= -c0 * |x - y| * (|x-y| ^ 1 wedge 1)
                  for the builtin drifts (monotone core plus a Lipschitz
                  perturbation), which implies the sigma <= 1 modulus for any
                  delta <= sigma.

    A moving drift may split as fn(t, x) = steady(x) + wave(t, x), so that a
    caller evaluating it at fixed points many times evaluates ``steady``
    there once; ``steady`` and ``wave`` are None for a drift without a split.
    """

    alpha: float
    gamma: float
    time_dependent: bool = False
    fn: Callable[[float, np.ndarray], np.ndarray] = field(default=None, repr=False)
    steady: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    wave: Callable[[float, np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    @staticmethod
    def none() -> "DriftSpec":
        """b = 0: no transport, no confinement claimed (alpha = 0), c0 = 0."""
        return DriftSpec(alpha=0.0, gamma=2.0,
                         fn=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)))

    @staticmethod
    def ou(alpha: float = 1.0) -> "DriftSpec":
        """b(x) = alpha * x: confinement holds globally (R = 0) with gamma = 2,
        and b is monotone, so c0 = 0."""
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return DriftSpec(alpha=alpha, gamma=2.0,
                         fn=lambda t, x: alpha * np.asarray(x, dtype=float))

    @staticmethod
    def power(alpha: float, gamma: float, R: float = 1.0) -> "DriftSpec":
        """b(x) = alpha * x * <x>^{gamma-2}.

        b.x = alpha |x|^gamma (|x|/<x>)^{2-gamma}, so the declared confinement
        constant is alpha * (R^2/(1+R^2))^{(2-gamma)/2}, exact for |x| >= R.
        b is monotone, so c0 = 0.
        """
        if alpha <= 0 or R <= 0:
            raise ValueError("alpha and R must be positive")
        if not 0.0 < gamma <= 2.0:
            raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
        alpha_decl = alpha * (R**2 / (1.0 + R**2)) ** ((2.0 - gamma) / 2.0)
        return DriftSpec(
            alpha=alpha_decl, gamma=gamma,
            fn=lambda t, x: alpha * np.asarray(x, dtype=float) * bracket(x) ** (gamma - 2.0),
        )

    @staticmethod
    def perturbed_power(alpha: float, gamma: float, amplitude: float, R: float = 1.0) -> "DriftSpec":
        """Power drift plus the bounded oscillation A*sin(x + t).

        The perturbation is Lipschitz with constant A and bounded by A, so
        c0 = 2A and the confinement constants absorb an A|x| loss, which
        needs gamma >= 1. With a the power drift's declared alpha: at gamma = 1
        (needs A < a) alpha is a - A on the same R; at gamma > 1 alpha is a/2
        on |x| >= max(R, (2A/a)^{1/(gamma-1)}); A = 0 keeps a and R.
        """
        if gamma < 1.0:
            raise ValueError("perturbed-power drift needs gamma >= 1 to stay confining")
        if amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude}")
        base = DriftSpec.power(alpha, gamma, R)
        alpha_decl = base.alpha
        if gamma == 1.0:
            if amplitude >= alpha_decl:
                raise ValueError("perturbation amplitude swallows the gamma=1 confinement")
            alpha_decl -= amplitude
        elif amplitude != 0:
            alpha_decl /= 2.0
        pfn = base.fn
        steady = lambda x: pfn(0.0, x)  # the power drift does not read t
        wave = lambda t, x: amplitude * np.sin(np.asarray(x, dtype=float) + t)
        return DriftSpec(
            alpha=alpha_decl, gamma=gamma, time_dependent=True,
            fn=lambda t, x: steady(x) + wave(t, x), steady=steady, wave=wave,
        )

    def __call__(self, t: float, x) -> np.ndarray:
        return self.fn(t, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class GeneratorSpec:
    """Full operator description: local diffusion + jump measure + drift."""

    diffusion: LocalDiffusionSpec
    levy: LevyMeasureSpec
    drift: DriftSpec

    def __post_init__(self):
        if self.diffusion.lambda0 + (self.levy.lower if self.levy.is_active else 0.0) <= 0.0:
            raise ValueError("degenerate operator: lambda0 + lam must be positive")

    @property
    def is_time_dependent(self) -> bool:
        return self.drift.time_dependent
