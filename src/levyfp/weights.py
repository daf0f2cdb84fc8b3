"""Weight functions phi built from the Japanese bracket <x> = sqrt(1 + |x|^2).

Two builtin families:

* power:       phi(x) = <x>**k
* exponential: phi(x) = exp(mu * <x>**k)

Both are radial, C^2, bounded below by phi >= 1 (power with k >= 0), and come
with analytic first and second derivatives so that Lyapunov-type checks can
evaluate the generator on them without grid differentiation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["bracket", "WeightFunction"]


def bracket(x: np.ndarray) -> np.ndarray:
    """<x> = sqrt(1 + x^2), elementwise on scalars or arrays of d=1 points."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x**2)


@dataclass(frozen=True)
class WeightFunction:
    """Radial weight with analytic value / derivative evaluators.

    ``profile``, ``profile_d1`` and ``profile_d2`` act on s = <x>, so for d=1

        phi(x)   = profile(<x>)
        phi'(x)  = profile_d1(<x>) * x / <x>
        phi''(x) = profile_d2(<x>) * x^2/<x>^2 + profile_d1(<x>) / <x>^3
    """

    kind: str
    k: float = 0.0
    mu: float = 0.0
    label: str = ""
    profile: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    profile_d1: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    profile_d2: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)

    @staticmethod
    def power(k: float) -> "WeightFunction":
        if k < 0 or not np.isfinite(k):
            raise ValueError(f"power weight needs k >= 0, got {k}")
        return WeightFunction(
            kind="power",
            k=k,
            label=f"pow{k:g}",
            profile=lambda s: s**k,
            profile_d1=lambda s: k * s ** (k - 1.0),
            profile_d2=lambda s: k * (k - 1.0) * s ** (k - 2.0),
        )

    @staticmethod
    def exponential(mu: float, k: float) -> "WeightFunction":
        if not (0 < mu < np.inf and 0 < k < np.inf):
            raise ValueError(f"exponential weight needs finite mu > 0 and k > 0, got mu={mu}, k={k}")
        val = lambda s: np.exp(mu * s**k)
        return WeightFunction(
            kind="exponential",
            k=k,
            mu=mu,
            label=f"exp{mu:g}_{k:g}",
            profile=val,
            profile_d1=lambda s: mu * k * s ** (k - 1.0) * val(s),
            profile_d2=lambda s: (mu * k * (k - 1.0) * s ** (k - 2.0) + (mu * k * s ** (k - 1.0)) ** 2) * val(s),
        )

    def __call__(self, x) -> np.ndarray:
        return self.profile(bracket(x))

    def grad(self, x) -> np.ndarray:
        """d/dx phi."""
        x = np.asarray(x, dtype=float)
        s = bracket(x)
        return self.profile_d1(s) * x / s

    def hess(self, x) -> np.ndarray:
        """d^2/dx^2 phi."""
        x = np.asarray(x, dtype=float)
        s = bracket(x)
        # d/dx [ f'(s) x / s ] with s = <x>: f''(s) x^2/s^2 + f'(s) (1/s - x^2/s^3)
        return self.profile_d2(s) * x**2 / s**2 + self.profile_d1(s) * (1.0 / s - x**2 / s**3)
