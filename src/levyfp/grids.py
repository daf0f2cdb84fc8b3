"""Periodic grids and grid-sampled fields.

Everything downstream lives on a uniform periodic lattice over [-L, L), d = 1.
Fields are immutable value objects: solvers return new fields instead of
mutating in place, so snapshots can be shared across threads or processes
without copies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "DensityField",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L) in d = 1.

    Nodes are x_i = -L + i*dx with dx = 2L/N, so index N wraps back to index 0.
    Angular wavenumbers are xi_j = pi*j/L in FFT ordering, which makes
    exp(i*xi_j*x) exactly periodic on the box.
    """

    n: int
    half_width: float

    def __post_init__(self):
        if self.n < 8 or not _is_power_of_two(int(self.n)):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be a positive finite number, got {self.half_width}")

    @property
    def dx(self) -> float:
        # N is a power of two, so dx * N == 2 * half_width exactly in binary fp.
        return 2.0 * self.half_width / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates x_i = -L + i*dx, shape (n,)."""
        return -self.half_width + self.dx * np.arange(self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers xi_j = pi*j/L in numpy FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def wavenumber_magnitude(self) -> np.ndarray:
        return np.abs(self.wavenumbers)

    @property
    def cell_volume(self) -> float:
        return self.dx

    @property
    def shape(self) -> tuple:
        return (self.n,)


def _as_values(grid: Grid, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Grid sample of a scalar function, tagged with a timestamp."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.grid, self.values))

    def with_values(self, values, t: float | None = None) -> "ScalarField":
        return ScalarField(self.grid, values, self.t if t is None else t)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class DensityField:
    """Grid sample of a (possibly signed) density, tagged with a timestamp."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.grid, self.values))

    def with_values(self, values, t: float | None = None) -> "DensityField":
        return DensityField(self.grid, values, self.t if t is None else t)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume)

    def variance(self) -> float:
        m = self.mass()
        if abs(m) < 1e-300:
            raise ValueError("variance undefined for zero-mass density")
        x = self.grid.nodes
        mean = float(np.sum(x * self.values) * self.grid.cell_volume) / m
        return float(np.sum((x - mean) ** 2 * self.values) * self.grid.cell_volume) / m
