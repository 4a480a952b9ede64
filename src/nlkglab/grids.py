"""Periodic 1D spatial discretization and the Hamiltonian field pair.

Everything downstream (profiles, functionals, time stepping, spectra) is
built on the uniform periodic grid defined here.  Conventions, fixed once:

- the domain is [-L/2, L/2) sampled at N equispaced points, h = L/N;
- quadrature is the rectangle rule (spectrally accurate for smooth
  periodic data, and it is the rule the FFT diagonalizes);
- first derivatives are Fourier multipliers i*k with the Nyquist
  coefficient zeroed, which keeps the derivative operator real and
  skew-symmetric.  The same zeroed wavenumbers are used for second
  derivatives so that every variational identity (integration by parts,
  gradient of the energy, second variation) closes exactly in floating
  point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "grid_problems",
    "raise_problems",
    "Field",
    "DimensionError",
    "spectral_derivative",
    "spectral_second_derivative",
    "flat",
    "norm_l2",
    "norm_l2l2",
    "norm_h1l2",
    "symmetry_directions",
    "wrap_coordinate",
]


class DimensionError(ValueError):
    """Sample count does not match the grid."""


def raise_problems(problems: list[str], error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming every broken rule, if there is one."""
    if problems:
        raise error("; ".join(problems))


def grid_problems(length: float, points: int) -> list[str]:
    """The rules a grid's length and point count break; empty when they hold."""
    problems = []
    if not (math.isfinite(length) and length > 0):
        problems.append(f"grid length must be positive and finite (got {length})")
    if not points > 0:
        problems.append(f"grid points must be positive (got {points})")
    return problems


@dataclass
class Grid:
    """Uniform periodic mesh on [-length/2, length/2).

    A power-of-two point count is recommended (fastest FFT path), not
    required.
    """

    length: float
    points: int
    spacing: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    deriv_wavenumbers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        raise_problems(grid_problems(self.length, self.points))
        self.spacing = self.length / self.points
        self.x = -0.5 * self.length + self.spacing * np.arange(self.points)
        kd = 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)
        if self.points % 2 == 0:
            kd[self.points // 2] = 0.0  # keep i*k skew-symmetric
        self.deriv_wavenumbers = kd

    def check(self, f: np.ndarray) -> None:
        if f.shape != (self.points,):
            raise DimensionError(
                f"expected {self.points} samples, got array of shape {f.shape}"
            )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Grid)
            and other.points == self.points
            and other.length == self.length
        )


@dataclass
class Field:
    """Hamiltonian state (u1, u2) = (u, u_t) as complex grid functions."""

    u1: np.ndarray
    u2: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        self.u1 = np.asarray(self.u1, dtype=complex)
        self.u2 = np.asarray(self.u2, dtype=complex)
        self.grid.check(self.u1)
        self.grid.check(self.u2)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(np.zeros(grid.points, complex), np.zeros(grid.points, complex), grid)

    def copy(self) -> "Field":
        return Field(self.u1.copy(), self.u2.copy(), self.grid)

    def __add__(self, other: "Field") -> "Field":
        return Field(self.u1 + other.u1, self.u2 + other.u2, self.grid)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.u1 - other.u1, self.u2 - other.u2, self.grid)

    def __mul__(self, c: complex) -> "Field":
        return Field(c * self.u1, c * self.u2, self.grid)

    __rmul__ = __mul__


def spectral_derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """d/dx as the Fourier multiplier i*k (Nyquist zeroed).

    Exact for band-limited samples.  Real input goes through the half-length
    real transforms and returns a real array.
    """
    grid.check(np.asarray(f))
    if np.isrealobj(f):
        n = grid.points
        kd = grid.deriv_wavenumbers[: n // 2 + 1]
        return np.fft.irfft(1j * kd * np.fft.rfft(f), n)
    return np.fft.ifft(1j * grid.deriv_wavenumbers * np.fft.fft(f))


def spectral_second_derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """d^2/dx^2 with the same zeroed-Nyquist wavenumbers as the first derivative."""
    grid.check(np.asarray(f))
    out = np.fft.ifft(-(grid.deriv_wavenumbers**2) * np.fft.fft(f))
    if np.isrealobj(f):
        return np.real(out)
    return out


def flat(w: Field) -> np.ndarray:
    """w as one real vector, so that (flat(a) @ flat(b)) * h is the real L2 x L2 pairing:
    u1 then u2, re/im interleaved, so its complex view is (u1, u2)."""
    return np.concatenate((w.u1, w.u2)).view(float)


def norm_l2(f: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.spacing))


def norm_l2l2(w: Field) -> float:
    h = w.grid.spacing
    return float(np.sqrt(np.sum(np.abs(w.u1) ** 2 + np.abs(w.u2) ** 2) * h))


def norm_h1l2(w: Field) -> float:
    """Energy-space norm sqrt(|u1|^2 + |du1|^2 + |u2|^2) with spectral gradient."""
    du1 = spectral_derivative(w.u1, w.grid)
    h = w.grid.spacing
    return float(
        np.sqrt(
            np.sum(np.abs(w.u1) ** 2 + np.abs(du1) ** 2 + np.abs(w.u2) ** 2) * h
        )
    )


def symmetry_directions(w: Field) -> tuple[Field, Field, Field]:
    """The symmetry directions at w that a modulation residue is kept
    orthogonal to: i w (phase), i J w = (i u2, -i u1) and w' (translation)."""
    g = w.grid
    return (
        Field(1j * w.u1, 1j * w.u2, g),
        Field(1j * w.u2, -1j * w.u1, g),
        Field(spectral_derivative(w.u1, g), spectral_derivative(w.u2, g), g),
    )


def wrap_coordinate(y: np.ndarray | float, length: float):
    """Reduce positions modulo the period, recentered to [-length/2, length/2)."""
    return (np.asarray(y) + 0.5 * length) % length - 0.5 * length
