"""Periodic 1D spatial discretization and the Hamiltonian field pair.

Everything downstream (profiles, functionals, time stepping, spectra) is
built on the uniform periodic grid defined here.  Conventions, fixed once:

- the domain is [-L/2, L/2) sampled at N equispaced points, h = L/N;
- quadrature is the rectangle rule (spectrally accurate for smooth
  periodic data, and it is the rule the FFT diagonalizes);
- first derivatives are Fourier multipliers i*k with the Nyquist
  coefficient zeroed, which keeps the derivative operator real and
  skew-symmetric.  The same zeroed wavenumbers carry the action's symbol
  (``functionals.action_symbol``, k^2 = -(ik)^2), so that every variational
  identity (integration by parts, gradient of the energy, second variation)
  closes in floating point.

A Field's u1' belongs to the field: ``Field.du1`` takes it once, and every
form, density, flux and norm of the energy space H1 x L2 reads it there.
The symmetry directions have one writer, ``symmetry_rows``, the only place
u2' is taken: the fit, delta's constraints and |dR_j| read its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "grid_problems",
    "raise_problems",
    "Field",
    "DimensionError",
    "spectral_derivative",
    "flat",
    "norm_l2",
    "norm_l2l2",
    "norm_h1l2",
    "symmetry_rows",
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
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)):
        problems.append(f"grid points must be an integer, not a bool or float (got {points!r})")
    elif not points > 0:
        problems.append(f"grid points must be positive (got {points})")
    return problems


@dataclass
class Grid:
    """Uniform periodic mesh on [-length/2, length/2).

    A power-of-two point count is recommended (fastest FFT path), not
    required.  Length and point count define a grid, and only they are
    compared: the other fields derive from them.
    """

    length: float
    points: int
    spacing: float = field(init=False, compare=False)
    x: np.ndarray = field(init=False, repr=False, compare=False)
    deriv_wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

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


@dataclass
class Field:
    """Hamiltonian state (u1, u2) = (u, u_t) as complex grid functions.

    A Field's arrays are not written after it is built: operations return new
    Fields, so a derivative taken once (``du1``) holds for the field's life."""

    u1: np.ndarray
    u2: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        self.u1 = np.asarray(self.u1, dtype=complex)
        self.u2 = np.asarray(self.u2, dtype=complex)
        self.grid.check(self.u1)
        self.grid.check(self.u2)

    @cached_property
    def du1(self) -> np.ndarray:
        """u1' by ``spectral_derivative``, taken on first read and kept."""
        return spectral_derivative(self.u1, self.grid)

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
    """d/dx as the Fourier multiplier i*k (Nyquist zeroed), by one complex FFT
    pair; exact for band-limited samples, and complex for real input too."""
    grid.check(np.asarray(f))
    return np.fft.ifft(1j * grid.deriv_wavenumbers * np.fft.fft(f))


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
    """Energy-space norm sqrt(|u1|^2 + |u1'|^2 + |u2|^2), u1' the field's ``du1``."""
    h = w.grid.spacing
    return float(np.sqrt(np.sum(np.abs(w.u1) ** 2 + np.abs(w.du1) ** 2 + np.abs(w.u2) ** 2) * h))


# <a, D_k b> = ADJOINT_SIGNS[k] * <D_k a, b> in the real L2 x L2 pairing for the maps
# of ``symmetry_rows``: i and d/dx (Nyquist zeroed) are skew, i J is symmetric
ADJOINT_SIGNS = np.array([-1.0, 1.0, -1.0])


def symmetry_rows(w: Field, dw: Field | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The symmetry directions at w that a modulation residue is kept
    orthogonal to, as three complex rows whose real views are ``flat`` rows:
    i w (phase), i J w = (i u2, -i u1) and w' (translation).  w' is ``dw``
    when given (a closed form), else (``w.du1``, u2' by ``spectral_derivative``).
    The rows go into ``out``, a (3, 2N) complex array or view, when given."""
    size = w.grid.points
    out = np.empty((3, 2 * size), complex) if out is None else out
    np.multiply(1j, w.u1, out=out[0, :size])
    np.multiply(1j, w.u2, out=out[0, size:])
    np.multiply(1j, w.u2, out=out[1, :size])
    np.multiply(-1j, w.u1, out=out[1, size:])
    d1, d2 = (w.du1, spectral_derivative(w.u2, w.grid)) if dw is None else (dw.u1, dw.u2)
    out[2, :size], out[2, size:] = d1, d2
    return out


def wrap_coordinate(y: np.ndarray | float, length: float):
    """Reduce positions modulo the period, recentered to [-length/2, length/2).

    y - L floor((y + L/2)/L) keeps every y already in the period as it is, down
    to the tiniest |y|; a y within rounding of L/2 + kL can land one ulp below
    -L/2 (nextafter(L/2, 0) does).
    """
    y = np.asarray(y)
    return y - length * np.floor((y + 0.5 * length) / length)
