"""Conserved functionals, the action and moving cutoffs.

The flow conserves the energy E, the charge Q = Im int u1 conj(u2) and the
momentum P = Re int (d/dx u1) conj(u2).  A soliton with frequency omega and
velocity v is a critical point of the action

    S = E + (omega/gamma) Q + v P,

whose gradient in the real L2 pairing is

    S'(W) = ( -u1'' + m u1 - |u1|^(p-1) u1 + i (omega/gamma) u2 - v u2',
              u2 - i (omega/gamma) u1 + v u1' ).

The moving cutoff partition splits the line between solitons with ramps of
width sqrt(t) centered at the velocity midpoints; the ramp is

    psi(s) = sin^2(pi (s+1) / 4)  on [-1, 1],  0 below,  1 above,

which satisfies |psi'| = (pi/2) sqrt(psi) |cos(pi(s+1)/4)| <= (pi/2) sqrt(psi),
the bound needed for IMS-style localization of the gradient term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Field, Grid, norm_l2l2, raise_problems, spectral_derivative
from .profiles import ModelParams, SolitonParams

__all__ = [
    "ActionParams",
    "LocalizedQuantities",
    "velocity_problems",
    "energy_density",
    "charge_density",
    "momentum_density",
    "second_variation_potential",
    "energy",
    "charge",
    "momentum",
    "action",
    "action_symbol",
    "quadratic_gradient",
    "action_gradient",
    "gradient_norm",
    "ramp",
    "build_cutoffs",
    "localized_quantities",
    "localized_first_variation",
]


def velocity_problems(velocities: Sequence[float]) -> list[str]:
    """Pairwise distinct velocities: one cutoff cell and one soliton per velocity."""
    shared = sorted({v for v in velocities if list(velocities).count(v) > 1})
    return [f"velocities {shared} repeat: pairwise distinct velocities required"] if shared else []


@dataclass
class ActionParams:
    """Coefficients of S = E + omega_over_gamma * Q + v * P; SolitonParams checks |v| < 1."""

    omega_over_gamma: float
    v: float
    model: ModelParams

    @classmethod
    def from_soliton(cls, sp: SolitonParams) -> "ActionParams":
        return cls(sp.omega / sp.gamma, sp.v, sp.model)


def energy_density(w: Field, du1: np.ndarray, model: ModelParams) -> np.ndarray:
    """Pointwise energy; ``du1`` is the spectral derivative of w.u1."""
    return (
        0.5 * np.abs(du1) ** 2
        + 0.5 * model.m * np.abs(w.u1) ** 2
        + 0.5 * np.abs(w.u2) ** 2
        - np.abs(w.u1) ** (model.p + 1.0) / (model.p + 1.0)
    )


def charge_density(w: Field) -> np.ndarray:
    return np.imag(w.u1 * np.conj(w.u2))


def momentum_density(w: Field, du1: np.ndarray) -> np.ndarray:
    """Pointwise momentum; ``du1`` is the spectral derivative of w.u1."""
    return np.real(du1 * np.conj(w.u2))


def second_variation_potential(q: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The linearization of |u|^(p-1) u at q, z -> w1 z + w2 conj(z), as (w1, w2):
    w1 = (p+1)/2 |q|^(p-1) and w2 = (p-1)/2 |q|^(p-3) q^2 (zero where q is)."""
    absq = np.abs(q)
    w1 = 0.5 * (p + 1.0) * absq ** (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = 0.5 * (p - 1.0) * np.where(absq > 0, absq ** (p - 3.0), 0.0) * q * q
    return w1, w2


def energy(w: Field, model: ModelParams) -> float:
    du1 = spectral_derivative(w.u1, w.grid)
    return float(np.sum(energy_density(w, du1, model)) * w.grid.spacing)


def charge(w: Field) -> float:
    return float(np.sum(charge_density(w)) * w.grid.spacing)


def momentum(w: Field) -> float:
    du1 = spectral_derivative(w.u1, w.grid)
    return float(np.sum(momentum_density(w, du1)) * w.grid.spacing)


def action(w: Field, ap: ActionParams) -> float:
    return energy(w, ap.model) + ap.omega_over_gamma * charge(w) + ap.v * momentum(w)


def action_symbol(ap: ActionParams, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Fourier symbol of the quadratic part of S at wavenumbers k: a = k^2 + m
    on u1, and b = omega/gamma - v k, the symbol of the coupling i b between u1
    and u2.  S', S'' and the spectrum's Schur complement and lift all read it."""
    return k * k + ap.model.m, ap.omega_over_gamma - ap.v * k


def quadratic_gradient(
    z1: np.ndarray, z2: np.ndarray, ap: ActionParams, grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """L Z = (a z1 + i b z2, z2 - i b z1), the potential-free gradient of S with
    a and b from ``action_symbol`` on the Nyquist-zeroed wavenumbers, for one
    field or for each row of a stack: one complex FFT pair per component."""
    a, b = action_symbol(ap, grid.deriv_wavenumbers)
    f1 = np.fft.fft(z1)
    return np.fft.ifft(a * f1 + 1j * b * np.fft.fft(z2)), z2 - 1j * np.fft.ifft(b * f1)


def action_gradient(w: Field, ap: ActionParams) -> Field:
    """S'(W) = L W - (|u1|^(p-1) u1, 0) in the real L2 pairing, as a Field."""
    g1, g2 = quadratic_gradient(w.u1, w.u2, ap, w.grid)
    return Field(g1 - np.abs(w.u1) ** (ap.model.p - 1.0) * w.u1, g2, w.grid)


def gradient_norm(w: Field, ap: ActionParams) -> float:
    """||S'(W)|| in L2 x L2."""
    return norm_l2l2(action_gradient(w, ap))


def ramp(s: np.ndarray | float):
    """C^1 ramp: 0 for s < -1, sin^2(pi (s+1)/4) on [-1, 1], 1 above."""
    s = np.asarray(s, dtype=float)
    out = np.where(s <= -1.0, 0.0, np.where(s >= 1.0, 1.0, np.sin(np.pi * (s + 1.0) / 4.0) ** 2))
    return out


def build_cutoffs(velocities: Sequence[float], t: float, grid: Grid) -> np.ndarray:
    """The moving partition of unity at time t > 0 separating solitons by
    velocity, as its (N, points) weights, one row per velocity in ascending order.

    Weight j is psi_j - psi_{j+1} (the last one is psi_N), where
    psi_j(x) = ramp((x - midpoint_j * t)/sqrt(t)), the ramp width sqrt(t), and
    psi_1 = 1; midpoint_j is the mean of velocities j-1 and j.  The telescoping
    sum is identically 1.
    """
    if t <= 0:
        raise ValueError(f"cutoff time must be positive, got {t}")
    raise_problems(velocity_problems(velocities))
    vel = np.asarray(sorted(velocities), dtype=float)
    n = len(vel)
    mids = 0.5 * (vel[:-1] + vel[1:])
    w = math.sqrt(t)
    psi = np.ones((n + 1, grid.points))
    for j in range(1, n):
        psi[j] = ramp((grid.x - mids[j - 1] * t) / w)
    psi[n] = 0.0  # sentinel psi_{N+1}
    return psi[:n] - psi[1 : n + 1]


@dataclass
class LocalizedQuantities:
    """Per-soliton weighted E_j, Q_j, P_j and the localized action total."""

    e: np.ndarray
    q: np.ndarray
    p: np.ndarray
    action_total: float


def _localize(
    e_dens: np.ndarray,
    q_dens: np.ndarray,
    p_dens: np.ndarray,
    weights: np.ndarray,
    params: Sequence[ActionParams],
    h: float,
) -> LocalizedQuantities:
    """Weight the E, Q and P densities by the cutoffs and sum the actions."""
    e_j = weights @ e_dens * h
    q_j = weights @ q_dens * h
    p_j = weights @ p_dens * h
    total = float(
        sum(
            e_j[j] + params[j].omega_over_gamma * q_j[j] + params[j].v * p_j[j]
            for j in range(len(weights))
        )
    )
    return LocalizedQuantities(e_j, q_j, p_j, total)


def localized_quantities(
    w: Field, weights: np.ndarray, params: Sequence[ActionParams]
) -> LocalizedQuantities:
    """Cutoff-weighted energies, charges, momenta and their action sum."""
    if len(params) != len(weights):
        raise ValueError(f"need {len(weights)} ActionParams, got {len(params)}")
    du1 = spectral_derivative(w.u1, w.grid)
    return _localize(
        energy_density(w, du1, params[0].model),
        charge_density(w),
        momentum_density(w, du1),
        weights,
        params,
        w.grid.spacing,
    )


def localized_first_variation(
    r: Field, y: Field, weights: np.ndarray, params: Sequence[ActionParams]
) -> float:
    """Linear Taylor term of the localized action at R in the direction Y.

    The densities of localized_quantities differentiated at R along Y, so
    the cutoff weights stay outside the derivative."""
    if len(params) != len(weights):
        raise ValueError(f"need {len(weights)} ActionParams, got {len(params)}")
    model = params[0].model
    dr1 = spectral_derivative(r.u1, r.grid)
    dy1 = spectral_derivative(y.u1, r.grid)
    r1y1 = np.real(r.u1 * np.conj(y.u1))
    e_dens = (
        np.real(dr1 * np.conj(dy1))
        + model.m * r1y1
        + np.real(r.u2 * np.conj(y.u2))
        - np.abs(r.u1) ** (model.p - 1.0) * r1y1
    )
    q_dens = np.imag(y.u1 * np.conj(r.u2)) + np.imag(r.u1 * np.conj(y.u2))
    p_dens = np.real(dy1 * np.conj(r.u2)) + np.real(dr1 * np.conj(y.u2))
    return _localize(e_dens, q_dens, p_dens, weights, params, r.grid.spacing).action_total
