"""Conserved functionals, the action and moving cutoffs.

The flow conserves the energy E, the charge Q = Im int u1 conj(u2) and the
momentum P = Re int (d/dx u1) conj(u2).  A soliton with frequency omega and
velocity v is a critical point of the action

    S = E + (omega/gamma) Q + v P,

whose gradient in the real L2 pairing is

    S'(W) = ( -u1'' + m u1 - |u1|^(p-1) u1 + i (omega/gamma) u2 - v u2',
              u2 - i (omega/gamma) u1 + v u1' ).

The E, Q and P densities are half the diagonals of symmetric bilinear forms
(``energy_form``, ``charge_form``, ``momentum_form``), which the localized
quantities, the action and both Taylor terms of the localized action read
through one weighting by the cutoffs.  Every form, density and flux reads
u1' as the field's own ``Field.du1``, so a field's derivative is taken once
however many of them read it.

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

from .grids import Field, Grid, norm_l2l2, raise_problems
from .profiles import ModelParams, SolitonParams

__all__ = [
    "ActionParams",
    "LocalizedQuantities",
    "velocity_problems",
    "energy_form",
    "charge_form",
    "momentum_form",
    "energy_density",
    "charge_density",
    "momentum_density",
    "flux_densities",
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
    "localized_hessian_form",
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


def energy_form(a: Field, b: Field, m: float) -> np.ndarray:
    """The symmetric bilinear form Re a1' conj(b1') + m Re a1 conj(b1) + Re a2 conj(b2)
    of the energy."""
    e11 = np.real(a.du1 * np.conj(b.du1))
    return e11 + m * np.real(a.u1 * np.conj(b.u1)) + np.real(a.u2 * np.conj(b.u2))


# np.real and np.imag are strided views, which a BLAS product with the cutoff
# weights sums in another order than a contiguous array: the halves are copied
def _charge_half(a: Field, b: Field) -> np.ndarray:
    """Im a1 conj(b2): the charge form is its symmetrization, the density its diagonal."""
    return np.imag(a.u1 * np.conj(b.u2)).copy()


def _momentum_half(a: Field, b: Field) -> np.ndarray:
    """Re a1' conj(b2): the momentum form is its symmetrization, the density its diagonal."""
    return np.real(a.du1 * np.conj(b.u2)).copy()


def charge_form(a: Field, b: Field) -> np.ndarray:
    """The symmetric bilinear form Im a1 conj(b2) + Im b1 conj(a2) of the charge."""
    return _charge_half(a, b) + _charge_half(b, a)


def momentum_form(a: Field, b: Field) -> np.ndarray:
    """The symmetric bilinear form Re a1' conj(b2) + Re b1' conj(a2) of the momentum."""
    return _momentum_half(a, b) + _momentum_half(b, a)


def energy_density(w: Field, model: ModelParams) -> np.ndarray:
    quad = energy_form(w, w, model.m)
    return 0.5 * quad - np.abs(w.u1) ** (model.p + 1.0) / (model.p + 1.0)


def charge_density(w: Field) -> np.ndarray:
    return _charge_half(w, w)


def momentum_density(w: Field) -> np.ndarray:
    return _momentum_half(w, w)


def flux_densities(w: Field, model: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The charge and momentum fluxes, Im u1' conj(u1) and -|u1'|^2/2 + m|u1|^2/2
    - |u2|^2/2 - |u1|^(p+1)/(p+1): d/dt int q c = int (charge flux) c' for a
    fixed window c, and so for p."""
    momentum_flux = energy_density(w, model) - np.abs(w.du1) ** 2 - np.abs(w.u2) ** 2
    return np.imag(w.du1 * np.conj(w.u1)), momentum_flux


def second_variation_potential(q: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The linearization of |u|^(p-1) u at q, z -> w1 z + w2 conj(z), as (w1, w2):
    w1 = (p+1)/2 |q|^(p-1) and w2 = (p-1)/2 |q|^(p-3) q^2 (zero where q is)."""
    absq = np.abs(q)
    w1 = 0.5 * (p + 1.0) * absq ** (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = 0.5 * (p - 1.0) * np.where(absq > 0, absq ** (p - 3.0), 0.0) * q * q
    return w1, w2


def energy(w: Field, model: ModelParams) -> float:
    return float(np.sum(energy_density(w, model)) * w.grid.spacing)


def charge(w: Field) -> float:
    return float(np.sum(charge_density(w)) * w.grid.spacing)


def momentum(w: Field) -> float:
    return float(np.sum(momentum_density(w)) * w.grid.spacing)


def action(w: Field, ap: ActionParams) -> float:
    """S(W) = E + (omega/gamma) Q + v P: the localized action of one cell of unit weight."""
    return localized_quantities(w, np.ones((1, w.grid.points)), [ap]).action_total


def action_symbol(ap: ActionParams, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Fourier symbol of the quadratic part of S at wavenumbers k: a = k^2 + m
    on u1, and b = omega/gamma - v k, the symbol of the coupling i b between u1
    and u2.  S', S'' and the spectrum's Schur complement and whitened product all read it."""
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
    """The moving partition of unity at a finite time t > 0 separating solitons by
    velocity, as its (N, points) weights, one row per velocity in ascending order.

    Weight j is psi_j - psi_{j+1} (the last one is psi_N), where
    psi_j(x) = ramp((x - midpoint_j * t)/sqrt(t)), the ramp width sqrt(t), and
    psi_1 = 1; midpoint_j is the mean of velocities j-1 and j.  The telescoping
    sum is identically 1.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"cutoff time must be positive and finite, got {t}")
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


def _cell_model(weights: np.ndarray, params: Sequence[ActionParams], *per_cell: Sequence):
    """The model of the cutoff cells, once ``params`` and every ``per_cell``
    sequence (the quadratic term's soliton samples) hold one entry per weight
    row, of which there is one or more."""
    n, counts = len(weights), [len(params)] + [len(c) for c in per_cell]
    if n == 0 or any(c != n for c in counts):
        raise ValueError(f"{n} cutoff weight rows need as many ActionParams and samples, got {counts}")
    return params[0].model


def _localize(
    e_dens: np.ndarray, q_dens: np.ndarray, p_dens: np.ndarray,
    weights: np.ndarray, params: Sequence[ActionParams], h: float,
) -> LocalizedQuantities:
    """Weight the E, Q and P densities by the cutoffs and sum the actions.  The
    E density is one row that every cell shares, or one row per cell."""
    e_j = (np.einsum("jx,jx->j", weights, e_dens) if e_dens.ndim == 2 else weights @ e_dens) * h
    q_j = weights @ q_dens * h
    p_j = weights @ p_dens * h
    total = sum(e_j[j] + ap.omega_over_gamma * q_j[j] + ap.v * p_j[j] for j, ap in enumerate(params))
    return LocalizedQuantities(e_j, q_j, p_j, float(total))


def localized_quantities(
    w: Field, weights: np.ndarray, params: Sequence[ActionParams]
) -> LocalizedQuantities:
    """Cutoff-weighted energies, charges, momenta and their action sum."""
    e_dens = energy_density(w, _cell_model(weights, params))
    q_dens, p_dens = charge_density(w), momentum_density(w)
    return _localize(e_dens, q_dens, p_dens, weights, params, w.grid.spacing)


def localized_first_variation(
    r: Field, y: Field, weights: np.ndarray, params: Sequence[ActionParams]
) -> float:
    """Linear Taylor term of the localized action at R in the direction Y: the
    forms at (R, Y) less the derivative of the nonlinear term, so the cutoff
    weights stay outside the derivative."""
    model = _cell_model(weights, params)
    nonlinear = np.abs(r.u1) ** (model.p - 1.0) * np.real(r.u1 * np.conj(y.u1))
    e_dens = energy_form(r, y, model.m) - nonlinear
    q_dens, p_dens = charge_form(r, y), momentum_form(r, y)
    return _localize(e_dens, q_dens, p_dens, weights, params, r.grid.spacing).action_total


def localized_hessian_form(
    y: Field, comps: Sequence[Field], weights: np.ndarray, params: Sequence[ActionParams]
) -> float:
    """Quadratic Taylor term: 1/2 sum_j <S_j''(R_j) Y, Y> with cutoff weights, for
    the sampled solitons R_j in ``comps``: the forms at (Y, Y), less the
    potential of each S_j'' at R_j, one row per cell, halved."""
    model = _cell_model(weights, params, comps)
    pots = np.empty((len(comps), y.grid.points))
    for row, rj in zip(pots, comps):
        w1, w2 = second_variation_potential(rj.u1, model.p)
        row[:] = np.real(np.conj(y.u1) * (w1 * y.u1 + w2 * np.conj(y.u1)))
    e_dens = energy_form(y, y, model.m) - pots
    q_dens, p_dens = charge_form(y, y), momentum_form(y, y)
    return 0.5 * _localize(e_dens, q_dens, p_dens, weights, params, y.grid.spacing).action_total
