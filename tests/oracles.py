"""Reference implementations the tests compare the library against.

Closed forms and second computations that no nlkglab program runs: the
Nehari functional and its ray projection, the ramp derivative, the
standing-wave energy by quadrature and by scaling, the Pohozaev ratio, the
profile tail slope, the closed-form frequency slope, the differentiated
critical-point residual and the essential-spectrum floor.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from nlkglab.functionals import ActionParams, action_gradient, energy
from nlkglab.grids import Field, Grid, flat, symmetry_directions
from nlkglab.profiles import GroundState, ModelParams, ground_state_1d
from nlkglab.spectrum import (
    RealizedOperator,
    _free_symbol_eigenvalues,
    _frequency_derivative,
)


def pair_inner(a: Field, b: Field) -> float:
    """Real L2 x L2 pairing of two Hamiltonian states."""
    g = a.grid
    return float(
        np.real(np.sum(a.u1 * np.conj(b.u1) + a.u2 * np.conj(b.u2))) * g.spacing
    )


# Along a ray s -> S(sW) the quadratic part scales as s^2 and the nonlinear
# part as s^(p+1), so the Nehari constraint <S'(sW), sW> = 0 has the unique
# positive solution written in closed form below; it is the maximum of the
# ray, which is how the mountain-pass level is represented here.


class NehariProjectionError(ValueError):
    """The ray through W has no interior action maximum."""


def nehari_value(w: Field, ap: ActionParams) -> float:
    """Nehari functional I(W) = <S'(W), W>."""
    return pair_inner(action_gradient(w, ap), w)


def _ray_parts(w: Field, ap: ActionParams) -> tuple[float, float]:
    """(quadratic part of I, nonlinear part of I): I(sW) = s^2 a - s^(p+1) b."""
    p = ap.model.p
    h = w.grid.spacing
    nonlin = float(np.sum(np.abs(w.u1) ** (p + 1.0)) * h)
    quad = nehari_value(w, ap) + nonlin
    return quad, nonlin


def nehari_project(w: Field, ap: ActionParams) -> tuple[float, Field]:
    """Scale W onto the Nehari set: s* with I(s* W) = 0, maximizing s -> S(sW)."""
    quad, nonlin = _ray_parts(w, ap)
    if nonlin <= 0.0:
        raise NehariProjectionError("first component vanishes; no ray maximum")
    if quad <= 0.0:
        raise NehariProjectionError("quadratic part non-positive; no interior maximum")
    s_star = (quad / nonlin) ** (1.0 / (ap.model.p - 1.0))
    return s_star, s_star * w


def ramp_derivative(s: np.ndarray | float):
    s = np.asarray(s, dtype=float)
    inside = (s > -1.0) & (s < 1.0)
    out = np.zeros_like(s)
    out[inside] = (np.pi / 4.0) * np.sin(np.pi * (s[inside] + 1.0) / 2.0)
    return out


def standing_wave_energy(model: ModelParams, omega: float, grid: Grid) -> float:
    """Energy of the standing wave (phi_omega, i omega phi_omega) by quadrature."""
    phi = ground_state_1d(model, omega, grid).samples
    return energy(Field(phi, 1j * omega * phi, grid), model)


def standing_wave_energy_scaling(model: ModelParams, omega: float) -> float:
    """Closed-form standing-wave energy per unit ||phi_tilde||_2^2.

    The scaling relations reduce E(Phi_omega) to powers of (m - omega^2)
    times ||phi_tilde||^2.  The gradient term carries the Pohozaev factor
    d(p-1)/(2d-(d-2)(p+1)); replacing that factor by 1 reproduces a commonly
    quoted but inconsistent collapsed formula (0.492 vs 0.456 at m=1, p=3,
    d=1, omega=0.8).  Direct quadrature (``standing_wave_energy``) is the
    ground truth and matches this form.
    """
    m, p, d = model.m, model.p, model.d
    mu = m - omega * omega
    a_grad = (p * (2 - d) + 2 + d) / (2 * (p - 1))
    a_mass = (4 - d * (p - 1)) / (2 * (p - 1))
    poho = pohozaev_ratio(model)
    return (
        (p - 1) / (2 * (p + 1)) * (poho * mu**a_grad + m * mu**a_mass)
        + (p + 3) / (2 * (p + 1)) * omega**2 * mu**a_mass
    )


def pohozaev_ratio(model: ModelParams) -> float:
    """||grad phi_tilde||^2 / ||phi_tilde||^2 from the Pohozaev identity."""
    p, d = model.p, model.d
    return d * (p - 1) / (2 * d - (d - 2) * (p + 1))


def tail_log_slope(gs: GroundState) -> float:
    """Log-linear slope of the profile tail over the outer quarter of the domain.

    For an exponentially decaying profile this approaches -sqrt(m - omega^2).
    """
    if gs.grid is None:
        raise ValueError("tail_log_slope needs a grid-sampled ground state")
    x = gs.grid.x
    mask = (x > 0.25 * gs.grid.length) & (x < 0.5 * gs.grid.length - 2 * gs.grid.spacing)
    vals = gs.samples[mask]
    usable = vals > 1e-280
    coef = np.polyfit(x[mask][usable], np.log(vals[usable]), 1)
    return float(coef[0])


def slope_analytic(model: ModelParams, omega: float, gamma: float, phi_tilde_norm2: float) -> float:
    """Closed form d/domega [omega (m - omega^2)^(2/(p-1) - d/2)] * ||phi_tilde||^2 / gamma."""
    e = 2.0 / (model.p - 1.0) - model.d / 2.0
    mu = model.m - omega * omega
    return (mu**e - 2.0 * e * omega**2 * mu ** (e - 1.0)) * phi_tilde_norm2 / gamma


def frequency_derivative_residual(
    phi_family: Callable[[float], Field],
    omega: float,
    gamma: float,
    op: RealizedOperator,
) -> float:
    """L2 norm of S''(Phi) dPhi/domega + (1/gamma) iJ Phi.

    Differentiating the critical-point equation in omega shows this vanishes;
    the discrete value is differencing plus assembly error.
    """
    lam = _frequency_derivative(phi_family, omega)
    i_j_phi = symmetry_directions(op.profile)[1]
    res = op.matvec(flat(lam)) + (1.0 / gamma) * flat(i_j_phi)
    return float(np.linalg.norm(res) * math.sqrt(op.grid.spacing))


def free_operator_floor(ap: ActionParams, grid: Grid) -> float:
    """Smallest eigenvalue of the potential-free operator (essential-spectrum floor):
    the lowest unwhitened symbol eigenvalue (``_free_symbol_eigenvalues``, g = 1)."""
    return float(np.min(_free_symbol_eigenvalues(ap, grid.deriv_wavenumbers, 1.0)[0]))
