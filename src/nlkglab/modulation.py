"""Modulation fitting: orthogonal decomposition near a sum of solitons.

Given a field U near a sum of separated solitons, solve for per-soliton
phases, frequencies and positions (velocities stay fixed) so that the
residue Upsilon = U - sum_j R_j(theta_j, omega_j, x_j) is L2 x L2
orthogonal to the symmetry directions i R_j, i J R_j and R_j' of every
component.  That is a 3N-dimensional root-finding problem solved by
Newton; the theta and x tangents of R_j are its symmetry directions i R_j
and -R_j'.  R_j' and dR_j/domega are the closed forms
``profiles.soliton_tangents`` of the sample R_j itself, and the sample is
closed-form too.  Near a genuine soliton sum the Jacobian is diagonally dominant
(cross terms decay exponentially in the separation), so convergence is
quadratic from reasonable seeds.

The pairings are matrix products: every direction and tangent is one real
row of length 4N (``grids.flat``), so the 3N residuals are one mat-vec and
the Jacobian's cross term one (3N, 3N) Gram.  Its residue term moves the
symmetry maps onto Upsilon by their adjoints.  The maps are linear, so
Upsilon's directions are U's less those of the R_j: the fit writes U's
three rows once, from the U' it takes, and a Newton iterate takes no FFT.  An
accepted backtracking trial's sample is the next iterate's, so an iterate
samples each soliton once: that sample gives the residual, the directions
and the omega-tangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .grids import Field, flat, norm_h1l2, spectral_derivative
from .profiles import DomainTooSmallError, SolitonParams, sample_soliton, soliton_tangents

__all__ = [
    "ModulationState",
    "NotInTubeError",
    "DegenerateConfigurationError",
    "fit_modulation",
]

OMEGA_MARGIN = 1e-3
# convergence when every orthogonality residual is below NEWTON_TOL * ||U||
NEWTON_TOL = 1e-12
MAX_NEWTON_ITER = 50


class NotInTubeError(RuntimeError):
    """Newton did not converge: the field is not close to a soliton sum."""


class DegenerateConfigurationError(RuntimeError):
    """The modulation Jacobian is numerically singular."""


@dataclass
class ModulationState:
    """Fitted parameters, the orthogonal residue and convergence data."""

    solitons: list[SolitonParams]
    residual: Field
    ortho_residuals: np.ndarray
    converged: bool
    iterations: int
    condition_number: float

    @property
    def thetas(self) -> np.ndarray:
        return np.array([s.theta for s in self.solitons])

    @property
    def omegas(self) -> np.ndarray:
        return np.array([s.omega for s in self.solitons])

    @property
    def positions(self) -> np.ndarray:
        return np.array([s.x0 for s in self.solitons])

    @property
    def residual_norm(self) -> float:
        return norm_h1l2(self.residual)


def _write_directions(out: np.ndarray, u1, u2, d1, d2) -> None:
    """Write the symmetry directions i w, i J w = (i u2, -i u1) and
    w' = (d1, d2) of w = (u1, u2) into the three complex rows ``out``, each
    the complex view of a ``flat`` row: u1's part, then u2's."""
    size = len(u1)
    np.multiply(1j, u1, out=out[0, :size])
    np.multiply(1j, u2, out=out[0, size:])
    np.multiply(1j, u2, out=out[1, :size])
    np.multiply(-1j, u1, out=out[1, size:])
    out[2, :size], out[2, size:] = d1, d2


def _ortho_vector(u: Field, params: Sequence[SolitonParams]):
    """The orthogonality residuals, the residue U - sum_j R_j, the
    symmetry directions i R_j, i J R_j and R_j' of every component as the
    real (3N, 4N) array of their ``flat`` rows in (j, k) order, and the
    (N, 4N) rows of the dR_j/domega.  R_j' and dR_j/domega are
    ``profiles.soliton_tangents`` of the sample R_j, with no spectral
    derivative; all 4N rows are written straight into one array."""
    g = u.grid
    n, size = len(params), g.points
    comps = [sample_soliton(sp, 0.0, g) for sp in params]
    ups = u.copy()
    for c in comps:
        ups = ups - c
    rows = np.empty((4 * n, 2 * size), complex)  # the 3N directions, then the N omega-tangents
    for j, (sp, c) in enumerate(zip(params, comps)):
        dx, dw = soliton_tangents(sp, c)
        _write_directions(rows[3 * j : 3 * j + 3], c.u1, c.u2, dx.u1, dx.u2)
        rows[3 * n + j, :size], rows[3 * n + j, size:] = dw.u1, dw.u2
    dirs = rows[: 3 * n].view(float)
    return (dirs @ flat(ups)) * g.spacing, ups, dirs, rows[3 * n :].view(float)


# <a, D_k b> = ADJOINT_SIGNS[k] * <D_k a, b> in the real L2 x L2 pairing: i and d/dx
# (Nyquist zeroed) are skew, i J is symmetric
ADJOINT_SIGNS = np.array([-1.0, 1.0, -1.0])


def _jacobian(u_rows: np.ndarray, dirs: np.ndarray, d_omega: np.ndarray, h: float) -> np.ndarray:
    """Derivative of the orthogonality residuals in (theta_l, omega_l, x_l).

    With T_j = (i R_j, dR_j/domega, -R_j') the tangents of R_j and D_k the
    real-linear symmetry maps, J[(i,k),(j,a)] = -<T_{j,a}, D_k R_i>
    + delta_ij <Upsilon, D_k T_{j,a}>.  The residue term is taken through
    the adjoint, s_k <D_k Upsilon, T_{j,a}>, so the symmetry maps act on
    Upsilon once instead of on all 3N tangents.  They are linear, so
    D_k Upsilon = D_k U - sum_j D_k R_j, from the fit's three rows of U
    (``u_rows``) and the rows of ``dirs``.
    """
    n = len(d_omega)
    tan = dirs.copy()
    tan[1::3] = d_omega
    tan[2::3] *= -1.0
    jac = -(dirs @ tan.T) * h
    dups = u_rows - dirs.reshape(n, 3, -1).sum(axis=0)
    ups_term = ADJOINT_SIGNS[:, None] * (dups @ tan.T) * h
    for j in range(n):
        jac[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] += ups_term[:, 3 * j : 3 * j + 3]
    return jac


def _apply(params: Sequence[SolitonParams], vec: np.ndarray) -> list[SolitonParams]:
    triples = vec.reshape(-1, 3)
    return [replace(sp, theta=th, omega=om, x0=x) for sp, (th, om, x) in zip(params, triples)]


def fit_modulation(u: Field, initial: Sequence[SolitonParams]) -> ModulationState:
    """Newton-solve the orthogonality system for (theta_j, omega_j, x_j).

    ``initial`` provides the seeds and the fixed velocities.  Convergence
    is declared when every orthogonality residual is below NEWTON_TOL * ||U||;
    seeds the domain cannot hold or a Jacobian condition number above 1e8
    raise instead of silently projecting.  ``condition_number`` is that of
    the Jacobian at the returned parameters.  The domain rule is the
    sampler's: a seed whose sample raises ``DomainTooSmallError`` raises
    NotInTubeError, a backtracking trial (sampled only inside the frequency
    band) whose sample raises it halves the step, and the tail warnings are
    those of the samples themselves.
    """
    params = list(initial)
    if not params:
        raise ValueError("need at least one soliton to fit")
    sqm = math.sqrt(params[0].model.m)
    g, size = u.grid, u.grid.points
    u_rows = np.empty((3, 2 * size), complex)  # i U, i J U and U', once per fit
    _write_directions(u_rows, u.u1, u.u2, u.du1, spectral_derivative(u.u2, g))
    scale = norm_h1l2(u)
    if scale == 0.0:
        raise NotInTubeError("zero field cannot be modulated")

    u_rows = u_rows.view(float)
    vec = np.array([(sp.theta, sp.omega, sp.x0) for sp in params], dtype=float).ravel()
    current = _apply(params, vec)
    try:
        f0, ups, dirs, d_omega = _ortho_vector(u, current)
    except DomainTooSmallError as exc:
        raise NotInTubeError(f"iterate left the profile family: {exc}") from exc

    for it in range(MAX_NEWTON_ITER):
        jac = _jacobian(u_rows, dirs, d_omega, g.spacing)
        cond = float(np.linalg.cond(jac))
        if not np.isfinite(cond) or cond > 1e8:
            raise DegenerateConfigurationError(
                f"modulation Jacobian condition number {cond:.3e}"
            )
        norm0 = np.max(np.abs(f0))
        if norm0 < NEWTON_TOL * scale:
            return ModulationState(current, ups, f0, True, it, cond)
        full_step = np.linalg.solve(jac, f0)
        # backtracking keeps stray seeds from catapulting the iterate
        lam = 1.0
        for _ in range(8):
            trial = vec - lam * full_step
            if np.all(np.abs(trial[1::3]) < sqm - OMEGA_MARGIN):  # admissible frequencies
                candidate = _apply(params, trial)
                try:
                    sampled = _ortho_vector(u, candidate)
                    if np.max(np.abs(sampled[0])) < norm0:
                        break
                except DomainTooSmallError:  # the domain cannot hold the trial
                    pass
            lam *= 0.5
        else:
            raise NotInTubeError(
                "modulation Newton stalled (no descent direction within the "
                "admissible frequency band)"
            )
        vec, current = trial, candidate
        f0, ups, dirs, d_omega = sampled
    raise NotInTubeError(
        f"modulation Newton did not converge in {MAX_NEWTON_ITER} iterations "
        f"(last residual {norm0:.3e}, tol {NEWTON_TOL * scale:.3e})"
    )

