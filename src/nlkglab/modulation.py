"""Modulation fitting: orthogonal decomposition near a sum of solitons.

Given a field U near a sum of separated solitons, solve for per-soliton
phases, frequencies and positions (velocities stay fixed) so that the
residue Upsilon = U - sum_j R_j(theta_j, omega_j, x_j) is L2 x L2
orthogonal to the symmetry directions i R_j, i J R_j and R_j' of every
component.  That is a 3N-dimensional root-finding problem solved by
Newton with a finite-difference Jacobian; near a genuine soliton sum the
Jacobian is diagonally dominant (cross terms decay exponentially in the
separation), so convergence is quadratic from reasonable seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import Field, Grid, norm_h1l2, pair_inner, spectral_derivative
from .profiles import DomainTooSmallError, FrequencyRangeError, SolitonParams, sample_soliton

__all__ = [
    "ModulationState",
    "TrackReport",
    "NotInTubeError",
    "DegenerateConfigurationError",
    "fit_modulation",
    "track_parameters",
]

OMEGA_MARGIN = 1e-3


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


def _ortho_vector(u: Field, params: Sequence[SolitonParams], grid: Grid):
    """The orthogonality residuals and the residue U - sum_j R_j."""
    comps = [sample_soliton(sp, 0.0, grid) for sp in params]
    ups = u.copy()
    for c in comps:
        ups = ups - c
    out = np.empty(3 * len(comps))
    for j, c in enumerate(comps):
        d1 = Field(1j * c.u1, 1j * c.u2, grid)
        d2 = Field(1j * c.u2, -1j * c.u1, grid)
        d3 = Field(spectral_derivative(c.u1, grid), spectral_derivative(c.u2, grid), grid)
        out[3 * j : 3 * j + 3] = (
            pair_inner(ups, d1),
            pair_inner(ups, d2),
            pair_inner(ups, d3),
        )
    return out, ups


def _apply(params: Sequence[SolitonParams], vec: np.ndarray) -> list[SolitonParams]:
    out = []
    for j, sp in enumerate(params):
        out.append(
            replace(sp, theta=vec[3 * j], omega=vec[3 * j + 1], x0=vec[3 * j + 2])
        )
    return out


def fit_modulation(
    u: Field,
    initial: Sequence[SolitonParams],
    grid: Optional[Grid] = None,
    tol: float = 1e-12,
    max_iter: int = 50,
    fd_step: float = 1e-6,
) -> ModulationState:
    """Newton-solve the orthogonality system for (theta_j, omega_j, x_j).

    ``initial`` provides the seeds and the fixed velocities.  Convergence
    is declared when every orthogonality residual is below tol * ||U||;
    leaving the admissible frequency band or exceeding condition number
    1e8 raises instead of silently projecting.
    """
    grid = grid or u.grid
    params = list(initial)
    sqm = math.sqrt(params[0].model.m)
    scale = norm_h1l2(u)
    if scale == 0.0:
        raise NotInTubeError("zero field cannot be modulated")

    vec = np.empty(3 * len(params))
    for j, sp in enumerate(params):
        vec[3 * j : 3 * j + 3] = (sp.theta, sp.omega, sp.x0)

    cond = float("nan")
    for it in range(max_iter):
        try:
            f0, ups = _ortho_vector(u, _apply(params, vec), grid)
        except (DomainTooSmallError, FrequencyRangeError) as exc:
            raise NotInTubeError(f"iterate left the profile family: {exc}") from exc
        if np.max(np.abs(f0)) < tol * scale:
            return ModulationState(_apply(params, vec), ups, f0, True, it, cond)
        jac = np.empty((3 * len(params), 3 * len(params)))
        try:
            for col in range(3 * len(params)):
                vp = vec.copy()
                vm = vec.copy()
                vp[col] += fd_step
                vm[col] -= fd_step
                jac[:, col] = (
                    _ortho_vector(u, _apply(params, vp), grid)[0]
                    - _ortho_vector(u, _apply(params, vm), grid)[0]
                ) / (2.0 * fd_step)
        except (DomainTooSmallError, FrequencyRangeError) as exc:
            raise NotInTubeError(f"iterate left the profile family: {exc}") from exc
        cond = float(np.linalg.cond(jac))
        if not np.isfinite(cond) or cond > 1e8:
            raise DegenerateConfigurationError(
                f"modulation Jacobian condition number {cond:.3e}"
            )
        full_step = np.linalg.solve(jac, f0)
        # backtracking keeps stray seeds from catapulting the iterate
        norm0 = np.max(np.abs(f0))
        lam = 1.0
        for _ in range(8):
            trial = vec - lam * full_step
            admissible = all(
                abs(trial[3 * j + 1]) < sqm - OMEGA_MARGIN for j in range(len(params))
            )
            if admissible:
                try:
                    descent = (
                        np.max(np.abs(_ortho_vector(u, _apply(params, trial), grid)[0]))
                        < norm0
                    )
                except (DomainTooSmallError, FrequencyRangeError):
                    descent = False
                if descent:
                    break
            lam *= 0.5
        else:
            raise NotInTubeError(
                "modulation Newton stalled (no descent direction within the "
                "admissible frequency band)"
            )
        vec = trial
    raise NotInTubeError(
        f"modulation Newton did not converge in {max_iter} iterations "
        f"(last residual {np.max(np.abs(f0)):.3e}, tol {tol * scale:.3e})"
    )


@dataclass
class TrackReport:
    """Fitted parameters along a trajectory plus centered-difference laws."""

    times: np.ndarray
    states: list[ModulationState]
    residual_norms: np.ndarray
    # per (time, soliton): |d theta/dt - omega/gamma|, |d omega/dt|, |d x/dt - v|
    theta_rate_error: np.ndarray
    omega_rate: np.ndarray
    position_rate_error: np.ndarray


def track_parameters(
    trajectory: Sequence[tuple[float, Field]],
    initial: Sequence[SolitonParams],
    grid: Optional[Grid] = None,
    tol: float = 1e-12,
) -> TrackReport:
    """Fit every snapshot, seeding each fit from the previous one.

    Seeds advance by the unperturbed laws (theta += dt * omega/gamma,
    x += dt * v) to stay inside Newton's quadratic basin.  Parameter
    derivatives are centered differences over the snapshot times; phases
    are unwrapped before differencing.
    """
    if len(trajectory) < 3:
        raise ValueError("need at least 3 snapshots for centered differences")
    grid = grid or trajectory[0][1].grid
    times = np.array([t for t, _ in trajectory])
    seeds = list(initial)
    states: list[ModulationState] = []
    prev_t = times[0]
    for t, f in trajectory:
        seeds = [sp.advanced(t - prev_t) for sp in seeds]
        st = fit_modulation(f, seeds, grid, tol=tol)
        states.append(st)
        seeds = st.solitons
        prev_t = t

    thetas = np.unwrap(np.array([st.thetas for st in states]), axis=0)
    omegas = np.array([st.omegas for st in states])
    positions = np.array([st.positions for st in states])
    gammas = np.array([sp.gamma for sp in initial])
    vels = np.array([sp.v for sp in initial])

    dt2 = (times[2:] - times[:-2])[:, None]
    dth = (thetas[2:] - thetas[:-2]) / dt2 - omegas[1:-1] / gammas[None, :]
    dom = (omegas[2:] - omegas[:-2]) / dt2
    dx = (positions[2:] - positions[:-2]) / dt2 - vels[None, :]
    return TrackReport(
        times=times,
        states=states,
        residual_norms=np.array([st.residual_norm for st in states]),
        theta_rate_error=dth,
        omega_rate=dom,
        position_rate_error=dx,
    )
