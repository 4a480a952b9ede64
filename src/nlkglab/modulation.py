"""Modulation fitting: orthogonal decomposition near a sum of solitons.

Given a field U near a sum of separated solitons, solve for per-soliton
phases, frequencies and positions (velocities stay fixed) so that the
residue Upsilon = U - sum_j R_j(theta_j, omega_j, x_j) is L2 x L2
orthogonal to the symmetry directions i R_j, i J R_j and R_j' of every
component.  That is a 3N-dimensional root-finding problem solved by
Newton; the theta and x tangents of R_j are its symmetry directions i R_j
and -R_j', and dR_j/domega is the closed form ``profiles.frequency_tangent``
of the sample R_j itself.  Near a genuine soliton sum the Jacobian is
diagonally dominant (cross terms decay exponentially in the separation), so
convergence is quadratic from reasonable seeds.

The pairings are matrix products: every direction and tangent is one real
row of length 4N (``grids.flat``), so the 3N residuals are one mat-vec and
the Jacobian's cross term one (3N, 3N) Gram.  Its residue term moves the
symmetry maps onto Upsilon by their adjoints, and an accepted backtracking
trial's sample is the next iterate's, so an iterate samples each soliton
once: the residual's sample also gives the omega-tangent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .grids import Field, flat, norm_h1l2, symmetry_directions
from .profiles import DomainTooSmallError, FrequencyRangeError, SolitonParams
from .profiles import frequency_tangent, sample_soliton

__all__ = [
    "ModulationState",
    "TrackReport",
    "NotInTubeError",
    "DegenerateConfigurationError",
    "fit_modulation",
    "track_parameters",
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


def _ortho_vector(u: Field, params: Sequence[SolitonParams]):
    """The orthogonality residuals, the residue U - sum_j R_j, the
    symmetry directions D_k R_j of every component, stacked as the real
    (3N, 4N) array of their ``flat`` rows in (j, k) order, and the R_j."""
    comps = [sample_soliton(sp, 0.0, u.grid) for sp in params]
    ups = u.copy()
    for c in comps:
        ups = ups - c
    dirs = np.stack([flat(d) for c in comps for d in symmetry_directions(c)])
    return (dirs @ flat(ups)) * u.grid.spacing, ups, dirs, comps


# <a, D_k b> = ADJOINT_SIGNS[k] * <D_k a, b> in the real L2 x L2 pairing: i and d/dx
# (Nyquist zeroed) are skew, i J is symmetric
ADJOINT_SIGNS = np.array([-1.0, 1.0, -1.0])


def _jacobian(
    ups: Field, dirs: np.ndarray, comps: Sequence[Field], params: Sequence[SolitonParams]
) -> np.ndarray:
    """Derivative of the orthogonality residuals in (theta_l, omega_l, x_l).

    With T_j = (i R_j, dR_j/domega, -R_j') the tangents of R_j and D_k the
    real-linear symmetry maps, J[(i,k),(j,a)] = -<T_{j,a}, D_k R_i>
    + delta_ij <Upsilon, D_k T_{j,a}>.  The residue term is taken through
    the adjoint, s_k <D_k Upsilon, T_{j,a}>, so the symmetry maps act on
    Upsilon once instead of on all 3N tangents.
    """
    grid = ups.grid
    rows = []
    for j, (sp, comp) in enumerate(zip(params, comps)):
        rows += [dirs[3 * j], flat(frequency_tangent(sp, comp)), -dirs[3 * j + 2]]
    tan = np.stack(rows)
    jac = -(dirs @ tan.T) * grid.spacing
    dups = np.stack([flat(d) for d in symmetry_directions(ups)])
    ups_term = ADJOINT_SIGNS[:, None] * (dups @ tan.T) * grid.spacing
    for j in range(len(params)):
        jac[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] += ups_term[:, 3 * j : 3 * j + 3]
    return jac


def _apply(params: Sequence[SolitonParams], vec: np.ndarray) -> list[SolitonParams]:
    triples = vec.reshape(-1, 3)
    return [replace(sp, theta=th, omega=om, x0=x) for sp, (th, om, x) in zip(params, triples)]


def _reissue(caught, accepted: bool) -> None:
    """Issue a backtracking trial's recorded warnings where its sampling
    raised them; a rejected trial's UserWarnings (tails of a step that is
    not taken) are dropped."""
    registry = globals().setdefault("__warningregistry__", {})
    for w in caught:
        if accepted or not issubclass(w.category, UserWarning):
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno, module=__name__, registry=registry
            )


def fit_modulation(u: Field, initial: Sequence[SolitonParams]) -> ModulationState:
    """Newton-solve the orthogonality system for (theta_j, omega_j, x_j).

    ``initial`` provides the seeds and the fixed velocities.  Convergence
    is declared when every orthogonality residual is below NEWTON_TOL * ||U||;
    leaving the admissible frequency band or a Jacobian condition number
    above 1e8 raises instead of silently projecting.  ``condition_number``
    is that of the Jacobian at the returned parameters.  An accepted
    backtracking trial's residuals, residue and directions are the next
    iterate's, and the warnings its sampling raised are issued on acceptance.
    """
    params = list(initial)
    sqm = math.sqrt(params[0].model.m)
    scale = norm_h1l2(u)
    if scale == 0.0:
        raise NotInTubeError("zero field cannot be modulated")

    vec = np.array([(sp.theta, sp.omega, sp.x0) for sp in params], dtype=float).ravel()
    sampled = None

    for it in range(MAX_NEWTON_ITER):
        current = _apply(params, vec)
        try:
            f0, ups, dirs, comps = sampled if sampled is not None else _ortho_vector(u, current)
        except (DomainTooSmallError, FrequencyRangeError) as exc:
            raise NotInTubeError(f"iterate left the profile family: {exc}") from exc
        jac = _jacobian(ups, dirs, comps, current)
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
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        sampled = _ortho_vector(u, _apply(params, trial))
                        descent = np.max(np.abs(sampled[0])) < norm0
                    except (DomainTooSmallError, FrequencyRangeError):
                        descent = False
                _reissue(caught, descent)
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
        f"modulation Newton did not converge in {MAX_NEWTON_ITER} iterations "
        f"(last residual {norm0:.3e}, tol {NEWTON_TOL * scale:.3e})"
    )


@dataclass
class TrackReport:
    """Fitted parameters along a trajectory plus centered-difference laws."""

    times: np.ndarray
    states: list[ModulationState]
    # per (time, soliton): |d theta/dt - omega/gamma|, |d omega/dt|, |d x/dt - v|
    theta_rate_error: np.ndarray
    omega_rate: np.ndarray
    position_rate_error: np.ndarray

    @property
    def residual_norms(self) -> np.ndarray:
        return np.array([st.residual_norm for st in self.states])


def track_parameters(
    trajectory: Sequence[tuple[float, Field]],
    initial: Sequence[SolitonParams],
) -> TrackReport:
    """Fit every snapshot, seeding each fit from the previous one.

    Seeds advance by the unperturbed laws (theta += dt * omega/gamma,
    x += dt * v) to stay inside Newton's quadratic basin.  Parameter
    derivatives are centered differences over the snapshot times; phases
    are unwrapped before differencing.
    """
    if len(trajectory) < 3:
        raise ValueError("need at least 3 snapshots for centered differences")
    times = np.array([t for t, _ in trajectory])
    seeds = list(initial)
    states: list[ModulationState] = []
    prev_t = times[0]
    for t, f in trajectory:
        seeds = [sp.advanced(t - prev_t) for sp in seeds]
        st = fit_modulation(f, seeds)
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
        theta_rate_error=dth,
        omega_rate=dom,
        position_rate_error=dx,
    )
