"""Modulation fitting: orthogonal decomposition near a sum of solitons.

Given a field U near a sum of separated solitons, solve for per-soliton
phases, frequencies and positions (velocities stay fixed) so that the
residue Upsilon = U - sum_j R_j(theta_j, omega_j, x_j) is L2 x L2
orthogonal to the symmetry directions i R_j, i J R_j and R_j' of every
component.  That is a 3N-dimensional root-finding problem solved by
Newton; the theta and x tangents of R_j are its symmetry directions i R_j
and -R_j'.  R_j' and dR_j/domega are closed forms of the sample R_j itself,
and the sample is closed-form too.  Near a genuine soliton sum the Jacobian
is diagonally dominant (cross terms decay exponentially in the separation),
so convergence is quadratic from reasonable seeds.

The pairings are matrix products: every direction and tangent is one real
row of length 4N (``grids.flat``), so the 3N residuals are one mat-vec and
the Jacobian's cross term one (3N, 3N) Gram.  Its residue term moves the
symmetry maps onto Upsilon by their adjoints.  The maps are linear, so
Upsilon's directions are U's less those of the R_j: U's written once per
fit by ``grids.symmetry_rows``, and R_j's with its omega-tangent by the
sampler, ``profiles.sample_soliton`` with views into a row buffer, in the
pass that samples R_j.  So a Newton iterate takes no FFT.  An accepted
backtracking trial's sample is the next iterate's, so an iterate samples
each soliton once: that one pass gives the residual, the directions and
the omega-tangent.

A fit allocates its workspace once: two (4N, 2N) row buffers and a (3, 4N)
scratch for D_k Upsilon.  The iterate's rows sit in one buffer and every
backtracking trial writes into the other, so a rejected trial leaves the
iterate's rows as they were; an accepted trial's buffer becomes the
iterate's.  The Jacobian pairs the rows in place, so a Newton iterate
allocates nothing larger than a field: the residue and the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import ADJOINT_SIGNS, Field, NumericalFailure, norm_h1l2, symmetry_rows
from .profiles import DomainTooSmallError, SolitonParams, sample_soliton

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


class NotInTubeError(NumericalFailure):
    """Newton did not converge: the field is not close to a soliton sum."""


class DegenerateConfigurationError(NumericalFailure):
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


def _ortho_vector(u: Field, params: Sequence[SolitonParams], rows: np.ndarray):
    """The orthogonality residuals, the residue U - sum_j R_j and ``rows``
    itself: a (4N, 2N) complex buffer that the samples fill with the symmetry
    directions i R_j, i J R_j and R_j' of every component in (j, k) order,
    then the N dR_j/domega, each row the complex view of a ``flat`` row.  Each
    sample writes its own four in the pass that samples R_j
    (``profiles.sample_soliton`` with views), with no spectral derivative."""
    g = u.grid
    n, size = len(params), g.points
    ups = np.concatenate((u.u1, u.u2))
    for j, sp in enumerate(params):
        c = sample_soliton(sp, 0.0, g, rows[3 * j : 3 * j + 3], rows[3 * n + j])
        ups[:size] -= c.u1
        ups[size:] -= c.u2
    f = (rows[: 3 * n].view(float) @ ups.view(float)) * g.spacing
    return f, Field(ups[:size], ups[size:], g), rows


def _jacobian(u_rows: np.ndarray, rows: np.ndarray, h: float, dups: np.ndarray) -> np.ndarray:
    """Derivative of the orthogonality residuals in (theta_l, omega_l, x_l).

    With T_j = (i R_j, dR_j/domega, -R_j') the tangents of R_j and D_k the
    real-linear symmetry maps, J[(i,k),(j,a)] = -<T_{j,a}, D_k R_i>
    + delta_ij <Upsilon, D_k T_{j,a}>.  The residue term is taken through
    the adjoint, s_k <D_k Upsilon, T_{j,a}>, so the symmetry maps act on
    Upsilon once instead of on all 3N tangents.  They are linear, so
    D_k Upsilon = D_k U - sum_j D_k R_j, from the fit's three rows of U
    (``u_rows``) and the directions among ``rows`` (``_ortho_vector``),
    written into ``dups``, a (3, 4N) scratch.  Both terms pair with every
    row of ``rows`` at once; the tangents are columns of those products,
    picked and signed.
    """
    n = len(rows) // 4
    flat_rows = rows.view(float)
    dirs = flat_rows[: 3 * n]
    # T_{j,a}: the rows i R_j and R_j' of the directions, and the j-th omega-tangent row
    cols = np.array([(3 * j, 3 * n + j, 3 * j + 2) for j in range(n)]).ravel()
    signs = np.tile([1.0, 1.0, -1.0], n)
    jac = (dirs @ flat_rows.T)[:, cols] * (-h * signs)
    dirs.reshape(n, 3, -1).sum(axis=0, out=dups)
    np.subtract(u_rows, dups, out=dups)
    ups_term = (dups @ flat_rows.T)[:, cols] * (ADJOINT_SIGNS[:, None] * signs * h)
    for j in range(n):
        jac[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] += ups_term[:, 3 * j : 3 * j + 3]
    return jac


def _apply(params: Sequence[SolitonParams], vec: np.ndarray) -> list[SolitonParams]:
    triples = vec.reshape(-1, 3)
    return [SolitonParams(sp.model, om, th, sp.v, x) for sp, (th, om, x) in zip(params, triples)]


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
    those of the samples themselves.  U's rows, ``grids.symmetry_rows(u)``, take its only FFTs.
    """
    params = list(initial)
    if not params:
        raise ValueError("need at least one soliton to fit")
    sqm = math.sqrt(params[0].model.m)
    u_rows = symmetry_rows(u).view(float)  # i U, i J U and U', once per fit
    scale = norm_h1l2(u)
    if scale == 0.0:
        raise NotInTubeError("zero field cannot be modulated")

    # the workspace: the iterate's rows, the trial's rows and D_k Upsilon
    n, size = len(params), u.grid.points
    rows, spare = (np.empty((4 * n, 2 * size), complex) for _ in range(2))
    dups = np.empty((3, 4 * size))
    vec = np.array([(sp.theta, sp.omega, sp.x0) for sp in params], dtype=float).ravel()
    current = _apply(params, vec)
    try:
        f0, ups, rows = _ortho_vector(u, current, rows)
    except DomainTooSmallError as exc:
        raise NotInTubeError(f"iterate left the profile family: {exc}") from exc

    for it in range(MAX_NEWTON_ITER):
        jac = _jacobian(u_rows, rows, u.grid.spacing, dups)
        s = np.linalg.svd(jac, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):  # s[-1] = 0: inf or NaN, refused below
            cond = float(s[0] / s[-1])
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
                    sampled = _ortho_vector(u, candidate, spare)
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
        # the accepted trial's buffer holds the next iterate's rows; the old one takes the next trials
        spare = rows
        f0, ups, rows = sampled
    raise NotInTubeError(
        f"modulation Newton did not converge in {MAX_NEWTON_ITER} iterations "
        f"(last residual {norm0:.3e}, tol {NEWTON_TOL * scale:.3e})"
    )
