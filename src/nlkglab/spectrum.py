"""Structured realization of the second variation of the action at a soliton.

The operator is real-linear but not complex-linear (the nonlinearity
linearizes to terms in both z1 and conj(z1)), so a field is flattened by
``grids.flat`` and the operator becomes a symmetric real operator M of size
(4N)^2.  Acting on the complex view Z = (z1, z2) of that vector:

    first component:  -z1'' + m z1 - (p+1)/2 |q|^(p-1) z1
                      - (p-1)/2 |q|^(p-3) q^2 conj(z1)
                      + i (omega/gamma) z2 - v z2'
    second component:  z2 - i (omega/gamma) z1 + v z1'

with q the first component of the profile.  M is never formed: it is held as
its potential and constants, and each question is asked of the realization
that answers it in the fewest transforms.  The kernel is spanned by the phase
and translation modes i*Phi and Phi', and there is exactly one negative
eigenvalue inside the stability window.  Both counts are read off the low end
of the 2N x 2N Schur complement S of the identity z2 block, applied by one
complex FFT pair plus the potential: block LOBPCG preconditioned by the
inverse of S's shifted free symbol finds its lowest eigenvalues, and Kahan's
residual bound on its last block certifies them.  On the subspace
L2-orthogonal to {Phi', iJPhi, iPhi}, the rows of ``grids.symmetry_rows``
that the fit also reads, the quadratic form is coercive in the H1 x L2
metric; delta, the minimal constrained Rayleigh quotient, is the lowest
eigenvalue of the Gram-whitened W M W (``RealizedOperator.whitened_matvec``)
on the complement of the whitened constraints, found by the same LOBPCG on
one vector held in that complement (``_constrained_lowest``) and certified
the same way.  The slope test reads the quadratic form from the density
forms of the localized action (``functionals.localized_hessian_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .functionals import ActionParams, action_symbol, gradient_norm, localized_hessian_form
from .functionals import second_variation_potential
from .grids import Field, symmetry_rows
from .profiles import points_per_width

__all__ = [
    "RealizedOperator",
    "SpectrumReport",
    "AssemblyError",
    "assemble_second_variation",
    "spectrum_report",
    "slope_test",
]


# eigenvalues of S below KERNEL_REL_TOL * max(a - b^2), the top of its free
# symbol, in magnitude count as kernel
KERNEL_REL_TOL = 1e-6

# The low end of S: LOBPCG on a block of LOW_END_BLOCK wanted and LOW_END_GUARD
# guard vectors, preconditioned by 1/(a - b^2 - min(a - b^2) + PRECONDITIONER_SHIFT),
# until the block residual is at most LOBPCG_TOL or after LOBPCG_MAXITER steps.
# Block, guard and shift are measured: the tested profiles take 26 to 90 steps.
LOW_END_BLOCK = 4
LOW_END_GUARD = 2
PRECONDITIONER_SHIFT = 0.05
LOBPCG_TOL = 1e-6
LOBPCG_MAXITER = 300

# delta's stop residual: delta then agrees with a machine-precision solve to 4e-14 (5e-11 at LOBPCG_TOL)
DELTA_TOL = 1e-8

# the Kahan bound certifies the counts only when at most KAHAN_MARGIN * the kernel tolerance
KAHAN_MARGIN = 0.25


# frequency step of the centered difference of the profile family
OMEGA_STEP = 1e-4


def _frequency_derivative(phi_family, omega):
    """Centered omega-difference of the profile family."""
    wp = phi_family(omega + OMEGA_STEP)
    wm = phi_family(omega - OMEGA_STEP)
    return (1.0 / (2.0 * OMEGA_STEP)) * (wp - wm)


class AssemblyError(RuntimeError):
    """Profile failed the criticality precondition, the low end of S was not
    certified, or the delta solve did not converge."""


@dataclass
class RealizedOperator:
    """The second variation M at a profile, held as what defines it: the
    potential w1 (real) and w2 (complex) of ``second_variation_potential``
    beside omega/gamma, v and m in ``params``.

    On the complex view (z1, z2) of a flattened field, with the Fourier
    multipliers a and b of ``functionals.action_symbol`` on the Nyquist-zeroed
    wavenumbers:

        M Z = (a z1 + i b z2 - w1 z1 - w2 conj(z1),  z2 - i b z1).

    ``whitened_matvec`` applies W M W in Fourier space, with W = G^(-1/2) the
    H1 x L2 whitening: G is the Gram of the flattening, the multiplier
    g = 1 + k^2 on z1 and the identity on z2.  ``_schur_low_end`` applies its
    Schur complement."""

    profile: Field
    params: ActionParams
    w1: np.ndarray
    w2: np.ndarray

    @cached_property
    def _whitened_symbol(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a g^-1, i b g^-1/2, g^-1/2): the Fourier multipliers of W M_free W
        and the whitening on z1, with a and b from ``action_symbol`` and
        g = 1 + k^2."""
        k = self.profile.grid.deriv_wavenumbers
        a, b = action_symbol(self.params, k)
        r = (1.0 + k**2) ** -0.5
        return a * r * r, 1j * b * r, r

    def whitened_matvec(self, z: np.ndarray) -> np.ndarray:
        """W M W z for a flattened field of length 4N, or for each row of a
        (k, 4N) stack.  With r = g^-1/2 and hats for Fourier transforms:

            W M W Z = (ifft(a/g z1^ + i b r z2^ - r fft(w1 y1 + w2 conj(y1))),
                       ifft(z2^ - i b r z1^)),   y1 = ifft(r z1^),

        six transforms: one stacked FFT of (z1, z2), the inverse FFT of y1
        where the potential acts, the FFT of the potential term and one
        stacked inverse FFT of both components.  Equals W around M z by
        ``functionals.quadratic_gradient`` less the potential (eight) to
        rounding."""
        a_g, ibr, r = self._whitened_symbol
        zc = np.ascontiguousarray(z).view(complex)
        f = np.fft.fft(zc.reshape(zc.shape[:-1] + (2, self.profile.grid.points)))
        f1, f2 = f[..., 0, :], f[..., 1, :]
        y1 = np.fft.ifft(r * f1)
        out = np.empty_like(f)
        out[..., 0, :] = a_g * f1 + ibr * f2 - r * np.fft.fft(self.w1 * y1 + self.w2 * np.conj(y1))
        out[..., 1, :] = f2 - ibr * f1
        return np.fft.ifft(out).reshape(zc.shape).view(float)


@dataclass
class SpectrumReport:
    """Morse index and kernel dimension of M, read off the low end of its Schur
    complement S, and the coercivity constant delta.  ``eigenvalues`` is that
    certified low end, ascending: the Ritz values of the last LOBPCG block
    (LOW_END_BLOCK or more, plus LOW_END_GUARD), each within the block's Kahan
    bound of an eigenvalue of S; not all 2N of them.  ``coercivity_delta`` is
    certified to DELTA_TOL the same way."""

    negative_count: int
    negative_eigenvalue: float
    kernel_dimension: int
    kernel_tolerance: float
    coercivity_delta: float
    eigenvalues: np.ndarray


def assemble_second_variation(phi: Field, ap: ActionParams) -> RealizedOperator:
    """The second variation Z -> S''(Phi) Z at a profile, as a structured operator;
    AssemblyError unless the profile is a converged critical point.  Its message
    gives the profile's points per width (``profiles.points_per_width``): below
    about 6 an exact profile is not critical on the grid, as N does not resolve it."""
    gn = gradient_norm(phi, ap)
    if not gn < 1e-7:  # a NaN norm fails too
        gamma = 1.0 / math.sqrt(1.0 - ap.v * ap.v) if abs(ap.v) < 1.0 else math.nan
        ppw = points_per_width(ap.model, ap.omega_over_gamma * gamma, ap.v, phi.grid)
        raise AssemblyError(
            f"profile is not a converged critical point (||S'|| = {gn:.3e}; "
            f"{ppw:.1f} points per profile width)"
        )
    w1, w2 = second_variation_potential(phi.u1, ap.model.p)
    return RealizedOperator(phi.copy(), ap, w1, w2)


def _orthonormal(v: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of v (economic Householder QR)."""
    return sla.qr(v.T, mode="economic", check_finite=False)[0].T


def _lobpcg(apply, precondition, x, tol, fixed) -> tuple[np.ndarray, np.ndarray]:
    """Knyazev's locally optimal block preconditioned conjugate gradient for the
    lowest len(x) eigenpairs of a symmetric operator S on rows, on the
    orthogonal complement of the orthonormal rows ``fixed`` (none for the low
    end of S): they are projected out of the start block and of each residual.
    Each step is a Rayleigh-Ritz on the span of the block X, its preconditioned
    residuals and P, the part of X outside the previous block.  X = c basis
    already has orthonormal rows, so the new rows are the residuals and P with
    ``fixed`` and X projected out twice (once is not enough once they lie close
    to X), orthonormalized by a QR of those rows alone; only they are
    multiplied by S.  Returns X, orthonormal rows to rounding, and S X once the
    projected residual's Frobenius norm, which bounds the 2-norm, is at most
    ``tol``, else after LOBPCG_MAXITER steps: the caller certifies what it gets."""
    m = len(x)
    basis = _orthonormal(x - (x @ fixed.T) @ fixed)
    s_basis, p = apply(basis), x[:0]
    for _ in range(LOBPCG_MAXITER):
        theta, c = np.linalg.eigh(basis @ s_basis.T)
        c = c[:, :m].T
        x, sx = c @ basis, c @ s_basis
        r = sx - theta[:m, None] * x
        r -= (r @ fixed.T) @ fixed
        # not np.linalg.norm: on two unpinned OpenBLAS threads its BLAS dot took
        # about 4 ms a step at N = 1024 (shared 2-vCPU VM), this sum about 0.01 ms
        if math.sqrt(np.sum(r * r)) <= tol:
            break
        if len(basis) > m:
            p = c[:, m:] @ basis[m:]
        new, against = np.vstack([precondition(r), p]), np.vstack([fixed, x])
        for _ in range(2):
            new -= (new @ against.T) @ against
        new = _orthonormal(new)
        basis, s_basis = np.vstack([x, new]), np.vstack([sx, apply(new)])
    return x, sx


def _schur_low_end(op: RealizedOperator) -> tuple[np.ndarray, float, float]:
    """(Ritz values, Kahan bound, kernel tolerance) of the low end of the Schur
    complement S = A - B B^T of M = [[A, B], [B^T, I]], split at the z1/z2
    boundary.  B z2 = i b z2 and B^T z1 = -i b z1, so B B^T = b^2 and

        S z1 = ifft((a - b^2) fft(z1)) - w1 z1 - w2 conj(z1),

    applied to each row of a (k, 2N) stack of real views of z1.  By Haynsworth
    inertia additivity In(M) = In(I) + In(S), so S has M's negative count and
    kernel dimension.  ``_lobpcg`` starts from the z1 parts of Phi, i Phi and
    Phi' (a direction of negative form, and the kernel of S when the profile
    is critical) in the first three rows of a block of seeded draws.  Its
    returned block X and product S X give the Ritz values, the eigenvalues of
    X^T S X, and eps = ||S X - X (X^T S X)||_2; by Kahan's residual theorem
    (Parlett, The Symmetric Eigenvalue Problem, 11.5) each Ritz value lies
    within eps of an eigenvalue of S.  The block doubles until its
    LOW_END_BLOCK-th (then 2x, 4x, ...) Ritz value is above the kernel
    tolerance."""
    n = op.profile.grid.points
    a, b = action_symbol(op.params, op.profile.grid.deriv_wavenumbers)
    free = a - b * b
    precond = 1.0 / (free - np.min(free) + PRECONDITIONER_SHIFT)

    def schur(x: np.ndarray) -> np.ndarray:
        z = np.ascontiguousarray(x).view(complex)
        return (np.fft.ifft(free * np.fft.fft(z)) - op.w1 * z - op.w2 * np.conj(z)).view(float)

    def precondition(x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(precond * np.fft.fft(np.ascontiguousarray(x).view(complex))).view(float)

    ktol = KERNEL_REL_TOL * float(np.max(free))
    phi = op.profile
    symmetric = np.stack([phi.u1, 1j * phi.u1, phi.du1]).view(float)
    rng = np.random.default_rng(0)
    k = LOW_END_BLOCK
    while True:
        start = rng.standard_normal((k + LOW_END_GUARD, 2 * n))
        start[: len(symmetric)] = symmetric
        x, sx = _lobpcg(schur, precondition, start, LOBPCG_TOL, start[:0])
        h = x @ sx.T
        ev = sla.eigvalsh(h)
        eps = float(np.linalg.norm(sx - h.T @ x, 2))
        # a block that spans the whole space holds every eigenvalue
        if ev[k - 1] > ktol or k + LOW_END_GUARD == 2 * n:
            return ev, eps, ktol
        k = min(2 * k, 2 * n - LOW_END_GUARD)


def _constrained_lowest(matvec, precondition, constraints: np.ndarray) -> float:
    """The lowest eigenvalue of the symmetric product A = ``matvec`` on the
    orthogonal complement of the rows of ``constraints``: ``_lobpcg`` to
    DELTA_TOL on one seeded row with no symmetry (an even start could miss an
    odd lowest mode of an unshifted profile), so repeated calls agree to the
    bit.  It is the Ritz value theta of the returned row x; AssemblyError unless
    the Kahan bound ||P (A x - x theta)||_2, P the projection on the complement,
    is at most DELTA_TOL, so that theta lies that close to an eigenvalue there."""
    q = _orthonormal(constraints)
    start = np.random.default_rng(0).standard_normal((1, constraints.shape[1]))
    x, ax = _lobpcg(matvec, precondition, start, DELTA_TOL, q)
    theta = float(x[0] @ ax[0])
    r = ax - theta * x
    eps = math.sqrt(np.sum((r - (r @ q.T) @ q) ** 2))  # the 2-norm of one row, no BLAS dot
    if not eps <= DELTA_TOL:
        raise AssemblyError(
            f"coercivity eigensolve did not converge: Kahan bound {eps:.3e} "
            f"against stop tolerance {DELTA_TOL:.0e}"
        )
    return theta


def spectrum_report(op: RealizedOperator) -> SpectrumReport:
    """The Morse index and kernel dimension of M from the certified low end of
    its Schur complement S (``_schur_low_end``), and delta, the lowest eigenvalue
    of W M W (``op.whitened_matvec``, W = G^(-1/2) the whitening) on the
    complement of W Y, Y the rows of ``grids.symmetry_rows`` (``_constrained_lowest``).

    A Ritz value below -tol counts as negative and one of magnitude below tol as
    kernel, with tol = KERNEL_REL_TOL * max(a - b^2).  AssemblyError unless the
    Kahan bound eps is at most KAHAN_MARGIN * tol and no Ritz value lies within
    eps of +-tol, so that each Ritz value falls in the same class as the
    eigenvalue of S it approximates, and unless delta is certified.  delta's
    preconditioner follows S's rule on the symbol of W M_free W (``_whitened_symbol``):
    the inverse of it shifted PRECONDITIONER_SHIFT below its minimum."""
    ev, eps, ktol = _schur_low_end(op)
    if not (eps <= KAHAN_MARGIN * ktol and np.all(np.abs(np.abs(ev) - ktol) > eps)):
        raise AssemblyError(
            f"low end of the Schur complement not certified: Kahan bound {eps:.3e} "
            f"against kernel tolerance {ktol:.3e}"
        )
    negative = ev[ev < -ktol]
    kernel_dim = int(np.sum(np.abs(ev) < ktol))

    a_g, ibr, r = op._whitened_symbol
    b2 = np.abs(ibr) ** 2
    sigma = float(np.min(0.5 * (a_g + 1.0 - np.sqrt((a_g - 1.0) ** 2 + 4.0 * b2)))) - PRECONDITIONER_SHIFT
    # the inverse of [[a/g - sigma, i b r], [-i b r, 1 - sigma]] at each wavenumber
    det = (a_g - sigma) * (1.0 - sigma) - b2
    c11, c12, c22 = (1.0 - sigma) / det, -ibr / det, (a_g - sigma) / det

    def precondition(x: np.ndarray) -> np.ndarray:
        f = np.fft.fft(np.ascontiguousarray(x).view(complex).reshape(len(x), 2, -1))
        out = np.stack([c11 * f[:, 0] + c12 * f[:, 1], c22 * f[:, 1] - c12 * f[:, 0]], axis=1)
        return np.fft.ifft(out).reshape(len(x), -1).view(float)

    cons, n = symmetry_rows(op.profile), op.profile.grid.points
    cons[:, :n] = np.fft.ifft(r * np.fft.fft(cons[:, :n]))  # W Y: W is g^-1/2 on z1
    return SpectrumReport(
        negative_count=int(len(negative)),
        negative_eigenvalue=float(negative[0]) if len(negative) else 0.0,
        kernel_dimension=kernel_dim,
        kernel_tolerance=ktol,
        coercivity_delta=_constrained_lowest(op.whitened_matvec, precondition, cons.view(float)),
        eigenvalues=ev,
    )


def slope_test(
    phi_family: Callable[[float], Field],
    ap: ActionParams,
    omega: float,
    op: RealizedOperator,
) -> float:
    """Quadratic form <S'' Y, Y> on Y, the omega-derivative of the profile
    family: twice the localized quadratic Taylor term of one cell of unit
    weight (``functionals.localized_hessian_form``) at ``op.profile``.

    The value equals d/domega [omega ||phi_omega||^2] / gamma by the scaling
    law; it is negative exactly when (omega, v) lies inside the stability
    window.  The derivative is taken by centered differencing of the exact
    profile family.
    """
    if abs(omega) + OMEGA_STEP >= math.sqrt(ap.model.m):
        raise ValueError("omega too close to sqrt(m) for centered differencing")
    y, one = _frequency_derivative(phi_family, omega), np.ones((1, op.profile.grid.points))
    return 2.0 * localized_hessian_form(y, [op.profile], one, [op.params])
