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
its potential and constants, applied by complex FFTs with the Fourier symbol
of ``_symbol``, and its z2 block is the identity.  The kernel is spanned by
the phase and translation modes i*Phi and Phi', there is exactly one negative
eigenvalue inside the stability window (both counts are read off the 2N x 2N
Schur complement of the identity z2 block, one complex circulant plus the
potential), and on the subspace L2-orthogonal to {Phi', iJPhi, iPhi} the
quadratic form is coercive in the H1 x L2 metric; delta, the minimal
constrained Rayleigh quotient, is the lowest eigenvalue of the Gram-whitened
operator with the constraints lifted to the top of the whitened free symbol's
spectrum, which bounds it: Lanczos on FFT products with M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .functionals import ActionParams, gradient_norm, second_variation_potential
from .grids import Field, Grid, flat, symmetry_directions

__all__ = [
    "RealizedOperator",
    "SpectrumReport",
    "AssemblyError",
    "assemble_second_variation",
    "spectrum_report",
    "slope_test",
]


# eigenvalues of S below KERNEL_REL_TOL * its spectral radius in magnitude count as kernel
KERNEL_REL_TOL = 1e-6


# frequency step of the centered difference of the profile family
OMEGA_STEP = 1e-4


def _frequency_derivative(phi_family, omega):
    """Centered omega-difference of the profile family."""
    wp = phi_family(omega + OMEGA_STEP)
    wm = phi_family(omega - OMEGA_STEP)
    return (1.0 / (2.0 * OMEGA_STEP)) * (wp - wm)


class AssemblyError(RuntimeError):
    """Profile failed the criticality precondition, or the delta solve did not converge."""


def _symbol(ap: ActionParams, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The potential-free part of M at wavenumbers k: a = k^2 + m on z1, and b =
    omega/gamma - v k, the symbol of the coupling i b between z1 and z2."""
    return k * k + ap.model.m, ap.omega_over_gamma - ap.v * k


@dataclass
class RealizedOperator:
    """The second variation M at a profile, held as what defines it: the
    potential w1 (real) and w2 (complex) of ``second_variation_potential``
    beside omega/gamma, v and m in ``params``.

    On the complex view (z1, z2) of a flattened field, with the Fourier
    multipliers a and b of ``_symbol`` on the Nyquist-zeroed wavenumbers:

        M Z = (a z1 + i b z2 - w1 z1 - w2 conj(z1),  z2 - i b z1).

    ``matvec`` applies it by complex FFTs and ``schur_complement`` builds the
    spectrum report's S from one complex circulant and the potential."""

    grid: Grid
    profile: Field
    params: ActionParams
    w1: np.ndarray
    w2: np.ndarray

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """M z for a flattened field of length 4N, or for each row of a (k, 4N)
        stack: one complex FFT pair per component."""
        n = self.grid.points
        a, b = _symbol(self.params, self.grid.deriv_wavenumbers)
        zc = np.ascontiguousarray(z).view(complex)
        z1, z2 = zc[..., :n], zc[..., n:]
        f1 = np.fft.fft(z1)
        m1 = np.fft.ifft(a * f1 + 1j * b * np.fft.fft(z2)) - self.w1 * z1 - self.w2 * np.conj(z1)
        return np.concatenate((m1, z2 - 1j * np.fft.ifft(b * f1)), axis=-1).view(float)

    def quadratic_form(self, z: Field) -> float:
        zf = flat(z)
        return float(self.grid.spacing * zf @ self.matvec(zf))

    def schur_complement(self) -> np.ndarray:
        """S = A - B B^T for M = [[A, B], [B^T, I]] split at the z1/z2 boundary.

        B z2 = i b z2 and B^T z1 = -i b z1, so B B^T = b^2 and
        S z1 = (a - b^2) z1 - w1 z1 - w2 conj(z1): the real view of one complex
        circulant, less a 2 x 2 potential block per sample.  By Haynsworth
        inertia additivity In(M) = In(I) + In(S), so S has M's negative count
        and kernel dimension."""
        n = self.grid.points
        a, b = _symbol(self.params, self.grid.deriv_wavenumbers)
        c = sla.circulant(np.fft.ifft(a - b * b))
        s = np.empty((n, 2, n, 2))
        s[:, 0, :, 0] = s[:, 1, :, 1] = c.real
        s[:, 1, :, 0] = c.imag
        s[:, 0, :, 1] = -c.imag
        i = np.arange(n)
        s[i, 0, i, 0] -= self.w1 + self.w2.real
        s[i, 1, i, 1] -= self.w1 - self.w2.real
        s[i, 0, i, 1] -= self.w2.imag
        s[i, 1, i, 0] -= self.w2.imag
        return s.reshape(2 * n, 2 * n)


@dataclass
class SpectrumReport:
    negative_count: int
    negative_eigenvalue: float
    kernel_dimension: int
    kernel_tolerance: float
    coercivity_delta: float
    eigenvalues: np.ndarray


def _free_symbol_eigenvalues(
    ap: ActionParams, k: np.ndarray, g: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) eigenvalues, at each wavenumber k, of the potential-free
    operator's symbol whitened by g: [[a/g, i b/sqrt(g)], [-i b/sqrt(g), 1]] with
    a and b from ``_symbol``.  That operator is complex-linear and
    Fourier-diagonal, so these are its eigenvalues (g = 1), or those of
    W M_free W (g = 1 + k^2, the H1 x L2 whitening of ``_whiten``)."""
    a, b = _symbol(ap, k)
    a, b2 = a / g, b * b / g
    root = np.sqrt((a - 1.0) ** 2 + 4.0 * b2)
    return 0.5 * ((a + 1.0) - root), 0.5 * ((a + 1.0) + root)


def _whiten(z: np.ndarray, grid: Grid) -> np.ndarray:
    """G^(-1/2) z, row by row, for the H1 x L2 Gram G of the flattening: the
    multiplier (1 + k^2)^(-1/2) on z1, the first half of the complex view."""
    out = z.copy()
    z1 = out.view(complex)[..., : grid.points]
    z1[...] = np.fft.ifft((1.0 + grid.deriv_wavenumbers**2) ** -0.5 * np.fft.fft(z1))
    return out


def assemble_second_variation(phi: Field, ap: ActionParams) -> RealizedOperator:
    """The second variation Z -> S''(Phi) Z at a profile, as a structured operator;
    AssemblyError unless the profile is a converged critical point."""
    gn = gradient_norm(phi, ap)
    if not gn < 1e-7:  # a NaN norm fails too
        raise AssemblyError(f"profile is not a converged critical point (||S'|| = {gn:.3e})")
    w1, w2 = second_variation_potential(phi.u1, ap.model.p)
    return RealizedOperator(phi.grid, phi.copy(), ap, w1, w2)


def spectrum_report(op: RealizedOperator) -> SpectrumReport:
    """Eigenvalues of the Schur complement S (``op.schur_complement``), which carry
    the Morse index and kernel of M, and delta: the lowest eigenvalue of
    x -> P W M W P x + s q q^T x, with W = G^(-1/2) (``_whiten``), q orthonormal
    on W Y, P = I - q q^T and s the largest eigenvalue of W M_free W, M without
    its potential (``_free_symbol_eigenvalues``).  The potential part of M is
    negative semidefinite (w1 - |w2| = |q|^(p-1) >= 0), so W M W <= W M_free W <= s
    and the constraints sit above delta.  Lanczos (ARPACK, to machine precision) on
    FFT products with M (``op.matvec``) starts from a fixed vector with no
    symmetry (an even start could miss an odd lowest mode of an unshifted
    profile) and a seeded generator, so repeated calls agree to the bit.
    AssemblyError if it does not converge."""
    ev = sla.eigvalsh(op.schur_complement())
    ktol = KERNEL_REL_TOL * float(np.max(np.abs(ev)))
    negative = ev[ev < -ktol]
    kernel_dim = int(np.sum(np.abs(ev) < ktol))

    i_phi, i_j_phi, dphi = symmetry_directions(op.profile)
    cons = np.stack([flat(f) for f in (dphi, i_j_phi, i_phi)])
    q, _ = np.linalg.qr(_whiten(cons, op.grid).T)
    k = op.grid.deriv_wavenumbers
    s = float(np.max(_free_symbol_eigenvalues(op.params, k, 1.0 + k * k)[1]))

    def apply(x: np.ndarray) -> np.ndarray:
        qx = q.T @ x
        y = _whiten(op.matvec(_whiten(x - q @ qx, op.grid)), op.grid)
        return y - q @ (q.T @ y - s * qx)

    # imported here: scipy.sparse adds about 40 ms and 4 MB to every start-up
    from scipy.sparse import linalg as spla

    n4 = 4 * op.grid.points
    rng = np.random.default_rng(0)  # ARPACK draws one vector of its own from it
    try:
        delta = float(spla.eigsh(
            spla.LinearOperator((n4, n4), matvec=apply, dtype=float), k=1, which="SA",
            tol=0, v0=rng.standard_normal(n4), rng=rng, return_eigenvectors=False,
        )[0])
    except spla.ArpackNoConvergence as exc:
        raise AssemblyError(f"coercivity eigensolve did not converge: {exc}") from None

    return SpectrumReport(
        negative_count=int(len(negative)),
        negative_eigenvalue=float(negative[0]) if len(negative) else 0.0,
        kernel_dimension=kernel_dim,
        kernel_tolerance=ktol,
        coercivity_delta=delta,
        eigenvalues=ev,
    )


def slope_test(
    phi_family: Callable[[float], Field],
    ap: ActionParams,
    omega: float,
    op: RealizedOperator,
) -> float:
    """Quadratic form of S'' on the omega-derivative of the profile family.

    The value equals d/domega [omega ||phi_omega||^2] / gamma by the scaling
    law; it is negative exactly when (omega, v) lies inside the stability
    window.  The derivative is taken by centered differencing of the exact
    profile family.
    """
    if abs(omega) + OMEGA_STEP >= math.sqrt(ap.model.m):
        raise ValueError("omega too close to sqrt(m) for centered differencing")
    return op.quadratic_form(_frequency_derivative(phi_family, omega))
