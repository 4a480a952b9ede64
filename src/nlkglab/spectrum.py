"""Structured realization of the second variation of the action at a soliton.

The operator is real-linear but not complex-linear (the nonlinearity
linearizes to terms in both z1 and conj(z1)), so fields are flattened to
four real blocks [Re u1, Im u1, Re u2, Im u2] and the operator becomes a
symmetric real operator M of size (4N)^2.  Acting on Z = (z1, z2):

    first component:  -z1'' + m z1 - (p+1)/2 |q|^(p-1) z1
                      - (p-1)/2 |q|^(p-3) q^2 conj(z1)
                      + i (omega/gamma) z2 - v z2'
    second component:  z2 - i (omega/gamma) z1 + v z1'

with q the first component of the profile.  M is never formed: it is held as
its potential diagonals and constants, applied by real FFTs (the derivatives
are Fourier multipliers), and its u2 block is the identity.  The kernel is
spanned by the phase and translation modes i*Phi and Phi', there is exactly
one negative eigenvalue inside the stability window (both counts are read off
the 2N x 2N Schur complement of the identity u2 block, built directly from
circulant blocks), and on the subspace L2-orthogonal to {Phi', iJPhi, iPhi}
the quadratic form is coercive in the H1 x L2 metric; delta, the minimal
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
from .grids import Field, Grid, symmetry_directions
from .profiles import OMEGA_STEP, ModelParams, _frequency_derivative

__all__ = [
    "RealizedOperator",
    "SpectrumReport",
    "AssemblyError",
    "assemble_second_variation",
    "spectrum_report",
    "slope_test",
    "slope_analytic",
    "frequency_derivative_residual",
    "free_operator_floor",
    "flatten_field",
]


# eigenvalues of S below KERNEL_REL_TOL * its spectral radius in magnitude count as kernel
KERNEL_REL_TOL = 1e-6


class AssemblyError(RuntimeError):
    """Profile failed the criticality precondition, or the delta solve did not converge."""


def flatten_field(w: Field) -> np.ndarray:
    return np.concatenate(
        [np.real(w.u1), np.imag(w.u1), np.real(w.u2), np.imag(w.u2)]
    )


def _half_wavenumbers(grid: Grid) -> np.ndarray:
    """The Nyquist-zeroed wavenumbers of the real FFT's half spectrum."""
    return grid.deriv_wavenumbers[: grid.points // 2 + 1]


@dataclass
class RealizedOperator:
    """The second variation M at a profile, held as what defines it: the
    potential diagonals w1 and w2 (real and imaginary parts) of
    ``second_variation_potential`` beside omega/gamma, v and m in ``params``.

    In the real flattening, with K0 = -D2 + m (symbol k^2 + m) and the
    Nyquist-zeroed derivative D1 (symbol i k, skew):

        M = [[K0 - diag(w1 + Re w2), -diag(Im w2),          -v D1, -og I ],
             [-diag(Im w2),          K0 - diag(w1 - Re w2),  og I,  -v D1],
             [ v D1,                  og I,                  I,      0   ],
             [-og I,                  v D1,                  0,      I   ]]

    with og = omega/gamma.  ``matvec`` applies it by real FFTs and
    ``schur_complement`` builds the spectrum report's S from the circulant first
    columns and the diagonals."""

    grid: Grid
    profile: Field
    params: ActionParams
    w1: np.ndarray
    w2r: np.ndarray
    w2i: np.ndarray

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """M z for a flattened field of length 4N, or for each column of a
        (4N, k) stack: one real FFT pair per block."""
        n = self.grid.points
        og, v, m = self.params.omega_over_gamma, self.params.v, self.params.model.m
        a1, b1, a2, b2 = blocks = z.reshape(4, n, -1)
        k = _half_wavenumbers(self.grid)[:, None]
        f = np.fft.rfft(blocks, axis=1)
        spec = np.empty_like(f)
        spec[:2] = (k * k + m) * f[:2] - (1j * v) * k * f[2:]
        spec[2:] = (1j * v) * k * f[:2]
        out = np.fft.irfft(spec, n, axis=1)
        w1, w2r, w2i = self.w1[:, None], self.w2r[:, None], self.w2i[:, None]
        out[0] -= (w1 + w2r) * a1 + w2i * b1 + og * b2
        out[1] -= w2i * a1 + (w1 - w2r) * b1 - og * a2
        out[2] += og * b1 + a2
        out[3] += b2 - og * a1
        return out.reshape(z.shape)

    def quadratic_form(self, z: Field) -> float:
        zf = flatten_field(z)
        return float(self.grid.spacing * zf @ self.matvec(zf))

    def schur_complement(self) -> np.ndarray:
        """S = A - B B^T for M = [[A, B], [B^T, I]] split at the u1/u2 boundary.

        D1 is skew and D1^2 = D2 on the same wavenumbers, so with
        K = circulant(k^2 + m - v^2 k^2) - og^2 I and C = 2 og v D1,
        S = [[K - diag(w1 + Re w2), C - diag(Im w2)],
             [-C - diag(Im w2),     K - diag(w1 - Re w2)]].
        By Haynsworth inertia additivity In(M) = In(I) + In(S), so S has M's
        negative count and kernel dimension."""
        n = self.grid.points
        og, v, m = self.params.omega_over_gamma, self.params.v, self.params.model.m
        k = _half_wavenumbers(self.grid)
        kk = sla.circulant(np.fft.irfft((1.0 - v * v) * k * k + m - og * og, n))
        c = sla.circulant(np.fft.irfft((2j * og * v) * k, n))
        s = np.block([[kk, c], [-c, kk]])
        i = np.arange(n)
        s[i, i] -= self.w1 + self.w2r
        s[i + n, i + n] -= self.w1 - self.w2r
        s[i, i + n] -= self.w2i
        s[i + n, i] -= self.w2i
        return s


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
    a = k^2 + m and b = omega/gamma - v k.  That operator is complex-linear and
    Fourier-diagonal, so these are its eigenvalues (g = 1), or those of
    W M_free W (g = 1 + k^2, the H1 x L2 whitening of ``_whiten``)."""
    a = (k * k + ap.model.m) / g
    b2 = (ap.omega_over_gamma - ap.v * k) ** 2 / g
    root = np.sqrt((a - 1.0) ** 2 + 4.0 * b2)
    return 0.5 * ((a + 1.0) - root), 0.5 * ((a + 1.0) + root)


def _whiten(z: np.ndarray, grid: Grid) -> np.ndarray:
    """G^(-1/2) z, column by column, for the H1 x L2 Gram G of the flattening: the
    multiplier (1 + k^2)^(-1/2) on the u1 blocks, rows [0, 2N), identity elsewhere."""
    n = grid.points
    mult = (1.0 + _half_wavenumbers(grid) ** 2) ** -0.5
    out = z.copy()
    u1 = out[: 2 * n].reshape(2, n, -1)
    u1[:] = np.fft.irfft(mult[:, None] * np.fft.rfft(u1, axis=1), n, axis=1)
    return out


def assemble_second_variation(
    phi: Field, ap: ActionParams, check_critical: bool = True
) -> RealizedOperator:
    """The second variation Z -> S''(Phi) Z at a profile, as a structured operator."""
    if check_critical:
        gn = gradient_norm(phi, ap)
        if not gn < 1e-7:  # a NaN norm fails too
            raise AssemblyError(
                f"profile is not a converged critical point (||S'|| = {gn:.3e})"
            )
    w1, w2 = second_variation_potential(phi.u1, ap.model.p)
    return RealizedOperator(phi.grid, phi.copy(), ap, w1, np.real(w2).copy(), np.imag(w2).copy())


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
    cons = np.column_stack([flatten_field(f) for f in (dphi, i_j_phi, i_phi)])
    q, _ = np.linalg.qr(_whiten(cons, op.grid))
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
    res = op.matvec(flatten_field(lam)) + (1.0 / gamma) * flatten_field(i_j_phi)
    return float(np.linalg.norm(res) * math.sqrt(op.grid.spacing))


def free_operator_floor(ap: ActionParams, grid: Grid) -> float:
    """Smallest eigenvalue of the potential-free operator (essential-spectrum floor):
    the lowest unwhitened symbol eigenvalue (``_free_symbol_eigenvalues``, g = 1)."""
    return float(np.min(_free_symbol_eigenvalues(ap, grid.deriv_wavenumbers, 1.0)[0]))
