"""Dense realization of the second variation of the action at a soliton.

The operator is real-linear but not complex-linear (the nonlinearity
linearizes to terms in both z1 and conj(z1)), so fields are flattened to
four real blocks [Re u1, Im u1, Re u2, Im u2] and the operator becomes a
symmetric real matrix of size (4N)^2.  Acting on Z = (z1, z2):

    first component:  -z1'' + m z1 - (p+1)/2 |q|^(p-1) z1
                      - (p-1)/2 |q|^(p-3) q^2 conj(z1)
                      + i (omega/gamma) z2 - v z2'
    second component:  z2 - i (omega/gamma) z1 + v z1'

with q the first component of the profile.  The kernel is spanned by the
phase and translation modes i*Phi and Phi', there is exactly one negative
eigenvalue inside the stability window (both counts are read off the 2N x 2N
Schur complement of the identity u2 block), and on the subspace L2-orthogonal
to {Phi', iJPhi, iPhi} the quadratic form is coercive in the H1 x L2 metric;
delta, the minimal constrained Rayleigh quotient, is one symmetric eigenvalue:
that of the operator whitened by the (Fourier-diagonal) Gram, constraints deflated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .functionals import ActionParams, gradient_norm
from .grids import Field, Grid, norm_l2l2, symmetry_directions
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
    "unflatten_field",
]


# eigenvalues of S below KERNEL_REL_TOL * its spectral radius in magnitude count as kernel
KERNEL_REL_TOL = 1e-6


class AssemblyError(RuntimeError):
    """Assembled operator failed a symmetry or precondition check."""


def _derivative_matrices(grid: Grid):
    """Dense real first/second derivative matrices for the periodic grid.
    Both are circulant: column 0 is the inverse FFT of the symbol."""
    k = grid.deriv_wavenumbers
    d1 = sla.circulant(np.real(np.fft.ifft(1j * k)))
    d2 = sla.circulant(np.real(np.fft.ifft(-(k**2))))
    return d1, d2


def flatten_field(w: Field) -> np.ndarray:
    return np.concatenate(
        [np.real(w.u1), np.imag(w.u1), np.real(w.u2), np.imag(w.u2)]
    )


def unflatten_field(z: np.ndarray, grid: Grid) -> Field:
    n = grid.points
    return Field(z[0:n] + 1j * z[n : 2 * n], z[2 * n : 3 * n] + 1j * z[3 * n : 4 * n], grid)


@dataclass
class RealizedOperator:
    """Symmetric matrix of the second variation at a profile."""

    matrix: np.ndarray
    grid: Grid
    profile: Field
    params: ActionParams
    asymmetry: float

    def quadratic_form(self, z: Field) -> float:
        zf = flatten_field(z)
        return float(self.grid.spacing * zf @ (self.matrix @ zf))

    def apply(self, z: Field) -> Field:
        return unflatten_field(self.matrix @ flatten_field(z), self.grid)


@dataclass
class SpectrumReport:
    negative_count: int
    negative_eigenvalue: float
    kernel_dimension: int
    kernel_tolerance: float
    coercivity_delta: float
    eigenvalues: np.ndarray


def _whiten(z: np.ndarray, grid: Grid) -> np.ndarray:
    """G^(-1/2) z, column by column, for the H1 x L2 Gram G of the flattening: the
    multiplier (1 + k^2)^(-1/2) on the u1 blocks, rows [0, 2N), identity elsewhere."""
    n = grid.points
    mult = (1.0 + grid.deriv_wavenumbers[: n // 2 + 1] ** 2) ** -0.5
    out = z.copy()
    u1 = out[: 2 * n].reshape(2, n, -1)
    u1[:] = np.fft.irfft(mult[:, None] * np.fft.rfft(u1, axis=1), n, axis=1)
    return out


def assemble_second_variation(
    phi: Field, ap: ActionParams, check_critical: bool = True
) -> RealizedOperator:
    """Dense symmetric matrix realizing Z -> S''(Phi) Z in the real flattening."""
    grid = phi.grid
    if check_critical:
        gn = gradient_norm(phi, ap)
        if not gn < 1e-7:  # a NaN norm fails too
            raise AssemblyError(
                f"profile is not a converged critical point (||S'|| = {gn:.3e})"
            )
    n = grid.points
    p = ap.model.p
    og, v = ap.omega_over_gamma, ap.v
    d1, d2 = _derivative_matrices(grid)
    q = phi.u1
    absq = np.abs(q)
    w1 = 0.5 * (p + 1.0) * absq ** (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = 0.5 * (p - 1.0) * np.where(absq > 0, absq ** (p - 3.0), 0.0) * q * q
    w2r, w2i = np.real(w2), np.imag(w2)

    kin = -d2 + ap.model.m * np.eye(n)
    eye = np.eye(n)
    mat = np.zeros((4 * n, 4 * n))
    mat[0:n, 0:n] = kin - np.diag(w1 + w2r)
    mat[0:n, n : 2 * n] = -np.diag(w2i)
    mat[n : 2 * n, 0:n] = -np.diag(w2i)
    mat[n : 2 * n, n : 2 * n] = kin - np.diag(w1 - w2r)
    mat[0:n, 2 * n : 3 * n] = -v * d1
    mat[0:n, 3 * n : 4 * n] = -og * eye
    mat[n : 2 * n, 2 * n : 3 * n] = og * eye
    mat[n : 2 * n, 3 * n : 4 * n] = -v * d1
    mat[2 * n : 3 * n, 0:n] = v * d1
    mat[2 * n : 3 * n, n : 2 * n] = og * eye
    mat[3 * n : 4 * n, 0:n] = -og * eye
    mat[3 * n : 4 * n, n : 2 * n] = v * d1
    mat[2 * n : 3 * n, 2 * n : 3 * n] = eye
    mat[3 * n : 4 * n, 3 * n : 4 * n] = eye

    scale = float(np.max(np.abs(mat)))
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > 1e-9 * scale:
        raise AssemblyError(f"assembled operator asymmetric: {asym:.3e} vs scale {scale:.3e}")
    mat = 0.5 * (mat + mat.T)
    return RealizedOperator(mat, grid, phi.copy(), ap, asym)


def _schur_complement(op: RealizedOperator) -> np.ndarray:
    """S = A - B B^T for M = [[A, B], [B^T, I]] split at the u1/u2 boundary.

    By Haynsworth inertia additivity In(M) = In(I) + In(S), so S has M's negative
    count and kernel dimension; AssemblyError unless the u2 block is exactly I."""
    n2 = 2 * op.grid.points
    mat = op.matrix
    if not np.array_equal(mat[n2:, n2:], np.eye(n2)):
        raise AssemblyError("u2 block of the second variation is not the identity")
    b = mat[:n2, n2:]
    return mat[:n2, :n2] - b @ b.T


def spectrum_report(op: RealizedOperator) -> SpectrumReport:
    """Eigenvalues of the Schur complement S (``_schur_complement``), which carry
    the Morse index and kernel of M, and delta: the lowest eigenvalue of
    P a P + s q q^T, with a = G^(-1/2) M G^(-1/2), q orthonormal on G^(-1/2) Y,
    P = I - q q^T, s = ||a||_inf."""
    ev = sla.eigvalsh(_schur_complement(op))
    ktol = KERNEL_REL_TOL * float(np.max(np.abs(ev)))
    negative = ev[ev < -ktol]
    kernel_dim = int(np.sum(np.abs(ev) < ktol))

    a = _whiten(_whiten(op.matrix, op.grid).T, op.grid)
    i_phi, i_j_phi, dphi = symmetry_directions(op.profile)
    cons = np.column_stack([flatten_field(f) for f in (dphi, i_j_phi, i_phi)])
    q, _ = np.linalg.qr(_whiten(cons, op.grid))
    s = np.linalg.norm(a, np.inf)  # bounds P a P, so s q q^T lifts the constraints above delta
    aq = a @ q  # P a P through a q, without a 4N x 4N P
    a -= aq @ q.T
    a -= q @ aq.T
    a += q @ (q.T @ aq + s * np.eye(3)) @ q.T
    delta = float(sla.eigh(a, subset_by_index=[0, 0], eigvals_only=True)[0])

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
    ap: ActionParams,
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
    return norm_l2l2(op.apply(lam) + (1.0 / gamma) * i_j_phi)


def free_operator_floor(ap: ActionParams, grid: Grid) -> float:
    """Smallest eigenvalue of the potential-free operator (essential-spectrum floor).

    The operator is complex-linear and Fourier-diagonal: at wavenumber k its symbol
    is [[a, i b], [-i b, 1]] with a = k^2 + m, b = omega/gamma - v k, whose lower
    eigenvalue is ((a + 1) - sqrt((a - 1)^2 + 4 b^2)) / 2."""
    k = grid.deriv_wavenumbers
    a = k**2 + ap.model.m
    b = ap.omega_over_gamma - ap.v * k
    return float(np.min(0.5 * ((a + 1.0) - np.sqrt((a - 1.0) ** 2 + 4.0 * b**2))))
