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
eigenvalue inside the stability window, and on the subspace L2-orthogonal
to {Phi', iJPhi, iPhi} the quadratic form is coercive in the H1 x L2
metric; the minimal constrained Rayleigh quotient is reported as delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .functionals import ActionParams, gradient_norm
from .grids import Field, Grid, spectral_derivative
from .profiles import ModelParams

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
    """Symmetric matrix of the second variation plus the H1 x L2 Gram."""

    matrix: np.ndarray
    gram: np.ndarray
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
    slope: float
    spectral_radius: float
    eigenvalues: np.ndarray


def _h1l2_gram(grid: Grid) -> np.ndarray:
    _, d2 = _derivative_matrices(grid)
    n = grid.points
    k1 = np.eye(n) - d2
    gram = np.zeros((4 * n, 4 * n))
    gram[0:n, 0:n] = k1
    gram[n : 2 * n, n : 2 * n] = k1
    gram[2 * n : 3 * n, 2 * n : 3 * n] = np.eye(n)
    gram[3 * n : 4 * n, 3 * n : 4 * n] = np.eye(n)
    return 0.5 * (gram + gram.T)


def assemble_second_variation(
    phi: Field,
    ap: ActionParams,
    grid: Optional[Grid] = None,
    check_critical: bool = True,
) -> RealizedOperator:
    """Dense symmetric matrix realizing Z -> S''(Phi) Z in the real flattening."""
    grid = grid or phi.grid
    if check_critical:
        gn = gradient_norm(phi, ap)
        if gn >= 1e-7:
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
    return RealizedOperator(mat, _h1l2_gram(grid), grid, phi.copy(), ap, asym)


def _symmetry_directions(op: RealizedOperator) -> np.ndarray:
    """Columns spanning {grad Phi, iJPhi, iPhi} in the flattening."""
    phi, grid = op.profile, op.grid
    dphi = Field(
        spectral_derivative(phi.u1, grid), spectral_derivative(phi.u2, grid), grid
    )
    i_j_phi = Field(1j * phi.u2, -1j * phi.u1, grid)
    i_phi = Field(1j * phi.u1, 1j * phi.u2, grid)
    return np.column_stack(
        [flatten_field(dphi), flatten_field(i_j_phi), flatten_field(i_phi)]
    )


def spectrum_report(op: RealizedOperator, kernel_tol_factor: float = 1e-6) -> SpectrumReport:
    """Full L2 eigensolve plus the constrained H1 x L2 coercivity constant."""
    ev = sla.eigvalsh(op.matrix)
    rho = float(np.max(np.abs(ev)))
    ktol = kernel_tol_factor * rho
    negative = ev[ev < -ktol]
    kernel_dim = int(np.sum(np.abs(ev) < ktol))

    cons = _symmetry_directions(op)
    qfull, _ = sla.qr(cons)  # 3 reflectors: full Q is cheap
    basis = qfull[:, 3:]
    a = basis.T @ (op.matrix @ basis)
    b = basis.T @ (op.gram @ basis)
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    low = sla.eigh(a, b, subset_by_index=[0, 0], eigvals_only=True, driver="gvx")
    delta = float(low[0])

    return SpectrumReport(
        negative_count=int(len(negative)),
        negative_eigenvalue=float(negative[0]) if len(negative) else 0.0,
        kernel_dimension=kernel_dim,
        kernel_tolerance=ktol,
        coercivity_delta=delta,
        slope=float("nan"),
        spectral_radius=rho,
        eigenvalues=ev,
    )


def _frequency_derivative(phi_family, ap, omega, h_omega, op):
    """The operator (assembled at phi_family(omega) unless given) and the
    centered omega-difference of the profile family."""
    if op is None:
        op = assemble_second_variation(phi_family(omega), ap)
    wp = phi_family(omega + h_omega)
    wm = phi_family(omega - h_omega)
    return op, (1.0 / (2.0 * h_omega)) * (wp - wm)


def slope_test(
    phi_family: Callable[[float], Field],
    ap: ActionParams,
    omega: float,
    h_omega: float = 1e-4,
    op: Optional[RealizedOperator] = None,
) -> float:
    """Quadratic form of S'' on the omega-derivative of the profile family.

    The value equals d/domega [omega ||phi_omega||^2] / gamma by the scaling
    law; it is negative exactly when (omega, v) lies inside the stability
    window.  The derivative is taken by centered differencing of the exact
    profile family.
    """
    if abs(omega) + h_omega >= math.sqrt(ap.model.m):
        raise ValueError("omega too close to sqrt(m) for centered differencing")
    op, lam = _frequency_derivative(phi_family, ap, omega, h_omega, op)
    return op.quadratic_form(lam)


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
    h_omega: float = 1e-4,
    op: Optional[RealizedOperator] = None,
) -> float:
    """L2 norm of S''(Phi) dPhi/domega + (1/gamma) iJ Phi.

    Differentiating the critical-point equation in omega shows this vanishes;
    the discrete value is differencing plus assembly error.
    """
    op, lam = _frequency_derivative(phi_family, ap, omega, h_omega, op)
    out = op.apply(lam)
    phi = op.profile
    target = Field(out.u1 + (1.0 / gamma) * 1j * phi.u2, out.u2 - (1.0 / gamma) * 1j * phi.u1, op.grid)
    h = op.grid.spacing
    return float(
        np.sqrt(np.sum(np.abs(target.u1) ** 2 + np.abs(target.u2) ** 2) * h)
    )


def free_operator_floor(ap: ActionParams, grid: Grid) -> float:
    """Smallest eigenvalue of the potential-free operator (essential-spectrum floor)."""
    zero = Field.zeros(grid)
    op = assemble_second_variation(zero, ap, check_critical=False)
    ev = sla.eigvalsh(op.matrix)
    return float(ev[0])
