"""Ground-state profiles and Lorentz-boosted solitary waves.

The scalar ground state solves -phi'' + (m - omega^2) phi = phi^p.  In 1D
it has the closed form

    phi_tilde(x) = ((p+1)/2)^(1/(p-1)) * sech((p-1) x / 2)^(2/(p-1)),

for the normalized equation (coefficient 1), and the general profile is
obtained from the scaling

    phi_omega(x) = (m - omega^2)^(1/(p-1)) * phi_tilde(sqrt(m - omega^2) x).

For radial dimensions 2 and 3 the profile is computed by shooting on the
radial ODE.  Boosting a standing wave with velocity v contracts the
profile by the Lorentz factor gamma and tilts the phase:

    u1(x) = e^{-i gamma omega v x} phi(gamma x)
    u2(x) = e^{-i gamma omega v x} gamma (i omega phi(gamma x) - v phi'(gamma x))

and the full soliton at time t carries the extra phase e^{i (omega/gamma) t + i theta}
with argument x - v t - x0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grids import (
    Field,
    Grid,
    norm_l2,
    raise_problems,
    spectral_derivative,
    spectral_second_derivative,
    wrap_coordinate,
)

__all__ = [
    "ModelParams",
    "SolitonParams",
    "model_problems",
    "frequency_problems",
    "soliton_problems",
    "GroundState",
    "FrequencyRangeError",
    "DomainTooSmallError",
    "ShootingError",
    "ground_state_1d",
    "ground_state_radial",
    "free_flow",
    "sample_soliton",
    "phi_tilde",
    "phi_omega",
    "standing_wave_energy",
    "standing_wave_energy_scaling",
]


class FrequencyRangeError(ValueError):
    """|omega| is not below sqrt(m)."""


class DomainTooSmallError(ValueError):
    """The profile has not decayed at the domain boundary."""


class ShootingError(RuntimeError):
    """Radial shooting failed to bracket or converge."""


def model_problems(m: float, p: float, d: int) -> list[str]:
    """The rules (m, p, d) break.  Profiles exist for every energy-subcritical
    p; the narrower ``mass_subcritical`` window only gates orbital stability."""
    problems = []
    if not (math.isfinite(m) and m > 0):
        problems.append(f"mass m must be positive and finite (got {m})")
    if d not in (1, 2, 3):
        problems.append(f"dimension d must be 1, 2 or 3 (got {d})")
    else:
        h1_limit = math.inf if d <= 2 else 1.0 + 4.0 / (d - 2.0)
        if not 1.0 < p < h1_limit:
            problems.append(
                f"exponent p={p} outside the energy-subcritical range (1, {h1_limit}) for d={d}"
            )
    return problems


def frequency_problems(model: ModelParams, omega: float) -> list[str]:
    """|omega| < sqrt(m): below it the standing wave exists and decays."""
    if abs(omega) < math.sqrt(model.m):
        return []
    return [f"|omega|={abs(omega)} not below sqrt(m)={math.sqrt(model.m)}"]


def soliton_problems(
    model: Optional[ModelParams], omega: float, theta: float, v: float, x0: float
) -> list[str]:
    """The rules one boosted standing wave breaks; the band only with a model."""
    problems = frequency_problems(model, omega) if model is not None else []
    if not abs(v) < 1.0:
        problems.append(f"|v|={abs(v)} not below the speed of light 1")
    for name, val in (("theta", theta), ("x0", x0)):
        if not math.isfinite(val):
            problems.append(f"{name}={val} must be finite")
    return problems


@dataclass
class ModelParams:
    """Mass and nonlinearity exponent of u_tt - Lap u + m u - |u|^(p-1) u = 0."""

    m: float = 1.0
    p: float = 3.0
    d: int = 1

    def __post_init__(self) -> None:
        raise_problems(model_problems(self.m, self.p, self.d))

    @property
    def mass_subcritical(self) -> bool:
        """p < 1 + 4/d, required for a nonempty stability window."""
        return self.p < 1.0 + 4.0 / self.d

    def stability_threshold(self) -> float:
        """Value of omega^2/m above which boosted ground states are stable."""
        if not self.mass_subcritical:
            return math.inf
        return 1.0 / (1.0 + 4.0 / (self.p - 1.0) - self.d)


@dataclass
class SolitonParams:
    """One solitary wave: frequency, phase, velocity and initial position."""

    model: ModelParams
    omega: float
    theta: float = 0.0
    v: float = 0.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        band = frequency_problems(self.model, self.omega)  # modulation Newton catches it
        error = FrequencyRangeError if band else ValueError
        problems = soliton_problems(self.model, self.omega, self.theta, self.v, self.x0)
        raise_problems(problems, error)

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v * self.v)

    @property
    def stable(self) -> bool:
        """True when (omega, v) lies in the orbital-stability window."""
        return self.omega**2 / self.model.m > self.model.stability_threshold()

    def advanced(self, t: float) -> SolitonParams:
        """The same soliton with phase and position carried by the free flow for time t."""
        theta, x0 = free_flow(self, t)
        return replace(self, theta=theta, x0=x0)


def free_flow(sp: SolitonParams, t: float) -> tuple[float, float]:
    """Phase and position of the unperturbed soliton after time t:
    (theta + t * omega/gamma, x0 + t * v)."""
    return sp.theta + t * (sp.omega / sp.gamma), sp.x0 + t * sp.v


def phi_tilde(y: np.ndarray | float, p: float):
    """Normalized 1D ground state of -phi'' + phi = phi^p."""
    amp = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    return amp * np.cosh(0.5 * (p - 1.0) * np.asarray(y, dtype=float)) ** (
        -2.0 / (p - 1.0)
    )


def phi_omega(y: np.ndarray | float, model: ModelParams, omega: float):
    """Ground state at frequency omega via the (m - omega^2) scaling."""
    raise_problems(frequency_problems(model, omega), FrequencyRangeError)
    mu = model.m - omega * omega
    return mu ** (1.0 / (model.p - 1.0)) * phi_tilde(math.sqrt(mu) * np.asarray(y), model.p)


@dataclass
class GroundState:
    """Sampled profile with its discrete ODE residual: on a periodic ``grid``
    (1D closed form) or on a ``radial_mesh`` (shooting)."""

    samples: np.ndarray
    residual: float
    grid: Optional[Grid] = None
    radial_mesh: Optional[np.ndarray] = None


def _residual_1d(samples: np.ndarray, model: ModelParams, omega: float, grid: Grid) -> float:
    mu = model.m - omega * omega
    res = (
        -spectral_second_derivative(samples, grid)
        + mu * samples
        - np.abs(samples) ** (model.p - 1.0) * samples
    )
    return float(np.max(np.abs(res)))


def _check_boundary_decay(samples: np.ndarray, what: str) -> None:
    peak = float(np.max(np.abs(samples)))
    edge = float(max(abs(samples[0]), abs(samples[-1])))
    if peak == 0.0:
        return
    rel = edge / peak
    if rel > 1e-6:
        raise DomainTooSmallError(
            f"{what}: boundary value {rel:.2e} of peak; enlarge the domain "
            f"(heuristic: length >= 60/sqrt(m - omega^2) plus translation extent)"
        )
    if rel > 1e-10:
        warnings.warn(
            f"{what}: boundary value {rel:.2e} of peak exceeds 1e-10", stacklevel=3
        )


def ground_state_1d(model: ModelParams, omega: float, grid: Grid) -> GroundState:
    """Closed-form 1D ground state sampled on the periodic grid."""
    if model.d != 1:
        raise ValueError("ground_state_1d requires d=1")
    samples = np.asarray(phi_omega(grid.x, model, omega), dtype=float)
    _check_boundary_decay(samples, "ground state")
    res = _residual_1d(samples, model, omega, grid)
    return GroundState(samples, res, grid=grid)


def _shoot(a: float, mu: float, p: float, d: int, rmax: float, n: int):
    """Integrate the radial ODE from phi(0)=a; RK4 with a series start at r=0.

    Returns (classification, r, phi):
      'cross' -- phi hit zero (initial height too large),
      'turn'  -- phi turned upward while positive (too small),
      'decay' -- reached rmax monotonically decaying.
    """
    h = rmax / n
    r = np.linspace(0.0, rmax, n + 1)
    phi = np.zeros(n + 1)
    phi[0] = a

    def rhs(rr, y):
        f, g = y  # phi, phi'
        curv = mu * f - np.sign(f) * abs(f) ** p
        if rr == 0.0:
            return np.array([g, curv / d])
        return np.array([g, curv - (d - 1) / rr * g])

    # series start: phi ~ a + phi''(0) r^2 / 2 with phi''(0) = (mu a - a^p)/d
    y = np.array([a, 0.0])
    for i in range(n):
        rr = r[i]
        k1 = rhs(rr, y)
        k2 = rhs(rr + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(rr + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(rr + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        phi[i + 1] = y[0]
        if y[0] <= 0.0:
            return "cross", r[: i + 2], phi[: i + 2]
        if y[1] > 0.0:
            return "turn", r[: i + 2], phi[: i + 2]
    return "decay", r, phi


def _linear_tail(r: np.ndarray, kappa: float, d: int) -> np.ndarray:
    """Decaying solution of the linearized radial equation (exact for d=1,2,3)."""
    if d == 1:
        return np.exp(-kappa * r)
    if d == 3:
        return np.exp(-kappa * r) / r
    from scipy.special import k0

    return k0(kappa * r)


def _radial_stencil_residual(phi: np.ndarray, r: np.ndarray, mu: float, p: float, d: int):
    """4th-order FD residual of phi'' + (d-1)/r phi' - mu phi + phi^p on rows 0..n-2.

    Row 0 uses the regularized form d * phi''(0) = mu phi - phi^p and the even
    extension phi(-r) = phi(r); the last two rows are Dirichlet (handled by the
    caller) and excluded here.
    """
    n = len(phi) - 1
    h = r[1] - r[0]
    ext = np.concatenate([phi[2:0:-1], phi, phi[-1:]])  # phi[-2], phi[-1], ..., pad
    idx = np.arange(0, n - 1) + 2
    d2 = (
        -ext[idx - 2] + 16 * ext[idx - 1] - 30 * ext[idx] + 16 * ext[idx + 1] - ext[idx + 2]
    ) / (12 * h * h)
    d1 = (ext[idx - 2] - 8 * ext[idx - 1] + 8 * ext[idx + 1] - ext[idx + 2]) / (12 * h)
    res = np.empty(n - 1)
    res[0] = d * d2[0] - mu * phi[0] + np.abs(phi[0]) ** (p - 1.0) * phi[0]
    ri = r[1 : n - 1]
    res[1:] = (
        d2[1 : n - 1]
        + (d - 1) / ri * d1[1 : n - 1]
        - mu * phi[1 : n - 1]
        + np.abs(phi[1 : n - 1]) ** (p - 1.0) * phi[1 : n - 1]
    )
    return res


def _radial_jacobian_band(phi: np.ndarray, r: np.ndarray, mu: float, p: float, d: int):
    """Jacobian of ``_radial_stencil_residual`` in phi[0..n-2], tail pinned, in
    ``solve_banded((2, 2), ...)`` layout.

    The stencil reaches two points each way, so comb probes with unit entries
    at every fifth point (pinned tail at zero) read off each column without
    overlap.  On 0/1 entries the nonlinear term equals the probe, which
    leaves the linear part; the nonlinear part p |phi|^(p-1) is diagonal.
    """
    size = len(phi) - 2
    cols = np.arange(size)
    probes = np.zeros((5, len(phi)))
    probes[cols % 5, cols] = 1.0
    linear = np.array([_radial_stencil_residual(z, r, mu, p, d) - z[:size] for z in probes])
    ab = np.zeros((5, size))  # ab[2 + i - j, j] = J[i, j]
    for off in range(-2, 3):
        ok = (cols + off >= 0) & (cols + off < size)
        ab[2 + off, cols[ok]] = linear[cols[ok] % 5, cols[ok] + off]
    ab[2] += p * np.abs(phi[:size]) ** (p - 1.0)
    return ab


def _polish_radial(phi: np.ndarray, r: np.ndarray, mu: float, p: float, d: int):
    """Newton iteration on the 4th-order FD system, pentadiagonal Jacobian.

    The last two mesh values are pinned to the matched linear tail, which
    removes the kink left by the shooting splice and drives the discrete
    residual to rounding level.
    """
    from scipy.linalg import solve_banded

    n = len(phi) - 1
    kappa = math.sqrt(mu)
    tail = _linear_tail(r[-2:], kappa, d)
    scale = phi[-3] / _linear_tail(r[-3:-2], kappa, d)[0]
    pin = scale * tail

    for _ in range(30):
        phi[-2:] = pin
        res = _radial_stencil_residual(phi, r, mu, p, d)
        # floor set by rounding in the 1/(12 h^2) stencil, well below 1e-8
        if np.max(np.abs(res)) < 1e-10:
            break
        step = solve_banded((2, 2), _radial_jacobian_band(phi, r, mu, p, d), -res)
        phi[: n - 1] += step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, float(np.max(np.abs(phi)))):
            break
    phi[-2:] = pin
    return phi


# relative tolerance of the bisection on the ground-state height phi(0)
HEIGHT_TOL = 1e-12


def ground_state_radial(
    model: ModelParams, omega: float, rmax: float = 20.0, n: int = 4000
) -> GroundState:
    """Radial ground state by bisection shooting on phi(0), then an FD polish.

    Brackets the threshold height between turning-up (too small) and
    zero-crossing (too large) trajectories, bisects phi(0) to ``HEIGHT_TOL``,
    splices the matched decaying tail where the trajectory degenerates, and
    polishes the whole mesh with Newton on the 4th-order finite-difference
    system so the reported discrete residual is at rounding level.
    """
    raise_problems(frequency_problems(model, omega), FrequencyRangeError)
    mu = model.m - omega * omega
    p, d = model.p, float(model.d)

    a_lo = a_hi = None
    a = mu ** (1.0 / (p - 1.0))  # below the ground-state height: starts as 'turn'
    for _ in range(200):
        kind, _, _ = _shoot(a, mu, p, model.d, rmax, n)
        if kind == "cross":
            a_hi = a
            break
        a_lo = a
        a *= 1.3
    if a_hi is None or a_lo is None:
        raise ShootingError("failed to bracket the ground-state height")

    while a_hi - a_lo > HEIGHT_TOL * max(1.0, a_hi):
        mid = 0.5 * (a_lo + a_hi)
        kind, _, _ = _shoot(mid, mu, p, model.d, rmax, n)
        if kind == "cross":
            a_hi = mid
        else:
            a_lo = mid

    a_star = 0.5 * (a_lo + a_hi)
    _, _, phi_part = _shoot(a_star, mu, p, model.d, rmax, n)
    r = np.linspace(0.0, rmax, n + 1)
    phi = np.zeros(n + 1)
    kappa = math.sqrt(mu)
    # keep the trajectory only while it is trusted (above 1e-4 of the height)
    trusted = int(np.argmax(phi_part < 1e-4 * a_star)) or len(phi_part)
    trusted = min(trusted, len(phi_part))
    phi[:trusted] = phi_part[:trusted]
    if trusted <= n:
        base = _linear_tail(np.array([r[trusted - 1]]), kappa, model.d)[0]
        phi[trusted - 1 :] = (
            phi[trusted - 1] / base * _linear_tail(r[trusted - 1 :], kappa, model.d)
        )
    phi = _polish_radial(phi, r, mu, p, d)
    if np.any(phi < 0) or np.any(np.diff(phi) > 1e-12 * a_star):
        raise ShootingError("polished profile is not positive decreasing")
    res = _radial_stencil_residual(phi, r, mu, p, d)
    return GroundState(phi, float(np.max(np.abs(res))), radial_mesh=r)


def sample_soliton(sp: SolitonParams, t: float, grid: Grid) -> Field:
    """Exact soliton at time t: the boost formula of the module docstring at
    y = x - x0(t) wrapped onto the torus, times e^{i theta(t)} (``free_flow``).

    DomainTooSmallError when the unshifted profile has not decayed at the
    boundary; modulation fitting reads it as the trajectory leaving the tube."""
    if sp.model.d != 1:
        raise ValueError("soliton sampling is implemented for d=1 dynamics")
    _check_boundary_decay(phi_omega(grid.x, sp.model, sp.omega), "ground state")
    angle, shift = free_flow(sp, t)
    y = wrap_coordinate(grid.x - shift, grid.length)
    prof = phi_omega(sp.gamma * y, sp.model, sp.omega)
    dprof = spectral_derivative(prof, grid)  # = gamma * phi'(gamma y)
    phase = np.exp(1j * angle) * np.exp(-1j * sp.gamma * sp.omega * sp.v * y)
    return Field(phase * prof, phase * (1j * sp.omega * sp.gamma * prof - sp.v * dprof), grid)


def standing_wave_energy(model: ModelParams, omega: float, grid: Grid) -> float:
    """Energy of the standing wave (phi_omega, i omega phi_omega) by quadrature."""
    from .functionals import energy  # functionals imports this module

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


def profile_norms(gs: GroundState) -> tuple[float, float]:
    """(||phi||_2^2, ||phi'||_2^2) of a grid-sampled ground state."""
    if gs.grid is None:
        raise ValueError("profile_norms needs a grid-sampled ground state")
    n2 = norm_l2(gs.samples, gs.grid) ** 2
    dn2 = norm_l2(spectral_derivative(gs.samples, gs.grid), gs.grid) ** 2
    return n2, dn2


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
