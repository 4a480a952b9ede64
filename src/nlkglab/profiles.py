"""Ground-state profiles and Lorentz-boosted solitary waves.

The scalar ground state solves -phi'' + (m - omega^2) phi = phi^p.  In 1D
it has the closed form

    phi_tilde(x) = ((p+1)/2)^(1/(p-1)) * sech((p-1) x / 2)^(2/(p-1)),

for the normalized equation (coefficient 1), and the general profile is
obtained from the scaling

    phi_omega(x) = (m - omega^2)^(1/(p-1)) * phi_tilde(sqrt(m - omega^2) x).

For radial dimensions 2 and 3 the profile is computed by Petviashvili's
iteration on the radial ODE.  Boosting a standing wave with velocity v
contracts the profile by the Lorentz factor gamma and tilts the phase:

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
    "frequency_tangent",
    "phi_tilde",
    "phi_omega",
]


class FrequencyRangeError(ValueError):
    """|omega| is not below sqrt(m)."""


class DomainTooSmallError(ValueError):
    """The profile has not decayed at the domain boundary."""


class ShootingError(RuntimeError):
    """The radial ground-state iteration did not converge or is not positive decreasing."""


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
    (1D closed form) or on a ``radial_mesh`` (Petviashvili iteration)."""

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


# a boundary value above this fraction of the peak means the domain is too small
BOUNDARY_DECAY_TOL = 1e-6


def _raise_if_not_decayed(rel: float, what: str) -> None:
    if rel > BOUNDARY_DECAY_TOL:
        raise DomainTooSmallError(
            f"{what}: boundary value {rel:.2e} of peak; enlarge the domain "
            f"(heuristic: length >= 60/sqrt(m - omega^2) plus translation extent)"
        )


def _check_boundary_decay(samples: np.ndarray, what: str) -> None:
    peak = float(np.max(np.abs(samples)))
    edge = float(max(abs(samples[0]), abs(samples[-1])))
    if peak == 0.0:
        return
    rel = edge / peak
    _raise_if_not_decayed(rel, what)
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


def _radial_linear_band(r: np.ndarray, mu: float, p: float, d: int):
    """Linear part of the Jacobian of ``_radial_stencil_residual`` in
    phi[0..n-2], tail pinned, in ``solve_banded((2, 2), ...)`` layout; the
    nonlinear part p |phi|^(p-1) is diagonal.

    The stencil reaches two points each way, so comb probes with unit entries
    at every fifth point (pinned tail at zero) read off each column without
    overlap.  On 0/1 entries the nonlinear term equals the probe, which
    leaves the linear part.
    """
    size = len(r) - 2
    cols = np.arange(size)
    probes = np.zeros((5, len(r)))
    probes[cols % 5, cols] = 1.0
    linear = np.array([_radial_stencil_residual(z, r, mu, p, d) - z[:size] for z in probes])
    ab = np.zeros((5, size))  # ab[2 + i - j, j] = J[i, j]
    for off in range(-2, 3):
        ok = (cols + off >= 0) & (cols + off < size)
        ab[2 + off, cols[ok]] = linear[cols[ok] % 5, cols[ok] + off]
    return ab


def _polish_radial(
    phi: np.ndarray, r: np.ndarray, mu: float, p: float, d: int, band: np.ndarray
):
    """Newton iteration on the 4th-order FD system, pentadiagonal Jacobian:
    ``band`` (``_radial_linear_band``) plus p |phi|^(p-1) on its diagonal.

    The last two mesh values stay pinned where the caller's tail splice put
    them; Newton removes the kink the splice leaves and drives the discrete
    residual to rounding level.
    """
    from scipy.linalg import solve_banded

    n = len(phi) - 1
    for _ in range(30):
        res = _radial_stencil_residual(phi, r, mu, p, d)
        # floor set by rounding in the 1/(12 h^2) stencil, well below 1e-8
        if np.max(np.abs(res)) < 1e-10:
            break
        jac = band.copy()
        jac[2] += p * np.abs(phi[: n - 1]) ** (p - 1.0)
        step = solve_banded((2, 2), jac, -res)
        phi[: n - 1] += step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, float(np.max(np.abs(phi)))):
            break
    return phi


# slow contraction near p = 1 and the d = 3 critical p = 5 (389 iterations at p = 4.9)
PETVIASHVILI_MAX_ITER = 1000
# sup update, relative to the iterate, at which the Newton polish takes over
PETVIASHVILI_TOL = 1e-6


def ground_state_radial(
    model: ModelParams, omega: float, rmax: float = 20.0, n: int = 4000
) -> GroundState:
    """Radial ground state by Petviashvili's iteration, then an FD polish.

    With the tail pinned at zero, iterates phi <- S^(p/(p-1)) M^-1 phi^p on the
    4th-order stencil, M = mu - Lap_h and S = <M phi, phi> / <phi^p, phi>
    weighted by r^(d-1), which converges to the ground state (Pelinovsky &
    Stepanyants, SIAM J. Numer. Anal. 42, 2004).  It then splices the matched
    decaying tail and polishes the whole mesh with Newton to rounding level.
    """
    from scipy.linalg import solve_banded

    raise_problems(frequency_problems(model, omega), FrequencyRangeError)
    mu = model.m - omega * omega
    p, d = model.p, float(model.d)
    r = np.linspace(0.0, rmax, n + 1)
    free = slice(0, n - 1)
    weight = r[free] ** (d - 1.0)
    band = _radial_linear_band(r, mu, p, d)
    m_band = -band
    phi = np.zeros(n + 1)
    phi[free] = np.exp(-r[free] ** 2)
    for _ in range(PETVIASHVILI_MAX_ITER):
        power = np.abs(phi[free]) ** (p - 1.0) * phi[free]
        m_phi = power - _radial_stencil_residual(phi, r, mu, p, d)
        s = np.sum(weight * m_phi * phi[free]) / np.sum(weight * power * phi[free])
        # unchecked: a diverging (non-finite) iterate runs on to the cap
        new = s ** (p / (p - 1.0)) * solve_banded((2, 2), m_band, power, check_finite=False)
        change = np.max(np.abs(new - phi[free]))
        phi[free] = new
        if change < PETVIASHVILI_TOL * np.max(np.abs(new)):
            break
    else:
        raise ShootingError(f"Petviashvili iteration did not converge in {PETVIASHVILI_MAX_ITER} steps")

    # keep the iterate only while it is trusted (above 1e-4 of the height):
    # the Dirichlet zero pulls it down near rmax, and the polish keeps the tail
    cut = int(np.argmax(phi[free] < 1e-4 * phi[0])) or n - 2
    tail = _linear_tail(r[cut:], math.sqrt(mu), model.d)
    phi[cut:] = phi[cut] / tail[0] * tail
    phi = _polish_radial(phi, r, mu, p, d, band)
    _raise_if_not_decayed(phi[-1] / phi[0], "radial ground state")
    if not (np.all(phi >= 0) and np.all(np.diff(phi) <= 1e-12 * phi[0])):
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
    # phi is even and decreasing in |x|, so the grid point nearest 0 holds the
    # grid's peak: the two ends and that point decide the boundary check
    ends_and_peak = grid.x[[0, grid.points // 2, -1]]
    _check_boundary_decay(phi_omega(ends_and_peak, sp.model, sp.omega), "ground state")
    angle, shift = free_flow(sp, t)
    y = wrap_coordinate(grid.x - shift, grid.length)
    prof = phi_omega(sp.gamma * y, sp.model, sp.omega)
    dprof = spectral_derivative(prof, grid)  # = gamma * phi'(gamma y)
    phase = np.exp(1j * angle) * np.exp(-1j * sp.gamma * sp.omega * sp.v * y)
    return Field(phase * prof, phase * (1j * sp.omega * sp.gamma * prof - sp.v * dprof), grid)


def frequency_tangent(sp: SolitonParams, sample: Field) -> Field:
    """d/domega of ``sample_soliton(sp, 0, grid)`` in closed form, from that sample.

    With y = wrap(x - x0), mu = m - omega^2, s = sqrt(mu) gamma y and
    b = (p-1)/2, the profile phi_omega(gamma y) has the real log-derivatives
    g = (omega/mu)(s tanh(bs) - 1/b) in omega and h = -gamma sqrt(mu) tanh(bs)
    in x, and g' = dg/dx; the boost phase gives i a with a = -gamma v y.  Then

        d u1 = u1 (g + i a),
        d u2 = i a u2 + u1 (i gamma (1 + omega g) - v (g' + g h)).

    The sample's u2 holds a spectral derivative where this formula holds the
    exact one, so the two agree as far as the grid resolves the profile.
    """
    model, om, gam = sp.model, sp.omega, sp.gamma
    mu = model.m - om * om
    rmu = math.sqrt(mu)
    b = 0.5 * (model.p - 1.0)
    y = wrap_coordinate(sample.grid.x - sp.x0, sample.grid.length)
    s = (rmu * gam) * y
    th = np.tanh(b * s)
    g = (om / mu) * (s * th - 1.0 / b)
    h = -(gam * rmu) * th
    dg = (om * gam / rmu) * (th + b * s * (1.0 - th * th))
    ia = (-1j * gam * sp.v) * y
    du2 = ia * sample.u2 + sample.u1 * (1j * gam * (1.0 + om * g) - sp.v * (dg + g * h))
    return Field(sample.u1 * (g + ia), du2, sample.grid)


def profile_norms(gs: GroundState) -> tuple[float, float]:
    """(||phi||_2^2, ||phi'||_2^2) of a grid-sampled ground state."""
    if gs.grid is None:
        raise ValueError("profile_norms needs a grid-sampled ground state")
    n2 = norm_l2(gs.samples, gs.grid) ** 2
    dn2 = norm_l2(spectral_derivative(gs.samples, gs.grid), gs.grid) ** 2
    return n2, dn2
