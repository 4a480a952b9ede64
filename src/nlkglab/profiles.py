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
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grids import Field, Grid, NumericalFailure, norm_l2, raise_problems, spectral_derivative
from .grids import symmetry_rows, wrap_coordinate

__all__ = [
    "ModelParams",
    "SolitonParams",
    "model_problems",
    "frequency_problems",
    "peak_problems",
    "soliton_problems",
    "boundary_ratio",
    "domain_problems",
    "points_per_width",
    "GroundState",
    "FrequencyRangeError",
    "DomainTooSmallError",
    "ShootingError",
    "ground_state_1d",
    "ground_state_radial",
    "free_flow",
    "sample_soliton",
    "soliton_tangents",
    "phi_tilde",
    "phi_omega",
]


class FrequencyRangeError(ValueError):
    """|omega| is not below sqrt(m)."""


class DomainTooSmallError(ValueError):
    """The profile has not decayed at the domain boundary."""


class ShootingError(NumericalFailure):
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


# the logarithms of the smallest normal and the largest float
_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)


def peak_problems(model: ModelParams, omega: float) -> list[str]:
    """For |omega| < sqrt(m): the closed-form peak ((p+1)(m - omega^2)/2)^(1/(p-1))
    of phi_omega must be a positive finite float; near p = 1 it underflows to 0
    (or overflows), and every sample of the profile with it."""
    log_peak = math.log(0.5 * (model.p + 1.0) * (model.m - omega * omega)) / (model.p - 1.0)
    if _LOG_TINY < log_peak < _LOG_HUGE:
        return []
    fate = "underflows to 0" if log_peak <= _LOG_TINY else "overflows"
    return [
        f"ground-state peak ((p+1)(m - omega^2)/2)^(1/(p-1)) = exp({log_peak:.6g}) {fate} "
        f"at p={model.p}, omega={omega}"
    ]


def soliton_problems(
    model: Optional[ModelParams], omega: float, theta: float, v: float, x0: float
) -> list[str]:
    """The rules one boosted standing wave breaks; the band only with a model,
    and the ground-state peak once the band holds."""
    problems = frequency_problems(model, omega) if model is not None else []
    if model is not None and not problems:
        problems = peak_problems(model, omega)
    if not abs(v) < 1.0:
        problems.append(f"|v|={abs(v)} not below the speed of light 1")
    for name, val in (("theta", theta), ("x0", x0)):
        if not math.isfinite(val):
            problems.append(f"{name}={val} must be finite")
    return problems


def boundary_ratio(model: ModelParams, omega: float, grid: Grid) -> float:
    """phi_omega at the grid's ends over its value at x[N//2], the grid point
    nearest 0, which holds the grid's peak as phi is even and decreasing in |x|."""
    left, peak, right = phi_omega(grid.x[[0, grid.points // 2, -1]], model, omega)
    return float(max(left, right) / peak)


def points_per_width(model: ModelParams, omega: float, v: float, grid: Grid) -> float:
    """w/h: the width w = 1/(gamma sqrt(mu) (p-1)/2), mu = m - omega^2, of the
    boosted profile phi_omega(gamma y), which falls like sech^(2/(p-1))(y/w),
    over the grid spacing h.  NaN where there is no profile (|omega| >= sqrt(m)
    or |v| >= 1)."""
    if not (abs(omega) < math.sqrt(model.m) and abs(v) < 1.0):
        return math.nan
    gamma_rmu = math.sqrt((model.m - omega * omega) / (1.0 - v * v))
    return 2.0 / (gamma_rmu * (model.p - 1.0) * grid.spacing)


def domain_problems(rel: float, what: str = "ground state") -> tuple[list[str], list[str]]:
    """(errors, warnings) of a profile's boundary-to-peak ratio ``rel``: above
    1e-6 the domain is too small to hold it, and above 1e-10 its tail is reported."""
    value = f"{what}: boundary value {rel:.2e} of peak"
    if rel > 1e-6:
        heuristic = "length >= 60/sqrt(m - omega^2) plus translation extent"
        return [f"{value}; enlarge the domain (heuristic: {heuristic})"], []
    return [], ([f"{value} exceeds 1e-10"] if rel > 1e-10 else [])


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
        raise_problems(soliton_problems(self.model, self.omega, self.theta, self.v, self.x0))

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
    raise_problems(peak_problems(model, omega))
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
        -spectral_derivative(spectral_derivative(samples, grid), grid)
        + mu * samples
        - np.abs(samples) ** (model.p - 1.0) * samples
    )
    return float(np.max(np.abs(res)))


def _check_domain(model: ModelParams, omega: float, grid: Grid) -> None:
    """The domain rule's errors raise DomainTooSmallError; its warnings go to the caller's caller."""
    errors, tails = domain_problems(boundary_ratio(model, omega, grid))
    raise_problems(errors, DomainTooSmallError)
    for tail in tails:
        warnings.warn(tail, stacklevel=3)


def ground_state_1d(model: ModelParams, omega: float, grid: Grid) -> GroundState:
    """Closed-form 1D ground state sampled on the periodic grid."""
    if model.d != 1:
        raise ValueError("ground_state_1d requires d=1")
    _check_domain(model, omega, grid)
    samples = np.asarray(phi_omega(grid.x, model, omega), dtype=float)
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
    # the neighbours at offsets -2..2 of rows 0..n-2 (ext[2 : n + 1])
    back2, back1, mid, ahead1, ahead2 = (ext[k : n - 1 + k] for k in range(5))
    d2 = (-back2 + 16 * back1 - 30 * mid + 16 * ahead1 - ahead2) / (12 * h * h)
    d1 = (back2 - 8 * back1 + 8 * ahead1 - ahead2) / (12 * h)
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
    residual to rounding level.  ShootingError after POLISH_MAX_ITER steps.
    """
    from scipy.linalg import solve_banded

    n = len(phi) - 1
    for _ in range(POLISH_MAX_ITER):
        res = _radial_stencil_residual(phi, r, mu, p, d)
        jac = band.copy()
        jac[2] += p * np.abs(phi[: n - 1]) ** (p - 1.0)
        step = solve_banded((2, 2), jac, -res)
        phi[: n - 1] += step
        # converging quadratically, the next step would be below rounding
        if np.max(np.abs(step)) < POLISH_STEP_TOL * max(1.0, float(np.max(np.abs(phi)))):
            return phi
    raise ShootingError(f"Newton polish did not converge in {POLISH_MAX_ITER} steps")


# slow contraction near p = 1 and the d = 3 critical p = 5 (389 iterations at p = 4.9)
PETVIASHVILI_MAX_ITER = 1000
# sup update, relative to the iterate, at which the Newton polish takes over
PETVIASHVILI_TOL = 1e-6
# Newton steps of the polish; the usual meshes take 2 or 3
POLISH_MAX_ITER = 30
# sup Newton step, relative to max(1, max|phi|), after which the polish stops;
# at the rounding floor the steps wander at 1e-13 to 4e-12 and settle no lower
POLISH_STEP_TOL = 1e-11


def _petviashvili(r: np.ndarray, mu: float, p: float, d: float, band: np.ndarray) -> np.ndarray:
    """Petviashvili's iteration phi <- S^(p/(p-1)) M^-1 phi^p with the tail
    (the last two mesh values) pinned at zero, to PETVIASHVILI_TOL.

    M = mu - Lap_h is ``-band``: factored once (LAPACK gbtrf), each iteration
    only solves with the factors (gbtrs).  S = <M phi, phi> / <phi^p, phi>
    weighted by r^(d-1).  The solve gives the next M phi for free:
    M phi_{k+1} = S_k^(p/(p-1)) phi_k^p, so the stencil runs once, on the
    starting guess.
    """
    from scipy.linalg import get_lapack_funcs

    n = len(r) - 1
    free = slice(0, n - 1)
    weight = r[free] ** (d - 1.0)
    # gbtrf's layout: two spare rows above the band for the pivoting fill-in,
    # Fortran order so that the factors overwrite it in place
    lu = np.zeros((7, n - 1), order="F")
    lu[2:] = -band
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (lu,))
    lu, piv, info = gbtrf(lu, 2, 2, overwrite_ab=True)
    if info != 0:
        raise ShootingError(f"Petviashvili operator mu - Lap_h is singular (gbtrf info {info})")
    phi = np.zeros(n + 1)
    phi[free] = np.exp(-r[free] ** 2)
    power = np.abs(phi[free]) ** (p - 1.0) * phi[free]
    m_phi = power - _radial_stencil_residual(phi, r, mu, p, d)
    for _ in range(PETVIASHVILI_MAX_ITER):
        s = np.sum(weight * m_phi * phi[free]) / np.sum(weight * power * phi[free])
        # unchecked: a diverging (non-finite) iterate runs on to the cap
        lift = s ** (p / (p - 1.0))
        m_phi = lift * power
        new = lift * gbtrs(lu, 2, 2, power, piv, overwrite_b=True)[0]
        change = np.max(np.abs(new - phi[free]))
        phi[free] = new
        if change < PETVIASHVILI_TOL * np.max(np.abs(new)):
            return phi
        power = np.abs(new) ** (p - 1.0) * new
    raise ShootingError(f"Petviashvili iteration did not converge in {PETVIASHVILI_MAX_ITER} steps")


def ground_state_radial(
    model: ModelParams, omega: float, rmax: float = 20.0, n: int = 4000
) -> GroundState:
    """Radial ground state by Petviashvili's iteration, then an FD polish.

    With the tail pinned at zero, ``_petviashvili`` iterates on the 4th-order
    stencil, which converges to the ground state (Pelinovsky & Stepanyants,
    SIAM J. Numer. Anal. 42, 2004), with one factorization of M = mu - Lap_h
    and no stencil per iteration.  It then splices the matched decaying tail
    and polishes the whole mesh with Newton to rounding level.
    """
    raise_problems(frequency_problems(model, omega), FrequencyRangeError)
    mu = model.m - omega * omega
    p, d = model.p, float(model.d)
    r = np.linspace(0.0, rmax, n + 1)
    band = _radial_linear_band(r, mu, p, d)
    phi = _petviashvili(r, mu, p, d, band)

    # keep the iterate only while it is trusted (above 1e-4 of the height):
    # the Dirichlet zero pulls it down near rmax, and the polish keeps the tail
    cut = int(np.argmax(phi[: n - 1] < 1e-4 * phi[0])) or n - 2
    tail = _linear_tail(r[cut:], math.sqrt(mu), model.d)
    phi[cut:] = phi[cut] / tail[0] * tail
    phi = _polish_radial(phi, r, mu, p, d, band)
    errors, _ = domain_problems(phi[-1] / phi[0], "radial ground state")
    raise_problems(errors, DomainTooSmallError)
    if not (np.all(phi >= 0) and np.all(np.diff(phi) <= 1e-12 * phi[0])):
        raise ShootingError("polished profile is not positive decreasing")
    res = _radial_stencil_residual(phi, r, mu, p, d)
    return GroundState(phi, float(np.max(np.abs(res))), radial_mesh=r)


def _log_slope(sp: SolitonParams, y: np.ndarray):
    """(s, tanh(bs), h) at the wrapped coordinate y: s = sqrt(mu) gamma y,
    b = (p-1)/2 and h = -gamma sqrt(mu) tanh(bs), the log-derivative in x of
    the boosted profile phi_omega(gamma y)."""
    rmu = math.sqrt(sp.model.m - sp.omega * sp.omega)
    s = (rmu * sp.gamma) * y
    th = np.tanh(0.5 * (sp.model.p - 1.0) * s)
    return s, th, -(sp.gamma * rmu) * th


def _boost_phase(angle: float, kappa: float, y: np.ndarray, grid: Grid) -> np.ndarray:
    """e^{i angle} e^{i kappa y} on y = ``wrap_coordinate(grid.x - shift)``
    without an exponential per point.

    y rises by the spacing h from one index to the next, except at its one
    wrap point, where it drops by L.  With B = ceil(sqrt(N)) and k = aB + b,
    the phase at k is a coarse entry e^{i angle} e^{i kappa y_{aB}} times a
    fine one e^{i kappa hb}; in the block the wrap splits, the indices past
    it take their coarse entry from y at the wrap instead.  That is about
    2 sqrt(N) exponentials and one complex product per point, and every
    exponent is kappa times a sampled y or hb, no larger than the direct one.

    An entry differs from e^{i angle} e^{i kappa y_k} by a few roundings and
    by kappa times the gap between y_k and y_{aB} + hb, which is the rounding
    of grid.x and of x - shift: below 2 |kappa| ulp(|x - shift|).  Where the
    spacing is a binary fraction the two agree to 1e-15 relative (L = 160 at
    N = 512 and 2048, the soliton at an end of the box, t up to 250); at
    N = 1999 they differ by up to 3e-14, and each is as close to the phase at
    the exact grid points as the other.  At kappa = 0 every table entry is 1,
    so the phase is e^{i angle}, as with one exponential per point."""
    n = grid.points
    width = math.isqrt(n - 1) + 1
    fine = np.exp((1j * kappa * grid.spacing) * np.arange(width))
    coarse = np.exp(1j * angle) * np.exp((1j * kappa) * y[::width])
    phase = np.multiply.outer(coarse, fine).ravel()[:n]
    wrap = int(np.argmin(y))  # the first index past the drop by L; 0 when y never wraps
    end = min(n, -(-wrap // width) * width)
    if wrap < end:
        phase[wrap:end] = np.exp(1j * angle) * np.exp(1j * kappa * y[wrap]) * fine[: end - wrap]
    return phase


def sample_soliton(
    sp: SolitonParams,
    t: float,
    grid: Grid,
    rows: Optional[np.ndarray] = None,
    d_omega: Optional[np.ndarray] = None,
) -> Field:
    """Exact soliton at time t: the boost formula of the module docstring at
    y = x - x0(t) wrapped onto the torus, times e^{i theta(t)} (``free_flow``).
    gamma phi'(gamma y) is the closed form h phi(gamma y) of ``_log_slope``, so
    sampling takes no FFT.  The phase e^{i theta(t)} e^{-i gamma omega v y}
    is the product of two tables of about sqrt(N) exponentials
    (``_boost_phase``): at v = 0 the bits of one exponential per point, and
    otherwise within a few roundings of it plus 2 |gamma omega v| ulp(|x - x0(t)|).

    Given ``rows``, a (3, 2N) complex array or view, and ``d_omega``, a (2N,)
    one, the same pass writes the sample's symmetry directions i R, i J R and
    R' (``grids.symmetry_rows``) into ``rows`` and dR/domega into ``d_omega``:
    the tangents of the soliton at (theta(t), omega, x0(t)), each u1 times a
    bracket of the real closed forms it already holds.  With mu = m - omega^2,
    s = sqrt(mu) gamma y and b = (p-1)/2, the profile phi_omega(gamma y) has
    the log-derivatives h = -gamma sqrt(mu) tanh(bs) in x, with
    h' = -b gamma^2 mu sech^2(bs), and g = (omega/mu)(s tanh(bs) - 1/b) in
    omega, with g' = dg/dx; the phase gives i kappa in x, kappa = -gamma omega v,
    and i a in omega, a = -gamma v y.  As u2 = u1 (i gamma omega - v h),

        dx u1 = u1 (h + i kappa),
        dx u2 = u1 (-kappa gamma omega - v (h' + h^2) + i gamma omega (1 + v^2) h),
        dw u1 = u1 (g + i a),
        dw u2 = u1 (-a gamma omega - v (g' + g h) + i (gamma (1 + omega g) - a v h)).

    DomainTooSmallError, or a UserWarning, when the unshifted profile has not
    decayed at the boundary (``domain_problems``); like the other errors,
    before anything is written."""
    if sp.model.d != 1:
        raise ValueError("soliton sampling is implemented for d=1 dynamics")
    _check_domain(sp.model, sp.omega, grid)
    angle, shift = free_flow(sp, t)
    y = wrap_coordinate(grid.x - shift, grid.length)
    prof = phi_omega(sp.gamma * y, sp.model, sp.omega)
    s, th, h = _log_slope(sp, y)
    dprof = h * prof  # = gamma * phi'(gamma y)
    kappa = -sp.gamma * sp.omega * sp.v
    phase = _boost_phase(angle, kappa, y, grid)
    sample = Field(phase * prof, phase * (1j * sp.omega * sp.gamma * prof - sp.v * dprof), grid)
    if rows is None:
        return sample
    model, om, gam, v = sp.model, sp.omega, sp.gamma, sp.v
    size, u1 = grid.points, sample.u1
    mu = model.m - om * om
    b = 0.5 * (model.p - 1.0)
    sech2 = 1.0 - th * th
    g = (om / mu) * (s * th - 1.0 / b)
    a = (-gam * v) * y
    # each tangent is u1 times a complex bracket, written through its real and imaginary views
    bracket = np.empty(size, complex)
    re, im = bracket.real, bracket.imag
    re[...], im[...] = h, kappa
    np.multiply(u1, bracket, out=rows[2, :size])
    dh = (-b * gam * gam * mu) * sech2
    np.multiply(-v, dh + h * h, out=re)
    re -= kappa * gam * om
    np.multiply((gam * om) * (1.0 + v * v), h, out=im)
    np.multiply(u1, bracket, out=rows[2, size:])
    re[...], im[...] = g, a
    np.multiply(u1, bracket, out=d_omega[:size])
    dg = (om * gam / math.sqrt(mu)) * (th + b * s * sech2)
    np.multiply(-v, dg + g * h, out=re)
    re -= (gam * om) * a
    np.multiply(gam, 1.0 + om * g, out=im)
    im -= v * a * h
    np.multiply(u1, bracket, out=d_omega[size:])
    symmetry_rows(sample, Field(rows[2, :size], rows[2, size:], grid), out=rows)
    return sample


def soliton_tangents(sp: SolitonParams, grid: Grid) -> tuple[Field, Field]:
    """d/dx and d/domega of ``sample_soliton(sp, 0, grid)`` in closed form,
    as Fields: the sampler's own rows R' and dR/domega."""
    size = grid.points
    rows, dw = np.empty((3, 2 * size), complex), np.empty(2 * size, complex)
    sample_soliton(sp, 0.0, grid, rows, dw)
    return Field(rows[2, :size], rows[2, size:], grid), Field(dw[:size], dw[size:], grid)


def profile_norms(gs: GroundState) -> tuple[float, float]:
    """(||phi||_2^2, ||phi'||_2^2) of a grid-sampled ground state."""
    if gs.grid is None:
        raise ValueError("profile_norms needs a grid-sampled ground state")
    n2 = norm_l2(gs.samples, gs.grid) ** 2
    dn2 = norm_l2(spectral_derivative(gs.samples, gs.grid), gs.grid) ** 2
    return n2, dn2
