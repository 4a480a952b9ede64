"""End-to-end numerical experiments on multi-soliton dynamics.

The central construction: place the exact sum of solitons R(T) as final
data at a large time T, integrate the flow backward to a base time, and
measure how the trajectory shadows the moving sum.  Around it sit the
companion diagnostics: modulation tracking along the trajectory,
cutoff-localized conservation laws and their near-conservation, local
flux identities audited by dual evaluation, the Taylor expansion of the
localized action around the modulated decomposition, and direct
quadrature of the pairwise interaction integrals with fitted decay
rates.

A run's report keeps one entry per diagnostic hook, and every series
(errors, conserved quantities, localized quantities, modulation fits,
fields) is aligned with its ascending ``times``.

Fitted decay slopes are reported with the standard error of the slope
estimate; a slope counts as "negative" only when that standard error is
below 10% of its magnitude.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .functionals import (
    ActionParams,
    LocalizedQuantities,
    action,
    build_cutoffs,
    flux_densities,
    localized_first_variation,
    localized_hessian_form,
    localized_quantities,
    velocity_problems,
)
from .grids import Field, Grid, norm_h1l2, raise_problems, spectral_derivative
from .integrator import (
    DiagnosticsRecord,
    IntegratorConfig,
    evolve,
    period_problems,
    step_problems,
)
from .modulation import (
    DegenerateConfigurationError,
    ModulationState,
    NotInTubeError,
    fit_modulation,
)
from .profiles import ModelParams, SolitonParams, sample_soliton

__all__ = [
    "MultiSolitonConfig",
    "DecayReport",
    "LadderReport",
    "InteractionReport",
    "AlmostConservationReport",
    "TaylorReport",
    "soliton_sum",
    "fit_log_slope",
    "run_problems",
    "random_bump",
    "run_backward_construction",
    "run_ladder",
    "successive_distances",
    "run_forward_stability",
    "measure_interactions",
    "almost_conservation_audit",
    "taylor_expansion_audit",
]


def soliton_sum(solitons: Sequence[SolitonParams], t: float, grid: Grid) -> Field:
    out = Field.zeros(grid)
    for sp in solitons:
        out = out + sample_soliton(sp, t, grid)
    return out


def fit_log_slope(times: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope of log(values) vs time.

    Returns (slope, slope standard error, rms residual); nonpositive
    values are excluded from the fit, which needs 3 positive samples at two
    or more distinct times.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 0
    t, y = times[mask], np.log(values[mask])
    n = len(t)
    if n < 3:
        raise ValueError("need at least 3 positive samples for a slope fit")
    if np.all(t == t[0]):
        raise ValueError(f"the {n} positive samples all share the time {t[0]}: no slope to fit")
    a = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    sxx = float(np.sum((t - t.mean()) ** 2))
    s2 = float(np.sum(resid**2) / (n - 2))
    stderr = math.sqrt(s2 / sxx)
    return float(coef[0]), stderr, rms


# The proof's rate constant is min(1/24, alpha_tilde/8), where alpha_tilde,
# the directional separation of the velocity set, is identically 1 in 1D.
REFERENCE_ALPHA = 1.0 / 24.0


def run_problems(
    velocities: Sequence[float],
    t_final: float,
    t_start: float,
    dt: float,
    diag_period: float,
    spacing: Optional[float],
) -> list[str]:
    """The rules one construction run breaks.  ``dt`` is the step magnitude (the
    run sets the direction); with a grid ``spacing`` the step rules apply too."""
    problems = []
    if not velocities:
        problems.append("need at least one soliton")
    if not (math.isfinite(t_start) and math.isfinite(t_final) and t_final > t_start):
        problems.append(f"t_final={t_final} must exceed t_start={t_start}, both finite")
    if not dt > 0:
        problems.append(f"dt={dt} must be positive: it is the step magnitude")
    elif spacing is not None:
        problems += step_problems(dt, spacing)
    return problems + period_problems(diag_period) + velocity_problems(velocities)


@dataclass
class MultiSolitonConfig:
    """Grid, soliton set and times for one backward-construction run."""

    model: ModelParams
    grid: Grid
    solitons: list[SolitonParams]
    t_final: float
    t_start: float
    dt: float
    diag_period: float = 0.5

    def __post_init__(self) -> None:
        vels, spacing = [sp.v for sp in self.solitons], self.grid.spacing
        problems = run_problems(vels, self.t_final, self.t_start, self.dt, self.diag_period, spacing)
        # the run steps with its own model, so every soliton must be sampled with it
        problems += [
            f"soliton #{i}: model {sp.model} is not the run's model {self.model}"
            for i, sp in enumerate(self.solitons, start=1) if sp.model != self.model
        ]
        raise_problems(problems)
        # cutoff cells are ordered by velocity; keep solitons aligned with them
        self.solitons = sorted(self.solitons, key=lambda sp: sp.v)

    @property
    def v_star(self) -> float:
        """Smallest velocity gap (solitons are sorted by velocity)."""
        vels = [sp.v for sp in self.solitons]
        return min((b - a for a, b in zip(vels, vels[1:])), default=0.0)

    @property
    def omega_star(self) -> float:
        return max(abs(sp.omega) for sp in self.solitons)

    @property
    def reference_rate(self) -> float:
        """alpha * sqrt(m - omega_star^2) * v_star, the proof-side ceiling rate."""
        return REFERENCE_ALPHA * math.sqrt(self.model.m - self.omega_star**2) * self.v_star

    def action_params(self) -> list[ActionParams]:
        return [ActionParams.from_soliton(sp) for sp in self.solitons]


@dataclass
class DecayReport:
    """Time series produced by one construction run (ascending times)."""

    config: MultiSolitonConfig
    times: np.ndarray
    errors: np.ndarray  # ||U(t) - R(t)|| in H1 x L2
    energies: np.ndarray
    charges: np.ndarray
    momenta: np.ndarray
    localized: list[LocalizedQuantities]
    modulation: list[Optional[ModulationState]]  # None at and beyond a tube exit
    fields: list[Field]
    tube_exit_time: Optional[float]
    runtime_seconds: float
    final_field: Field

    @property
    def action_series(self) -> np.ndarray:
        return np.array([loc.action_total for loc in self.localized])

    @property
    def upsilon_norms(self) -> np.ndarray:
        """||Upsilon(t)|| of each fit, NaN after the tube exit."""
        return np.array([np.nan if st is None else st.residual_norm for st in self.modulation])

    @property
    def fit_window(self) -> tuple[float, float]:
        """The run's window less its last tenth, where the error is ~0."""
        cfg = self.config
        return (cfg.t_start, cfg.t_final - 0.1 * (cfg.t_final - cfg.t_start))

    def refit(self, window: tuple[float, float]) -> tuple[float, float, float]:
        """Log-error slope over an explicit window (slope, stderr, rms)."""
        lo, hi = window
        mask = (self.times >= lo) & (self.times <= hi)
        return fit_log_slope(self.times[mask], self.errors[mask])

    def window_fit(self) -> tuple[float, float, float]:
        """Log-error slope over ``fit_window`` (slope, stderr, rms), NaN when the
        window holds fewer than 3 positive errors."""
        try:
            return self.refit(self.fit_window)
        except ValueError:
            return (math.nan, math.nan, math.nan)

    def modulation_rates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The modulation laws by centred differences of the fits over the hook
        times: (dtheta/dt - omega/gamma, domega/dt, dx/dt - v), one row per interior
        hook and one column per soliton.  Phases are unwrapped first; v and gamma
        are the fitted solitons'.  Raises ValueError with fewer than 3 hooks or
        after a tube exit."""
        if len(self.times) < 3:
            raise ValueError("need at least 3 hooks for centred differences")
        if self.tube_exit_time is not None:
            raise ValueError(f"no fits at and beyond the tube exit at t={self.tube_exit_time}")
        fits = self.modulation
        thetas = np.unwrap(np.array([st.thetas for st in fits]), axis=0)
        omegas = np.array([st.omegas for st in fits])
        positions = np.array([st.positions for st in fits])
        gammas = np.array([sp.gamma for sp in fits[0].solitons])
        vels = np.array([sp.v for sp in fits[0].solitons])
        dt2 = (self.times[2:] - self.times[:-2])[:, None]
        return (
            (thetas[2:] - thetas[:-2]) / dt2 - omegas[1:-1] / gammas,
            (omegas[2:] - omegas[:-2]) / dt2,
            (positions[2:] - positions[:-2]) / dt2 - vels,
        )

    def localized_charge_drift(self, j: int) -> np.ndarray:
        """|Q_j(t) - Q_j at the final time| over the series."""
        qj = np.array([loc.q[j] for loc in self.localized])
        return np.abs(qj - qj[-1])


def _run_construction(cfg: MultiSolitonConfig, t0: float, t1: float, w0: Field) -> DecayReport:
    """Evolve ``w0`` from t0 to t1 in steps of ``cfg.dt`` signed by t1 - t0, with a
    hook every ``cfg.diag_period``."""
    wall0 = _time.perf_counter()
    grid, model = cfg.grid, cfg.model
    params = cfg.action_params()

    # one record per hook: (t, error, E, Q, P, localized, fit or None, field)
    records: list[tuple] = []
    # the last fit's solitons and time seed the next fit; none runs after a tube exit
    seeds, t_seed = [sp.advanced(t0) for sp in cfg.solitons], t0
    tube_exit: Optional[float] = None

    def hook(rec: DiagnosticsRecord) -> None:
        nonlocal seeds, t_seed, tube_exit
        t, field = rec.t, rec.field
        error = norm_h1l2(field - soliton_sum(cfg.solitons, t, grid))
        cut = build_cutoffs([sp.v for sp in cfg.solitons], max(t, 1e-6), grid)
        loc = localized_quantities(field, cut, params)
        st = None
        if tube_exit is None:
            try:
                st = fit_modulation(field, [sp.advanced(t - t_seed) for sp in seeds])
                seeds, t_seed = st.solitons, t
            except (NotInTubeError, DegenerateConfigurationError):
                tube_exit = t
        records.append((t, error, rec.energy, rec.charge, rec.momentum, loc, st, field))

    dt = math.copysign(cfg.dt, t1 - t0)
    final = evolve(w0, t0, t1, IntegratorConfig(dt=dt), model, hooks=[hook], diag_period=cfg.diag_period)
    if dt < 0:  # hook times are monotone in the run's direction
        records.reverse()
    times, errors, energies, charges, momenta, localized, modulation, fields = zip(*records)
    return DecayReport(
        config=cfg,
        times=np.asarray(times),
        errors=np.asarray(errors),
        energies=np.asarray(energies),
        charges=np.asarray(charges),
        momenta=np.asarray(momenta),
        localized=list(localized),
        modulation=list(modulation),
        fields=list(fields),
        tube_exit_time=tube_exit,
        runtime_seconds=_time.perf_counter() - wall0,
        final_field=final,
    )


def run_backward_construction(cfg: MultiSolitonConfig) -> DecayReport:
    """Final data = exact soliton sum at t_final, integrated back to t_start."""
    w0 = soliton_sum(cfg.solitons, cfg.t_final, cfg.grid)
    return _run_construction(cfg, cfg.t_final, cfg.t_start, w0)


@dataclass
class LadderReport:
    """Backward constructions of one configuration, one per final time."""

    reports: list[DecayReport]

    @property
    def t_finals(self) -> list[float]:
        return [rep.config.t_final for rep in self.reports]

    @property
    def errors_at_start(self) -> list[float]:
        """||U_T(t_start) - R(t_start)|| of each rung (its first hook)."""
        return [float(rep.errors[0]) for rep in self.reports]

    @property
    def strictly_decreasing(self) -> bool:
        errs = self.errors_at_start
        return all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))

    @property
    def successive_differences(self) -> list[float]:
        errs = self.errors_at_start
        return [errs[i + 1] - errs[i] for i in range(len(errs) - 1)]

    @property
    def successive_distances(self) -> list[float]:
        """||U_{T_k+1}(t_start) - U_{T_k}(t_start)|| of neighbouring rungs."""
        return successive_distances([rep.final_field for rep in self.reports])


def successive_distances(fields: Sequence[Field]) -> list[float]:
    """H1 x L2 distances between neighbouring fields of a sequence."""
    return [norm_h1l2(fields[i + 1] - fields[i]) for i in range(len(fields) - 1)]


def run_ladder(cfg: MultiSolitonConfig, t_finals: Sequence[float]) -> LadderReport:
    """Backward constructions from a ladder of final times, compared at t_start.

    The convergence of the construction as the final time grows is read
    off the successive distances between the base-time states of
    neighbouring rungs.  The scalar errors ||U_T(t_start) - R(t_start)||
    and their successive differences are reported as well, but they do not
    shadow that convergence: each longer rung carries more of the pair
    interaction, so the errors approach the distance of the limiting
    solution to the bare sum, from below.  Both the distances and the
    differences carry the splitting error of the step size, which grows
    with the length of the run."""
    return LadderReport(
        [run_backward_construction(replace(cfg, t_final=float(tf))) for tf in t_finals]
    )


# random_bump keeps the wavenumbers up to this fraction of the largest
BUMP_BAND = 0.25


def random_bump(grid: Grid, seed: int) -> Field:
    """Smooth random field with unit H1 x L2 norm (band-limited, seeded)."""
    rng = np.random.default_rng(seed)
    k = grid.deriv_wavenumbers
    kmax = np.max(np.abs(k))
    mask = np.abs(k) <= BUMP_BAND * kmax
    comps = []
    for _ in range(2):
        spec = (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))
        spec *= mask * np.exp(-((k / (0.1 * kmax)) ** 2))
        comps.append(np.fft.ifft(spec))
    w = Field(comps[0], comps[1], grid)
    return (1.0 / norm_h1l2(w)) * w


def run_forward_stability(cfg: MultiSolitonConfig, amplitude: float, seed: int = 0) -> DecayReport:
    """Forward evolution of R(t_start) + amplitude * bump (seeded by ``seed``),
    tracking the error."""
    w0 = soliton_sum(cfg.solitons, cfg.t_start, cfg.grid)
    if amplitude != 0.0:
        w0 = w0 + amplitude * random_bump(cfg.grid, seed)
    return _run_construction(cfg, cfg.t_start, cfg.t_final, w0)


@dataclass
class InteractionReport:
    times: np.ndarray
    pair_products: dict[tuple[int, int], np.ndarray]  # int |R_j||R_k|
    pair_grad_products: dict[tuple[int, int], np.ndarray]  # int |dR_j||dR_k|
    cutoff_leakage: dict[tuple[int, int], np.ndarray]  # int |R_j| phi_k (ordered)
    rates: dict[str, tuple[float, float, float]]  # fit of the pair (1,2)-type series


def _magnitude(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)


def measure_interactions(cfg: MultiSolitonConfig, times: Sequence[float]) -> InteractionReport:
    """Quadrature of pairwise interaction integrals and their decay-rate fits.

    Pointwise magnitudes are Euclidean over the two components; stacked as
    (n, N) arrays, every pair's integral at one time comes from one Gram
    product.  Valid for t >= max(4 / v_star^2, 1), where the moving cutoffs
    have pulled apart.
    """
    n = len(cfg.solitons)
    if n < 2:
        raise ValueError("interaction measurement needs at least two solitons")
    tmin = max(4.0 / cfg.v_star**2, 1.0)
    times = np.asarray(sorted(times), dtype=float)
    if len(times) == 0:
        raise ValueError("interaction measurement needs at least one time")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"interaction times must be finite, got {times[~np.isfinite(times)].tolist()}")
    if times[0] < tmin:
        raise ValueError(f"times must be >= max(4/v_star^2, 1) = {tmin}")
    grid, h = cfg.grid, cfg.grid.spacing

    prods, gprods, leak = [], [], []  # one (n, n) matrix per time
    for t in times:
        comps = [sample_soliton(sp, t, grid) for sp in cfg.solitons]
        mags = np.array([_magnitude(c.u1, c.u2) for c in comps])
        dmags = np.array([_magnitude(c.du1, spectral_derivative(c.u2, grid)) for c in comps])
        weights = build_cutoffs([sp.v for sp in cfg.solitons], t, grid)
        prods.append(mags @ mags.T * h)
        gprods.append(dmags @ dmags.T * h)
        leak.append(mags @ weights.T * h)
    prods, gprods, leak = np.array(prods), np.array(gprods), np.array(leak)
    pairs = [(j, k) for j in range(n) for k in range(n) if j != k]

    rates = {}
    if len(times) >= 3:
        rates["pair_product"] = fit_log_slope(times, prods[:, 0, 1])
        rates["cutoff_leakage"] = fit_log_slope(times, leak[:, 0, 1])
    return InteractionReport(
        times=times,
        pair_products={(j, k): prods[:, j, k] for j, k in pairs if j < k},
        pair_grad_products={(j, k): gprods[:, j, k] for j, k in pairs if j < k},
        cutoff_leakage={(j, k): leak[:, j, k] for j, k in pairs},
        rates=rates,
    )


def _smooth_window(grid: Grid, center: float, width: float):
    """Entire C^inf window 0 -> 1 and its derivative (for flux-identity audits)."""
    s = (grid.x - center) / width
    w = 0.5 * (1.0 + np.tanh(s))
    dw = 0.5 / (width * np.cosh(s) ** 2)
    return w, dw


@dataclass
class AlmostConservationReport:
    times: np.ndarray
    action_rate: np.ndarray  # centered d/dt of the localized action series
    global_drift: dict[str, float]  # max relative drift of E, Q, P
    charge_flux_mismatch: np.ndarray  # relative, smooth window
    momentum_flux_mismatch: np.ndarray


# the audits sample this many times, spread over the middle half of the window
AUDIT_COUNT = 5
# a hook this close (times the window length) to the nearest one's distance ties with it
AUDIT_TIE_TOL = 1e-9


def _audit_indices(report: DecayReport, usable: Sequence[bool]) -> np.ndarray:
    """Ascending indices of the usable hooks nearest to AUDIT_COUNT times evenly
    spread over the middle half of the run's window (duplicates dropped).  A time
    midway between two hooks, to AUDIT_TIE_TOL, takes the earlier one."""
    cfg = report.config
    span = cfg.t_final - cfg.t_start
    proto = np.linspace(cfg.t_start + 0.25 * span, cfg.t_start + 0.75 * span, AUDIT_COUNT)
    idx = np.flatnonzero(usable)
    dist = np.abs(report.times[idx, None] - proto[None, :])
    # times ascend, so the first hook within the tolerance of the nearest is the earliest
    near = dist <= dist.min(axis=0) + AUDIT_TIE_TOL * abs(span)
    return np.unique(idx[np.argmax(near, axis=0)])


def almost_conservation_audit(report: DecayReport) -> AlmostConservationReport:
    """Differencing audit of the localized action and the local flux identities.

    The charge identity d/dt Im int u1 conj(u2) w dx = Im int u1' conj(u1) w' dx
    (w a fixed C^1 window) is evaluated on stored fields two ways: the left
    side by one integrator micro-step each way, the right side by spatial
    quadrature with the analytic w'.  The window is smooth and spectrally
    decaying: the identity holds for any C^1 window, but the sin^2 partition
    ramp is only C^1, which injects avoidable quadrature noise.
    """
    cfg = report.config
    grid, h = cfg.grid, cfg.grid.spacing

    t_arr = report.times
    s_arr = report.action_series
    rate = (s_arr[2:] - s_arr[:-2]) / (t_arr[2:] - t_arr[:-2])

    drift = {}
    for name, series in (
        ("energy", report.energies),
        ("charge", report.charges),
        ("momentum", report.momenta),
    ):
        ref = series[-1]
        # floor the scale at 1: symmetric configurations have P (or Q) ~ 0
        drift[name] = float(np.max(np.abs(series - ref)) / max(abs(ref), 1.0))

    audit = _audit_indices(report, [True] * len(report.times))

    # window midway between the velocity midline and the fastest soliton:
    # on the symmetry axis of a mirror pair both flux sides vanish identically
    # and their ratio is meaningless
    fastest = max(cfg.solitons, key=lambda sp: sp.v)
    if len(cfg.solitons) > 1:
        mid_v = 0.5 * (sorted(sp.v for sp in cfg.solitons)[-2] + fastest.v)
    else:
        mid_v = fastest.v

    window_params = cfg.action_params()[:1]  # the window is one cell; its Q and P are read
    q_mis, p_mis = [], []
    for i in audit:
        t, f = report.times[i], report.fields[i]
        fwd = evolve(f, 0.0, cfg.dt, IntegratorConfig(dt=cfg.dt), cfg.model)
        bwd = evolve(f, 0.0, -cfg.dt, IntegratorConfig(dt=-cfg.dt), cfg.model)
        center = 0.5 * (mid_v * t + (fastest.x0 + fastest.v * t))
        w, dw = _smooth_window(grid, center, math.sqrt(t))
        loc_f, loc_b = (localized_quantities(g, w[None], window_params) for g in (fwd, bwd))
        q_flux, p_flux = flux_densities(f, cfg.model)

        lhs_q = (loc_f.q[0] - loc_b.q[0]) / (2.0 * cfg.dt)
        rhs_q = float(np.sum(q_flux * dw) * h)
        q_mis.append(abs(lhs_q - rhs_q) / max(abs(lhs_q), abs(rhs_q)))

        lhs_p = (loc_f.p[0] - loc_b.p[0]) / (2.0 * cfg.dt)
        rhs_p = float(np.sum(p_flux * dw) * h)
        p_mis.append(abs(lhs_p - rhs_p) / max(abs(lhs_p), abs(rhs_p)))

    return AlmostConservationReport(
        times=t_arr[1:-1],
        action_rate=rate,
        global_drift=drift,
        charge_flux_mismatch=np.asarray(q_mis),
        momentum_flux_mismatch=np.asarray(p_mis),
    )


@dataclass
class TaylorReport:
    """Expansion of S_loc(U) around the fitted soliton sum R~ = sum_j R~_j.

    With U = R~ + Upsilon the lumped remainder splits exactly as

        remainders = interaction_tails + modulation_shifts
                     + linear_terms + taylor_remainders

    where interaction_tails = S_loc(R~) - sum_j S_j(R~_j), modulation_shifts
    = sum_j S_j(R~_j) - constant, linear_terms is the first variation of the
    cutoff-weighted action at R~ in the direction Upsilon, and
    taylor_remainders = S_loc(U) - S_loc(R~) - linear_terms - hessian_terms
    is the remainder of the expansion to second order.
    """

    times: np.ndarray
    constant: float
    hessian_terms: np.ndarray
    remainders: np.ndarray  # S_loc(U) - constant - hessian_terms
    upsilon_norm2: np.ndarray
    interaction_tails: np.ndarray
    modulation_shifts: np.ndarray
    linear_terms: np.ndarray
    taylor_remainders: np.ndarray

    @property
    def coercivity_ratios(self) -> np.ndarray:
        """hessian_terms / ||Upsilon||^2"""
        return self.hessian_terms / self.upsilon_norm2


def taylor_expansion_audit(report: DecayReport) -> TaylorReport:
    """Compare the localized action against constant + quadratic term.

    The constant is the (time-independent) sum of per-soliton action values
    of the exact solitons; the quadratic term is the cutoff-weighted hessian
    form at the modulated decomposition (both Taylor terms read the bilinear
    density forms of ``functionals``).  The lumped remainder S_loc(U) -
    constant - quadratic term is split into the pairwise interaction tail
    of the fitted solitons, the modulation shift of their actions, the
    linear term in the residue and the true Taylor remainder (see
    TaylorReport); only the last is of higher order in the residue.
    """
    cfg = report.config
    grid = cfg.grid
    params = cfg.action_params()
    const = sum(action(sample_soliton(sp, cfg.t_final, grid), ap) for sp, ap in zip(cfg.solitons, params))

    fitted = [st is not None for st in report.modulation]
    if not any(fitted):
        raise ValueError("no modulated snapshots available (trajectory left the tube)")
    audit = _audit_indices(report, fitted)

    hvals, rvals, unorm2 = [], [], []
    tails, shifts, lins, tays = [], [], [], []
    for i in audit:
        t, st, s_loc = report.times[i], report.modulation[i], report.localized[i].action_total
        cut = build_cutoffs([sp.v for sp in cfg.solitons], t, grid)
        comps = [sample_soliton(sp, 0.0, grid) for sp in st.solitons]
        hess = localized_hessian_form(st.residual, comps, cut, params)
        r_fit = sum(comps[1:], comps[0])
        s_fit = localized_quantities(r_fit, cut, params).action_total
        s_sep = sum(action(c, ap) for c, ap in zip(comps, params))
        lin = localized_first_variation(r_fit, st.residual, cut, params)
        hvals.append(hess)
        rvals.append(s_loc - const - hess)
        unorm2.append(st.residual_norm**2)
        tails.append(s_fit - s_sep)
        shifts.append(s_sep - const)
        lins.append(lin)
        tays.append(s_loc - s_fit - lin - hess)

    return TaylorReport(
        times=report.times[audit],
        constant=const,
        hessian_terms=np.asarray(hvals),
        remainders=np.asarray(rvals),
        upsilon_norm2=np.asarray(unorm2),
        interaction_tails=np.asarray(tails),
        modulation_shifts=np.asarray(shifts),
        linear_terms=np.asarray(lins),
        taylor_remainders=np.asarray(tays),
    )
