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
    CutoffPartition,
    LocalizedQuantities,
    action,
    build_cutoffs,
    charge_density,
    localized_first_variation,
    localized_quantities,
    momentum_density,
    ramp,
    ramp_derivative,
    velocity_problems,
)
from .grids import Field, Grid, norm_h1l2, raise_problems, spectral_derivative
from .integrator import (
    DiagnosticsRecord,
    IntegratorConfig,
    evolve,
    hook_stride,
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
    values are excluded from the fit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 0
    t, y = times[mask], np.log(values[mask])
    n = len(t)
    if n < 3:
        raise ValueError("need at least 3 positive samples for a slope fit")
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
    seed: int = 0

    def __post_init__(self) -> None:
        vels, spacing = [sp.v for sp in self.solitons], self.grid.spacing
        raise_problems(run_problems(vels, self.t_final, self.t_start, self.dt, self.diag_period, spacing))
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
    modulation: list[Optional[ModulationState]]
    fields: dict[float, Field]
    tube_exit_time: Optional[float]
    runtime_seconds: float
    final_field: Optional[Field] = None

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

    def _window_fit(self) -> tuple[float, float, float]:
        try:
            return self.refit(self.fit_window)
        except ValueError:  # fewer than 3 positive errors in the window
            return (math.nan, math.nan, math.nan)

    @property
    def fitted_slope(self) -> float:
        return self._window_fit()[0]

    @property
    def slope_stderr(self) -> float:
        return self._window_fit()[1]

    @property
    def fit_rms(self) -> float:
        return self._window_fit()[2]

    def localized_charge_drift(self, j: int) -> np.ndarray:
        """|Q_j(t) - Q_j at the final time| over the series."""
        qj = np.array([loc.q[j] for loc in self.localized])
        return np.abs(qj - qj[-1])


def _run_construction(
    cfg: MultiSolitonConfig, backward: bool, initial: Optional[Field] = None
) -> DecayReport:
    wall0 = _time.perf_counter()
    grid, model = cfg.grid, cfg.model
    params = cfg.action_params()
    stride = hook_stride(cfg.diag_period, cfg.dt)
    if backward:
        t0, t1, dt = cfg.t_final, cfg.t_start, -cfg.dt
    else:
        t0, t1, dt = cfg.t_start, cfg.t_final, cfg.dt
    w0 = initial if initial is not None else soliton_sum(cfg.solitons, t0, grid)

    times: list[float] = []
    errors: list[float] = []
    energies: list[float] = []
    charges: list[float] = []
    momenta: list[float] = []
    localized: list[LocalizedQuantities] = []
    modstates: list[Optional[ModulationState]] = []
    fields: dict[float, Field] = {}
    tube_exit: list[Optional[float]] = [None]

    seed_holder = {"params": [sp.advanced(t0) for sp in cfg.solitons], "t": t0}

    def hook(rec: DiagnosticsRecord) -> None:
        t = rec.t
        ref = soliton_sum(cfg.solitons, t, grid)
        times.append(t)
        errors.append(norm_h1l2(rec.field - ref))
        energies.append(rec.energy)
        charges.append(rec.charge)
        momenta.append(rec.momentum)
        cut = build_cutoffs([sp.v for sp in cfg.solitons], max(t, 1e-6), grid)
        localized.append(localized_quantities(rec.field, cut, params))
        fields[round(t, 9)] = rec.field
        if tube_exit[0] is None:
            pred = [sp.advanced(t - seed_holder["t"]) for sp in seed_holder["params"]]
            try:
                st = fit_modulation(rec.field, pred)
                modstates.append(st)
                seed_holder["params"] = st.solitons
                seed_holder["t"] = t
            except (NotInTubeError, DegenerateConfigurationError):
                tube_exit[0] = t
                modstates.append(None)
        else:
            modstates.append(None)

    final = evolve(w0, t0, t1, IntegratorConfig(dt=dt), model, hooks=[hook], diag_stride=stride)

    order = np.argsort(np.asarray(times))

    def _sorted(seq: list) -> list:
        return [seq[i] for i in order]

    return DecayReport(
        config=cfg,
        times=np.asarray(times)[order],
        errors=np.asarray(errors)[order],
        energies=np.asarray(energies)[order],
        charges=np.asarray(charges)[order],
        momenta=np.asarray(momenta)[order],
        localized=_sorted(localized),
        modulation=_sorted(modstates),
        fields=fields,
        tube_exit_time=tube_exit[0],
        runtime_seconds=_time.perf_counter() - wall0,
        final_field=final,
    )


def run_backward_construction(cfg: MultiSolitonConfig) -> DecayReport:
    """Final data = exact soliton sum at t_final, integrated back to t_start."""
    return _run_construction(cfg, backward=True)


@dataclass
class LadderReport:
    """Backward constructions of one configuration, one per final time."""

    reports: list[DecayReport]

    @property
    def t_finals(self) -> list[float]:
        return [rep.config.t_final for rep in self.reports]

    @property
    def errors_at_start(self) -> list[float]:
        """||U_T(t_start) - R(t_start)|| of each rung."""
        return [
            float(rep.errors[np.argmin(np.abs(rep.times - rep.config.t_start))])
            for rep in self.reports
        ]

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


def run_forward_stability(cfg: MultiSolitonConfig, amplitude: float) -> DecayReport:
    """Forward evolution of R(t_start) + amplitude * bump (seeded by ``cfg.seed``),
    tracking the error."""
    w0 = soliton_sum(cfg.solitons, cfg.t_start, cfg.grid)
    if amplitude != 0.0:
        w0 = w0 + amplitude * random_bump(cfg.grid, cfg.seed)
    return _run_construction(cfg, backward=False, initial=w0)


@dataclass
class InteractionReport:
    times: np.ndarray
    pair_products: dict[tuple[int, int], np.ndarray]  # int |R_j||R_k|
    pair_grad_products: dict[tuple[int, int], np.ndarray]  # int |dR_j||dR_k|
    pair_mixed: dict[tuple[int, int], np.ndarray]  # int |R_j||dR_k| (ordered)
    cutoff_leakage: dict[tuple[int, int], np.ndarray]  # int |R_j| phi_k (ordered)
    nonlinear_cross: np.ndarray  # int | |R|^(p+1) - sum |R_l|^(p+1) |
    rates: dict[str, tuple[float, float, float]]  # fit of the pair (1,2)-type series


def measure_interactions(cfg: MultiSolitonConfig, times: Sequence[float]) -> InteractionReport:
    """Quadrature of pairwise interaction integrals and their decay-rate fits.

    Pointwise magnitudes are Euclidean over the two components.  Valid for
    t >= max(4 / v_star^2, 1), where the moving cutoffs have pulled apart.
    """
    n = len(cfg.solitons)
    if n < 2:
        raise ValueError("interaction measurement needs at least two solitons")
    tmin = max(4.0 / cfg.v_star**2, 1.0)
    times = np.asarray(sorted(times), dtype=float)
    if times[0] < tmin:
        raise ValueError(f"times must be >= max(4/v_star^2, 1) = {tmin}")
    grid, h, p = cfg.grid, cfg.grid.spacing, cfg.model.p

    prods: dict[tuple[int, int], list[float]] = {}
    gprods: dict[tuple[int, int], list[float]] = {}
    mixed: dict[tuple[int, int], list[float]] = {}
    leak: dict[tuple[int, int], list[float]] = {}
    nl_cross: list[float] = []
    for t in times:
        comps = [sample_soliton(sp, t, grid) for sp in cfg.solitons]
        mags = [np.sqrt(np.abs(c.u1) ** 2 + np.abs(c.u2) ** 2) for c in comps]
        gmags = [
            np.sqrt(
                np.abs(spectral_derivative(c.u1, grid)) ** 2
                + np.abs(spectral_derivative(c.u2, grid)) ** 2
            )
            for c in comps
        ]
        cut = build_cutoffs([sp.v for sp in cfg.solitons], t, grid)
        total = sum(comps[1:], comps[0])
        nl = np.abs(total.u1) ** (p + 1.0)
        for c in comps:
            nl = nl - np.abs(c.u1) ** (p + 1.0)
        nl_cross.append(float(np.sum(np.abs(nl)) * h))
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                if j < k:
                    prods.setdefault((j, k), []).append(float(np.sum(mags[j] * mags[k]) * h))
                    gprods.setdefault((j, k), []).append(
                        float(np.sum(gmags[j] * gmags[k]) * h)
                    )
                mixed.setdefault((j, k), []).append(float(np.sum(mags[j] * gmags[k]) * h))
                leak.setdefault((j, k), []).append(
                    float(np.sum(mags[j] * cut.weights[k]) * h)
                )

    rates = {}
    if len(times) >= 3:
        first = (0, 1)
        rates["pair_product"] = fit_log_slope(times, np.asarray(prods[first]))
        rates["pair_grad_product"] = fit_log_slope(times, np.asarray(gprods[first]))
        rates["pair_mixed"] = fit_log_slope(times, np.asarray(mixed[first]))
        rates["cutoff_leakage"] = fit_log_slope(times, np.asarray(leak[first]))
        rates["nonlinear_cross"] = fit_log_slope(times, np.asarray(nl_cross))
    return InteractionReport(
        times=times,
        pair_products={k: np.asarray(v) for k, v in prods.items()},
        pair_grad_products={k: np.asarray(v) for k, v in gprods.items()},
        pair_mixed={k: np.asarray(v) for k, v in mixed.items()},
        cutoff_leakage={k: np.asarray(v) for k, v in leak.items()},
        nonlinear_cross=np.asarray(nl_cross),
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
    flux_times: np.ndarray
    charge_flux_mismatch: np.ndarray  # relative, smooth window
    momentum_flux_mismatch: np.ndarray
    charge_flux_values: np.ndarray  # (lhs, rhs) pairs for the charge identity
    ramp_charge_flux_mismatch: np.ndarray  # informational: partition ramp window


# the audits sample this many times, spread over the middle half of the window
AUDIT_COUNT = 5


def _audit_times(cfg: MultiSolitonConfig, available: np.ndarray) -> np.ndarray:
    """AUDIT_COUNT times evenly spread over the middle half of the run's window,
    each snapped to the nearest available time (duplicates dropped)."""
    lo = cfg.t_start + 0.25 * (cfg.t_final - cfg.t_start)
    hi = cfg.t_start + 0.75 * (cfg.t_final - cfg.t_start)
    proto = np.linspace(lo, hi, AUDIT_COUNT)
    return np.unique(available[np.argmin(np.abs(available[:, None] - proto[None, :]), axis=0)])


def _microstep_pair(f: Field, cfg: MultiSolitonConfig):
    fwd = evolve(f, 0.0, cfg.dt, IntegratorConfig(dt=cfg.dt), cfg.model)
    bwd = evolve(f, 0.0, -cfg.dt, IntegratorConfig(dt=-cfg.dt), cfg.model)
    return fwd, bwd


def almost_conservation_audit(report: DecayReport) -> AlmostConservationReport:
    """Differencing audit of the localized action and the local flux identities.

    The charge identity d/dt Im int u1 conj(u2) w dx = Im int u1' conj(u1) w' dx
    (w a fixed C^1 window) is evaluated on stored fields two ways: the left
    side by one integrator micro-step each way, the right side by spatial
    quadrature with the analytic w'.  A smooth spectrally-decaying window is
    used for the asserted check (the identity holds for any C^1 window and
    the sin^2 partition ramp is only C^1, which injects avoidable quadrature
    noise); the ramp version is reported alongside.
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

    audit_times = _audit_times(cfg, np.array(sorted(report.fields.keys())))

    # window midway between the velocity midline and the fastest soliton:
    # on the symmetry axis of a mirror pair both flux sides vanish identically
    # and their ratio is meaningless
    fastest = max(cfg.solitons, key=lambda sp: sp.v)
    if len(cfg.solitons) > 1:
        mid_v = 0.5 * (sorted(sp.v for sp in cfg.solitons)[-2] + fastest.v)
    else:
        mid_v = fastest.v
    q_mis, p_mis, ramp_mis, pairs = [], [], [], []
    for t in audit_times:
        f = report.fields[float(t)]
        fwd, bwd = _microstep_pair(f, cfg)
        center = 0.5 * (mid_v * t + (fastest.x0 + fastest.v * t))
        w, dw = _smooth_window(grid, center, math.sqrt(t))

        def loc_q(g: Field, weight) -> float:
            return float(np.sum(charge_density(g) * weight) * h)

        def loc_p(g: Field, weight) -> float:
            du = spectral_derivative(g.u1, grid)
            return float(np.sum(momentum_density(g, du) * weight) * h)

        lhs_q = (loc_q(fwd, w) - loc_q(bwd, w)) / (2.0 * cfg.dt)
        du1 = spectral_derivative(f.u1, grid)
        rhs_q = float(np.sum(np.imag(du1 * np.conj(f.u1)) * dw) * h)
        q_mis.append(abs(lhs_q - rhs_q) / max(abs(lhs_q), abs(rhs_q)))
        pairs.append((lhs_q, rhs_q))

        lhs_p = (loc_p(fwd, w) - loc_p(bwd, w)) / (2.0 * cfg.dt)
        dens = (
            -0.5 * np.abs(du1) ** 2
            + 0.5 * cfg.model.m * np.abs(f.u1) ** 2
            - 0.5 * np.abs(f.u2) ** 2
            - np.abs(f.u1) ** (cfg.model.p + 1.0) / (cfg.model.p + 1.0)
        )
        rhs_p = float(np.sum(dens * dw) * h)
        p_mis.append(abs(lhs_p - rhs_p) / max(abs(lhs_p), abs(rhs_p)))

        # same identity through a ramp-shaped window at the same center: the
        # sin^2 ramp is only C^1, so its quadrature is noisier than the
        # smooth window's; reported for comparison
        s = (grid.x - center) / math.sqrt(t)
        wr = ramp(s)
        dwr = ramp_derivative(s) / math.sqrt(t)
        lhs_r = (loc_q(fwd, wr) - loc_q(bwd, wr)) / (2.0 * cfg.dt)
        rhs_r = float(np.sum(np.imag(du1 * np.conj(f.u1)) * dwr) * h)
        ramp_mis.append(abs(lhs_r - rhs_r) / max(abs(lhs_r), abs(rhs_r)))

    return AlmostConservationReport(
        times=t_arr[1:-1],
        action_rate=rate,
        global_drift=drift,
        flux_times=audit_times,
        charge_flux_mismatch=np.asarray(q_mis),
        momentum_flux_mismatch=np.asarray(p_mis),
        charge_flux_values=np.asarray(pairs),
        ramp_charge_flux_mismatch=np.asarray(ramp_mis),
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
    action_values: np.ndarray
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


def localized_hessian_form(
    ups: Field,
    states: Sequence[SolitonParams],
    cut: CutoffPartition,
    params: Sequence[ActionParams],
) -> float:
    """Quadratic Taylor term: 1/2 sum_j <S_j''(R_j) Y, Y> with cutoff weights."""
    grid, h = ups.grid, ups.grid.spacing
    p = params[0].model.p
    m = params[0].model.m
    du1 = spectral_derivative(ups.u1, grid)
    lin = np.abs(du1) ** 2 + m * np.abs(ups.u1) ** 2 + np.abs(ups.u2) ** 2
    qq = 2.0 * charge_density(ups)
    pp = 2.0 * momentum_density(ups, du1)
    total = 0.0
    for j, sp in enumerate(states):
        w = cut.weights[j]
        rj = sample_soliton(sp, 0.0, grid)
        q = rj.u1
        absq = np.abs(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            pot = (p - 1.0) * np.where(absq > 0, absq ** (p - 3.0), 0.0) * np.real(
                np.conj(q) * ups.u1
            ) ** 2 + absq ** (p - 1.0) * np.abs(ups.u1) ** 2
        total += float(
            np.sum(w * (lin - pot + params[j].omega_over_gamma * qq + params[j].v * pp)) * h
        )
    return 0.5 * total


def taylor_expansion_audit(report: DecayReport) -> TaylorReport:
    """Compare the localized action against constant + quadratic term.

    The constant is the (time-independent) sum of per-soliton action values
    of the exact solitons; the quadratic term is the cutoff-weighted hessian
    form at the modulated decomposition.  The lumped remainder S_loc(U) -
    constant - quadratic term is split into the pairwise interaction tail
    of the fitted solitons, the modulation shift of their actions, the
    linear term in the residue and the true Taylor remainder (see
    TaylorReport); only the last is of higher order in the residue.
    """
    cfg = report.config
    grid = cfg.grid
    params = cfg.action_params()
    const = 0.0
    for sp, ap in zip(cfg.solitons, params):
        const += action(sample_soliton(sp, cfg.t_final, grid), ap)

    have = np.array(
        [t for t, st in zip(report.times, report.modulation) if st is not None]
    )
    if len(have) == 0:
        raise ValueError("no modulated snapshots available (trajectory left the tube)")
    audit_times = _audit_times(cfg, have)

    svals, hvals, rvals, unorm2 = [], [], [], []
    tails, shifts, lins, tays = [], [], [], []
    for t in audit_times:
        i = int(np.argmin(np.abs(report.times - t)))
        st = report.modulation[i]
        s_loc = report.localized[i].action_total
        cut = build_cutoffs([sp.v for sp in cfg.solitons], t, grid)
        hess = localized_hessian_form(st.residual, st.solitons, cut, params)
        comps = [sample_soliton(sp, 0.0, grid) for sp in st.solitons]
        r_fit = sum(comps[1:], comps[0])
        s_fit = localized_quantities(r_fit, cut, params).action_total
        s_sep = sum(action(c, ap) for c, ap in zip(comps, params))
        lin = localized_first_variation(r_fit, st.residual, cut, params)
        svals.append(s_loc)
        hvals.append(hess)
        rvals.append(s_loc - const - hess)
        unorm2.append(st.residual_norm**2)
        tails.append(s_fit - s_sep)
        shifts.append(s_sep - const)
        lins.append(lin)
        tays.append(s_loc - s_fit - lin - hess)

    return TaylorReport(
        times=audit_times,
        action_values=np.asarray(svals),
        constant=const,
        hessian_terms=np.asarray(hvals),
        remainders=np.asarray(rvals),
        upsilon_norm2=np.asarray(unorm2),
        interaction_tails=np.asarray(tails),
        modulation_shifts=np.asarray(shifts),
        linear_terms=np.asarray(lins),
        taylor_remainders=np.asarray(tays),
    )
