"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
that reads PASS only when every named check it asserts holds.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavy fixtures (the
backward-construction ladder and the dense spectra) are module-scoped and
shared.  Two checks assert the quantity the construction actually
promises and print the naive expectation beside it as evidence: 8a
asserts that the base-time states of the final-time ladder converge
(their successive distances shrink, after Richardson extrapolation in
the step size), while the scalar base-time errors, printed alongside,
rise along the ladder; 9d bounds the true Taylor remainder of the
localized action by the quadratic term, while the lumped remainder,
printed alongside, is dominated by the pair-interaction tail.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from nlkglab.experiments import (
    MultiSolitonConfig,
    almost_conservation_audit,
    fit_log_slope,
    measure_interactions,
    run_forward_stability,
    run_ladder,
    soliton_sum,
    successive_distances,
    taylor_expansion_audit,
)
from nlkglab.functionals import (
    ActionParams,
    charge,
    energy,
    gradient_norm,
    momentum,
)
from nlkglab.grids import Field, Grid, norm_h1l2, wrap_coordinate
from nlkglab.integrator import IntegratorConfig, evolve
from nlkglab.modulation import fit_modulation
from nlkglab.profiles import (
    ModelParams,
    SolitonParams,
    ground_state_1d,
    profile_norms,
    sample_soliton,
)
from nlkglab.spectrum import (
    assemble_second_variation,
    slope_test,
    spectrum_report,
)
from oracles import nehari_value

MODEL = ModelParams(1.0, 3.0, 1)


def _report(criterion: str, detail: str, checks: dict[str, bool]) -> None:
    """Print the criterion's line, PASS only when every named check holds, then
    assert them all: the failure names each failing check and repeats the detail."""
    failed = [name for name, ok in checks.items() if not ok]
    print(f"ACCEPTANCE {criterion}: {'FAIL' if failed else 'PASS'} - {detail}")
    assert not failed, f"ACCEPTANCE {criterion} fails {failed}: {detail}"


def test_report_fails_naming_the_false_check(capsys):
    """One false check turns the line to FAIL, and the failure names that check
    and repeats the detail."""
    with pytest.raises(AssertionError, match=r"^ACCEPTANCE x fails \['second'\]: some detail"):
        _report("x", "some detail", {"first": True, "second": False, "third": True})
    assert capsys.readouterr().out == "ACCEPTANCE x: FAIL - some detail\n"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def ladder():
    grid = Grid(160.0, 2048)
    cfg = MultiSolitonConfig(
        model=MODEL,
        grid=grid,
        solitons=[
            SolitonParams(MODEL, omega=0.8, v=-0.4),
            SolitonParams(MODEL, omega=0.8, v=0.4),
        ],
        t_final=40.0,
        t_start=10.0,
        dt=0.002,
        diag_period=0.5,
    )
    return run_ladder(cfg, [25.0, 32.5, 40.0])


@pytest.fixture(scope="module")
def run40(ladder):
    return ladder.reports[-1]


@pytest.fixture(scope="module")
def delta_single():
    """Coercivity constant of one (omega=0.8, v=0.4) soliton at N=512."""
    grid = Grid(80.0, 512)
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    phi = sample_soliton(sp, 0.0, grid)
    rep = spectrum_report(assemble_second_variation(phi, ActionParams.from_soliton(sp)))
    return rep.coercivity_delta


# ------------------------------------------------------------- criterion 1


def test_criterion_1_ground_state_identities():
    t0 = time.perf_counter()
    grid = Grid(80.0, 1024)
    gs = ground_state_1d(MODEL, 0.0, grid)
    n2, dn2 = profile_norms(gs)
    elapsed = time.perf_counter() - t0
    _report(
        "1",
        f"||phi||^2={n2:.9f} (4), ||phi'||^2={dn2:.9f} (4/3), "
        f"residual={gs.residual:.2e}, {elapsed * 1e3:.0f} ms",
        {"||phi||^2": abs(n2 - 4.0) < 1e-6 * 4.0,
         "||phi'||^2": abs(dn2 - 4.0 / 3.0) < 1e-6 * (4.0 / 3.0),
         "Pohozaev ratio ||phi'||^2/||phi||^2": dn2 / n2 == pytest.approx(1.0 / 3.0, rel=1e-6),
         "residual": gs.residual < 1e-8,
         "elapsed": elapsed < 1.0},
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_2_critical_points():
    grid = Grid(160.0, 2048)
    worst_grad = 0.0
    worst_nehari = 0.0
    for om in (0.75, 0.8, 0.9):
        for v in (0.0, 0.3, 0.6):
            sp = SolitonParams(MODEL, omega=om, v=v)
            phi = sample_soliton(sp, 0.0, grid)
            ap = ActionParams.from_soliton(sp)
            worst_grad = max(worst_grad, gradient_norm(phi, ap))
            worst_nehari = max(worst_nehari, abs(nehari_value(phi, ap)))
    _report(
        "2",
        f"max ||S'||={worst_grad:.2e}, max |I|={worst_nehari:.2e}",
        {"max ||S'||": worst_grad < 1e-7,
         "max |I|": worst_nehari < 1e-7},
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_conservation_and_transport():
    t0 = time.perf_counter()
    grid = Grid(160.0, 2048)
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 0.0, grid)
    e0, q0, p0 = energy(w, MODEL), charge(w), momentum(w)
    peaks_ok = []
    drifts = {"E": 0.0, "Q": 0.0, "P": 0.0}

    def hook(rec):
        drifts["E"] = max(drifts["E"], abs(rec.energy - e0) / abs(e0))
        drifts["Q"] = max(drifts["Q"], abs(rec.charge - q0) / abs(q0))
        drifts["P"] = max(drifts["P"], abs(rec.momentum - p0) / abs(p0))
        ipk = int(np.argmax(np.abs(rec.field.u1)))
        expected = wrap_coordinate(sp.x0 + sp.v * rec.t, grid.length)
        gap = abs(wrap_coordinate(grid.x[ipk] - expected, grid.length))
        peaks_ok.append(gap <= grid.spacing + 1e-12)

    evolve(w, 0.0, 50.0, IntegratorConfig(dt=0.01), MODEL, hooks=[hook], diag_period=5.0)
    elapsed = time.perf_counter() - t0
    _report(
        "3",
        f"rel drift E={drifts['E']:.1e} Q={drifts['Q']:.1e} P={drifts['P']:.1e}, "
        f"peak within h at all {len(peaks_ok)} checks, {elapsed:.0f} s",
        {**{f"{name} drift": drift < 1e-6 for name, drift in drifts.items()},
         "peak within h at every check": all(peaks_ok),
         "elapsed": elapsed < 120.0},
    )


# ------------------------------------------------------------- criterion 4


def test_criterion_4_reversibility():
    grid = Grid(80.0, 1024)
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 0.0, grid)
    fwd = evolve(w, 0.0, 10.0, IntegratorConfig(dt=0.01), MODEL)
    back = evolve(fwd, 10.0, 0.0, IntegratorConfig(dt=-0.01), MODEL)
    rel = norm_h1l2(back - w) / norm_h1l2(w)
    _report("4", f"forward+backward 10 units: relative error {rel:.2e}", {"relative error": rel < 1e-9})


# ------------------------------------------------------------- criterion 5


def test_criterion_5_spectrum():
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    ap = ActionParams.from_soliton(sp)
    reports = {}
    for n in (512, 1024):
        grid = Grid(80.0, n)
        phi = sample_soliton(sp, 0.0, grid)
        op = assemble_second_variation(phi, ap)
        reports[n] = (spectrum_report(op), op, grid)

    rep512, op512, grid512 = reports[512]
    rep1024 = reports[1024][0]

    def family(grid):
        def f(om):
            s2 = SolitonParams(MODEL, omega=om, v=0.0)
            return sample_soliton(s2, 0.0, grid)

        return f

    slope_stable = slope_test(family(grid512), ap, 0.8, op=op512)
    grid_c = Grid(80.0, 512)
    sp6 = SolitonParams(MODEL, omega=0.6, v=0.0)
    ap6 = ActionParams.from_soliton(sp6)
    phi6 = sample_soliton(sp6, 0.0, grid_c)
    op6 = assemble_second_variation(phi6, ap6)
    slope_unstable = slope_test(family(grid_c), ap6, 0.6, op=op6)
    delta_unstable = spectrum_report(op6).coercivity_delta
    # evidence only, no bound: delta changes sign at the closed-form threshold
    # omega_c^2 / m = (p - 1)/4 (Shatah; Grillakis, Shatah and Strauss)
    grid_r = Grid(80.0, 256)

    def delta_at(om):
        s = SolitonParams(MODEL, omega=om, v=0.0)
        op = assemble_second_variation(sample_soliton(s, 0.0, grid_r), ActionParams.from_soliton(s))
        return spectrum_report(op).coercivity_delta

    omega_c = math.sqrt(MODEL.m * MODEL.stability_threshold())
    root = brentq(delta_at, omega_c - 0.03, omega_c + 0.03, xtol=1e-12)

    delta_shift = abs(rep1024.coercivity_delta - rep512.coercivity_delta) / rep512.coercivity_delta
    _report(
        "5",
        f"Morse={rep512.negative_count} (lowest {rep512.negative_eigenvalue:.5f}, -3mu), "
        f"kernel={rep512.kernel_dimension}, "
        f"delta={rep512.coercivity_delta:.5f} (N=1024 shift {delta_shift * 100:.2f}%), "
        f"slope(0.8)={slope_stable:.6f} (-28/15), slope(0.6)={slope_unstable:.4f}>0, "
        f"delta(0.6)={delta_unstable:.5f} (sign -slope), "
        f"delta root {root:.13f} (omega_c {root - omega_c:+.1e}, N=256)",
        {"Morse index": rep512.negative_count == 1,
         "kernel dimension": rep512.kernel_dimension == 2,
         "delta(0.8) positive": rep512.coercivity_delta > 0,
         "delta shift at N=1024": delta_shift < 0.05,
         "slope(0.8)": abs(slope_stable - (-28.0 / 15.0)) < 1e-4,
         "slope(0.6) positive": slope_unstable > 0,
         # Grillakis-Shatah-Strauss with Morse index 1 and kernel 2: the constrained
         # form is positive exactly when the frequency slope is negative
         "sign delta = -sign slope": (np.sign(rep512.coercivity_delta) == -np.sign(slope_stable)
                                      and np.sign(delta_unstable) == -np.sign(slope_unstable))},
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_modulation():
    grid = Grid(160.0, 1024)
    s1 = SolitonParams(MODEL, omega=0.8, theta=0.2, v=-0.4, x0=-8.0)
    s2 = SolitonParams(MODEL, omega=0.78, theta=-0.4, v=0.4, x0=9.0)
    u = soliton_sum([s1, s2], 0.0, grid)

    seeds = [replace(s, theta=s.theta + 0.04, omega=s.omega - 0.01, x0=s.x0 + 0.05) for s in (s1, s2)]
    st = fit_modulation(u, seeds)
    recovery = max(
        float(np.max(np.abs(st.thetas - [s1.theta, s2.theta]))),
        float(np.max(np.abs(st.omegas - [s1.omega, s2.omega]))),
        float(np.max(np.abs(st.positions - [s1.x0, s2.x0]))),
    )
    ortho = float(np.max(np.abs(st.ortho_residuals)))

    # gauge fits seed with the same +0.04/-0.01/+0.05 offsets as the base fit
    # so all three run the identical Newton path on transformed data
    alpha = 0.37
    st_rot = fit_modulation(
        Field(np.exp(1j * alpha) * u.u1, np.exp(1j * alpha) * u.u2, grid),
        [replace(s, theta=s.theta + alpha) for s in seeds],
    )
    cells = 32
    shift = cells * grid.spacing
    st_mov = fit_modulation(
        Field(np.roll(u.u1, cells), np.roll(u.u2, cells), grid),
        [replace(s, x0=s.x0 + shift) for s in seeds],
    )
    gauge = max(
        float(np.max(np.abs(st_rot.thetas - st.thetas - alpha))),
        float(np.max(np.abs(st_rot.omegas - st.omegas))),
        float(np.max(np.abs(st_rot.positions - st.positions))),
        float(np.max(np.abs(st_mov.positions - st.positions - shift))),
        float(np.max(np.abs(st_mov.thetas - st.thetas))),
    )

    # drift scaling: frequency quadratic, phase linear in the perturbation, read
    # from the fits of forward runs from the soliton plus eps times one bump
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    run = MultiSolitonConfig(
        model=MODEL, grid=Grid(80.0, 1024), solitons=[sp],
        t_final=2.0, t_start=0.0, dt=0.0025, diag_period=0.2,
    )
    amps = (1e-2, 1e-3, 1e-4)
    om_rates, th_rates = [], []
    for eps in amps:
        rep = run_forward_stability(run, eps, seed=21)
        assert rep.tube_exit_time is None
        theta_rate_error, omega_rate, _ = rep.modulation_rates()
        om_rates.append(float(np.max(np.abs(omega_rate))))
        th_rates.append(float(np.max(np.abs(theta_rate_error))))
    la = np.log10(np.asarray(amps))
    om_slope = float(np.polyfit(la, np.log10(om_rates), 1)[0])
    th_slope = float(np.polyfit(la, np.log10(th_rates), 1)[0])

    _report(
        "6",
        f"recovery={recovery:.1e}, ortho={ortho:.1e}, gauge={gauge:.1e}, "
        f"log-log slopes: omega {om_slope:.3f} (2), theta {th_slope:.3f} (1)",
        {"recovery": recovery < 1e-8,
         "ortho": ortho < 1e-10,
         "gauge": gauge < 1e-12,
         "omega slope": om_slope == pytest.approx(2.0, abs=0.2),
         "theta slope": th_slope == pytest.approx(1.0, abs=0.2)},
    )


# ------------------------------------------------------------- criterion 7


def test_criterion_7_interaction_decay():
    grid = Grid(160.0, 2048)
    cfg = MultiSolitonConfig(
        model=MODEL,
        grid=grid,
        solitons=[
            SolitonParams(MODEL, omega=0.8, v=-0.4),
            SolitonParams(MODEL, omega=0.8, v=0.4),
        ],
        t_final=40.0,
        t_start=10.0,
        dt=0.01,
    )
    rep = measure_interactions(cfg, np.arange(10.0, 40.25, 1.5))
    slope, stderr, _ = rep.rates["pair_product"]
    floor = 0.25 * math.sqrt(MODEL.m - 0.8**2) * 0.8 * (1.0 - 0.1)
    _report(
        "7",
        f"fitted rate {-slope:.4f} >= floor {floor:.4f} "
        f"(quarter-constant with 10% slack), stderr {stderr:.2e}",
        {"fitted rate": -slope >= floor,
         "slope stderr": stderr < 0.1 * abs(slope)},
    )


# ------------------------------------------------------------- criterion 8


def test_criterion_8_ladder_monotonicity(ladder):
    """The backward construction converges as the final time grows: the
    base-time states U_T(10) of the ladder T in {25, 32.5, 40} approach each
    other, with successive distances strictly decreasing by a contraction
    factor below 0.25.

    The Strang splitting error at dt = 0.002 grows with the length of the
    run and is of the size of the second distance, so it is removed first
    by Richardson extrapolation (4 U_dt - U_2dt) / 3 against a second
    ladder at dt = 0.004; the hook stride does not change the fields, so
    that ladder stores nothing.  Measured: extrapolated distances 1.32e-4
    and 3.67e-6, factor 0.028 (raw at dt = 0.002: factor 0.12).

    The scalar errors ||U_T(10) - R(10)|| are printed as well: they rise
    along the ladder towards the distance of the limiting multi-soliton to
    the bare sum, which the construction does not promise to decrease.
    """
    cfg = ladder.reports[0].config
    coarse = run_ladder(
        replace(cfg, dt=2.0 * cfg.dt, diag_period=100.0),
        ladder.t_finals,
    )
    extrapolated = [
        (1.0 / 3.0) * (4.0 * fine.final_field - crude.final_field)
        for fine, crude in zip(ladder.reports, coarse.reports)
    ]
    dists = successive_distances(extrapolated)
    factor = dists[1] / dists[0]
    raw = ladder.successive_distances
    errs = ladder.errors_at_start
    diffs = ladder.successive_differences
    _report(
        "8a",
        f"base-time state distances (dt-extrapolated) {dists[0]:.4e}, {dists[1]:.4e}, "
        f"factor {factor:.4f} < 0.25 (raw at dt={cfg.dt}: {raw[0]:.3e}, {raw[1]:.3e}, "
        f"factor {raw[1] / raw[0]:.3f}); errors at t=10: {errs[0]:.6e}, {errs[1]:.6e}, "
        f"{errs[2]:.6e} (differences {diffs[0]:+.2e}, {diffs[1]:+.2e}; "
        f"decreasing: {ladder.strictly_decreasing})",
        {f"base-time state distances {dists} decrease": all(a > b for a, b in zip(dists, dists[1:])),
         f"ladder contraction factor {factor:.3f}": factor < 0.25},
    )


def test_criterion_8_fit_and_tube(ladder, run40):
    slope, stderr, rms = run40.refit((15.0, 38.0))
    runtime = sum(rep.runtime_seconds for rep in ladder.reports)
    tube_ok = all(rep.tube_exit_time is None for rep in ladder.reports)
    _report(
        "8b",
        f"log-error slope on [15,38] = {slope:.4f} (stderr {stderr:.4f} = "
        f"{stderr / abs(slope) * 100:.1f}% of |slope|), tube intact: {tube_ok}, "
        f"ladder runtime {runtime:.0f} s",
        {"slope negative": slope < 0,
         "slope stderr": stderr < 0.1 * abs(slope),
         "tube intact": tube_ok,
         "ladder runtime": runtime < 900.0},
    )


# ------------------------------------------------------------- criterion 9


def test_criterion_9_global_and_flux(run40):
    """Q and P are conserved exactly by both split sub-flows, so their drift
    is pure rounding (< 1e-9); E carries the O(dt^2) bounded oscillation of
    the splitting, whose stated conservation bound is 1e-6."""
    aud = almost_conservation_audit(run40)
    drift = aud.global_drift
    flux = float(np.max(aud.charge_flux_mismatch))
    _report(
        "9a",
        f"global drifts E={drift['energy']:.1e} (<1e-6, splitting oscillation) "
        f"Q={drift['charge']:.1e} P={drift['momentum']:.1e} (rounding), "
        f"charge-flux identity mismatch max {flux:.2e} < 1e-4",
        {"energy drift": drift["energy"] < 1e-6,
         "charge drift": drift["charge"] < 1e-9,
         "momentum drift": drift["momentum"] < 1e-9,
         "charge-flux mismatch": flux < 1e-4},
    )


def test_criterion_9_localized_charge_drift(run40):
    """Localized charge drift shrinks toward the final time.

    For the mirror-symmetric pair the flux through the moving midline
    vanishes identically, so the drift can sit at rounding level; that
    degenerate case satisfies the near-conservation claim trivially and
    is accepted as such."""
    qref = max(1.0, float(np.max(np.abs(run40.charges))))
    results = []
    for j in range(2):
        drift = run40.localized_charge_drift(j)
        mask = run40.times <= run40.fit_window[1]
        if np.max(drift) < 1e-9 * qref:
            results.append((j, "rounding-level", True))
            continue
        slope, stderr, _ = fit_log_slope(run40.times[mask], drift[mask])
        results.append((j, f"trend slope {slope:.3f} (stderr {stderr:.3f})",
                        slope < 0 and stderr < 0.1 * abs(slope)))
    _report(
        "9b",
        "; ".join(f"Q_{j}: {msg}" for j, msg, _ in results),
        {f"Q_{j}: {msg}": ok for j, msg, ok in results},
    )


def test_criterion_9_taylor_expansion(run40, delta_single):
    """Coercivity of the localized quadratic form (9c), and the Taylor
    remainder bound |remainder| < 0.1 * quadratic term (9d).

    The remainder is that of the expansion of S_loc around the fitted
    soliton sum R~ to second order in the residue: S_loc(U) - S_loc(R~)
    - linear term - quadratic term.  The lumped remainder S_loc(U) -
    constant - quadratic term is printed beside it; it also holds the pair
    interaction tail S_loc(R~) - sum_j S_j(R~_j), which is of zeroth order
    in the residue and exceeds the quadratic term by a factor ~1e6, plus
    the linear term and the O(delta omega^2) modulation shift.  The four
    pieces add up to the lumped value to rounding."""
    tay = taylor_expansion_audit(run40)
    _report(
        "9c",
        f"hessian/||Y||^2 in [{np.min(tay.coercivity_ratios):.3f}, "
        f"{np.max(tay.coercivity_ratios):.3f}] vs 0.5*delta={0.5 * delta_single:.4f}",
        {"hessian terms positive": np.all(tay.hessian_terms > 0),
         "hessian terms coercive": np.all(tay.hessian_terms >= 0.5 * delta_single * tay.upsilon_norm2)},
    )

    pieces = (
        tay.interaction_tails + tay.modulation_shifts + tay.linear_terms + tay.taylor_remainders
    )
    closure = float(np.max(np.abs(pieces - tay.remainders)))
    ratios = np.abs(tay.taylor_remainders) / tay.hessian_terms
    worst = float(np.max(ratios))
    lumped = float(np.max(np.abs(tay.remainders) / tay.hessian_terms))
    _report(
        "9d",
        f"max |taylor remainder|/hessian = {worst:.1e} (bound 0.1) at "
        f"t={tay.times[int(np.argmax(ratios))]:g}; lumped max |remainder|/hessian = "
        f"{lumped:.1e}; at t={tay.times[0]:g}: interaction tail "
        f"{tay.interaction_tails[0]:.2e}, linear {tay.linear_terms[0]:.2e}, modulation "
        f"shift {tay.modulation_shifts[0]:.2e}, hessian {tay.hessian_terms[0]:.2e}, "
        f"taylor remainder {tay.taylor_remainders[0]:.2e}; pieces sum to lumped within "
        f"{closure:.1e}",
        {"pieces sum to lumped": closure < 1e-15,
         **{f"|taylor remainder|/hessian at t={t:g}: {r!r}": r < 0.1
            for t, r in zip(tay.times, ratios.tolist())}},
    )
