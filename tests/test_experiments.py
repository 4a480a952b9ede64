import warnings
from pathlib import Path

import numpy as np
import pytest

from nlkglab.experiments import (
    MultiSolitonConfig,
    almost_conservation_audit,
    fit_log_slope,
    measure_interactions,
    run_backward_construction,
    run_forward_stability,
    run_ladder,
    soliton_sum,
    taylor_expansion_audit,
)
from nlkglab.functionals import build_cutoffs, energy
from nlkglab.grids import Grid, flat, norm_h1l2, spectral_derivative
from nlkglab.modulation import NotInTubeError
from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton

MODEL = ModelParams(1.0, 3.0, 1)


@pytest.fixture(scope="module")
def grid():
    return Grid(160.0, 1024)


@pytest.fixture(scope="module")
def pair():
    return [
        SolitonParams(MODEL, omega=0.8, v=-0.4),
        SolitonParams(MODEL, omega=0.8, v=0.4),
    ]


@pytest.fixture(scope="module")
def short_run(grid, pair):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair,
        t_final=25.0, t_start=15.0, dt=0.005, diag_period=0.5,
    )
    return run_backward_construction(cfg)


def test_config_rejects_equal_velocities(grid):
    with pytest.raises(ValueError, match="distinct velocities"):
        MultiSolitonConfig(
            model=MODEL, grid=grid,
            solitons=[SolitonParams(MODEL, omega=0.8, v=0.4), SolitonParams(MODEL, omega=0.7, v=0.4)],
            t_final=20.0, t_start=10.0, dt=0.01,
        )


def test_config_rejects_solitons_of_another_model(grid):
    """The run steps with its own model, so a soliton built on another one is
    reported by its number in the list given."""
    solitons = [
        SolitonParams(ModelParams(1.0, 5.0, 1), omega=0.8, v=-0.4),
        SolitonParams(ModelParams(1.0, 3.0, 1), omega=0.8, v=0.4),
    ]
    with pytest.raises(ValueError) as exc:
        MultiSolitonConfig(
            model=ModelParams(2.0, 3.0, 1), grid=grid, solitons=solitons,
            t_final=20.0, t_start=10.0, dt=0.01,
        )
    assert str(exc.value).count("is not the run's model") == 2
    assert str(exc.value).startswith("soliton #1: model ModelParams(m=1.0, p=5.0, d=1)")
    assert "soliton #2: model ModelParams(m=1.0, p=3.0, d=1)" in str(exc.value)


@pytest.mark.parametrize("period", [0.0, -1.0])
def test_config_rejects_nonpositive_diag_period(grid, pair, period):
    """A nonpositive period would fire the hook on every step (stride 1)."""
    with pytest.raises(ValueError, match="diag_period"):
        MultiSolitonConfig(
            model=MODEL, grid=grid, solitons=pair,
            t_final=20.0, t_start=10.0, dt=0.01, diag_period=period,
        )


def test_config_star_quantities(grid, pair):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair, t_final=20.0, t_start=10.0, dt=0.01
    )
    assert cfg.v_star == pytest.approx(0.8)
    assert cfg.omega_star == pytest.approx(0.8)
    assert cfg.reference_rate == pytest.approx(min(1 / 24, 1 / 8) * 0.6 * 0.8)


def test_config_orders_solitons_by_velocity(grid):
    """Cutoff cells run left to right; an unsorted soliton list is realigned
    so weight j always belongs to soliton j."""
    s_fast = SolitonParams(MODEL, omega=0.8, v=0.4, x0=1.0)
    s_slow = SolitonParams(MODEL, omega=0.75, v=-0.4, x0=-1.0)
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=[s_fast, s_slow],
        t_final=20.0, t_start=10.0, dt=0.01,
    )
    assert [sp.v for sp in cfg.solitons] == [-0.4, 0.4]
    assert cfg.solitons[0].omega == 0.75


def test_fit_log_slope_recovers_exponential():
    t = np.linspace(0, 10, 40)
    y = 3.0 * np.exp(-0.7 * t)
    slope, stderr, rms = fit_log_slope(t, y)
    assert slope == pytest.approx(-0.7, abs=1e-10)
    assert stderr < 1e-10
    assert rms < 1e-10


def test_fit_log_slope_needs_two_distinct_times(grid, pair):
    """Positive samples that all share one time have no slope: a ValueError
    names that time, in the fit and in the interaction rates built on it."""
    with pytest.raises(ValueError, match="share the time 5.0"):
        fit_log_slope([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="share the time 5.0"):  # the other time's value is not positive
        fit_log_slope([1.0, 5.0, 5.0, 5.0], [0.0, 1.0, 2.0, 3.0])
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair, t_final=40.0, t_start=10.0, dt=0.01
    )
    with pytest.raises(ValueError, match="share the time 20.0"):
        measure_interactions(cfg, [20.0, 20.0, 20.0])


def test_single_soliton_backward_error_is_integrator_level(grid):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=[SolitonParams(MODEL, omega=0.8, v=0.4)],
        t_final=20.0, t_start=15.0, dt=0.0025, diag_period=1.0,
    )
    rep = run_backward_construction(cfg)
    assert np.max(rep.errors) < 1e-4  # splitting error only: one soliton is exact


def test_backward_run_basics(short_run):
    rep = short_run
    assert rep.tube_exit_time is None
    assert rep.errors[-1] == pytest.approx(0.0, abs=1e-12)  # final data exact
    assert np.all(np.isfinite(rep.errors))
    slope, stderr, _ = rep.window_fit()
    assert slope < 0
    assert stderr < 0.1 * abs(slope)
    # the field stays modulated and the residual decays toward the final time
    assert rep.upsilon_norms[0] > rep.upsilon_norms[-2]


def test_backward_forward_consistency(short_run, grid, pair):
    """Re-evolving the base-time field forward reproduces the final data."""
    from nlkglab.integrator import IntegratorConfig, evolve

    cfg = short_run.config
    back = evolve(
        short_run.final_field, cfg.t_start, cfg.t_final,
        IntegratorConfig(dt=cfg.dt), MODEL,
    )
    final = soliton_sum(pair, cfg.t_final, grid)
    assert norm_h1l2(back - final) < 1e-9 * norm_h1l2(final)


def test_localized_energy_sums_to_global(short_run):
    for i in (0, len(short_run.times) // 2):
        loc = short_run.localized[i]
        assert np.sum(loc.e) == pytest.approx(short_run.energies[i], rel=1e-12)


def test_ladder_report_structure(grid, pair):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair,
        t_final=24.0, t_start=18.0, dt=0.01, diag_period=1.0,
    )
    lad = run_ladder(cfg, [21.0, 24.0])
    assert len(lad.reports) == 2
    assert len(lad.errors_at_start) == 2
    assert lad.successive_differences[0] == pytest.approx(
        lad.errors_at_start[1] - lad.errors_at_start[0]
    )
    assert lad.successive_distances[0] == pytest.approx(
        norm_h1l2(lad.reports[1].final_field - lad.reports[0].final_field)
    )
    # triangle inequality: the errors are distances to the same bare sum
    for dist, diff in zip(lad.successive_distances, lad.successive_differences):
        assert dist >= abs(diff)


def test_forward_stability_zero_perturbation(grid, pair):
    # start late enough that the pair interaction is below the splitting error
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair,
        t_final=30.0, t_start=25.0, dt=0.005, diag_period=1.0,
    )
    rep = run_forward_stability(cfg, 0.0)
    assert np.max(rep.errors) < 1e-4  # integrator tolerance only


def test_forward_stability_bounded(grid):
    """Stable-window pair + 1e-3 bump over 50 time units: the modulated
    residue stays within 10x its initial size (measured ratio ~5)."""
    sols = [
        SolitonParams(MODEL, omega=0.8, v=-0.4, x0=-6.0),
        SolitonParams(MODEL, omega=0.8, v=0.4, x0=6.0),
    ]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=sols,
        t_final=50.0, t_start=0.0, dt=0.005, diag_period=2.0,
    )
    rep = run_forward_stability(cfg, 1e-3, seed=3)
    assert rep.tube_exit_time is None
    valid = rep.upsilon_norms[np.isfinite(rep.upsilon_norms)]
    assert np.max(valid) < 10 * valid[0]


def test_unstable_frequency_grows_faster(grid):
    """Outside the stability window the deviation grows markedly faster
    (measured: ~13x for omega=0.8 vs ~400x for omega=0.6 on this window).
    Blow-up, the strong form of the instability, also counts."""
    from nlkglab.integrator import BlowUpError

    mk = lambda om: [
        SolitonParams(MODEL, omega=om, v=-0.4),
        SolitonParams(MODEL, omega=om, v=0.4),
    ]
    assert not any(s.stable for s in mk(0.6))
    out = {}
    for om in (0.8, 0.6):
        cfg = MultiSolitonConfig(
            model=MODEL, grid=grid, solitons=mk(om),
            t_final=26.0, t_start=10.0, dt=0.005, diag_period=2.0,
        )
        try:
            rep = run_forward_stability(cfg, 1e-2, seed=11)
            out[om] = rep.errors[-1] / rep.errors[0]
        except BlowUpError:
            out[om] = float("inf")
    assert out[0.6] > 3.0 * out[0.8]


def test_interactions_reject_coincident(grid):
    with pytest.raises(ValueError):
        cfg = MultiSolitonConfig(
            model=MODEL, grid=grid,
            solitons=[SolitonParams(MODEL, omega=0.8, v=0.4)],
            t_final=20.0, t_start=10.0, dt=0.01,
        )
        measure_interactions(cfg, [10.0, 20.0])


def test_interactions_early_times_rejected(grid, pair):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair, t_final=40.0, t_start=10.0, dt=0.01
    )
    with pytest.raises(ValueError):
        measure_interactions(cfg, [2.0, 10.0])  # below max(4/v_star^2, 1) = 6.25
    with pytest.raises(ValueError, match="at least one time"):
        measure_interactions(cfg, [])


@pytest.mark.parametrize("times, bad", [([16.0, 20.0, 24.0, np.nan], "nan"), ([16.0, np.inf, 20.0, 24.0], "inf")])
def test_interactions_reject_nonfinite_times(grid, pair, times, bad):
    """A NaN or infinite time is named, not fitted around."""
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair, t_final=40.0, t_start=10.0, dt=0.01
    )
    with pytest.raises(ValueError, match=f"finite, got \\[{bad}\\]"):
        measure_interactions(cfg, times)


def test_three_soliton_construction_and_nonadjacent_leakage(grid):
    """Three cells: the construction runs end to end, the partition weights
    pair with their solitons, and the leakage of an outer soliton into the
    opposite outer cell decays in time."""
    sols = [
        SolitonParams(MODEL, omega=0.8, v=-0.5),
        SolitonParams(MODEL, omega=0.8, v=0.0),
        SolitonParams(MODEL, omega=0.8, v=0.5),
    ]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=sols,
        t_final=28.0, t_start=22.0, dt=0.005, diag_period=1.0,
    )
    rep = run_backward_construction(cfg)
    assert rep.tube_exit_time is None
    assert rep.errors[-1] == pytest.approx(0.0, abs=1e-12)
    # three-body interaction scale at this separation (measured 5.1e-2),
    # growing monotonically backward in time
    assert np.max(rep.errors) < 0.1
    assert np.all(np.diff(rep.errors) < 0)
    # localized charges telescope to the conserved total
    for i in (0, len(rep.times) - 1):
        assert np.sum(rep.localized[i].q) == pytest.approx(rep.charges[i], rel=1e-10)

    irep = measure_interactions(cfg, np.arange(16.0, 40.0, 2.0))
    far = irep.cutoff_leakage[(0, 2)]  # soliton 0 seen by the rightmost cell
    slope, stderr, _ = fit_log_slope(irep.times, far)
    assert slope < 0
    assert stderr < 0.1 * abs(slope)


@pytest.mark.parametrize("backward", [True, False])
def test_report_series_align_with_ascending_times(grid, pair, monkeypatch, backward):
    """In either direction every series is aligned with the ascending times,
    and after a (forced) tube exit no fit runs at or beyond the exit time in
    the run's direction."""
    from nlkglab import experiments

    real, calls = experiments.fit_modulation, []

    def fit_thrice(field, seeds):
        calls.append(1)
        if len(calls) > 3:
            raise NotInTubeError("forced")
        return real(field, seeds)

    monkeypatch.setattr(experiments, "fit_modulation", fit_thrice)
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair,
        t_final=20.0, t_start=14.0, dt=0.01, diag_period=1.0,
    )
    rep = run_backward_construction(cfg) if backward else run_forward_stability(cfg, 1e-3, seed=2)
    n = len(rep.times)
    assert n == 7 and np.all(np.diff(rep.times) > 0)
    series = (rep.errors, rep.energies, rep.charges, rep.momenta, rep.localized, rep.modulation)
    assert all(len(s) == n for s in series + (rep.fields,))
    for i, t in enumerate(rep.times):
        f = rep.fields[i]
        assert rep.errors[i] == norm_h1l2(f - soliton_sum(cfg.solitons, t, grid))
        assert rep.energies[i] == energy(f, MODEL)
    last = rep.fields[0] if backward else rep.fields[-1]
    assert np.array_equal(last.u1, rep.final_field.u1)
    assert np.array_equal(last.u2, rep.final_field.u2)
    # three fits, then the exit at the fourth hook in the run's direction
    assert len(calls) == 4
    assert rep.tube_exit_time == rep.times[n - 4 if backward else 3]
    fitted = [st is not None for st in rep.modulation]
    if backward:
        assert fitted == [t > rep.tube_exit_time for t in rep.times]
    else:
        assert fitted == [t < rep.tube_exit_time for t in rep.times]


def test_a_construction_hook_takes_three_ffts(grid, pair, monkeypatch):
    """A hook's field takes u1' once, for the record's E and P, the localized
    quantities and the fit alike: per hook np.fft.fft runs three times (that
    u1', the error field's u1' and the fit's U2'), not once per reader."""
    from nlkglab import experiments

    calls, per_run = [], []
    real_fft, real_evolve = np.fft.fft, experiments.evolve

    def counted_fft(*args, **kwargs):
        calls.append(1)
        return real_fft(*args, **kwargs)

    def counted_evolve(*args, **kwargs):  # the stepper's own transforms are scipy.fft's
        before = len(calls)
        out = real_evolve(*args, **kwargs)
        per_run.append(len(calls) - before)
        return out

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    monkeypatch.setattr(experiments, "evolve", counted_evolve)
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair,
        t_final=11.0, t_start=10.0, dt=0.005, diag_period=0.25,
    )
    rep = run_backward_construction(cfg)
    assert len(rep.times) == 5 and all(st is not None for st in rep.modulation)
    assert per_run == [3 * 5]


def test_interaction_gram_products_match_pointwise_quadrature(grid):
    """The Gram products of the stacked magnitudes equal the pointwise
    quadrature of every pair, ordered and unordered, for three solitons."""
    sols = [
        SolitonParams(MODEL, omega=0.8, v=-0.5, theta=0.3, x0=-1.0),
        SolitonParams(MODEL, omega=0.75, v=0.0),
        SolitonParams(MODEL, omega=0.85, v=0.5, theta=-1.1, x0=2.0),
    ]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=sols, t_final=40.0, t_start=10.0, dt=0.01
    )
    times = [16.0, 20.0, 24.0]
    rep = measure_interactions(cfg, times)
    h = grid.spacing
    pairs = [(j, k) for j in range(3) for k in range(3) if j != k]
    assert list(rep.cutoff_leakage) == pairs
    assert list(rep.pair_products) == list(rep.pair_grad_products) == [(0, 1), (0, 2), (1, 2)]

    def mag(a, b):
        return np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)

    for a, t in enumerate(times):
        comps = [sample_soliton(sp, t, grid) for sp in cfg.solitons]
        mags = [mag(c.u1, c.u2) for c in comps]
        dmags = [
            mag(spectral_derivative(c.u1, grid), spectral_derivative(c.u2, grid)) for c in comps
        ]
        weights = build_cutoffs([sp.v for sp in cfg.solitons], t, grid)
        for j, k in pairs:
            leak = np.sum(mags[j] * weights[k]) * h
            assert rep.cutoff_leakage[(j, k)][a] == pytest.approx(leak, rel=1e-12)
            if j < k:
                prod = np.sum(mags[j] * mags[k]) * h
                grad = np.sum(dmags[j] * dmags[k]) * h
                assert rep.pair_products[(j, k)][a] == pytest.approx(prod, rel=1e-12)
                assert rep.pair_grad_products[(j, k)][a] == pytest.approx(grad, rel=1e-12)


def test_forward_run_deterministic(grid, pair):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair,
        t_final=16.0, t_start=14.0, dt=0.01, diag_period=1.0,
    )
    a = run_forward_stability(cfg, 1e-3, seed=5)
    b = run_forward_stability(cfg, 1e-3, seed=5)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.upsilon_norms, b.upsilon_norms)


def test_interaction_decay_rates(grid, pair):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair, t_final=40.0, t_start=10.0, dt=0.01
    )
    rep = measure_interactions(cfg, np.arange(10.0, 40.5, 2.0))
    slope, stderr, _ = rep.rates["pair_product"]
    # proof-side floor: (1/4) sqrt(m - omega_star^2) v_star with 10% slack
    assert -slope >= 0.25 * 0.6 * 0.8 * 0.9
    assert stderr < 0.1 * abs(slope)
    assert rep.pair_products[(0, 1)][0] > rep.pair_products[(0, 1)][-1]
    # product integrals are symmetric in the pair: relabeling the solitons
    # reproduces them
    swapped = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=list(reversed(pair)),
        t_final=40.0, t_start=10.0, dt=0.01,
    )
    rep_sw = measure_interactions(swapped, [14.0, 22.0])
    rep_ref = measure_interactions(cfg, [14.0, 22.0])
    assert np.allclose(rep_sw.pair_products[(0, 1)], rep_ref.pair_products[(0, 1)], rtol=1e-12)
    assert np.allclose(
        rep_sw.pair_grad_products[(0, 1)], rep_ref.pair_grad_products[(0, 1)], rtol=1e-12
    )
    lslope, lstderr, _ = rep.rates["cutoff_leakage"]
    assert lslope < 0 and lstderr < 0.1 * abs(lslope)


@pytest.mark.filterwarnings("error::UserWarning")  # a trial outside the domain must not warn
def test_asymmetric_pair_drift_and_tube_exit(grid):
    """An asymmetric pair with one frequency near the stability boundary:
    the localized charges drift oppositely (they telescope to the conserved
    total) with a decaying trend, and the backward run reports a tube exit
    when the fitted frequency reaches the window edge, where the
    frequency-charge derivative degenerates.  Near the exit, a Newton
    trial leaves the domain (boundary value 2.4e-5 of the peak): its
    sample raises, the step is halved and no warning is issued."""
    sols = [
        SolitonParams(MODEL, omega=0.75, v=-0.4),
        SolitonParams(MODEL, omega=0.85, v=0.4),
    ]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=sols,
        t_final=30.0, t_start=10.0, dt=0.005, diag_period=0.5,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_backward_construction(cfg)
    assert not [w for w in caught if issubclass(w.category, UserWarning)]
    assert rep.tube_exit_time is not None
    assert 10.0 < rep.tube_exit_time < 14.0  # measured: 11.5
    with pytest.raises(ValueError, match="tube exit"):
        rep.modulation_rates()
    # fits valid above the exit time
    fitted = [st for t, st in zip(rep.times, rep.modulation) if t > rep.tube_exit_time]
    assert all(st is not None and st.converged for st in fitted)
    d0 = rep.localized_charge_drift(0)
    d1 = rep.localized_charge_drift(1)
    assert np.allclose(d0, d1, atol=1e-12)  # telescoping: total charge conserved
    mask = rep.times <= rep.fit_window[1]
    slope, stderr, _ = fit_log_slope(rep.times[mask], d0[mask])
    assert slope < 0
    assert stderr < 0.1 * abs(slope)


def test_marginal_run_warns_once_per_tail_and_location():
    """On a marginal domain every sample warns about its boundary value.  The
    fit issues no warning of its own and mutates no warning filter, so under
    the default filter a backward run records each distinct tail once per
    location: R(t)'s at its sampling in ``soliton_sum`` once, not again at
    every hook, and each fit's from the modulation module."""
    import scipy.fft  # noqa: F401  (evolve imports it lazily, and the import resets the registry)

    g = Grid(80.0, 1024)
    sols = [
        SolitonParams(MODEL, omega=0.9, v=0.3, x0=-8.0),
        SolitonParams(MODEL, omega=0.9, v=-0.3, x0=8.0),
    ]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=g, solitons=sols, t_final=12.0, t_start=10.0, dt=0.01, diag_period=0.25,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        rep = run_backward_construction(cfg)
    assert len(rep.times) == 9 and rep.tube_exit_time is None
    places = [(str(w.message), Path(w.filename).name, w.lineno) for w in caught]
    assert all("boundary value" in message for message, _, _ in places)
    assert len(places) == len(set(places))  # measured: 10 records
    assert {name for _, name, _ in places} == {"experiments.py", "modulation.py"}


def test_modulation_rates_of_a_backward_run(short_run):
    """After the reversal the hook times ascend, so the centred differences of
    the fits are finite, small for a well-separated pair (measured: at most
    1.0e-3, 2.4e-4 and 8.4e-4), and the omega rate is the centred difference of
    the fitted frequencies over the ascending times."""
    times = short_run.times
    assert np.all(np.diff(times) > 0)
    theta_rate_error, omega_rate, position_rate_error = short_run.modulation_rates()
    for series in (theta_rate_error, omega_rate, position_rate_error):
        assert series.shape == (len(times) - 2, 2)
        assert np.max(np.abs(series)) < 5e-3
    omegas = np.array([st.omegas for st in short_run.modulation])
    assert np.array_equal(omega_rate, (omegas[2:] - omegas[:-2]) / (times[2:] - times[:-2])[:, None])


def test_modulation_rates_need_three_hooks(grid, pair):
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=pair,
        t_final=15.5, t_start=15.0, dt=0.005, diag_period=0.5,
    )
    rep = run_backward_construction(cfg)
    assert len(rep.times) == 2
    with pytest.raises(ValueError, match="at least 3 hooks"):
        rep.modulation_rates()


def test_almost_conservation_audit(short_run):
    aud = almost_conservation_audit(short_run)
    assert aud.global_drift["energy"] < 1e-8
    assert aud.global_drift["charge"] < 1e-10
    assert aud.global_drift["momentum"] < 1e-10
    assert np.max(aud.charge_flux_mismatch) < 1e-4
    assert np.max(aud.momentum_flux_mismatch) < 1e-4
    # the localized action varies slowly (scale of the interaction tail)
    assert np.max(np.abs(aud.action_rate)) < 1e-2


def test_taylor_audit_structure(short_run):
    tay = taylor_expansion_audit(short_run)
    assert np.all(tay.hessian_terms > 0)
    assert np.all(tay.coercivity_ratios > 0)
    # remainder is far below the leading constant
    assert np.all(np.abs(tay.remainders) < 1e-2 * abs(tay.constant))


def test_taylor_pieces_sum_to_lumped_remainder(short_run):
    tay = taylor_expansion_audit(short_run)
    pieces = (
        tay.interaction_tails + tay.modulation_shifts + tay.linear_terms + tay.taylor_remainders
    )
    assert np.allclose(pieces, tay.remainders, rtol=0.0, atol=1e-15)


def test_taylor_remainder_below_quadratic_term(short_run):
    """The second-order remainder is far below the quadratic term
    (measured ratio <= 2e-5); the lumped remainder is not."""
    tay = taylor_expansion_audit(short_run)
    assert np.all(np.abs(tay.taylor_remainders) < 0.1 * tay.hessian_terms)
    assert np.all(np.abs(tay.remainders) > tay.hessian_terms)


def test_taylor_remainder_check_detects_wrong_quadratic_term(short_run, monkeypatch):
    """A doubled quadratic term leaves -hessian in the remainder, so the
    0.1 * hessian bound of the remainder check is violated."""
    from nlkglab import experiments

    true = taylor_expansion_audit(short_run)
    original = experiments.localized_hessian_form
    monkeypatch.setattr(
        experiments, "localized_hessian_form", lambda *args: 2.0 * original(*args)
    )
    tay = taylor_expansion_audit(short_run)
    ratio = np.abs(tay.taylor_remainders) / true.hessian_terms
    assert np.allclose(ratio, 1.0, rtol=1e-3)
    assert not np.any(np.abs(tay.taylor_remainders) < 0.1 * tay.hessian_terms)


def test_localized_hessian_matches_dense_operator():
    """With a single full-weight cell the quadrature form equals half the
    dense second-variation quadratic form (independent code paths)."""
    from test_spectrum import _dense_matrix

    from nlkglab.experiments import random_bump
    from nlkglab.functionals import ActionParams, build_cutoffs, localized_hessian_form
    from nlkglab.spectrum import assemble_second_variation

    g = Grid(80.0, 256)
    sp = SolitonParams(MODEL, omega=0.8, theta=0.3, v=0.3, x0=2.0)
    ap = ActionParams.from_soliton(sp)
    from nlkglab.profiles import sample_soliton

    phi = sample_soliton(sp, 0.0, g)
    op = assemble_second_variation(phi, ap)
    cut = build_cutoffs([sp.v], 5.0, g)
    z = random_bump(g, 3)
    quad = localized_hessian_form(z, [phi], cut, [ap])
    zf = flat(z)
    assert quad == pytest.approx(0.5 * g.spacing * zf @ (_dense_matrix(op) @ zf), rel=1e-10)


@pytest.mark.parametrize(
    "t_final, t_start, dt, picks",
    [
        (25.0, 15.0, 0.005, [17.5, 18.5, 20.0, 21.0, 22.5]),  # short_run
        (40.0, 10.0, 0.002, [17.5, 21.0, 25.0, 28.5, 32.5]),  # criterion 9's run40
    ],
)
def test_audit_ties_go_to_the_earlier_hook(t_final, t_start, dt, picks):
    """Audit times midway between two hooks (18.75, 21.25, 28.75 with hooks every
    0.5) pick the earlier hook whatever the last bit of the hook times."""
    from types import SimpleNamespace

    from nlkglab.experiments import _audit_indices

    stride = int(round(0.5 / dt))
    steps = np.arange(0, int(round((t_final - t_start) / dt)) + 1, stride)
    times = np.sort(t_final - steps * dt)  # t0 + n dt of a backward run, ascending
    cfg = SimpleNamespace(t_start=t_start, t_final=t_final)
    usable = [True] * len(times)
    want = _audit_indices(SimpleNamespace(config=cfg, times=times), usable)
    assert np.array_equal(times[want], picks)
    rng = np.random.default_rng(4)
    for direction in (np.full(len(times), np.inf), np.full(len(times), -np.inf),
                      rng.choice([np.inf, -np.inf], len(times))):
        nudged = np.nextafter(times, direction)  # each hook time one ulp off
        got = _audit_indices(SimpleNamespace(config=cfg, times=nudged), usable)
        assert np.array_equal(got, want)
