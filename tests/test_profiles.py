import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nlkglab import profiles
from nlkglab.grids import Grid, flat, norm_h1l2, norm_l2, symmetry_rows
from nlkglab.integrator import IntegratorConfig, evolve
from nlkglab.profiles import (
    DomainTooSmallError,
    FrequencyRangeError,
    ModelParams,
    ShootingError,
    SolitonParams,
    _radial_linear_band,
    _radial_stencil_residual,
    ground_state_1d,
    ground_state_radial,
    phi_omega,
    phi_tilde,
    points_per_width,
    profile_norms,
    sample_soliton,
)
from oracles import (
    petviashvili_stencil_every_iteration,
    pohozaev_ratio,
    radial_stencil_residual_gather,
    sample_soliton_reference,
    sample_soliton_spectral,
    soliton_tangents,
    standing_wave_energy,
    standing_wave_energy_scaling,
    symmetry_directions,
    tail_log_slope,
)

MODEL = ModelParams(1.0, 3.0, 1)


@pytest.fixture(scope="module")
def grid():
    return Grid(80.0, 1024)


def test_phi_tilde_peak():
    assert float(phi_tilde(0.0, 3.0)) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_scaled_peak():
    # (m - omega^2)^(1/2) scaling at p=3
    assert float(phi_omega(0.0, MODEL, 0.8)) == pytest.approx(0.6 * math.sqrt(2.0), rel=1e-12)


def test_phi_tilde_solves_ode(grid):
    gs = ground_state_1d(MODEL, 0.0, grid)
    assert gs.residual < 1e-8


def test_residual_scaled(grid):
    gs = ground_state_1d(MODEL, 0.8, grid)
    assert gs.residual < 1e-8
    assert np.all(gs.samples > 0)


def test_norm_squared(grid):
    gs = ground_state_1d(MODEL, 0.0, grid)
    n2, dn2 = profile_norms(gs)
    assert n2 == pytest.approx(4.0, rel=1e-10)
    assert dn2 == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_pohozaev(grid):
    gs = ground_state_1d(MODEL, 0.0, grid)
    n2, dn2 = profile_norms(gs)
    assert dn2 / n2 == pytest.approx(pohozaev_ratio(MODEL), rel=1e-6)
    assert pohozaev_ratio(MODEL) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_scaling_law_norms(grid):
    gs = ground_state_1d(MODEL, 0.8, grid)
    n2, _ = profile_norms(gs)
    # ||phi_omega||^2 = (m - omega^2)^((4-d(p-1))/(2(p-1))) * ||phi_tilde||^2
    assert n2 == pytest.approx(0.6 * 4.0, rel=1e-10)


def test_tail_slope(grid):
    gs = ground_state_1d(MODEL, 0.8, grid)
    slope = tail_log_slope(gs)
    kappa = math.sqrt(1.0 - 0.64)
    assert slope == pytest.approx(-kappa, rel=0.02)


def test_frequency_out_of_range(grid):
    with pytest.raises(FrequencyRangeError):
        ground_state_1d(MODEL, 1.01, grid)


@pytest.mark.parametrize(
    "m, omega, fate", [(1.0, 0.5, "underflows to 0"), (4.0, 0.0, "overflows")]
)
def test_ground_state_peak_must_be_a_positive_float(m, omega, fate):
    """Near p = 1 the closed-form peak ((p+1) mu/2)^(1/(p-1)) leaves the floats:
    at mu = 0.75 it underflows, and every sample with it (the ground state was
    all zeros, with a 0/0 in the domain check); at mu = 4 it overflows."""
    with pytest.raises(ValueError, match=fate):
        ground_state_1d(ModelParams(m, 1.0001, 1), omega, Grid(80.0, 1024))


@pytest.mark.parametrize("p", [5.0, 7.0])
def test_no_stability_window_past_mass_subcritical(p):
    """At p >= 1 + 4/d the stability window is empty: the threshold is inf and
    no soliton is stable, however close omega is to sqrt(m)."""
    model = ModelParams(1.0, p, 1)
    assert not model.mass_subcritical
    assert model.stability_threshold() == math.inf
    assert not any(SolitonParams(model, omega=om, v=0.3).stable for om in (0.0, 0.5, 0.9, 0.999))


def test_one_dimensional_profiles_refuse_d2(grid):
    """The grid-sampled ground state and the soliton sampler are d = 1 only."""
    model = ModelParams(1.0, 3.0, 2)
    with pytest.raises(ValueError, match="ground_state_1d requires d=1"):
        ground_state_1d(model, 0.8, grid)
    with pytest.raises(ValueError, match="soliton sampling is implemented for d=1 dynamics"):
        sample_soliton(SolitonParams(model, omega=0.8), 0.0, grid)


def test_domain_too_small():
    small = Grid(10.0, 128)
    with pytest.raises(DomainTooSmallError):
        ground_state_1d(MODEL, 0.8, small)


def test_domain_marginal_warns(grid):
    # boundary tail between 1e-10 and 1e-6 of the peak: warn, don't fail
    with pytest.warns(UserWarning, match="boundary value"):
        ground_state_1d(MODEL, 0.9, grid)


@pytest.mark.parametrize("p, omega, v", [(3.0, 0.6, 0.0), (2.0, 0.8, 0.5), (5.0, 0.9, -0.3)])
def test_points_per_width(grid, p, omega, v):
    """The boosted profile phi_omega(gamma y) falls to sech(1)^(2/(p-1)) of its
    peak at y = w, with w = h times the points per width; none where there is no
    profile."""
    model = ModelParams(1.0, p, 1)
    w = points_per_width(model, omega, v, grid) * grid.spacing
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    ratio = phi_omega(gamma * w, model, omega) / phi_omega(0.0, model, omega)
    assert ratio == pytest.approx(math.cosh(1.0) ** (-2.0 / (p - 1.0)), rel=1e-12)
    assert math.isnan(points_per_width(model, 1.0, v, grid))
    assert math.isnan(points_per_width(model, omega, 1.0, grid))


def test_energy_formula_discrepancy(grid):
    """Quadrature matches the Pohozaev-corrected scaling form; the collapsed
    form without the Pohozaev factor overcounts the gradient term."""
    e_quad = standing_wave_energy(MODEL, 0.8, grid)
    assert e_quad == pytest.approx(1.824, rel=1e-6)
    corrected = standing_wave_energy_scaling(MODEL, 0.8)
    assert e_quad / 4.0 == pytest.approx(corrected, rel=1e-8)
    # the collapsed form at m=1, p=3, d=1: the gradient term mu^(3/2) keeps
    # factor 1 instead of the Pohozaev factor 1/3 (mu = m - omega^2)
    mu = 1.0 - 0.8**2
    uncorrected = 0.25 * (mu**1.5 + mu**0.5) + 0.75 * 0.8**2 * mu**0.5
    assert uncorrected == pytest.approx(0.492, abs=1e-3)
    assert abs(uncorrected - corrected) > 0.03


# --- radial ground states


def test_radial_d1_matches_closed_form():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 1), 0.0, rmax=20.0, n=4000)
    assert gs.samples[0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert gs.residual < 1e-8


@pytest.mark.parametrize("omega, rmax, n", [(0.0, 20.0, 4000), (0.6, 30.0, 6000)])
def test_radial_d1_whole_profile_matches_closed_form(omega, rmax, n):
    """The whole d=1 profile, tail included, is the closed form: a tail left
    at the Dirichlet-zero value of the seed would show near rmax."""
    model = ModelParams(1.0, 3.0, 1)
    gs = ground_state_radial(model, omega, rmax=rmax, n=n)
    exact = phi_omega(gs.radial_mesh, model, omega)
    assert np.max(np.abs(gs.samples - exact)) < 1e-9 * gs.samples[0]


def test_radial_d3_height_and_residual():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=20.0, n=4000)
    # the benchmark's fingerprint for this call
    assert gs.samples[0] == pytest.approx(4.337387740294842, rel=1e-9)
    assert gs.residual < 1e-8


def test_radial_monotone_decreasing():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=15.0, n=3000)
    assert np.all(np.diff(gs.samples) <= 1e-14)
    assert np.all(gs.samples >= 0)


def test_radial_d2():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 2), 0.0, rmax=20.0, n=4000)
    # the benchmark's fingerprint for this call
    assert gs.samples[0] == pytest.approx(2.2062008656834404, rel=1e-9)
    assert gs.residual < 1e-8
    assert np.all(np.diff(gs.samples) <= 1e-14)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_radial_nonzero_frequency_scaling(p):
    # phi_omega(0) = (m - omega^2)^(1/(p-1)) * phi_tilde-height in any d; the
    # omega = 0.8 mesh is the omega = 0 mesh stretched by 1/sqrt(m - omega^2),
    # so both calls share one 4th-order discretization error (1.5e-6 at p=4)
    m3 = ModelParams(1.0, p, 3)
    gs0 = ground_state_radial(m3, 0.0, rmax=15.0, n=3000)
    gs8 = ground_state_radial(m3, 0.8, rmax=25.0, n=3000)
    assert gs8.samples[0] == pytest.approx(0.36 ** (1.0 / (p - 1.0)) * gs0.samples[0], rel=1e-6)


@pytest.mark.parametrize("d, rmax", [(3, 3.0), (3, 10.0), (2, 12.0)])
def test_radial_domain_too_small(d, rmax):
    """A profile that has not decayed to 1e-6 of its height at rmax is an
    error, as on the 1D grid; at rmax = 3 the d=3 height is 1.9% too high."""
    with pytest.raises(DomainTooSmallError, match="enlarge the domain"):
        ground_state_radial(ModelParams(1.0, 3.0, d), 0.0, rmax=rmax)


def test_radial_tail_underflow_at_large_rmax():
    """Past r ~ 745 the matched tail K0(r) underflows to zero; the profile
    still comes back finite, decaying and at the converged height."""
    gs = ground_state_radial(ModelParams(1.0, 3.0, 2), 0.0, rmax=800.0, n=16000)
    assert gs.samples[0] == pytest.approx(2.2062008656834404, rel=1e-5)
    assert gs.residual < 1e-8
    assert np.all(np.isfinite(gs.samples)) and gs.samples[-1] == 0.0


def test_radial_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(profiles, "PETVIASHVILI_MAX_ITER", 1)
    with pytest.raises(ShootingError, match="did not converge"):
        ground_state_radial(ModelParams(1.0, 3.0, 2), 0.0, rmax=20.0, n=4000)


@pytest.mark.parametrize(
    "p, d, omega, step",
    [(1.001, 2, 0.5, 1), (4.99, 3, 0.0, 42)],
    ids=["S-power-overflows", "iterate-overflows"],
)
def test_radial_diverging_iteration_stops_at_its_first_non_finite_step(p, d, omega, step):
    """A Petviashvili iterate that leaves the finite numbers stops the
    iteration with a ShootingError naming the step, long before the cap, and
    no RuntimeWarning gets out: at p = 1.001 the power S**(p/(p-1)) of the
    first step overflows, and at p = 4.99 in d = 3 the iterate grows until
    step 42 overflows.  The mesh is the CLI's default."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"^Petviashvili iteration diverged: step {step} gave a non-finite iterate"
        with pytest.raises(ShootingError, match=message):
            ground_state_radial(ModelParams(1.0, p, d), omega, rmax=40.0, n=4000)


def test_cli_groundstate_of_a_diverging_iteration_exits_3_without_warnings():
    """``groundstate`` on a diverging radial iteration exits 3 with one line on
    stderr and no RuntimeWarning, under Python's default warning filters."""
    src = str(Path(profiles.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "nlkglab.cli", "groundstate", "--d", "3", "--p", "4.99", "--omega", "0"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert out.returncode == 3
    assert "RuntimeWarning" not in out.stderr
    assert out.stderr == (
        "numerical failure: Petviashvili iteration diverged: step 42 gave a non-finite iterate (S = nan)\n"
    )


def test_radial_polish_cap_raises(monkeypatch):
    """A polish that spends its whole step budget is an error, not a silent
    return; this d=3 case needs two Newton steps."""
    monkeypatch.setattr(profiles, "POLISH_MAX_ITER", 1)
    with pytest.raises(ShootingError, match="polish did not converge"):
        ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=20.0, n=4000)


def test_radial_profile_with_a_bump_is_refused(monkeypatch, capsys):
    """A polished profile that rises anywhere is not a ground state: ShootingError,
    and exit 3 through ``groundstate --d 3``."""
    from nlkglab.cli import main

    polish = profiles._polish_radial

    def bumped(phi, *args):
        out = polish(phi, *args)
        out[len(out) // 2] += 0.1 * out[0]
        return out

    monkeypatch.setattr(profiles, "_polish_radial", bumped)
    with pytest.raises(ShootingError, match="^polished profile is not positive decreasing$"):
        ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=15.0, n=3000)
    assert main(["groundstate", "--d", "3", "--omega", "0"]) == 3
    assert capsys.readouterr().err == "numerical failure: polished profile is not positive decreasing\n"


def test_profile_norms_need_a_grid_sampled_ground_state():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=15.0, n=3000)
    with pytest.raises(ValueError, match="^profile_norms needs a grid-sampled ground state$"):
        profile_norms(gs)


def test_radial_singular_operator_raises(monkeypatch):
    """A Petviashvili operator that LAPACK cannot factor is a ShootingError."""
    monkeypatch.setattr(profiles, "_radial_linear_band", lambda r, *args: np.zeros((5, len(r) - 2)))
    with pytest.raises(ShootingError, match="singular"):
        ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=20.0, n=400)


@pytest.mark.parametrize(
    "m, p, d, rmax, n",
    [
        (1.0, 3.0, 3, 20.0, 4000),
        (1.0, 3.0, 3, 15.0, 3000),
        (1.0, 4.0, 3, 15.0, 3000),
        (4.0, 3.0, 3, 10.0, 4000),
        (4.0, 3.0, 2, 10.0, 4000),
        (1.0, 4.5, 3, 20.0, 10000),
    ],
)
def test_radial_polish_stops_at_rounding_floor(monkeypatch, m, p, d, rmax, n):
    """Across heights 4 to 9 and meshes h = 0.002 to 0.005 the polish stops
    after at most three Newton steps, one ``solve_banded`` each (Petviashvili
    solves with its one factorization), with the residual at the stencil's
    rounding floor."""
    import scipy.linalg

    solves = []
    solve_banded = scipy.linalg.solve_banded

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", counted)
    gs = ground_state_radial(ModelParams(m, p, d), 0.0, rmax=rmax, n=n)
    assert len(solves) <= 3
    assert gs.residual < 1e-8


def _counting(counts, key, fn):
    def call(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return call


def _radial_with_counts(monkeypatch, petviashvili, m, p, d, omega, rmax, n):
    """``ground_state_radial`` with ``petviashvili`` as its iteration, and
    the counts of its gbtrs solves, stencil evaluations and (polish)
    ``solve_banded`` calls."""
    import scipy.linalg

    counts = dict.fromkeys(("gbtrs", "stencil", "solve_banded"), 0)
    lapack = scipy.linalg.get_lapack_funcs

    def get_lapack_funcs(names, arrays):
        funcs = lapack(names, arrays)
        return [_counting(counts, "gbtrs", f) if k == "gbtrs" else f for k, f in zip(names, funcs)]

    with monkeypatch.context() as mp:
        mp.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
        mp.setattr(scipy.linalg, "solve_banded", _counting(counts, "solve_banded", scipy.linalg.solve_banded))
        mp.setattr(profiles, "_radial_stencil_residual", _counting(counts, "stencil", _radial_stencil_residual))
        mp.setattr(profiles, "_petviashvili", petviashvili)
        gs = ground_state_radial(ModelParams(m, p, d), omega, rmax=rmax, n=n)
    return gs, counts


@pytest.mark.parametrize(
    "m, p, d, omega, rmax, n",
    [
        (1.0, 3.0, 2, 0.0, 20.0, 4000),
        (1.0, 3.0, 3, 0.0, 20.0, 4000),
        (1.0, 3.0, 3, 0.5, 20.0, 4000),
        (1.0, 2.0, 2, 0.0, 20.0, 4000),
        (1.0, 1.5, 2, 0.0, 30.0, 4000),
        (4.0, 3.0, 3, 0.0, 10.0, 4000),
        (1.0, 4.5, 3, 0.0, 20.0, 10000),
        (1.0, 3.0, 2, 0.9, 40.0, 4000),
    ],
)
def test_petviashvili_takes_m_phi_from_its_solve(monkeypatch, m, p, d, omega, rmax, n):
    """Carrying M phi over from the last solve takes as many Petviashvili
    iterations (22 to 105 here) as taking it from the stencil at every
    iterate, and gives the same profile over the whole mesh.  The stencil
    then runs a fixed number of times per solve whatever that count: five
    band probes, once before the loop, once per polish step and once for the
    final residual.

    The two loops' S differ by about 1e-11 relative, the stencil's rounding,
    so their last iterates differ by up to 7e-12 of the height before the
    polish.  Both polishes stop on the same Newton-step test after the same
    number of steps, and the profiles agree to 7.5e-13 of the height."""
    gs, counts = _radial_with_counts(monkeypatch, profiles._petviashvili, m, p, d, omega, rmax, n)
    ref, ref_counts = _radial_with_counts(
        monkeypatch, petviashvili_stencil_every_iteration, m, p, d, omega, rmax, n
    )
    assert counts["gbtrs"] == ref_counts["gbtrs"] >= 22
    assert np.max(np.abs(gs.samples - ref.samples)) <= 2e-12 * ref.samples[0]
    assert counts["stencil"] - counts["solve_banded"] == 7
    assert ref_counts["stencil"] - ref_counts["solve_banded"] >= 6 + ref_counts["gbtrs"]


@pytest.mark.parametrize("d", [2, 3])
def test_radial_mass_scaling_is_exact(d):
    """At p = 3 the m = 4 system on [0, 10] is the m = 1 system on [0, 20]
    with r halved and phi doubled, so the two polished profiles agree to
    rounding over the whole mesh, tail included."""
    big = ground_state_radial(ModelParams(4.0, 3.0, d), 0.0, rmax=10.0, n=4000)
    unit = ground_state_radial(ModelParams(1.0, 3.0, d), 0.0, rmax=20.0, n=4000)
    assert np.max(np.abs(big.samples - 2.0 * unit.samples)) < 1e-11 * big.samples[0]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_stencil_matches_gather_oracle(d):
    """The sliced stencil gives the index-gather stencil's bits, on random
    values and on a polished profile."""
    gs = ground_state_radial(ModelParams(1.0, 3.0, d), 0.0, rmax=15.0, n=600)
    r = gs.radial_mesh
    for phi in (np.random.default_rng(7 + d).standard_normal(len(r)), gs.samples):
        got = _radial_stencil_residual(phi, r, 1.0, 3.0, float(d))
        want = radial_stencil_residual_gather(phi, r, 1.0, 3.0, float(d))
        assert np.array_equal(got, want)


def test_radial_band_matches_difference_jacobian():
    """The Newton band, the linear band plus p |phi|^(p-1) on its diagonal,
    equals a central-difference Jacobian of the stencil residual at the
    polished d=2 profile, and the Jacobian has no entry outside the band."""
    gs = ground_state_radial(ModelParams(1.0, 3.0, 2), 0.0, rmax=15.0, n=600)
    phi, r = gs.samples, gs.radial_mesh
    size, eps = len(phi) - 2, 1e-6
    band = _radial_linear_band(r, 1.0, 3.0, 2.0)
    band[2] += 3.0 * np.abs(phi[:size]) ** 2.0
    i, j = np.indices((size, size))
    near = np.abs(i - j) <= 2
    exact = np.zeros((size, size))
    exact[near] = band[(2 + i - j)[near], j[near]]
    diff = np.empty((size, size))
    for col in range(size):
        up, down = phi.copy(), phi.copy()
        up[col] += eps
        down[col] -= eps
        diff[:, col] = (
            _radial_stencil_residual(up, r, 1.0, 3.0, 2.0)
            - _radial_stencil_residual(down, r, 1.0, 3.0, 2.0)
        ) / (2 * eps)
    assert np.max(np.abs(exact - diff)) < 1e-8 * np.max(np.abs(exact))


# --- boosted profiles


def test_boost_v0_relation(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    w = sample_soliton(sp, 0.0, grid)
    assert np.max(np.abs(w.u2 - 1j * 0.8 * w.u1)) < 1e-14


def test_boost_v0_norm(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    w = sample_soliton(sp, 0.0, grid)
    assert norm_l2(w.u1, grid) ** 2 == pytest.approx(2.4, rel=1e-10)


@pytest.mark.parametrize("omega", [0.6, 0.8, 0.95])
@pytest.mark.parametrize("v", [-0.6, 0.4])
def test_sample_u2_matches_spectral_derivative(v, omega):
    """u2 from the closed-form gamma phi'(gamma y) = h phi(gamma y) equals
    the spectral derivative of the sampled profile on a grid that resolves
    it, also after the soliton has moved; u1 is the same array."""
    g = Grid(160.0, 2048)
    sp = SolitonParams(MODEL, omega=omega, theta=0.3, v=v, x0=5.3)
    for t in (0.0, 2.5):
        got, ref = sample_soliton(sp, t, g), sample_soliton_spectral(sp, t, g)
        assert np.array_equal(got.u1, ref.u1)
        assert np.max(np.abs(got.u2 - ref.u2)) <= 1e-12 * np.max(np.abs(ref.u2))


@pytest.mark.parametrize("omega, length, points", [(0.6, 80.0, 512), (0.8, 80.0, 512), (0.95, 160.0, 1024)])
def test_standing_sample_keeps_its_bits(omega, length, points):
    """At v = 0 the derivative enters u2 times zero, so the sample is the
    spectral-derivative one bit for bit (the spectrum report's input)."""
    g = Grid(length, points)
    for sp in (SolitonParams(MODEL, omega=omega), SolitonParams(MODEL, omega=omega, theta=0.7, x0=3 * g.spacing)):
        got, ref = sample_soliton(sp, 0.0, g), sample_soliton_spectral(sp, 0.0, g)
        for a, b in ((got.u1, ref.u1), (got.u2, ref.u2)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _decay_outcome(check):
    """("raise" | "warn" | "pass", messages) of one boundary-decay check."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check()
        except DomainTooSmallError as exc:
            return "raise", [str(exc)]
    messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    return ("warn" if messages else "pass"), messages


def _full_grid_decay_check(samples):
    """Reference: the boundary-decay check on the whole sampled profile,
    its peak the largest sample."""
    peak = float(np.max(np.abs(samples)))
    rel = float(max(abs(samples[0]), abs(samples[-1]))) / peak
    if rel > 1e-6:
        raise DomainTooSmallError(
            f"ground state: boundary value {rel:.2e} of peak; enlarge the domain "
            f"(heuristic: length >= 60/sqrt(m - omega^2) plus translation extent)"
        )
    if rel > 1e-10:
        warnings.warn(f"ground state: boundary value {rel:.2e} of peak exceeds 1e-10")


@pytest.mark.parametrize("points", [512, 511])
@pytest.mark.parametrize("length", [10.0, 40.0, 80.0])
@pytest.mark.parametrize("omega", [0.6, 0.8, 0.9, 0.95])
def test_sample_boundary_check_matches_full_grid(omega, length, points):
    """sample_soliton's check from the two ends and the grid point nearest 0
    decides as the check on the whole sampled profile does, with the same
    printed ratio; odd point counts have no grid point at 0."""
    g = Grid(length, points)
    three = _decay_outcome(lambda: sample_soliton(SolitonParams(MODEL, omega), 0.0, g))
    full = _decay_outcome(lambda: _full_grid_decay_check(phi_omega(g.x, MODEL, omega)))
    assert three == full


@pytest.mark.parametrize("points", [512, 511])
@pytest.mark.parametrize("length", [10.0, 40.0, 80.0])
@pytest.mark.parametrize("omega", [0.6, 0.8, 0.9, 0.95])
def test_ground_state_boundary_check_matches_full_grid(omega, length, points):
    """ground_state_1d checks its domain by the same three-point rule, and
    decides as the check on all its samples does."""
    g = Grid(length, points)
    three = _decay_outcome(lambda: ground_state_1d(MODEL, omega, g))
    full = _decay_outcome(lambda: _full_grid_decay_check(phi_omega(g.x, MODEL, omega)))
    assert three == full


def test_gamma_value():
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    assert sp.gamma == pytest.approx(1.0 / math.sqrt(1 - 0.16), rel=1e-15)
    assert sp.gamma == pytest.approx(1.091089, abs=1e-6)


def test_stability_window_flag():
    assert SolitonParams(MODEL, omega=0.8).stable
    assert not SolitonParams(MODEL, omega=0.6).stable
    # window threshold for p=3, d=1 is omega^2/m = 1/2
    assert MODEL.stability_threshold() == pytest.approx(0.5, rel=1e-15)


def test_speed_of_light_guard():
    with pytest.raises(ValueError):
        SolitonParams(MODEL, omega=0.8, v=1.0)


@pytest.mark.parametrize("key", ["theta", "x0"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_phase_or_position_rejected(key, value):
    with pytest.raises(ValueError, match=f"{key}={value} must be finite"):
        SolitonParams(MODEL, omega=0.8, **{key: value})


@pytest.mark.parametrize(
    "t, v, theta, x0", [(3.7, 0.4, 0.0, 0.0), (-12.5, -0.3, 1.1, 2.5), (0.3, 0.6, -2.9, -7.25)]
)
def test_sample_at_t_is_advanced_sample_at_zero(grid, t, v, theta, x0):
    """Sampling at time t is sampling the free-flow-advanced parameters at 0."""
    sp = SolitonParams(MODEL, omega=0.8, theta=theta, v=v, x0=x0)
    a = sample_soliton(sp, t, grid)
    b = sample_soliton(sp.advanced(t), 0.0, grid)
    assert np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2)


# (m, p, omega, v, edge): edge = -1 or 1 centres the soliton within one cell
# of an end of the box, where the sample wraps around
TANGENT_CASES = [
    (1.0, 3.0, 0.8, 0.0, 0),
    (1.0, 2.0, -0.7, 0.6, -1),
    (2.0, 4.0, 1.1, -0.6, 1),
    (0.5, 5.0, -0.5, 0.0, 1),
    (1.0, 5.0, 0.9, -0.6, -1),
    (1.5, 3.0, -1.0, 0.6, 0),
]


def _tangent_case(m, p, omega, v, edge):
    g = Grid(160.0, 2048)
    x0 = edge * (0.5 * g.length - 0.4 * g.spacing) if edge else 3.3
    return g, SolitonParams(ModelParams(m, p, 1), omega=omega, theta=0.7, v=v, x0=x0)


def _richardson(sample, step):
    """(4 D(step/2) - D(step)) / 3 of the centered differences D of ``sample(delta)``."""

    def difference(h):
        return (flat(sample(h)) - flat(sample(-h))) / (2.0 * h)

    return (4.0 * difference(0.5 * step) - difference(step)) / 3.0


@pytest.mark.parametrize("m, p, omega, v, edge", TANGENT_CASES)
def test_frequency_tangent_matches_richardson_difference(m, p, omega, v, edge):
    """The closed-form omega-tangent of a sample equals the Richardson
    extrapolation of centered omega-differences of whole samples to 1e-8
    relative, also where the sample wraps around.  The grid resolves every
    profile: at N = 1024 the narrowest (m = 2, p = 4) differs by 1.6e-6, the
    gap between the sample's spectral derivative and the exact one."""
    g, sp = _tangent_case(m, p, omega, v, edge)
    oracle = _richardson(lambda d: sample_soliton(replace(sp, omega=omega + d), 0.0, g), 1e-3)
    tangent = flat(soliton_tangents(sp, g)[1])
    assert np.max(np.abs(tangent - oracle)) <= 1e-8 * np.max(np.abs(oracle))


@pytest.mark.parametrize("m, p, omega, v, edge", TANGENT_CASES)
def test_translation_tangent_matches_richardson_difference(m, p, omega, v, edge):
    """The closed-form d/dx of a sample is minus the Richardson extrapolation
    of centered x0-differences of whole samples, to 1e-8 relative, also where
    the sample wraps around."""
    g, sp = _tangent_case(m, p, omega, v, edge)
    oracle = -_richardson(lambda d: sample_soliton(replace(sp, x0=sp.x0 + d), 0.0, g), 1e-3)
    tangent = flat(soliton_tangents(sp, g)[0])
    assert np.max(np.abs(tangent - oracle)) <= 1e-8 * np.max(np.abs(oracle))


@pytest.mark.parametrize("v", [-0.4, 0.0, 0.4])
def test_translation_tangent_matches_spectral_derivative(v):
    """On the acceptance grid (L = 160, N = 2048) the closed-form d/dx is the
    spectral derivative ``symmetry_directions(sample)[2]`` it replaces in the fit."""
    g = Grid(160.0, 2048)
    sp = SolitonParams(MODEL, omega=0.8, theta=0.3, v=v, x0=5 * g.spacing)
    sample = sample_soliton(sp, 0.0, g)
    spectral = flat(symmetry_directions(sample)[2])
    tangent = flat(soliton_tangents(sp, g)[0])
    assert np.max(np.abs(tangent - spectral)) <= 1e-12 * np.max(np.abs(spectral))


SENTINEL = 5.0 - 3.0j


def _sample_with_views(sp, t, g):
    """One ``sample_soliton`` call with views into a sentinel-filled array,
    its rows at [2:5] and its omega-tangent at [6]: the sample and the array."""
    big = np.full((9, 2 * g.points), SENTINEL)
    sample = sample_soliton(sp, t, g, big[2:5], big[6])
    return sample, big


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
@pytest.mark.parametrize("v", [-0.6, 0.0, 0.4])
def test_sampler_views_match_the_three_step_path(p, v):
    """With views, the sampler writes ``symmetry_rows`` of its sample with the
    closed-form R' and ``soliton_tangents``' dR/domega bit for bit, returns
    the sample it returns without views and writes nothing else; near the
    band edge, centred within h/3 of either end of the box (where the sample
    wraps around), and after the soliton has moved."""
    g = Grid(160.0, 512)
    edge = 0.5 * g.length - g.spacing / 3.0
    for x0 in (edge, -edge):
        sp = SolitonParams(ModelParams(1.0, p, 1), omega=0.95, theta=0.7, v=v, x0=x0)
        for t in (0.0, 1.7):
            sample, big = _sample_with_views(sp, t, g)
            plain = sample_soliton(sp, t, g)
            assert np.array_equal(sample.u1, plain.u1) and np.array_equal(sample.u2, plain.u2)
            dx, d_omega = soliton_tangents(sp.advanced(t), g)
            assert np.array_equal(big[2:5], symmetry_rows(plain, dx))
            assert np.array_equal(big[6], flat(d_omega).view(complex))
            assert np.all(big[[0, 1, 5, 7, 8]] == SENTINEL)


@pytest.mark.parametrize("omega", [0.6, 0.95])
@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
@pytest.mark.parametrize("v", [-0.6, 0.0, 0.4])
def test_sampler_matches_the_reference_sampler(v, p, omega):
    """The tabled boost phase and the tangents as u1 times a bracket agree with
    one exponential per point and the tangent formulas in terms of the sample
    (``oracles.sample_soliton_reference``) to 1e-14 relative in max-norm, for
    u1, u2, the three rows and dR/domega: centred within h/3 of either end of
    the box, where the sample wraps around, and at t = 1.7 and 250, where
    x0 + vt lies up to 230 away, past the next period.  At v = 0 the sample
    keeps its bits and the rows their values (an exact zero may change sign)."""
    for g in (Grid(160.0, 512), Grid(160.0, 2048)):
        edge = 0.5 * g.length - g.spacing / 3.0
        for x0 in (edge, -edge):
            sp = SolitonParams(ModelParams(1.0, p, 1), omega=omega, theta=0.7, v=v, x0=x0)
            for t in (0.0, 1.7, 250.0):
                got, want = np.empty((2, 4, 2 * g.points), complex)
                a = sample_soliton(sp, t, g, got[:3], got[3])
                b = sample_soliton_reference(sp, t, g, want[:3], want[3])
                pairs = [(a.u1, b.u1), (a.u2, b.u2), *zip(got, want)]
                for x, y in pairs:
                    assert np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))
                if v == 0.0:
                    assert all(np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in pairs[:2])
                    assert all(np.array_equal(x, y) for x, y in pairs[2:])


@pytest.mark.parametrize(
    "model, omega, g, error, match",
    [
        (ModelParams(1.0, 3.0, 2), 0.8, Grid(80.0, 512), ValueError, "d=1 dynamics"),
        (MODEL, 0.8, Grid(10.0, 256), DomainTooSmallError, "enlarge the domain"),
        (MODEL, 1.0, Grid(80.0, 512), FrequencyRangeError, "not below sqrt"),
    ],
)
def test_sampler_raises_before_writing_its_views(model, omega, g, error, match):
    """d = 2, a domain too small for the profile and |omega| >= sqrt(m) (set
    on a soliton built inside the band) raise before any row is written."""
    sp = SolitonParams(model, omega=0.8, v=0.4)
    sp.omega = omega
    big = np.full((9, 2 * g.points), SENTINEL)
    with pytest.raises(error, match=match):
        sample_soliton(sp, 0.0, g, big[2:5], big[6])
    assert np.all(big == SENTINEL)


def test_sampler_with_views_warns_once_for_its_caller():
    """On a marginal domain the sampler with views warns once about the
    boundary value, naming the file of its caller."""
    g = Grid(80.0, 1024)
    with pytest.warns(UserWarning, match="boundary value") as caught:
        _sample_with_views(SolitonParams(MODEL, omega=0.9, v=0.2), 0.0, g)
    assert len(caught) == 1 and caught[0].filename == __file__


def test_standing_wave_rotation(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    w0 = sample_soliton(sp, 0.0, grid)
    wt = sample_soliton(sp, 3.7, grid)
    assert np.max(np.abs(wt.u1 - np.exp(1j * 0.8 * 3.7) * w0.u1)) < 1e-12


def test_sampled_soliton_solves_discrete_flow(grid):
    """One short step of the discrete flow reproduces the exact soliton."""
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    dt = 0.002
    w = sample_soliton(sp, 0.0, grid)
    stepped = evolve(w, 0.0, 10 * dt, IntegratorConfig(dt=dt), MODEL)
    exact = sample_soliton(sp, 10 * dt, grid)
    assert norm_h1l2(stepped - exact) < 1e-6


def test_soliton_transport_long(grid):
    """Evolving the sampled soliton reproduces the sampled soliton later."""
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 0.0, grid)
    out = evolve(w, 0.0, 5.0, IntegratorConfig(dt=0.0025), MODEL)
    exact = sample_soliton(sp, 5.0, grid)
    assert norm_h1l2(out - exact) / norm_h1l2(exact) < 5e-5
