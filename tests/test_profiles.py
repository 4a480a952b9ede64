import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nlkglab import profiles
from nlkglab.grids import Grid, flat, norm_h1l2, norm_l2
from nlkglab.integrator import IntegratorConfig, evolve
from nlkglab.profiles import (
    DomainTooSmallError,
    FrequencyRangeError,
    ModelParams,
    ShootingError,
    SolitonParams,
    _radial_linear_band,
    _radial_stencil_residual,
    frequency_tangent,
    ground_state_1d,
    ground_state_radial,
    phi_omega,
    phi_tilde,
    profile_norms,
    sample_soliton,
)
from oracles import (
    pohozaev_ratio,
    standing_wave_energy,
    standing_wave_energy_scaling,
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


def test_domain_too_small():
    small = Grid(10.0, 128)
    with pytest.raises(DomainTooSmallError):
        ground_state_1d(MODEL, 0.8, small)


def test_domain_marginal_warns(grid):
    # boundary tail between 1e-10 and 1e-6 of the peak: warn, don't fail
    with pytest.warns(UserWarning, match="boundary value"):
        ground_state_1d(MODEL, 0.9, grid)


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


@pytest.mark.parametrize("points", [512, 511])
@pytest.mark.parametrize("length", [10.0, 40.0, 80.0])
@pytest.mark.parametrize("omega", [0.6, 0.8, 0.9, 0.95])
def test_sample_boundary_check_matches_full_grid(omega, length, points):
    """sample_soliton's check from the two ends and the grid point nearest 0
    decides as the check on the whole sampled profile does, with the same
    printed ratio; odd point counts have no grid point at 0."""
    g = Grid(length, points)
    three = _decay_outcome(lambda: sample_soliton(SolitonParams(MODEL, omega), 0.0, g))
    full = _decay_outcome(
        lambda: profiles._check_boundary_decay(phi_omega(g.x, MODEL, omega), "ground state")
    )
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


@pytest.mark.parametrize(
    "m, p, omega, v, edge",
    [
        (1.0, 3.0, 0.8, 0.0, 0),
        (1.0, 2.0, -0.7, 0.6, -1),
        (2.0, 4.0, 1.1, -0.6, 1),
        (0.5, 5.0, -0.5, 0.0, 1),
        (1.0, 5.0, 0.9, -0.6, -1),
        (1.5, 3.0, -1.0, 0.6, 0),
    ],
)
def test_frequency_tangent_matches_richardson_difference(m, p, omega, v, edge):
    """The closed-form omega-tangent of a sample equals the Richardson
    extrapolation of centered omega-differences of whole samples to 1e-8
    relative, also for a soliton centred within one cell of an end of the box
    (edge = -1 or 1), where the sample wraps around.  The grid resolves every
    profile: at N = 1024 the narrowest (m = 2, p = 4) differs by 1.6e-6, the
    gap between the sample's spectral derivative and the exact one."""
    g = Grid(160.0, 2048)
    x0 = edge * (0.5 * g.length - 0.4 * g.spacing) if edge else 3.3
    sp = SolitonParams(ModelParams(m, p, 1), omega=omega, theta=0.7, v=v, x0=x0)

    def difference(step):
        plus, minus = (sample_soliton(replace(sp, omega=omega + s), 0.0, g) for s in (step, -step))
        return (flat(plus) - flat(minus)) / (2.0 * step)

    oracle = (4.0 * difference(5e-4) - difference(1e-3)) / 3.0
    tangent = flat(frequency_tangent(sp, sample_soliton(sp, 0.0, g)))
    assert np.max(np.abs(tangent - oracle)) <= 1e-8 * np.max(np.abs(oracle))


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
