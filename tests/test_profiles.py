import math

import numpy as np
import pytest

from nlkglab.grids import Grid, norm_h1l2, norm_l2
from nlkglab.integrator import IntegratorConfig, evolve
from nlkglab.profiles import (
    DomainTooSmallError,
    FrequencyRangeError,
    ModelParams,
    SolitonParams,
    _radial_jacobian_band,
    _radial_stencil_residual,
    ground_state_1d,
    ground_state_radial,
    phi_omega,
    phi_tilde,
    pohozaev_ratio,
    profile_norms,
    sample_soliton,
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
    corrected = standing_wave_energy_scaling(MODEL, 0.8, corrected=True)
    assert e_quad / 4.0 == pytest.approx(corrected, rel=1e-8)
    uncorrected = standing_wave_energy_scaling(MODEL, 0.8, corrected=False)
    assert uncorrected == pytest.approx(0.492, abs=1e-3)
    assert abs(uncorrected - corrected) > 0.03


# --- radial shooting


def test_radial_d1_matches_closed_form():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 1), 0.0, rmax=20.0, n=4000)
    assert gs.samples[0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert gs.residual < 1e-8


def test_radial_d3_height_and_residual():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=15.0, n=3000)
    assert 4.0 < gs.samples[0] < 4.5
    # regression value from the converged solver
    assert gs.samples[0] == pytest.approx(4.337387, abs=2e-5)
    assert gs.residual < 1e-8


def test_radial_monotone_decreasing():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 3), 0.0, rmax=15.0, n=3000)
    assert np.all(np.diff(gs.samples) <= 1e-14)
    assert np.all(gs.samples >= 0)


def test_radial_d2():
    gs = ground_state_radial(ModelParams(1.0, 3.0, 2), 0.0, rmax=15.0, n=3000)
    # regression value from the converged solver
    assert gs.samples[0] == pytest.approx(2.206201, abs=2e-5)
    assert gs.residual < 1e-8
    assert np.all(np.diff(gs.samples) <= 1e-14)


def test_radial_nonzero_frequency_scaling():
    # phi_omega(0) = (m - omega^2)^(1/(p-1)) * phi_tilde-height in any d
    m3 = ModelParams(1.0, 3.0, 3)
    gs0 = ground_state_radial(m3, 0.0, rmax=15.0, n=3000)
    gs8 = ground_state_radial(m3, 0.8, rmax=25.0, n=5000)
    assert gs8.samples[0] == pytest.approx(0.6 * gs0.samples[0], rel=1e-6)


def test_radial_band_matches_difference_jacobian():
    """The Newton band equals a central-difference Jacobian of the stencil
    residual at the polished d=2 profile, and the Jacobian has no entry
    outside the band."""
    gs = ground_state_radial(ModelParams(1.0, 3.0, 2), 0.0, rmax=15.0, n=600)
    phi, r = gs.samples, gs.radial_mesh
    size, eps = len(phi) - 2, 1e-6
    band = _radial_jacobian_band(phi, r, 1.0, 3.0, 2.0)
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


@pytest.mark.parametrize(
    "t, v, theta, x0", [(3.7, 0.4, 0.0, 0.0), (-12.5, -0.3, 1.1, 2.5), (0.3, 0.6, -2.9, -7.25)]
)
def test_sample_at_t_is_advanced_sample_at_zero(grid, t, v, theta, x0):
    """Sampling at time t is sampling the free-flow-advanced parameters at 0."""
    sp = SolitonParams(MODEL, omega=0.8, theta=theta, v=v, x0=x0)
    a = sample_soliton(sp, t, grid)
    b = sample_soliton(sp.advanced(t), 0.0, grid)
    assert np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2)


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
