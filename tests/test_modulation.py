import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nlkglab.experiments import MultiSolitonConfig, random_bump, soliton_sum
from nlkglab.grids import Field, Grid, norm_h1l2, symmetry_directions
from nlkglab.integrator import IntegratorConfig, evolve
from nlkglab import experiments, modulation
from nlkglab.modulation import (
    NotInTubeError,
    _apply,
    _jacobian,
    _ortho_vector,
    fit_modulation,
    track_parameters,
)
from nlkglab.profiles import ModelParams, SolitonParams, frequency_tangent, sample_soliton
from nlkglab.spectrum import _frequency_derivative
from oracles import pair_inner

MODEL = ModelParams(1.0, 3.0, 1)


@pytest.fixture(scope="module")
def grid():
    return Grid(160.0, 1024)


@pytest.fixture(scope="module")
def pair():
    return (
        SolitonParams(MODEL, omega=0.8, theta=0.2, v=-0.4, x0=-8.0),
        SolitonParams(MODEL, omega=0.78, theta=-0.4, v=0.4, x0=9.0),
    )


def test_planted_recovery(grid, pair):
    u = soliton_sum(pair, 0.0, grid)
    seeds = [replace(sp, theta=sp.theta + 0.05, omega=sp.omega - 0.01, x0=sp.x0 + 0.1) for sp in pair]
    st = fit_modulation(u, seeds)
    assert st.converged
    assert np.max(np.abs(st.thetas - [sp.theta for sp in pair])) < 1e-8
    assert np.max(np.abs(st.omegas - [sp.omega for sp in pair])) < 1e-8
    assert np.max(np.abs(st.positions - [sp.x0 for sp in pair])) < 1e-8
    assert st.residual_norm < 1e-8


def _fd_jacobian(u, params, step=1e-6):
    """Oracle: centered difference of the residual map over all 3N parameters."""
    vec = np.array([(sp.theta, sp.omega, sp.x0) for sp in params]).ravel()
    cols = []
    for col in range(len(vec)):
        vp, vm = vec.copy(), vec.copy()
        vp[col] += step
        vm[col] -= step
        fp = _ortho_vector(u, _apply(params, vp))[0]
        fm = _ortho_vector(u, _apply(params, vm))[0]
        cols.append((fp - fm) / (2.0 * step))
    return np.column_stack(cols)


def _jacobian_case(grid, n, eps):
    """A field near n solitons (off the root when eps > 0) and the
    parameters, off the planted ones, at which its Jacobian is taken."""
    sols = [
        SolitonParams(MODEL, omega=0.8, theta=0.2, v=-0.4, x0=-25.0),
        SolitonParams(MODEL, omega=0.78, theta=-0.4, v=0.4, x0=25.0),
        SolitonParams(MODEL, omega=0.82, theta=1.1, v=0.1, x0=0.0),
    ][:n]
    u = soliton_sum(sols, 0.0, grid) + eps * random_bump(grid, 5)
    at = [replace(sp, theta=sp.theta + 0.05, omega=sp.omega - 0.01, x0=sp.x0 + 0.1) for sp in sols]
    return u, at


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("n", [2, 3])
def test_jacobian_matches_finite_difference(grid, n, eps):
    """The Jacobian from the symmetry directions and the closed-form omega-tangent
    agrees with a centered difference of the residual map, off the root so
    that the residue term counts too."""
    u, at = _jacobian_case(grid, n, eps)
    _, ups, dirs, comps = _ortho_vector(u, at)
    jac = _jacobian(ups, dirs, comps, at)
    oracle = _fd_jacobian(u, at)
    assert np.max(np.abs(jac - oracle)) < 1e-6 * np.max(np.abs(oracle))


def _per_tangent_jacobian(ups, params):
    """Reference path: J[(i,k),(j,a)] = -<T_{j,a}, D_k R_i> + delta_ij
    <Upsilon, D_k T_{j,a}>, one pair_inner per entry, with the symmetry
    maps applied to every tangent."""
    g = ups.grid
    dirs = [symmetry_directions(sample_soliton(sp, 0.0, g)) for sp in params]
    jac = np.empty((3 * len(params), 3 * len(params)))
    for j, sp in enumerate(params):
        d_omega = frequency_tangent(sp, sample_soliton(sp, 0.0, g))
        for a, tangent in enumerate((dirs[j][0], d_omega, -1.0 * dirs[j][2])):
            col = np.array([-pair_inner(tangent, d) for dl in dirs for d in dl])
            col[3 * j : 3 * j + 3] += [pair_inner(ups, d) for d in symmetry_directions(tangent)]
            jac[:, 3 * j + a] = col
    return jac


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("n", [2, 3])
def test_jacobian_matches_per_tangent_reference(grid, n, eps):
    """The stacked Gram with the residue term taken by adjoints is the
    per-entry formula to rounding."""
    u, at = _jacobian_case(grid, n, eps)
    _, ups, dirs, comps = _ortho_vector(u, at)
    jac = _jacobian(ups, dirs, comps, at)
    ref = _per_tangent_jacobian(ups, at)
    assert np.max(np.abs(jac - ref)) <= 1e-12 * np.max(np.abs(ref))


def _difference_tangent(sp, comp):
    """Oracle: the omega-tangent as the centered omega-difference of two more
    samples of the soliton."""
    return _frequency_derivative(
        lambda om: sample_soliton(replace(sp, omega=om), 0.0, comp.grid), sp.omega
    )


def test_fits_match_the_omega_difference_reference(monkeypatch):
    """Every fit of a 21-hook backward pair run takes the iteration count and
    lands on the roots (to 1e-12) of the same fit with the omega-difference
    tangent."""
    g = Grid(160.0, 1024)
    sols = [SolitonParams(MODEL, omega=0.8, v=v, theta=0.3, x0=5 * g.spacing) for v in (-0.4, 0.4)]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=g, solitons=sols, t_final=11.0, t_start=10.0, dt=0.002, diag_period=0.05
    )
    fits = []
    real = experiments.fit_modulation

    def both(field, seeds):
        st = real(field, seeds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modulation, "frequency_tangent", _difference_tangent)
            fits.append((st, real(field, seeds)))
        return st

    monkeypatch.setattr(experiments, "fit_modulation", both)
    rep = experiments.run_backward_construction(cfg)
    assert rep.tube_exit_time is None and len(fits) == 21
    for st, ref in fits:
        assert st.converged and st.iterations == ref.iterations
        for name in ("thetas", "omegas", "positions"):
            assert np.max(np.abs(getattr(st, name) - getattr(ref, name))) <= 1e-12


def test_fit_samples_each_soliton_once_per_iterate(grid, pair, monkeypatch):
    """Each iterate samples every soliton once, for the residual, and takes
    its omega-tangent from that sample; an accepted Newton step's sample is
    the next iterate's residual sample, so nothing is sampled twice."""
    calls = []
    real = modulation.sample_soliton

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(modulation, "sample_soliton", counted)
    u = soliton_sum(pair, 0.0, grid)
    seeds = [replace(sp, theta=sp.theta + 0.05, omega=sp.omega - 0.01, x0=sp.x0 + 0.1) for sp in pair]
    st = fit_modulation(u, seeds)
    n, it = len(pair), st.iterations
    assert st.converged and it >= 2
    assert len(calls) == n * (it + 1)


def test_fit_warnings_are_those_of_its_samples():
    """On a marginal domain every sample warns about its boundary value, and
    the fit issues exactly one warning per sample, N(it + 1), from the
    modulation module: an accepted trial's warnings are issued once, when it
    becomes the iterate."""
    g = Grid(80.0, 1024)
    sp = SolitonParams(MODEL, omega=0.9, v=0.2)
    seeds = [replace(sp, theta=0.05, omega=0.89, x0=0.1)]
    with pytest.warns(UserWarning, match="boundary value"):
        u = sample_soliton(sp, 0.0, g)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        st = fit_modulation(u, seeds)
    user = [w for w in caught if issubclass(w.category, UserWarning)]
    assert st.converged and st.iterations == 4
    assert len(user) == st.iterations + 1
    assert all("boundary value" in str(w.message) for w in user)
    assert {w.filename for w in user} == {modulation.__file__}


def test_orthogonality_residuals(grid, pair):
    u = soliton_sum(pair, 0.0, grid) + 0.01 * random_bump(grid, 4)
    st = fit_modulation(u, list(pair))
    assert np.max(np.abs(st.ortho_residuals)) < 1e-10 * norm_h1l2(u)
    assert st.residual_norm < 0.05  # bounded by a modest multiple of the bump size


def test_planted_phase_offset(grid, pair):
    """A pure phase shift on one soliton is recovered exactly; the other
    soliton's parameters move only at the interaction-tail level."""
    shifted = [replace(pair[0], theta=pair[0].theta + 0.05), pair[1]]
    u = soliton_sum(shifted, 0.0, grid)
    st = fit_modulation(u, list(pair))
    assert st.thetas[0] == pytest.approx(pair[0].theta + 0.05, abs=1e-8)
    assert st.thetas[1] == pytest.approx(pair[1].theta, abs=1e-8)
    assert st.omegas[1] == pytest.approx(pair[1].omega, abs=1e-8)


def test_gauge_phase(grid, pair):
    """Fitting e^{i alpha} U from the alpha-shifted seed lands on the
    alpha-shifted parameters, exactly."""
    u = soliton_sum(pair, 0.0, grid) + 0.004 * random_bump(grid, 13)
    alpha = 0.3
    st0 = fit_modulation(u, list(pair))
    shifted_seeds = [replace(sp, theta=sp.theta + alpha) for sp in pair]
    st1 = fit_modulation(
        Field(np.exp(1j * alpha) * u.u1, np.exp(1j * alpha) * u.u2, grid),
        shifted_seeds,
    )
    assert np.max(np.abs(st1.thetas - st0.thetas - alpha)) < 1e-12
    assert np.max(np.abs(st1.omegas - st0.omegas)) < 1e-12
    assert np.max(np.abs(st1.positions - st0.positions)) < 1e-12


def test_gauge_translation(grid, pair):
    u = soliton_sum(pair, 0.0, grid) + 0.004 * random_bump(grid, 14)
    shift_cells = 16
    a = shift_cells * grid.spacing
    moved = Field(np.roll(u.u1, shift_cells), np.roll(u.u2, shift_cells), grid)
    st0 = fit_modulation(u, list(pair))
    shifted_seeds = [replace(sp, x0=sp.x0 + a) for sp in pair]
    st1 = fit_modulation(moved, shifted_seeds)
    assert np.max(np.abs(st1.positions - st0.positions - a)) < 1e-12
    assert np.max(np.abs(st1.thetas - st0.thetas)) < 1e-12


def test_idempotence(grid, pair):
    u = soliton_sum(pair, 0.0, grid) + 0.005 * random_bump(grid, 8)
    st = fit_modulation(u, list(pair))
    st2 = fit_modulation(u, st.solitons)
    assert np.max(np.abs(st2.thetas - st.thetas)) < 1e-12
    assert np.max(np.abs(st2.omegas - st.omegas)) < 1e-12
    assert np.max(np.abs(st2.positions - st.positions)) < 1e-12


def test_locality_of_perturbation(grid, pair):
    """A bump near soliton 0 barely moves soliton 1's parameters."""
    u = soliton_sum(pair, 0.0, grid)
    bump = np.exp(-((grid.x - pair[0].x0) ** 2)) * 0.01
    up = Field(u.u1 + bump, u.u2, grid)
    st = fit_modulation(up, list(pair))
    # soliton 1 sits 17 units away; the tail scale there is ~ e^{-0.6*17}
    assert abs(st.omegas[1] - pair[1].omega) < 1e-4
    assert abs(st.positions[1] - pair[1].x0) < 1e-4


@pytest.mark.filterwarnings("ignore::UserWarning")  # wandering iterates hit tails
def test_divergence_raises(grid, pair):
    rng = np.random.default_rng(0)
    junk = Field(
        rng.standard_normal(grid.points) * 5.0 + 0j,
        rng.standard_normal(grid.points) * 5.0 + 0j,
        grid,
    )
    with pytest.raises(NotInTubeError):
        fit_modulation(junk, list(pair))


def test_track_exact_soliton(grid):
    """On an exact soliton trajectory the fitted laws are the free laws."""
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    snaps = [(t, sample_soliton(sp, t, grid)) for t in np.arange(0.0, 2.01, 0.25)]
    rep = track_parameters(snaps, [replace(sp, theta=0.0, x0=0.0)])
    assert np.max(np.abs(rep.theta_rate_error)) < 1e-9
    assert np.max(np.abs(rep.omega_rate)) < 1e-9
    assert np.max(np.abs(rep.position_rate_error)) < 1e-9
    assert np.max(rep.residual_norms) < 1e-10


def test_track_two_soliton_separation(grid):
    s1 = SolitonParams(MODEL, omega=0.8, v=-0.4)
    s2 = SolitonParams(MODEL, omega=0.8, v=0.4)
    snaps = [(t, soliton_sum([s1, s2], t, grid)) for t in np.arange(10.0, 14.01, 0.5)]
    seeds = [
        replace(s1, theta=s1.omega / s1.gamma * 10.0, x0=-4.0),
        replace(s2, theta=s2.omega / s2.gamma * 10.0, x0=4.0),
    ]
    rep = track_parameters(snaps, seeds)
    gaps = [st.positions[1] - st.positions[0] for st in rep.states]
    rate = (gaps[-1] - gaps[0]) / (rep.times[-1] - rep.times[0])
    assert rate == pytest.approx(0.8, rel=0.02)


def test_perturbed_rates_scale(grid):
    """Frequency drift is quadratic in the perturbation size, phase drift linear."""
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    base = sample_soliton(sp, 0.0, grid)
    bump = random_bump(grid, 21)
    cfg = IntegratorConfig(dt=0.0025)
    rates = {}
    for eps in (1e-2, 1e-3):
        w = base + eps * bump
        snaps = [(0.0, w)]
        cur = w
        for i in range(8):
            cur = evolve(cur, i * 0.25, (i + 1) * 0.25, cfg, MODEL)
            snaps.append(((i + 1) * 0.25, cur))
        rep = track_parameters(snaps, [sp])
        rates[eps] = (np.max(np.abs(rep.omega_rate)), np.max(np.abs(rep.theta_rate_error)))
    om_slope = math.log(rates[1e-2][0] / rates[1e-3][0]) / math.log(10.0)
    th_slope = math.log(rates[1e-2][1] / rates[1e-3][1]) / math.log(10.0)
    assert om_slope == pytest.approx(2.0, abs=0.2)
    assert th_slope == pytest.approx(1.0, abs=0.2)
