import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nlkglab.experiments import MultiSolitonConfig, random_bump, run_forward_stability, soliton_sum
from nlkglab.grids import Field, Grid, flat, norm_h1l2
from nlkglab import experiments, modulation
from nlkglab.modulation import (
    DegenerateConfigurationError,
    NotInTubeError,
    _apply,
    _jacobian,
    _ortho_vector,
    fit_modulation,
)
from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton
from nlkglab.functionals import ActionParams
from nlkglab.spectrum import _frequency_derivative, assemble_second_variation, slope_test
from oracles import (
    pair_inner,
    sample_soliton_spectral,
    sampler_with_views,
    soliton_tangents,
    symmetry_directions,
)

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
        fp = _sampled(u, _apply(params, vp))[0]
        fm = _sampled(u, _apply(params, vm))[0]
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


def _u_rows(u):
    """The three symmetry directions of U as the real rows the fit writes once."""
    return np.stack([flat(d) for d in symmetry_directions(u)])


def _sampled(u, params):
    """``_ortho_vector`` into a fresh row buffer: residuals, residue, rows."""
    return _ortho_vector(u, params, np.empty((4 * len(params), 2 * u.grid.points), complex))


def _jacobian_of(u, rows):
    """``_jacobian`` at the rows of ``_sampled``, with a fresh scratch."""
    return _jacobian(_u_rows(u), rows, u.grid.spacing, np.empty((3, 4 * u.grid.points)))


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("n", [2, 3])
def test_jacobian_matches_finite_difference(grid, n, eps):
    """The Jacobian from the closed-form symmetry directions and omega-tangent
    agrees with a centered difference of the residual map, off the root so
    that the residue term counts too."""
    u, at = _jacobian_case(grid, n, eps)
    jac = _jacobian_of(u, _sampled(u, at)[2])
    oracle = _fd_jacobian(u, at)
    assert np.max(np.abs(jac - oracle)) < 1e-6 * np.max(np.abs(oracle))


def _per_tangent_jacobian(ups, params):
    """Reference path: J[(i,k),(j,a)] = -<T_{j,a}, D_k R_i> + delta_ij
    <Upsilon, D_k T_{j,a}>, one pair_inner per entry, with the symmetry
    maps applied to every tangent.  D_k R_i are i R_i, i J R_i and the
    closed-form R_i' the fit pairs with."""
    g = ups.grid
    dirs, d_omegas = [], []
    for sp in params:
        sample = sample_soliton(sp, 0.0, g)
        dx, d_omega = soliton_tangents(sp, g)
        dirs.append((*symmetry_directions(sample)[:2], dx))
        d_omegas.append(d_omega)
    jac = np.empty((3 * len(params), 3 * len(params)))
    for j, d_omega in enumerate(d_omegas):
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
    _, ups, rows = _sampled(u, at)
    jac = _jacobian_of(u, rows)
    ref = _per_tangent_jacobian(ups, at)
    assert np.max(np.abs(jac - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("v", [0.0, 0.4])
def test_omega_entry_of_the_jacobian_is_gamma_times_the_slope(grid, v):
    """At a planted single soliton the omega-omega entry of ``_jacobian`` is
    gamma times ``spectrum.slope_test``'s value, so it changes sign across
    omega_c = 1/sqrt(2): the fit's omega-equation folds there, which lets
    Newton reach a second root on the other side.  The slope is a centered
    omega-difference, good to about 5.5e-7 relative; the entry does not
    depend on v, while the slope carries 1/gamma."""
    omega_c = math.sqrt(MODEL.m * MODEL.stability_threshold())
    entries = {}
    for om in (0.6, 0.65, 0.75, 0.8):
        sp = SolitonParams(MODEL, omega=om, v=v)
        u = sample_soliton(sp, 0.0, grid)
        entries[om] = _jacobian_of(u, _sampled(u, [sp])[2])[1, 1]
        ap = ActionParams.from_soliton(sp)

        def family(w, sp=sp):
            return sample_soliton(replace(sp, omega=w), 0.0, grid)

        slope = slope_test(family, ap, om, op=assemble_second_variation(u, ap))
        assert entries[om] == pytest.approx(sp.gamma * slope, rel=1e-5)
    assert all(entry > 0 for om, entry in entries.items() if om < omega_c)
    assert all(entry < 0 for om, entry in entries.items() if om > omega_c)


def _omega_difference(sp, comp):
    """Oracle: the centered omega-difference of two more samples, the path
    the closed-form dR_j/domega replaces."""
    return _frequency_derivative(
        lambda om: sample_soliton(replace(sp, omega=om), 0.0, comp.grid), sp.omega
    )


def _fits_beside_reference(cfg, monkeypatch, reference):
    """Every fit of the backward run of ``cfg`` beside the same fit with
    ``reference`` (an ``oracles.sampler_with_views``) as the fit's sampler,
    with the number of samples the reference wrote views for in that fit."""
    fits = []
    real = experiments.fit_modulation

    def both(field, seeds):
        st = real(field, seeds)
        before = len(reference.calls)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modulation, "sample_soliton", reference)
            ref = real(field, seeds)
        fits.append((st, ref, len(reference.calls) - before))
        return st

    monkeypatch.setattr(experiments, "fit_modulation", both)
    rep = experiments.run_backward_construction(cfg)
    assert rep.tube_exit_time is None
    return fits


def test_fits_match_the_omega_difference_reference(monkeypatch):
    """Every fit of a 21-hook backward pair run takes the iteration count and
    lands on the roots (to 1e-12) of the same fit with the reference tangents:
    the spectral R_j' and the omega-difference dR_j/domega, which the
    reference sampler writes for every soliton of every iterate, N(it + 1)
    times per fit."""
    g = Grid(160.0, 1024)
    sols = [SolitonParams(MODEL, omega=0.8, v=v, theta=0.3, x0=5 * g.spacing) for v in (-0.4, 0.4)]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=g, solitons=sols, t_final=11.0, t_start=10.0, dt=0.002, diag_period=0.05
    )
    fits = _fits_beside_reference(cfg, monkeypatch, sampler_with_views(sample_soliton, _omega_difference))
    assert len(fits) == 21
    for st, ref, samples in fits:
        assert st.converged and st.iterations == ref.iterations
        assert samples == len(sols) * (ref.iterations + 1)
        for name in ("thetas", "omegas", "positions"):
            assert np.max(np.abs(getattr(st, name) - getattr(ref, name))) <= 1e-12


def test_fit_samples_each_soliton_once_per_iterate(grid, pair, monkeypatch):
    """Each iterate samples every soliton once, and that sample writes the
    iterate's symmetry rows and omega-tangent in the same pass; an accepted
    Newton step's sample is the next iterate's, so nothing is sampled twice."""
    calls = []
    real = modulation.sample_soliton
    signature = inspect.signature(real)

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        calls.append(bound.get("rows") is not None and bound.get("d_omega") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(modulation, "sample_soliton", counted)
    u = soliton_sum(pair, 0.0, grid)
    seeds = [replace(sp, theta=sp.theta + 0.05, omega=sp.omega - 0.01, x0=sp.x0 + 0.1) for sp in pair]
    st = fit_modulation(u, seeds)
    n, it = len(pair), st.iterations
    assert st.converged and it >= 2
    assert len(calls) == n * (it + 1) and all(calls)


def _address(a):
    return a.__array_interface__["data"][0]


def test_fit_writes_only_into_its_two_row_buffers(grid, pair, monkeypatch):
    """A fit of at least 3 iterates hands ``_ortho_vector`` one of two row
    buffers, taking turns as every trial is accepted, and each of its samples
    writes its views into the buffer of its own call."""
    buffers, inside = [], []
    real_ortho, real_sample = modulation._ortho_vector, modulation.sample_soliton

    def ortho(u, params, rows):
        buffers.append(rows)
        return real_ortho(u, params, rows)

    def sample(sp, t, g, rows, d_omega):
        inside.append(np.shares_memory(rows, buffers[-1]) and np.shares_memory(d_omega, buffers[-1]))
        return real_sample(sp, t, g, rows, d_omega)

    monkeypatch.setattr(modulation, "_ortho_vector", ortho)
    monkeypatch.setattr(modulation, "sample_soliton", sample)
    seeds = [replace(sp, theta=sp.theta + 0.05, omega=sp.omega - 0.01, x0=sp.x0 + 0.1) for sp in pair]
    st = fit_modulation(soliton_sum(pair, 0.0, grid), seeds)
    assert st.converged and st.iterations >= 3 and len(buffers) == st.iterations + 1
    addresses = [_address(b) for b in buffers]
    assert len(set(addresses)) == 2
    assert all(a != b for a, b in zip(addresses, addresses[1:]))
    assert len(inside) == len(pair) * len(buffers) and all(inside)


def _fit_bits(st):
    """A fit's parameters, residuals, condition number and residue as float.hex."""
    values = [*st.thetas, *st.omegas, *st.positions, *st.ortho_residuals, st.condition_number]
    residue = np.concatenate((st.residual.u1, st.residual.u2)).view(float)
    return [st.iterations, [float(x).hex() for x in values], [float(x).hex() for x in residue]]


def test_backtracking_halves_the_step_and_keeps_the_iterate(grid, pair, monkeypatch):
    """From seeds 0.06 below both frequencies a full Newton step raises the
    largest residual and is halved: a spy on ``_ortho_vector`` replays the
    acceptance rule over every sample of the fit and counts the halvings.
    The fit still lands on the planted parameters to 1e-10.  No trial writes
    into the buffer that holds the iterate's rows, and the fit is the same,
    as float.hex, as one that samples every trial into a fresh buffer."""
    u = soliton_sum(pair, 0.0, grid)
    seeds = [replace(sp, omega=sp.omega - 0.06) for sp in pair]
    real = modulation._ortho_vector
    calls = []

    def spy(u, params, rows):
        out = real(u, params, rows)
        calls.append((_address(rows), np.max(np.abs(out[0]))))
        return out

    monkeypatch.setattr(modulation, "_ortho_vector", spy)
    st = fit_modulation(u, seeds)
    (iterate, norm), halvings = calls[0], 0
    for buffer, residual in calls[1:]:
        assert buffer != iterate
        if residual < norm:
            iterate, norm = buffer, residual
        else:
            halvings += 1
    assert st.converged and halvings >= 1 and len(calls) == 1 + st.iterations + halvings
    assert _recovery_error(st, pair) < 1e-10
    monkeypatch.setattr(modulation, "_ortho_vector", lambda u, params, rows: real(u, params, np.empty_like(rows)))
    assert _fit_bits(fit_modulation(u, seeds)) == _fit_bits(st)


def _counted(calls, fn):
    def call(*args, **kwargs):
        calls.append(fn)
        return fn(*args, **kwargs)

    return call


def test_fit_takes_no_fft_per_iterate(grid, pair, monkeypatch):
    """A fit takes U' (both components, four FFTs) once, and then no FFT:
    the samples write u2 in closed form and Upsilon' is U' - sum_j R_j'.
    So fits of 0, 5 and 6 iterations take the same four FFTs (each fit gets
    a fresh copy of U, whose u1' no earlier fit has taken)."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, _counted(calls, getattr(np.fft, name)))
    u = soliton_sum(pair, 0.0, grid)
    iterations = set()
    for k in (0.0, 1.0, 4.0):
        seeds = [replace(sp, theta=sp.theta + 0.05 * k, omega=sp.omega - 0.01 * k, x0=sp.x0 + 0.1 * k) for sp in pair]
        calls.clear()
        st = fit_modulation(u.copy(), seeds)
        assert st.converged and len(calls) == 4
        iterations.add(st.iterations)
    assert len(iterations) == 3


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("n", [2, 3])
def test_residue_directions_match_spectral(grid, n, eps):
    """The Jacobian's residue rows D_k U - sum_j D_k R_j, with the closed-form
    R_j', are the spectral symmetry directions of Upsilon: i Upsilon and
    i J Upsilon to 1e-15 absolute, Upsilon' to 1e-11 relative."""
    u, at = _jacobian_case(grid, n, eps)
    _, ups, rows = _sampled(u, at)
    got = _u_rows(u) - rows[: 3 * n].view(float).reshape(n, 3, -1).sum(axis=0)
    want = _u_rows(ups)
    assert np.max(np.abs(got[:2] - want[:2])) <= 1e-15
    assert np.max(np.abs(got[2] - want[2])) <= 1e-11 * np.max(np.abs(want[2]))


def _closed_omega_tangent(sp, comp):
    """The closed-form dR_j/domega on the spectral sample's grid."""
    return soliton_tangents(sp, comp.grid)[1]


def test_dense_hook_fits_match_the_spectral_path(monkeypatch):
    """Every fit of the dense-hook pair run (N = 2048, t = 11 -> 10, a hook
    every 0.05) takes the iteration count, 22 over the 21 fits, and lands on
    the roots (to 1e-13) of the same fit with spectral derivatives: in the
    samples' u2 and in R_j', so Upsilon' is spectral by linearity.  The
    reference sampler writes them for every soliton of every iterate,
    N(it + 1) times per fit."""
    g = Grid(160.0, 2048)
    sols = [SolitonParams(MODEL, omega=0.8, v=v) for v in (-0.4, 0.4)]
    cfg = MultiSolitonConfig(
        model=MODEL, grid=g, solitons=sols, t_final=11.0, t_start=10.0, dt=0.002, diag_period=0.05
    )
    reference = sampler_with_views(sample_soliton_spectral, _closed_omega_tangent)
    fits = _fits_beside_reference(cfg, monkeypatch, reference)
    assert len(fits) == 21
    assert sum(st.iterations for st, _, _ in fits) == 22
    for st, ref, samples in fits:
        assert st.converged and st.iterations == ref.iterations
        assert samples == len(sols) * (ref.iterations + 1)
        for name in ("thetas", "omegas", "positions"):
            assert np.max(np.abs(getattr(st, name) - getattr(ref, name))) <= 1e-13


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


def test_iteration_cap_is_not_in_tube(grid, pair, monkeypatch):
    """A fit that needs more Newton iterations than MAX_NEWTON_ITER allows raises
    NotInTubeError naming the cap: these seeds converge in two, the cap is one."""
    u = soliton_sum(pair, 0.0, grid)
    seeds = [replace(sp, theta=sp.theta + 1e-4, omega=sp.omega - 1e-4, x0=sp.x0 + 1e-4) for sp in pair]
    assert fit_modulation(u, seeds).iterations == 2
    monkeypatch.setattr(modulation, "MAX_NEWTON_ITER", 1)
    with pytest.raises(NotInTubeError, match=r"did not converge in 1 iterations \(last residual"):
        fit_modulation(u, seeds)


def test_zero_field_is_not_in_tube(grid, pair):
    with pytest.raises(NotInTubeError, match="zero field"):
        fit_modulation(Field.zeros(grid), list(pair))


def test_seed_outside_the_domain_is_not_in_tube():
    """A seed whose profile the grid cannot hold is not in the tube, and the
    message names its boundary value: 1.04e-1 of the peak at length 10."""
    g = Grid(10.0, 128)
    bump = Field(np.exp(-g.x**2) + 0j, np.zeros(g.points, complex), g)
    with pytest.raises(NotInTubeError, match=r"boundary value 1\.04e-01 of peak"):
        fit_modulation(bump, [SolitonParams(MODEL, omega=0.8)])


def test_near_coincident_pair_is_degenerate():
    """Two solitons at one place with velocities +-1e-5 have nearly the same
    symmetry directions: the Jacobian's condition number (5.8e10) is refused.
    At +-1e-3 it is 5.8e6 and the fit converges."""
    g = Grid(80.0, 1024)

    def pair(v):
        return [SolitonParams(MODEL, omega=0.8, v=-v), SolitonParams(MODEL, omega=0.8, v=v)]

    with pytest.raises(DegenerateConfigurationError, match=r"5\.765e\+10"):
        fit_modulation(soliton_sum(pair(1e-5), 0.0, g), pair(1e-5))
    st = fit_modulation(soliton_sum(pair(1e-3), 0.0, g), pair(1e-3))
    assert st.converged and st.condition_number == pytest.approx(5.7655e6, rel=1e-4)


def test_zero_jacobian_is_degenerate_without_warning(monkeypatch):
    """An all-zero Jacobian has condition number 0/0: it is refused as
    degenerate, and the division warns nothing."""
    g = Grid(80.0, 512)
    sp = [SolitonParams(MODEL, omega=0.8)]
    monkeypatch.setattr(modulation, "_jacobian", lambda u_rows, dirs, *args: np.zeros((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateConfigurationError, match=r"condition number nan"):
            fit_modulation(soliton_sum(sp, 0.0, g), sp)


def _offset(sp):
    """A seed off the soliton in all three fitted parameters."""
    return replace(sp, theta=sp.theta + 0.04, omega=sp.omega - 0.01, x0=sp.x0 + 0.05)


def _recovery_error(st, exact) -> float:
    """Largest gap between the fitted and the exact theta, omega and x0."""
    return max(
        float(np.max(np.abs(st.thetas - [sp.theta for sp in exact]))),
        float(np.max(np.abs(st.omegas - [sp.omega for sp in exact]))),
        float(np.max(np.abs(st.positions - [sp.x0 for sp in exact]))),
    )


def test_track_exact_soliton(grid):
    """Along an exact soliton trajectory every fit recovers the free laws'
    parameters, theta + t omega/gamma, omega and x0 + t v, with no residue."""
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    for t in np.arange(0.0, 2.01, 0.25):
        exact = sp.advanced(t)
        st = fit_modulation(sample_soliton(sp, t, grid), [_offset(exact)])
        assert _recovery_error(st, [exact]) < 1e-9
        assert st.residual_norm < 1e-10


def test_track_two_soliton_separation(grid):
    """Every fit of a separating pair recovers both solitons' free-law
    parameters, and the fitted gap grows at the relative speed 0.8."""
    pair = [SolitonParams(MODEL, omega=0.8, v=-0.4), SolitonParams(MODEL, omega=0.8, v=0.4)]
    times = np.arange(10.0, 14.01, 0.5)
    gaps = []
    for t in times:
        exact = [sp.advanced(t) for sp in pair]
        st = fit_modulation(soliton_sum(pair, t, grid), [_offset(sp) for sp in exact])
        assert _recovery_error(st, exact) < 1e-9
        gaps.append(st.positions[1] - st.positions[0])
    rate = (gaps[-1] - gaps[0]) / (times[-1] - times[0])
    assert rate == pytest.approx(0.8, rel=0.02)


def test_perturbed_rates_scale(grid):
    """Frequency drift is quadratic in the perturbation size, phase drift linear:
    the modulation laws of forward runs from the soliton plus eps times one bump."""
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    cfg = MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=[sp],
        t_final=2.0, t_start=0.0, dt=0.0025, diag_period=0.25,
    )
    rates = {}
    for eps in (1e-2, 1e-3):
        rep = run_forward_stability(cfg, eps, seed=21)
        assert rep.tube_exit_time is None
        theta_rate_error, omega_rate, _ = rep.modulation_rates()
        rates[eps] = (np.max(np.abs(omega_rate)), np.max(np.abs(theta_rate_error)))
    om_slope = math.log(rates[1e-2][0] / rates[1e-3][0]) / math.log(10.0)
    th_slope = math.log(rates[1e-2][1] / rates[1e-3][1]) / math.log(10.0)
    assert om_slope == pytest.approx(2.0, abs=0.2)
    assert th_slope == pytest.approx(1.0, abs=0.2)


def test_fit_needs_a_soliton(grid):
    with pytest.raises(ValueError, match="need at least one soliton to fit"):
        fit_modulation(Field.zeros(grid), [])
