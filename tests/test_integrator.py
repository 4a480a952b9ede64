import math

import numpy as np
import pytest

from nlkglab import integrator
from nlkglab.functionals import charge, energy, momentum
from nlkglab.grids import Field, Grid, norm_h1l2
from nlkglab.integrator import BlowUpError, IntegratorConfig, evolve
from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton

MODEL = ModelParams(1.0, 3.0, 1)


@pytest.fixture(scope="module")
def grid():
    return Grid(80.0, 1024)


def test_zero_field_fixed_point(grid):
    w = Field.zeros(grid)
    out = evolve(w, 0.0, 0.01, IntegratorConfig(dt=0.01), MODEL)
    assert np.max(np.abs(out.u1)) == 0.0
    assert np.max(np.abs(out.u2)) == 0.0


def test_linear_dispersion_exact(grid):
    """Single small-amplitude Fourier mode follows exp(+-i sqrt(m+k^2) t) exactly.

    The nonlinear kick is cubic in the amplitude, so at 1e-8 it contributes
    below rounding of the linear rotation.
    """
    k1 = 2 * np.pi / grid.length * 5
    amp = 1e-8
    u1 = amp * np.exp(1j * k1 * grid.x)
    om = math.sqrt(MODEL.m + k1**2)
    u2 = 1j * om * u1
    w = Field(u1, u2, grid)
    t = 2.0
    out = evolve(w, 0.0, t, IntegratorConfig(dt=0.01), MODEL)
    expected = np.exp(1j * om * t) * u1
    assert np.max(np.abs(out.u1 - expected)) < 1e-12 * amp / 1e-8


def test_standing_wave_accuracy(grid):
    """Error vs the exact solution at t=10, dt=0.01.

    Measured value for the Strang split is 1.39e-4 of the profile norm
    (it halves 4x per dt halving); asserted with margin.
    """
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    w = sample_soliton(sp, 0.0, grid)
    nrm = norm_h1l2(w)
    out = evolve(w, 0.0, 10.0, IntegratorConfig(dt=0.01), MODEL)
    exact = sample_soliton(sp, 10.0, grid)
    err_coarse = norm_h1l2(out - exact)
    assert err_coarse < 2e-4 * nrm
    out2 = evolve(w, 0.0, 10.0, IntegratorConfig(dt=0.005), MODEL)
    err_fine = norm_h1l2(out2 - exact)
    assert err_coarse / err_fine == pytest.approx(4.0, rel=0.1)  # second order


def test_reversibility(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 0.0, grid)
    fwd = evolve(w, 0.0, 10.0, IntegratorConfig(dt=0.01), MODEL)
    back = evolve(fwd, 10.0, 0.0, IntegratorConfig(dt=-0.01), MODEL)
    assert norm_h1l2(back - w) < 1e-9 * norm_h1l2(w)


def test_step_reversal_identity(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 0.0, grid)
    fwd = evolve(w, 0.0, 0.01, IntegratorConfig(dt=0.01), MODEL)
    out = evolve(fwd, 0.01, 0.0, IntegratorConfig(dt=-0.01), MODEL)
    assert norm_h1l2(out - w) < 1e-13 * norm_h1l2(w)


def test_identity_when_no_span(grid):
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    out = evolve(w, 5.0, 5.0, IntegratorConfig(dt=0.01), MODEL)
    assert np.max(np.abs(out.u1 - w.u1)) == 0.0


def test_non_integer_count_rejected(grid):
    w = Field.zeros(grid)
    with pytest.raises(ValueError):
        evolve(w, 0.0, 1.0, IntegratorConfig(dt=0.003), MODEL)
    with pytest.raises(ValueError):
        evolve(w, 0.0, -1.0, IntegratorConfig(dt=0.01), MODEL)


def test_conservation_short(grid):
    """Short version of the drift bound (the long run lives in acceptance)."""
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 0.0, grid)
    e0, q0, p0 = energy(w, MODEL), charge(w), momentum(w)
    recs = []
    out = evolve(
        w, 0.0, 5.0, IntegratorConfig(dt=0.01), MODEL,
        hooks=[recs.append], diag_stride=100,
    )
    for rec in recs:
        assert abs(rec.energy - e0) / abs(e0) < 1e-8
        assert abs(rec.charge - q0) / abs(q0) < 1e-11
        assert abs(rec.momentum - p0) / abs(p0) < 1e-10


def test_dealias_flag_runs(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 0.0, grid)
    out = evolve(w, 0.0, 0.5, IntegratorConfig(dt=0.01, dealias=True), MODEL)
    exact = sample_soliton(sp, 0.5, grid)
    assert norm_h1l2(out - exact) < 1e-4


def test_blowup_detected(grid):
    # large constant data in the focusing equation grows without bound
    w = Field(np.full(grid.points, 30.0 + 0j), np.full(grid.points, 1000.0 + 0j), grid)
    with pytest.raises(BlowUpError):
        evolve(w, 0.0, 2.0, IntegratorConfig(dt=0.01), MODEL)


def test_stability_heuristic_enforced(grid):
    w = Field.zeros(grid)
    with pytest.raises(ValueError):
        evolve(w, 0.0, 1.0, IntegratorConfig(dt=0.1), MODEL)


def test_flow_matches_hamiltonian_vector_field(grid):
    """Centered difference of the flow equals J E'(W): du1/dt = u2 and
    du2/dt = u1'' - m u1 + |u1|^(p-1) u1 (independent route through the
    action-gradient code)."""
    from nlkglab.functionals import ActionParams, action_gradient

    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = sample_soliton(sp, 1.3, grid)
    dt = 1e-4
    fwd = evolve(w, 0.0, dt, IntegratorConfig(dt=dt), MODEL)
    bwd = evolve(w, 0.0, -dt, IntegratorConfig(dt=-dt), MODEL)
    du1 = (fwd.u1 - bwd.u1) / (2 * dt)
    du2 = (fwd.u2 - bwd.u2) / (2 * dt)
    g = action_gradient(w, ActionParams(0.0, 0.0, MODEL))  # = E'(W)
    assert np.max(np.abs(du1 - g.u2)) < 1e-7
    assert np.max(np.abs(du2 + g.u1)) < 1e-7


def test_hooks_fire_at_stride(grid):
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    recs = []
    evolve(w, 0.0, 1.0, IntegratorConfig(dt=0.01), MODEL, hooks=[recs.append], diag_stride=25)
    times = [rec.t for rec in recs]
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert recs[0].field is not None


def test_amplitude_checked_once_per_check_point(grid, monkeypatch):
    """Every 16th step, each hook step and the last step are checked, each once."""
    checked = []
    real = integrator._check_amplitude
    monkeypatch.setattr(
        integrator, "_check_amplitude", lambda u1, t: (checked.append(t), real(u1, t))
    )
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    evolve(w, 0.0, 0.36, IntegratorConfig(dt=0.01), MODEL, hooks=[lambda rec: None], diag_stride=12)
    assert checked == pytest.approx([0.12, 0.16, 0.24, 0.32, 0.36])
