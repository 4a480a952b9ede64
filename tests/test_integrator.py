import math

import numpy as np
import pytest

from nlkglab import integrator
from nlkglab.functionals import charge, energy, momentum
from nlkglab.grids import Field, Grid, norm_h1l2
from nlkglab.integrator import BlowUpError, IntegratorConfig, evolve
from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton

MODEL = ModelParams(1.0, 3.0, 1)


class _Stepper:
    """The reference Strang stepper: each step leaves and re-enters Fourier
    space around every sub-flow, 8 FFTs per step.  ``dtype`` sets the working
    precision; np.clongdouble gives an oracle whose own rounding is far below
    that of a float64 run."""

    def __init__(self, grid: Grid, model: ModelParams, dt: float, dtype=complex):
        real = np.finfo(dtype).dtype.type
        k = grid.deriv_wavenumbers.astype(real)
        om = np.sqrt(real(model.m) + k * k)
        half = real(dt) / 2
        self.cos = np.cos(half * om)
        self.sin_over = np.sin(half * om) / om
        self.sin_times = -om * np.sin(half * om)
        self.dt = real(dt)
        self.p = real(model.p)
        self.dtype = dtype

    def half_linear(self, f1: np.ndarray, f2: np.ndarray):
        return (
            self.cos * f1 + self.sin_over * f2,
            self.sin_times * f1 + self.cos * f2,
        )

    def apply(self, u1: np.ndarray, u2: np.ndarray):
        f1, f2 = self.half_linear(np.fft.fft(u1), np.fft.fft(u2))
        u1 = np.fft.ifft(f1)
        u2 = np.fft.ifft(f2)
        u2 = u2 + self.dt * np.abs(u1) ** (self.p - 1) * u1
        f1, f2 = self.half_linear(np.fft.fft(u1), np.fft.fft(u2))
        return np.fft.ifft(f1), np.fft.ifft(f2)

    def run(self, w: Field, nsteps: int) -> Field:
        u1, u2 = w.u1.astype(self.dtype), w.u2.astype(self.dtype)
        for _ in range(nsteps):
            u1, u2 = self.apply(u1, u2)
        return Field(u1.astype(complex), u2.astype(complex), w.grid)


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
        hooks=[recs.append], diag_period=1.0,
    )
    for rec in recs:
        assert abs(rec.energy - e0) / abs(e0) < 1e-8
        assert abs(rec.charge - q0) / abs(q0) < 1e-11
        assert abs(rec.momentum - p0) / abs(p0) < 1e-10


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


# the long comparison runs: a moving soliton over 2000 steps of 0.01
LONG_T, LONG_DT = 20.0, 0.01


@pytest.fixture(scope="module")
def moving(grid):
    return sample_soliton(SolitonParams(MODEL, omega=0.8, v=0.4), 0.0, grid)


@pytest.fixture(scope="module")
def strang_oracle(grid, moving):
    """The reference stepper's result after 2000 steps, in extended precision."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("the oracle needs an extended-precision long double")
    return _Stepper(grid, MODEL, LONG_DT, np.clongdouble).run(moving, int(LONG_T / LONG_DT))


@pytest.mark.parametrize("stride", [0, 7])
def test_evolve_matches_reference_stepper(moving, strang_oracle, stride):
    """The chained stepper computes the reference Strang solution to rounding,
    with and without sync points off the 16-step grid (stride 7).

    Measured 4.5e-14 (no hooks) and 6.0e-14 (stride 7).  A float64 run of
    the reference stepper is itself 6.7e-12 from the oracle: its 8 FFTs per
    step round more, so the oracle runs in extended precision.
    """
    hooks = [lambda rec: None] if stride else []
    out = evolve(moving, 0.0, LONG_T, IntegratorConfig(dt=LONG_DT), MODEL,
                 hooks=hooks, diag_period=stride * LONG_DT)
    assert norm_h1l2(out - strang_oracle) <= 1e-12 * norm_h1l2(strang_oracle)


def test_long_reversibility_with_syncs(moving):
    """2000 steps forward with hooks every 7 steps, then back without: the
    initial field returns to rounding (measured 8e-14 relative)."""
    fwd = evolve(moving, 0.0, LONG_T, IntegratorConfig(dt=LONG_DT), MODEL,
                 hooks=[lambda rec: None], diag_period=0.07)
    back = evolve(fwd, LONG_T, 0.0, IntegratorConfig(dt=-LONG_DT), MODEL)
    assert norm_h1l2(back - moving) < 1e-12 * norm_h1l2(moving)


def test_charge_drift_at_rounding(moving):
    """Charge over 2000 steps, read at every 7th step: drift at rounding
    (measured 7e-15 relative)."""
    q0 = charge(moving)
    charges = []
    evolve(moving, 0.0, LONG_T, IntegratorConfig(dt=LONG_DT), MODEL,
           hooks=[lambda rec: charges.append(rec.charge)], diag_period=0.07)
    assert len(charges) == 287
    assert max(abs(q - q0) for q in charges) < 1e-13 * abs(q0)


@pytest.mark.parametrize("stride, syncs", [(0, 20), (100, 23)])
def test_ffts_per_step(moving, monkeypatch, stride, syncs):
    """Two FFTs per step, two to enter Fourier space and two inverse FFTs per
    sync point: every 16th step (20 of 320), each hook step (100, 200 and 300
    are off that grid) and the last step (on it).  Without hooks that is
    (2 + 2*320 + 2*20)/320 = 2.13 per step.  ``evolve`` imports its
    transforms from ``scipy.fft`` when called, so counting wrappers set on
    that module see every call."""
    import scipy.fft

    calls = []

    def counted(transform):
        def call(*args, **kwargs):
            calls.append(transform)
            return transform(*args, **kwargs)

        return call

    monkeypatch.setattr(scipy.fft, "fft", counted(scipy.fft.fft))
    monkeypatch.setattr(scipy.fft, "ifft", counted(scipy.fft.ifft))
    hooks = [lambda rec: None] if stride else []
    evolve(moving, 0.0, 3.2, IntegratorConfig(dt=0.01), MODEL, hooks=hooks, diag_period=stride * 0.01)
    assert len(calls) == 2 + 2 * 320 + 2 * syncs
    assert len(calls) / 320 <= 2.2


@pytest.mark.parametrize("n", [255, 256, 512, 1024, 2048])
def test_scipy_fft_matches_numpy_bitwise(n):
    """The stepper's transforms return the same bits as numpy's, so moving
    the stepper between them leaves every field and printed value as it was."""
    import scipy.fft

    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for ours, theirs in ((scipy.fft.fft, np.fft.fft), (scipy.fft.ifft, np.fft.ifft)):
        assert np.array_equal(ours(a).view(np.uint64), theirs(a).view(np.uint64))


@pytest.mark.parametrize("stride", [0, 7])
def test_evolve_writes_no_caller_array(moving, stride):
    """The stepper works in place, but never on the caller's u1 and u2 nor on
    a field a hook was given: each record's field still equals the copy the
    hook took once ``evolve`` has returned."""
    before = moving.copy()
    records, copies = [], []

    def hook(rec):
        records.append(rec)
        copies.append(rec.field.copy())

    out = evolve(moving, 0.0, 0.5, IntegratorConfig(dt=0.01), MODEL,
                 hooks=[hook] if stride else [], diag_period=stride * 0.01)
    for got, want in ((moving.u1, before.u1), (moving.u2, before.u2)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert len(records) == (9 if stride else 0)  # t = 0, every 7th of 50 steps and the last
    for rec, copy in zip(records, copies):
        for got, want in ((rec.field.u1, copy.u1), (rec.field.u2, copy.u2)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert out.u1 is not moving.u1 and out.u2 is not moving.u2


def test_hooks_fire_at_stride(grid):
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    recs = []
    evolve(w, 0.0, 1.0, IntegratorConfig(dt=0.01), MODEL, hooks=[recs.append], diag_period=0.25)
    times = [rec.t for rec in recs]
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert recs[0].field is not None


def test_overflowing_hook_stride_fires_at_both_ends(grid):
    """A period too long to count in steps of |dt| (1e308 / 0.01 overflows)
    fires the hooks at t0 and t1 only."""
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    recs = []
    evolve(w, 0.0, 0.5, IntegratorConfig(dt=0.01), MODEL, hooks=[recs.append], diag_period=1e308)
    assert [rec.t for rec in recs] == pytest.approx([0.0, 0.5])


@pytest.mark.parametrize("period", [{}, {"diag_period": -0.03}], ids=["default", "negative"])
def test_hooks_need_a_stride(grid, period):
    """Hooks without a positive finite period are refused before a step is taken."""
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    calls = []
    with pytest.raises(ValueError, match=r"diag_period must be positive and finite \(got -?0\.0"):
        evolve(w, 0.0, 0.1, IntegratorConfig(dt=0.01), MODEL, hooks=[calls.append], **period)
    assert calls == []


def test_amplitude_checked_once_per_check_point(grid, monkeypatch):
    """Every 16th step, each hook step and the last step are checked, each once."""
    checked = []
    real = integrator._check_amplitude
    monkeypatch.setattr(
        integrator, "_check_amplitude", lambda u1, t: (checked.append(t), real(u1, t))
    )
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    evolve(w, 0.0, 0.36, IntegratorConfig(dt=0.01), MODEL, hooks=[lambda rec: None], diag_period=0.12)
    assert checked == pytest.approx([0.12, 0.16, 0.24, 0.32, 0.36])
