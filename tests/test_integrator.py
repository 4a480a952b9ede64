import math

import numpy as np
import pytest

from nlkglab import integrator
from nlkglab.functionals import charge, energy, momentum
from nlkglab.grids import Field, Grid, norm_h1l2, wrap_coordinate
from nlkglab.integrator import BlowUpError, IntegratorConfig, evolve, span_problems
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
    """One rule for the step count (``span_problems``), which ``evolve`` keeps:
    a count that is not whole, not positive or not finite (the span over a
    denormal dt overflows) is a ValueError, and t1 == t0 is zero steps."""
    w = Field.zeros(grid)
    for t1, dt in ((1.0, 0.003), (-1.0, 0.01), (30.0, 2e-311)):
        (problem,) = span_problems(0.0, t1, dt)
        assert problem.endswith("is not a finite positive whole number of steps")
        with pytest.raises(ValueError, match="is not a finite positive whole number"):
            evolve(w, 0.0, t1, IntegratorConfig(dt=dt), MODEL)
    assert span_problems(0.0, 1.0, 0.01) == span_problems(1.0, 0.0, -0.01) == []
    assert span_problems(5.0, 5.0, 0.01) == []


def test_step_count_too_large_to_check_rejected(grid):
    """From 2**52 steps on every float count is whole, so the whole-number
    test cannot fail: such a count is refused before a step is taken."""
    for t1, dt in ((30.0, 1e-300), (2.0**52, 1.0), (-(2.0**60), -1.0)):
        (problem,) = span_problems(0.0, t1, dt)
        assert problem.endswith("steps is too large a count to check as whole steps")
    assert span_problems(0.0, 2.0**52 - 1.0, 1.0) == []
    with pytest.raises(ValueError, match="too large a count to check as whole steps"):
        evolve(Field.zeros(grid), 0.0, 30.0, IntegratorConfig(dt=1e-300), MODEL)


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


def test_step_and_span_rules_raise_together(grid):
    """A step over 0.5 * spacing with a fractional step count is one
    ValueError that names both rules."""
    with pytest.raises(ValueError) as info:
        evolve(Field.zeros(grid), 0.0, 1.0, IntegratorConfig(dt=0.3), MODEL)
    message = str(info.value)
    assert "exceeds the stability heuristic 0.5*spacing" in message
    assert "is not a finite positive whole number of steps" in message


def test_finite_speed_of_propagation():
    """The paper's first ingredient: a perturbation moves no faster than light.
    A C^inf bump 1e-3 e exp(-1/(1 - s^2)), s = (x - 40)/3, on u1 of the mirror
    pair at t = 40 is evolved back to t = 30 beside the unperturbed pair.
    Their difference, |.| over both components, is 5.2e-4 at most inside the
    light cone |x - 40| <= 3 + 10, and one unit or more beyond it at most
    9.8e-9 (6.6e-10 eight units beyond).  That floor is band-limiting, not
    rounding: the discrete flow has no sharp cone.  The bound, 1e-4 of the
    inside value, holds it with 5x headroom (measured 1.9e-5)."""
    g = Grid(160.0, 2048)
    pair = [SolitonParams(MODEL, omega=0.8, v=-0.4), SolitonParams(MODEL, omega=0.8, v=0.4)]
    w = sample_soliton(pair[0], 40.0, g) + sample_soliton(pair[1], 40.0, g)
    s = (g.x - 40.0) / 3.0
    bump = np.zeros(g.points)
    support = np.abs(s) < 1.0
    bump[support] = 1e-3 * math.e * np.exp(-1.0 / (1.0 - s[support] ** 2))
    cfg = IntegratorConfig(dt=-0.002)
    plain = evolve(w, 40.0, 30.0, cfg, MODEL)
    bumped = evolve(w + Field(bump, np.zeros(g.points), g), 40.0, 30.0, cfg, MODEL)
    diff = np.sqrt(np.abs(bumped.u1 - plain.u1) ** 2 + np.abs(bumped.u2 - plain.u2) ** 2)
    distance = np.abs(wrap_coordinate(g.x - 40.0, g.length))
    inside = np.max(diff[distance <= 13.0])
    outside = np.max(diff[distance >= 14.0])
    print(f"inside {inside:.3e}, one unit beyond the cone {outside:.3e}")
    assert inside > 1e-4
    assert outside < 1e-4 * inside


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
    with and without sync points at hook steps (stride 7).

    Measured 4.1e-14 (no hooks) and 4.9e-14 (stride 7).  A float64 run of
    the reference stepper is itself 6.7e-12 from the oracle: its 8 FFTs per
    step round more, so the oracle runs in extended precision.
    """
    hooks = [lambda rec: None] if stride else []
    out = evolve(moving, 0.0, LONG_T, IntegratorConfig(dt=LONG_DT), MODEL,
                 hooks=hooks, diag_period=stride * LONG_DT)
    assert norm_h1l2(out - strang_oracle) <= 1e-12 * norm_h1l2(strang_oracle)


def test_long_reversibility_with_syncs(moving):
    """2000 steps forward with hooks every 7 steps, then back without: the
    initial field returns to rounding (measured 9e-14 relative)."""
    fwd = evolve(moving, 0.0, LONG_T, IntegratorConfig(dt=LONG_DT), MODEL,
                 hooks=[lambda rec: None], diag_period=0.07)
    back = evolve(fwd, LONG_T, 0.0, IntegratorConfig(dt=-LONG_DT), MODEL)
    assert norm_h1l2(back - moving) < 1e-12 * norm_h1l2(moving)


def test_charge_drift_at_rounding(moving):
    """Charge over 2000 steps, read at every 7th step: drift at rounding
    (measured 5e-15 relative)."""
    q0 = charge(moving)
    charges = []
    evolve(moving, 0.0, LONG_T, IntegratorConfig(dt=LONG_DT), MODEL,
           hooks=[lambda rec: charges.append(rec.charge)], diag_period=0.07)
    assert len(charges) == 287
    assert max(abs(q - q0) for q in charges) < 1e-13 * abs(q0)


def _count_transforms(monkeypatch, events: list) -> None:
    """Log every ``scipy.fft`` call of ``evolve`` into ``events`` by name.
    ``evolve`` imports its transforms from ``scipy.fft`` when called, so
    counting wrappers set on that module see every call."""
    import scipy.fft

    def counted(name, transform):
        def call(*args, **kwargs):
            events.append(name)
            return transform(*args, **kwargs)

        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(scipy.fft, name, counted(name, getattr(scipy.fft, name)))


@pytest.mark.parametrize("stride, syncs", [(0, 1), (100, 4)])
def test_ffts_per_step(moving, monkeypatch, stride, syncs):
    """Two FFTs per step, two to enter Fourier space and two inverse FFTs per
    sync point: each hook step (100, 200 and 300) and the last step.  The
    blow-up check every 16th step takes none.  Without hooks that is
    (2 + 2*320 + 2)/320 = 2.0125 per step."""
    calls = []
    _count_transforms(monkeypatch, calls)
    hooks = [lambda rec: None] if stride else []
    evolve(moving, 0.0, 3.2, IntegratorConfig(dt=0.01), MODEL, hooks=hooks, diag_period=stride * 0.01)
    assert len(calls) == 2 + 2 * 320 + 2 * syncs
    assert len(calls) / 320 <= 2.05


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


@pytest.mark.parametrize(
    "period, times",
    [(0.3, [0.0, 0.3, 0.6, 0.9, 1.0]), (1e6, [0.0, 1.0]), (1e308, [0.0, 1.0])],
)
def test_hook_schedule(period, times):
    """The period rounds to whole steps, and one longer than the span (1e6) or
    whose step count overflows (1e308 / 0.05) fires at both ends only."""
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, Grid(80.0, 256))
    recs = []
    evolve(w, 0.0, 1.0, IntegratorConfig(dt=0.05), MODEL, hooks=[recs.append], diag_period=period)
    assert [rec.t for rec in recs] == pytest.approx(times)


def test_nan_period_without_hooks_runs(grid):
    """Without hooks a NaN period is not refused, and the run is the one without a period."""
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    out = evolve(w, 0.0, 0.1, IntegratorConfig(dt=0.01), MODEL, diag_period=float("nan"))
    want = evolve(w, 0.0, 0.1, IntegratorConfig(dt=0.01), MODEL)
    assert np.array_equal(out.u1, want.u1) and np.array_equal(out.u2, want.u2)


@pytest.mark.parametrize("period", [{}, {"diag_period": -0.03}], ids=["default", "negative"])
def test_hooks_need_a_stride(grid, period):
    """Hooks without a positive finite period are refused before a step is taken."""
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    calls = []
    with pytest.raises(ValueError, match=r"diag_period must be positive and finite \(got -?0\.0"):
        evolve(w, 0.0, 0.1, IntegratorConfig(dt=0.01), MODEL, hooks=[calls.append], **period)
    assert calls == []


def test_amplitude_checked_once_per_check_point(grid, monkeypatch):
    """Every 16th step, each hook step and the last step are checked, each once.
    Steps 16 and 32 are read from the modulus of the kick's input, right after
    that step's one inverse FFT; the syncs at 0.12, 0.24 and 0.36 (the hook
    steps, the last among them) after the two inverse FFTs of u1 and u2."""
    events = []
    _count_transforms(monkeypatch, events)
    real = integrator._check_amplitude

    def check(modulus, t):
        events.append(t)
        assert modulus.dtype == float and np.all(modulus >= 0.0)
        real(modulus, t)

    monkeypatch.setattr(integrator, "_check_amplitude", check)
    w = sample_soliton(SolitonParams(MODEL, omega=0.8), 0.0, grid)
    evolve(w, 0.0, 0.36, IntegratorConfig(dt=0.01), MODEL, hooks=[lambda rec: None], diag_period=0.12)
    checks = [(i, t) for i, t in enumerate(events) if not isinstance(t, str)]
    assert [t for _, t in checks] == pytest.approx([0.12, 0.16, 0.24, 0.32, 0.36])
    before = [tuple(events[i - 2 : i]) for i, _ in checks]
    sync, modulus = ("ifft", "ifft"), ("fft", "ifft")
    assert before == [sync, modulus, sync, modulus, sync]


def test_blowup_without_hooks_takes_no_sync(monkeypatch):
    """A focusing blow-up with no hooks is caught by the check on the kick's
    modulus: it raises at step 80 (t = 0.8, as when every 16th step synced)
    after one inverse FFT per step, none of them of u2."""
    events = []
    _count_transforms(monkeypatch, events)
    g = Grid(120.0, 1024)
    w = Field(3.0 * np.exp(-g.x**2) + 0j, np.zeros(g.points, dtype=complex), g)
    with pytest.raises(BlowUpError) as err:
        evolve(w, 0.0, 2.0, IntegratorConfig(dt=0.01), MODEL)
    assert err.value.t == pytest.approx(0.8)
    assert events.count("ifft") == 80
