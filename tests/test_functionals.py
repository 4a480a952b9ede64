import math

import numpy as np
import pytest

from nlkglab.functionals import (
    ActionParams,
    action,
    action_gradient,
    build_cutoffs,
    charge,
    charge_form,
    energy,
    energy_form,
    gradient_norm,
    localized_first_variation,
    localized_hessian_form,
    localized_quantities,
    momentum,
    momentum_form,
    quadratic_gradient,
    ramp,
)
from nlkglab.grids import Field, Grid
from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton
from oracles import (
    NehariProjectionError,
    action_gradient_three_derivatives,
    nehari_project,
    nehari_value,
    pair_inner,
    ramp_derivative,
)

MODEL = ModelParams(1.0, 3.0, 1)


@pytest.fixture(scope="module")
def grid():
    return Grid(80.0, 1024)


@pytest.fixture(scope="module")
def standing(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    return sample_soliton(sp, 0.0, grid), sp


@pytest.fixture(scope="module")
def boosted(grid):
    sp = SolitonParams(MODEL, omega=0.8, v=0.4)
    return sample_soliton(sp, 0.0, grid), sp


def _random_field(grid, seed, band=0.25):
    rng = np.random.default_rng(seed)
    k = grid.deriv_wavenumbers
    mask = np.abs(k) <= band * np.max(np.abs(k))
    u1 = np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)))
    u2 = np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)))
    return Field(u1, u2, grid)


def test_energy_zero(grid):
    assert energy(Field.zeros(grid), MODEL) == 0.0


def test_energy_standing_wave(standing):
    w, _ = standing
    # quadrature oracle: (1/2 - 1/(p+1)) (|phi'|^2 + m |phi|^2) + (1/2 + 1/(p+1)) w^2 |phi|^2
    assert energy(w, MODEL) == pytest.approx(1.824, rel=1e-9)
    assert energy(w, MODEL) > 0


def test_energy_positive_across_frequencies():
    long_grid = Grid(160.0, 2048)  # omega = 0.9 decays slowly
    for om in (0.75, 0.8, 0.9):
        sp = SolitonParams(MODEL, omega=om, v=0.0)
        w = sample_soliton(sp, 0.0, long_grid)
        assert energy(w, MODEL) > 0


def test_charge_real_field(grid):
    w = Field(np.cosh(grid.x) ** -1 + 0j, np.cosh(grid.x) ** -2 + 0j, grid)
    assert charge(w) == pytest.approx(0.0, abs=1e-14)


def test_charge_standing_wave(standing):
    w, _ = standing
    assert charge(w) == pytest.approx(-1.92, rel=1e-10)


def test_charge_boost_invariant(boosted):
    """The charge is frame-independent: quadrature gives -omega ||phi_omega||^2
    for every |v| < 1 (it is the internal-rotation invariant)."""
    w, _ = boosted
    assert charge(w) == pytest.approx(-1.92, rel=1e-10)


def test_momentum_standing_wave(standing):
    w, _ = standing
    assert momentum(w) == pytest.approx(0.0, abs=1e-12)


def test_energy_then_momentum_take_one_derivative(boosted, monkeypatch):
    """u1' belongs to the field: E and then P of one field take one FFT pair,
    and give the bits that each takes on a fresh copy of the field."""
    w = boosted[0].copy()
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    e, p = energy(w, MODEL), momentum(w)
    assert len(calls) == 2
    assert e == energy(w.copy(), MODEL) and p == momentum(w.copy())


def test_momentum_gradient_pair(grid):
    from nlkglab.grids import spectral_derivative

    u1 = (1.0 / np.cosh(grid.x)).astype(complex)
    w = Field(u1, spectral_derivative(u1, grid), grid)
    assert momentum(w) == pytest.approx(4.0 / 3.0 / 2.0, rel=1e-9)  # ||phi'||^2 of sech


def test_momentum_boosted_regression(boosted):
    """Frozen quadrature value; matches -gamma v (omega^2 ||phi||^2 + ||phi'||^2)."""
    w, sp = boosted
    predicted = -sp.gamma * sp.v * (0.64 * 2.4 + 0.36**1.5 * 4.0 / 3.0)
    assert momentum(w) == pytest.approx(predicted, rel=1e-9)
    assert momentum(w) == pytest.approx(-0.7960588635809, rel=1e-9)


def test_action_reduces_to_energy(grid):
    w = _random_field(grid, 1)
    ap = ActionParams(0.0, 0.0, MODEL)
    assert action(w, ap) == pytest.approx(energy(w, MODEL), rel=1e-12)


def test_action_zero(grid):
    ap = ActionParams(0.5, 0.3, MODEL)
    assert action(Field.zeros(grid), ap) == 0.0


def test_action_boost_identity(grid, standing, boosted):
    """S(Phi_{omega,v}) = (E + omega Q)(Phi_{omega,0}) / gamma."""
    ws, sps = standing
    wb, spb = boosted
    lhs = action(wb, ActionParams.from_soliton(spb))
    rhs = (energy(ws, MODEL) + 0.8 * charge(ws)) / spb.gamma
    assert lhs == pytest.approx(rhs, rel=1e-6)


def _forms(a, b):
    """The three bilinear forms at (A, B)."""
    return energy_form(a, b, MODEL.m), charge_form(a, b), momentum_form(a, b)


def test_density_forms_are_symmetric_and_polarize(grid, boosted):
    """Each density form is symmetric, and (A, B) -> [f(A+B) - f(A-B)]/4 of its
    diagonal f to 1e-13 of the largest diagonal value, on boosted solitons
    and random band-limited fields."""
    sols = [sample_soliton(SolitonParams(MODEL, omega=om, v=v, x0=x0), 0.0, grid)
            for om, v, x0 in ((0.8, -0.4, -3.0), (0.7, 0.3, 5.0))]
    fields = [boosted[0], *sols, _random_field(grid, 21), _random_field(grid, 22)]
    for i, a in enumerate(fields):
        for b in fields[i + 1 :]:
            ab, ba = _forms(a, b), _forms(b, a)
            for f_ab, f_ba, f_plus, f_minus in zip(ab, ba, _forms(a + b, a + b), _forms(a - b, a - b)):
                assert np.array_equal(f_ab, f_ba)
                scale = max(np.max(np.abs(f_plus)), np.max(np.abs(f_minus)))
                assert np.max(np.abs(f_ab - 0.25 * (f_plus - f_minus))) <= 1e-13 * scale


def test_action_is_the_sum_of_its_functionals():
    """S, the localized action of one unit-weight cell, is E + (omega/gamma) Q + v P
    summed from the three functionals, to 1e-14 relative, on the solitons of
    the symbol test."""
    g = Grid(300.0, 1024)
    for om in (0.6, 0.8, 0.95):
        for v in (-0.4, 0.0, 0.4):
            sp = SolitonParams(MODEL, omega=om, v=v)
            w, ap = sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp)
            oracle = energy(w, MODEL) + ap.omega_over_gamma * charge(w) + ap.v * momentum(w)
            assert action(w, ap) == pytest.approx(oracle, rel=1e-14, abs=0.0)


def test_gradient_zero_field(grid):
    ap = ActionParams(0.7, 0.2, MODEL)
    g = action_gradient(Field.zeros(grid), ap)
    assert np.max(np.abs(g.u1)) == 0.0
    assert np.max(np.abs(g.u2)) == 0.0


@pytest.mark.parametrize("points", [1024, 1023])
def test_gradient_symbol_matches_three_derivatives(points):
    """S' as the Fourier symbol applied once equals the term-by-term physical-space
    gradient to 1e-13 of its quadratic part (measured 1.3e-15 on the boosted
    solitons, 4.5e-16 on the random band-limited fields), for even and odd N."""
    g = Grid(300.0, points)
    solitons = [SolitonParams(MODEL, omega=om, v=v) for om in (0.6, 0.8, 0.95) for v in (-0.4, 0.0, 0.4)]
    cases = [(sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp)) for sp in solitons]
    cases += [(_random_field(g, seed), ActionParams(0.5, 0.3, MODEL)) for seed in range(5)]
    for w, ap in cases:
        got, want = action_gradient(w, ap), action_gradient_three_derivatives(w, ap)
        scale = max(np.max(np.abs(part)) for part in quadratic_gradient(w.u1, w.u2, ap, g))
        assert np.max(np.abs(got.u1 - want.u1)) <= 1e-13 * scale
        assert np.max(np.abs(got.u2 - want.u2)) <= 1e-13 * scale


def test_profile_is_critical_point(boosted):
    w, sp = boosted
    assert gradient_norm(w, ActionParams.from_soliton(sp)) < 1e-7


def test_gradient_matches_finite_differences(grid):
    ap = ActionParams(0.5, 0.3, MODEL)
    eps = 1e-5
    for seed in range(20):
        w = _random_field(grid, 77 + seed)
        z = _random_field(grid, 1000 + seed)
        s_p = action(w + eps * z, ap)
        s_m = action(w + (-eps) * z, ap)
        fd = (s_p - s_m) / (2 * eps)
        an = pair_inner(action_gradient(w, ap), z)
        assert fd == pytest.approx(an, rel=1e-5)


def test_nehari_zero_at_profile(boosted):
    w, sp = boosted
    assert abs(nehari_value(w, ActionParams.from_soliton(sp))) < 1e-7


def test_nehari_zero_field(grid):
    assert nehari_value(Field.zeros(grid), ActionParams(0.5, 0.0, MODEL)) == 0.0


def test_nehari_scaling_negative(boosted):
    w, sp = boosted
    ap = ActionParams.from_soliton(sp)
    assert nehari_value(2.0 * w, ap) < 0.0


def test_nehari_project_identity(boosted):
    w, sp = boosted
    s_star, proj = nehari_project(w, ActionParams.from_soliton(sp))
    assert s_star == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(proj.u1 - w.u1)) < 1e-8


def test_nehari_project_ray_invariance(boosted):
    w, sp = boosted
    s_star, _ = nehari_project(3.0 * w, ActionParams.from_soliton(sp))
    assert s_star == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_nehari_ray_scaling_property():
    """s*(cW) = s*(W)/c for any c > 0 and any admissible W."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    g = Grid(40.0, 256)
    ap = ActionParams(0.6, 0.2, MODEL)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), c=st.floats(0.1, 10.0))
    def inner(seed, c):
        w = _random_field(g, seed)
        try:
            s1, _ = nehari_project(w, ap)
        except NehariProjectionError:
            return
        s2, _ = nehari_project(c * w, ap)
        assert s2 == pytest.approx(s1 / c, rel=1e-9)

    inner()


def test_nehari_project_dominates_ground_level(boosted, grid):
    """Projected perturbed fields sit at or above the ground-state action."""
    w, sp = boosted
    ap = ActionParams.from_soliton(sp)
    s_ground = action(w, ap)
    rng_seed = 5
    z = _random_field(grid, rng_seed)
    scale = 0.1 / max(1e-12, float(np.max(np.abs(z.u1))))
    _, proj = nehari_project(w + scale * z, ap)
    assert action(proj, ap) >= s_ground - 1e-8


def test_nehari_project_zero_rejected(grid):
    with pytest.raises(NehariProjectionError):
        nehari_project(Field.zeros(grid), ActionParams(0.5, 0.0, MODEL))


def test_ray_shape(boosted):
    """S(sW) increases up to the projection point and decreases after."""
    w, sp = boosted
    ap = ActionParams.from_soliton(sp)
    s_star, _ = nehari_project(1.7 * w, ap)
    svals = np.array([action((s_star * f) * (1.7 * w), ap) for f in np.linspace(0.01, 2.0, 100)])
    peak = np.argmax(svals)
    assert np.all(np.diff(svals[: peak + 1]) > 0)
    assert np.all(np.diff(svals[peak:]) < 0)


# --- cutoffs


def test_ramp_endpoints():
    assert ramp(-1.0) == 0.0
    assert ramp(1.0) == 1.0
    s = np.linspace(-1, 1, 301)
    assert np.all(np.diff(ramp(s)) >= 0)


def test_ramp_ims_bound():
    s = np.linspace(-1.5, 1.5, 2001)
    lhs = np.abs(ramp_derivative(s))
    rhs = (np.pi / 2.0) * np.sqrt(ramp(s))
    assert np.all(lhs <= rhs + 1e-12)


def test_single_cutoff_is_unity(grid):
    weights = build_cutoffs([0.3], 10.0, grid)
    assert np.all(weights[0] == 1.0)


def test_cutoff_midpoint(grid):
    """The ramp between v = -0.4 and 0.4 is centred on their midpoint x = 0."""
    weights = build_cutoffs([-0.4, 0.4], 10.0, grid)
    mid = int(np.flatnonzero(grid.x == 0.0)[0])
    assert weights[:, mid] == pytest.approx([0.5, 0.5], abs=1e-15)


def test_cutoff_partition_of_unity(grid):
    weights = build_cutoffs([-0.5, -0.1, 0.2, 0.6], 7.3, grid)
    total = np.sum(weights, axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-15
    assert np.all(weights >= -1e-15)
    assert np.all(weights <= 1.0 + 1e-15)


def test_cutoff_requires_positive_time(grid):
    """Zero, NaN and inf are refused: the last two gave NaN weights."""
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="cutoff time must be positive and finite"):
            build_cutoffs([-0.4, 0.4], t, grid)


def test_localized_reduces_to_global(grid):
    w = _random_field(grid, 9)
    cp = build_cutoffs([0.1], 5.0, grid)
    ap = ActionParams(0.5, 0.1, MODEL)
    loc = localized_quantities(w, cp, [ap])
    assert loc.e[0] == pytest.approx(energy(w, MODEL), rel=1e-12)
    assert loc.q[0] == pytest.approx(charge(w), rel=1e-12)
    assert loc.p[0] == pytest.approx(momentum(w), rel=1e-12)
    assert loc.action_total == pytest.approx(action(w, ap), rel=1e-12)


def test_localized_sums_to_global(grid):
    w = _random_field(grid, 10)
    cp = build_cutoffs([-0.4, 0.4], 12.0, grid)
    params = [ActionParams(0.6, -0.4, MODEL), ActionParams(0.6, 0.4, MODEL)]
    loc = localized_quantities(w, cp, params)
    assert np.sum(loc.q) == pytest.approx(charge(w), rel=1e-12, abs=1e-13)
    assert np.sum(loc.e) == pytest.approx(energy(w, MODEL), rel=1e-12)


def test_localized_well_separated_charge(grid):
    """At late times each cutoff captures its soliton's full charge."""
    from nlkglab.experiments import soliton_sum

    big = Grid(160.0, 2048)
    s1 = SolitonParams(MODEL, omega=0.8, v=-0.4)
    s2 = SolitonParams(MODEL, omega=0.8, v=0.4)
    w = soliton_sum([s1, s2], 30.0, big)
    cp = build_cutoffs([-0.4, 0.4], 30.0, big)
    params = [ActionParams.from_soliton(s) for s in (s1, s2)]
    loc = localized_quantities(w, cp, params)

    for j, sp in enumerate((s1, s2)):
        qj = charge(sample_soliton(sp, 30.0, big))
        assert abs(loc.q[j] - qj) < 1e-6


def test_localized_count_mismatch(grid):
    w = _random_field(grid, 3)
    cp = build_cutoffs([-0.4, 0.4], 12.0, grid)
    with pytest.raises(ValueError):
        localized_quantities(w, cp, [ActionParams(0.5, 0.0, MODEL)])


def test_localized_forms_check_every_count(grid, boosted):
    """Every localized form raises on a count of ActionParams, or of soliton
    samples for the quadratic term, that is not the number of weight rows
    (an empty list included)."""
    r, sp = boosted
    y = _random_field(grid, 4)
    one, two = build_cutoffs([0.4], 12.0, grid), build_cutoffs([-0.4, 0.4], 12.0, grid)
    ap = ActionParams.from_soliton(sp)
    calls = [
        lambda: localized_quantities(y, two, [ap]),
        lambda: localized_quantities(y, one, [ap, ap]),
        lambda: localized_quantities(y, one, []),
        lambda: localized_first_variation(r, y, two, [ap]),
        lambda: localized_hessian_form(y, [r], two, [ap]),
        lambda: localized_hessian_form(y, [r], two, [ap, ap]),
        lambda: localized_hessian_form(y, [r, r], one, [ap]),
        lambda: localized_hessian_form(y, [r], one, [ap, ap]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="cutoff weight rows"):
            call()


def test_localized_first_variation_matches_central_difference(grid):
    """The linear term equals the derivative of eps -> S_loc(R + eps Y)."""
    r = 10.0 * _random_field(grid, 12)  # amplitude ~0.6: the nonlinear term counts
    y = _random_field(grid, 13)
    cp = build_cutoffs([-0.4, 0.4], 12.0, grid)
    params = [ActionParams(0.6, -0.4, MODEL), ActionParams(0.7, 0.4, MODEL)]
    eps = 1e-4
    plus = localized_quantities(r + eps * y, cp, params).action_total
    minus = localized_quantities(r - eps * y, cp, params).action_total
    lin = localized_first_variation(r, y, cp, params)
    assert lin == pytest.approx((plus - minus) / (2.0 * eps), rel=1e-8)
