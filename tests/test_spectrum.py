import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

from nlkglab.functionals import ActionParams, action, action_gradient
from nlkglab.grids import (
    Field,
    Grid,
    pair_inner,
    spectral_second_derivative,
    symmetry_directions,
)
from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton
from nlkglab.spectrum import (
    KERNEL_REL_TOL,
    AssemblyError,
    _schur_complement,
    assemble_second_variation,
    flatten_field,
    free_operator_floor,
    frequency_derivative_residual,
    slope_analytic,
    slope_test,
    spectrum_report,
    unflatten_field,
)

MODEL = ModelParams(1.0, 3.0, 1)


@pytest.fixture(scope="module")
def grid():
    return Grid(80.0, 256)


def _profile(g, omega, v):
    sp = SolitonParams(MODEL, omega=omega, v=v)
    w = sample_soliton(sp, 0.0, g)
    return w, ActionParams.from_soliton(sp), sp


@pytest.fixture(scope="module")
def op(grid):
    w, ap, _ = _profile(grid, 0.8, 0.0)
    return assemble_second_variation(w, ap)


def _family(grid, v):
    def f(om):
        sp = SolitonParams(MODEL, omega=om, v=v)
        return sample_soliton(sp, 0.0, grid)

    return f


def test_flatten_roundtrip(grid):
    rng = np.random.default_rng(0)
    w = Field(
        rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points),
        rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points),
        grid,
    )
    back = unflatten_field(flatten_field(w), grid)
    assert np.array_equal(back.u1, w.u1)
    assert np.array_equal(back.u2, w.u2)


def test_assembly_symmetric(op):
    assert op.asymmetry < 1e-9 * np.max(np.abs(op.matrix))


def test_assembly_rejects_non_critical(grid):
    rng = np.random.default_rng(1)
    w = Field(
        np.exp(-(grid.x**2)) * (1 + 0j),
        np.zeros(grid.points, complex),
        grid,
    )
    with pytest.raises(AssemblyError):
        assemble_second_variation(w, ActionParams(0.8, 0.0, MODEL))


def test_assembly_rejects_nan_profile(grid):
    w = Field(np.full(grid.points, np.nan, complex), np.zeros(grid.points, complex), grid)
    with pytest.raises(AssemblyError, match="not a converged critical point"):
        assemble_second_variation(w, ActionParams(0.8, 0.0, MODEL))


@pytest.mark.parametrize("omega, v", [(0.6, 0.0), (0.7, 0.0), (0.8, 0.3), (0.75, 0.6)])
def test_delta_matches_dense_generalized_eigenproblem(grid, omega, v):
    """delta is the lowest eigenvalue of the dense constrained problem: M and the
    H1 x L2 Gram (the identity, and I - D2 on both u1 blocks) projected on the QR
    complement of the constraints; delta < 0 for omega = 0.6 and 0.7."""
    w, ap, _ = _profile(grid, omega, v)
    op = assemble_second_variation(w, ap, check_critical=False)
    n = grid.points
    d2 = np.column_stack([spectral_second_derivative(e, grid) for e in np.eye(n)])
    gram = np.eye(4 * n)
    gram[0:n, 0:n] -= d2
    gram[n : 2 * n, n : 2 * n] -= d2
    cons = np.column_stack([flatten_field(f) for f in symmetry_directions(op.profile)])
    basis = np.linalg.qr(cons, mode="complete")[0][:, 3:]
    a = basis.T @ op.matrix @ basis
    b = basis.T @ gram @ basis
    want = sla.eigh(0.5 * (a + a.T), 0.5 * (b + b.T), subset_by_index=[0, 0], eigvals_only=True)[0]
    assert (want < 0) == (omega < math.sqrt(0.5))  # outside the stability window
    delta = spectrum_report(op).coercivity_delta
    assert delta == pytest.approx(want, rel=1e-10)
    # Grillakis-Shatah-Strauss: with Morse index 1 and kernel 2, the constrained
    # form is positive exactly when d/domega [omega ||phi||^2] < 0
    assert np.sign(delta) == -np.sign(slope_test(_family(grid, v), ap, omega, op=op))


@pytest.mark.parametrize("omega, v", [(0.6, 0.0), (0.8, 0.0), (0.8, 0.3), (0.75, 0.6)])
def test_schur_counts_match_dense_eigensolve(grid, omega, v):
    """The Morse index and kernel read off S = A - B B^T equal those of the full
    4N x 4N eigensolve under its own rule (tolerance from max|eig(M)|)."""
    w, ap, _ = _profile(grid, omega, v)
    op = assemble_second_variation(w, ap, check_critical=False)
    ev = sla.eigvalsh(op.matrix)
    ktol = KERNEL_REL_TOL * np.max(np.abs(ev))
    rep = spectrum_report(op)
    assert rep.negative_count == np.sum(ev < -ktol)
    assert rep.kernel_dimension == np.sum(np.abs(ev) < ktol)


def test_schur_rejects_perturbed_u2_block(op, grid):
    n2 = 2 * grid.points
    mat = op.matrix.copy()
    mat[n2 + 3, n2 + 3] = np.nextafter(1.0, 2.0)  # one ulp off the identity
    with pytest.raises(AssemblyError, match="not the identity"):
        spectrum_report(dataclasses.replace(op, matrix=mat))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("omega, v", [(0.8, 0.0), (0.8, 0.3), (0.75, 0.6)])
def test_schur_ground_state_closed_form(p, omega, v):
    """S is L+ (+) L- at v = 0, both reflectionless sech^2 wells: the lowest
    eigenvalue is -mu((p+1)^2/4 - 1), mu = m - omega^2, and each block has one
    zero mode; the boost keeps both (Lorentz covariance).  Spacing 80/512; p = 2
    decays slower and gets a longer box."""
    grid = Grid(100.0, 640) if p == 2.0 else Grid(80.0, 512)
    sp = SolitonParams(ModelParams(1.0, p, 1), omega=omega, v=v)
    op = assemble_second_variation(sample_soliton(sp, 0.0, grid), ActionParams.from_soliton(sp))
    ev = sla.eigvalsh(_schur_complement(op))
    mu = 1.0 - omega**2
    assert abs(ev[0] + mu * ((p + 1) ** 2 / 4 - 1)) < 1e-10 * mu
    assert np.sum(np.abs(ev) < 1e-12) == 2


def test_kernel_vectors(op, grid):
    from nlkglab.grids import spectral_derivative

    phi = op.profile
    rho = float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))
    for z in (
        Field(1j * phi.u1, 1j * phi.u2, grid),
        Field(spectral_derivative(phi.u1, grid), spectral_derivative(phi.u2, grid), grid),
    ):
        zf = flatten_field(z)
        rayleigh = abs(zf @ (op.matrix @ zf)) / (zf @ zf)
        assert rayleigh < 1e-6 * rho
        # the action of the operator is itself small on kernel vectors
        out = op.apply(z)
        assert (
            np.sqrt(np.sum(np.abs(out.u1) ** 2 + np.abs(out.u2) ** 2))
            / np.sqrt(np.sum(np.abs(z.u1) ** 2 + np.abs(z.u2) ** 2))
            < 1e-7
        )


def test_quadratic_form_matches_action_differences(op, grid):
    rng = np.random.default_rng(7)
    k = grid.deriv_wavenumbers
    mask = np.abs(k) < 0.4 * np.max(np.abs(k))
    z = Field(
        np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))),
        np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))),
        grid,
    )
    eps = 1e-4
    phi = op.profile
    s0 = action(phi, op.params)
    sp_ = action(phi + eps * z, op.params)
    sm_ = action(phi + (-eps) * z, op.params)
    fd = (sp_ - 2 * s0 + sm_) / eps**2
    assert op.quadratic_form(z) == pytest.approx(fd, rel=1e-5)


def test_quadratic_form_matches_gradient_differences(op, grid):
    rng = np.random.default_rng(8)
    k = grid.deriv_wavenumbers
    mask = np.abs(k) < 0.4 * np.max(np.abs(k))
    z = Field(
        np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))),
        np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))),
        grid,
    )
    eps = 1e-5
    phi = op.profile
    gp = action_gradient(phi + eps * z, op.params)
    gm = action_gradient(phi + (-eps) * z, op.params)
    fd = pair_inner((1.0 / (2 * eps)) * (gp - gm), z)
    assert op.quadratic_form(z) == pytest.approx(fd, rel=1e-5)


def test_morse_index_and_kernel(op):
    rep = spectrum_report(op)
    assert rep.negative_count == 1
    assert rep.kernel_dimension == 2
    assert rep.coercivity_delta > 0
    # regression constant from the first converged run at this resolution
    assert rep.coercivity_delta == pytest.approx(0.0906, abs=0.003)


def test_morse_window_sample(grid):
    """Morse index 1 and kernel dim 2 across the sampled stability window.

    Coarse grids here keep the dense eigensolves fast; the resulting
    profile error (up to ~1e-5 in ||S'||) is far below the spectral gap,
    so the eigenvalue counts are unaffected (the criticality precondition
    is relaxed explicitly for this sweep).  omega >= 0.9 decays slowly and
    needs a longer box."""
    from nlkglab.functionals import gradient_norm

    long_grid = Grid(160.0, 512)
    very_long = Grid(240.0, 768)
    for om in (0.75, 0.8, 0.9, 0.95):
        g = grid if om <= 0.85 else (long_grid if om <= 0.92 else very_long)
        for v in (0.0, 0.3, 0.6):
            w, ap, _ = _profile(g, om, v)
            assert gradient_norm(w, ap) < 2e-5
            rep = spectrum_report(assemble_second_variation(w, ap, check_critical=False))
            assert rep.negative_count == 1, (om, v)
            assert rep.kernel_dimension == 2, (om, v)
            assert rep.coercivity_delta > 0, (om, v)


def test_slope_at_stable_point(op, grid):
    slope = slope_test(_family(grid, 0.0), op.params, 0.8, op=op)
    assert slope == pytest.approx(-28.0 / 15.0, abs=1e-4)
    assert slope < 0


def test_slope_matches_analytic_formula(op, grid):
    slope = slope_test(_family(grid, 0.0), op.params, 0.8, op=op)
    assert slope == pytest.approx(slope_analytic(MODEL, 0.8, 1.0, 4.0), abs=1e-4)


def test_slope_outside_window_positive(grid):
    w, ap, _ = _profile(grid, 0.6, 0.0)
    # narrow profile, marginal resolution at this N: relax the criticality gate
    op6 = assemble_second_variation(w, ap, check_critical=False)
    slope = slope_test(_family(grid, 0.0), ap, 0.6, op=op6)
    assert slope > 0
    # analytic value: (1 - 2 w^2)/sqrt(1 - w^2) * 4 with w = 0.6
    assert slope == pytest.approx(4.0 * (1 - 0.72) / math.sqrt(0.64), abs=1e-4)


def test_slope_zero_at_window_boundary():
    om = math.sqrt(0.5)
    assert slope_analytic(MODEL, om, 1.0, 4.0) == pytest.approx(0.0, abs=1e-14)


def test_frequency_derivative_identity(op, grid):
    res = frequency_derivative_residual(_family(grid, 0.0), op.params, 0.8, 1.0, op=op)
    assert res < 1e-5


def test_free_operator_positive(grid):
    for og, v in ((0.8, 0.0), (0.8 / 1.25, 0.6)):
        ap = ActionParams(og, v, MODEL)
        floor = free_operator_floor(ap, grid)
        assert floor > 0
        # oracle: the dense 4N x 4N operator of the zero profile
        dense = assemble_second_variation(Field.zeros(grid), ap, check_critical=False)
        assert floor == pytest.approx(sla.eigvalsh(dense.matrix)[0], rel=1e-12)


def test_coercivity_boosted(grid):
    w, ap, _ = _profile(grid, 0.8, 0.3)
    rep = spectrum_report(assemble_second_variation(w, ap))
    assert rep.negative_count == 1
    assert rep.kernel_dimension == 2
    assert rep.coercivity_delta > 0
