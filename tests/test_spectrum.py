import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

from nlkglab import spectrum
from nlkglab.functionals import (
    ActionParams,
    action,
    action_gradient,
    localized_hessian_form,
    second_variation_potential,
)
from nlkglab.grids import Field, Grid, flat
from nlkglab.profiles import (
    ModelParams,
    SolitonParams,
    boundary_ratio,
    points_per_width,
    sample_soliton,
)
from nlkglab.spectrum import (
    KERNEL_REL_TOL,
    AssemblyError,
    RealizedOperator,
    assemble_second_variation,
    slope_test,
    spectrum_report,
)
from oracles import (
    free_operator_floor,
    frequency_derivative_residual,
    matvec,
    pair_inner,
    quadratic_form,
    schur_complement,
    slope_analytic,
    soliton_tangents,
    symmetry_directions,
    whiten,
)

MODEL = ModelParams(1.0, 3.0, 1)


def _operator(phi, ap):
    """The second variation at any profile: assembly without its criticality check."""
    return RealizedOperator(phi.copy(), ap, *second_variation_potential(phi.u1, ap.model.p))


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


def _derivative_matrices(grid: Grid):
    """Dense real first/second derivative matrices for the periodic grid.
    Both are circulant: column 0 is the inverse FFT of the symbol."""
    k = grid.deriv_wavenumbers
    d1 = sla.circulant(np.real(np.fft.ifft(1j * k)))
    d2 = sla.circulant(np.real(np.fft.ifft(-(k**2))))
    return d1, d2


def _flat_order(n):
    """Positions in the blocks [Re u1, Im u1, Re u2, Im u2] of the entries of
    ``flat`` (u1 then u2, re/im interleaved)."""
    return np.arange(4 * n).reshape(2, 2, n).transpose(0, 2, 1).ravel()


def _dense_matrix(op):
    """The dense symmetric 4N x 4N matrix of the structured operator, assembled
    block by block from derivative matrices and permuted to the ``flat`` layout:
    the oracle for its product, Schur complement and free part, and for the
    dense eigensolves below."""
    grid, ap = op.profile.grid, op.params
    n = grid.points
    og, v = ap.omega_over_gamma, ap.v
    d1, d2 = _derivative_matrices(grid)
    w1, w2r, w2i = op.w1, op.w2.real, op.w2.imag

    kin = -d2 + ap.model.m * np.eye(n)
    eye = np.eye(n)
    mat = np.zeros((4 * n, 4 * n))
    mat[0:n, 0:n] = kin - np.diag(w1 + w2r)
    mat[0:n, n : 2 * n] = -np.diag(w2i)
    mat[n : 2 * n, 0:n] = -np.diag(w2i)
    mat[n : 2 * n, n : 2 * n] = kin - np.diag(w1 - w2r)
    mat[0:n, 2 * n : 3 * n] = -v * d1
    mat[0:n, 3 * n : 4 * n] = -og * eye
    mat[n : 2 * n, 2 * n : 3 * n] = og * eye
    mat[n : 2 * n, 3 * n : 4 * n] = -v * d1
    mat[2 * n : 3 * n, 0:n] = v * d1
    mat[2 * n : 3 * n, n : 2 * n] = og * eye
    mat[3 * n : 4 * n, 0:n] = -og * eye
    mat[3 * n : 4 * n, n : 2 * n] = v * d1
    mat[2 * n : 3 * n, 2 * n : 3 * n] = eye
    mat[3 * n : 4 * n, 3 * n : 4 * n] = eye

    scale = float(np.max(np.abs(mat)))
    asym = float(np.max(np.abs(mat - mat.T)))
    assert asym <= 1e-9 * scale, f"dense operator asymmetric: {asym:.3e} vs scale {scale:.3e}"
    idx = _flat_order(n)
    return 0.5 * (mat + mat.T)[np.ix_(idx, idx)]


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
    x = flat(w)
    assert x.dtype == float and x.shape == (4 * grid.points,)
    u1, u2 = x.view(complex).reshape(2, grid.points)
    assert np.array_equal(u1, w.u1)
    assert np.array_equal(u2, w.u2)
    assert np.array_equal(x[1 : 2 * grid.points : 2], w.u1.imag)  # re/im interleaved


def test_assembly_symmetric(op, grid):
    """The whitened product the delta solve runs is symmetric by construction:
    <x, W M W y> = <W M W x, y> to rounding on random vectors."""
    x, y = np.random.default_rng(2).standard_normal((2, 4 * grid.points))
    mx, my = op.whitened_matvec(x), op.whitened_matvec(y)
    assert abs(x @ my - mx @ y) < 1e-13 * np.linalg.norm(mx) * np.linalg.norm(y)


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
    op = _operator(w, ap)
    n = grid.points
    d2 = _derivative_matrices(grid)[1]
    gram = np.eye(4 * n)
    gram[0:n, 0:n] -= d2
    gram[n : 2 * n, n : 2 * n] -= d2
    idx = _flat_order(n)
    gram = gram[np.ix_(idx, idx)]
    cons = np.column_stack([flat(f) for f in symmetry_directions(op.profile)])
    basis = np.linalg.qr(cons, mode="complete")[0][:, 3:]
    a = basis.T @ _dense_matrix(op) @ basis
    b = basis.T @ gram @ basis
    want = sla.eigh(0.5 * (a + a.T), 0.5 * (b + b.T), subset_by_index=[0, 0], eigvals_only=True)[0]
    assert (want < 0) == (omega < math.sqrt(0.5))  # outside the stability window
    delta = spectrum_report(op).coercivity_delta
    assert delta == pytest.approx(want, rel=1e-10)
    # Grillakis-Shatah-Strauss: with Morse index 1 and kernel 2, the constrained
    # form is positive exactly when d/domega [omega ||phi||^2] < 0
    assert np.sign(delta) == -np.sign(slope_test(_family(grid, v), ap, omega, op=op))


def _whitened_dense(op):
    """a = G^(-1/2) M G^(-1/2), the dense oracle whitened in full."""
    return whiten(whiten(_dense_matrix(op), op.profile.grid).T, op.profile.grid)


def _delta_solve(op):
    """(delta, preconditioner, Ritz row x, W M W x) of a report: the last three
    from its delta call of ``_lobpcg``, the one with fixed rows."""
    solve, calls = spectrum._lobpcg, []

    def spy(apply, precondition, x, tol, fixed):
        out = solve(apply, precondition, x, tol, fixed)
        if len(fixed):
            calls.append((precondition, *out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_lobpcg", spy)
        delta = spectrum_report(op).coercivity_delta
    (call,) = calls
    return (delta, *call)


def _whitened_constraints(op):
    """Orthonormal columns spanning G^(-1/2) Y, Y the oracle's symmetry directions."""
    cons = np.stack([flat(f) for f in symmetry_directions(op.profile)])
    return np.linalg.qr(whiten(cons, op.profile.grid).T)[0]


def _dense_delta(op):
    """delta as a dense eigensolve: the lowest eigenvalue of P a P + s q q^T with
    a = G^(-1/2) M G^(-1/2) whitened in full, q orthonormal on G^(-1/2) Y,
    P = I - q q^T applied as rank-3 updates and s = ||a||_inf."""
    a = _whitened_dense(op)
    i_phi, i_j_phi, dphi = symmetry_directions(op.profile)
    cons = np.stack([flat(f) for f in (dphi, i_j_phi, i_phi)])
    q, _ = np.linalg.qr(whiten(cons, op.profile.grid).T)
    s = np.linalg.norm(a, np.inf)
    aq = a @ q
    a -= aq @ q.T
    a -= q @ aq.T
    a += q @ (q.T @ aq + s * np.eye(3)) @ q.T
    return sla.eigh(a, subset_by_index=[0, 0], eigvals_only=True)[0]


@pytest.mark.parametrize(
    "n, omega, v, theta, cells",
    [
        (256, 0.6, 0.0, 0.0, 0),  # centred and unphased: parity-symmetric, delta < 0
        (256, 0.8, 0.0, 0.0, 0),
        (512, 0.8, 0.0, 1.3, 7),  # the spectrum benchmark's phased, shifted profile
        (256, 0.8, 0.3, 0.0, 0),
        (256, 0.75, 0.6, 0.0, 0),
        (128, 0.3, -0.9, 0.0, 0),  # far outside the window, fast backward boost
    ],
)
def test_lanczos_delta_matches_dense_oracle(n, omega, v, theta, cells):
    """The LOBPCG delta equals the dense whitened, deflated eigensolve and
    repeats to the bit; its Ritz row is orthogonal to the whitened constraints
    to 1e-12, and its Kahan bound ||P (W M W x - x delta)||_2 is at most
    DELTA_TOL."""
    g = Grid(80.0, n)
    sp = SolitonParams(MODEL, omega=omega, v=v, theta=theta, x0=cells * g.spacing)
    op = _operator(sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp))
    want = _dense_delta(op)
    delta = spectrum_report(op).coercivity_delta
    assert delta == pytest.approx(want, rel=1e-12)
    again, _, x, ax = _delta_solve(op)  # a second report, its delta solve spied on
    assert again == delta
    q = _whitened_constraints(op)
    assert np.max(np.abs(x @ q)) < 1e-12
    r = ax - delta * x
    r -= (r @ q) @ q.T
    assert np.linalg.norm(r) <= spectrum.DELTA_TOL


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("v", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("n", [256, 255])
def test_structured_operator_matches_dense_oracle(n, v, p):
    """The oracle's FFT product and circulant Schur complement equal the dense
    oracle's M x and A - B B^T, the six-transform W M W equals W applied
    around that product (eight transforms), and the report's delta
    preconditioner equals the dense inverse of W M_free W - sigma, M_free the
    zero profile's operator and sigma PRECONDITIONER_SHIFT below its lowest
    eigenvalue, on the benchmark's phased, shifted profile; odd N has no
    Nyquist mode to zero.  p = 2 decays slower and gets a longer box."""
    g = Grid(100.0 if p == 2.0 else 80.0, n)
    sp = SolitonParams(ModelParams(1.0, p, 1), omega=0.8, v=v, theta=1.3, x0=7 * g.spacing)
    op = _operator(sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp))
    dense = _dense_matrix(op)

    x = np.random.default_rng(3).standard_normal((4 * n, 3))
    want = dense @ x
    assert np.max(np.abs(matvec(op, x.T) - want.T)) < 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(matvec(op, x[:, 0]) - want[:, 0])) < 1e-13 * np.max(np.abs(want[:, 0]))
    for z in (x.T, x[:, 0]):
        whitened = whiten(matvec(op, whiten(z, g)), g)
        assert np.max(np.abs(op.whitened_matvec(z) - whitened)) < 1e-13 * np.max(np.abs(whitened))

    n2 = 2 * n
    assert np.array_equal(dense[n2:, n2:], np.eye(n2))  # M = [[A, B], [B^T, I]]
    b = dense[:n2, n2:]
    schur = dense[:n2, :n2] - b @ b.T
    assert np.max(np.abs(schur_complement(op) - schur)) < 1e-13 * np.max(np.abs(schur))

    free = _whitened_dense(_operator(Field.zeros(g), op.params))
    sigma = sla.eigvalsh(free, subset_by_index=[0, 0])[0] - spectrum.PRECONDITIONER_SHIFT
    inverse = np.linalg.solve(free - sigma * np.eye(4 * n), x)
    precondition = _delta_solve(op)[1]
    assert np.max(np.abs(precondition(x.T) - inverse.T)) < 1e-12 * np.max(np.abs(inverse))


@pytest.mark.parametrize("omega, v", [(0.6, 0.0), (0.8, 0.0), (0.8, 0.3), (0.75, 0.6)])
def test_schur_counts_match_dense_eigensolve(grid, omega, v):
    """The Morse index and kernel read off S = A - B B^T equal those of the full
    4N x 4N eigensolve under its own rule (tolerance from max|eig(M)|)."""
    w, ap, _ = _profile(grid, omega, v)
    op = _operator(w, ap)
    ev = sla.eigvalsh(_dense_matrix(op))
    ktol = KERNEL_REL_TOL * np.max(np.abs(ev))
    rep = spectrum_report(op)
    assert rep.negative_count == np.sum(ev < -ktol)
    assert rep.kernel_dimension == np.sum(np.abs(ev) < ktol)


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
    ev = sla.eigvalsh(schur_complement(op))
    mu = 1.0 - omega**2
    assert abs(ev[0] + mu * ((p + 1) ** 2 / 4 - 1)) < 1e-10 * mu
    assert np.sum(np.abs(ev) < 1e-12) == 2


def test_schur_p2_higher_bound_state():
    """At p = 2 both Poschl-Teller blocks have one more bound state, at 3 mu / 4,
    and the report's low end holds it.  Matched by the nearest eigenvalue, not
    by sorted index: box states just below the continuum edge move with L and
    sit 4e-4 mu from it at L = 80."""
    grid = Grid(160.0, 1024)
    sp = SolitonParams(ModelParams(1.0, 2.0, 1), omega=0.8, v=0.0)
    op = assemble_second_variation(sample_soliton(sp, 0.0, grid), ActionParams.from_soliton(sp))
    ev = spectrum_report(op).eigenvalues
    mu = 1.0 - 0.8**2
    assert np.min(np.abs(ev - 0.75 * mu)) < 1e-10 * mu


@pytest.mark.parametrize(
    "n, length, p, omega, v, theta, cells",
    [
        (256, 80.0, 3.0, 0.6, 0.0, 0.0, 0),  # outside the window: delta < 0
        (256, 80.0, 3.0, 0.8, 0.0, 0.0, 0),
        (256, 80.0, 3.0, 0.8, 0.3, 0.0, 0),
        (256, 80.0, 3.0, 0.75, 0.6, 0.0, 0),
        (512, 80.0, 3.0, 0.8, 0.0, 1.3, 7),  # the spectrum benchmark's phased, shifted profile
        (128, 80.0, 3.0, 0.3, -0.9, 0.0, 0),  # Morse index 2, no kernel
        (255, 80.0, 3.0, 0.8, 0.3, 1.3, 7),  # odd N: no Nyquist mode to zero
        (255, 100.0, 2.0, 0.8, 0.0, 1.3, 7),
        (255, 100.0, 2.0, 0.8, 0.6, 1.3, 7),
        (255, 80.0, 4.0, 0.8, 0.0, 1.3, 7),
        (255, 80.0, 4.0, 0.8, 0.6, 1.3, 7),
    ],
)
def test_low_end_matches_dense_schur_oracle(n, length, p, omega, v, theta, cells):
    """The report's low end of S equals the bottom of the dense oracle's
    eigenvalues to 1e-10, its counts are the oracle's under the report's
    tolerance, its Kahan bound is at most KAHAN_MARGIN of that tolerance, and a
    second report repeats it to the bit."""
    g = Grid(length, n)
    sp = SolitonParams(ModelParams(1.0, p, 1), omega=omega, v=v, theta=theta, x0=cells * g.spacing)
    op = _operator(sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp))
    want = sla.eigvalsh(schur_complement(op))
    rep = spectrum_report(op)
    ev, ktol = rep.eigenvalues, rep.kernel_tolerance
    assert len(ev) == spectrum.LOW_END_BLOCK + spectrum.LOW_END_GUARD
    assert np.max(np.abs(ev - want[: len(ev)])) < 1e-10
    assert rep.negative_count == np.sum(want < -ktol)
    assert rep.kernel_dimension == np.sum(np.abs(want) < ktol)
    assert ev[spectrum.LOW_END_BLOCK - 1] > ktol
    assert spectrum._schur_low_end(op)[1] <= spectrum.KAHAN_MARGIN * ktol
    again = spectrum_report(op)
    assert np.array_equal(again.eigenvalues, ev)
    assert again.coercivity_delta == rep.coercivity_delta


def _report_with_low_end(op, monkeypatch, ev, eps, ktol):
    """``spectrum_report`` of a real operator with ``_schur_low_end`` crafted to
    return (ev, eps, ktol)."""
    monkeypatch.setattr(spectrum, "_schur_low_end", lambda _: (np.asarray(ev), eps, ktol))
    return spectrum_report(op)


def test_low_end_refused_when_the_kahan_bound_exceeds_its_margin(op, monkeypatch):
    """The first clause of the certificate alone: a Kahan bound above
    KAHAN_MARGIN * tol is refused although every Ritz value is more than the
    bound from +-tol."""
    ev, eps, ktol = [-1.16, -1e-15, 1e-15, 0.27, 0.31, 0.36], 5e-7, 1e-6
    assert eps > spectrum.KAHAN_MARGIN * ktol
    assert np.all(np.abs(np.abs(ev) - ktol) > eps)
    with pytest.raises(AssemblyError, match="not certified"):
        _report_with_low_end(op, monkeypatch, ev, eps, ktol)


def test_low_end_refused_when_a_ritz_value_is_within_the_bound_of_tol(op, monkeypatch):
    """The second clause of the certificate alone: a Ritz value within 5e-12 of
    tol, inside the Kahan bound, could belong to either class and is refused
    although the bound is within its margin."""
    ktol = 1e-6
    ev, eps = [-1.16, -1e-15, ktol + 5e-12, 0.27, 0.31, 0.36], 1e-8
    assert eps <= spectrum.KAHAN_MARGIN * ktol
    with pytest.raises(AssemblyError, match="not certified"):
        _report_with_low_end(op, monkeypatch, ev, eps, ktol)


def test_low_end_block_doubles_past_the_kernel():
    """Twice the profile in the potential deepens the well to seven negative
    eigenvalues: the block of four doubles to eight and the counts still equal
    the dense oracle's."""
    g = Grid(80.0, 256)
    sp = SolitonParams(MODEL, omega=0.8, v=0.0)
    phi = sample_soliton(sp, 0.0, g)
    deeper = second_variation_potential(2.0 * phi.u1, 3.0)
    op = RealizedOperator(phi, ActionParams.from_soliton(sp), *deeper)
    want = sla.eigvalsh(schur_complement(op))
    ev, eps, ktol = spectrum._schur_low_end(op)
    assert len(ev) == 2 * spectrum.LOW_END_BLOCK + spectrum.LOW_END_GUARD
    assert np.sum(ev < -ktol) == np.sum(want < -ktol) == 7
    assert np.sum(np.abs(ev) < ktol) == np.sum(np.abs(want) < ktol) == 0
    assert np.max(np.abs(ev - want[: len(ev)])) < 1e-10
    assert eps <= spectrum.KAHAN_MARGIN * ktol


@pytest.mark.parametrize("n", [3, 4])
def test_low_end_block_that_spans_the_whole_space(n):
    """With w1 = 100 and w2 = 0 every eigenvalue of S is negative, so no block
    size puts a Ritz value above tol: the block grows to all 2N directions and
    returns every eigenvalue.  At N = 3 the first block already spans 2N; at
    N = 4 its one doubling is clamped to 2N - LOW_END_GUARD."""
    g = Grid(80.0, n)
    rng = np.random.default_rng(n)
    phi = Field(rng.standard_normal(n) + 1j * rng.standard_normal(n), np.zeros(n, complex), g)
    op = RealizedOperator(phi, ActionParams(0.8, 0.0, MODEL), np.full(n, 100.0), np.zeros(n, complex))
    want = sla.eigvalsh(schur_complement(op))
    ev, _, ktol = spectrum._schur_low_end(op)
    assert len(ev) == 2 * n and np.sum(ev < -ktol) == 2 * n
    assert np.max(np.abs(ev - want)) < 1e-12


@pytest.mark.parametrize("v", [-0.4, 0.4])
def test_morse_index_and_kernel_on_the_construction_grid(v):
    """At the backward construction's own grid, (L, N) = (160, 2048), where S is
    4096 x 4096, the report gives Morse index 1 and kernel 2 at omega = 0.8."""
    g = Grid(160.0, 2048)
    sp = SolitonParams(MODEL, omega=0.8, v=v)
    op = assemble_second_variation(sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp))
    rep = spectrum_report(op)
    print(f"v = {v:+.1f}: Morse {rep.negative_count}, kernel {rep.kernel_dimension}, "
          f"delta {rep.coercivity_delta:.13g}")
    assert rep.negative_count == 1
    assert rep.kernel_dimension == 2
    assert rep.coercivity_delta > 0


def test_kernel_vectors(op, grid):
    from nlkglab.grids import spectral_derivative

    phi = op.profile
    dense = _dense_matrix(op)
    rho = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    for z in (
        Field(1j * phi.u1, 1j * phi.u2, grid),
        Field(spectral_derivative(phi.u1, grid), spectral_derivative(phi.u2, grid), grid),
    ):
        zf = flat(z)
        rayleigh = abs(zf @ (dense @ zf)) / (zf @ zf)
        assert rayleigh < 1e-6 * rho
        # the action of the operator is itself small on kernel vectors
        assert np.linalg.norm(matvec(op, zf)) / np.linalg.norm(zf) < 1e-7


def _hessian_form(op, z):
    """<S'' Z, Z> as ``slope_test`` reads it: twice the localized quadratic term
    of one unit-weight cell at the operator's profile."""
    return 2.0 * localized_hessian_form(z, [op.profile], np.ones((1, op.profile.grid.points)), [op.params])


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
    assert _hessian_form(op, z) == pytest.approx(fd, rel=1e-5)


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
    assert _hessian_form(op, z) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("v", [0.0, 0.3])
def test_matvec_is_the_linearized_gradient(grid, v):
    """M Z = (S'(Phi + eps Z) - S'(Phi - eps Z)) / (2 eps) + O(eps^2), as vectors.
    At p = 3 the nonlinearity is cubic, so the remainder is exactly eps^2 times
    one field: measured 9.40e-4 eps^2 (v = 0) and 9.45e-4 eps^2 (v = 0.3) of
    ||M Z|| at eps = 0.1 and 0.01."""
    w, ap, _ = _profile(grid, 0.8, v)
    op = assemble_second_variation(w, ap)
    rng = np.random.default_rng(8)
    k = grid.deriv_wavenumbers
    mask = np.abs(k) < 0.4 * np.max(np.abs(k))
    z = Field(
        np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))),
        np.fft.ifft(mask * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points))),
        grid,
    )
    mz = matvec(op, flat(z))
    errs = []
    for eps in (0.1, 0.01):
        fd = (1.0 / (2 * eps)) * (action_gradient(w + eps * z, ap) - action_gradient(w + (-eps) * z, ap))
        errs.append(np.linalg.norm(flat(fd) - mz) / np.linalg.norm(mz))
        assert errs[-1] <= 1e-3 * eps**2
    assert errs[1] / errs[0] == pytest.approx(1e-2, rel=1e-5)


def test_morse_index_and_kernel(op):
    rep = spectrum_report(op)
    assert rep.negative_count == 1
    assert rep.kernel_dimension == 2
    assert rep.coercivity_delta > 0
    # regression constant from the first converged run at this resolution
    assert rep.coercivity_delta == pytest.approx(0.0906, abs=0.003)


def test_morse_window_sample(grid):
    """Morse index 1 and kernel dim 2 across the sampled stability window.

    Coarse grids here keep the Schur eigensolves and the delta solve fast; the resulting
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
            rep = spectrum_report(_operator(w, ap))
            assert rep.negative_count == 1, (om, v)
            assert rep.kernel_dimension == 2, (om, v)
            assert rep.coercivity_delta > 0, (om, v)


@pytest.mark.parametrize("p, length, n", [(2.0, 80.0, 256), (3.0, 80.0, 256), (4.0, 120.0, 512)])
def test_delta_vanishes_at_stability_threshold(p, length, n):
    """delta changes sign with d/domega [omega ||phi_omega||^2], at the closed-form
    threshold omega_c = sqrt((p - 1)/4) for m = 1, v = 0 (Shatah; Grillakis, Shatah
    and Strauss): brentq on omega -> delta finds it to 1e-10.  p = 4 needs L = 120
    (at L = 80 its profile's boundary value warns), and N = 512 there keeps the
    profile critical."""
    model = ModelParams(1.0, p, 1)
    g = Grid(length, n)

    def delta(omega):
        sp = SolitonParams(model, omega=omega, v=0.0)
        op = assemble_second_variation(sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp))
        return spectrum_report(op).coercivity_delta

    omega_c = math.sqrt((p - 1.0) / 4.0)
    root = brentq(delta, omega_c - 0.03, omega_c + 0.03, xtol=1e-12)
    assert abs(root - omega_c) <= 1e-10


# Seeded draws for the Grillakis-Shatah-Strauss property test: for each p,
# default_rng(p) draws omega uniform on (0, 1) and v uniform on [-0.6, 0.6],
# both rounded to 3 digits; a draw within 0.03 of omega_c is skipped, and the
# first five that pass the domain and resolution rules below are kept.
GSS_DRAWS = [
    (2, 0.262, -0.242), (2, 0.814, -0.49), (2, 0.6, 0.274), (2, 0.188, -0.534), (2, 0.275, 0.189),
    (3, 0.801, 0.099), (3, 0.892, 0.102), (3, 0.83, 0.189), (3, 0.878, -0.477), (3, 0.85, -0.127),
    (4, 0.902, -0.027), (4, 0.915, 0.045), (4, 0.903, -0.126), (4, 0.91, 0.005), (4, 0.916, 0.238),
    (5, 0.898, 0.413), (5, 0.924, -0.207), (5, 0.89, -0.023), (5, 0.922, -0.358), (5, 0.89, -0.309),
]


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_grillakis_shatah_strauss_across_the_window(p):
    """On seeded draws of (omega, v) the report gives Morse index 1 and kernel 2,
    delta has the opposite sign of the slope d/domega [omega ||phi||^2] / gamma,
    and the slope is negative exactly when omega > omega_c = sqrt((p - 1)/4):
    Grillakis, Shatah and Strauss across the window, boosted.  Each draw is
    checked against the two rules that kept it: its profiles raise no tail
    warning (boundary ratio at omega + OMEGA_STEP, the slope's largest sample,
    at most 1e-10) and have at least 6.5 points per width.  p = 2-4 run at
    (L, N) = (120, 512), and p = 5, which there needs sqrt(mu) >= 0.39 for the
    first rule and gamma sqrt(mu) <= 0.33 for the second, at (160, 1024)."""
    g = Grid(160.0, 1024) if p == 5 else Grid(120.0, 512)
    model = ModelParams(1.0, float(p), 1)
    omega_c = math.sqrt((p - 1.0) / 4.0)
    for _, omega, v in [d for d in GSS_DRAWS if d[0] == p]:
        assert boundary_ratio(model, omega + spectrum.OMEGA_STEP, g) <= 1e-10, (omega, v)
        assert points_per_width(model, omega, v, g) >= 6.5, (omega, v)
        sp = SolitonParams(model, omega=omega, v=v)
        ap = ActionParams.from_soliton(sp)
        op = assemble_second_variation(sample_soliton(sp, 0.0, g), ap)
        rep = spectrum_report(op)
        slope = slope_test(lambda om: sample_soliton(replace(sp, omega=om), 0.0, g), ap, omega, op=op)
        print(f"p = {p}, omega = {omega:.3f}, v = {v:+.3f}: delta {rep.coercivity_delta:+.6f}, "
              f"slope {slope:+.6f}")
        assert (rep.negative_count, rep.kernel_dimension) == (1, 2), (omega, v)
        assert np.sign(rep.coercivity_delta) == -np.sign(slope), (omega, v)
        assert (slope < 0) == (omega > omega_c), (omega, v)


@pytest.mark.parametrize(
    "length, n, v, theta, cells",
    [(80.0, 512, 0.0, 1.3, 7), (160.0, 2048, 0.4, 0.0, 0)],  # the benchmark's; the construction's
)
def test_slope_is_the_oracle_form(length, n, v, theta, cells):
    """The slope, read from the density forms, equals h y^T M y by the oracle
    product on the same omega-derivative y to 1e-13 relative."""
    g = Grid(length, n)
    sp = SolitonParams(MODEL, omega=0.8, v=v, theta=theta, x0=cells * g.spacing)
    ap = ActionParams.from_soliton(sp)
    op = assemble_second_variation(sample_soliton(sp, 0.0, g), ap)

    def family(om):
        return sample_soliton(replace(sp, omega=om), 0.0, g)

    want = quadratic_form(op, spectrum._frequency_derivative(family, 0.8))
    assert slope_test(family, ap, 0.8, op=op) == pytest.approx(want, rel=1e-13)


def test_slope_at_stable_point(op, grid):
    slope = slope_test(_family(grid, 0.0), op.params, 0.8, op=op)
    assert slope == pytest.approx(-28.0 / 15.0, abs=1e-4)
    assert slope < 0


def test_slope_matches_analytic_formula(op, grid):
    slope = slope_test(_family(grid, 0.0), op.params, 0.8, op=op)
    assert slope == pytest.approx(slope_analytic(MODEL, 0.8, 1.0, 4.0), abs=1e-4)


def test_slope_outside_window_positive(grid):
    w, ap, _ = _profile(grid, 0.6, 0.0)
    # narrow profile, marginal resolution at this N: no criticality check
    op6 = _operator(w, ap)
    slope = slope_test(_family(grid, 0.0), ap, 0.6, op=op6)
    assert slope > 0
    # analytic value: (1 - 2 w^2)/sqrt(1 - w^2) * 4 with w = 0.6
    assert slope == pytest.approx(4.0 * (1 - 0.72) / math.sqrt(0.64), abs=1e-4)


def test_slope_refused_within_its_step_of_sqrt_m(op, grid):
    """The centred omega-difference needs omega +- OMEGA_STEP inside the band:
    5e-5 below sqrt(m) is a ValueError before the family is sampled."""
    with pytest.raises(ValueError, match="^omega too close to sqrt\\(m\\) for centered differencing$"):
        slope_test(_family(grid, 0.0), op.params, math.sqrt(MODEL.m) - 5e-5, op=op)


def test_slope_zero_at_window_boundary():
    om = math.sqrt(0.5)
    assert slope_analytic(MODEL, om, 1.0, 4.0) == pytest.approx(0.0, abs=1e-14)


def test_frequency_derivative_identity(op, grid):
    res = frequency_derivative_residual(_family(grid, 0.0), 0.8, 1.0, op=op)
    assert res < 1e-5


@pytest.mark.parametrize("v", [-0.4, 0.4])
@pytest.mark.parametrize("points", [1024, 2048])
def test_frequency_tangent_identity(points, v):
    """The closed-form omega-tangent solves the differentiated critical-point
    equation S''(Phi) dPhi/domega + (1/gamma) iJ Phi = 0 to rounding, where
    the omega-difference of ``frequency_derivative_residual`` leaves 2.6e-7."""
    g = Grid(160.0, points)
    sp = SolitonParams(MODEL, omega=0.8, v=v)
    phi = sample_soliton(sp, 0.0, g)
    op = assemble_second_variation(phi, ActionParams.from_soliton(sp))
    res = matvec(op, flat(soliton_tangents(sp, g)[1])) + flat(symmetry_directions(phi)[1]) / sp.gamma
    assert np.linalg.norm(res) * math.sqrt(g.spacing) < 1e-11


def test_free_operator_positive(grid):
    for og, v in ((0.8, 0.0), (0.8 / 1.25, 0.6)):
        ap = ActionParams(og, v, MODEL)
        floor = free_operator_floor(ap, grid)
        assert floor > 0
        # oracle: the dense 4N x 4N operator of the zero profile
        free = _operator(Field.zeros(grid), ap)
        assert floor == pytest.approx(sla.eigvalsh(_dense_matrix(free))[0], rel=1e-12)


def test_coercivity_boosted(grid):
    w, ap, _ = _profile(grid, 0.8, 0.3)
    rep = spectrum_report(assemble_second_variation(w, ap))
    assert rep.negative_count == 1
    assert rep.kernel_dimension == 2
    assert rep.coercivity_delta > 0


def test_spectrum_report_memory_below_one_dense_matrix():
    """Assembly and the full report at N = 512 peak below the 32 MiB that one
    dense 4N x 4N float64 matrix would take (traced Python and numpy
    allocations)."""
    g = Grid(80.0, 512)
    sp = SolitonParams(MODEL, omega=0.8, v=0.0, theta=1.3, x0=7 * g.spacing)
    phi, ap = sample_soliton(sp, 0.0, g), ActionParams.from_soliton(sp)
    tracemalloc.start()
    try:
        rep = spectrum_report(assemble_second_variation(phi, ap))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.negative_count, rep.kernel_dimension) == (1, 2)
    assert peak < (4 * 512) ** 2 * 8
