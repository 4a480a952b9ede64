"""Reference implementations the tests compare the library against.

Closed forms and second computations that no nlkglab program runs: the
Nehari functional and its ray projection, the ramp as one ``np.where``,
the ramp derivative, the standing-wave energy by quadrature and by
scaling, the Pohozaev ratio, the profile tail slope, the closed-form
frequency slope, the differentiated critical-point residual, the second
variation's product M z and its quadratic form h z^T M z, the
essential-spectrum floor from the free symbol, the Schur complement of the
second variation as a dense matrix, the H1 x L2 whitening W = G^(-1/2) on
flattened fields, the radial stencil residual by index gathers,
Petviashvili's iteration with a stencil every step, the soliton sample
with a spectral derivative in u2, the sampler with its boost phase by one
complex exponential per point and its tangent formulas in terms of the
sample, the sampler's own tangents R' and dR/domega as a pair of Fields, a
sampler that fills the fit's rows in separate steps, the action
gradient by three spectral derivatives in physical space, and the symmetry
directions as a triple of Fields.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.linalg as sla

from nlkglab.functionals import ActionParams, action_gradient, action_symbol, energy
from nlkglab.functionals import quadratic_gradient
from nlkglab import profiles
from nlkglab.grids import Field, Grid, flat, spectral_derivative, symmetry_rows
from nlkglab.grids import wrap_coordinate
from nlkglab.profiles import GroundState, ModelParams, SolitonParams, ground_state_1d
from nlkglab.profiles import _check_domain, _log_slope, free_flow, phi_omega
from nlkglab.spectrum import RealizedOperator, _frequency_derivative


def pair_inner(a: Field, b: Field) -> float:
    """Real L2 x L2 pairing of two Hamiltonian states."""
    g = a.grid
    return float(
        np.real(np.sum(a.u1 * np.conj(b.u1) + a.u2 * np.conj(b.u2))) * g.spacing
    )


def symmetry_directions(w: Field) -> tuple[Field, Field, Field]:
    """The symmetry directions i w, i J w = (i u2, -i u1) and w' = (u1', u2')
    as a Field triple, each built on its own: the reference for the rows of
    ``grids.symmetry_rows``."""
    g = w.grid
    return (
        Field(1j * w.u1, 1j * w.u2, g),
        Field(1j * w.u2, -1j * w.u1, g),
        Field(w.du1, spectral_derivative(w.u2, g), g),
    )


# Along a ray s -> S(sW) the quadratic part scales as s^2 and the nonlinear
# part as s^(p+1), so the Nehari constraint <S'(sW), sW> = 0 has the unique
# positive solution written in closed form below; it is the maximum of the
# ray, which is how the mountain-pass level is represented here.


class NehariProjectionError(ValueError):
    """The ray through W has no interior action maximum."""


def nehari_value(w: Field, ap: ActionParams) -> float:
    """Nehari functional I(W) = <S'(W), W>."""
    return pair_inner(action_gradient(w, ap), w)


def action_gradient_three_derivatives(w: Field, ap: ActionParams) -> Field:
    """S'(W) term by term in physical space, from the spectral derivatives u1',
    u1'' and u2' (ik and -k^2 on the Nyquist-zeroed wavenumbers), where
    ``functionals.action_gradient`` applies the Fourier symbol once."""
    g, og, v, model = w.grid, ap.omega_over_gamma, ap.v, ap.model
    d2u1 = np.fft.ifft(-(g.deriv_wavenumbers**2) * np.fft.fft(w.u1))
    du1 = spectral_derivative(w.u1, g)
    du2 = spectral_derivative(w.u2, g)
    g1 = -d2u1 + model.m * w.u1 - np.abs(w.u1) ** (model.p - 1.0) * w.u1 + 1j * og * w.u2 - v * du2
    return Field(g1, w.u2 - 1j * og * w.u1 + v * du1, g)


def _ray_parts(w: Field, ap: ActionParams) -> tuple[float, float]:
    """(quadratic part of I, nonlinear part of I): I(sW) = s^2 a - s^(p+1) b."""
    p = ap.model.p
    h = w.grid.spacing
    nonlin = float(np.sum(np.abs(w.u1) ** (p + 1.0)) * h)
    quad = nehari_value(w, ap) + nonlin
    return quad, nonlin


def nehari_project(w: Field, ap: ActionParams) -> tuple[float, Field]:
    """Scale W onto the Nehari set: s* with I(s* W) = 0, maximizing s -> S(sW)."""
    quad, nonlin = _ray_parts(w, ap)
    if nonlin <= 0.0:
        raise NehariProjectionError("first component vanishes; no ray maximum")
    if quad <= 0.0:
        raise NehariProjectionError("quadratic part non-positive; no interior maximum")
    s_star = (quad / nonlin) ** (1.0 / (ap.model.p - 1.0))
    return s_star, s_star * w


def ramp_where(s: np.ndarray | float):
    """``functionals.ramp`` as one ``np.where`` over a sine of every input."""
    s = np.asarray(s, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # sin(+-inf) and pi * 1e308
        sine = np.sin(np.pi * (s + 1.0) / 4.0) ** 2
    return np.where(s <= -1.0, 0.0, np.where(s >= 1.0, 1.0, sine))


def ramp_derivative(s: np.ndarray | float):
    s = np.asarray(s, dtype=float)
    inside = (s > -1.0) & (s < 1.0)
    out = np.zeros_like(s)
    out[inside] = (np.pi / 4.0) * np.sin(np.pi * (s[inside] + 1.0) / 2.0)
    return out


def standing_wave_energy(model: ModelParams, omega: float, grid: Grid) -> float:
    """Energy of the standing wave (phi_omega, i omega phi_omega) by quadrature."""
    phi = ground_state_1d(model, omega, grid).samples
    return energy(Field(phi, 1j * omega * phi, grid), model)


def standing_wave_energy_scaling(model: ModelParams, omega: float) -> float:
    """Closed-form standing-wave energy per unit ||phi_tilde||_2^2.

    The scaling relations reduce E(Phi_omega) to powers of (m - omega^2)
    times ||phi_tilde||^2.  The gradient term carries the Pohozaev factor
    d(p-1)/(2d-(d-2)(p+1)); replacing that factor by 1 reproduces a commonly
    quoted but inconsistent collapsed formula (0.492 vs 0.456 at m=1, p=3,
    d=1, omega=0.8).  Direct quadrature (``standing_wave_energy``) is the
    ground truth and matches this form.
    """
    m, p, d = model.m, model.p, model.d
    mu = m - omega * omega
    a_grad = (p * (2 - d) + 2 + d) / (2 * (p - 1))
    a_mass = (4 - d * (p - 1)) / (2 * (p - 1))
    poho = pohozaev_ratio(model)
    return (
        (p - 1) / (2 * (p + 1)) * (poho * mu**a_grad + m * mu**a_mass)
        + (p + 3) / (2 * (p + 1)) * omega**2 * mu**a_mass
    )


def pohozaev_ratio(model: ModelParams) -> float:
    """||grad phi_tilde||^2 / ||phi_tilde||^2 from the Pohozaev identity."""
    p, d = model.p, model.d
    return d * (p - 1) / (2 * d - (d - 2) * (p + 1))


def tail_log_slope(gs: GroundState) -> float:
    """Log-linear slope of the profile tail over the outer quarter of the domain.

    For an exponentially decaying profile this approaches -sqrt(m - omega^2).
    """
    if gs.grid is None:
        raise ValueError("tail_log_slope needs a grid-sampled ground state")
    x = gs.grid.x
    mask = (x > 0.25 * gs.grid.length) & (x < 0.5 * gs.grid.length - 2 * gs.grid.spacing)
    vals = gs.samples[mask]
    usable = vals > 1e-280
    coef = np.polyfit(x[mask][usable], np.log(vals[usable]), 1)
    return float(coef[0])


def radial_stencil_residual_gather(
    phi: np.ndarray, r: np.ndarray, mu: float, p: float, d: int
) -> np.ndarray:
    """``profiles._radial_stencil_residual`` with its five neighbours taken by
    index gathers ext[idx + k] instead of slices; the same arithmetic in the
    same order, so the same bits."""
    n = len(phi) - 1
    h = r[1] - r[0]
    ext = np.concatenate([phi[2:0:-1], phi, phi[-1:]])
    idx = np.arange(0, n - 1) + 2
    d2 = (
        -ext[idx - 2] + 16 * ext[idx - 1] - 30 * ext[idx] + 16 * ext[idx + 1] - ext[idx + 2]
    ) / (12 * h * h)
    d1 = (ext[idx - 2] - 8 * ext[idx - 1] + 8 * ext[idx + 1] - ext[idx + 2]) / (12 * h)
    res = np.empty(n - 1)
    res[0] = d * d2[0] - mu * phi[0] + np.abs(phi[0]) ** (p - 1.0) * phi[0]
    ri = r[1 : n - 1]
    res[1:] = (
        d2[1 : n - 1]
        + (d - 1) / ri * d1[1 : n - 1]
        - mu * phi[1 : n - 1]
        + np.abs(phi[1 : n - 1]) ** (p - 1.0) * phi[1 : n - 1]
    )
    return res


def petviashvili_stencil_every_iteration(
    r: np.ndarray, mu: float, p: float, d: float, band: np.ndarray
) -> np.ndarray:
    """``profiles._petviashvili`` taking M phi from the stencil at every
    iterate, M phi = phi^p - ``_radial_stencil_residual(phi)``, instead of
    carrying it over from the previous solve."""
    from scipy.linalg import get_lapack_funcs

    n = len(r) - 1
    free = slice(0, n - 1)
    weight = r[free] ** (d - 1.0)
    lu = np.zeros((7, n - 1), order="F")
    lu[2:] = -band
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (lu,))
    lu, piv, info = gbtrf(lu, 2, 2, overwrite_ab=True)
    assert info == 0
    phi = np.zeros(n + 1)
    phi[free] = np.exp(-r[free] ** 2)
    for _ in range(profiles.PETVIASHVILI_MAX_ITER):
        power = np.abs(phi[free]) ** (p - 1.0) * phi[free]
        m_phi = power - profiles._radial_stencil_residual(phi, r, mu, p, d)
        s = np.sum(weight * m_phi * phi[free]) / np.sum(weight * power * phi[free])
        new = s ** (p / (p - 1.0)) * gbtrs(lu, 2, 2, power, piv, overwrite_b=True)[0]
        change = np.max(np.abs(new - phi[free]))
        phi[free] = new
        if change < profiles.PETVIASHVILI_TOL * np.max(np.abs(new)):
            return phi
    raise profiles.ShootingError("Petviashvili iteration did not converge")


def sample_soliton_spectral(sp: SolitonParams, t: float, grid: Grid) -> Field:
    """``profiles.sample_soliton`` with gamma phi'(gamma y) in u2 taken as the
    spectral derivative of the sampled profile; no domain check.  The phase is
    the sampler's own (``profiles._boost_phase``), so u1 is the sampler's."""
    angle, shift = free_flow(sp, t)
    y = wrap_coordinate(grid.x - shift, grid.length)
    prof = phi_omega(sp.gamma * y, sp.model, sp.omega)
    dprof = spectral_derivative(prof, grid)
    phase = profiles._boost_phase(angle, -sp.gamma * sp.omega * sp.v, y, grid)
    return Field(phase * prof, phase * (1j * sp.omega * sp.gamma * prof - sp.v * dprof), grid)


def sample_soliton_reference(sp: SolitonParams, t: float, grid: Grid, rows=None, d_omega=None) -> Field:
    """``profiles.sample_soliton`` with its boost phase e^{-i gamma omega v y}
    taken by one complex exponential per grid point, and, given the views
    ``rows`` and ``d_omega``, its tangents from ``_tangents_of_sample``: the
    reference for the tabled phase and the one-pass tangents."""
    if sp.model.d != 1:
        raise ValueError("soliton sampling is implemented for d=1 dynamics")
    _check_domain(sp.model, sp.omega, grid)
    angle, shift = free_flow(sp, t)
    y = wrap_coordinate(grid.x - shift, grid.length)
    prof = phi_omega(sp.gamma * y, sp.model, sp.omega)
    s, th, h = _log_slope(sp, y)
    dprof = h * prof
    phase = np.exp(1j * angle) * np.exp(-1j * sp.gamma * sp.omega * sp.v * y)
    sample = Field(phase * prof, phase * (1j * sp.omega * sp.gamma * prof - sp.v * dprof), grid)
    if rows is not None:
        size = grid.points
        _tangents_of_sample(sp, y, s, th, h, sample, rows[2], d_omega)
        symmetry_rows(sample, Field(rows[2, :size], rows[2, size:], grid), out=rows)
    return sample


def _tangents_of_sample(sp, y, s, th, h, sample, dx, dw) -> None:
    """d/dx and d/domega of ``sample``, the soliton sp at the wrapped y with
    (s, th, h) = ``profiles._log_slope(sp, y)``, in closed form from the
    sample's u1 and u2: each written into a (2N,) complex array or view.

    With mu = m - omega^2, s = sqrt(mu) gamma y and b = (p-1)/2, the profile
    phi_omega(gamma y) has the real log-derivatives h = -gamma sqrt(mu) tanh(bs)
    in x, with h' = -b gamma^2 mu sech^2(bs), and g = (omega/mu)(s tanh(bs) - 1/b)
    in omega, with g' = dg/dx.  The boost phase e^{cy}, c = -i gamma omega v,
    gives c in x and i a in omega, a = -gamma v y.  Then

        dx u1 = u1 (h + c),      dx u2 = c u2 + u1 (i gamma omega h - v (h' + h^2)),
        dw u1 = u1 (g + i a),    dw u2 = i a u2 + u1 (i gamma (1 + omega g) - v (g' + g h)).
    """
    model, om, gam, v = sp.model, sp.omega, sp.gamma, sp.v
    u1, u2, size = sample.u1, sample.u2, sample.grid.points
    mu = model.m - om * om
    rmu = math.sqrt(mu)
    b = 0.5 * (model.p - 1.0)
    sech2 = 1.0 - th * th
    c = -1j * gam * om * v
    dh = (-b * gam * gam * mu) * sech2
    np.multiply(u1, h + c, out=dx[:size])
    np.add(c * u2, u1 * ((1j * gam * om) * h - v * (dh + h * h)), out=dx[size:])
    g = (om / mu) * (s * th - 1.0 / b)
    dg = (om * gam / rmu) * (th + b * s * sech2)
    ia = (-1j * gam * v) * y
    np.multiply(u1, g + ia, out=dw[:size])
    np.add(ia * u2, u1 * (1j * gam * (1.0 + om * g) - v * (dg + g * h)), out=dw[size:])


def soliton_tangents(sp: SolitonParams, grid: Grid) -> tuple[Field, Field]:
    """d/dx and d/domega of ``profiles.sample_soliton(sp, 0, grid)`` in closed
    form, as Fields: the sampler's own rows R' and dR/domega."""
    size = grid.points
    rows, dw = np.empty((3, 2 * size), complex), np.empty(2 * size, complex)
    profiles.sample_soliton(sp, 0.0, grid, rows, dw)
    return Field(rows[2, :size], rows[2, size:], grid), Field(dw[:size], dw[size:], grid)


def sampler_with_views(
    sample: Callable[[SolitonParams, float, Grid], Field],
    d_omega_of: Callable[[SolitonParams, Field], Field],
):
    """A stand-in for ``profiles.sample_soliton(sp, t, grid, rows, d_omega)``
    that fills the two views in separate steps: ``sample(sp, t, grid)``, its
    ``symmetry_directions`` (spectral w') into ``rows`` and
    ``d_omega_of(sp, sample)`` into ``d_omega``.  Its ``calls`` list holds
    the soliton of every call that filled views."""
    calls = []

    def sampler(sp, t, grid, rows=None, d_omega=None):
        w = sample(sp, t, grid)
        if rows is not None:
            for row, d in zip(rows, symmetry_directions(w)):
                row[:] = flat(d).view(complex)
            d_omega[:] = flat(d_omega_of(sp, w)).view(complex)
            calls.append(sp)
        return w

    sampler.calls = calls
    return sampler


def slope_analytic(model: ModelParams, omega: float, gamma: float, phi_tilde_norm2: float) -> float:
    """Closed form d/domega [omega (m - omega^2)^(2/(p-1) - d/2)] * ||phi_tilde||^2 / gamma."""
    e = 2.0 / (model.p - 1.0) - model.d / 2.0
    mu = model.m - omega * omega
    return (mu**e - 2.0 * e * omega**2 * mu ** (e - 1.0)) * phi_tilde_norm2 / gamma


def whiten(z: np.ndarray, grid: Grid) -> np.ndarray:
    """W z = G^(-1/2) z for each row of a stack of flattened fields: the
    multiplier g^(-1/2), g = 1 + k^2, on z1, the first half of the complex view,
    and the identity on z2; G is the H1 x L2 Gram of the flattening.  The
    reference for the whitening of ``RealizedOperator.whitened_matvec``."""
    out = z.copy()
    z1 = out.view(complex)[..., : grid.points]
    z1[...] = np.fft.ifft((1.0 + grid.deriv_wavenumbers**2) ** -0.5 * np.fft.fft(z1))
    return out


def matvec(op: RealizedOperator, z: np.ndarray) -> np.ndarray:
    """M z for a flattened field of length 4N, or for each row of a (k, 4N)
    stack: ``functionals.quadratic_gradient`` less the potential, one complex
    FFT pair per component.  The reference for ``op.whitened_matvec``, the
    Schur complement and the slope's density forms."""
    n = op.profile.grid.points
    zc = np.ascontiguousarray(z).view(complex)
    z1, z2 = zc[..., :n], zc[..., n:]
    l1, l2 = quadratic_gradient(z1, z2, op.params, op.profile.grid)
    return np.concatenate((l1 - op.w1 * z1 - op.w2 * np.conj(z1), l2), axis=-1).view(float)


def quadratic_form(op: RealizedOperator, z: Field) -> float:
    """<S'' Z, Z> = h z^T M z on the flattened field, by ``matvec``."""
    zf = flat(z)
    return float(op.profile.grid.spacing * zf @ matvec(op, zf))


def frequency_derivative_residual(
    phi_family: Callable[[float], Field],
    omega: float,
    gamma: float,
    op: RealizedOperator,
) -> float:
    """L2 norm of S''(Phi) dPhi/domega + (1/gamma) iJ Phi.

    Differentiating the critical-point equation in omega shows this vanishes;
    the discrete value is differencing plus assembly error.
    """
    lam = _frequency_derivative(phi_family, omega)
    i_j_phi = symmetry_directions(op.profile)[1]
    res = matvec(op, flat(lam)) + (1.0 / gamma) * flat(i_j_phi)
    return float(np.linalg.norm(res) * math.sqrt(op.profile.grid.spacing))


def free_operator_floor(ap: ActionParams, grid: Grid) -> float:
    """Smallest eigenvalue of the potential-free operator (essential-spectrum floor).
    It is complex-linear and Fourier-diagonal, so at each wavenumber its
    eigenvalues are those of the symbol [[a, i b], [-i b, 1]] with a and b from
    ``functionals.action_symbol``: the floor is the lower one's minimum."""
    a, b = action_symbol(ap, grid.deriv_wavenumbers)
    return float(np.min(0.5 * ((a + 1.0) - np.sqrt((a - 1.0) ** 2 + 4.0 * b * b))))


def schur_complement(op: RealizedOperator) -> np.ndarray:
    """The 2N x 2N Schur complement S = A - B B^T of M = [[A, B], [B^T, I]] as a
    dense matrix: the real view of the complex circulant with symbol a - b^2
    (``functionals.action_symbol``), less a 2 x 2 potential block per sample."""
    n = op.profile.grid.points
    a, b = action_symbol(op.params, op.profile.grid.deriv_wavenumbers)
    c = sla.circulant(np.fft.ifft(a - b * b))
    s = np.empty((n, 2, n, 2))
    s[:, 0, :, 0] = s[:, 1, :, 1] = c.real
    s[:, 1, :, 0] = c.imag
    s[:, 0, :, 1] = -c.imag
    i = np.arange(n)
    s[i, 0, i, 0] -= op.w1 + op.w2.real
    s[i, 1, i, 1] -= op.w1 - op.w2.real
    s[i, 0, i, 1] -= op.w2.imag
    s[i, 1, i, 0] -= op.w2.imag
    return s.reshape(2 * n, 2 * n)
