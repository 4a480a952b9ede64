"""Time-reversible Strang splitting for the Hamiltonian flow, stepped in Fourier space.

The flow splits into two exactly solvable pieces:

- linear: each Fourier mode rotates with frequency Omega_k = sqrt(m + k^2),
      u1_k <-  cos(Omega tau) u1_k + sin(Omega tau)/Omega u2_k
      u2_k <- -Omega sin(Omega tau) u1_k + cos(Omega tau) u2_k
- nonlinear: pointwise, u1 frozen, u2 += tau |u1|^(p-1) u1.

One step is half linear / full nonlinear / half linear.  Both sub-flows
are exact and each is reversed by negating tau, so the composition is
symmetric, second order, and backward integration is just dt < 0.  The
charge is conserved exactly by both sub-flows and the momentum up to
aliasing, so their drift sits at rounding level; energy oscillates at
O(dt^2) with no secular growth.

The closing half rotation of one step and the opening half rotation of the
next compose exactly into one full rotation, so the state is kept as Fourier
coefficients (u1_k, u2_k), half a rotation ahead of the step boundary.  A
step is then one inverse FFT of u1_k for the kick, one FFT of the
nonlinearity added to u2_k, and one full rotation: 2 FFTs instead of 8.  The
field returns to physical space only at sync points, where a field is
wanted: each hook step and the last step.  There the coefficients are
rotated back by half a step and both components inverse transformed; the
stepping then goes on from the same coefficients.  The blow-up check needs
no sync: every 16th step it reads |u1| of that step's kick input, the
modulus the kick computes anyway.  Without hooks a run of n steps takes
2n + 4 FFTs.  The steps between two sync points run as one stretch inside
one ``np.errstate``; hooks run outside it.

The transforms are ``scipy.fft``'s, which return the same bits as ``np.fft``
(both are pocketfft) in less time per call.  ``evolve`` imports them when it
is called, not at module level: importing ``scipy.fft`` pulls in
``scipy.special`` and takes tens of milliseconds that a run without time
stepping need not pay.  The rotation coefficients are stored as complex
arrays with zero imaginary parts.  numpy casts a real factor to complex
before a real-by-complex product anyway, so the stored form gives the same
bits and skips that cast on every call; each output is one product plus one
in-place sum, and the kick is added to u2_k in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .functionals import charge, energy, momentum
from .grids import Field, NumericalFailure, raise_problems
from .profiles import ModelParams

__all__ = [
    "IntegratorConfig",
    "step_problems",
    "span_problems",
    "DiagnosticsRecord",
    "BlowUpError",
    "period_problems",
    "evolve",
]

BLOWUP_AMPLITUDE = 1e6


class BlowUpError(NumericalFailure):
    """Focusing blow-up (or discrete instability) detected."""

    def __init__(self, t: float, amplitude: float):
        self.t = t
        self.amplitude = amplitude
        super().__init__(f"solution blew up at t={t:.6g} (sup|u1|={amplitude:.3e})")


def step_problems(dt: float, spacing: Optional[float]) -> list[str]:
    """The rules a signed step breaks, on a grid of ``spacing`` when one is given.
    |dt| <= 0.5 * spacing is an accuracy heuristic for the splitting error;
    the exact linear sub-flow is unconditionally stable."""
    if not (dt != 0.0 and math.isfinite(dt)):
        return [f"dt must be nonzero and finite (got {dt})"]
    if spacing is not None and abs(dt) > 0.5 * spacing + 1e-15:
        return [f"|dt|={abs(dt)} exceeds the stability heuristic 0.5*spacing={0.5 * spacing}"]
    return []


def span_problems(t0: float, t1: float, dt: float) -> list[str]:
    """The rules a time span breaks for a signed step dt: both times finite and
    (t1 - t0)/dt a finite whole number of steps, positive unless t1 == t0, and
    small enough that its float holds a fraction of a step (below 2**52)."""
    times = {"t0": t0, "t1": t1}
    problems = [f"{name}={t} must be finite" for name, t in times.items() if not math.isfinite(t)]
    if problems or t1 == t0:
        return problems
    ratio = (t1 - t0) / dt
    nsteps = round(ratio) if math.isfinite(ratio) else 0
    if nsteps <= 0 or abs(ratio - nsteps) > 1e-8 * max(1.0, abs(ratio)):
        return [f"(t1-t0)/dt = {ratio} is not a finite positive whole number of steps"]
    if math.ulp(ratio) >= 1.0:  # every float this large is whole: the test above cannot fail
        return [f"(t1-t0)/dt = {ratio} steps is too large a count to check as whole steps"]
    return []


def period_problems(period: float) -> list[str]:
    """The rule a diagnostic period breaks: it must be positive and finite."""
    if math.isfinite(period) and period > 0:
        return []
    return [f"diag_period must be positive and finite (got {period})"]


@dataclass
class IntegratorConfig:
    """Step size; its sign is the direction."""

    dt: float

    def __post_init__(self) -> None:
        raise_problems(step_problems(self.dt, None))


@dataclass
class DiagnosticsRecord:
    """Snapshot of the conserved quantities and the field."""

    t: float
    energy: float
    charge: float
    momentum: float
    field: Field


class _Rotation:
    """The exact linear flow over ``tau`` acting on Fourier coefficients.
    The coefficients are real values held as complex arrays; the outputs are
    new arrays, so the inputs are never written."""

    def __init__(self, omega: np.ndarray, tau: float):
        self.cos = np.cos(tau * omega).astype(complex)
        self.sin_over = (np.sin(tau * omega) / omega).astype(complex)
        self.sin_times = (-omega * np.sin(tau * omega)).astype(complex)

    def __call__(self, f1: np.ndarray, f2: np.ndarray):
        g1 = self.cos * f1
        g1 += self.sin_over * f2
        g2 = self.sin_times * f1
        g2 += self.cos * f2
        return g1, g2


def _check_amplitude(modulus: np.ndarray, t: float) -> None:
    """Raise BlowUpError when sup|u1|, read from the modulus |u1|, is not finite or too large."""
    amp = float(np.max(modulus))
    if not np.isfinite(amp) or amp > BLOWUP_AMPLITUDE:
        raise BlowUpError(t, amp)


def evolve(
    w: Field,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
    model: ModelParams,
    hooks: Sequence[Callable[[DiagnosticsRecord], None]] = (),
    diag_period: float = 0.0,
) -> Field:
    """Integrate from t0 to t1; t1 < t0 needs dt < 0.

    The step keeps the rules of ``step_problems`` on the field's grid and the
    span those of ``span_problems``; one ValueError names every rule a call
    breaks.  Hooks fire at t0, every ``diag_period`` and at the final step
    with a DiagnosticsRecord.  With hooks the period must be positive and
    finite (``period_problems``); it is rounded to whole steps of |dt|, at
    least one, and a period longer than the span fires the hooks at both
    ends only.
    Blow-up aborts with the failure time attached.  The amplitude is checked
    every 16 steps on the kick's input and at each sync point: each hook step
    and the last step, the only steps that return to physical space.
    """
    from scipy.fft import fft, ifft  # lazy: see the module docstring

    problems = step_problems(cfg.dt, w.grid.spacing) + span_problems(t0, t1, cfg.dt)
    if hooks:
        problems += period_problems(diag_period)
    raise_problems(problems)
    nsteps = round((t1 - t0) / cfg.dt)
    # min gives nsteps when period/|dt| is inf (an overflow) or NaN (a NaN period, only without hooks)
    stride = max(1, round(min(nsteps, diag_period / abs(cfg.dt))))
    k = w.grid.deriv_wavenumbers
    omega = np.sqrt(model.m + k * k)
    half, full = _Rotation(omega, 0.5 * cfg.dt), _Rotation(omega, cfg.dt)
    dt, p = cfg.dt, model.p

    def fire(n: int, u1: np.ndarray, u2: np.ndarray) -> None:
        f = Field(u1, u2, w.grid)  # fresh arrays from a sync (or w's own): none is written again
        rec = DiagnosticsRecord(t0 + n * dt, energy(f, model), charge(f), momentum(f), f)
        for hook in hooks:
            hook(rec)

    firing = bool(hooks)
    if firing:
        fire(0, w.u1, w.u2)
    if nsteps == 0:
        return w.copy()
    f1, f2 = fft(w.u1), fft(w.u2)
    done = 0
    while done < nsteps:
        sync = min(nsteps, done + stride) if firing else nsteps
        # overflow to inf/nan is fine here: the blow-up detector reports it
        with np.errstate(over="ignore", invalid="ignore"):
            f1, f2 = half(f1, f2)  # fresh arrays: f2 is written in place below
            for n in range(done + 1, sync + 1):
                u1 = ifft(f1)
                modulus = np.abs(u1)
                if n % 16 == 0 and n < sync:
                    _check_amplitude(modulus, t0 + n * dt)
                kick = fft(modulus ** (p - 1.0) * u1)
                kick *= dt
                f2 += kick
                # close this step and open the next in one rotation, or close the stretch
                f1, f2 = full(f1, f2) if n < sync else half(f1, f2)
            u1, u2 = ifft(f1), ifft(f2)
            _check_amplitude(np.abs(u1), t0 + sync * dt)
        if firing:
            fire(sync, u1, u2)
        done = sync
    return Field(u1, u2, w.grid)
