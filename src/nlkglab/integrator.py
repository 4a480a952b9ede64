"""Time-reversible Strang splitting for the Hamiltonian flow.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .functionals import charge, energy, momentum
from .grids import Field, Grid, raise_problems
from .profiles import ModelParams

__all__ = [
    "IntegratorConfig",
    "step_problems",
    "DiagnosticsRecord",
    "BlowUpError",
    "step",
    "evolve",
]

BLOWUP_AMPLITUDE = 1e6


class BlowUpError(RuntimeError):
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


@dataclass
class IntegratorConfig:
    """Step size (sign = direction) and dealias switch."""

    dt: float
    dealias: bool = False

    def __post_init__(self) -> None:
        raise_problems(step_problems(self.dt, None))

    def check_grid(self, grid: Grid) -> None:
        raise_problems(step_problems(self.dt, grid.spacing))


@dataclass
class DiagnosticsRecord:
    """Snapshot of the conserved quantities (and optionally the field)."""

    t: float
    energy: float
    charge: float
    momentum: float
    field: Optional[Field] = None


class _Stepper:
    """Precomputed multipliers for repeated steps at fixed dt."""

    def __init__(self, grid: Grid, model: ModelParams, dt: float, dealias: bool):
        k = grid.deriv_wavenumbers
        om = np.sqrt(model.m + k * k)
        self.cos = np.cos(0.5 * dt * om)
        self.sin_over = np.sin(0.5 * dt * om) / om
        self.sin_times = -om * np.sin(0.5 * dt * om)
        self.dt = dt
        self.p = model.p
        self.mask = None
        if dealias:
            kmax = np.max(np.abs(k))
            self.mask = (np.abs(k) <= (2.0 / 3.0) * kmax).astype(float)

    def half_linear(self, f1: np.ndarray, f2: np.ndarray):
        return (
            self.cos * f1 + self.sin_over * f2,
            self.sin_times * f1 + self.cos * f2,
        )

    def apply(self, u1: np.ndarray, u2: np.ndarray):
        f1, f2 = self.half_linear(np.fft.fft(u1), np.fft.fft(u2))
        u1 = np.fft.ifft(f1)
        u2 = np.fft.ifft(f2)
        # overflow to inf/nan is fine here: the blow-up detector reports it
        with np.errstate(over="ignore", invalid="ignore"):
            nl = np.abs(u1) ** (self.p - 1.0) * u1
            if self.mask is not None:
                nl = np.fft.ifft(self.mask * np.fft.fft(nl))
            u2 = u2 + self.dt * nl
        f1, f2 = self.half_linear(np.fft.fft(u1), np.fft.fft(u2))
        return np.fft.ifft(f1), np.fft.ifft(f2)


def _check_amplitude(u1: np.ndarray, t: float) -> None:
    amp = float(np.max(np.abs(u1)))
    if not np.isfinite(amp) or amp > BLOWUP_AMPLITUDE:
        raise BlowUpError(t, amp)


def step(w: Field, cfg: IntegratorConfig, model: ModelParams) -> Field:
    """One Strang step; convenience wrapper recomputing multipliers."""
    cfg.check_grid(w.grid)
    st = _Stepper(w.grid, model, cfg.dt, cfg.dealias)
    u1, u2 = st.apply(w.u1, w.u2)
    _check_amplitude(u1, cfg.dt)
    return Field(u1, u2, w.grid)


def evolve(
    w: Field,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
    model: ModelParams,
    hooks: Sequence[Callable[[DiagnosticsRecord], None]] = (),
    diag_stride: int = 0,
    keep_fields_in_hooks: bool = True,
) -> Field:
    """Integrate from t0 to t1; t1 < t0 needs dt < 0.

    (t1 - t0)/dt must be a positive integer number of steps.  Hooks fire
    every ``diag_stride`` steps (and at the final step) with a
    DiagnosticsRecord; blow-up aborts with the failure time attached.
    """
    cfg.check_grid(w.grid)
    span = t1 - t0
    if span == 0.0:
        return w.copy()
    ratio = span / cfg.dt
    nsteps = int(round(ratio))
    if nsteps <= 0 or abs(ratio - nsteps) > 1e-8 * max(1.0, abs(ratio)):
        raise ValueError(
            f"(t1-t0)/dt = {ratio} is not a positive integer step count"
        )
    st = _Stepper(w.grid, model, cfg.dt, cfg.dealias)
    u1, u2 = w.u1.copy(), w.u2.copy()

    def fire(n: int) -> None:
        t = t0 + n * cfg.dt
        f = Field(u1.copy(), u2.copy(), w.grid)
        rec = DiagnosticsRecord(
            t, energy(f, model), charge(f), momentum(f), f if keep_fields_in_hooks else None
        )
        for hook in hooks:
            hook(rec)

    if hooks and diag_stride > 0:
        fire(0)
    for n in range(nsteps):
        u1, u2 = st.apply(u1, u2)
        t = t0 + (n + 1) * cfg.dt
        if (n + 1) % 16 == 0 or n + 1 == nsteps:
            _check_amplitude(u1, t)
        if hooks and diag_stride > 0 and ((n + 1) % diag_stride == 0 or n + 1 == nsteps):
            _check_amplitude(u1, t)
            fire(n + 1)
    _check_amplitude(u1, t0 + nsteps * cfg.dt)
    return Field(u1, u2, w.grid)
