"""Reference kernels: fixed computations, independent of nlkglab, timed beside
every benchmark call.

On a shared machine the same call can take 1.7x as long from one minute to
the next, with the load of the neighbours.  A kernel that does the same kind
of work as the call slows down with it, so the call's time over the kernels'
times just before and just after it measures the call and not the machine.
Each workload names the kernels that match its work; their inputs are the
same on every run, whatever the seed, so the yardstick never changes.  Only
numpy, scipy and the interpreter run here: a change to nlkglab cannot move
a kernel's time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg as sla

POINTS = 2048  # the stepping workloads' grid


def arrays(steps: int) -> Callable[[], None]:
    """``steps`` FFT round trips with pointwise work on 2048-point complex
    arrays: the Strang step's and the diagnostics' kind of work."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal(POINTS) + 1j * rng.standard_normal(POINTS)
    k2 = np.fft.fftfreq(POINTS) ** 2

    def run() -> None:
        v = u
        for _ in range(steps):
            v = np.fft.ifft(np.exp(-1j * k2) * np.fft.fft(v))
            v = v * np.exp(1e-3j * np.abs(v) ** 2)

    return run


def scalars(steps: int) -> Callable[[], None]:
    """``steps`` RK4 steps on a 2-element array from a Python loop: numpy
    dispatch and small allocations, the work of radial shooting and of the
    modulation Newton loop."""

    def rhs(r: float, y: np.ndarray) -> np.ndarray:
        f, g = y
        return np.array([g, 0.5 * f - np.sign(f) * abs(f) ** 3.0 - g / (r + 1.0)])

    def run() -> None:
        h, r, y = 1e-3, 0.0, np.array([0.5, 0.0])
        for _ in range(steps):
            k1 = rhs(r, y)
            k2 = rhs(r + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(r + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(r + h, y + h * k3)
            y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            r += h

    return run


def dense(order: int) -> Callable[[], None]:
    """Symmetric eigensolve, QR and one generalized eigenvalue of a dense
    matrix of the given order: the spectrum report's kind of work."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((order, order))
    a = a + a.T
    b = rng.standard_normal((order, order))
    b = b @ b.T + order * np.eye(order)

    def run() -> None:
        sla.eigvalsh(a)
        sla.qr(a)
        sla.eigh(a, b, subset_by_index=[0, 0], eigvals_only=True, driver="gvx")

    return run


def combine(*runs: Callable[[], None]) -> Callable[[], None]:
    """One reference made of several kernels, run one after another; it is
    run once here so that its first, slower run is not timed."""

    def run() -> None:
        for r in runs:
            r()

    run()
    return run
