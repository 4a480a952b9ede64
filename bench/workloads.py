"""The four benchmark workloads: inputs from a seed, the timed call, and the
numerical fingerprint each call must reproduce.

Every library call goes through a module attribute (``experiments.run_...``,
``spectrum.assemble_...``) so that the tracer's wrappers, when installed,
see it.  For the 1D workloads the seed picks a symmetry transform of the
inputs, a global phase and a whole-cell shift of every x0; the fingerprints
are invariant under it to rounding, so one reference serves every seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from nlkglab import cli, experiments, fieldio, profiles, spectrum
from nlkglab.functionals import ActionParams
from nlkglab.grids import Grid
from nlkglab.profiles import ModelParams, SolitonParams
import reference

# Fingerprints measured at the commit that introduced this benchmark, with the
# relative bound a run must stay inside.  Symmetry-transformed seeds agree to
# about 1e-10 relative; the bounds leave room for other FFT/BLAS builds while
# staying far below any physical difference (the 8a ladder steps are 7e-5).
REFERENCE: dict[str, dict[str, tuple[float, float]]] = {
    "backward_pair": {"err_t10": (0.09413003716965086, 1e-8)},
    "diag_dense": {"err_t10": (0.035494437731089054, 1e-8)},
    "spectrum": {
        "delta": (0.09055895881075546, 1e-8),
        "slope": (-1.8666676884656832, 1e-8),
    },
    "radial": {"phi0_d2": (2.2062008656834404, 1e-9), "phi0_d3": (4.337387740294842, 1e-9)},
}
# fingerprint entries that must match exactly
EXACT: dict[str, dict[str, Any]] = {
    "backward_pair": {"tube_exit": None},
    "diag_dense": {"exit_code": 0},
    "spectrum": {"morse_index": 1, "kernel_dim": 2},
    "radial": {},
}

MODEL = ModelParams(1.0, 3.0, 1)
MAX_SHIFT_CELLS = 40


@dataclass
class Case:
    """One prepared workload: ``call`` is timed, ``fingerprint`` is not."""

    name: str
    call: Callable[[], Any]
    fingerprint: Callable[[Any], dict]
    before: Callable[[], None] = lambda: None
    cleanup: Callable[[], None] = lambda: None


def symmetry(seed: int) -> tuple[float, int]:
    """Global phase and whole-cell shift of x0 picked by the seed."""
    rng = random.Random(seed)
    return rng.uniform(-math.pi, math.pi), rng.randint(-MAX_SHIFT_CELLS, MAX_SHIFT_CELLS)


def check(name: str, fp: dict) -> list[str]:
    """Problems of one fingerprint against the reference; empty when it holds."""
    problems = []
    for key, want in EXACT[name].items():
        if fp.get(key) != want:
            problems.append(f"{key} = {fp.get(key)!r}, expected {want!r}")
    for key, (ref, bound) in REFERENCE[name].items():
        got = fp.get(key)
        if got is None or not math.isfinite(got) or abs(got - ref) > bound * abs(ref):
            problems.append(f"{key} = {got!r}, expected {ref!r} within {bound:g} relative")
    return problems


def _pair(seed: int, grid: Grid) -> list[SolitonParams]:
    theta, cells = symmetry(seed)
    x0 = cells * grid.spacing
    return [
        SolitonParams(MODEL, omega=0.8, v=v, theta=theta, x0=x0) for v in (-0.4, 0.4)
    ]


def _warm_fft(grid: Grid) -> None:
    """numpy's first FFT plan for this grid size; no library code, so nothing to fail."""
    np.fft.ifft(np.fft.fft(np.zeros(grid.points, complex)))


def _error_at(times: np.ndarray, errors: np.ndarray, t: float) -> float:
    i = int(np.argmin(np.abs(np.asarray(times) - t)))
    return float(errors[i]) if abs(times[i] - t) < 1e-9 else float("nan")


def backward_pair(seed: int, workdir: Path) -> Case:
    grid = Grid(160.0, 2048)
    solitons = _pair(seed, grid)
    cfg = experiments.MultiSolitonConfig(
        model=MODEL, grid=grid, solitons=solitons,
        t_final=14.0, t_start=10.0, dt=0.002, diag_period=1.0,
    )
    _warm_fft(grid)

    def fingerprint(rep) -> dict:
        return {"err_t10": _error_at(rep.times, rep.errors, 10.0), "tube_exit": rep.tube_exit_time}

    return Case("backward_pair", lambda: experiments.run_backward_construction(cfg), fingerprint)


DIAG_DENSE_CONFIG = """\
[model]
m = 1.0
p = 3.0
d = 1

[grid]
length = 160.0
points = 2048

[integrator]
dt = 0.002

[soliton]
omega = 0.8
v = -0.4
theta = {theta!r}
x0 = {x0!r}

[soliton]
omega = 0.8
v = 0.4
theta = {theta!r}
x0 = {x0!r}

[experiment]
t_final = 11.0
t_start = 10.0
diag_period = 0.05
"""


def diag_dense(seed: int, workdir: Path) -> Case:
    grid = Grid(160.0, 2048)
    theta, cells = symmetry(seed)
    text = DIAG_DENSE_CONFIG.format(theta=theta, x0=cells * grid.spacing)
    work = Path(tempfile.mkdtemp(prefix="diag_dense-", dir=workdir))
    cfg_path, out_dir = work / "run.cfg", work / "out"
    cfg_path.write_text(text, encoding="utf-8")
    _warm_fft(grid)
    argv = ["multisoliton", "--config", str(cfg_path), "--out-dir", str(out_dir)]

    def call() -> int:
        # the CLI reports to stdout/stderr; keep the benchmark's own output clean
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def fingerprint(code: int) -> dict:
        fp: dict = {"exit_code": code, "err_t10": float("nan")}
        csv = out_dir / "diagnostics.csv"
        if csv.exists():
            header, data = fieldio.read_csv_columns(csv)
            fp["err_t10"] = _error_at(data[:, 0], data[:, header.index("err_H1L2")], 10.0)
        return fp

    return Case(
        "diag_dense", call, fingerprint,
        before=lambda: shutil.rmtree(out_dir, ignore_errors=True),
        cleanup=lambda: shutil.rmtree(work, ignore_errors=True),
    )


def array_bytes(obj: Any) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def spectrum_case(seed: int, workdir: Path) -> Case:
    grid = Grid(80.0, 512)
    theta, cells = symmetry(seed)
    sp = SolitonParams(MODEL, omega=0.8, v=0.0, theta=theta, x0=cells * grid.spacing)
    ap = ActionParams.from_soliton(sp)
    phi = profiles.sample_soliton(sp, 0.0, grid)

    def family(om: float):
        return profiles.sample_soliton(replace(sp, omega=om), 0.0, grid)

    def call() -> dict:
        op = spectrum.assemble_second_variation(phi, ap)
        rep = spectrum.spectrum_report(op)
        slope = spectrum.slope_test(family, ap, sp.omega, op=op)
        return {"report": rep, "slope": slope, "matrix_bytes": array_bytes(op)}

    def fingerprint(out: dict) -> dict:
        rep = out["report"]
        return {
            "morse_index": rep.negative_count,
            "kernel_dim": rep.kernel_dimension,
            "delta": rep.coercivity_delta,
            "slope": out["slope"],
        }

    return Case("spectrum", call, fingerprint)


def radial(seed: int, workdir: Path) -> Case:
    # nothing to transform in a radial profile: the seed only orders the calls
    dims = (2, 3) if seed % 2 == 0 else (3, 2)
    models = {d: ModelParams(1.0, 3.0, d) for d in dims}

    def call() -> dict:
        return {d: profiles.ground_state_radial(models[d], 0.0) for d in dims}

    def fingerprint(out: dict) -> dict:
        return {f"phi0_d{d}": float(gs.samples[0]) for d, gs in out.items()}

    return Case("radial", call, fingerprint)


PREPARE: dict[str, Callable[[int, Path], Case]] = {
    "backward_pair": backward_pair,
    "diag_dense": diag_dense,
    "spectrum": spectrum_case,
    "radial": radial,
}

# The reference kernels timed beside each workload's calls (see reference.py),
# each a quarter to a third as long as a call.  They are built after set-up
# is measured: they belong to the benchmark, not to the program.
KERNELS: dict[str, Callable[[], Callable[[], None]]] = {
    "backward_pair": lambda: reference.combine(reference.arrays(600), reference.scalars(12000)),
    "diag_dense": lambda: reference.combine(reference.arrays(600), reference.scalars(12000)),
    "spectrum": lambda: reference.combine(reference.dense(1400)),
    "radial": lambda: reference.combine(reference.scalars(36000)),
}
