"""Command-line front end.

Subcommands: groundstate, soliton, evolve, spectrum, modulate,
multisoliton, sweep.  NLKG_OUT_DIR sets the default output root.
Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure
(blow-up, tube exit, a degenerate modulation Jacobian, a failed operator
assembly or radial ground-state iteration), 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, parse_config, serialize_config, stability_warnings
from .experiments import MultiSolitonConfig, run_backward_construction
from .fieldio import (
    format_float,
    read_field,
    write_diagnostics_csv,
    write_field,
)
from .functionals import ActionParams, charge, energy, gradient_norm, momentum
from .grids import Field, Grid, raise_problems
from .integrator import BlowUpError, DiagnosticsRecord, IntegratorConfig, evolve, period_problems
from .modulation import DegenerateConfigurationError, NotInTubeError, fit_modulation
from .profiles import (
    ModelParams,
    ShootingError,
    SolitonParams,
    ground_state_1d,
    ground_state_radial,
    phi_omega,
    profile_norms,
    sample_soliton,
)
from .spectrum import AssemblyError, assemble_second_variation, slope_test, spectrum_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _out_root() -> Path:
    return Path(os.environ.get("NLKG_OUT_DIR", "."))


# --m, --p and --grid-points stay None when not given, so a command can tell; then
# --m and --p take ModelParams' defaults and --grid-points this one
GRID_POINTS_DEFAULT = 1024
# radial mesh on [0, length/2]: 4000 intervals at most 0.01 apart (as at length 80), so <= 10^6
RADIAL_SPACING, RADIAL_MAX_LENGTH = 0.01, 20000.0


def _model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=float, help=f"mass coefficient (default {ModelParams.m})")
    p.add_argument("--p", type=float, help=f"nonlinearity exponent (default {ModelParams.p})")


def _model(args: argparse.Namespace, d: int = 1) -> ModelParams:
    given = {key: getattr(args, key) for key in ("m", "p") if getattr(args, key) is not None}
    return ModelParams(**given, d=d)


def _grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-points", type=int, help=f"default {GRID_POINTS_DEFAULT}")
    p.add_argument("--length", type=float, default=80.0)


def _grid(args: argparse.Namespace) -> Grid:
    points = GRID_POINTS_DEFAULT if args.grid_points is None else args.grid_points
    return Grid(args.length, points)


def cmd_groundstate(args: argparse.Namespace) -> int:
    if args.d > 1 and args.grid_points is not None:
        raise ValueError(
            "--grid-points applies to d = 1 only: a radial profile has its own "
            "mesh on [0, length/2]"
        )
    model = _model(args, args.d)
    if args.d == 1:
        grid = _grid(args)
        gs = ground_state_1d(model, args.omega, grid)
        xs = grid.x
        n2, dn2 = profile_norms(gs)
        # an odd point count has no grid point at x = 0
        print(f"phi(0) = {phi_omega(0.0, model, args.omega):.12g}")
        print(f"||phi||_2^2 = {n2:.12g}   ||phi'||_2^2 = {dn2:.12g}")
    else:
        if not 0 < args.length <= RADIAL_MAX_LENGTH:  # NaN fails too
            raise ValueError(f"--length must be positive and at most {RADIAL_MAX_LENGTH:g} for d > 1")
        n = max(4000, round(args.length / 2.0 / RADIAL_SPACING))
        gs = ground_state_radial(model, args.omega, rmax=args.length / 2.0, n=n)
        xs = gs.radial_mesh
        print(f"phi(0) = {gs.samples[0]:.12g}")
    print(f"ODE residual (sup) = {gs.residual:.3e}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("x,phi\n")
            for x, v in zip(xs, gs.samples):
                fh.write(f"{format_float(x)},{format_float(v)}\n")
        print(f"profile written to {args.out}")
    return EXIT_OK


def _soliton_from_args(args: argparse.Namespace, model: ModelParams) -> SolitonParams:
    return SolitonParams(model, omega=args.omega, theta=args.theta, v=args.v, x0=args.x0)


def cmd_soliton(args: argparse.Namespace) -> int:
    if not math.isfinite(args.t):
        raise ValueError(f"--t={args.t} must be finite: it is the time of the dump")
    model = _model(args)
    grid = _grid(args)
    sp = _soliton_from_args(args, model)
    w = sample_soliton(sp, args.t, grid)
    if not sp.stable:
        print("warning: parameters outside the orbital-stability window", file=sys.stderr)
    ap = ActionParams.from_soliton(sp)
    print(f"E = {energy(w, model):.12g}  Q = {charge(w):.12g}  P = {momentum(w):.12g}")
    print(f"||S'(Phi)|| = {gradient_norm(w, ap):.3e}")
    write_field(args.out, w, args.t)
    print(f"field written to {args.out}")
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    if args.config and (args.m is not None or args.p is not None):
        raise ValueError("--m and --p cannot be given with --config: the model comes from the config")
    w, _ = read_field(args.src)
    if args.config:
        model = parse_config(Path(args.config).read_text(encoding="utf-8"))[0].model
    else:
        model = _model(args)
    cfg = IntegratorConfig(dt=args.dt)
    raise_problems(period_problems(args.diag_period))  # also when no --diag asks for hooks
    rows: list[list[float]] = []

    def hook(rec: DiagnosticsRecord) -> None:
        rows.append([rec.t, rec.energy, rec.charge, rec.momentum])

    hooks = [hook] if args.diag else []
    out = evolve(w, args.t0, args.t1, cfg, model, hooks=hooks, diag_period=args.diag_period)
    write_field(args.out, out, args.t1)
    print(f"field written to {args.out}")
    if args.diag:
        write_diagnostics_csv(args.diag, ["t", "E", "Q", "P"], rows)
        print(f"diagnostics written to {args.diag}")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    model = _model(args)
    grid = _grid(args)
    sp = _soliton_from_args(args, model)
    ap = ActionParams.from_soliton(sp)
    op = assemble_second_variation(sample_soliton(sp, 0.0, grid), ap)
    rep = spectrum_report(op)

    def family(om: float) -> Field:
        return sample_soliton(replace(sp, omega=om), 0.0, grid)

    slope = slope_test(family, ap, args.omega, op=op)
    print(
        f"negative eigenvalues : {rep.negative_count} of the Schur complement A - B B^T "
        f"(lowest {rep.negative_eigenvalue:.6g})"
    )
    print(f"kernel dimension     : {rep.kernel_dimension} (tol {rep.kernel_tolerance:.3e})")
    print(f"coercivity delta     : {rep.coercivity_delta:.6g}")
    print(f"frequency slope      : {slope:.6g} ({'stable' if slope < 0 else 'unstable'} sign)")
    if args.out:
        low = np.sort(rep.eigenvalues)[:20]
        write_diagnostics_csv(args.out, ["index", "eigenvalue"], [[float(i), float(v)] for i, v in enumerate(low)])
        print(f"lowest eigenvalues written to {args.out}")
    return EXIT_OK


def cmd_modulate(args: argparse.Namespace) -> int:
    w, _ = read_field(args.src)
    cfg, _ = parse_config(Path(args.seed).read_text(encoding="utf-8"))
    state = fit_modulation(w, cfg.solitons)
    print("j,theta,omega,x0,v")
    for j, s in enumerate(state.solitons):
        print(
            f"{j},{format_float(s.theta)},{format_float(s.omega)},"
            f"{format_float(s.x0)},{format_float(s.v)}"
        )
    print(f"residual H1xL2 norm = {state.residual_norm:.6e}")
    print(f"max orthogonality residual = {np.max(np.abs(state.ortho_residuals)):.3e}")
    if args.out:
        write_diagnostics_csv(
            args.out,
            ["j", "theta", "omega", "x0", "v"],
            [
                [float(j), s.theta, s.omega, s.x0, s.v]
                for j, s in enumerate(state.solitons)
            ],
        )
    return EXIT_OK


def _write_multisoliton_outputs(outdir: Path, out_dir: str, report) -> None:
    cfg = report.config
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved.cfg").write_text(serialize_config(cfg, out_dir), encoding="utf-8")
    nsol = len(cfg.solitons)
    header = ["t", "E", "Q", "P"]
    for j in range(nsol):
        header += [f"E_{j}", f"Q_{j}", f"P_{j}"]
    # newton_iters and cond are NaN where no modulation fit ran (after a tube exit)
    header += ["S_localized", "err_H1L2", "newton_iters", "cond"]
    actions, rows = report.action_series, []
    for i, t in enumerate(report.times):
        row = [t, report.energies[i], report.charges[i], report.momenta[i]]
        loc = report.localized[i]
        for j in range(nsol):
            row += [loc.e[j], loc.q[j], loc.p[j]]
        st = report.modulation[i]
        fit = [math.nan, math.nan] if st is None else [st.iterations, st.condition_number]
        row += [actions[i], report.errors[i], *fit]
        rows.append(row)
    write_diagnostics_csv(outdir / "diagnostics.csv", header, rows)
    write_field(outdir / "field_final.dump", report.final_field, cfg.t_start)
    slope, stderr, rms = report.window_fit()
    lines = [
        f"nlkglab multisoliton report (v{__version__})",
        f"solitons: {nsol}, window [{cfg.t_start}, {cfg.t_final}], dt={cfg.dt}",
        f"v_star = {cfg.v_star}, omega_star = {cfg.omega_star}",
        f"reference rate (ceiling) = {cfg.reference_rate:.6g}",
        f"fitted log-error slope = {slope:.6g} (stderr {stderr:.2g}, rms {rms:.2g}) "
        f"on window {report.fit_window}",
        f"slope significant (stderr < 10% of |slope|): {stderr < 0.1 * abs(slope)}",
        f"tube exit: {report.tube_exit_time}",
        f"runtime: {report.runtime_seconds:.1f} s",
    ]
    for w in stability_warnings(cfg):
        lines.append(f"warning: {w}")
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _multisoliton(cfg: MultiSolitonConfig, out_dir: str, outdir: Path) -> int:
    """The backward construction of ``cfg``, its outputs written to ``outdir``;
    ``out_dir`` is the config's own key, which ``resolved.cfg`` keeps."""
    for warning in stability_warnings(cfg):
        print(f"warning: {warning}", file=sys.stderr)
    report = run_backward_construction(cfg)
    _write_multisoliton_outputs(outdir, out_dir, report)
    print(f"outputs in {outdir}")
    if report.tube_exit_time is not None:
        print(f"trajectory left the modulation tube at t={report.tube_exit_time}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_multisoliton(args: argparse.Namespace) -> int:
    cfg, out_dir = parse_config(Path(args.config).read_text(encoding="utf-8"))
    return _multisoliton(cfg, out_dir, Path(args.out_dir) if args.out_dir else _out_root() / out_dir)


def _run_command(command, args, label: str = "") -> int:
    """Run one command; report an expected failure on stderr and return its exit code."""
    try:
        return command(args)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, str(exc)
    except ValueError as exc:
        code, message = EXIT_CONFIG, f"configuration error: {exc}"
    except (
        BlowUpError, NotInTubeError, DegenerateConfigurationError, AssemblyError, ShootingError
    ) as exc:
        code, message = EXIT_NUMERICAL, f"numerical failure: {exc}"
    except OSError as exc:  # FieldFormatError is an OSError
        code, message = EXIT_IO, f"I/O error: {exc}"
    print(label + message, file=sys.stderr)
    return code


def cmd_sweep(args: argparse.Namespace) -> int:
    """A config that leaves ``out_dir`` at "." writes to <root>/<config file stem>;
    a config whose output directory an earlier config of the sweep holds fails (exit 2)."""
    owners: dict[Path, int] = {}

    def run_one(i: int) -> int:
        path = Path(args.configs[i])
        cfg, out_dir = parse_config(path.read_text(encoding="utf-8"))
        outdir = _out_root() / (path.stem if out_dir == "." else out_dir)
        owner = owners.setdefault(outdir.resolve(), i)
        if owner != i:
            raise ValueError(f"output directory {outdir} is already used by {args.configs[owner]}")
        return _multisoliton(cfg, out_dir, outdir)

    worst = EXIT_OK
    for i, path in enumerate(args.configs):
        code = _run_command(run_one, i, f"{path}: ")
        print(f"{path}: exit {code}")
        worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlkglab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groundstate", help="compute a ground-state profile")
    _model_args(g)
    g.add_argument("--d", type=int, default=1, help="spatial dimension (radial profile for d>1)")
    _grid_args(g)
    g.add_argument("--omega", type=float, required=True)
    g.add_argument("--out", type=str, default="")
    g.set_defaults(func=cmd_groundstate)

    s = sub.add_parser("soliton", help="sample an exact soliton to a field dump")
    _model_args(s)
    _grid_args(s)
    s.add_argument("--omega", type=float, required=True)
    s.add_argument("--theta", type=float, default=0.0)
    s.add_argument("--v", type=float, default=0.0)
    s.add_argument("--x0", type=float, default=0.0)
    s.add_argument("--t", type=float, default=0.0)
    s.add_argument("--out", type=str, required=True)
    s.set_defaults(func=cmd_soliton)

    e = sub.add_parser("evolve", help="integrate a field dump in time")
    e.add_argument("--from", dest="src", type=str, required=True)
    e.add_argument("--config", type=str, default="", help="take the model from a run config")
    _model_args(e)
    e.add_argument("--t0", type=float, required=True)
    e.add_argument("--t1", type=float, required=True)
    e.add_argument("--dt", type=float, required=True)
    e.add_argument("--diag", type=str, default="")
    e.add_argument("--diag-period", type=float, default=0.5)
    e.add_argument("--out", type=str, required=True)
    e.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("spectrum", help="second-variation spectrum at a soliton")
    _model_args(sp)
    _grid_args(sp)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--v", type=float, default=0.0)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(func=cmd_spectrum)

    mo = sub.add_parser("modulate", help="fit modulation parameters to a field dump")
    mo.add_argument("--from", dest="src", type=str, required=True)
    mo.add_argument("--seed", type=str, required=True, help="config file with soliton seeds")
    mo.add_argument("--out", type=str, default="")
    mo.set_defaults(func=cmd_modulate)

    mu = sub.add_parser("multisoliton", help="backward multi-soliton construction")
    mu.add_argument("--config", type=str, required=True)
    mu.add_argument("--out-dir", type=str, default="")
    mu.set_defaults(func=cmd_multisoliton)

    sw = sub.add_parser("sweep", help="run several multisoliton configs one after another")
    sw.add_argument("configs", nargs="+")
    sw.set_defaults(func=cmd_sweep)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _run_command(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
