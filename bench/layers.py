"""Where the tracer wraps nlkglab, and the per-layer metrics derived from the spans.

Each wrapper sits on a module attribute that a layer calls, in the namespace
of the caller: ``experiments.evolve`` is the integrator as the experiments
layer sees it, ``modulation.sample_soliton`` the profiles layer as Newton
sees it.  The integrator's ``np`` and the spectrum's ``sla`` are replaced by
proxies that count FFTs and time the full eigensolve.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

import numpy as np
import scipy.linalg as sla

from nlkglab import cli, experiments, integrator, modulation, profiles, spectrum
from tracer import Proxy, Span, Tracer, self_times

# metric -> (unit, better); names are prefixed with the workload in the output
STEPPING = {
    "integrator.step_us": ("us", "lower"),
    "integrator.steps": ("count", "lower"),
    "integrator.ffts_per_step": ("count", "lower"),
    "integrator.fft_bytes_per_step": ("bytes", "lower"),
    "integrator.diag_ms": ("ms", "lower"),
    "experiments.hook_ms": ("ms", "lower"),
    "experiments.hooks": ("count", "lower"),
    "experiments.hook_share": ("ratio", "lower"),
    "experiments.soliton_sum_ms": ("ms", "lower"),
    "modulation.fit_ms": ("ms", "lower"),
    "modulation.newton_iters": ("count", "lower"),
    "modulation.cond_max": ("ratio", "lower"),
    "modulation.converged_ratio": ("ratio", "higher"),
    "modulation.samples_per_fit": ("count", "lower"),
    "profiles.sample_soliton_us": ("us", "lower"),
    "profiles.sample_soliton_calls": ("count", "lower"),
    "profiles.ground_state_1d_calls": ("count", "lower"),
    "functionals.localized_ms": ("ms", "lower"),
    "functionals.cutoffs_ms": ("ms", "lower"),
    "grids.norm_h1l2_us": ("us", "lower"),
}
CLI_IO = {
    "config.parse_ms": ("ms", "lower"),
    "fieldio.write_ms": ("ms", "lower"),
    "fieldio.bytes_written": ("bytes", "lower"),
}
SPECTRUM = {
    "spectrum.assemble_s": ("s", "lower"),
    "spectrum.report_s": ("s", "lower"),
    "spectrum.eigvalsh_s": ("s", "lower"),
    "spectrum.constrained_s": ("s", "lower"),
    "spectrum.slope_s": ("s", "lower"),
    "spectrum.matrix_bytes": ("bytes", "lower"),
}
RADIAL = {
    "profiles.radial_d2_s": ("s", "lower"),
    "profiles.radial_d3_s": ("s", "lower"),
}
TRACE = {
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}
METRICS = {
    "backward_pair": {**STEPPING, **TRACE},
    "diag_dense": {**STEPPING, **CLI_IO, **TRACE},
    "spectrum": {**SPECTRUM, **TRACE},
    "radial": {**RADIAL, **TRACE},
}
# counts that must repeat exactly from one traced call to the next
EXACT_COUNTS = (
    "integrator.ffts_per_step",
    "integrator.fft_bytes_per_step",
    "spectrum.matrix_bytes",
    "modulation.samples_per_fit",
    "profiles.sample_soliton_calls",
)
MIN_COVERAGE = 0.95


def install(tr: Tracer) -> None:
    """Put every wrapper in place; ``tr.restore()`` takes them out."""

    def evolve_call(span: Span, args: tuple, kwargs: dict):
        t0, t1, cfg = args[1], args[2], args[3]
        span.attrs = {"steps": int(round((t1 - t0) / cfg.dt))}
        hooks = [tr.wrap(h, "experiments.hook") for h in kwargs.get("hooks", ())]
        return args, {**kwargs, "hooks": hooks}

    def radial_call(span: Span, args: tuple, kwargs: dict):
        span.attrs = {"d": args[0].d}
        return args, kwargs

    def fit_return(span: Span, args: tuple, st) -> None:
        span.attrs = {"iterations": st.iterations, "cond": st.condition_number, "converged": st.converged}

    def file_bytes(span: Span, args: tuple, out) -> None:
        span.attrs = {"bytes": os.path.getsize(args[0])}

    def counted(fft):
        def call(a, *args, **kwargs):
            out = fft(a, *args, **kwargs)
            tr.counts["fft_calls"] += 1
            tr.counts["fft_bytes"] += np.asarray(a).nbytes + out.nbytes
            return out

        return call

    tr.patch_fn(experiments, "evolve", "integrator.evolve", on_call=evolve_call)
    tr.patch_fn(experiments, "soliton_sum", "experiments.soliton_sum")
    tr.patch_fn(experiments, "sample_soliton", "profiles.sample_soliton")
    tr.patch_fn(experiments, "norm_h1l2", "grids.norm_h1l2")
    tr.patch_fn(experiments, "build_cutoffs", "functionals.build_cutoffs")
    tr.patch_fn(experiments, "localized_quantities", "functionals.localized_quantities")
    tr.patch_fn(experiments, "fit_modulation", "modulation.fit_modulation", on_return=fit_return)
    for name in ("energy", "charge", "momentum"):
        tr.patch_fn(integrator, name, f"functionals.{name}")
    fft = Proxy(np.fft, fft=counted(np.fft.fft), ifft=counted(np.fft.ifft))
    tr.patch(integrator, "np", Proxy(np, fft=fft))
    tr.patch_fn(modulation, "sample_soliton", "profiles.sample_soliton")
    tr.patch_fn(profiles, "ground_state_1d", "profiles.ground_state_1d")
    tr.patch_fn(profiles, "ground_state_radial", "profiles.ground_state_radial", on_call=radial_call)
    for name in ("assemble_second_variation", "spectrum_report", "slope_test"):
        tr.patch_fn(spectrum, name, f"spectrum.{name}")
    tr.patch(spectrum, "sla", Proxy(sla, eigvalsh=tr.wrap(sla.eigvalsh, "spectrum.eigvalsh")))
    tr.patch_fn(cli, "parse_config", "config.parse_config")
    tr.patch_fn(cli, "run_backward_construction", "experiments.run_backward_construction")
    tr.patch_fn(cli, "write_field", "fieldio.write_field", on_return=file_bytes)
    tr.patch_fn(cli, "write_diagnostics_csv", "fieldio.write_diagnostics_csv", on_return=file_bytes)


class _Spans:
    """Spans of one traced call grouped by name, with self times."""

    def __init__(self, tr: Tracer, root: int):
        self.spans = tr.spans
        self.root = root
        self.selfs = self_times(tr.spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(tr.spans):
            self.by_name[s.name].append(i)
        self.missing: list[str] = []

    def ids(self, name: str) -> list[int]:
        ids = self.by_name.get(name, [])
        if not ids:
            self.missing.append(name)
        return ids

    def total(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self.ids(name))

    def mean(self, name: str) -> float:
        ids = self.ids(name)
        return sum(self.spans[i].duration for i in ids) / len(ids) if ids else 0.0

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def coverage(self) -> float:
        top = sum(s.duration for s in self.spans if s.parent == self.root)
        return top / self.spans[self.root].duration


def _stepping(sp: _Spans, tr: Tracer, wall: float) -> dict:
    spans = sp.spans
    evolve = sp.ids("integrator.evolve")
    steps = sum(spans[i].attrs["steps"] for i in evolve)
    in_evolve = set(evolve)
    diag = sum(
        spans[i].duration
        for name in ("functionals.energy", "functionals.charge", "functionals.momentum")
        for i in sp.ids(name)
        if spans[i].parent in in_evolve
    )
    hooks = sp.count("experiments.hook")
    fits = sp.ids("modulation.fit_modulation")
    in_fit = set(fits)
    done = [spans[i].attrs for i in fits if spans[i].attrs and "converged" in spans[i].attrs]
    conds = [a["cond"] for a in done if math.isfinite(a["cond"])]
    samples_in_fits = sum(1 for i in sp.ids("profiles.sample_soliton") if spans[i].parent in in_fit)
    return {
        "integrator.step_us": 1e6 * sum(sp.selfs[i] for i in evolve) / max(steps, 1),
        "integrator.steps": steps,
        "integrator.ffts_per_step": tr.counts["fft_calls"] / max(steps, 1),
        "integrator.fft_bytes_per_step": tr.counts["fft_bytes"] / max(steps, 1),
        "integrator.diag_ms": 1e3 * diag / max(hooks, 1),
        "experiments.hook_ms": 1e3 * sp.mean("experiments.hook"),
        "experiments.hooks": hooks,
        "experiments.hook_share": sp.total("experiments.hook") / wall,
        "experiments.soliton_sum_ms": 1e3 * sp.mean("experiments.soliton_sum"),
        "modulation.fit_ms": 1e3 * sp.mean("modulation.fit_modulation"),
        "modulation.newton_iters": sum(a["iterations"] for a in done) / max(len(done), 1),
        "modulation.cond_max": max(conds, default=0.0),
        "modulation.converged_ratio": sum(a["converged"] for a in done) / max(len(fits), 1),
        "modulation.samples_per_fit": samples_in_fits / max(len(fits), 1),
        "profiles.sample_soliton_us": 1e6 * sp.mean("profiles.sample_soliton"),
        "profiles.sample_soliton_calls": sp.count("profiles.sample_soliton"),
        "profiles.ground_state_1d_calls": sp.count("profiles.ground_state_1d"),
        "functionals.localized_ms": 1e3 * sp.mean("functionals.localized_quantities"),
        "functionals.cutoffs_ms": 1e3 * sp.mean("functionals.build_cutoffs"),
        "grids.norm_h1l2_us": 1e6 * sp.mean("grids.norm_h1l2"),
    }


def layer_metrics(workload: str, tr: Tracer, root: int, out) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced call (without the overhead, which
    needs the untraced time) and the problems found in its spans."""
    sp = _Spans(tr, root)
    wall = tr.spans[root].duration
    if workload in ("backward_pair", "diag_dense"):
        m = _stepping(sp, tr, wall)
        if workload == "diag_dense":
            writes = sp.ids("fieldio.write_field") + sp.ids("fieldio.write_diagnostics_csv")
            m["config.parse_ms"] = 1e3 * sp.total("config.parse_config")
            m["fieldio.write_ms"] = 1e3 * sum(tr.spans[i].duration for i in writes)
            m["fieldio.bytes_written"] = sum(tr.spans[i].attrs["bytes"] for i in writes)
    elif workload == "spectrum":
        report = sp.ids("spectrum.spectrum_report")
        m = {
            "spectrum.assemble_s": sp.total("spectrum.assemble_second_variation"),
            "spectrum.report_s": sp.total("spectrum.spectrum_report"),
            "spectrum.eigvalsh_s": sp.total("spectrum.eigvalsh"),
            "spectrum.constrained_s": sum(sp.selfs[i] for i in report),
            "spectrum.slope_s": sp.total("spectrum.slope_test"),
            "spectrum.matrix_bytes": out["matrix_bytes"],
        }
    else:
        radial = {tr.spans[i].attrs["d"]: tr.spans[i].duration for i in sp.ids("profiles.ground_state_radial")}
        m = {f"profiles.radial_d{d}_s": radial.get(d, 0.0) for d in (2, 3)}
        sp.missing += [f"profiles.ground_state_radial(d={d})" for d in (2, 3) if d not in radial]
    m["trace.coverage"] = sp.coverage()
    problems = [f"no span named {name}" for name in sorted(set(sp.missing))]
    if m["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {m['trace.coverage']:.3f} below {MIN_COVERAGE}")
    return m, problems
