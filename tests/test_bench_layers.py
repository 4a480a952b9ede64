"""The benchmark tracer wraps library attributes by name (bench/layers.py),
and each workload calls the library and checks a numerical fingerprint
(bench/workloads.py).

Installing and restoring every wrapper here, without running a workload,
makes a refactor that renames a traced attribute fail the unit tests; running
each workload once does the same for a broken call or a moved fingerprint,
and running it once traced for a span the per-layer metrics read that a
refactor no longer opens.
"""

import importlib
import sys
from pathlib import Path

from nlkglab import cli, experiments, integrator, modulation, profiles, spectrum

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (cli, experiments, integrator, modulation, profiles, spectrum)
TRACED = {
    ("experiments", name)
    for name in (
        "evolve", "soliton_sum", "sample_soliton", "norm_h1l2",
        "build_cutoffs", "localized_quantities", "fit_modulation",
    )
} | {("integrator", name) for name in ("energy", "charge", "momentum", "np")} | {
    ("modulation", "sample_soliton"),
    ("profiles", "ground_state_1d"),
    ("profiles", "ground_state_radial"),
} | {
    ("cli", name)
    for name in ("parse_config", "run_backward_construction", "write_field", "write_diagnostics_csv")
}


def _import_bench(*names):
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read-only: no __pycache__ under bench/
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def test_tracer_patches_install_and_restore():
    layers, tracer = _import_bench("layers", "tracer")
    assert tracer.selftest() == []
    before = {mod: dict(vars(mod)) for mod in MODULES}
    tr = tracer.Tracer()
    try:
        layers.install(tr)
        patched = {
            (mod.__name__.rsplit(".", 1)[1], name)
            for mod in MODULES
            for name, value in vars(mod).items()
            if value is not before[mod].get(name)
        }
    finally:
        tr.restore()
    assert TRACED <= patched
    for mod in MODULES:
        assert all(vars(mod)[name] is value for name, value in before[mod].items())


def test_workloads_reproduce_their_fingerprints(tmp_path):
    """Every benchmark case, called once untraced, passes its fingerprint check."""
    (workloads,) = _import_bench("workloads")
    problems = {}
    for name, prepare in workloads.PREPARE.items():
        case = prepare(1, tmp_path)
        try:
            case.before()
            problems[name] = workloads.check(name, case.fingerprint(case.call()))
        finally:
            case.cleanup()
    assert problems == {name: [] for name in workloads.PREPARE}


def test_traced_workloads_open_every_span(tmp_path):
    """Every benchmark case, called once with the wrappers installed, opens each
    span its per-layer metrics read, nested, with the coverage they require."""
    layers, tracer, workloads = _import_bench("layers", "tracer", "workloads")
    problems = {}
    for name, prepare in workloads.PREPARE.items():
        case = prepare(1, tmp_path)
        tr = tracer.Tracer()
        try:
            case.before()
            layers.install(tr)
            root = tr.open(name)
            try:
                out = case.call()
            finally:
                tr.close(root)
                tr.restore()
            problems[name] = layers.layer_metrics(name, tr, root, out)[1] + tracer.check_nesting(tr.spans)
        finally:
            case.cleanup()
    assert problems == {name: [] for name in workloads.PREPARE}


def test_traced_diag_dense_counts_one_sample_per_soliton_per_iterate(tmp_path):
    """A traced ``diag_dense`` call at seed 1 counts the samples the benchmark
    has always counted: 86 ``modulation.sample_soliton`` calls inside the 21
    fits (one per soliton per Newton iterate, 4.10 per fit, with the fits
    seeded from the last three) and 130 in all."""
    layers, tracer, workloads = _import_bench("layers", "tracer", "workloads")
    case = workloads.PREPARE["diag_dense"](1, tmp_path)
    tr = tracer.Tracer()
    try:
        case.before()
        layers.install(tr)
        root = tr.open("diag_dense")
        try:
            out = case.call()
        finally:
            tr.close(root)
            tr.restore()
        metrics, problems = layers.layer_metrics("diag_dense", tr, root, out)
    finally:
        case.cleanup()
    assert problems == []
    assert metrics["modulation.samples_per_fit"] == 86 / 21
    assert metrics["profiles.sample_soliton_calls"] == 130
