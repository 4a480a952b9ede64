"""nlkglab benchmark: four workloads through the public API and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one table

``--trace 0`` repeats the workload's timed call for S seconds in this one
process and reports the end-to-end metrics: the median over calls of the
call's time relative to the reference kernels run beside it (see
reference.py), the median set-up time of fresh interpreters, the peak
resident memory and the share of calls that succeeded.  Every call's
numerical fingerprint is checked against its reference.

``--trace 1`` gives the per-layer metrics of every workload: for each one
an untraced call and two traced calls, with spans recorded by wrappers
around the library's module attributes (see layers.py).  It is a fixed
amount of work, so S does not apply.  Spans are written to
``.bench_out/trace-seed<N>.json``.

The last line of standard output is the JSON result; the line before it
records the environment and the raw samples.  BENCHMARK.json at the root
and bench/README.md describe the metrics and why each workload is there.
"""

from __future__ import annotations

import os

# one BLAS thread before numpy loads: the library is single-process, and a
# single thread keeps the dense eigensolve's timing steady on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NAMES = ("backward_pair", "diag_dense", "spectrum", "radial")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
E2E = {
    "wall_ratio": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "solved_frac": ("ratio", "higher"),
}


def load_library() -> None:
    """Import nlkglab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nlkglab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import nlkglab from {src}: {exc}")
    if not Path(nlkglab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: nlkglab was imported from {nlkglab.__file__}, not {src}")


def _blas_threads() -> dict:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(mod) -> str | None:
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


def attempt(case, tracer=None):
    """One timed call: (wall, output, fingerprint, problems).

    A call that raises is a failed attempt, never the end of the benchmark.
    With a tracer the wrappers are in place and a root span covers the call.
    """
    from workloads import check

    case.before()
    if tracer is not None:
        import layers

        layers.install(tracer)
        root = tracer.open(case.name)
    start = time.perf_counter()
    try:
        out = case.call()
    except Exception as exc:  # the benchmark must survive a failing call
        return time.perf_counter() - start, None, None, [f"raised {type(exc).__name__}: {exc}"]
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            tracer.restore()
    try:
        fp = case.fingerprint(out)
    except Exception as exc:  # unreadable output is a failed call as well
        return wall, out, None, [f"fingerprint failed: {type(exc).__name__}: {exc}"]
    return wall, out, fp, check(case.name, fp)


def probe_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports, builds inputs and warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up of {name} failed:\n{proc.stderr[-2000:]}")
    return wall


def run_untraced(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    from workloads import KERNELS, PREPARE

    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    case = PREPARE[name](seed, OUT)
    kernels = KERNELS[name]()
    walls, refs, fingerprints, problems = [], [], [], []
    try:
        # call 0 is a warm-up, checked but not timed: lazy imports, FFT plans
        # and the allocator's arenas settle before the timed calls.  The
        # reference kernels run after every call, so each timed call has a
        # reference run just before and just after it.
        start = None
        while start is None or time.perf_counter() - start < seconds:
            wall, _, fp, probs = attempt(case)
            walls.append(wall)
            fingerprints.append(fp)
            problems.append(probs)
            ref_start = time.perf_counter()
            kernels()
            refs.append(time.perf_counter() - ref_start)
            start = start or time.perf_counter()
    finally:
        case.cleanup()
    ratios = [w / (0.5 * (r0 + r1)) for w, r0, r1 in zip(walls[1:], refs, refs[1:])]
    ok = [i for i, p in enumerate(problems[1:]) if not p] or range(len(ratios))
    failed = sum(1 for p in problems if p)
    values = {
        "wall_ratio": statistics.median(ratios[i] for i in ok),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": (len(walls) - failed) / len(walls),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E[k][0]} for k, v in values.items()},
    }
    detail = {
        "wall_s_median": statistics.median(walls[1:]),
        "walls_s": walls,
        "reference_s": refs,
        "setup_probes_s": setups,
        "fingerprints": fingerprints,
        "problems": [f"call {i}: {p}" for i, probs in enumerate(problems) for p in probs],
    }
    return result, detail


def trace_workload(name: str, seed: int) -> tuple[dict, list[str], int, dict, list]:
    """One untraced and two traced calls of one workload.

    Returns the per-layer metrics, the problems, the failed calls, the raw
    timings and the spans of the last traced call.
    """
    import layers
    from tracer import Tracer, check_nesting
    from workloads import PREPARE

    case = PREPARE[name](seed, OUT)
    problems, runs, failed = [], [], 0
    try:
        u_wall, _, u_fp, probs = attempt(case)
        problems += [f"untraced: {p}" for p in probs]
        failed += bool(probs)
        for _ in range(2):
            tr = Tracer()
            wall, out, fp, probs = attempt(case, tr)
            if not probs:
                m, probs = layers.layer_metrics(name, tr, 0, out)
                probs += check_nesting(tr.spans)
                if fp != u_fp:
                    probs.append(f"fingerprint {fp} differs from the untraced {u_fp}")
                runs.append((wall, m))
            problems += [f"traced: {p}" for p in probs]
            failed += bool(probs)
    finally:
        case.cleanup()
    merged = {k: 0.0 for k in layers.METRICS[name]}
    if len(runs) == 2:
        (w1, m1), (w2, m2) = runs
        for key in layers.EXACT_COUNTS:
            if key in m1 and m1[key] != m2[key]:
                problems.append(f"{key} did not repeat ({m1[key]} then {m2[key]})")
        merged = {k: m1[k] if k in layers.EXACT_COUNTS else 0.5 * (m1[k] + m2[k]) for k in m1}
        merged["trace.overhead_frac"] = 0.5 * (w1 + w2) / u_wall - 1.0
    timings = {"untraced_wall_s": u_wall, "traced_wall_s": [w for w, _ in runs], "fingerprint": u_fp}
    return merged, problems, failed, timings, [s.as_list() for s in tr.spans]


def run_traced(seed: int) -> tuple[dict, dict]:
    import layers
    from tracer import selftest

    problems = selftest()
    metrics, detail, spans = {}, {}, {}
    failed = 0
    for name in NAMES:
        merged, probs, fails, detail[name], spans[name] = trace_workload(name, seed)
        problems += [f"{name} {p}" for p in probs]
        failed += fails
        for key, (unit, _) in layers.METRICS[name].items():
            metrics[f"{name}.{key}"] = {"value": merged[key], "unit": unit}
    trace_file = OUT / f"trace-seed{seed}.json"
    trace_file.write_text(json.dumps({"seed": seed, "spans": spans}), encoding="utf-8")
    detail["problems"] = problems
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    attempted = 3 * len(NAMES)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}, detail


def spec_problems(result: dict, trace: bool) -> list[str]:
    """Metric names, units and directions disagreeing with BENCHMARK.json."""
    import layers

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        return ["BENCHMARK.json is missing"]
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        ours = {f"{w}.{k}": v for w in NAMES for k, v in layers.METRICS[w].items()}
    else:
        ours = E2E
    problems = [f"{k} {v} not in BENCHMARK.json as such" for k, v in ours.items() if listed.get(k) != v]
    problems += [f"{k} in BENCHMARK.json but not measured" for k in listed if k not in ours]
    if set(result["metrics"]) != set(ours):
        problems.append("reported metrics differ from the specification")
    return problems


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own fresh process; one table and one JSON line."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        flag = "ok" if res["correct"] else "INCORRECT"
        cells = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:14s} {flag:9s} {cells}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    load_library()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        from workloads import PREPARE

        PREPARE[args.workload](args.seed, OUT).cleanup()
        return 0
    if args.trace:
        result, detail = run_traced(args.seed)
    else:
        result, detail = run_untraced(args.workload, args.seed, args.seconds)
    spec = spec_problems(result, bool(args.trace))
    if spec:
        print("bench: " + "; ".join(spec), file=sys.stderr)
        result["correct"] = False
    for problem in detail.get("problems", []):
        print(f"bench: {problem}", file=sys.stderr)
    head = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": environment()}
    print(json.dumps({**head, **detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
