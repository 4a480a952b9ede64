"""Plain-text run configuration: parsing, validation, serialization.

Format: bracketed section headers with ``key = value`` lines; the
``[soliton]`` section repeats once per soliton.  Example::

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

    [soliton]
    omega = 0.8
    v = 0.4

    [experiment]
    t_final = 40.0
    t_start = 10.0
    diag_period = 0.5
    out_dir = runs/two

A file describes one backward construction: ``parse_config`` returns the
validated ``MultiSolitonConfig`` and the file's ``out_dir``, and
``serialize_config`` writes them back with every key resolved.

Validation collects every violation before failing, so a bad file reports
all its problems at once.  A key is set once: in the run (whichever section
holds it, a repeated section included) and in each ``[soliton]``.  Each rule
lives with the class it guards; the one added here is that p be
mass-subcritical.  ``dt`` is a magnitude.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Optional

from .experiments import MultiSolitonConfig, run_problems
from .grids import Grid, grid_problems
from .profiles import ModelParams, SolitonParams, model_problems, soliton_problems

__all__ = ["ConfigError", "parse_config", "serialize_config", "stability_warnings"]


class ConfigError(ValueError):
    """Syntax or semantic violations; ``problems`` lists all of them."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# every key's default, whose type is the key's type; keys are unique across sections
_DEFAULTS = {
    "model": _field_defaults(ModelParams),
    "grid": {"length": 160.0, "points": 2048},
    "integrator": {"dt": 0.002},
    # types only: a [soliton] section starts from the defaults of SolitonParams
    "soliton": dict.fromkeys(("omega", "theta", "v", "x0"), 0.0),
    "experiment": {
        "t_final": 40.0,
        "t_start": 10.0,
        "diag_period": MultiSolitonConfig.diag_period,
        "out_dir": ".",
    },
}
_SOLITON_DEFAULTS = _field_defaults(SolitonParams)


def _convert(raw: str, typ, lineno: int, problems: list[str]):
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError:
        problems.append(f"line {lineno}: cannot parse {raw!r} as {typ.__name__}")
        return None


def parse_config(text: str) -> tuple[MultiSolitonConfig, str]:
    """The run a text describes and its ``out_dir``; raises ConfigError listing
    every violation."""
    problems: list[str] = []
    raw: dict = {k: v for name, keys in _DEFAULTS.items() if name != "soliton" for k, v in keys.items()}
    raw["solitons"] = []
    section: Optional[str] = None
    # the line that set each key: of the run (None), or of the soliton numbered so far
    set_on: dict[tuple[Optional[int], str], int] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _DEFAULTS:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            elif section == "soliton":
                raw["solitons"].append(dict(_SOLITON_DEFAULTS))
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            problems.append(f"line {lineno}: key outside of any section")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        keys = _DEFAULTS[section]
        if key not in keys:
            problems.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        owner = (len(raw["solitons"]) if section == "soliton" else None, key)
        if owner in set_on:
            problems.append(f"line {lineno}: key {key!r} is already set on line {set_on[owner]}")
            continue
        set_on[owner] = lineno
        val = _convert(value, type(keys[key]), lineno, problems)
        if val is not None:
            (raw["solitons"][-1] if section == "soliton" else raw)[key] = val

    validation, model = _validate(raw)
    problems += validation
    if problems:
        raise ConfigError(problems)
    cfg = MultiSolitonConfig(
        model=model,
        grid=Grid(raw["length"], raw["points"]),
        solitons=[SolitonParams(model, **s) for s in raw["solitons"]],
        t_final=raw["t_final"],
        t_start=raw["t_start"],
        dt=raw["dt"],
        diag_period=raw["diag_period"],
    )
    return cfg, raw["out_dir"]


def _validate(raw: dict) -> tuple[list[str], Optional[ModelParams]]:
    """Every rule the values break, each stated by the class that owns it, and
    the model once its values hold.

    The frequency band needs a valid model and the step heuristic a valid
    grid, so those two are checked once their section holds.
    """
    m, p, d = raw["m"], raw["p"], raw["d"]
    grid_probs = grid_problems(raw["length"], raw["points"])
    model_probs = model_problems(m, p, d)
    problems = grid_probs + model_probs
    model = None if model_probs else ModelParams(m, p, d)
    if model is not None and not model.mass_subcritical:
        problems.append(
            f"model.p={p} is not mass-subcritical for d={d}: no soliton is orbitally stable"
        )
    for i, s in enumerate(raw["solitons"], start=1):
        if "omega" not in s:
            problems.append(f"soliton #{i}: missing required key 'omega'")
            continue
        problems += [f"soliton #{i}: {msg}" for msg in soliton_problems(model, **s)]
    problems += run_problems(
        [s["v"] for s in raw["solitons"]],
        raw["t_final"],
        raw["t_start"],
        raw["dt"],
        raw["diag_period"],
        None if grid_probs else raw["length"] / raw["points"],
    )
    return problems, model


def stability_warnings(cfg: MultiSolitonConfig) -> list[str]:
    """One line per soliton outside the orbital-stability window."""
    threshold = cfg.model.stability_threshold()
    return [
        f"soliton #{i}: omega^2/m={sp.omega**2 / sp.model.m:.4f} <= "
        f"{threshold:.4f}, outside the orbital-stability window"
        for i, sp in enumerate(cfg.solitons, start=1) if not sp.stable
    ]


def _format_value(val) -> str:
    return val if isinstance(val, str) else repr(val)


def serialize_config(cfg: MultiSolitonConfig, out_dir: str) -> str:
    """Fully resolved round-trippable text form (written next to run outputs)."""
    run = {**vars(cfg), **vars(cfg.model), **vars(cfg.grid), "out_dir": out_dir}
    blocks = []
    for section, keys in _DEFAULTS.items():
        for values in map(vars, cfg.solitons) if section == "soliton" else [run]:
            lines = [f"[{section}]"] + [f"{key} = {_format_value(values[key])}" for key in keys]
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
