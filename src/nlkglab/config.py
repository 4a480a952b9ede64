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

Validation collects every violation before failing, so a bad file reports
all its problems at once.  Each rule lives with the class it guards; the
one added here is that p be mass-subcritical.  ``dt`` is a magnitude.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from .experiments import MultiSolitonConfig, run_problems
from .grids import Grid, grid_problems
from .profiles import ModelParams, SolitonParams, model_problems, soliton_problems

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config"]


class ConfigError(ValueError):
    """Syntax or semantic violations; ``problems`` lists all of them."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


@dataclass
class RunConfig:
    m: float = 1.0
    p: float = 3.0
    d: int = 1
    length: float = 160.0
    points: int = 2048
    dt: float = 0.002
    solitons: list[dict] = field(default_factory=list)
    t_final: float = 40.0
    t_start: float = 10.0
    diag_period: float = 0.5
    out_dir: str = "."
    seed: int = 0

    @property
    def stability_warnings(self) -> list[str]:
        """One line per soliton outside the orbital-stability window."""
        threshold = self.model().stability_threshold()
        return [
            f"soliton #{i}: omega^2/m={sp.omega**2 / sp.model.m:.4f} <= "
            f"{threshold:.4f}, outside the orbital-stability window"
            for i, sp in enumerate(self.soliton_params(), start=1) if not sp.stable
        ]

    def model(self) -> ModelParams:
        return ModelParams(self.m, self.p, self.d)

    def grid(self) -> Grid:
        return Grid(self.length, self.points)

    def soliton_params(self) -> list[SolitonParams]:
        model = self.model()
        return [SolitonParams(model, **s) for s in self.solitons]

    def experiment(self) -> MultiSolitonConfig:
        return MultiSolitonConfig(
            model=self.model(),
            grid=self.grid(),
            solitons=self.soliton_params(),
            t_final=self.t_final,
            t_start=self.t_start,
            dt=self.dt,
            diag_period=self.diag_period,
            seed=self.seed,
        )


_SECTION_KEYS = {
    "model": {"m": float, "p": float, "d": int},
    "grid": {"length": float, "points": int},
    "integrator": {"dt": float},
    "soliton": {"omega": float, "theta": float, "v": float, "x0": float},
    "experiment": {
        "t_final": float,
        "t_start": float,
        "diag_period": float,
        "out_dir": str,
        "seed": int,
    },
}
# a [soliton] section starts from the defaults of SolitonParams
_SOLITON_DEFAULTS = {f.name: f.default for f in fields(SolitonParams) if f.default is not MISSING}


def _convert(raw: str, typ, lineno: int, problems: list[str]):
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError:
        problems.append(f"line {lineno}: cannot parse {raw!r} as {typ.__name__}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    problems: list[str] = []
    cfg = RunConfig()
    section: Optional[str] = None
    current_soliton: Optional[dict] = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
                current_soliton = None
                continue
            if section == "soliton":
                current_soliton = dict(_SOLITON_DEFAULTS)
                cfg.solitons.append(current_soliton)
            else:
                current_soliton = None
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if section is None:
            problems.append(f"line {lineno}: key outside of any section")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        keys = _SECTION_KEYS[section]
        if key not in keys:
            problems.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        val = _convert(raw, keys[key], lineno, problems)
        if val is None:
            continue
        if section == "soliton":
            current_soliton[key] = val
        else:
            setattr(cfg, key, val)

    problems += _validate(cfg)
    if problems:
        raise ConfigError(problems)
    # a run orders its solitons by velocity (MultiSolitonConfig): so do its outputs
    cfg.solitons.sort(key=lambda s: s["v"])
    return cfg


def _validate(cfg: RunConfig) -> list[str]:
    """Every rule the values break, each stated by the class that owns it.

    The frequency band needs a valid model and the step heuristic a valid
    grid, so those two are checked once their section holds.  No Grid is
    built: its arrays would be allocated for any point count, however large.
    """
    grid_probs = grid_problems(cfg.length, cfg.points)
    model_probs = model_problems(cfg.m, cfg.p, cfg.d)
    problems = grid_probs + model_probs
    model = None if model_probs else cfg.model()
    if model is not None and not model.mass_subcritical:
        problems.append(
            f"model.p={cfg.p} is not mass-subcritical for d={cfg.d}: "
            "no soliton is orbitally stable"
        )
    for i, s in enumerate(cfg.solitons, start=1):
        if "omega" not in s:
            problems.append(f"soliton #{i}: missing required key 'omega'")
            continue
        problems += [f"soliton #{i}: {msg}" for msg in soliton_problems(model, **s)]
    problems += run_problems(
        [s["v"] for s in cfg.solitons],
        cfg.t_final,
        cfg.t_start,
        cfg.dt,
        cfg.diag_period,
        None if grid_probs else cfg.length / cfg.points,
    )
    return problems


def _format_value(val) -> str:
    return val if isinstance(val, str) else repr(val)


def serialize_config(cfg: RunConfig) -> str:
    """Fully resolved round-trippable text form (written next to run outputs)."""
    blocks = []
    for section, keys in _SECTION_KEYS.items():
        for values in cfg.solitons if section == "soliton" else [vars(cfg)]:
            lines = [f"[{section}]"] + [f"{key} = {_format_value(values[key])}" for key in keys]
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
