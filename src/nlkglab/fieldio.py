"""Field dump and CSV persistence.

Raw dump layout: one ASCII header line ``NLKG1 <points> <length> <time>``
followed by the little-endian float64 payload ``grids.flat(w)``: re/im
interleaved per sample, the u1 block then the u2 block (2*points doubles
per component).  CSV
values are written with 17 significant digits so parsing them back is
bit-exact.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .grids import Field, Grid, flat, grid_problems, raise_problems

__all__ = [
    "FieldFormatError",
    "write_field",
    "read_field",
    "write_diagnostics_csv",
    "read_csv_columns",
    "format_float",
]

MAGIC = "NLKG1"


class FieldFormatError(IOError):
    """Bad header, or a payload of the wrong size or with NaN or inf values, in a field dump."""


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_field(path: str | Path, w: Field, time: float = 0.0) -> None:
    """Write a dump.  What ``read_field`` would refuse, such as a NaN time or an
    inf value, raises its FieldFormatError before ``path`` is opened."""
    header = f"{MAGIC} {w.grid.points} {format_float(w.grid.length)} {format_float(time)}\n"
    data = header.encode("ascii") + flat(w).astype("<f8").tobytes()
    _decode(data)
    Path(path).write_bytes(data)


def read_field(path: str | Path) -> tuple[Field, float]:
    """Read a dump; returns (field, time).  Grid is rebuilt from the header."""
    return _decode(Path(path).read_bytes())


def _decode(data: bytes) -> tuple[Field, float]:
    """(field, time) of a dump's bytes; FieldFormatError names what is wrong."""
    line, _, payload = data.partition(b"\n")
    header = line.decode("ascii", errors="replace").strip()
    parts = header.split()
    if len(parts) != 4 or parts[0] != MAGIC:
        raise FieldFormatError(
            f"unsupported dump header {header!r} (expected '{MAGIC} <points> <length> <time>')"
        )
    try:
        points, length, time = int(parts[1]), float(parts[2]), float(parts[3])
    except ValueError as exc:
        raise FieldFormatError(f"unreadable dump header {header!r}: {exc}") from exc
    problems = grid_problems(length, points)
    if not math.isfinite(time):
        problems.append(f"time must be finite (got {time})")
    raise_problems([f"bad dump header {header!r}: {p}" for p in problems], FieldFormatError)
    expected = 2 * 2 * points * 8
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "over-long"
        raise FieldFormatError(f"{kind} payload: {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8")
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise FieldFormatError(f"non-finite payload: {bad} of {values.size} values")
    raw = values.view("<c16")
    u1, u2 = raw[:points], raw[points:]
    return Field(u1.copy(), u2.copy(), Grid(length, points)), time


def write_diagnostics_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Sequence[Sequence[float]],
) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def read_csv_columns(path: str | Path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(io.StringIO(fh.read()), delimiter=",", ndmin=2)
    return header, data
