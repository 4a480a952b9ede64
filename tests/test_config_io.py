import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkglab.config import ConfigError, parse_config, serialize_config, stability_warnings
from nlkglab.experiments import MultiSolitonConfig, soliton_sum
from nlkglab.fieldio import (
    FieldFormatError,
    read_csv_columns,
    read_field,
    write_diagnostics_csv,
    write_field,
)
from nlkglab.grids import Field, Grid, flat
from nlkglab.integrator import step_problems
from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton

GOOD = """
[model]
m = 1.0
p = 3.0
d = 1

[grid]
length = 160.0
points = 2048

[integrator]
dt = 0.005

[soliton]
omega = 0.8
v = -0.4

[soliton]
omega = 0.8
theta = 0.1
v = 0.4
x0 = 1.0

[experiment]
t_final = 40.0
t_start = 10.0
diag_period = 0.5
out_dir = runs/two
"""


def _pair(first: str, second: str) -> str:
    """GOOD with its two [soliton] sections replaced by ``first`` and ``second``."""
    head, tail = GOOD.split("[soliton]", 1)[0], GOOD.split("[experiment]", 1)[1]
    return f"{head}[soliton]\n{first}\n\n[soliton]\n{second}\n\n[experiment]{tail}"


def test_parse_good_config():
    cfg, out_dir = parse_config(GOOD)
    assert cfg.grid.points == 2048
    assert len(cfg.solitons) == 2
    assert cfg.solitons[1].theta == 0.1
    assert out_dir == "runs/two"
    assert stability_warnings(cfg) == []
    assert cfg.v_star == pytest.approx(0.8)


def test_equal_velocities_rejected():
    bad = GOOD.replace("v = -0.4", "v = 0.4")
    with pytest.raises(ConfigError, match="distinct velocities"):
        parse_config(bad)


def test_stability_warning_for_low_frequency():
    cfg, _ = parse_config(GOOD.replace("omega = 0.8\nv = -0.4", "omega = 0.6\nv = -0.4"))
    assert any("stability" in w for w in stability_warnings(cfg))


def test_all_violations_reported():
    bad = GOOD.replace("v = -0.4", "v = 1.4").replace("dt = 0.005", "dt = 0.0")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    text = str(exc.value)
    assert "speed of light" in text
    assert "dt" in text


def test_run_dimension_must_be_one(tmp_path, capsys):
    """A run's solitons are sampled in 1D: d = 2 (p = 2 is mass-subcritical
    there) is listed with the other problems, and both the multisoliton and
    the evolve commands exit 2 on it before anything runs."""
    from nlkglab.cli import main

    text = GOOD.replace("d = 1", "d = 2").replace("p = 3.0", "p = 2.0")
    with pytest.raises(ConfigError) as exc:
        parse_config(text.replace("dt = 0.005", "dt = 0.0"))
    assert "dimension d must be 1 for a run (got 2)" in str(exc.value)
    assert "dt=0.0 must be positive" in str(exc.value)
    cfg = tmp_path / "d2.cfg"
    cfg.write_text(text, encoding="utf-8")
    src, out = tmp_path / "zero.dump", tmp_path / "o.dump"
    write_field(src, Field.zeros(Grid(40.0, 256)))
    for args in (["multisoliton", "--config", str(cfg), "--out-dir", str(tmp_path / "run")],
                 ["evolve", "--from", str(src), "--config", str(cfg),
                  "--t0", "0", "--t1", "0.1", "--dt", "0.01", "--out", str(out)]):
        assert main(args) == 2
        assert "dimension d must be 1 for a run" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not out.exists()


def test_soliton_peak_underflow_listed_per_soliton():
    """p = 1.001 at omega = 0.8 puts the ground-state peak below the floats:
    SolitonParams refuses it, and parse_config names each soliton it breaks."""
    with pytest.raises(ValueError, match="underflows to 0"):
        SolitonParams(ModelParams(1.0, 1.001, 1), omega=0.8)
    with pytest.raises(ConfigError) as exc:
        parse_config(GOOD.replace("p = 3.0", "p = 1.001"))
    text = str(exc.value)
    assert "soliton #1: ground-state peak" in text and "soliton #2: ground-state peak" in text


def test_negative_dt_rejected():
    """dt is the step magnitude; the run sets the direction."""
    with pytest.raises(ConfigError, match="dt=-0.005 must be positive"):
        parse_config(GOOD.replace("dt = 0.005", "dt = -0.005"))


def test_faults_in_three_sections_reported_together():
    bad = (
        GOOD.replace("m = 1.0", "m = -1.0")
        .replace("v = -0.4", "v = 1.4")
        .replace("t_final = 40.0", "t_final = 5.0")
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    text = str(exc.value)
    assert "mass m must be positive" in text
    assert "speed of light" in text
    assert "t_final=5.0 must exceed t_start=10.0" in text


def test_syntax_errors_have_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[model]\nnot a kv line\n")


def test_unknown_section_and_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("[nonsense]\nfoo = 1\n[model]\nbar = 2\n")
    assert "unknown section" in str(exc.value)
    assert "unknown key" in str(exc.value)


def test_dealias_key_is_unknown(tmp_path, capsys):
    """The integrator has no dealias switch: a config naming one gets the
    unknown-key error, and the CLI exits 2 before it runs anything."""
    from nlkglab.cli import main

    text = GOOD.replace("dt = 0.005\n", "dt = 0.005\ndealias = false\n")
    with pytest.raises(ConfigError, match=r"line 13: unknown key 'dealias' in section \[integrator\]"):
        parse_config(text)
    path = tmp_path / "old.cfg"
    path.write_text(text, encoding="utf-8")
    code = main(["multisoliton", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "unknown key 'dealias'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_key_is_unknown(tmp_path, capsys):
    """No command reads a seed: a config that sets one exits 2 with the
    unknown-key error before it runs anything."""
    from nlkglab.cli import main

    path = tmp_path / "old.cfg"
    path.write_text(GOOD + "seed = 7\n", encoding="utf-8")
    code = main(["multisoliton", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "unknown key 'seed' in section [experiment]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        (GOOD.replace("points = 2048\n", "points = 2048\npoints = 1024\n"),
         "line 10: key 'points' is already set on line 9"),
        (GOOD + "\n[model]\np = 2.0\n", "line 31: key 'p' is already set on line 4"),
        (GOOD.replace("v = -0.4\n", "v = -0.4\nomega = 0.7\n"),
         "line 17: key 'omega' is already set on line 15"),
    ],
    ids=["same-section", "repeated-section", "same-soliton"],
)
def test_repeated_key_names_both_lines(tmp_path, capsys, text, problem):
    """A key set twice in the run (in one section or in a repeated one) or
    twice in one [soliton] is one problem naming both lines, not a silent
    later value; each [soliton] sets its own keys.  The CLI exits 2."""
    from nlkglab.cli import main

    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.problems == [problem]
    path = tmp_path / "twice.cfg"
    path.write_text(text, encoding="utf-8")
    code = main(["multisoliton", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_serialize_roundtrip():
    cfg, out_dir = parse_config(GOOD)
    cfg2, out_dir2 = parse_config(serialize_config(cfg, out_dir))
    assert cfg2.dt == cfg.dt
    assert cfg2.solitons == cfg.solitons
    assert cfg2.t_final == cfg.t_final
    assert out_dir2 == out_dir


def test_serialize_config_text():
    """Every key of every section in table order, the soliton defaults filled in."""
    assert serialize_config(*parse_config(GOOD)) == """\
[model]
m = 1.0
p = 3.0
d = 1

[grid]
length = 160.0
points = 2048

[integrator]
dt = 0.005

[soliton]
omega = 0.8
theta = 0.0
v = -0.4
x0 = 0.0

[soliton]
omega = 0.8
theta = 0.1
v = 0.4
x0 = 1.0

[experiment]
t_final = 40.0
t_start = 10.0
diag_period = 0.5
out_dir = runs/two
"""


@pytest.mark.parametrize(
    "old, new, message",
    [("theta = 0.1", "theta = nan", "theta=nan"), ("x0 = 1.0", "x0 = inf", "x0=inf")],
)
def test_non_finite_soliton_phase_or_position_rejected(tmp_path, capsys, old, new, message):
    """A phase or position that is not finite is a configuration error (exit 2)
    that names the soliton, found before anything runs."""
    from nlkglab.cli import main

    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD.replace(old, new), encoding="utf-8")
    assert main(["multisoliton", "--config", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"soliton #2: {message} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_field_dump_roundtrip(tmp_path):
    g = Grid(40.0, 256)
    rng = np.random.default_rng(0)
    w = Field(
        rng.standard_normal(256) + 1j * rng.standard_normal(256),
        rng.standard_normal(256) + 1j * rng.standard_normal(256),
        g,
    )
    w.u2[:3] = [complex(5e-324, -0.0), complex(-np.finfo(float).max, 0.0), complex(-0.0, np.finfo(float).tiny)]
    path = tmp_path / "field.dump"
    write_field(path, w, time=12.25)
    back, t = read_field(path)
    assert t == 12.25
    assert back.u1.tobytes() == w.u1.tobytes()
    assert back.u2.tobytes() == w.u2.tobytes()  # bit-exact: signed zeros, subnormals, extremes
    assert back.grid.points == 256
    assert back.grid.length == 40.0


def _raw_dump(path, w, time=0.0):
    """Write w as a dump without the writer's checks, as a damaged file holds it."""
    header = f"NLKG1 {w.grid.points} {w.grid.length!r} {time!r}\n".encode("ascii")
    path.write_bytes(header + flat(w).astype("<f8").tobytes())


def test_field_dump_non_finite_rejected(tmp_path):
    """A dump holding NaN or inf is refused, with the count of bad values."""
    w = Field.zeros(Grid(40.0, 256))
    w.u2[:3] = [complex(1.0, np.inf), complex(np.nan, 2.0), complex(-np.inf, np.nan)]
    path = tmp_path / "field.dump"
    _raw_dump(path, w)
    with pytest.raises(FieldFormatError, match=r"^non-finite payload: 4 of 1024 values$"):
        read_field(path)


@pytest.mark.parametrize(
    "time, component, message",
    [
        (float("nan"), "", r"^bad dump header 'NLKG1 256 40 nan': time must be finite \(got nan\)$"),
        (0.0, "u2", r"^non-finite payload: 1 of 1024 values$"),
    ],
    ids=["nan-time", "inf-in-u2"],
)
def test_write_field_refuses_what_read_field_refuses(tmp_path, time, component, message):
    """A NaN time or an inf value raises the reader's FieldFormatError before the
    file is opened: no file is created, and an existing one keeps its bytes."""
    w = Field.zeros(Grid(40.0, 256))
    if component:
        getattr(w, component)[3] = complex(np.inf, 0.0)
    new, old = tmp_path / "new.dump", tmp_path / "old.dump"
    write_field(old, Field.zeros(Grid(40.0, 256)), 1.0)
    before = old.read_bytes()
    for path in (new, old):
        with pytest.raises(FieldFormatError, match=message):
            write_field(path, w, time)
    assert not new.exists() and old.read_bytes() == before


def test_finite_dump_bytes(tmp_path):
    """A finite dump is its header line and the flat float64 payload, nothing else."""
    rng = np.random.default_rng(2)
    w = Field(*(rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))), Grid(12.5, 64))
    path = tmp_path / "field.dump"
    write_field(path, w, time=-0.1)
    assert path.read_bytes() == b"NLKG1 64 12.5 -0.10000000000000001\n" + flat(w).astype("<f8").tobytes()


def test_field_dump_payload_is_flat(tmp_path):
    """The payload after the header line is flat(w) as little-endian float64."""
    rng = np.random.default_rng(1)
    w = Field(*(rng.standard_normal((2, 256)) + 1j * rng.standard_normal((2, 256))), Grid(40.0, 256))
    path = tmp_path / "field.dump"
    write_field(path, w, time=1.5)
    assert path.read_bytes().split(b"\n", 1)[1] == flat(w).astype("<f8").tobytes()


def test_field_dump_header_mismatch(tmp_path):
    path = tmp_path / "bad.dump"
    path.write_bytes(b"NLKG9 256 40.0 0.0\n" + b"\x00" * 100)
    with pytest.raises(FieldFormatError, match="header"):
        read_field(path)


def test_field_dump_truncated(tmp_path):
    g = Grid(40.0, 256)
    w = Field.zeros(g)
    path = tmp_path / "trunc.dump"
    write_field(path, w)
    data = path.read_bytes()
    for payload, kind in ((data[:-16], "truncated"), (data + b"\x00" * 5, "over-long")):
        path.write_bytes(payload)
        with pytest.raises(FieldFormatError, match=kind):
            read_field(path)


def test_csv_roundtrip(tmp_path):
    rows = [[1.0 / 3.0, 2.0**-52, -1.234567890123456789e10], [np.pi, np.e, 0.1]]
    path = tmp_path / "d.csv"
    write_diagnostics_csv(path, ["a", "b", "c"], rows)
    header, data = read_csv_columns(path)
    assert header == ["a", "b", "c"]
    assert np.array_equal(data, np.array(rows))  # 17 significant digits round-trip


@pytest.mark.parametrize("points", [1023, 1024])
def test_cli_groundstate_prints_the_peak_at_x0(capsys, points):
    """An odd point count has no grid point at x = 0; phi(0) is still the
    peak sqrt(2) of the omega = 0, p = 3 ground state, as for an even count."""
    from nlkglab.cli import main

    code = main(["groundstate", "--omega", "0", "--grid-points", str(points), "--length", "80"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "phi(0) = 1.41421356237"


def test_cli_groundstate_and_soliton(tmp_path, capsys):
    from nlkglab.cli import main

    out_csv = tmp_path / "gs.csv"
    code = main(
        [
            "groundstate", "--m", "1.0", "--p", "3.0", "--d", "1",
            "--omega", "0.8", "--grid-points", "512", "--length", "80.0",
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "residual" in text
    header, data = read_csv_columns(out_csv)
    assert header == ["x", "phi"]
    assert data.shape == (512, 2)

    dump = tmp_path / "s.dump"
    code = main(
        [
            "soliton", "--omega", "0.8", "--v", "0.4", "--t", "0.0",
            "--grid-points", "512", "--length", "80.0", "--out", str(dump),
        ]
    )
    assert code == 0
    w, t = read_field(dump)
    assert t == 0.0

    out_dump = tmp_path / "e.dump"
    code = main(
        [
            "evolve", "--from", str(dump), "--t0", "0", "--t1", "1.0", "--dt", "0.01",
            "--out", str(out_dump), "--diag", str(tmp_path / "diag.csv"),
        ]
    )
    assert code == 0
    header, data = read_csv_columns(tmp_path / "diag.csv")
    assert header == ["t", "E", "Q", "P"]
    assert abs(data[0, 1] - data[-1, 1]) < 1e-8


def test_cli_spectrum_and_modulate(tmp_path, capsys):
    from nlkglab.cli import main

    out_csv = tmp_path / "spec.csv"
    code = main(
        [
            "spectrum", "--omega", "0.8", "--v", "0.0",
            "--grid-points", "256", "--length", "80.0", "--out", str(out_csv),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "negative eigenvalues : 1" in text
    assert "kernel dimension     : 2" in text
    header, data = read_csv_columns(out_csv)
    assert header == ["index", "eigenvalue"]
    # the rows are the report's certified low end of S, not 20 of its 2N eigenvalues
    from nlkglab.functionals import ActionParams
    from nlkglab.spectrum import assemble_second_variation, spectrum_report

    sp = SolitonParams(ModelParams(1.0, 3.0, 1), omega=0.8, v=0.0)
    phi = sample_soliton(sp, 0.0, Grid(80.0, 256))
    rep = spectrum_report(assemble_second_variation(phi, ActionParams.from_soliton(sp)))
    assert len(data) >= 4
    assert np.array_equal(data[:, 0], np.arange(len(data)))
    assert np.array_equal(data[:, 1], np.sort(rep.eigenvalues))
    assert abs(data[0, 1] + 3.0 * (1.0 - 0.8**2)) < 1e-10

    # modulate an exact pair dump with the config as seed
    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text(GOOD.replace("points = 2048", "points = 1024"), encoding="utf-8")
    run, _ = parse_config(cfg_path.read_text(encoding="utf-8"))
    w = soliton_sum(run.solitons, 0.0, run.grid)
    dump = tmp_path / "pair.dump"
    write_field(dump, w, 0.0)
    code = main(["modulate", "--from", str(dump), "--seed", str(cfg_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "residual H1xL2 norm" in text


def test_cli_out_dir_env(tmp_path, monkeypatch):
    from nlkglab.cli import main

    cfg = GOOD.replace("points = 2048", "points = 512")
    cfg = cfg.replace("t_final = 40.0", "t_final = 31.0")
    cfg = cfg.replace("t_start = 10.0", "t_start = 29.0")
    cfg = cfg.replace("diag_period = 0.5", "diag_period = 1.0")
    path = tmp_path / "run.cfg"
    path.write_text(cfg, encoding="utf-8")
    monkeypatch.setenv("NLKG_OUT_DIR", str(tmp_path))
    code = main(["multisoliton", "--config", str(path)])
    assert code == 0
    assert (tmp_path / "runs" / "two" / "summary.txt").exists()


def test_cli_config_error_exit_code(tmp_path):
    from nlkglab.cli import main

    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD.replace("v = -0.4", "v = 0.4"), encoding="utf-8")
    code = main(["multisoliton", "--config", str(bad)])
    assert code == 2


def test_parse_config_lists_a_window_that_is_not_whole_steps():
    """t_final - t_start must be a whole number of steps of dt: parse_config
    lists the rule beside the file's other problems, before any run starts."""
    text = GOOD.replace("t_start = 10.0", "t_start = 10.0011").replace("t_final = 40.0", "t_final = 12")
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("dt = 0.005", "dt = 0.002").replace("v = -0.4", "v = 1.4"))
    assert len(err.value.problems) == 2
    assert "soliton #1" in err.value.problems[0]
    assert err.value.problems[1].startswith("(t1-t0)/dt = 999.45")
    assert err.value.problems[1].endswith("is not a finite positive whole number of steps")


def test_cli_step_too_small_to_count_is_a_config_error(tmp_path, capsys):
    """A dt so small that the span overflows its step count is a configuration
    error (exit 2) naming the count, in evolve and in a multisoliton config:
    not an OverflowError traceback when the run starts."""
    from nlkglab.cli import main

    src, out = tmp_path / "s.dump", tmp_path / "e.dump"
    write_field(src, sample_soliton(SolitonParams(ModelParams(), omega=0.8), 0.0, Grid(80.0, 256)))
    argv = ["evolve", "--from", str(src), "--t0", "0", "--t1", "30", "--dt", "2e-311", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: (t1-t0)/dt = inf is not a finite positive whole number of steps\n"
    assert not out.exists()

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(GOOD.replace("dt = 0.005", "dt = 2e-311"), encoding="utf-8")
    assert main(["multisoliton", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == "invalid configuration:\n  (t1-t0)/dt = inf is not a finite positive whole number of steps\n"
    assert not (tmp_path / "run").exists()


def test_step_count_too_large_to_check_is_a_config_error(tmp_path, capsys):
    """A dt whose step count is too large to check as whole steps (30 / 1e-300)
    is refused before a step: evolve exits 2 with one stderr line, and
    parse_config lists the rule beside the file's other problems."""
    from nlkglab.cli import main

    src, out = tmp_path / "s.dump", tmp_path / "e.dump"
    write_field(src, sample_soliton(SolitonParams(ModelParams(), omega=0.8), 0.0, Grid(80.0, 256)))
    argv = ["evolve", "--from", str(src), "--t0", "0", "--t1", "30", "--dt", "1e-300", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: (t1-t0)/dt = 3e+301 steps is too large a count to check as whole steps\n"
    assert not out.exists()

    with pytest.raises(ConfigError) as err:
        parse_config(GOOD.replace("dt = 0.005", "dt = 1e-300").replace("v = -0.4", "v = 1.4"))
    assert len(err.value.problems) == 2
    assert "soliton #1" in err.value.problems[0]
    assert err.value.problems[1] == "(t1-t0)/dt = 3e+301 steps is too large a count to check as whole steps"


def test_cli_groundstate_out_is_the_diagnostics_csv(tmp_path):
    """groundstate --out writes through the one CSV writer: an ``x,phi`` header
    and one line per sample at 17 significant digits, which reads back to the
    bit."""
    from nlkglab.cli import main
    from nlkglab.profiles import ground_state_1d

    out, g = tmp_path / "gs.csv", Grid(80.0, 256)
    assert main(["groundstate", "--omega", "0.8", "--grid-points", "256", "--length", "80.0",
                 "--out", str(out)]) == 0
    phi = ground_state_1d(ModelParams(), 0.8, g).samples
    lines = [f"{format(float(x), '.17g')},{format(float(v), '.17g')}" for x, v in zip(g.x, phi)]
    assert out.read_bytes() == ("x,phi\n" + "\n".join(lines) + "\n").encode("ascii")
    header, data = read_csv_columns(out)
    assert header == ["x", "phi"]
    assert np.array_equal(data[:, 0], g.x) and np.array_equal(data[:, 1], phi)


def test_cli_missing_file_exit_code(tmp_path):
    from nlkglab.cli import main

    code = main(["evolve", "--from", str(tmp_path / "nope.dump"),
                 "--t0", "0", "--t1", "1", "--dt", "0.01",
                 "--out", str(tmp_path / "o.dump")])
    assert code == 4


def test_cli_evolve_overflowing_diag_period_writes_the_input_back(tmp_path):
    """t0 = t1 with a period that overflows in steps of |dt| (1e300 / 1e-300)
    writes the input field back with the one t0 row, exit 0."""
    from nlkglab.cli import main

    src, out, diag = tmp_path / "s.dump", tmp_path / "o.dump", tmp_path / "d.csv"
    grid = Grid(40.0, 256)
    w = Field(np.exp(-grid.x**2) + 0j, 0.5j * np.exp(-grid.x**2), grid)
    write_field(src, w)
    code = main(["evolve", "--from", str(src), "--t0", "0", "--t1", "0", "--dt", "1e-300",
                 "--diag-period", "1e300", "--diag", str(diag), "--out", str(out)])
    assert code == 0
    back, t = read_field(out)
    assert t == 0.0 and np.array_equal(back.u1, w.u1) and np.array_equal(back.u2, w.u2)
    header, rows = read_csv_columns(diag)
    assert header == ["t", "E", "Q", "P"] and rows.shape == (1, 4) and rows[0, 0] == 0.0


def test_cli_spectrum_assembly_failure_exit_code(capsys):
    """A profile too coarse to be a critical point fails assembly: exit 3."""
    from nlkglab.cli import main

    code = main(["spectrum", "--omega", "0.8", "--grid-points", "256", "--length", "120"])
    assert code == 3
    assert "not a converged critical point" in capsys.readouterr().err


def test_cli_spectrum_unresolved_profile_gives_points_per_width(capsys):
    """An exact profile that the grid does not resolve fails the criticality
    check with exit 3, and the message gives its points per width: 4.0 at
    (80, 256), omega = 0.6, v = 0, where ||S'|| is about 5.5e-7."""
    from nlkglab.cli import main

    code = main(["spectrum", "--omega", "0.6", "--grid-points", "256", "--length", "80"])
    assert code == 3
    err = capsys.readouterr().err
    assert re.search(r"\(\|\|S'\|\| = 5\.\d+e-07; 4\.0 points per profile width\)$", err.strip())


def test_cli_spectrum_lanczos_no_convergence_exit_code(monkeypatch, capsys):
    """A delta solve that misses its stop tolerance fails its Kahan certificate
    while the low end of S passes its own: the report raises AssemblyError,
    and the CLI ends with a numerical failure (exit 3, one stderr line), not a
    traceback."""
    from nlkglab import spectrum
    from nlkglab.cli import main
    from nlkglab.functionals import ActionParams

    monkeypatch.setattr(spectrum, "DELTA_TOL", 0.0)  # no residual reaches it
    sp = SolitonParams(ModelParams(1.0, 3.0, 1), omega=0.8, v=0.0)
    phi = sample_soliton(sp, 0.0, Grid(80.0, 256))
    op = spectrum.assemble_second_variation(phi, ActionParams.from_soliton(sp))
    with pytest.raises(spectrum.AssemblyError, match="coercivity eigensolve did not converge: Kahan bound"):
        spectrum.spectrum_report(op)
    code = main(["spectrum", "--omega", "0.8", "--grid-points", "256", "--length", "80"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: coercivity eigensolve did not converge")


def test_cli_spectrum_uncertified_low_end_exit_code(monkeypatch, capsys):
    """A low end of S that LOBPCG did not converge fails its Kahan certificate:
    the report raises AssemblyError instead of counting its Ritz values, and
    the CLI ends with a numerical failure (exit 3, one stderr line), not a
    traceback."""
    from nlkglab import spectrum
    from nlkglab.cli import main
    from nlkglab.functionals import ActionParams

    monkeypatch.setattr(spectrum, "LOBPCG_MAXITER", 1)
    sp = SolitonParams(ModelParams(1.0, 3.0, 1), omega=0.8, v=0.0)
    phi = sample_soliton(sp, 0.0, Grid(80.0, 256))
    op = spectrum.assemble_second_variation(phi, ActionParams.from_soliton(sp))
    with pytest.raises(spectrum.AssemblyError, match="low end of the Schur complement not certified"):
        spectrum.spectrum_report(op)
    code = main(["spectrum", "--omega", "0.8", "--grid-points", "256", "--length", "80"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: low end of the Schur complement not certified")


def test_every_library_error_has_an_exit_code(capsys):
    """Each exception class the package defines ends a command with exit 2, 3
    or 4, never with a traceback."""
    import importlib
    import inspect
    import pkgutil

    import nlkglab
    from nlkglab.cli import _run_command

    errors = set()
    for info in pkgutil.iter_modules(nlkglab.__path__):
        mod = importlib.import_module(f"nlkglab.{info.name}")
        errors |= {
            cls
            for _, cls in inspect.getmembers(mod, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == mod.__name__
        }
    assert {"AssemblyError", "ShootingError", "DegenerateConfigurationError"} <= {
        cls.__name__ for cls in errors
    }
    for cls in errors:

        def fail(args, cls=cls):
            raise cls.__new__(cls)  # bypasses the constructors, whose arguments differ

        assert _run_command(fail, None) in (2, 3, 4), cls.__name__


@pytest.mark.parametrize("command", ["soliton", "spectrum"])
def test_cli_d_is_a_usage_error_outside_groundstate(tmp_path, capsys, command):
    """soliton and spectrum sample d = 1 solitons, so they reject --d (exit 2)."""
    from nlkglab.cli import main

    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--omega", "0.8", "--d", "3", "--grid-points", "512",
              "--length", "120", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d 3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_multisoliton_small(tmp_path):
    from nlkglab.cli import main

    cfg = GOOD.replace("points = 2048", "points = 1024")
    cfg = cfg.replace("t_final = 40.0", "t_final = 18.0")
    cfg = cfg.replace("t_start = 10.0", "t_start = 14.0")
    cfg = cfg.replace("diag_period = 0.5", "diag_period = 1.0")
    path = tmp_path / "run.cfg"
    path.write_text(cfg, encoding="utf-8")
    outdir = tmp_path / "out"
    code = main(["multisoliton", "--config", str(path), "--out-dir", str(outdir)])
    assert code == 0
    assert (outdir / "diagnostics.csv").exists()
    assert (outdir / "summary.txt").exists()
    assert (outdir / "resolved.cfg").exists()
    assert (outdir / "field_final.dump").exists()
    header, data = read_csv_columns(outdir / "diagnostics.csv")
    assert header[:4] == ["t", "E", "Q", "P"]
    assert header[-4:] == ["S_localized", "err_H1L2", "newton_iters", "cond"]
    # every hook fitted (the run stays in the tube), with whole iteration counts; the
    # fit at the final time starts from the exact sum and converges at iteration 0,
    # and its cond is still that of the Jacobian at the returned parameters
    iters, cond = data[:, -2], data[:, -1]
    assert iters[-1] == 0 and np.isfinite(cond[-1]) and cond[-1] >= 1.0
    assert np.all(iters[:-1] >= 1) and np.all(iters == np.round(iters))
    assert np.all(np.isfinite(cond) & (cond >= 1.0))


def test_parse_config_orders_solitons_by_velocity():
    """Solitons come back sorted by v, the order of a run's cutoff cells; the
    validation messages number them as the file does."""
    cfg, _ = parse_config(_pair("omega = 0.8\nv = 0.4", "omega = 0.75\nv = -0.4"))
    assert [(s.omega, s.v) for s in cfg.solitons] == [(0.75, -0.4), (0.8, 0.4)]
    with pytest.raises(ConfigError) as exc:
        parse_config(_pair("omega = 0.8\nv = 0.4", "omega = 1.5\nv = -0.4"))
    assert [p.split(":")[0] for p in exc.value.problems] == ["soliton #2"]


def test_cli_multisoliton_columns_follow_velocity_order(tmp_path):
    """A stable pair listed out of velocity order: resolved.cfg lists v = -0.4
    first, and E_0 is that soliton's localized energy."""
    from nlkglab.cli import main
    from nlkglab.functionals import energy
    from nlkglab.profiles import ModelParams, SolitonParams, sample_soliton

    text = _pair("omega = 0.8\nv = 0.4", "omega = 0.75\nv = -0.4")
    for old, new in (
        ("points = 2048", "points = 1024"),
        ("t_final = 40.0", "t_final = 12.0"),
        ("t_start = 10.0", "t_start = 11.0"),
        ("diag_period = 0.5", "diag_period = 1.0"),
    ):
        text = text.replace(old, new)
    path, outdir = tmp_path / "run.cfg", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    assert main(["multisoliton", "--config", str(path), "--out-dir", str(outdir)]) == 0
    resolved, _ = parse_config((outdir / "resolved.cfg").read_text(encoding="utf-8"))
    assert [(s.omega, s.v) for s in resolved.solitons] == [(0.75, -0.4), (0.8, 0.4)]

    model, grid = ModelParams(1.0, 3.0, 1), Grid(160.0, 1024)
    alone = [energy(sample_soliton(SolitonParams(model, omega=om, v=v), 0.0, grid), model)
             for om, v in ((0.75, -0.4), (0.8, 0.4))]  # 2.0448 and 1.9901
    header, data = read_csv_columns(outdir / "diagnostics.csv")
    for j, e in enumerate(alone):
        assert np.allclose(data[:, header.index(f"E_{j}")], e, rtol=5e-3)


def test_diagnostics_fit_columns_are_nan_without_a_fit(tmp_path, monkeypatch):
    """After a tube exit no modulation fit runs, and newton_iters and cond read NaN."""
    from nlkglab import experiments
    from nlkglab.cli import main
    from nlkglab.modulation import NotInTubeError

    real = experiments.fit_modulation
    calls = []

    def fit_once(field, seeds):
        calls.append(1)
        if len(calls) > 1:
            raise NotInTubeError("forced")
        return real(field, seeds)

    monkeypatch.setattr(experiments, "fit_modulation", fit_once)
    path = tmp_path / "run.cfg"
    path.write_text(SMALL, encoding="utf-8")
    code = main(["multisoliton", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 3
    header, data = read_csv_columns(tmp_path / "out" / "diagnostics.csv")
    iters, cond = data[:, header.index("newton_iters")], data[:, header.index("cond")]
    # the hooks fire backward in time and the rows are in ascending time: the
    # last row is the one fit, which started from the exact sum (0 iterations)
    assert iters[-1] == 0
    assert np.all(np.isnan(iters[:-1]))
    assert np.array_equal(np.isnan(cond), np.isnan(iters))


@pytest.mark.parametrize(
    "header",
    [
        b"NLKG1 abc 1 2\n",
        b"NLKG1 -4 40.0 0.0\n",
        b"NLKG1 4 0.0 0.0\n",
        b"NLKG1 4 nan 0.0\n",
        b"NLKG1 4 40.0 inf\n",
    ],
)
def test_cli_bad_dump_header_is_io_error(tmp_path, capsys, header):
    """A malformed header exits 4 (I/O), not 2, and names no negative byte count."""
    from nlkglab.cli import main

    dump = tmp_path / "bad.dump"
    dump.write_bytes(header + b"\x00" * (4 * 2 * 2 * 8))
    code = main(["evolve", "--from", str(dump), "--t0", "0", "--t1", "1", "--dt", "0.01",
                 "--out", str(tmp_path / "o.dump")])
    assert code == 4
    err = capsys.readouterr().err
    assert "dump header" in err
    assert "bytes" not in err


# a run of two solitons on 256 points over half a time unit
SMALL = (
    GOOD.replace("length = 160.0", "length = 80.0")
    .replace("points = 2048", "points = 256")
    .replace("dt = 0.005", "dt = 0.01")
    .replace("t_final = 40.0", "t_final = 14.5")
    .replace("t_start = 10.0", "t_start = 14.0")
    .replace("diag_period = 0.5", "diag_period = 0.25")
)


@pytest.mark.parametrize("component", ["u1", "u2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["evolve", "modulate"])
def test_cli_non_finite_dump_is_io_error(tmp_path, capsys, component, bad, command):
    """One NaN or inf value in a dump is an I/O error (exit 4) with one stderr
    line, before any step or fit: not a blow-up reported steps later, nor a
    failed SVD in the modulation fit."""
    from nlkglab.cli import main

    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    run, _ = parse_config(SMALL)
    w = soliton_sum(run.solitons, 14.0, run.grid)
    getattr(w, component)[7] = complex(0.5, bad)
    dump = tmp_path / "bad.dump"
    _raw_dump(dump, w, 14.0)
    if command == "evolve":
        argv = ["evolve", "--from", str(dump), "--t0", "14", "--t1", "13", "--dt", "-0.01",
                "--diag", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o.dump")]
    else:
        argv = ["modulate", "--from", str(dump), "--seed", str(cfg_path)]
    assert main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["I/O error: non-finite payload: 1 of 1024 values"]
    assert not (tmp_path / "o.dump").exists()


def test_cli_sweep_isolates_a_failing_config(tmp_path, monkeypatch, capsys):
    """A too-short domain fails its own config (exit 2); the other config still
    runs, both status lines are printed and the sweep exits with the worst code."""
    from nlkglab.cli import main

    good = SMALL
    short = good.replace("length = 80.0", "length = 10.0").replace("runs/two", "runs/short")
    (tmp_path / "short.cfg").write_text(short, encoding="utf-8")
    (tmp_path / "good.cfg").write_text(good, encoding="utf-8")
    monkeypatch.setenv("NLKG_OUT_DIR", str(tmp_path))
    code = main(["sweep", str(tmp_path / "short.cfg"), str(tmp_path / "good.cfg")])
    out = capsys.readouterr()
    assert code == 2
    assert f"{tmp_path / 'short.cfg'}: exit 2" in out.out
    assert f"{tmp_path / 'good.cfg'}: exit 0" in out.out
    assert "enlarge the domain" in out.err
    assert (tmp_path / "runs" / "two" / "summary.txt").exists()


def test_cli_sweep_keeps_outputs_apart(tmp_path, monkeypatch, capsys):
    """Configs without an out_dir write to <root>/<config stem>; a config whose
    directory an earlier config of the sweep took fails (exit 2), names that
    config and writes nothing."""
    from nlkglab.cli import main

    base = SMALL.replace("out_dir = runs/two\n", "")
    (tmp_path / "a.cfg").write_text(base, encoding="utf-8")
    (tmp_path / "b.cfg").write_text(base.replace("omega = 0.8", "omega = 0.75"), encoding="utf-8")
    clash = base.replace("omega = 0.8", "omega = 0.85") + "out_dir = a\n"
    (tmp_path / "c.cfg").write_text(clash, encoding="utf-8")
    monkeypatch.setenv("NLKG_OUT_DIR", str(tmp_path))
    paths = [str(tmp_path / f"{name}.cfg") for name in "abc"]
    code = main(["sweep", *paths])
    out = capsys.readouterr()
    assert code == 2
    assert f"{paths[2]}: exit 2" in out.out
    assert f"already used by {paths[0]}" in out.err
    for path, name, omega in zip(paths, "ab", (0.8, 0.75)):
        assert f"{path}: exit 0" in out.out
        resolved, _ = parse_config((tmp_path / name / "resolved.cfg").read_text(encoding="utf-8"))
        assert [s.omega for s in resolved.solitons] == [omega, omega]
    assert not (tmp_path / "summary.txt").exists()


def test_cli_sweep_has_no_jobs_option(capsys):
    """sweep runs its configs one after another: --jobs is a usage error."""
    from nlkglab.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["sweep", "a.cfg", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--m", "2.0"], ["--p", "5.0"], ["--m", "1.0", "--p", "3.0"]])
def test_cli_evolve_rejects_model_options_with_config(tmp_path, capsys, option):
    """--config supplies the model, so --m or --p beside it is a usage error
    (exit 2), reported before anything is evolved or written."""
    from nlkglab.cli import main

    src = tmp_path / "zero.dump"
    write_field(src, Field.zeros(Grid(40.0, 256)))
    cfg = tmp_path / "ev.cfg"
    cfg.write_text(SMALL, encoding="utf-8")
    code = main(["evolve", "--from", str(src), "--config", str(cfg), *option,
                 "--t0", "0", "--t1", "0.1", "--dt", "0.01", "--out", str(tmp_path / "o.dump")])
    assert code == 2
    assert "cannot be given with --config" in capsys.readouterr().err
    assert not (tmp_path / "o.dump").exists()


def test_cli_evolve_model_options_without_config(tmp_path):
    """Without --config, --m and --p still set the model: a field at rest
    at m = 2 evolves differently from the default m = 1."""
    from nlkglab.cli import main

    src = tmp_path / "bump.dump"
    grid = Grid(40.0, 256)
    write_field(src, Field(np.exp(-grid.x**2) + 0j, np.zeros(256, complex), grid))
    outs = []
    for extra in ([], ["--m", "2.0"]):
        out = tmp_path / f"o{len(outs)}.dump"
        code = main(["evolve", "--from", str(src), *extra,
                     "--t0", "0", "--t1", "0.1", "--dt", "0.01", "--out", str(out)])
        assert code == 0
        outs.append(read_field(out)[0])
    assert np.max(np.abs(outs[0].u1 - outs[1].u1)) > 1e-4


def test_cli_evolve_takes_the_model_from_config(tmp_path):
    """With --config the model is the config's: a field at rest evolves under
    the config's m = 2 exactly as under --m 2, and not as under the default."""
    from nlkglab.cli import main

    src = tmp_path / "bump.dump"
    grid = Grid(40.0, 256)
    write_field(src, Field(np.exp(-grid.x**2) + 0j, np.zeros(256, complex), grid))
    cfg = tmp_path / "m2.cfg"
    cfg.write_text(SMALL.replace("m = 1.0", "m = 2.0"), encoding="utf-8")
    outs = []
    for extra in (["--config", str(cfg)], ["--m", "2.0"], []):
        out = tmp_path / f"o{len(outs)}.dump"
        code = main(["evolve", "--from", str(src), *extra,
                     "--t0", "0", "--t1", "0.1", "--dt", "0.01", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] != outs[2]


def test_cli_modulate_out_rows_are_the_printed_rows(tmp_path, capsys):
    """The CSV that modulate --out writes holds the header and rows it prints."""
    from nlkglab.cli import main

    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    run, _ = parse_config(SMALL)
    dump = tmp_path / "pair.dump"
    write_field(dump, soliton_sum(run.solitons, 0.0, run.grid), 0.0)
    out = tmp_path / "fit.csv"
    assert main(["modulate", "--from", str(dump), "--seed", str(cfg_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "j,theta,omega,x0,v"
    assert out.read_text(encoding="ascii").splitlines() == printed[:3]


def test_cli_multisoliton_warns_outside_stability_window(tmp_path, capsys):
    """A soliton outside the orbital-stability window is reported on stderr
    and in summary.txt, and the run still goes ahead."""
    from nlkglab.cli import main

    path = tmp_path / "low.cfg"
    path.write_text(SMALL.replace("omega = 0.8\nv = -0.4", "omega = 0.6\nv = -0.4"), encoding="utf-8")
    outdir = tmp_path / "out"
    assert main(["multisoliton", "--config", str(path), "--out-dir", str(outdir)]) == 0
    warning = (
        "warning: soliton #1: omega^2/m=0.3600 <= 0.5000, outside the orbital-stability window"
    )
    assert warning in capsys.readouterr().err.splitlines()
    assert warning in (outdir / "summary.txt").read_text(encoding="utf-8").splitlines()


def test_cli_soliton_warns_outside_stability_window(tmp_path, capsys):
    from nlkglab.cli import main

    out = tmp_path / "s.dump"
    argv = ["soliton", "--omega", "0.6", "--grid-points", "256", "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: parameters outside the orbital-stability window"]
    assert out.exists()


@pytest.mark.parametrize("d", ["2", "3"])
def test_cli_groundstate_radial_rejects_grid_points(tmp_path, capsys, d):
    """A radial profile has its own mesh, so --grid-points with d > 1 is a
    usage error (exit 2) and nothing is computed or written."""
    from nlkglab.cli import main

    out = tmp_path / "gs.csv"
    code = main(["groundstate", "--d", d, "--omega", "0", "--length", "40",
                 "--grid-points", "64", "--out", str(out)])
    assert code == 2
    assert "--grid-points applies to d = 1 only" in capsys.readouterr().err
    assert not out.exists()


def test_cli_groundstate_radial_domain_too_small(tmp_path, capsys):
    """A radial profile that has not decayed at length/2 is a configuration
    error (exit 2), and no profile is written."""
    from nlkglab.cli import main

    out = tmp_path / "gs.csv"
    code = main(["groundstate", "--d", "3", "--omega", "0", "--length", "6", "--out", str(out)])
    assert code == 2
    assert "enlarge the domain" in capsys.readouterr().err
    assert not out.exists()


def test_cli_groundstate_peak_underflow_is_a_config_error(tmp_path, capsys):
    """p = 1.0001 at omega = 0.5 puts the closed-form peak below the floats:
    exit 2 naming the underflow, and no all-zero profile is written."""
    from nlkglab.cli import main

    out = tmp_path / "gs.csv"
    args = ["--p", "1.0001", "--omega", "0.5", "--length", "80", "--grid-points", "1024"]
    code = main(["groundstate", *args, "--out", str(out)])
    assert code == 2
    assert "underflows to 0" in capsys.readouterr().err
    assert not out.exists()


def _groundstate_phi0(capsys, *args) -> float:
    from nlkglab.cli import main

    assert main(["groundstate", "--omega", "0", *args]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("phi(0) = ")
    return float(line.split("=")[1])


@pytest.mark.parametrize("d", ["2", "3"])
def test_cli_groundstate_radial_mesh_follows_length(capsys, d):
    """Beyond the default length the radial mesh keeps its spacing, so a longer
    domain gives the default-length phi(0), not a coarser one."""
    want = _groundstate_phi0(capsys, "--d", d)
    assert _groundstate_phi0(capsys, "--d", d, "--length", "400") == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("length", ["20000.5", "1e12", "inf", "nan", "0", "-5"])
def test_cli_groundstate_radial_rejects_bad_length(tmp_path, capsys, length):
    """The radial mesh grows with the length, so a length beyond the cap, and a
    length that is not positive, is a configuration error (exit 2), reported
    before any mesh is built."""
    from nlkglab.cli import main

    out = tmp_path / "gs.csv"
    code = main(["groundstate", "--d", "2", "--omega", "0", f"--length={length}", "--out", str(out)])
    assert code == 2
    assert "--length must be positive and at most 20000 for d > 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("period", ["-1", "0", "inf"])
def test_cli_evolve_rejects_bad_diag_period(tmp_path, capsys, period):
    """A diagnostic period that is not positive and finite is a configuration
    error (exit 2), reported before anything is evolved or written, with or
    without --diag."""
    from nlkglab.cli import main

    src = tmp_path / "zero.dump"
    write_field(src, Field.zeros(Grid(40.0, 256)))
    for diag in (["--diag", str(tmp_path / "d.csv")], []):
        code = main(["evolve", "--from", str(src), "--t0", "0", "--t1", "0.1", "--dt", "0.01",
                     *diag, "--diag-period", period, "--out", str(tmp_path / "o.dump")])
        assert code == 2
        assert "diag_period must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o.dump").exists()


@pytest.mark.parametrize(
    "times, message",
    [
        (["soliton", "--t", "nan"], "--t=nan must be finite"),
        (["soliton", "--t", "inf"], "--t=inf must be finite"),
        (["evolve", "--t0", "0", "--t1", "inf"], "t1=inf must be finite"),
        (["evolve", "--t0", "nan", "--t1", "0.1"], "t0=nan must be finite"),
        (["evolve", "--t0=-inf", "--t1", "0.1"], "t0=-inf must be finite"),
    ],
    ids=["soliton-t-nan", "soliton-t-inf", "evolve-t1-inf", "evolve-t0-nan", "evolve-t0-minus-inf"],
)
def test_cli_non_finite_time_is_a_config_error(tmp_path, capsys, times, message):
    """A time that is not finite is a configuration error (exit 2) naming the
    time, reported before anything is written: not a NaN energy and a dump
    that cannot be read back, nor an overflow traceback."""
    from nlkglab.cli import main

    src = tmp_path / "zero.dump"
    write_field(src, Field.zeros(Grid(40.0, 256)))
    out = tmp_path / "o.dump"
    if times[0] == "soliton":
        argv = [*times, "--omega", "0.8", "--grid-points", "256", "--out", str(out)]
    else:
        argv = [*times, "--from", str(src), "--dt", "0.01", "--diag", str(tmp_path / "d.csv"),
                "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_zero_span_evolve_writes_its_t0_row(tmp_path):
    """t0 == t1 evolves nothing but still records the diagnostics at t0, so the
    CSV holds one row and reads back without numpy's empty-input warning."""
    from nlkglab.cli import main

    g = Grid(80.0, 256)
    src, csv = tmp_path / "s.dump", tmp_path / "d.csv"
    w = sample_soliton(SolitonParams(ModelParams(1.0, 3.0, 1), omega=0.8), 0.0, g)
    write_field(src, w)
    argv = ["evolve", "--from", str(src), "--t0", "0", "--t1", "0", "--dt", "0.01",
            "--diag", str(csv), "--out", str(tmp_path / "o.dump")]
    assert main(argv) == 0
    header, data = read_csv_columns(csv)
    assert header == ["t", "E", "Q", "P"]
    assert data.shape == (1, 4) and data[0, 0] == 0.0
    out, t = read_field(tmp_path / "o.dump")
    assert t == 0.0 and np.array_equal(out.u1, w.u1) and np.array_equal(out.u2, w.u2)


# --- property tests: outside input gets a result or the documented error

# typical values per key, so that generated configs are often valid
TYPICAL = {
    "model": {"m": ["1.0", "2.0"], "p": ["3.0", "2.0", "6.0"], "d": ["1", "2", "3"]},
    "grid": {"length": ["160.0", "80.0", "10.0"], "points": ["256", "512", "2048"]},
    "integrator": {"dt": ["0.002", "0.01", "-0.005", "0.0"]},
    "soliton": {
        "omega": ["0.8", "0.6", "1.2"],
        "v": ["-0.4", "0.4", "1.0"],
        "theta": ["0.1"],
        "x0": ["1.0"],
    },
    "experiment": {
        "t_final": ["40.0", "12.0"],
        "t_start": ["10.0", "50.0"],
        "diag_period": ["0.5", "0", "-1"],
        "out_dir": ["runs/x"],
    },
    "bogus": {"x": ["1"]},
}
# small integers only: a generated point count builds a Grid below
ODD_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.text(alphabet="01.-e nai#=", max_size=5),
)


@st.composite
def config_texts(draw):
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(TYPICAL) + ["soliton"]), max_size=7)):
        lines.append(f"[{section}]")
        keys = TYPICAL[section]
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True)):
            value = draw(st.sampled_from(keys[key]) | ODD_VALUES)
            lines.append(f"{key} = {value}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(config_texts())
def test_parse_config_returns_runnable_config_or_config_error(text):
    try:
        cfg, _ = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, MultiSolitonConfig)
    assert step_problems(-cfg.dt, cfg.grid.spacing) == []


# values every run accepts, whatever the other keys hold: only repeated velocities fail
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
RUN_VALUES = {
    "model": {"m": ["1.0", "2"], "p": ["3.0", "2.0", "4.5"], "d": ["1"]},
    "grid": {"length": ["160.0", "80.0"], "points": ["256", "1000", "2048"]},
    "integrator": {"dt": ["0.002", "0.01", "1e-3"]},
    "soliton": {
        "omega": ["0.8", "0.6", "-0.3"],
        "v": ["-0.4", "0.1", "0.4"],
        "theta": FINITE,
        "x0": FINITE,
    },
    "experiment": {
        "t_final": ["40.0", "12.0"],
        "t_start": ["10.0", "-1e3"],
        "diag_period": ["0.5", "1e-3"],
        "out_dir": ["runs/x", "a b", "."],
    },
}


@st.composite
def run_texts(draw):
    """Every section, one to three solitons, sections and keys in any order."""
    sections = ["model", "grid", "integrator", "experiment"] + ["soliton"] * draw(st.integers(1, 3))
    lines = []
    for section in draw(st.permutations(sections)):
        lines.append(f"[{section}]")
        values = RUN_VALUES[section]
        keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
        if section == "soliton" and "omega" not in keys:
            keys.append("omega")
        for key in draw(st.permutations(keys)):
            pick = values[key]
            if isinstance(pick, list):
                pick = st.sampled_from(pick)
            lines.append(f"{key} = {draw(pick)}")
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(config_texts() | run_texts())
def test_serialize_parse_round_trip(text):
    """A config that parses comes back from its resolved text as an equal run
    with the same out_dir, and resolves to the same bytes again."""
    try:
        cfg, out_dir = parse_config(text)
    except ConfigError:
        return
    resolved = serialize_config(cfg, out_dir)
    cfg2, out_dir2 = parse_config(resolved)
    assert cfg2 == cfg
    assert out_dir2 == out_dir
    assert serialize_config(cfg2, out_dir2) == resolved


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["40.0", "0.0", "abc", "1e3", ""]),
)


@st.composite
def dumps(draw):
    points = draw(st.one_of(st.integers(-3, 8).map(str), st.sampled_from(["abc", "4.0", "1_0"])))
    tokens = [draw(st.sampled_from(["NLKG1", "NLKG9"])), points, draw(NUMBERS), draw(NUMBERS)]
    if draw(st.booleans()):
        del tokens[draw(st.integers(0, 3))]
    n = int(points) if points.lstrip("-").isdigit() else 4
    size = draw(st.sampled_from([32 * max(n, 0), 32 * max(n, 0) + 8, 16]))
    return " ".join(tokens).encode() + b"\n" + draw(st.binary(min_size=size, max_size=size))


@pytest.fixture(scope="module")
def dump_path(tmp_path_factory):
    return tmp_path_factory.mktemp("dumps") / "f.dump"


@settings(max_examples=150, deadline=None)
@given(data=dumps())
def test_read_field_returns_field_or_format_error(dump_path, data):
    dump_path.write_bytes(data)
    try:
        w, t = read_field(dump_path)
    except FieldFormatError:
        return
    assert np.isfinite(t)
    assert w.grid.points > 0 and np.isfinite(w.grid.length) and w.grid.length > 0
