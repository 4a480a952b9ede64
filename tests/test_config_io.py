import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkglab.config import ConfigError, RunConfig, parse_config, serialize_config
from nlkglab.fieldio import (
    FieldFormatError,
    read_csv_columns,
    read_field,
    write_diagnostics_csv,
    write_field,
)
from nlkglab.grids import Field, Grid
from nlkglab.integrator import IntegratorConfig

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
dealias = false

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
seed = 7
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.points == 2048
    assert len(cfg.solitons) == 2
    assert cfg.solitons[1]["theta"] == 0.1
    assert cfg.out_dir == "runs/two"
    assert cfg.seed == 7
    assert cfg.stability_warnings == []
    exp = cfg.experiment()
    assert exp.v_star == pytest.approx(0.8)


def test_equal_velocities_rejected():
    bad = GOOD.replace("v = -0.4", "v = 0.4")
    with pytest.raises(ConfigError, match="distinct velocities"):
        parse_config(bad)


def test_stability_warning_for_low_frequency():
    cfg = parse_config(GOOD.replace("omega = 0.8\nv = -0.4", "omega = 0.6\nv = -0.4"))
    assert any("stability" in w for w in cfg.stability_warnings)


def test_all_violations_reported():
    bad = GOOD.replace("v = -0.4", "v = 1.4").replace("dt = 0.005", "dt = 0.0")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    text = str(exc.value)
    assert "speed of light" in text
    assert "dt" in text


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


def test_serialize_roundtrip():
    cfg = parse_config(GOOD)
    cfg2 = parse_config(serialize_config(cfg))
    assert cfg2.dt == cfg.dt
    assert cfg2.soliton_params() == cfg.soliton_params()
    assert cfg2.t_final == cfg.t_final


def test_field_dump_roundtrip(tmp_path):
    g = Grid(40.0, 256)
    rng = np.random.default_rng(0)
    w = Field(
        rng.standard_normal(256) + 1j * rng.standard_normal(256),
        rng.standard_normal(256) + 1j * rng.standard_normal(256),
        g,
    )
    w.u2[:3] = [complex(1.0, np.inf), complex(np.nan, 2.0), complex(-np.inf, np.nan)]
    path = tmp_path / "field.dump"
    write_field(path, w, time=12.25)
    back, t = read_field(path)
    assert t == 12.25
    assert back.u1.tobytes() == w.u1.tobytes()
    assert back.u2.tobytes() == w.u2.tobytes()  # bit-exact, non-finite samples too
    assert back.grid.points == 256
    assert back.grid.length == 40.0


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


def test_field_dump_grid_check(tmp_path):
    g = Grid(40.0, 256)
    w = Field.zeros(g)
    path = tmp_path / "f.dump"
    write_field(path, w)
    with pytest.raises(FieldFormatError, match="does not match"):
        read_field(path, grid=Grid(40.0, 128))


def test_csv_roundtrip(tmp_path):
    rows = [[1.0 / 3.0, 2.0**-52, -1.234567890123456789e10], [np.pi, np.e, 0.1]]
    path = tmp_path / "d.csv"
    write_diagnostics_csv(path, ["a", "b", "c"], rows)
    header, data = read_csv_columns(path)
    assert header == ["a", "b", "c"]
    assert np.array_equal(data, np.array(rows))  # 17 significant digits round-trip


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
    assert data.shape == (20, 2)

    # modulate an exact pair dump with the config as seed
    import numpy as np  # noqa: F811

    from nlkglab.experiments import soliton_sum
    from nlkglab.profiles import ModelParams, SolitonParams

    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text(GOOD.replace("points = 2048", "points = 1024"), encoding="utf-8")
    run = parse_config(cfg_path.read_text(encoding="utf-8"))
    w = soliton_sum(run.soliton_params(), 0.0, run.grid())
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


def test_cli_missing_file_exit_code(tmp_path):
    from nlkglab.cli import main

    code = main(["evolve", "--from", str(tmp_path / "nope.dump"),
                 "--t0", "0", "--t1", "1", "--dt", "0.01",
                 "--out", str(tmp_path / "o.dump")])
    assert code == 4


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
    assert "S_localized" in header


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


def test_cli_sweep_isolates_a_failing_config(tmp_path, monkeypatch, capsys):
    """A too-short domain fails its own config (exit 2); the other config still
    runs, both status lines are printed and the sweep exits with the worst code."""
    from nlkglab.cli import main

    good = SMALL
    short = good.replace("length = 80.0", "length = 10.0").replace("runs/two", "runs/short")
    (tmp_path / "short.cfg").write_text(short, encoding="utf-8")
    (tmp_path / "good.cfg").write_text(good, encoding="utf-8")
    monkeypatch.setenv("NLKG_OUT_DIR", str(tmp_path))
    code = main(["sweep", str(tmp_path / "short.cfg"), str(tmp_path / "good.cfg"), "--jobs", "1"])
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
    code = main(["sweep", *paths, "--jobs", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert f"{paths[2]}: exit 2" in out.out
    assert f"already used by {paths[0]}" in out.err
    for path, name, omega in zip(paths, "ab", (0.8, 0.75)):
        assert f"{path}: exit 0" in out.out
        resolved = parse_config((tmp_path / name / "resolved.cfg").read_text(encoding="utf-8"))
        assert [s["omega"] for s in resolved.solitons] == [omega, omega]
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize("period", ["-1", "0", "inf"])
def test_cli_evolve_rejects_bad_diag_period(tmp_path, capsys, period):
    """A diagnostic period that is not positive and finite is a configuration
    error (exit 2), reported before anything is evolved or written."""
    from nlkglab.cli import main

    src = tmp_path / "zero.dump"
    write_field(src, Field.zeros(Grid(40.0, 256)))
    code = main(["evolve", "--from", str(src), "--t0", "0", "--t1", "0.1", "--dt", "0.01",
                 "--diag", str(tmp_path / "d.csv"), "--diag-period", period,
                 "--out", str(tmp_path / "o.dump")])
    assert code == 2
    assert "diag_period" in capsys.readouterr().err
    assert not (tmp_path / "o.dump").exists()


# --- property tests: outside input gets a result or the documented error

# typical values per key, so that generated configs are often valid
TYPICAL = {
    "model": {"m": ["1.0", "2.0"], "p": ["3.0", "2.0", "6.0"], "d": ["1", "2", "3"]},
    "grid": {"length": ["160.0", "80.0", "10.0"], "points": ["256", "512", "2048"]},
    "integrator": {"dt": ["0.002", "0.01", "-0.005", "0.0"], "dealias": ["false", "true", "maybe"]},
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
        "seed": ["7"],
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
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    cfg.experiment()
    IntegratorConfig(dt=-cfg.dt).check_grid(cfg.grid())


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
