import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalk.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from xtalk.scenarios import SCENARIOS, _NOISE, _PHYSICS, _SCAN


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_runs_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1, 2]}, "shots": 50})
    assert main(["x-error", "--config", cfg, "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# scenario: x-error"
    assert "# seed: 3" in lines
    assert lines[5] == "x,value_mean,value_sampled,stderr"
    assert len(lines) == 6 + 2


def test_writes_csv_file(tmp_path):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}})
    out = tmp_path / "result.csv"
    assert main(["x-error", "--config", cfg, "--out", str(out)]) == EXIT_OK
    content = out.read_text(encoding="utf-8")
    assert content.startswith("# scenario: x-error\n")
    value = float(content.strip().splitlines()[-1].split(",")[1])
    assert value == pytest.approx(2.26e-2, abs=1e-3)


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "method": "pcc",
            "physics": {"f_comp": 1.0, "delta_phi_rad": 3.0},
            "scan": {"n_values": [1, 3, 9]},
            "seed": 17,
        },
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["x-error", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["x-error", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}, "omega": 1.0})
    assert main(["x-error", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["x-error", "--config", str(path)]) == EXIT_CONFIG


def test_missing_file_exits_2(tmp_path):
    assert main(["x-error", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"scan": {"curve": "clipped", "points": 11, "max_refinements": 0}},
    )
    assert main(["beam-profile", "--config", cfg]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}})
    monkeypatch.setenv("XTALK_SEED", "41")
    assert main(["x-error", "--config", cfg]) == EXIT_OK
    assert "# seed: 41" in capsys.readouterr().out


def test_cli_seed_wins_over_env(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}})
    monkeypatch.setenv("XTALK_SEED", "41")
    assert main(["x-error", "--config", cfg, "--seed", "7"]) == EXIT_OK
    assert "# seed: 7" in capsys.readouterr().out


def test_config_seed_wins_over_env(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}, "seed": 13})
    monkeypatch.setenv("XTALK_SEED", "41")
    assert main(["x-error", "--config", cfg]) == EXIT_OK
    assert "# seed: 13" in capsys.readouterr().out


def test_bad_env_seed_exits_2(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}})
    monkeypatch.setenv("XTALK_SEED", "not-a-number")
    assert main(["x-error", "--config", cfg]) == EXIT_CONFIG


def test_shots_override(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}, "shots": 10})
    assert main(["x-error", "--config", cfg, "--shots", "123"]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[-1]
    stderr_col = float(row.split(",")[3])
    p = 2.2567727626678524e-02
    assert stderr_col == pytest.approx(math.sqrt(p * (1 - p) / 123), rel=1e-6)


@pytest.mark.parametrize(
    "scenario, doc",
    [
        ("x-error", {"method": "quad", "scan": {"n_values": [17]}}),
        ("z-error", {"method": "sk1", "scan": {"n_values": [147]}}),
    ],
)
def test_population_rounding_above_one_is_sampled(tmp_path, capsys, scenario, doc):
    # the target population of these trains rounds just past 1
    cfg = write_config(tmp_path, doc)
    assert main([scenario, "--config", cfg]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[-1]
    assert 0.0 <= float(row.split(",")[1]) <= 1.0


@pytest.mark.parametrize(
    "scenario, doc",
    [
        ("phase-scan", {"physics": {"f_ct": 0}}),
        ("phase-scan", {"scan": {"points": "abc"}}),
        ("x-error", {"physics": {"omega_0_rad_per_s": 1e300}}),
        ("drift-monitor", {"scan": {"dt_min": 0}}),
    ],
)
def test_invalid_values_exit_2_with_one_line(tmp_path, capsys, scenario, doc):
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([scenario, "--config", cfg]) == EXIT_CONFIG
    assert caught == []  # a warning would print more stderr lines
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def run_quietly(argv):
    """Exit code and stderr lines of one CLI run; every warning is recorded."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines(), caught


@pytest.mark.parametrize(
    "scenario, doc, key",
    [
        # used to run with a wrong value and exit 0
        ("x-error", {"shots": True}, "shots"),
        ("x-error", {"seed": True}, "seed"),
        ("x-error", {"physics": {"f_ct": True}}, "physics.f_ct"),
        ("x-error", {"scan": {"n_values": [1.7]}}, "scan.n_values"),
        ("x-error", {"scan": {"n_values": "12"}}, "scan.n_values"),
        ("phase-scan", {"scan": {"n_periods": 1.5}}, "scan.n_periods"),
        ("amplitude-scan", {"scan": {"points": 0}}, "scan.points"),
        ("duty-cycle-sweep", {"scan": {"points": 0}}, "scan.points"),
        ("duty-cycle-sweep", {"scan": {"mitigated": "no"}}, "scan.mitigated"),
        ("beam-profile", {"scan": {"curve": "gaussian", "w0_um": 0}}, "scan.w0_um"),
        ("rabi-scan", {"scan": {"points": 1e3}}, "scan.points"),
        # used to end in a traceback or the wrong exit code
        ("x-error", {"scan": None}, "scan"),
        ("beam-profile", {"scan": {"max_refinements": -1}}, "scan.max_refinements"),
        # used to exit 2 with a message that did not name the key
        ("phase-scan", {"scan": {"points": "abc"}}, "scan.points"),
        ("rabi-scan", {"scan": {"points": -3}}, "scan.points"),
        ("amplitude-scan", {"scan": {"scale_max": math.nan}}, "scan.scale_max"),
        # used to end in a traceback (7) or to write the CSV to stdout (true, fd 1)
        ("x-error", {"out": 7}, "out"),
        ("x-error", {"out": True}, "out"),
    ],
)
def test_bad_config_exits_2_naming_the_key(tmp_path, scenario, doc, key):
    code, err, caught = run_quietly([scenario, "--config", write_config(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert caught == []
    assert len(err) == 1
    assert err[0].startswith("config error: ")
    assert key in err[0]


def test_unwritable_out_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}})
    out = tmp_path / "missing-dir" / "x.csv"
    code, err, _ = run_quietly(["x-error", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()


# values a config may hold; the valid ones keep every run small
_BAD = st.sampled_from([True, None, "abc", [1], {}, math.nan, math.inf, -1, 0, 1.5, 10**400])


def _value(kind, default):
    if isinstance(kind, tuple):
        valid = st.sampled_from(kind)
    elif kind is bool:
        valid = st.booleans()
    elif kind is int:
        valid = st.integers(0, 4)
    elif kind is list:
        valid = st.lists(st.integers(0, 64), max_size=4)
    elif kind is str:
        valid = st.sampled_from(["", "missing.csv"])
    elif default:
        valid = st.floats(0.25, 2.0).map(lambda r: r * default)
    else:
        valid = st.floats(-1e-4, 1e-4)
    return st.one_of(valid, _BAD)


def _section(table):
    optional = {key: _value(kind, default) for key, (kind, default, _) in table.items()}
    return st.one_of(st.fixed_dictionaries({}, optional=optional), _BAD)


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_config_exits_0_2_or_3(scenario, data):
    doc = data.draw(st.fixed_dictionaries({}, optional={
        "method": st.one_of(st.sampled_from(["none", "pcc", "sk1", "quad"]), _BAD),
        "physics": _section(_PHYSICS),
        "scan": _section(_SCAN[scenario]),
        "noise": st.one_of(st.none(), _section(_NOISE)),
        "shots": st.one_of(st.integers(1, 8), _BAD),
        "seed": st.one_of(st.integers(-(2**70), 2**70), _BAD),
        "out": st.one_of(st.sampled_from(["out.csv", "missing-dir/out.csv"]), _BAD),
    }))
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(doc.get("out"), str):
            doc["out"] = str(Path(tmp) / doc["out"])
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, err, _ = run_quietly([scenario, "--config", str(path)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    assert code == EXIT_OK or len(err) == 1
