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
from xtalk.scenarios import SCENARIOS, _NOISE, _NOISY, _PHYSICS, _ROWS


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


@pytest.mark.parametrize("scenario", ["x-error", "z-error", "phase-scan"])
def test_crosstalk_whose_square_underflows_runs(tmp_path, capsys, scenario):
    # |Omega|^2 + delta^2 of the spectator's drive underflows to 0 below
    # about 1e-162 rad/s; it used to divide by zero
    f_comp, ct_phase, periods = 0.8, 0.5, 2
    doc = {"physics": {"f_ct": 1e-200, "f_comp": f_comp, "ct_phase_rad": ct_phase}}
    if scenario == "phase-scan":
        doc["scan"] = {"points": 8, "n_periods": periods}
    else:
        doc["method"] = "pcc"
    assert main([scenario, "--config", write_config(tmp_path, doc)]) == EXIT_OK
    if scenario == "phase-scan":
        rows = capsys.readouterr().out.strip().splitlines()[6:]
        assert len(rows) == 8
        for row in rows:
            dial, value = (float(v) for v in row.split(",")[:2])
            field = abs(1.0 + f_comp * complex(math.cos(dial - ct_phase), math.sin(dial - ct_phase)))
            assert value == pytest.approx(math.sin(math.pi * periods * field) ** 2, abs=1e-9)


@pytest.mark.parametrize("f_ct", [1e-100, 1e-160, 1e-161, 1e-162])
def test_crosstalk_with_subnormal_squares_keeps_its_digits(tmp_path, capsys, f_ct):
    # |Omega|^2 + delta^2 of the spectator's drive is subnormal between about
    # 1e-162 and 1.5e-154 rad/s; its square root kept only a few digits
    f_comp, ct_phase, periods = 0.8, 0.5, 2
    doc = {"physics": {"f_ct": f_ct, "f_comp": f_comp, "ct_phase_rad": ct_phase},
           "scan": {"points": 8, "n_periods": periods}}
    assert main(["phase-scan", "--config", write_config(tmp_path, doc)]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()[6:]
    assert len(rows) == 8
    for row in rows:
        dial, value = (float(v) for v in row.split(",")[:2])
        field = abs(1.0 + f_comp * complex(math.cos(dial - ct_phase), math.sin(dial - ct_phase)))
        assert value == pytest.approx(math.sin(math.pi * periods * field) ** 2, rel=1e-12)


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


@pytest.mark.parametrize("scenario, doc", [
    ("drift-monitor", {"scan": {"duration_min": 1e15, "dt_min": 0.001}}),
    ("beam-profile", {"scan": {"points": 10**14}}),
])
def test_a_scan_too_large_to_hold_exits_2(tmp_path, scenario, doc):
    # each used to end in a traceback; numpy refuses these allocations at once
    code, err, caught = run_quietly([scenario, "--config", write_config(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert caught == []
    assert len(err) == 1 and err[0].startswith("config error: Unable to allocate")


def test_a_bare_memory_error_exits_2_with_one_line(tmp_path, monkeypatch):
    import xtalk.cli

    def run(cfg):
        raise MemoryError

    monkeypatch.setattr(xtalk.cli, "run_scenario", run)
    code, err, _ = run_quietly(["x-error", "--config", write_config(tmp_path, {})])
    assert code == EXIT_CONFIG
    assert err == ["config error: out of memory"]


@pytest.mark.parametrize("scenario", ["x-error", "z-error", "phase-scan"])
def test_noisy_scan_past_the_size_bound_exits_2_naming_shots(tmp_path, monkeypatch, scenario):
    # shots: 10**9 with noise was killed by SIGKILL; the bound on points x
    # shots is checked before any drift trace is drawn
    from xtalk import scenarios

    class Reached(Exception):
        pass

    def drift_traces(*args):
        raise Reached

    monkeypatch.setattr(scenarios, "_drift_traces", drift_traces)
    points = {"scan": {"n_values": [1, 2]}} if scenario != "phase-scan" else {"scan": {"points": 2}}
    doc = {**points, "noise": {"preset": "enclosed"}}
    limit = scenarios._NOISY_DRAWS // 2
    for shots in (10**9, limit + 1):
        code, err, _ = run_quietly([scenario, "--config",
                                    write_config(tmp_path, {**doc, "shots": shots})])
        assert code == EXIT_CONFIG
        assert err == [f"config error: {scenario} shots: 2 points x {shots} shots exceed the "
                       f"{scenarios._NOISY_DRAWS} drift offsets a noisy scan may hold"]
    with pytest.raises(Reached):  # at the bound, the scan goes on to draw its traces
        run_quietly([scenario, "--config", write_config(tmp_path, {**doc, "shots": limit})])


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
        # a noise block must name its preset and be an object
        ("x-error", {"noise": {}}, "noise.preset"),
        ("phase-scan", {"noise": False}, "noise"),
        # used to exit 2 with a message that did not name the key (-2), or 0
        # with drift rates from a drive power of zero (-1)
        ("duty-cycle-sweep", {"scan": {"mitigated": True, "match_error": -2}},
         "duty-cycle-sweep scan.match_error"),
        ("duty-cycle-sweep", {"scan": {"mitigated": True, "match_error": -1}},
         "duty-cycle-sweep scan.match_error"),
        # used to name the key but not its section
        ("x-error", {"physics": {"pol_overlap": 1.5}}, "x-error physics: pol_overlap"),
        ("x-error", {"physics": {"f_comp": -1}}, "x-error physics: f_comp"),
        # used to name the dataclass field omega_0, which no config key is called
        ("x-error", {"physics": {"omega_0_rad_per_s": 0}}, "x-error physics.omega_0_rad_per_s"),
        ("x-error", {"physics": {"omega_0_rad_per_s": -5}}, "x-error physics.omega_0_rad_per_s"),
        # used to overflow in the kernel, exiting 2 with a line that named no key
        ("x-error", {"physics": {"omega_0_rad_per_s": 1e300}}, "x-error physics.omega_0_rad_per_s"),
        ("x-error", {"physics": {"omega_0_rad_per_s": 1e160}}, "x-error physics.omega_0_rad_per_s"),
        ("x-error", {"physics": {"omega_0_rad_per_s": 1e-320}},
         "x-error physics.omega_0_rad_per_s"),
        ("x-error", {"physics": {"f_ct": 1e200}}, "x-error physics.f_ct"),
        ("phase-scan", {"physics": {"f_ct": 1e160}}, "phase-scan physics.f_ct"),
        # used to exit 2 with "state amplitudes must be finite", which named no key
        *[(scenario, {"method": "pcc", "physics": {"f_comp": 1e300}}, f"{scenario} physics.f_comp")
          for scenario in ("x-error", "z-error", "rabi-scan")],
        ("phase-scan", {"physics": {"f_comp": 1e300}}, "phase-scan physics.f_comp"),
        ("x-error", {"physics": {"delta_ct_rad_per_s": 1e300}},
         "x-error physics.delta_ct_rad_per_s"),
        ("z-error", {"method": "pcc", "physics": {"delta_ct_rad_per_s": 1e300}},
         "z-error physics.delta_ct_rad_per_s"),
        # used to exit 2 naming no key: "state amplitudes must be finite" (1e-310,
        # a spectator framed past overflow, 10^4 periods), "duration must be
        # finite" (1e-318) or "t_pi_ct undefined for f_ct * omega_0 = 0" (0)
        *[(scenario, {"physics": {"f_ct": f_ct}}, f"{scenario} physics.f_ct")
          for scenario in ("phase-scan", "rabi-scan") for f_ct in (1e-310, 1e-318, 0.0)],
        ("phase-scan", {"physics": {"f_ct": 1e-200, "delta_ct_rad_per_s": 1e150}},
         "phase-scan physics.f_ct"),
        ("phase-scan", {"physics": {"f_ct": 1e-305}, "scan": {"n_periods": 10**4}},
         "phase-scan physics.f_ct"),
        # used to compile a table of about 30 GB
        ("x-error", {"method": "quad", "scan": {"n_values": [10**7]}}, "x-error scan.n_values"),
    ],
)
def test_bad_config_exits_2_naming_the_key(tmp_path, scenario, doc, key):
    code, err, caught = run_quietly([scenario, "--config", write_config(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert caught == []
    assert len(err) == 1
    assert err[0].startswith("config error: ")
    assert key in err[0]


@pytest.mark.parametrize("scenario, doc", [
    *[(scenario, {"physics": {"f_comp": 1e300}}) for scenario in ("x-error", "z-error",
                                                                  "rabi-scan")],
    *[(scenario, {"physics": {"delta_ct_rad_per_s": 1e300, "f_ct": 0.0}})
      for scenario in ("x-error", "z-error")],
    *[(scenario, {"method": "pcc", "physics": {"f_comp": 1e149}})
      for scenario in ("x-error", "z-error", "rabi-scan")],
    *[(scenario, {"method": "pcc", "physics": {"delta_ct_rad_per_s": 1.3e154}})
      for scenario in ("x-error", "z-error", "rabi-scan")],
    ("phase-scan", {"physics": {"f_comp": 1e149, "delta_ct_rad_per_s": 1.3e154}}),
    # only phase-scan and rabi-scan's default spectator span last crosstalk
    # pi times, and at f_ct 1e-305 that span stays finite
    ("x-error", {"physics": {"f_ct": 1e-310}}),
    ("z-error", {"physics": {"f_ct": 0.0}}),
    ("rabi-scan", {"physics": {"f_ct": 0.0}, "scan": {"observe": "target", "points": 3}}),
    ("rabi-scan", {"physics": {"f_ct": 1e-318}, "scan": {"t_max_s": 1e-4, "points": 3}}),
    ("amplitude-scan", {"physics": {"f_ct": 0.0}}),
    ("phase-scan", {"physics": {"f_ct": 1e-305}}),
])
def test_large_physics_that_does_not_overflow_exits_0(tmp_path, scenario, doc):
    # the tone is dark under none and the crosstalk detuning under f_ct = 0;
    # these squares are finite
    scan = {"n_values": [1, 2]} if scenario.endswith("error") else {"points": 3}
    cfg = write_config(tmp_path, {"scan": scan, **doc, "shots": 4})
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == EXIT_OK


@pytest.mark.parametrize("scenario", ["x-error", "z-error"])
def test_train_scan_past_the_pulse_bound_exits_2_naming_n_values(tmp_path, monkeypatch,
                                                                  scenario):
    # n_values: [10**7] under quad would compile about 30 GB of tables; the
    # bound on the summed pulse count is checked before any table is compiled
    from xtalk import scenarios

    class Reached(Exception):
        pass

    def train_table(*args):
        raise Reached

    monkeypatch.setattr(scenarios, "_train_table", train_table)
    limit = scenarios._TRAIN_PULSES
    for n_values in ([10**7], [1, limit]):
        doc = {"method": "quad", "scan": {"n_values": n_values}}
        code, err, _ = run_quietly([scenario, "--config", write_config(tmp_path, doc)])
        assert code == EXIT_CONFIG
        assert err == [f"config error: {scenario} scan.n_values: {sum(n_values)} pulses in all "
                       f"exceed the {limit} a scan may compile"]
    with pytest.raises(Reached):  # at the bound, the scan goes on to compile its trains
        doc = {"method": "quad", "scan": {"n_values": [1, limit - 1]}}
        run_quietly([scenario, "--config", write_config(tmp_path, doc)])


@pytest.mark.parametrize("row", ["nan,0.5", "inf,0.5", "0.5,-inf", "0.5"])
def test_device_map_with_a_bad_row_exits_2(tmp_path, row):
    # a NaN field exited 0 with NaN rows, an infinite position named no row
    # and a one-value row ended in a traceback
    csv = tmp_path / "map.csv"
    csv.write_text(f"position_um,relative_field\n-6,0.01\n0,1\n{row}\n6,0.01\n",
                   encoding="utf-8")
    cfg = write_config(tmp_path, {"scan": {"curve": "device", "device_csv": str(csv)}})
    code, err, caught = run_quietly(["beam-profile", "--config", cfg])
    assert code == EXIT_CONFIG
    assert caught == []
    assert err == [f"config error: device map CSV line 4: position and field must be two "
                   f"finite numbers, got {row!r}"]


@pytest.mark.parametrize("rows", ["0,1\n0,3", "0,3\n0,1"])
def test_device_map_with_a_repeated_position_exits_2(tmp_path, rows):
    # both orders used to exit 0, with fields 0.0775 and 6.26 at x = -1 um
    csv = tmp_path / "map.csv"
    csv.write_text(f"position_um,relative_field\n-6,0.01\n{rows}\n6,0.01\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"scan": {"curve": "device", "device_csv": str(csv)}})
    code, err, caught = run_quietly(["beam-profile", "--config", cfg])
    assert code == EXIT_CONFIG
    assert caught == []
    assert err == ["config error: device map CSV line 4: position 0.0 repeats line 3"]


def test_unwritable_out_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"scan": {"n_values": [1]}})
    out = tmp_path / "missing-dir" / "x.csv"
    code, err, _ = run_quietly(["x-error", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()


# keys a scenario used to accept and ignore: each ran the same rows under another hash
_IGNORED = [
    *[(scenario, {"physics": {key: default}}, "physics")
      for scenario in ("drift-monitor", "duty-cycle-sweep", "beam-profile")
      for key, default in [*((k, d) for k, (_, d, _) in _PHYSICS.items()),
                           ("stark_shift_rad_per_s", 0.0)]],
    *[(scenario, {"physics": {"stark_shift_rad_per_s": 0.0}}, "stark_shift_rad_per_s")
      for scenario in ("x-error", "z-error", "phase-scan", "rabi-scan", "amplitude-scan")],
    ("phase-scan", {"physics": {"delta_phi_rad": math.pi}}, "delta_phi_rad"),
    *[(scenario, {"noise": noise}, "noise")
      for scenario in ("rabi-scan", "amplitude-scan", "drift-monitor", "duty-cycle-sweep",
                       "beam-profile")
      for noise in ({"preset": "enclosed"}, {"shot_interval_min": 1e-3})],
    *[(scenario, {"method": "none"}, "method")
      for scenario in ("drift-monitor", "duty-cycle-sweep", "beam-profile")],
    *[(scenario, {"shots": 200}, "shots") for scenario in ("duty-cycle-sweep", "beam-profile")],
    # phase-scan always runs pcc; rabi-scan ran sk1 and quad as a square drive
    *[("phase-scan", {"method": method}, "method") for method in ("none", "sk1", "quad")],
    ("rabi-scan", {"method": "sk1"}, "method"),
    ("rabi-scan", {"method": "quad"}, "method"),
    # amplitude-scan observes the target, which the crosstalk detuning never reaches
    ("amplitude-scan", {"physics": {"delta_ct_rad_per_s": 3e6}}, "delta_ct_rad_per_s"),
]


@pytest.mark.parametrize("scenario, doc, key", _IGNORED)
def test_key_the_scenario_does_not_read_exits_2(tmp_path, scenario, doc, key):
    code, err, caught = run_quietly([scenario, "--config", write_config(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert caught == []
    assert len(err) == 1
    assert err[0].startswith("config error: ")
    assert scenario in err[0] and key in err[0]


@pytest.mark.parametrize("scenario", ["duty-cycle-sweep", "beam-profile"])
def test_shots_flag_exits_2_where_shots_are_not_read(tmp_path, scenario):
    code, err, _ = run_quietly([scenario, "--config", write_config(tmp_path, {}), "--shots", "5"])
    assert code == EXIT_CONFIG
    assert err == [f"config error: unknown {scenario} keys: ['shots']"]


# values a config may hold; the valid ones keep every run small
_BAD = st.sampled_from([True, None, "abc", [1], {}, math.nan, math.inf, -1, 0, 1.5, 10**400])
# physics values at the edges of their ranges
_EDGE_VALUES = [0.0, -0.0, 5e-324, 1e300]
_EDGES = st.sampled_from(_EDGE_VALUES)


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


def _section(table, extra=st.nothing()):
    optional = {key: st.one_of(_value(kind, default), extra)
                for key, (kind, default, _) in table.items()}
    return st.one_of(st.fixed_dictionaries({}, optional=optional), _BAD)


def _config(scenario):
    """A config of the keys the scenario's row accepts, valid or not."""
    row = _ROWS[scenario]
    drawn = {
        "physics": _section(row.physics, _EDGES),
        "scan": _section(row.scan),
        "noise": st.one_of(st.none(), _section(_NOISE)),
        "shots": st.one_of(st.integers(1, 8), _BAD),
        "seed": st.one_of(st.integers(-(2**70), 2**70), _BAD),
        "out": st.one_of(st.sampled_from(["out.csv", "missing-dir/out.csv"]), _BAD),
    }
    return st.fixed_dictionaries({}, optional={
        key: drawn[key] if key in drawn else _value(kind, default)
        for key, (kind, default, _) in row.top.items() if key != "scenario"})


def run_doc(scenario, doc):
    """Exit code and stderr lines of a CLI run of ``doc``, written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(doc.get("out"), str):
            doc["out"] = str(Path(tmp) / doc["out"])
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, err, _ = run_quietly([scenario, "--config", str(path)])
    return code, err


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_config_exits_0_2_or_3(scenario, data):
    code, err = run_doc(scenario, data.draw(_config(scenario)))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    assert code == EXIT_OK or len(err) == 1


@pytest.mark.parametrize("scenario, key", [
    (scenario, key) for scenario in SCENARIOS if "physics" in _ROWS[scenario].top
    for key in _ROWS[scenario].physics])
@pytest.mark.parametrize("value", _EDGE_VALUES)
def test_physics_range_edges_exit_0_or_2(scenario, key, value):
    # a small scan of each scenario: the edges must not reach a traceback
    scan = {"n_values": [1, 2]} if "n_values" in _ROWS[scenario].scan else {"points": 3}
    code, err = run_doc(scenario, {"physics": {key: value}, "scan": scan, "shots": 4})
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert code == EXIT_OK or len(err) == 1


def _rejected(scenario):
    """(section, key) pairs another row accepts, or a row used to, but not this one."""
    row = _ROWS[scenario]
    pairs = [(None, key) for key in sorted(_NOISY.keys() - row.top.keys())]
    if "physics" in row.top:
        pairs += [("physics", key)
                  for key in sorted({*_PHYSICS, "stark_shift_rad_per_s"} - row.physics.keys())]
    return pairs


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_config_with_a_rejected_key_exits_2(scenario, data):
    doc = data.draw(_config(scenario))
    section, key = data.draw(st.sampled_from(_rejected(scenario)))
    if section is None:
        doc[key] = data.draw(_BAD)
    else:
        doc[section] = {**(doc[section] if isinstance(doc.get(section), dict) else {}), key: 0.0}
    code, err = run_doc(scenario, doc)
    assert code == EXIT_CONFIG and len(err) == 1
    if section is None:  # the top level is resolved first
        assert scenario in err[0] and key in err[0]
