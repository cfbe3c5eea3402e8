import json
import math
import warnings

import pytest

from xtalk.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


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
