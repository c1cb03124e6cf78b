"""Command line front end: config parsing, subcommands, exit codes and
reproducible outputs."""

import dataclasses
import json
import os
import re
import time
from pathlib import Path

import pytest

from ctqkd import cli
from ctqkd.analysis import parameter_keys, resolve_parameters
from ctqkd.attacks import ATTACK_KINDS, ModeDiscrimination
from ctqkd.cli import (
    CONFIG_SCHEMA,
    EXIT_ALARM,
    EXIT_CONFIG,
    EXIT_OK,
    _parse_probe,
    build_run,
    main,
    parse_config_file,
)
from ctqkd.detector import DetectorModel
from ctqkd.light import Blinding, Coherent, FockN, Thermal, Vacuum
from ctqkd.protocol import ConfigError, SessionConfig


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_parse_config_file(tmp_path):
    path = write_config(
        tmp_path,
        """
        # session block
        session.n_pulses = 5000
        session.seed = 9
        alice.eta = 0.2            # inline comment
        attack.kind = beam-split
        attack.tap_fraction = 0.4
        states.mu_grid = 0.1,0.2
        """,
    )
    values = parse_config_file(path)
    assert values["session.n_pulses"] == 5000
    assert values["alice.eta"] == 0.2
    assert values["states.mu_grid"] == (0.1, 0.2)
    cfg = build_run(values)[0]
    assert cfg.n_pulses == 5000 and cfg.seed == 9
    assert cfg.detector_alice.eta == 0.2
    attack = build_run(values)[1]
    assert attack.label == "beam-split" and attack.tap_fraction == 0.4


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "session.bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_parse_config_rejects_bad_syntax(tmp_path):
    path = write_config(tmp_path, "just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_parse_probe_kinds():
    assert _parse_probe("vacuum") == Vacuum()
    assert _parse_probe("coherent:10") == Coherent(10**0.5)
    assert _parse_probe("thermal:0.2") == Thermal(0.2)
    assert _parse_probe("fock:2") == FockN(2)
    assert _parse_probe("blinding:0.99") == Blinding(0.99)
    with pytest.raises(ConfigError):
        _parse_probe("squeezed:1")
    with pytest.raises(ConfigError, match="a vacuum probe takes no argument, got '3'"):
        _parse_probe("vacuum:3")
    with pytest.raises(ConfigError, match=r"coherent probe mean must be a finite real number in \[0, inf\)"):
        _parse_probe("coherent:-1")


def _names(cls, init_only=False) -> set:
    return {f.name for f in dataclasses.fields(cls) if f.init or not init_only}


def test_config_schema_keys_are_dataclass_fields():
    attack_params = {cls: _names(cls, init_only=True) for cls in ATTACK_KINDS.values() if cls}
    for key in CONFIG_SCHEMA:
        section, _, name = key.partition(".")
        if section == "session":
            assert name in _names(SessionConfig), key
        elif section in ("alice", "bob"):
            assert name in _names(DetectorModel), key
        elif section == "attack" and name != "kind":
            assert any(name in names for names in attack_params.values()), key
    for cls, names in attack_params.items():
        for name in names - ({"eve_det"} if cls is ModeDiscrimination else set()):
            assert f"attack.{name}" in CONFIG_SCHEMA, (cls.__name__, name)


def test_readme_example_config_builds_every_attack(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    values = parse_config_file(write_config(tmp_path, example))
    # Every key is documented, so a field that gains a key must be too.
    assert set(values) == set(CONFIG_SCHEMA)
    assert build_run(values)[0].detector_bob.dark_prob == 1e-5
    for kind, cls in ATTACK_KINDS.items():
        attack = build_run({**values, "attack.kind": kind})[1]
        assert attack is None if cls is None else type(attack) is cls
    assert build_run(values)[1].probe == Coherent(10**0.5)
    assert build_run({**values, "attack.kind": "beam-split"})[1].tap_fraction == 0.5


def test_readme_parameter_keys_build_as_a_sweep_sets_them(tmp_path):
    # The config file and a sweep set a key through one resolver: for every
    # parameter key of the README example, at its value and at another one,
    # the CLI builders give the objects the sweep's resolver does.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    values = parse_config_file(write_config(tmp_path, example))
    base = SessionConfig()
    checked = set()
    for key, value in values.items():
        section, _, name = key.partition(".")
        other = Thermal(0.5) if key == "attack.probe" else value / 2 if isinstance(value, float) \
            else value // 2 if isinstance(value, int) else None
        for v in (value, other):
            if key in parameter_keys(base, None):
                if section == "session":
                    want = dataclasses.replace(base, **{name: v})
                else:
                    detector = getattr(base, f"detector_{section}")
                    want = dataclasses.replace(base, **{f"detector_{section}":
                                                        dataclasses.replace(detector, **{name: v})})
                assert resolve_parameters(base, None, {key: v})[0] == want, key
                assert build_run({key: v})[0] == want, key
                checked.add(key)
            for kind, cls in ATTACK_KINDS.items():
                if cls is not None and key in parameter_keys(None, cls()):
                    want = dataclasses.replace(cls(), **{name: v})
                    assert resolve_parameters(base, cls(), {key: v})[1] == want, (key, kind)
                    assert build_run({"attack.kind": kind, key: v})[1] == want, (key, kind)
                    checked.add(key)
    sections = ("session", "alice", "bob", "attack")
    assert checked == {k for k in CONFIG_SCHEMA if k.split(".")[0] in sections} - {"attack.kind"}


@pytest.mark.parametrize("command,text", [
    ("session", "session.n_pulses = 100000000000000000000"),
    ("sweep", "sweep.parameter = n_pulses\nsweep.values = 1e25"),
    ("sweep", "sweep.parameter = session.n_pulses\nsweep.values = 2000,1e25"),
    ("distinguish", "distinguish.trials = 100000000000000000000"),
])
def test_counts_beyond_numpy_array_sizes_exit_2(tmp_path, capsys, command, text):
    # Each once crashed inside numpy with "Maximum allowed dimension exceeded".
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "must be <= 9223372036854775807" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_pulses_flag_beyond_numpy_array_sizes_exits_2(tmp_path, capsys):
    assert main(["session", "--pulses", "100000000000000000000",
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "n_pulses must be <=" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["session", "attack"])
def test_pulses_flag_beyond_memory_exits_2(tmp_path, capsys, command):
    # 2**62 pulses fit numpy's index range, but the session's first array,
    # the 512 PiB of raw words for 2**62 secret bits, is beyond the address
    # space of any 64-bit machine, so it fails at once: no OS can overcommit
    # it.
    assert main([command, "--pulses", str(2**62), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "memory" in line
    assert list(tmp_path.iterdir()) == []


def test_sweep_command_takes_any_parameter_section_key(tmp_path):
    for parameter in ("session.mu_thermal", "alice.eta", "bob.dark_prob"):
        out_dir = tmp_path / parameter
        path = write_config(tmp_path, f"sweep.parameter = {parameter}\nsweep.values = 0.1,0.01\n")
        assert main(["sweep", "--config", path, "--pulses", "2000",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        (name,) = os.listdir(out_dir)
        lines = (out_dir / name).read_text().strip().splitlines()
        assert len(lines) == 3 and lines[1].startswith(f"{parameter},0.1,")


def test_distinguish_names_the_key_of_a_bad_detector_value(tmp_path, capsys):
    path = write_config(tmp_path, "distinguish.dark_prob = 1")
    assert main(["distinguish", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "distinguish.dark_prob must be a finite real number" in capsys.readouterr().err


def test_build_attack_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        build_run({"attack.kind": "quantum-hacking"})


def test_states_command(capsys):
    assert main(["states"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("mu_coherent")
    # golden diagonal row at (0.2, 0.2)
    row = next(
        line for line in out.splitlines() if line.split()[:2] == ["0.2", "0.2"]
    )
    assert "0.407779" in row and "0.705401" in row


def test_states_rejects_bad_grid(tmp_path, capsys):
    # 5 is finite and nonnegative, but its thermal state exceeds the n_max=40 cutoff.
    for grid in ("-0.5", "nan", "inf", "5", "0.1, 5"):
        path = write_config(tmp_path, f"states.mu_grid = {grid}\n")
        assert main(["states", "--config", path]) == EXIT_CONFIG, grid
        captured = capsys.readouterr()
        assert captured.out == "" and "states.mu_grid" in captured.err, grid


def test_session_command_exit_codes(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main(["session", "--seed", "3", "--pulses", "20000", "--out-dir", out_dir])
    assert code == EXIT_OK
    code = main([
        "session", "--seed", "3", "--pulses", "20000",
        "--attack", "intercept-resend", "--out-dir", out_dir,
    ])
    assert code == EXIT_ALARM
    summary = capsys.readouterr().out
    assert "alarm=multiple" in summary
    # an absurdly tight threshold turns the honest run into an alarm
    code = main([
        "session", "--seed", "3", "--pulses", "20000",
        "--z-threshold", "0.001", "--out-dir", out_dir,
    ])
    assert code == EXIT_ALARM


def test_session_json_reproducible(tmp_path):
    def run_once(sub):
        out_dir = str(tmp_path / sub)
        assert main([
            "session", "--seed", "11", "--pulses", "10000",
            "--attack", "trojan", "--out-dir", out_dir,
        ]) == EXIT_ALARM
        (name,) = os.listdir(out_dir)
        with open(os.path.join(out_dir, name), "rb") as fh:
            return fh.read()

    assert run_once("a") == run_once("b")


def test_session_json_content(tmp_path):
    out_dir = str(tmp_path / "out")
    main(["session", "--seed", "5", "--pulses", "10000", "--out-dir", out_dir])
    (name,) = os.listdir(out_dir)
    assert name.startswith("session_") and name.endswith("_5.json")
    doc = json.loads(Path(out_dir, name).read_text())
    assert doc["alarm"] == "none"
    assert doc["config"]["seed"] == 5


def test_runs_in_one_second_with_one_seed_keep_both_outputs(tmp_path, capsys, monkeypatch):
    frozen = time.gmtime()
    monkeypatch.setattr(time, "gmtime", lambda *args: frozen)
    out_dir = tmp_path / "out"
    for pulses in (10000, 12000):
        main(["session", "--seed", "5", "--pulses", str(pulses), "--out-dir", str(out_dir)])
    stamp = time.strftime("%Y%m%d%H%M%S", frozen)
    names = [f"session_{stamp}_5.json", f"session_{stamp}_5_1.json"]
    assert sorted(os.listdir(out_dir)) == names
    assert [json.loads((out_dir / name).read_text())["config"]["n_pulses"] for name in names] == [10000, 12000]
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {out_dir / name}" for name in names]


def test_attack_command(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main([
        "attack", "--seed", "2", "--pulses", "10000",
        "--attack", "bright-light", "--out-dir", out_dir,
    ])
    assert code == EXIT_OK
    (name,) = os.listdir(out_dir)
    lines = Path(out_dir, name).read_text().strip().splitlines()
    assert lines[0].startswith("label,attack,")
    assert lines[1].startswith("baseline,none,")
    assert lines[2].startswith("attacked,bright-light,")
    assert "alice_power" in lines[2]


def test_sweep_command(tmp_path):
    out_dir = str(tmp_path / "out")
    path = write_config(
        tmp_path,
        """
        session.n_pulses = 4000
        session.seed = 6
        sweep.parameter = mu_coherent
        sweep.values = 0.1,0.2
        sweep.seeds_per_point = 2
        """,
    )
    assert main(["sweep", "--config", path, "--out-dir", out_dir]) == EXIT_OK
    (name,) = os.listdir(out_dir)
    lines = Path(out_dir, name).read_text().strip().splitlines()
    assert lines[0] == "parameter,x,alarm_rate,mean_qber,mean_z_alice,mean_z_bob,key_rate"
    assert len(lines) == 3


def test_sweep_rejects_bad_attack_value_with_exit_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        """
        session.n_pulses = 2000
        attack.kind = beam-split
        sweep.parameter = attack.tap_fraction
        sweep.values = 0.5,1.5
        """,
    )
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "tap_fraction" in capsys.readouterr().err
    assert list(tmp_path.glob("sweep_*")) == []


def test_sweep_requires_parameter(tmp_path, capsys):
    assert main(["sweep", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "sweep requires" in capsys.readouterr().err


def test_distinguish_command(tmp_path):
    out_dir = str(tmp_path / "out")
    path = write_config(
        tmp_path,
        """
        distinguish.eta = 1.0
        distinguish.dark_prob = 0.0
        distinguish.n_grid = 1,100
        distinguish.trials = 500
        """,
    )
    assert main(["distinguish", "--config", path, "--out-dir", out_dir]) == EXIT_OK
    (name,) = os.listdir(out_dir)
    lines = Path(out_dir, name).read_text().strip().splitlines()
    assert lines[0] == "n_samples,p_thermal,p_coherent,discrimination_error"
    assert len(lines) == 3


@pytest.mark.parametrize("text", [
    "session.mu_coherent = nan",
    "session.mu_thermal = 0\nalice.dark_prob = 0",
    "alice.eta = 1.5",
    "bob.dark_prob = 1",
    "attack.kind = beam-split\nattack.probe = squeezed:1",
    "attack.kind = intercept-resend\nattack.resend_mu = 0",
])
def test_session_rejects_bad_config_with_exit_2(tmp_path, capsys, text):
    path = write_config(tmp_path, text)
    assert main(["session", "--config", path, "--pulses", "1000",
                 "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.glob("session_*")) == []


@pytest.mark.parametrize("probe", ["thermal:nan", "thermal:inf", "coherent:inf",
                                   "fock:100000000000000000000", "fock:9007199254740993",
                                   pytest.param("fock:1" + "0" * 400, id="fock:1e400")])
def test_trojan_rejects_non_finite_or_too_bright_probe_with_exit_2(tmp_path, capsys, probe):
    path = write_config(tmp_path, f"attack.kind = trojan\nattack.probe = {probe}\n")
    for command in ("session", "attack"):
        assert main([command, "--config", path, "--pulses", "1000",
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
    assert list(tmp_path.glob("session_*")) == [] and list(tmp_path.glob("attack_*")) == []


def test_distinguish_rejects_bad_detector_with_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "distinguish.eta = 2")
    assert main(["distinguish", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    ("distinguish.trials = 0", "distinguish.trials"),
    ("distinguish.trials = -3", "distinguish.trials"),
    ("distinguish.mu_coherent = nan", "distinguish.mu_coherent"),
    ("distinguish.mu_coherent = inf", "distinguish.mu_coherent"),
    ("distinguish.mu_thermal = -0.1", "distinguish.mu_thermal"),
    ("distinguish.mu_thermal = nan", "distinguish.mu_thermal"),
    ("distinguish.n_grid = 10,0", "sample counts"),
    ("distinguish.n_grid = ,", "distinguish.n_grid"),
    ("distinguish.n_grid = 100000000000000000000", "sample counts"),
    ("distinguish.n_grid = 10,9223372036854775808", "sample counts"),
    ("session.seed = -1", "seed must be >= 0, got -1"),
])
def test_distinguish_rejects_bad_value_with_exit_2(tmp_path, capsys, text, key):
    path = write_config(tmp_path, text)
    assert main(["distinguish", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert list(tmp_path.glob("distinguish_*")) == []


def test_distinguish_curve_defects_are_not_config_errors(tmp_path, monkeypatch):
    # Only the inputs are checked as configuration; a ValueError raised by a
    # defect inside the computation propagates instead of reading as exit 2.
    def broken(*args, **kwargs):
        raise ValueError("simulated defect")

    monkeypatch.setattr(cli, "distinguishability_curve", broken)
    with pytest.raises(ValueError, match="simulated defect"):
        main(["distinguish", "--out-dir", str(tmp_path)])


def test_removed_distinguish_z_key_is_unknown(tmp_path, capsys):
    path = write_config(tmp_path, "distinguish.z = 3.0")
    assert main(["distinguish", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown configuration key 'distinguish.z'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["states", "session", "attack", "sweep", "distinguish"])
def test_non_utf8_config_file_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"session.seed = 1\n# \xff\n")
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and f"{path}: not UTF-8 text" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("argv", [["states", "--pulses", "5"], ["states", "--attack", "trojan"],
                                  ["states", "--seed", "9"], ["distinguish", "--attack", "trojan"],
                                  ["distinguish", "--pulses", "7"], ["distinguish", "--z-threshold", "2"]])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_is_config_error(capsys):
    assert main(["session", "--config", "/nonexistent/path.cfg"]) == EXIT_CONFIG
