"""Command line front end: config parsing, subcommands, exit codes and
reproducible outputs."""

import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

from ctqkd.attacks import ATTACK_KINDS, ModeDiscrimination
from ctqkd.cli import (
    CONFIG_SCHEMA,
    EXIT_ALARM,
    EXIT_CONFIG,
    EXIT_OK,
    _parse_probe,
    build_attack,
    build_session_config,
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
    cfg = build_session_config(values)
    assert cfg.n_pulses == 5000 and cfg.seed == 9
    assert cfg.detector_alice.eta == 0.2
    attack = build_attack(values)
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
    assert build_session_config(values).detector_bob.dark_prob == 1e-5
    for kind, cls in ATTACK_KINDS.items():
        attack = build_attack({**values, "attack.kind": kind})
        assert attack is None if cls is None else type(attack) is cls
    assert build_attack(values).probe == Coherent(10**0.5)
    assert build_attack({**values, "attack.kind": "beam-split"}).tap_fraction == 0.5


def test_build_attack_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        build_attack({"attack.kind": "quantum-hacking"})


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
    path = write_config(tmp_path, "states.mu_grid = -0.5\n")
    assert main(["states", "--config", path]) == EXIT_CONFIG


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
    doc = json.loads(open(os.path.join(out_dir, name)).read())
    assert doc["alarm"] == "none"
    assert doc["config"]["seed"] == 5


def test_attack_command(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main([
        "attack", "--seed", "2", "--pulses", "10000",
        "--attack", "bright-light", "--out-dir", out_dir,
    ])
    assert code == EXIT_OK
    (name,) = os.listdir(out_dir)
    lines = open(os.path.join(out_dir, name)).read().strip().splitlines()
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
    lines = open(os.path.join(out_dir, name)).read().strip().splitlines()
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
    lines = open(os.path.join(out_dir, name)).read().strip().splitlines()
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


def test_distinguish_rejects_bad_detector_with_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "distinguish.eta = 2")
    assert main(["distinguish", "--config", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_config_error(capsys):
    assert main(["session", "--config", "/nonexistent/path.cfg"]) == EXIT_CONFIG
