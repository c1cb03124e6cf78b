"""Configuration-driven command line front end.

Subcommands: states, session, attack, sweep, distinguish.  Parameters come
from a flat key-value config file with dotted section names, overridable by
command-line flags; unknown keys are rejected.  Exit codes: 0 success (or no
alarm), 2 configuration error, 3 session alarm.  All randomness derives from
the single configured seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
import typing

import numpy as np

from .analysis import SweepSpec, distinguishability_curve, export_csv, run_sweep
from .attacks import ATTACK_KINDS, eve_information_summary
from .fock import (
    TruncationError,
    coherent_state,
    expectation,
    min_eigenvalue,
    overlap_coherent_thermal,
    thermal_state,
    trace_distance,
    vacuum_probability,
)
from .detector import ConfigError, DetectorModel
from .light import Blinding, Coherent, FockN, LightField, Thermal, Vacuum
from .protocol import ALARM_NONE, SessionConfig, run_session

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALARM = 3


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_probe(text: str):
    """Probe field spec: vacuum | coherent:<mean> | thermal:<mean> |
    fock:<n> | blinding:<p>."""
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "vacuum":
            return Vacuum()
        if kind == "coherent":
            return Coherent(math.sqrt(float(arg)))
        if kind == "thermal":
            return Thermal(float(arg))
        if kind == "fock":
            return FockN(int(arg))
        if kind == "blinding":
            return Blinding(float(arg))
    except ValueError as exc:
        raise ConfigError(f"bad probe argument in {text!r}: {exc}") from exc
    raise ConfigError(f"unknown probe kind {text!r}")


# Field annotation -> coercion from string.  Every int, float and LightField
# field of the parameter dataclasses gets a config key; other fields (the
# detector models inside SessionConfig and ModeDiscrimination) get none.
_FIELD_PARSERS = {int: int, float: float, LightField: _parse_probe}


def _field_keys(section: str, *classes) -> dict:
    """section.<field> -> parser, for each field of classes whose annotation has one."""
    keys = {}
    for cls in classes:
        hints = typing.get_type_hints(cls)
        keys.update({f"{section}.{f.name}": _FIELD_PARSERS[hints[f.name]]
                     for f in dataclasses.fields(cls) if hints[f.name] in _FIELD_PARSERS})
    return keys


# key -> coercion from string: the parameter fields, then the command options.
CONFIG_SCHEMA = {
    **_field_keys("session", SessionConfig),
    **_field_keys("alice", DetectorModel),
    **_field_keys("bob", DetectorModel),
    "attack.kind": str,
    **_field_keys("attack", *(cls for cls in ATTACK_KINDS.values() if cls)),
    "states.mu_grid": _parse_floats,
    "sweep.parameter": str,
    "sweep.values": _parse_floats,
    "sweep.seeds_per_point": int,
    "distinguish.mu_thermal": float,
    "distinguish.mu_coherent": float,
    "distinguish.eta": float,
    "distinguish.dark_prob": float,
    "distinguish.n_grid": _parse_ints,
    "distinguish.trials": int,
}


def parse_config_file(path: str) -> dict:
    """Flat "section.key = value" lines; '#' starts a comment; unknown keys
    are a configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            values[key] = CONFIG_SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _section(values: dict, prefix: str) -> dict:
    """The values whose keys start with prefix, keyed by the rest of the key."""
    return {key[len(prefix):]: v for key, v in values.items() if key.startswith(prefix)}


def build_session_config(values: dict) -> SessionConfig:
    defaults = SessionConfig()
    alice = dataclasses.replace(defaults.detector_alice, **_section(values, "alice."))
    bob = dataclasses.replace(defaults.detector_bob, **_section(values, "bob."))
    return SessionConfig(detector_alice=alice, detector_bob=bob, **_section(values, "session."))


def build_attack(values: dict):
    """The configured attack, built from the attack.* values that name its
    parameters; the others belong to other kinds and are ignored."""
    kind = values.get("attack.kind", "none")
    if kind not in ATTACK_KINDS:
        raise ConfigError(
            f"unknown attack kind {kind!r}; choose from {', '.join(sorted(ATTACK_KINDS))}"
        )
    cls = ATTACK_KINDS[kind]
    if cls is None:
        return None
    params = _section(values, "attack.")
    return cls(**{f.name: params[f.name] for f in dataclasses.fields(cls) if f.name in params})


def _output_path(out_dir: str, command: str, seed: int, ext: str) -> str:
    stamp = time.strftime("%Y%m%d%H%M%S", time.gmtime())
    return os.path.join(out_dir, f"{command}_{stamp}_{seed}.{ext}")


def _write_atomic(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def cmd_states(values: dict, out) -> int:
    grid = values.get("states.mu_grid", (0.1, 0.2, 0.5, 1.0))
    if not grid or not all(0.0 <= m < math.inf for m in grid):
        raise ConfigError(f"states.mu_grid must be nonempty, finite and nonnegative, got {grid}")
    try:
        coherent = [coherent_state(math.sqrt(mu)) for mu in grid]
        thermal = [thermal_state(mu) for mu in grid]
    except TruncationError as exc:
        raise ConfigError(f"states.mu_grid: {exc}") from exc
    header = (
        "mu_coherent mu_thermal trace_dist overlap_closed overlap_numeric "
        "min_eig_thermal vac_coherent vac_thermal"
    )
    print(header, file=out)
    for mu_c, rho_c in zip(grid, coherent):
        for mu_t, rho_t in zip(grid, thermal):
            print(
                f"{mu_c:<11.6g} {mu_t:<10.6g} {trace_distance(rho_c, rho_t):<10.6g} "
                f"{overlap_coherent_thermal(math.sqrt(mu_c), mu_t):<14.6g} "
                f"{expectation(rho_c, rho_t):<15.6g} {min_eigenvalue(rho_t):<15.6g} "
                f"{vacuum_probability(rho_c):<12.6g} {vacuum_probability(rho_t):.6g}",
                file=out,
            )
    return EXIT_OK


def cmd_session(values: dict, out_dir: str, out) -> int:
    cfg = build_session_config(values)
    attack = build_attack(values)
    result = run_session(cfg, attack)
    path = _output_path(out_dir, "session", cfg.seed, "json")
    _write_atomic(path, result.to_json() + "\n")
    print(result.summary_line(), file=out)
    print(f"wrote {path}", file=out)
    return EXIT_OK if result.alarm == ALARM_NONE else EXIT_ALARM


def cmd_attack(values: dict, out_dir: str, out) -> int:
    cfg = build_session_config(values)
    attack = build_attack(values)
    baseline = run_session(cfg, None)
    attacked = run_session(cfg, attack)
    rows = [
        {"label": "baseline", **eve_information_summary(baseline)},
        {"label": "attacked", **eve_information_summary(attacked)},
    ]
    path = _output_path(out_dir, "attack", cfg.seed, "csv")
    _write_atomic(path, export_csv(rows))
    for row in rows:
        print(
            f"{row['label']}: attack={row['attack']} qber={row['qber']} "
            f"z_alice={row['z_alice']:.6g} alarm={row['alarm']}",
            file=out,
        )
    print(f"wrote {path}", file=out)
    return EXIT_OK


def cmd_sweep(values: dict, out_dir: str, out) -> int:
    for key in ("sweep.parameter", "sweep.values"):
        if key not in values:
            raise ConfigError(f"sweep requires {key}")
    cfg = build_session_config(values)
    spec = SweepSpec(
        parameter=values["sweep.parameter"],
        values=tuple(values["sweep.values"]),
        base=cfg,
        attack=build_attack(values),
        seeds_per_point=values.get("sweep.seeds_per_point", 1),
    )
    points = run_sweep(spec)
    rows = [{"parameter": spec.parameter, **p.to_dict()} for p in points]
    path = _output_path(out_dir, "sweep", cfg.seed, "csv")
    _write_atomic(path, export_csv(rows))
    print(f"wrote {path} ({len(rows)} points)", file=out)
    return EXIT_OK


def cmd_distinguish(values: dict, out_dir: str, out) -> int:
    # The seed obeys the session's rule: an integer >= 0.
    seed = SessionConfig(seed=values.get("session.seed", SessionConfig.seed)).seed
    det = DetectorModel(
        eta=values.get("distinguish.eta", 0.1),
        dark_prob=values.get("distinguish.dark_prob", 1e-5),
    )
    mu_t = values.get("distinguish.mu_thermal", 0.2)
    mu_c = values.get("distinguish.mu_coherent", 0.2)
    for key, mu in (("distinguish.mu_thermal", mu_t), ("distinguish.mu_coherent", mu_c)):
        if not 0.0 <= mu < math.inf:
            raise ConfigError(f"{key} must be finite and nonnegative, got {mu}")
    n_grid = values.get("distinguish.n_grid", (1, 10, 100, 1000, 10000, 100000))
    if not n_grid:
        raise ConfigError("distinguish.n_grid must be nonempty")
    trials = values.get("distinguish.trials", 2000)
    if trials < 1:
        raise ConfigError(f"distinguish.trials must be >= 1, got {trials}")
    rows = distinguishability_curve(mu_t, mu_c, det, n_grid, np.random.default_rng(seed), trials)
    path = _output_path(out_dir, "distinguish", seed, "csv")
    _write_atomic(path, export_csv(rows))
    print(f"wrote {path} ({len(rows)} points)", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctqkd",
        description="Monte Carlo simulator for a coherent/thermal two-layer QKD link",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("states", "tabulate state distances, overlaps and kernel checks over a mean-photon grid"),
        ("session", "run one session and write its JSON result"),
        ("attack", "run matched baseline and attacked sessions, write a comparison CSV"),
        ("sweep", "sweep one parameter over a grid of sessions, write a CSV curve"),
        ("distinguish", "Monte Carlo distinguishability vs sample count, write a CSV curve"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key-value configuration file")
        p.add_argument("--seed", type=int, help="override session.seed")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--attack", help="override attack.kind")
        p.add_argument("--pulses", type=int, help="override session.n_pulses")
        p.add_argument("--z-threshold", type=float, help="override session.z_threshold")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = parse_config_file(args.config) if args.config else {}
        for flag, key in (("seed", "session.seed"), ("attack", "attack.kind"),
                          ("pulses", "session.n_pulses"), ("z_threshold", "session.z_threshold")):
            if getattr(args, flag) is not None:
                values[key] = getattr(args, flag)
        if args.command == "states":
            return cmd_states(values, sys.stdout)
        commands = {"session": cmd_session, "attack": cmd_attack, "sweep": cmd_sweep,
                    "distinguish": cmd_distinguish}
        return commands[args.command](values, args.out_dir, sys.stdout)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
