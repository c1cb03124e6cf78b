"""Configuration-driven command line front end.

Subcommands: states, session, attack, sweep, distinguish.  Parameters come
from a flat key-value config file with dotted section names, overridable by
command-line flags; unknown keys are rejected.  Exit codes: 0 success (or no
alarm), 2 configuration error (or a run too large for memory), 3 session
alarm.  All randomness derives from
the single configured seed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time

import numpy as np

from .analysis import (SweepSpec, distinguishability_curve, export_csv, parameter_keys,
                       resolve_parameters, run_sweep)
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
from .detector import ConfigError, DetectorModel, require_int, require_real
from .light import Blinding, Coherent, FockN, LightField, Thermal, Vacuum
from .protocol import ALARM_NONE, SessionConfig, run_session

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALARM = 3


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _vacuum_probe(arg: str) -> Vacuum:
    if arg.strip():
        raise ConfigError(f"a vacuum probe takes no argument, got {arg!r}")
    return Vacuum()


def _coherent_probe(arg: str) -> Coherent:
    mean = float(arg)
    require_real("coherent probe mean", mean, 0.0, math.inf, "[)")
    return Coherent(math.sqrt(mean))


# Probe kind -> the field of its argument.
_PROBES = {"vacuum": _vacuum_probe, "coherent": _coherent_probe,
           "thermal": lambda arg: Thermal(float(arg)), "fock": lambda arg: FockN(int(arg)),
           "blinding": lambda arg: Blinding(float(arg))}


def _parse_probe(text: str):
    """Probe field spec: vacuum | coherent:<mean> | thermal:<mean> |
    fock:<n> | blinding:<p>."""
    kind, _, arg = text.partition(":")
    probe = _PROBES.get(kind.strip().lower())
    if probe is None:
        raise ConfigError(f"unknown probe kind {text!r}")
    try:
        return probe(arg)
    except ValueError as exc:
        raise ConfigError(f"bad probe argument in {text!r}: {exc}") from exc


# Field annotation -> coercion from string, for each of PARAMETER_TYPES.
_FIELD_PARSERS = {int: int, float: float, LightField: _parse_probe}


# key -> coercion from string: the parameters of a session with each attack
# kind, then the command options.
CONFIG_SCHEMA = {
    **{key: _FIELD_PARSERS[hint] for cls in ATTACK_KINDS.values()
       for key, hint in parameter_keys(SessionConfig(), cls and cls()).items()},
    "attack.kind": str,
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


def build_run(values: dict) -> tuple:
    """(cfg, attack) of the configured run, set from the values of the keys
    it takes; the attack.* values of other attack kinds are ignored."""
    kind = values.get("attack.kind", "none")
    if kind not in ATTACK_KINDS:
        raise ConfigError(f"unknown attack kind {kind!r}; "
                          f"choose from {', '.join(sorted(ATTACK_KINDS))}")
    cls = ATTACK_KINDS[kind]
    run = (SessionConfig(), cls and cls())
    keys = parameter_keys(*run)
    return resolve_parameters(*run, {k: v for k, v in values.items() if k in keys})


def _output_path(out_dir: str, command: str, seed: int, ext: str) -> str:
    stamp = time.strftime("%Y%m%d%H%M%S", time.gmtime())
    return os.path.join(out_dir, f"{command}_{stamp}_{seed}.{ext}")


def _write_atomic(path: str, text: str) -> str:
    """Write text to a temporary file and publish it whole under path, or,
    if path exists, under the first free <stem>_<k>.<ext> (k = 1, 2, ...):
    a hard link never replaces a file, so two runs in one second with one
    seed keep both outputs.  Returns the path published."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    stem, ext = os.path.splitext(path)
    try:
        for k in itertools.count(1):
            try:
                os.link(tmp, path)
                return path
            except FileExistsError:
                path = f"{stem}_{k}{ext}"
    finally:
        os.remove(tmp)


def cmd_states(values: dict, out_dir: str, out) -> int:
    grid = values.get("states.mu_grid", (0.1, 0.2, 0.5, 1.0))
    if not grid:
        raise ConfigError(f"states.mu_grid must be nonempty, finite and nonnegative, got {grid}")
    try:
        # Thermal first: thermal_state judges each mean before a square root is taken.
        thermal = [thermal_state(mu) for mu in grid]
        coherent = [coherent_state(math.sqrt(mu)) for mu in grid]
    except (ConfigError, TruncationError) as exc:
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
    cfg, attack = build_run(values)
    result = run_session(cfg, attack)
    path = _write_atomic(_output_path(out_dir, "session", cfg.seed, "json"), result.to_json() + "\n")
    print(result.summary_line(), file=out)
    print(f"wrote {path}", file=out)
    return EXIT_OK if result.alarm == ALARM_NONE else EXIT_ALARM


def cmd_attack(values: dict, out_dir: str, out) -> int:
    cfg, attack = build_run(values)
    baseline = run_session(cfg, None)
    attacked = run_session(cfg, attack)
    rows = [
        {"label": "baseline", **eve_information_summary(baseline)},
        {"label": "attacked", **eve_information_summary(attacked)},
    ]
    path = _write_atomic(_output_path(out_dir, "attack", cfg.seed, "csv"), export_csv(rows))
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
    cfg, attack = build_run(values)
    spec = SweepSpec(
        parameter=values["sweep.parameter"],
        values=values["sweep.values"],
        base=cfg,
        attack=attack,
        seeds_per_point=values.get("sweep.seeds_per_point", 1),
    )
    points = run_sweep(spec)
    rows = [{"parameter": spec.parameter, **p.to_dict()} for p in points]
    path = _write_atomic(_output_path(out_dir, "sweep", cfg.seed, "csv"), export_csv(rows))
    print(f"wrote {path} ({len(rows)} points)", file=out)
    return EXIT_OK


def cmd_distinguish(values: dict, out_dir: str, out) -> int:
    seed = require_int("seed", values.get("session.seed", SessionConfig.seed), 0)
    try:
        rows = distinguishability_curve(
            values.get("distinguish.mu_thermal", 0.2), values.get("distinguish.mu_coherent", 0.2),
            DetectorModel(values.get("distinguish.eta", 0.1),
                          values.get("distinguish.dark_prob", 1e-5)),
            values.get("distinguish.n_grid", (1, 10, 100, 1000, 10000, 100000)),
            np.random.default_rng(seed), values.get("distinguish.trials", 2000))
    except ConfigError as exc:
        # Each message starts with the argument it is about, named as its key.
        raise ConfigError(f"distinguish.{exc}") from exc
    path = _write_atomic(_output_path(out_dir, "distinguish", seed, "csv"), export_csv(rows))
    print(f"wrote {path} ({len(rows)} points)", file=out)
    return EXIT_OK


# Override flag, by its dest -> the configuration key it sets, and parses as.
_OVERRIDES = {"seed": "session.seed", "attack": "attack.kind", "pulses": "session.n_pulses",
              "z_threshold": "session.z_threshold"}

# Command -> (its function (values, out_dir, out) -> exit code, the override
# flags it reads, whether it writes a file and so takes --out-dir (else
# out_dir is None), its help).
COMMANDS = {
    "states": (cmd_states, (), False,
               "tabulate state distances, overlaps and kernel checks over a mean-photon grid"),
    "session": (cmd_session, _OVERRIDES, True, "run one session and write its JSON result"),
    "attack": (cmd_attack, _OVERRIDES, True,
               "run matched baseline and attacked sessions, write a comparison CSV"),
    "sweep": (cmd_sweep, _OVERRIDES, True, "sweep one parameter over a grid of sessions, write a CSV curve"),
    "distinguish": (cmd_distinguish, ("seed",), True,
                    "Monte Carlo distinguishability vs sample count, write a CSV curve"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctqkd",
        description="Monte Carlo simulator for a coherent/thermal two-layer QKD link",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, writes, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key-value configuration file")
        if writes:
            p.add_argument("--out-dir", default=".", help="directory for output files")
        for dest in flags:
            key = _OVERRIDES[dest]
            p.add_argument("--" + dest.replace("_", "-"), type=CONFIG_SCHEMA[key], help=f"override {key}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = parse_config_file(args.config) if args.config else {}
        for dest, key in _OVERRIDES.items():
            if getattr(args, dest, None) is not None:
                values[key] = getattr(args, dest)
        return COMMANDS[args.command][0](values, getattr(args, "out_dir", None), sys.stdout)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
