"""ctqkd.expect: the closed-form values sessions are checked against, and
the rule that keeps them apart from the simulator they check."""

import ast
import math
from pathlib import Path

import pytest

from ctqkd import expect
from ctqkd.attacks import BeamSplit, BrightLight, InterceptResend, ModeDiscrimination, TrojanHorse
from ctqkd.protocol import SessionConfig, run_session

# expect may use detector's closed forms and fock, so no protocol, light or
# analysis; attacks only inside a function, to tell the attacks apart
# (attacks imports protocol, which imports expect).
ALLOWED = {"detector", "fock"}
ALLOWED_IN_FUNCTIONS = ALLOWED | {"attacks"}
FORBIDDEN_NAMES = {"state_pair_probs", "pair_outcome_probs", "port_means", "FieldArray"}


def _package_modules(node) -> set:
    """The ctqkd modules an import statement reads, by name."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("ctqkd.")}
    if node.level == 0 and not (node.module or "").startswith("ctqkd"):
        return set()
    module = (node.module or "").removeprefix("ctqkd").lstrip(".")
    return {module.split(".")[0]} if module else {a.name for a in node.names}


def _violations(source: str) -> list:
    """Each breach of expect's independence rule in source."""
    tree = ast.parse(source)
    in_functions = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = _package_modules(node)
            allowed = ALLOWED_IN_FUNCTIONS if id(node) in in_functions else ALLOWED
            found += [f"line {node.lineno}: imports {m}" for m in sorted(modules - allowed)]
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            names |= {node.name.split(".")[-1], node.asname}
        found += [f"line {node.lineno}: uses {n}" for n in sorted(names & FORBIDDEN_NAMES)]
    return found


def test_expect_uses_no_simulator_code():
    assert _violations(Path(expect.__file__).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "from .protocol import SessionConfig",
    "from . import light",
    "import ctqkd.analysis",
    "from ctqkd.light import Coherent",
    "from .attacks import BeamSplit",
    "def f(x):\n    from .protocol import port_means\n",
    "def f(levels):\n    return levels.FieldArray\n",
    "def f(p):\n    return pair_outcome_probs(p)\n",
    "from .detector import click_prob as state_pair_probs",
])
def test_independence_check_catches_each_breach(source):
    assert _violations(source)


def test_independence_check_allows_attacks_inside_a_function():
    assert _violations("from .detector import click_prob\n"
                       "def f():\n    from .attacks import BeamSplit\n") == []


@pytest.mark.parametrize("attack", [None, InterceptResend(), BeamSplit(0.5)],
                         ids=["honest", "intercept-resend", "beam-split"])
def test_session_counts_lie_within_5_sd_of_expect(attack):
    # Pairs are iid, so each count over the session's m pairs is binomial.
    cfg = SessionConfig(n_pulses=2 * 10**5, seed=1)
    res = run_session(cfg, attack)
    probs = expect.pair_probs(cfg, attack)
    m = res.counts["pairs"]
    for name, p in (("single_clicks", probs.single), ("double_clicks", probs.double),
                    ("sifted", probs.sifted)):
        assert abs(res.counts[name] - m * p) <= 5 * math.sqrt(m * p * (1 - p)), name


@pytest.mark.parametrize("attack", [ModeDiscrimination(), TrojanHorse(), BrightLight()],
                         ids=["mode-discrimination", "trojan", "bright-light"])
@pytest.mark.parametrize("value", [expect.alice_monitor_p, expect.bob_monitor_p, expect.pair_probs,
                                   expect.means_at_alice])
def test_attacks_without_a_closed_form_raise(value, attack):
    with pytest.raises(NotImplementedError, match=attack.label):
        value(SessionConfig(), attack)
