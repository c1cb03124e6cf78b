"""Golden outputs: a fixed (config, attack, seed) must reproduce its session
byte for byte.

Each entry pins the SHA-256 of SessionResult.to_json() and of the delivered
sifted keys (Alice's bytes followed by Bob's) for the honest run and every
attack at seed 7.  A change that alters any value here changes the RNG
stream or the arithmetic of the simulation and must say so.
"""

import hashlib

import pytest

from ctqkd.attacks import ATTACK_KINDS, BeamSplit, ModeDiscrimination, TrojanHorse
from ctqkd.detector import DetectorModel
from ctqkd.light import Blinding, FockN, Thermal, Vacuum
from ctqkd.protocol import SessionConfig, run_session

GOLDEN = {
    ("none", 1000): ("91f4e15707181e8205840955558f8d6e7c284fb76c5a71f5290d17b15e08d2c9", "30fba0faf3ba8f074fa92bb980b25fb69692365465b451d938169e7690f779c0"),
    ("intercept-resend", 1000): ("fa71e89c5a7cbddba4732fa5884f330640adc4cda79b964a08dd2b2c0b1f8b98", "949f59d4d27043ba6f6343a93afb229865baa2c331b5767d5a1ba80c4b071117"),
    ("beam-split", 1000): ("abff5b2bd5d7b126ea3dd701f3d1c7ef4946ce0fd3951ab664396b4ba5881326", "76cc5805dab9b4eacefdb477f498020fd82bccdbc9c6a2d9ce10586ac85512b4"),
    ("mode-discrimination", 1000): ("2644e267bc3f5685a4172472ae2a37442abe6060596c6342972c782e9aa88222", "3bee36e8077a31f776122b8e4ea5cad1bac0054e798ceea45a78467f108beb80"),
    ("trojan", 1000): ("402abc4f69f3a04b577ef918f619ce28008bde60480ba1602c31bc4c7be8eaea", "58c89e15a2157dc71556769d73a0e4d263756b0da45c9ec45510b2b80278c9ce"),
    ("bright-light", 1000): ("82839b7ecc643b036d71c6ea54324593cc5d0f94905fc9d2dbfbe59bbb11e0ca", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("none", 100000): ("1c2dde07ad22fa5a0def352d10f9c81ce8a66df50ebfd798d49764d9b417e0f6", "ac42584424e435d298ff2c48368bee6b020df9c77f8e14e7c11cf9eb34a7bc3d"),
    ("intercept-resend", 100000): ("dcb15220d270de4f93b693785f4458cb442b86fae232c0fb344e46e350a77337", "cf1d7bffda369f9eb931fb69d6678e1f6d9dea36d056adcf96f9d4b84c011961"),
    ("beam-split", 100000): ("df8bb4c4c65f373089e378469b2c5e0360445a18a3d08f683a56221c75f6b781", "6e966456b04a5b277e2760d16cb126476ae1db83afcec2dd569cb047a3a0ae08"),
    ("mode-discrimination", 100000): ("6bea5e180f656ba0b05c7fdc00355adf06ba7a77c21c0e028f455b709eea1cf5", "9bee8eab623941060a04c968382a8a652e9d43afcc387687cd83fc9d6cb64621"),
    ("trojan", 100000): ("700257f5ab06738b91184ae80f00bbc20a45ef13e260a5f75d82d2be17e4e871", "46d8b190ba2385a6b30a913af38fac9a66fe9478afd51f18c8a0f601f84dd2b2"),
    ("bright-light", 100000): ("5e7e33e991111e021de32a14db54ab1e39a3ac1bee504341c701923bb899636d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


# Non-default probes, attack parameters and configs, at 1e5 pulses and seed 7:
# every probe kind on Bob's monitor and Eve's photon counter, Eve's own
# detector model, a small tap, and a session without Bob's tap.
GOLDEN_VARIANTS = {
    "trojan-fock-3": ({}, TrojanHorse(FockN(3)), "e170011471133dc85ad7064a628ff903e134c002a306b2a51a35cfd0f794af79", "553d430f1f43e761ec6b00dcdf38af8a448e9b7498c2c1b38bc02fafbea07599"),
    "trojan-thermal-2": ({}, TrojanHorse(Thermal(2.0)), "5835a7c413dc4470396dca527fd50b2483fc1026249b5616ed24df9782b39d3c", "61c4e7335bfc276d720ece060e4dbcf0b181748cb43fe10e0e78393ef67f46ad"),
    "trojan-vacuum": ({}, TrojanHorse(Vacuum()), "8c53557e56c7f0e59400c5d9d88857864ab82e451e286ff921d0c01eafa9118a", "ad84e4e332a2b48772c7c8d3d6e1f553130dfcfd825c48836014ff265b396497"),
    "trojan-blinding-0.5": ({}, TrojanHorse(Blinding(0.5)), "fd321657df7dd64780ef11b207eda50cb4205f3bd548a1c9bdb2a8fb2d18b677", "46d8b190ba2385a6b30a913af38fac9a66fe9478afd51f18c8a0f601f84dd2b2"),
    "mode-discrimination-eve-det": ({}, ModeDiscrimination(0.7, DetectorModel(0.4, 1e-3)), "5e0bbfa66f9196bbf15dae548a99eda08a7abdb31981e79367c14c3632754e65", "977a98b53c4f4a6df9f042919f99153d2c8ff601c89b73246833622fdfda26c4"),
    "beam-split-0.2": ({}, BeamSplit(0.2), "8f1b5eefa1f91fc1cca53c6b9aae130271ceeacb0e00507e7aec526d3100af56", "65cfb03168d7533bb4d07f90e856955b1de002ea31c4ef98e581f18f5cc866b8"),
    "no-tap-mu-1.7": ({"tap_reflectance": 0.0, "mu_coherent": 1.7}, None, "ad2d45401896bfa15e98130bc48b8ae3df198a6af24b53711b2f3c7db1dc31ed", "ad83714435084d9cff3ade331153b9a87b45d7b1d72759e87fe3b71ed4b6e49c"),
}


def _assert_golden(res, json_sha, key_sha):
    assert hashlib.sha256(res.to_json().encode()).hexdigest() == json_sha
    keys = res.sifted_key_alice.tobytes() + res.sifted_key_bob.tobytes()
    assert hashlib.sha256(keys).hexdigest() == key_sha


@pytest.mark.parametrize("kind,n_pulses", sorted(GOLDEN))
def test_session_matches_golden(kind, n_pulses):
    cls = ATTACK_KINDS[kind]
    res = run_session(SessionConfig(n_pulses=n_pulses, seed=7), cls() if cls else None)
    _assert_golden(res, *GOLDEN[kind, n_pulses])


@pytest.mark.parametrize("name", sorted(GOLDEN_VARIANTS))
def test_variant_session_matches_golden(name):
    overrides, attack, json_sha, key_sha = GOLDEN_VARIANTS[name]
    res = run_session(SessionConfig(n_pulses=100_000, seed=7, **overrides), attack)
    _assert_golden(res, json_sha, key_sha)
