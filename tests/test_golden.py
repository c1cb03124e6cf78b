"""Golden outputs: a fixed (config, attack, seed) must reproduce its session
byte for byte.

Each entry pins the SHA-256 of SessionResult.to_json() and of the delivered
sifted keys (Alice's bytes followed by Bob's) for the honest run and every
attack at seed 7.  A change that alters any value here changes the RNG
stream or the arithmetic of the simulation and must say so.
"""

import hashlib

import pytest

from ctqkd.analysis import SweepSpec, export_csv, run_sweep
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


# Sessions of 2, 3, 17 and 65 pulses at seed 7.  Each golden above has at
# least 1000 pulses, so its interferometers read a table of pair states;
# below 17 pulses on one level of output 1, or 65 on two (as mode
# discrimination leaves it), they evaluate the click law once per pulse
# pair instead, and at 17 and 65 they take the smallest table.
GOLDEN_SHORT = {
    ("none", 2): ("d8ac0031ab5364abb9923710423235b8c61765964c84ac0b7d0cbe7ef2dd094f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("none", 3): ("e8a8e9da6ec9882411fc9233e9bfa9ba1d7ad62b21fa94b199beae3a5746c398", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("none", 17): ("ab138d0d556baca9d7eec108acde4e86d4eee566a36fe25fc5e97e89171aeeb4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("none", 65): ("55c051417fe4c321c97b8f636929e60f430d9f3599b7da2c9e6aa49a1d53edf0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("intercept-resend", 2): ("6b9a4bcc4b68b423aa375bfe22fb7ec9ac6a09f3e548b401a1ac5107804ee70d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("intercept-resend", 3): ("4eeabb3e9153b92f18a9f0c45c0c3a66c15f8edb61a961c41396f88db7ac3c8a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("intercept-resend", 17): ("c4619d54b97733917ef416b6e26e338ee36585d757ebc93adceaf1d100a9fb9c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("intercept-resend", 65): ("e780e6b736476ba32deb26d789b8f170583b86ff1573a95122a3296b61f35709", "1f236747fbd2a228d4db7e6e50f2e3d415fb21c505e3b1a8b41780b1b5bc9314"),
    ("mode-discrimination", 2): ("3ba53576b0f3da420b5a951c7ee601a87010690e11942d9d9ea120c0f4bfe6b0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mode-discrimination", 3): ("1e423a053baff86fa8f3fd6837724e0e9a401d123b6cee5ed4feb15448c201bd", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mode-discrimination", 17): ("0b88a2d0fae042fb9f02ad49f47d42c68f1420fd194201d42f8243c165267c32", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mode-discrimination", 65): ("8608727e655efaf77974cdb90526457f863932e39c0831c1f55d37abe8db4b27", "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae"),
    ("bright-light", 2): ("33a2c3c35e720034d78056cd552f08fc29e4589c0b40b3b6bdc8a22ed5e8a78d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bright-light", 3): ("2ee5af59ac0d706b9a13825658a4283f58f813d24b23d6b33321f6d5e83ba958", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bright-light", 17): ("6003478ef6f800f863ca590b3dc4e598c760b214386997c950e8bb2011fe6226", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bright-light", 65): ("0b9932e86155a646e5d8b06deab20352bc8bad0e38a701ebcbd3adbbf3f36abf", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


# The SHA-256 of analysis.export_csv over run_sweep of mu_thermal in (0.1,
# 0.3), three seeds per point from seed 7, at 1e4 pulses: the path of the
# benchmark's sweep-1e4 workload, honest and under intercept-resend.
GOLDEN_SWEEPS = {
    "none": "2a93e5a237f6f8c1698838ae33c53181756728cfb6f7c231f842005be008eea4",
    "intercept-resend": "5a81e0ad4b645b4c2d37f41ad37b8378620c5a275bca54f91e75f8c0037db0f1",
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


@pytest.mark.parametrize("kind,n_pulses", sorted(GOLDEN_SHORT))
def test_short_session_matches_golden(kind, n_pulses):
    cls = ATTACK_KINDS[kind]
    res = run_session(SessionConfig(n_pulses=n_pulses, seed=7), cls() if cls else None)
    _assert_golden(res, *GOLDEN_SHORT[kind, n_pulses])


@pytest.mark.parametrize("kind", sorted(GOLDEN_SWEEPS))
def test_sweep_matches_golden(kind):
    cls = ATTACK_KINDS[kind]
    spec = SweepSpec("mu_thermal", (0.1, 0.3), SessionConfig(n_pulses=10_000, seed=7),
                     cls() if cls else None, seeds_per_point=3)
    csv = export_csv([point.to_dict() for point in run_sweep(spec)])
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SWEEPS[kind]
