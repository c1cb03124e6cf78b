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
    ("none", 1000): ("04151654fab0fa5fe86f856292d6731f2093b7b1d982ea4d69c7bef2ba55db34", "ec616d3097641166bf471a5d3930851ecb6cdc2ecaab8c6172f0657896a44243"),
    ("intercept-resend", 1000): ("7d19a5a586c781bdf143c7e18fd936c34b011d96f40909b3ff44abc632b80291", "c5a051f1f5dfec8855eabc7d2ee1406813e24e669c59fd5b3a2d60a156072b4d"),
    ("beam-split", 1000): ("e5c393dd7e02c48735fb7ee535e41a71b435eb6f6be2c3ed8bd5402e4a6b8201", "27ecd0a598e76f8a2fd264d427df0a119903e8eae384e478902541756f089dd1"),
    ("mode-discrimination", 1000): ("3967f6d41b69322c90d5e5897dff39e3a9b85b13c657209de2720da6e7f809ac", "3b526c381436d5c5f202ffe673eedec4c37c381e8fe02c9bf9a691ef193050ed"),
    ("trojan", 1000): ("6617857eb68d3abaf74e9f71e3ebccddd62176294139ee0d622513510d9e2f99", "577fcad6fcd8592bf8b3b70c5ed4981eb1b2f7b7ac7ae355b930aa302ff85a55"),
    ("bright-light", 1000): ("82839b7ecc643b036d71c6ea54324593cc5d0f94905fc9d2dbfbe59bbb11e0ca", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("none", 100000): ("c903165f132c34ce84acfddfab5308df26e776bd6228109bfccc6a7db46ffae7", "b742627820bf0ffdee30975ed82d69b0295c6f334ab1875b02486dc0304e0556"),
    ("intercept-resend", 100000): ("28ec87a763626ccb4a914cfc653dfcb1f51b4a72fc773b2c3d0f9b71ce020458", "859693cb6b71f8c00bccb3616adfa9b2b82b47b998f4b72996a3a77b0edca49f"),
    ("beam-split", 100000): ("f5e71f42e02e0664603e78be8b2d16aee8f06ce2feb0947b60fdc46fe245218f", "fe8416541350cd290fb7277eb653233cf2f0f0294f7f0ff07f2086328c8dd4d6"),
    ("mode-discrimination", 100000): ("8a818e232339762e7946e27062d8642fb30720ed5e439d3534330ba0775a3496", "6bd4dc31ba1b589113540d03d054c13d9d7d9862df52449e33a84ad43992596a"),
    ("trojan", 100000): ("79cd3c5fb8c98b9bce966f0781c378e4bf0ca55006ff0d6fc51ffe689e3aeeea", "c6211a5384639a4b25321c7b06b63232f099b0f153cae3d4f94ad7ecd85e3c0f"),
    ("bright-light", 100000): ("d0d63b93d8ea51130c1f507ca098c7b84b71f67154209ad8db860915fe4f6c84", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


# Non-default probes, attack parameters and configs, at 1e5 pulses and seed 7:
# every probe kind on Bob's monitor and Eve's photon counter, Eve's own
# detector model, a small tap, and a session without Bob's tap.
GOLDEN_VARIANTS = {
    "trojan-fock-3": ({}, TrojanHorse(FockN(3)), "7b85aeacdfe2bfa8a3fc48fa706350aa10897418a7b725c43c859da29c478db5", "bfa3ce5c021395b73b424984cc33355cab6cbeb4a57ccf18e53fd49d0d0b4482"),
    "trojan-thermal-2": ({}, TrojanHorse(Thermal(2.0)), "d81a3d030ef5986bac24b17d4ec520529487a9af58933450d996334f18df63f7", "4eee16ff581cdafc3d9ca30af3fdd95b823978248a901f54dcb301429fc6c1cd"),
    "trojan-vacuum": ({}, TrojanHorse(Vacuum()), "5fd5ded95e155f4549e3e5470bd4469aa8462ee6ee09194997ff6b89aea17c1d", "4e2cac20a0250169328fc908df73e6cd85674d7929bcf9e25bb56ab9bf2b54ca"),
    "trojan-blinding-0.5": ({}, TrojanHorse(Blinding(0.5)), "f988e301840ca26f480cd0633ab79663fd8b725ebf43320bbded5418b1c493c7", "b742627820bf0ffdee30975ed82d69b0295c6f334ab1875b02486dc0304e0556"),
    "mode-discrimination-eve-det": ({}, ModeDiscrimination(0.7, DetectorModel(0.4, 1e-3)), "ad9c23b18dc3324708898995da39795620be259817e615dd61d4063a7f8ca087", "c16e409d13e51a75db49fb0b257c7f15c4647e38c8f364597b83be47b7aba300"),
    "beam-split-0.2": ({}, BeamSplit(0.2), "b7514fe073a1df40087edc5c0380d0783c90708e60f91e7a94d947e1c9f1afee", "d7d8f75a3d9014f6edce4fe26c2ecb9e2775684982aef5c350de61352a02d899"),
    "no-tap-mu-1.7": ({"tap_reflectance": 0.0, "mu_coherent": 1.7}, None, "8c4f1416a18bf6376e37e00f1a7c40f58670a34f67634b91c17bde760e824cfc", "9a61bbe35dbbcde8805932f07e7b52ddadc09c0a0d945edd22d6c41648b86569"),
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
