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
    ("none", 1000): ("2172658abab212fe9518e68d796c2f80045fdf6b33be5450b62c3b7a3ad96df3", "7005d74defff65204b453bf2abd561cdf21968203d5c92bb8ab3b5713074ea61"),
    ("intercept-resend", 1000): ("7d8b61c071a62e005b63bc33b8478f03c18e5c221ad3ab4d84e0f16479ca8cc4", "92590eaa9fef11cd47aaf1af758b2e49520cafb93e447cebb343e387a8bea162"),
    ("beam-split", 1000): ("45690449b32d81d3121ae8e61a34d781bdb53692a9d67bafde9a1b1cd7ad8e50", "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
    ("mode-discrimination", 1000): ("4afebcd6ed2667e327052490b573f6400d01b6f87343f87033d52395aff7c7d0", "63d8598b1ac840ae9538668ebf45138ba40d91a3acfacced163cbd01a50e6355"),
    ("trojan", 1000): ("65e2fa9d060c872daaa45e65750c2a0ce848090dc9ef21fedf94ff63cf7be03f", "58c89e15a2157dc71556769d73a0e4d263756b0da45c9ec45510b2b80278c9ce"),
    ("bright-light", 1000): ("cbd67a0fc4373c6bd34148c9613f02d5da972b817c4f01ed8b4806964db1e7aa", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("none", 100000): ("4c589ab3490864bb3b1be98b4b18ae4a6eb811d86e3256535e8715226803b8ae", "76c40666cf622cb7d811578bdcccbeabbc9fa06962ddc8de6d71575cd762d7ab"),
    ("intercept-resend", 100000): ("2f2bca0b3db1e5308296a4715a6c7af60bbeaa75261c0d6f8bb3d79661d744e8", "1e5b7430fb4748e0f42570f7b7a7d34219d5f1494fea951936d8fe0c87284103"),
    ("beam-split", 100000): ("907e94c65b9b70ebb9088028e671c92f23fbfef6ffcaa41b82a3d59f1016222e", "d1c878ca804d13a7deab10de31aa41ee48f1a78d082a839e549a6b02d9b298f8"),
    ("mode-discrimination", 100000): ("71611b3875987b34203988bc0f29be4292346e5cc87dc6a5390a2ed0c95dbe4e", "4d00782d6edeab89d367cd3f0f18513082ef5077eb3d6a401aa24b6673ad733b"),
    ("trojan", 100000): ("9fd59601b469b5ae7c30c3a06c10f88cece220074e7321d0fd9ad92109ce63b2", "dfe126c618d37d7aa96c95b9957865c579273455cc41b571c32a959d3267a0e6"),
    ("bright-light", 100000): ("2e4b9edf7f3ba9d95a78eff6d7e24dfeffb81dc3241184c3b2556b7925da4bdf", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


# Non-default probes, attack parameters and configs, at 1e5 pulses and seed 7:
# every probe kind on Bob's monitor and Eve's photon counter, Eve's own
# detector model, a small tap, and a session without Bob's tap.
GOLDEN_VARIANTS = {
    "trojan-fock-3": ({}, TrojanHorse(FockN(3)), "47f13d0b02ab805d3c1317b21ecdb143a0853c78b1584b3568784a27e537c847", "8d2c889425efb1c6eaaf2cccd8e0b267a181e6821d7c15b26b1f457010358e09"),
    "trojan-thermal-2": ({}, TrojanHorse(Thermal(2.0)), "db4039b136b69fa7cc60153b82754416308dfd776f133f2aa2db6926b2184f9c", "c32daec20eea61d10c938c2783619279d2aa73b144d31c87db06fef526cc595a"),
    "trojan-vacuum": ({}, TrojanHorse(Vacuum()), "8c53557e56c7f0e59400c5d9d88857864ab82e451e286ff921d0c01eafa9118a", "ad84e4e332a2b48772c7c8d3d6e1f553130dfcfd825c48836014ff265b396497"),
    "trojan-blinding-0.5": ({}, TrojanHorse(Blinding(0.5)), "092bf1a4ca43698b07c189b7f06e95a0d216c5e1f850299f3fc2faffcb928119", "dfe126c618d37d7aa96c95b9957865c579273455cc41b571c32a959d3267a0e6"),
    "mode-discrimination-eve-det": ({}, ModeDiscrimination(0.7, DetectorModel(0.4, 1e-3)), "486fc0fb73b009572d1a7e44ab48510386feaed3411dabad90ff70fe5be8e0d8", "77e92fb8a6007e74cd95df6818a2921de73ca508528abfa9f7862b10e0acaa7d"),
    "beam-split-0.2": ({}, BeamSplit(0.2), "4fdf204f8c6b474fff6aa2696e17b065a018c09fc2bad18bdf01a47f20218e11", "05a119d1929d020cab1c12dfd0c64beff880a52bcab84eabf9cf53f52cec4717"),
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
