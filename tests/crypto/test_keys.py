"""Tests for repro.crypto.keys."""

from repro.crypto.keys import KeyPair, sign, verify_signature


class TestKeyPair:
    def test_derivation_is_deterministic(self):
        assert KeyPair.from_seed("s") == KeyPair.from_seed("s")

    def test_distinct_seeds_distinct_keys(self):
        a, b = KeyPair.from_seed("a"), KeyPair.from_seed("b")
        assert a.public != b.public
        assert a.secret != b.secret

    def test_public_is_not_secret(self):
        kp = KeyPair.from_seed("s")
        assert kp.public != kp.secret

    def test_secret_hidden_from_repr(self):
        kp = KeyPair.from_seed("s")
        assert kp.secret not in repr(kp)

    def test_address_shape(self):
        address = KeyPair.from_seed("s").address()
        assert address.startswith("0x")
        assert len(address) == 42


class TestSignatures:
    def test_sign_is_deterministic(self):
        kp = KeyPair.from_seed("s")
        assert sign(kp, "msg") == sign(kp, "msg")

    def test_different_messages_differ(self):
        kp = KeyPair.from_seed("s")
        assert sign(kp, "m1") != sign(kp, "m2")

    def test_different_keys_differ(self):
        assert sign(KeyPair.from_seed("a"), "m") != sign(KeyPair.from_seed("b"), "m")

    def test_structural_verification(self):
        kp = KeyPair.from_seed("s")
        assert verify_signature(kp.public, "m", sign(kp, "m"))

    def test_structural_verification_rejects_garbage(self):
        kp = KeyPair.from_seed("s")
        assert not verify_signature(kp.public, "m", "short")
