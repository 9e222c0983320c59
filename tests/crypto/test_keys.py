"""Tests for repro.crypto.keys."""

from repro.crypto.keys import KeyPair


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

