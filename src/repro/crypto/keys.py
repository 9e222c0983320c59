"""Deterministic hash-based key pairs.

The paper binds shard membership and blocks to miner identities via public
keys. Real asymmetric crypto is unnecessary for a simulator: what matters
here is that a public key uniquely identifies a party and is a one-way
image of its secret. Nothing in a run signs or verifies a message, so the
module offers no signature scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import sha256_hex


@dataclass(frozen=True)
class KeyPair:
    """A (secret, public) key pair derived from a seed string."""

    secret: str = field(repr=False)
    public: str

    @classmethod
    def from_seed(cls, seed: str) -> "KeyPair":
        """Derive a key pair deterministically from ``seed``.

        The public key is a hash of the secret, mirroring how real key
        derivation exposes only a one-way image of the secret.
        """
        secret = sha256_hex(f"secret-key\x1f{seed}")
        public = sha256_hex(f"public-key\x1f{secret}")
        return cls(secret=secret, public=public)

    def address(self) -> str:
        """Return a short account address derived from the public key."""
        return "0x" + self.public[:40]
