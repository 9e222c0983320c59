"""Cryptographic substrate.

The paper relies on real ECDSA identities, a VRF (Micali et al.) for leader
election and the RandHound protocol for bias-resistant distributed
randomness. This package provides deterministic hash-based stand-ins with
the same *interfaces* — generate / prove / verify — so that every protocol
step that depends on verifiable randomness is exercised end-to-end while
remaining reproducible under a seed (see DESIGN.md, substitution table).
"""

from repro.crypto.hashing import sha256_hex, hash_items, uniform_from_hash
from repro.crypto.keys import KeyPair
from repro.crypto.vrf import VRFOutput, vrf_prove, vrf_verify, vrf_uniform, elect_leader
from repro.crypto.randhound import RandHoundBeacon, BeaconRound, group_draw
from repro.crypto.merkle import MerkleTree, MerkleProof

__all__ = [
    "sha256_hex",
    "hash_items",
    "uniform_from_hash",
    "KeyPair",
    "VRFOutput",
    "vrf_prove",
    "vrf_verify",
    "vrf_uniform",
    "elect_leader",
    "RandHoundBeacon",
    "BeaconRound",
    "group_draw",
    "MerkleTree",
    "MerkleProof",
]
