"""Recorded fingerprints of every public generator's output.

Each case hashes the digest-bearing fields of every transaction a
generator emits, in emission order, for two seeds. The recorded values
pin the exact sequences behind the ``seed_digests.json`` baselines and
the ``repro all`` figures, so a rewrite of the generators must keep all
of them bit-identical.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.workloads import (
    TxStream,
    single_shard_workload,
    small_shard_workload,
    streaming_powerlaw_contract_workload,
    streaming_uniform_contract_workload,
    three_input_workload,
    uniform_contract_workload,
    uniform_fee_stream,
    uniform_fees,
)

SEEDS = (3, 11)


def _fingerprint(txs, *declared) -> str:
    """sha256 over each transaction's fields, then anything declared."""
    digest = hashlib.sha256()
    for tx in txs:
        fields = (
            tx.sender,
            tx.recipient,
            tx.amount,
            tx.fee,
            tx.kind.value,
            tx.contract,
            tx.nonce,
            tx.extra_inputs,
        )
        digest.update(repr(fields).encode())
    digest.update(repr(declared).encode())
    return digest.hexdigest()


CASES = {
    "uniform": lambda seed: uniform_contract_workload(90, 4, seed=seed),
    "uniform-maxshard-only": lambda seed: uniform_contract_workload(
        25, 0, seed=seed
    ),
    "stream-uniform": lambda seed: streaming_uniform_contract_workload(
        91, 4, seed=seed
    ),
    "stream-uniform-senders": lambda seed: streaming_uniform_contract_workload(
        200, 3, seed=seed, senders_per_shard=7
    ),
    "stream-uniform-interleaved": lambda seed: (
        streaming_uniform_contract_workload(
            93, 4, seed=seed, interleave_shards=True
        )
    ),
    "stream-uniform-senders-interleaved": lambda seed: (
        streaming_uniform_contract_workload(
            150, 2, seed=seed, senders_per_shard=4, interleave_shards=True
        )
    ),
    "stream-powerlaw": lambda seed: streaming_powerlaw_contract_workload(
        120, 5, seed=seed
    ),
    "stream-powerlaw-flat-senders": lambda seed: (
        streaming_powerlaw_contract_workload(
            120, 3, alpha=0.0, seed=seed, senders_per_shard=6
        )
    ),
    "stream-powerlaw-steep": lambda seed: streaming_powerlaw_contract_workload(
        77, 4, alpha=1.7, seed=seed
    ),
    "small-shards": lambda seed: small_shard_workload(
        200, 9, [1, 4, 9], seed=seed
    ),
    "three-input": lambda seed: three_input_workload(30, seed=seed),
    "three-input-one": lambda seed: three_input_workload(
        12, inputs=1, seed=seed
    ),
    "single": lambda seed: single_shard_workload(40, seed=seed),
    "single-explicit-fees": lambda seed: single_shard_workload(
        5, fees=[seed, 9, 1, 100, 0], seed=seed
    ),
}


def _case_output(name: str, seed: int) -> str:
    made = CASES[name](seed)
    if isinstance(made, tuple):  # small_shard_workload: (txs, intended)
        txs, intended = made
        return _fingerprint(txs, sorted(intended.items()))
    if isinstance(made, TxStream):
        return _fingerprint(
            made,
            made.total,
            made.contracts,
            sorted(made.shard_counts.items()),
            made.description,
        )
    return _fingerprint(made)


PINS = {
    ("single", 3):
        "7f05d9d05d584ea07735ecc7f4c2630104af2e735ccd503847485756d6b20adb",
    ("single", 11):
        "03f5b5719c3e939d6b9d08a3401e0981adb2d63c43a494d19b96f12221186199",
    ("single-explicit-fees", 3):
        "a5730358d988037347b9b71ff4f91953f058756d7f49598dbf5ce8f09f820a39",
    ("single-explicit-fees", 11):
        "27f598bae7e42eebbfc7883c596e52962cb7d3eab071c0c1a2e63a14f7acd964",
    ("small-shards", 3):
        "f0f2f71b2c474899d8bb81823e3642249eb41becc68fb9982b54dc8d11c0c91b",
    ("small-shards", 11):
        "7cdeb110e4ac2d400bfd2d9c49c07e29eb5393fbedccb78324805d1a77047a51",
    ("stream-powerlaw", 3):
        "2ebae6553962b0b98a923b931650c06d150d151b9a2bed934f3d991085f0a104",
    ("stream-powerlaw", 11):
        "1754c82d230cb634da8126eed68e4ed79a7da818e167a9843f4bd22f00eaa05c",
    ("stream-powerlaw-flat-senders", 3):
        "abdb394c54480a3f65c22e2ce1e5e3a7ee37141be1bc67efa1c6662a8fe3da28",
    ("stream-powerlaw-flat-senders", 11):
        "7fc2f99ed451167ffd1b9efcf18bacd55a177c0e6437a0dda37651626bbc3e22",
    ("stream-powerlaw-steep", 3):
        "678ee8f145d8591e725e9d3f00e35a1da3204f4d663fef020f8a1d0e13c55522",
    ("stream-powerlaw-steep", 11):
        "1a5e16990596bd8546308a2130e737a672168e16064edabd263a97f2056ed6bc",
    ("stream-uniform", 3):
        "99b0a1bd1ce0dd034b11e416a834a1752fd9a0c2e9a065eb2049ff1cc395c2c4",
    ("stream-uniform", 11):
        "3afa089b6915eba71cb2892d42a4da0f20f6dd0106ec9e4e22968bd4573ecf4d",
    ("stream-uniform-interleaved", 3):
        "8d17b4f6ef7f6daf0f28507980ca15cead5f8d2c4e4967dd40a80a499e4780d3",
    ("stream-uniform-interleaved", 11):
        "0e390f441a87ae9f807b9eeda5c836ae43d20bb63dc320b2101f867b2b26419c",
    ("stream-uniform-senders", 3):
        "9e5b76351002c9c03f1b28fedda2d56ef1f0fd7e269f94fcb338b3758e67c342",
    ("stream-uniform-senders", 11):
        "5e19a87e3ee68f2851b90d6153d96245ca1817e4e4d5146912a87cae0ae33641",
    ("stream-uniform-senders-interleaved", 3):
        "78452560b36653cb689a0d7c2c986cb1defdb39ad17e30bef4ae1a9e856daade",
    ("stream-uniform-senders-interleaved", 11):
        "21ce87a2012ceffc9fc5153f0ab51e5395bf48d0b19afb9cd1a8874821477ffe",
    ("three-input", 3):
        "46f7cb986c64d5ee19133198c0e0276d8728f4b36a0c92602d28d01a812152d2",
    ("three-input", 11):
        "55ccadcbfd90b9ed7533e13206ee2e2065ad0e1f9641fd5863a6bea44635f23e",
    ("three-input-one", 3):
        "cef2b581e058c17a065d63fe3ab4df5d9f6e70861a63124e7eb37d5542246775",
    ("three-input-one", 11):
        "76e70c2cfb40934b32c45b8f0371fd6658f59ef207da48a5749eb3b7ec375221",
    ("uniform", 3):
        "7b1bfc8b43e0c2fad0ec416435ec52602de13da58b7c9021166b7c22619d5e84",
    ("uniform", 11):
        "fa3b926e35048ba73a18882878270ae1e0713251359a266b6786688e7ebdbc4f",
    ("uniform-maxshard-only", 3):
        "0b27ca48e6ab43461e28041352a5f1b74a60030947000db7bcfb9295cfbefa3c",
    ("uniform-maxshard-only", 11):
        "ccba1a686ca5358dc3353646a4a9a5349e845671874b6d1728d300100aae2461",
}

FEE_PINS = {
    3: "0d1bb2a9938490829436e8a33746a0ec5c6173de70312cca1e300af13ecd341d",
    11: "e22c222d04c7ee91c23b6ed09eb0baad0ef679cb3815fb85c2ab0cb042799029",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_output_is_pinned(name, seed):
    assert _case_output(name, seed) == PINS[name, seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_fee_helpers_are_pinned(seed):
    drawn = uniform_fees(64, seed=seed)
    assert drawn == list(itertools.islice(uniform_fee_stream(seed=seed), 64))
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == FEE_PINS[seed]
