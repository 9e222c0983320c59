"""Synthetic workload generation.

The paper's testbed injects synthetic contract-invoking transactions
("we do not use real transactions in the Ethereum. Instead, we register
multiple smart contracts..."). These generators produce the same shapes:

* uniformly sharded contract traffic (Fig. 3a/3b, Fig. 4a);
* skewed traffic with deliberately small shards (Fig. 3c-3g, Fig. 4c);
* multi-input transactions for the cross-shard comparison (Fig. 4b);
* single-shard fee workloads for the selection game (Fig. 3h, Fig. 5b).

Each generator is one call of a single seeded emitter over per-shard
transaction slices, and a list generator is ``list()`` of the stream it
draws, so list and streaming workloads cannot drift apart. Fees come
from the seeded uniform draw over ``[FEE_LOW, FEE_HIGH] = [1, 100]``.
"""

from repro.workloads.distributions import (
    FEE_HIGH,
    FEE_LOW,
    binomial_fees,
    exponential_fees,
    uniform_fee_stream,
    uniform_fees,
    random_small_shard_sizes,
)
from repro.workloads.generators import (
    MAX_MATERIALIZED_TXS,
    TxStream,
    WorkloadBuilder,
    single_shard_workload,
    small_shard_workload,
    streaming_powerlaw_contract_workload,
    streaming_uniform_contract_workload,
    three_input_workload,
    uniform_contract_workload,
)

__all__ = [
    "FEE_LOW",
    "FEE_HIGH",
    "MAX_MATERIALIZED_TXS",
    "TxStream",
    "WorkloadBuilder",
    "uniform_contract_workload",
    "streaming_powerlaw_contract_workload",
    "streaming_uniform_contract_workload",
    "small_shard_workload",
    "three_input_workload",
    "single_shard_workload",
    "uniform_fees",
    "uniform_fee_stream",
    "binomial_fees",
    "exponential_fees",
    "random_small_shard_sizes",
]
