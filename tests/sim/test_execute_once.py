"""Execute once per shard, pinned by work counts.

A block's forger packs it by speculating its body exactly as the block
runs and records the image; every replica of the shard, the forger
included, then lands the block by writing that image. On the ``toy``
inputs of the two fault-free, honest benchmark workloads no body is
executed by a replica: ``apply_block_body`` is never called, every
block that joins a node's canonical chain lands through
``write_image``, and ``apply_transaction`` runs only inside the forges,
once per packed transaction.
"""

import collections

import pytest

from repro.chain.state import WorldState
from repro.net.node import FullNode
from repro.sim.protocol import ProtocolSimulation
from tests.sim.test_shard_stats import SEED, WORKLOADS


def _counted_run(inputs):
    """Run ``inputs`` with the state calls counted inside ``sim.run()``."""
    counts = collections.Counter()
    apply_tx = WorldState.apply_transaction
    apply_body = WorldState.apply_block_body
    write_image = WorldState.write_image
    execute = FullNode._execute
    forge = FullNode.forge_block

    def counted_apply_tx(state, *args, **kwargs):
        counts["apply_transaction"] += 1
        return apply_tx(state, *args, **kwargs)

    def counted_apply_body(state, *args, **kwargs):
        counts["apply_block_body"] += 1
        return apply_body(state, *args, **kwargs)

    def counted_write_image(state, image):
        landed = write_image(state, image)
        counts["image written" if landed else "image refused"] += 1
        return landed

    def counted_execute(node, block):
        counts["block executed"] += 1
        return execute(node, block)

    def counted_forge(node, *args, **kwargs):
        block = forge(node, *args, **kwargs)
        counts["tx packed"] += len(block.transactions)
        return block

    sim = ProtocolSimulation(
        inputs.miners,
        inputs.transactions,
        config=inputs.config,
        assignment=inputs.assignment,
    )
    WorldState.apply_transaction = counted_apply_tx
    WorldState.apply_block_body = counted_apply_body
    WorldState.write_image = counted_write_image
    FullNode._execute = counted_execute
    FullNode.forge_block = counted_forge
    try:
        result = sim.run()
    finally:
        WorldState.apply_transaction = apply_tx
        WorldState.apply_block_body = apply_body
        WorldState.write_image = write_image
        FullNode._execute = execute
        FullNode.forge_block = forge
    return result, counts


@pytest.mark.parametrize("name", ["campaign", "stream-evict"])
def test_no_replica_executes_a_body(name):
    inputs = WORKLOADS[name].build(SEED, True)
    assert inputs.config.fault_plan is None
    result, counts = _counted_run(inputs)
    assert result.confirmed_count() > 0
    assert counts["apply_block_body"] == 0
    assert counts["block executed"] > 0
    assert counts["image written"] == counts["block executed"]
    assert counts["image refused"] == 0
    assert counts["apply_transaction"] == counts["tx packed"] > 0
