"""Block validation.

Implements the two verifications of Sec. III-C performed when a miner X
receives a block packed by miner Y:

1. X verifies that Y really corresponds to the ShardID in the block
   header (shard-membership check, delegated to a pluggable verifier);
2. X checks whether she is in the same shard as Y — only then does she
   record the block locally.

The stateful transaction checks (balances, nonces, contract conditions)
are :class:`~repro.chain.state.WorldState`'s, run when a block applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chain.block import Block

# A shard-membership verifier: (miner public key, claimed shard id) -> bool.
ShardMembershipVerifier = Callable[[str, int], bool]


@dataclass(frozen=True)
class BlockVerdict:
    """The outcome of the Sec. III-C block checks."""

    accepted: bool
    recorded: bool
    reason: str = ""


#: The two acceptances are shared: only a rejection carries its own reason.
_RECORDED = BlockVerdict(accepted=True, recorded=True)
_FOREIGN = BlockVerdict(
    accepted=True, recorded=False, reason="block from a different shard"
)


class BlockValidator:
    """The receive-side block checks a miner runs (Sec. III-C).

    Parameters
    ----------
    own_shard:
        The validating miner's own ShardID.
    membership_verifier:
        Publicly-checkable predicate that the packing miner belongs to the
        shard claimed in the header — in the full system this is the
        VRF/RandHound verification of :mod:`repro.core.miner_assignment`.
    """

    def __init__(
        self,
        own_shard: int,
        membership_verifier: ShardMembershipVerifier,
    ) -> None:
        self._own_shard = own_shard
        self._membership_verifier = membership_verifier

    def inspect(self, block: Block) -> BlockVerdict:
        """Run both Sec. III-C verifications on an incoming block.

        ``accepted`` means the block is well-formed and the packer's shard
        claim verified; ``recorded`` additionally means the block belongs
        to *this* miner's shard and should be added to the local ledger.
        """
        if not block.commits_to_body():
            return BlockVerdict(
                accepted=False, recorded=False, reason="tx root does not match body"
            )
        claimed_shard = block.header.shard_id
        if not self._membership_verifier(block.header.miner, claimed_shard):
            return BlockVerdict(
                accepted=False,
                recorded=False,
                reason=(
                    f"miner {block.header.miner[:10]} is not a member of "
                    f"claimed shard {claimed_shard}"
                ),
            )
        if claimed_shard != self._own_shard:
            return _FOREIGN
        return _RECORDED
