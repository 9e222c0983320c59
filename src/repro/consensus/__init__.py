"""Proof-of-Work consensus substrate.

Models the PoW mining process of the paper's go-Ethereum testbed: block
discovery times are exponential with rate proportional to hash power and
inversely proportional to difficulty, calibrated to the paper's two
operating points (one block per minute at difficulty 0x40000; 76 confirmed
transactions per second per miner at difficulty 0xd79).
"""

from repro.consensus.pow import PoWParameters, MiningProcess
from repro.consensus.miner import MinerIdentity, MinerBehavior, HonestBehavior
from repro.consensus.rewards import RewardLedger

__all__ = [
    "PoWParameters",
    "MiningProcess",
    "MinerIdentity",
    "MinerBehavior",
    "HonestBehavior",
    "RewardLedger",
]
