"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ChainError(ReproError):
    """Base class for blockchain substrate errors."""


class ValidationError(ChainError):
    """A transaction or block failed validation."""


class InsufficientBalanceError(ValidationError):
    """A sender tried to spend more than her confirmed balance."""


class NonceError(ValidationError):
    """A transaction's nonce does not match the sender's account nonce."""


class UnknownAccountError(ChainError):
    """An operation referenced an account that does not exist."""

    def __init__(self, address: str) -> None:
        super().__init__(f"unknown account: {address}")
        self.address = address


class UnknownContractError(ChainError):
    """An operation referenced a smart contract that does not exist."""

    def __init__(self, address: str) -> None:
        super().__init__(f"unknown contract: {address}")
        self.address = address


class LedgerError(ChainError):
    """A block could not be appended to the ledger."""


class ShardingError(ReproError):
    """Base class for sharding-core errors."""


class ShardAssignmentError(ShardingError):
    """A miner or transaction could not be assigned to a shard."""


class MergingError(ShardingError):
    """The inter-shard merging algorithm was given invalid input."""


class SelectionError(ShardingError):
    """The intra-shard selection algorithm was given invalid input."""


class UnificationError(ShardingError):
    """A parameter-unification packet is malformed or inconsistent."""


class CryptoError(ReproError):
    """Base class for crypto substrate errors."""


class VRFVerificationError(CryptoError):
    """A VRF proof failed verification."""


class BeaconError(CryptoError):
    """The distributed randomness beacon was misused."""


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class NetworkError(SimulationError):
    """A network-level operation failed (unknown node, bad message...)."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent."""


class FaultConfigError(ConfigError, SimulationError):
    """A fault plan's fields are out of range.

    Raised at construction time, naming the offending field — a bad
    probability or a negative delay must fail loudly up front, never
    deep inside a seeded run. Inherits both :class:`ConfigError` (it is
    a configuration problem) and :class:`SimulationError` (it belongs
    to the simulation layer), so either handler catches it.
    """


class ScenarioError(SimulationError):
    """An adversarial scenario was misconfigured or failed to build."""


class WorkloadError(ReproError):
    """A workload generator was given invalid parameters."""


class ExperimentError(ReproError):
    """An experiment runner was misconfigured."""
