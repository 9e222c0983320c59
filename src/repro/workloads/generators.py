"""Transaction workload generators.

Every Sec. VI workload follows one recipe: contracts registered in
advance, a fixed transaction count per shard, seeded fees. So every
generator is one call of the private emitter :func:`_emit`, which
returns a :class:`TxStream` — the workload's declared shape (total,
contracts, per-shard counts) plus a factory that *yields* its
transactions. Million-transaction campaigns inject streams in paced
batches; a list generator is ``list()`` of its stream, so the list and
the stream of one seed are one sequence by construction. All
generators route through :class:`WorkloadBuilder`, whose sender nonces
make every workload validate against a fresh world state.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.chain.transaction import Transaction, TransactionKind
from repro.errors import WorkloadError
from repro.workloads.distributions import FEE_HIGH, FEE_LOW, uniform_fee_stream

#: Hard ceiling on turning a stream back into a list (t=0 injection,
#: tests, debugging). Above this, callers must inject in paced batches.
MAX_MATERIALIZED_TXS = 50_000


def _contract_address(index: int) -> str:
    return f"0xc{index:039d}"


def _user_address(name: str) -> str:
    return f"0xu{name}"


@dataclass
class WorkloadBuilder:
    """Stateful builder tracking sender nonces."""

    _nonces: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def contract_call(
        self,
        sender: str,
        contract: str,
        fee: int,
        amount: int = 1,
    ) -> Transaction:
        """A contract-invoking transaction with the sender's next nonce."""
        nonce = self._nonces[sender]
        self._nonces[sender] += 1
        return Transaction(
            sender=sender,
            recipient=contract,
            amount=amount,
            fee=fee,
            kind=TransactionKind.CONTRACT_CALL,
            contract=contract,
            nonce=nonce,
        )

    def direct_transfer(
        self,
        sender: str,
        recipient: str,
        fee: int,
        amount: int = 1,
        extra_inputs: tuple[str, ...] = (),
    ) -> Transaction:
        """A user-to-user transfer (lands in the MaxShard)."""
        nonce = self._nonces[sender]
        self._nonces[sender] += 1
        return Transaction(
            sender=sender,
            recipient=recipient,
            amount=amount,
            fee=fee,
            kind=TransactionKind.DIRECT_TRANSFER,
            nonce=nonce,
            extra_inputs=extra_inputs,
        )


@dataclass(frozen=True)
class TxStream:
    """A replayable, lazily generated transaction workload.

    ``contracts`` and ``shard_counts`` declare up front what a list
    only reveals after classification: which contract addresses exist
    (so shard formation needs no transaction scan) and how many
    transactions each shard will eventually receive. Each
    :meth:`__iter__` call restarts the seeded factory, so the stream
    can be traversed more than once — note that transaction *ids* embed
    a process-global serial and therefore differ between traversals,
    while every digest-bearing field (sender, recipient, fee, nonce,
    kind, contract) is identical.
    """

    total: int
    contracts: tuple[str, ...]
    #: shard id -> intended transaction count; shard 0 is the MaxShard.
    shard_counts: dict[int, int]
    factory: Callable[[], Iterator[Transaction]]
    description: str = "stream"

    def __iter__(self) -> Iterator[Transaction]:
        return self.factory()

    def materialize(self) -> list[Transaction]:
        """The full transaction list — at most
        :data:`MAX_MATERIALIZED_TXS` of them, or a loud refusal instead
        of silently exhausting memory."""
        if self.total > MAX_MATERIALIZED_TXS:
            raise WorkloadError(
                f"refusing to materialize {self.description!r}: "
                f"{self.total} transactions exceed the "
                f"{MAX_MATERIALIZED_TXS}-tx cap — use paced streaming "
                f"injection (inject_batch=) instead"
            )
        txs = list(self.factory())
        if len(txs) != self.total:
            raise WorkloadError(
                f"stream {self.description!r} declared {self.total} "
                f"transactions but yielded {len(txs)}"
            )
        return txs


def _emit(
    counts: list[int],
    order: Callable[[list[int]], Iterator[int]],
    makes: list[Callable[[WorkloadBuilder, int, int], Transaction] | None],
    seed: int | None,
    description: str,
    senders: int | None = None,
    fees: list[int] | None = None,
) -> TxStream:
    """The one workload emitter.

    Slice ``s`` gets ``counts[s]`` transactions: slice 0 is the
    MaxShard, slice ``k`` calls contract ``k``. ``order(counts)`` yields
    the slice that emits next, and ``makes[s](builder, j, fee)`` builds
    that slice's next transaction from its sender ``j`` (``None`` for
    an empty slice). The ``i``-th transaction of a slice comes from
    sender ``i`` and pays the next seeded uniform draw, in emission
    order, or ``fees[i]`` in a one-slice workload. A population of
    ``senders`` per slice instead reuses sender ``i % senders`` and pays
    ``FEE_HIGH - i // senders``: a fee ladder that falls along each
    sender's nonce chain. Nonce order must agree with fee order, because
    fee-greedy packing validates against sender nonces, and a high-fee
    later nonce ranked above an unpacked low-fee earlier one can never
    confirm — a pool of such pairs never drains. So a chain deeper than
    the fee range refuses.
    """
    if senders is not None:
        if senders < 1:
            raise WorkloadError("senders_per_shard must be positive")
        span = FEE_HIGH - FEE_LOW + 1
        depth = -(-max(counts) // senders)  # ceil division
        if depth > span:
            raise WorkloadError(
                f"senders_per_shard={senders} gives a sender up to {depth} "
                f"nonces but the fee ladder only spans {span} rungs "
                f"({FEE_LOW}..{FEE_HIGH}) — fee-greedy selection would "
                f"strand equal-fee nonce chains; use at least "
                f"{-(-max(counts) // span)} senders per shard"
            )

    def factory() -> Iterator[Transaction]:
        builder = WorkloadBuilder()
        draw = uniform_fee_stream(seed).__next__
        emitted = [0] * len(counts)
        for s in order(counts):
            i = emitted[s]
            emitted[s] = i + 1
            if senders is not None:
                yield makes[s](builder, i % senders, FEE_HIGH - i // senders)
            else:
                yield makes[s](builder, i, draw() if fees is None else fees[i])

    return TxStream(
        total=sum(counts),
        contracts=tuple(_contract_address(k) for k in range(1, len(counts))),
        shard_counts=dict(enumerate(counts)),
        factory=factory,
        description=description,
    )


def _slice_by_slice(counts: list[int]) -> Iterator[int]:
    return itertools.chain.from_iterable(
        itertools.repeat(s, count) for s, count in enumerate(counts)
    )


def _round_robin(counts: list[int]) -> Iterator[int]:
    """Slice ``g % slices`` at global position ``g``. That hands each
    slice exactly its count only for :func:`_per_shard_counts`' split,
    whose extras land on the low slices."""
    return itertools.islice(itertools.cycle(range(len(counts))), sum(counts))


def _error_diffusion(counts: list[int]) -> Iterator[int]:
    """After ``g`` emissions, slice ``s`` has emitted
    ``round(counts[s] * g / total) ± 1``: emit next from the slice
    furthest behind its proportional quota (ties to the lower slice)."""
    total = sum(counts)
    emitted = [0] * len(counts)
    for g in range(total):
        deficit, pick = None, 0
        for s, count in enumerate(counts):
            lag = count * (g + 1) - emitted[s] * total
            if emitted[s] < count and (deficit is None or lag > deficit):
                deficit, pick = lag, s
        yield pick
        emitted[pick] += 1


def _transfers(name: str, seed: int | None) -> Callable[..., Transaction]:
    """Direct transfers from ``name-seed-j`` to ``namedst-seed-j``."""
    sender = _user_address(f"{name}-{seed}-")
    recipient = _user_address(f"{name}dst-{seed}-")
    return lambda builder, j, fee, extra=(): builder.direct_transfer(
        f"{sender}{j}", f"{recipient}{j}", fee=fee, extra_inputs=extra
    )


def _calls(shard: int, name: str, seed: int | None) -> Callable[..., Transaction]:
    """Calls to contract ``shard`` from ``name-seed-j``, who call no
    other contract."""
    sender, contract = _user_address(f"{name}-{seed}-"), _contract_address(shard)
    return lambda builder, j, fee: builder.contract_call(
        f"{sender}{j}", contract, fee=fee
    )


def _per_shard_counts(total: int, shards: int) -> list[int]:
    """Split ``total`` as evenly as possible, extras to the low shards."""
    base, extra = divmod(total, shards)
    return [base + (shard < extra) for shard in range(shards)]


def _powerlaw_counts(
    total: int, contract_shards: int, alpha: float
) -> list[int]:
    """Largest-remainder apportionment of ``total`` over Zipf weights.

    Contract shard ``k`` (slot ``k``, 1-based rank) gets weight
    ``1 / k**alpha``; the MaxShard slot (direct transfers) takes the
    coldest rank, ``contract_shards + 1`` — skewed workloads exist to
    stress *contract* placement, so plain transfers stay a minority.
    Floors first, then the largest fractional remainders win the
    leftover transactions (ties to the lower slot) — deterministic, and
    the counts always sum to ``total`` exactly.
    """
    ranks = [contract_shards + 1] + list(range(1, contract_shards + 1))
    weights = [1.0 / rank**alpha for rank in ranks]
    scale = total / sum(weights)
    quotas = [weight * scale for weight in weights]
    counts = [int(quota) for quota in quotas]
    remainders = sorted(
        range(len(quotas)),
        key=lambda s: (-(quotas[s] - counts[s]), s),
    )
    for s in remainders[: total - sum(counts)]:
        counts[s] += 1
    return counts


def uniform_contract_workload(
    total_txs: int,
    contract_shards: int,
    seed: int | None = None,
) -> list[Transaction]:
    """The Sec. VI-B1 workload: transactions uniform over shards.

    ``contract_shards`` is the paper's ``s``: there are ``s`` contracts
    plus the MaxShard, and "the number of transactions in each shard is
    total/(s+1)". Contract shards are fed by single-contract senders;
    the MaxShard slice is direct transfers. ``contract_shards=0`` yields
    a pure non-sharded (all-MaxShard) workload.
    """
    return list(
        streaming_uniform_contract_workload(total_txs, contract_shards, seed=seed)
    )


def streaming_uniform_contract_workload(
    total_txs: int,
    contract_shards: int,
    seed: int | None = None,
    senders_per_shard: int | None = None,
    interleave_shards: bool = False,
) -> TxStream:
    """:func:`uniform_contract_workload` as a bounded-memory stream.

    By default the stream emits the list generator's sequence: the
    MaxShard slice first, then one slice per contract shard.

    ``interleave_shards`` rotates the yield order round-robin across
    the shard slices (MaxShard, shard 1, shard 2, …, repeating) instead
    of emitting each slice whole. Bulk ``t = 0`` injection is order-
    insensitive, but *paced* injection replays stream order in real
    time: slice-sequential order firehoses one shard at a time with the
    full offered rate while every other shard idles — the hot shard's
    mempool saturates, sheds mid-chain nonces, and the stranded tails
    never drain. Interleaving spreads each batch evenly so per-shard
    offered load matches the per-shard share. Within a slice the order
    (and each sender's nonce sequence) is unchanged. Off by default:
    the historical slice-sequential order is digest-pinned at baseline
    scales.

    ``senders_per_shard`` bounds each slice's account population, so
    every per-node structure keyed by account — world state, call
    graph, classification memo — stays O(population) while the
    transaction count grows without bound. Reuse keeps each sender
    single-contract, so shard classification is unchanged. Fees then
    follow :func:`_emit`'s nonce-ordered ladder instead of the seeded
    draw, and a population too small for the ladder refuses loudly.
    """
    if total_txs < 0 or contract_shards < 0:
        raise WorkloadError("total_txs and contract_shards cannot be negative")
    detail = "" if senders_per_shard is None else f", senders={senders_per_shard}"
    return _emit(
        _per_shard_counts(total_txs, contract_shards + 1),
        _round_robin if interleave_shards else _slice_by_slice,
        [_transfers("max", seed)]
        + [_calls(k, f"c{k}", seed) for k in range(1, contract_shards + 1)],
        seed,
        f"uniform_contract(total={total_txs}, shards={contract_shards}, "
        f"seed={seed}{detail}{', interleaved' if interleave_shards else ''})",
        senders=senders_per_shard,
    )


def streaming_powerlaw_contract_workload(
    total_txs: int,
    contract_shards: int,
    alpha: float = 1.0,
    seed: int | None = None,
    senders_per_shard: int | None = None,
) -> TxStream:
    """A Zipf-skewed contract workload as a bounded-memory stream.

    The hotspot generator behind the telemetry walkthrough: contract
    shard ``k`` receives a ``1 / k**alpha`` share of the calls (shard 1
    is the hot shard; ``alpha=0`` degenerates to uniform), with direct
    transfers the coldest slice. Emission order is a deterministic
    error-diffusion interleave — at every prefix each slice has
    received its proportional share, rounded — so *paced* streaming
    injection offers each shard its steady-state rate instead of
    firehosing slices one at a time (see
    :func:`streaming_uniform_contract_workload` on why order matters).

    ``senders_per_shard`` bounds each slice's account population with
    the same fee ladder (and the same refusal when the hot slice's
    nonce chains would outrun it) as the uniform stream.
    """
    if total_txs < 0:
        raise WorkloadError("total_txs cannot be negative")
    if contract_shards < 1:
        raise WorkloadError("powerlaw workload needs at least one contract shard")
    if alpha < 0:
        raise WorkloadError(f"alpha cannot be negative: {alpha}")
    detail = "" if senders_per_shard is None else f", senders={senders_per_shard}"
    return _emit(
        _powerlaw_counts(total_txs, contract_shards, alpha),
        _error_diffusion,
        [_transfers("pmax", seed)]
        + [_calls(k, f"p{k}", seed) for k in range(1, contract_shards + 1)],
        seed,
        f"powerlaw_contract(total={total_txs}, shards={contract_shards}, "
        f"alpha={alpha:g}, seed={seed}{detail})",
        senders=senders_per_shard,
    )


def _single_shard(
    count: int, seed: int | None, fees: list[int] | None = None
) -> TxStream:
    if count < 0:
        raise WorkloadError("count cannot be negative")
    return _emit(
        [0, count],
        _slice_by_slice,
        [None, _calls(1, "solo", seed)],
        seed,
        f"single_shard(count={count}, seed={seed})",
        fees=fees,
    )


def single_shard_workload(
    count: int,
    fees: list[int] | None = None,
    seed: int | None = None,
) -> list[Transaction]:
    """The Fig. 3(h)/Fig. 5(b) workload: one contract, many transactions.

    All senders invoke the same contract, so the whole workload lands in
    one shard and the intra-shard selection game is the only lever.
    Explicit ``fees`` replace the seeded draw, one per transaction.
    """
    if fees is not None and len(fees) != count:
        raise WorkloadError(f"{len(fees)} fees for {count} transactions")
    return list(_single_shard(count, seed, fees))


def small_shard_workload(
    total_txs: int,
    shard_count: int,
    small_shard_sizes: list[int],
    seed: int | None = None,
) -> tuple[list[Transaction], dict[int, int]]:
    """The Sec. VI-C workload: some deliberately tiny shards.

    ``small_shard_sizes`` fixes the transaction count of the first
    ``len(small_shard_sizes)`` contract shards (the paper injects 1-9
    each); the remaining transactions spread evenly over the other
    contract shards ("more than 22 transactions into a regular shard").
    Returns the transactions plus the intended size of every contract
    shard (keyed by shard index starting at 1; the MaxShard gets none
    here, matching the experiment's pure-contract traffic). Each
    intended shard needs a transaction to form at all; an empty one
    would shift the id of every later shard.
    """
    small_count = len(small_shard_sizes)
    if shard_count <= small_count:
        raise WorkloadError(
            f"need more shards ({shard_count}) than small shards ({small_count})"
        )
    if min(small_shard_sizes, default=1) < 1:
        raise WorkloadError(
            f"small_shard_sizes must be positive: {small_shard_sizes}"
        )
    regular = total_txs - sum(small_shard_sizes)
    if regular < shard_count - small_count:
        raise WorkloadError(
            f"total_txs={total_txs} leaves {regular} transactions for "
            f"{shard_count - small_count} regular shards; each needs one"
        )
    sizes = list(small_shard_sizes) + _per_shard_counts(
        regular, shard_count - small_count
    )
    stream = _emit(
        [0] + sizes,
        _slice_by_slice,
        [None] + [_calls(k, f"c{k}", seed) for k in range(1, shard_count + 1)],
        seed,
        "small_shard",
    )
    return list(stream), dict(enumerate(sizes, start=1))


def three_input_workload(
    count: int,
    inputs: int = 3,
    seed: int | None = None,
) -> list[Transaction]:
    """The Fig. 4(b) workload: transactions whose validation reads
    ``inputs`` accounts ("All the injected transactions have 3 inputs").

    In our design these are multi-account transfers routed to the
    MaxShard (zero cross-shard communication); ChainSpace scatters them
    randomly and pays S-BAC consensus per foreign input shard.
    """
    if count < 0:
        raise WorkloadError("count cannot be negative")
    if inputs < 1:
        raise WorkloadError("a transaction needs at least one input")
    transfer = _transfers("multi", seed)

    def make(builder: WorkloadBuilder, i: int, fee: int) -> Transaction:
        extra = (_user_address(f"input-{seed}-{i}-{k}") for k in range(inputs - 1))
        return transfer(builder, i, fee, tuple(extra))

    return list(_emit([count], _slice_by_slice, [make], seed, "three_input"))
