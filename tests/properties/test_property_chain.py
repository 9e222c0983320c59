"""Property-based tests on the chain substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, TransactionKind
from repro.errors import ValidationError


amounts = st.integers(min_value=0, max_value=50)
fees = st.integers(min_value=0, max_value=20)


@st.composite
def transfer_batches(draw):
    """A batch of transfers between a fixed user population."""
    users = [f"0xu{i}" for i in range(4)]
    count = draw(st.integers(min_value=1, max_value=12))
    nonces = {u: 0 for u in users}
    txs = []
    for __ in range(count):
        sender = draw(st.sampled_from(users))
        recipient = draw(st.sampled_from([u for u in users if u != sender]))
        tx = Transaction(
            sender=sender,
            recipient=recipient,
            amount=draw(amounts),
            fee=draw(fees),
            kind=TransactionKind.DIRECT_TRANSFER,
            nonce=nonces[sender],
        )
        nonces[sender] += 1
        txs.append(tx)
    return txs


class TestStateProperties:
    @given(transfer_batches())
    @settings(max_examples=50, deadline=None)
    def test_supply_conserved_with_miner(self, txs):
        state = WorldState()
        for user in {tx.sender for tx in txs} | {tx.recipient for tx in txs}:
            state.create_account(user, balance=1_000)
        supply_before = state.total_supply()
        for tx in txs:
            try:
                state.apply_transaction(tx, miner="pk-m")
            except ValidationError:
                pass
        assert state.total_supply() == supply_before

    @given(transfer_batches())
    @settings(max_examples=50, deadline=None)
    def test_balances_never_negative(self, txs):
        state = WorldState()
        for user in {tx.sender for tx in txs} | {tx.recipient for tx in txs}:
            state.create_account(user, balance=30)
        for tx in txs:
            try:
                state.apply_transaction(tx, miner="pk-m")
            except ValidationError:
                pass
        assert all(balance >= 0 for balance, __ in state.accounts.values())

    @given(transfer_batches())
    @settings(max_examples=50, deadline=None)
    def test_nonces_match_confirmed_tx_count(self, txs):
        state = WorldState()
        for user in {tx.sender for tx in txs} | {tx.recipient for tx in txs}:
            state.create_account(user, balance=10_000)
        applied: dict[str, int] = {}
        for tx in txs:
            try:
                state.apply_transaction(tx)
            except ValidationError:
                continue
            applied[tx.sender] = applied.get(tx.sender, 0) + 1
        for sender, count in applied.items():
            assert state.account(sender).nonce == count


class TestLedgerProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=25),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_fork_insertion_keeps_invariants(self, parent_picks):
        """Insert blocks onto randomly chosen known parents; the head must
        always be a deepest block and the canonical chain must be
        parent-linked."""
        ledger = Ledger()
        known = [ledger.head_hash]
        heights = {ledger.head_hash: 0}
        for i, pick in enumerate(parent_picks):
            parent = known[pick % len(known)]
            block = Block.build(
                parent_hash=parent,
                miner=f"pk{i}",
                shard_id=0,
                height=heights[parent] + 1,
                timestamp=float(i),
            )
            ledger.add_block(block)
            known.append(block.block_hash)
            heights[block.block_hash] = heights[parent] + 1

        assert ledger.height == max(heights.values())
        chain = ledger.canonical_chain()
        for parent_block, child in zip(chain, chain[1:]):
            assert child.header.parent_hash == parent_block.block_hash
        # Stale + canonical(non-genesis counted via entries) == inserted + genesis
        assert ledger.count_stale_blocks() + len(chain) == len(known)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_head_moves_replay_the_canonical_chain(self, data):
        """Over a random block tree arriving in random order (a block
        whose parent is missing waits for it), undoing each returned
        move's ``left`` and appending its ``joined`` keeps a list equal
        to the canonical chain; ``None`` means the head did not move."""
        ledger = Ledger()
        picks = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=20))
        blocks: list[Block] = []
        for i, pick in enumerate(picks):
            parent = pick % (i + 1)  # 0 = genesis, k = blocks[k - 1]
            parent_block = blocks[parent - 1] if parent else None
            blocks.append(
                Block.build(
                    parent_hash=(
                        parent_block.block_hash if parent_block else ledger.head_hash
                    ),
                    miner=f"pk{i}",
                    shard_id=0,
                    height=(parent_block.header.height if parent_block else 0) + 1,
                    timestamp=float(i),
                )
            )
        arrival = data.draw(st.permutations(blocks))
        waiting: dict[str, list[Block]] = {}
        replayed: list[Block] = []

        def insert(block: Block) -> None:
            head = ledger.head_hash
            move = ledger.add_block(block)
            assert (move is None) == (ledger.head_hash == head)
            if move is not None:
                for left in move.left:
                    assert replayed.pop() is left
                replayed.extend(move.joined)
            assert replayed == ledger.canonical_chain()[1:]
            for child in waiting.pop(block.block_hash, ()):
                insert(child)

        for block in arrival:
            if ledger.knows(block.header.parent_hash):
                insert(block)
            else:
                waiting.setdefault(block.header.parent_hash, []).append(block)
        assert not waiting
        assert replayed[-1].block_hash == ledger.head_hash


class TestMempoolProperties:
    @given(st.lists(st.integers(min_value=0, max_value=99), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_greedy_selection_sorted_and_stable(self, fee_values):
        pool = Mempool()
        for i, fee in enumerate(fee_values):
            pool.add(
                Transaction(
                    sender=f"0xu{i}",
                    recipient="0xur",
                    amount=0,
                    fee=fee,
                    kind=TransactionKind.DIRECT_TRANSFER,
                )
            )
        selected = pool.select_by_fee(10)
        observed = [tx.fee for tx in selected]
        assert observed == sorted(observed, reverse=True)
        if len(fee_values) > 10:
            # Nothing outside the selection beats anything inside it.
            leftover_max = max(
                (tx.fee for tx in pool.pending() if tx not in selected),
                default=-1,
            )
            assert all(fee >= leftover_max for fee in observed)
