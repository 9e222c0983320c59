"""Tests for repro.consensus.pow."""

import math
import random
import statistics

import pytest

from repro.consensus.pow import (
    MiningCalendar,
    MiningProcess,
    PoWParameters,
    REFERENCE_HASHRATE,
)
from repro.net.events import Scheduler


class TestPoWParameters:
    def test_anchor_calibration(self):
        """Difficulty 0x40000 = one block per minute (the paper's anchor)."""
        params = PoWParameters.one_block_per_minute()
        assert params.expected_interval() == pytest.approx(60.0)

    def test_fast_confirmation_calibration(self):
        """Sec. VI-B2: 76 tx/s with 10-tx blocks."""
        params = PoWParameters.fast_confirmation(tx_per_second=76.0)
        interval = params.expected_interval()
        assert interval * 76.0 == pytest.approx(10.0, rel=0.02)

    def test_more_hashpower_faster_blocks(self):
        params = PoWParameters.one_block_per_minute()
        assert params.expected_interval(2.0) == pytest.approx(30.0)

    def test_invalid_difficulty(self):
        with pytest.raises(ValueError):
            PoWParameters(difficulty=0)

    def test_invalid_hashrate_fraction(self):
        with pytest.raises(ValueError):
            PoWParameters().expected_interval(0.0)

    def test_invalid_tx_rate(self):
        with pytest.raises(ValueError):
            PoWParameters.fast_confirmation(tx_per_second=0)


class TestMiningProcess:
    def test_samples_positive(self):
        process = MiningProcess(PoWParameters.one_block_per_minute(), seed=1)
        assert all(process.next_block_time() > 0 for __ in range(100))

    def test_mean_matches_expectation(self):
        process = MiningProcess(PoWParameters.one_block_per_minute(), seed=2)
        samples = [process.next_block_time() for __ in range(5_000)]
        assert statistics.mean(samples) == pytest.approx(60.0, rel=0.1)

    def test_seed_reproducibility(self):
        a = MiningProcess(PoWParameters(), seed=7)
        b = MiningProcess(PoWParameters(), seed=7)
        assert [a.next_block_time() for __ in range(5)] == [
            b.next_block_time() for __ in range(5)
        ]

    def test_reference_hashrate_consistency(self):
        assert REFERENCE_HASHRATE * 60.0 == pytest.approx(0x40000)

    def test_prefetch_bit_equal_across_refills(self):
        """10^4 draws spanning many prefetch refills must be bit-identical
        to sequential ``-log(1 - u) / lambd`` arithmetic.

        The buffer stores raw uniforms, reversed for popping; a slip in
        the order or a refill boundary shows up as a mismatch.
        """
        params = PoWParameters.one_block_per_minute()
        process = MiningProcess(params, seed=99)
        reference = random.Random(99)
        lambd = 1.0 / params.expected_interval()
        for __ in range(10_000):
            expected = -math.log(1.0 - reference.random()) / lambd
            assert process.next_block_time() == expected


#: Crash windows ``miner -> (down_at, up_at)`` for the differential test.
CRASHES = {"m1": (350.0, 900.0), "m2": (650.0, 1_200.0), "m3": (100.0, 150.0)}


def _mine_step(scheduler, processes, fired, miner_id):
    """The protocol's mine step: a crashed miner's slot fires and
    redraws without forging; a live one forges, then redraws. Returns
    the miner's next absolute block time."""
    down_at, up_at = CRASHES.get(miner_id, (math.inf, math.inf))
    forged = not down_at <= scheduler.now < up_at
    fired.append((scheduler.now, miner_id, forged))
    return scheduler.now + processes[miner_id].next_block_time()


def _processes(n_miners):
    params = PoWParameters.one_block_per_minute()
    return {f"m{i}": MiningProcess(params, seed=1000 + i) for i in range(n_miners)}


def _run_per_miner_reference(n_miners, until):
    """Reference scheme: one standing scheduler event per miner, each
    scheduling that miner's next one when it fires."""
    scheduler = Scheduler()
    processes = _processes(n_miners)
    fired = []

    def mine(miner_id):
        next_time = _mine_step(scheduler, processes, fired, miner_id)
        scheduler.schedule_at(next_time, mine, miner_id)

    for miner_id, process in processes.items():
        scheduler.schedule_in(process.next_block_time(), mine, miner_id)
    scheduler.run(until=until)
    return fired, scheduler.peak_pending


def _run_calendar(n_miners, until):
    """Same workload through a MiningCalendar (one heap entry)."""
    scheduler = Scheduler()
    processes = _processes(n_miners)
    fired = []

    def mine(miner_id):
        calendar.set_next(
            miner_id, _mine_step(scheduler, processes, fired, miner_id)
        )

    calendar = MiningCalendar(scheduler, mine)
    for miner_id, process in processes.items():
        calendar.add(miner_id)
        calendar.set_next(miner_id, scheduler.now + process.next_block_time())
    calendar.rearm()
    scheduler.run(until=until)
    return fired, scheduler.peak_pending


class TestMiningCalendar:
    # 5 miners exercises the pure-python argmin, 40 the numpy mirror
    # (when numpy is present; without it both take the python path).
    @pytest.mark.parametrize("n_miners", [5, 40])
    def test_differential_vs_per_miner_events(self, n_miners):
        """Forges and crashed slots: the calendar must fire the exact
        same (time, miner) sequence as one event per miner, from one
        heap entry instead of ``n_miners``."""
        reference, reference_peak = _run_per_miner_reference(n_miners, 2_000.0)
        calendar, calendar_peak = _run_calendar(n_miners, 2_000.0)
        assert calendar == reference
        assert len(reference) > 20  # the workload actually forged blocks
        for miner_id, (down_at, up_at) in CRASHES.items():
            # Every crash window swallowed at least one slot.
            assert any(
                miner == miner_id and down_at <= time < up_at and not forged
                for time, miner, forged in reference
            )
        assert reference_peak == n_miners
        assert calendar_peak == 1

    def test_single_heap_entry(self):
        scheduler = Scheduler()
        calendar = MiningCalendar(scheduler, lambda miner_id: None)
        for i in range(50):
            calendar.add(f"m{i}")
            calendar.set_next(f"m{i}", float(i + 1))
        calendar.rearm()
        assert scheduler.pending == 1
        assert scheduler.peak_pending == 1

    def test_duplicate_miner_rejected(self):
        calendar = MiningCalendar(Scheduler(), lambda miner_id: None)
        calendar.add("m0")
        with pytest.raises(ValueError):
            calendar.add("m0")

    def test_all_crashed_disarms(self):
        """A calendar whose miners all sit at ``inf`` arms nothing: not
        at set-up, and not after the last armed slot fires."""
        scheduler = Scheduler()
        fired = []

        def mine(miner_id):
            fired.append(miner_id)
            calendar.set_next(miner_id, math.inf)

        calendar = MiningCalendar(scheduler, mine)
        calendar.add("m0")
        calendar.rearm()
        assert scheduler.pending == 0
        calendar.set_next("m0", 5.0)
        calendar.rearm()
        assert scheduler.pending == 1
        scheduler.run()
        assert fired == ["m0"]
        assert scheduler.pending == 0
        assert calendar.next_time("m0") == math.inf
