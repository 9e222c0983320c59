"""Tests for repro.faults.plan — declarative fault descriptions."""

import pytest

from repro.errors import ConfigError, FaultConfigError, SimulationError
from repro.faults.plan import (
    CrashEvent,
    FaultPlan,
    FaultStats,
    FaultyLeader,
    MessageFaults,
    Partition,
)
from repro.net.messages import MessageKind


class TestMessageFaults:
    def test_default_is_noop(self):
        assert MessageFaults().is_noop

    def test_any_probability_activates(self):
        assert not MessageFaults(drop_probability=0.1).is_noop
        assert not MessageFaults(duplicate_probability=0.1).is_noop
        assert not MessageFaults(delay_spike_probability=0.1).is_noop

    @pytest.mark.parametrize("field", [
        "drop_probability", "duplicate_probability", "delay_spike_probability",
    ])
    def test_rejects_out_of_range_probability(self, field):
        with pytest.raises(ConfigError):
            MessageFaults(**{field: 1.5})
        with pytest.raises(ConfigError):
            MessageFaults(**{field: -0.1})

    def test_rejects_negative_spike(self):
        with pytest.raises(ConfigError):
            MessageFaults(delay_spike_seconds=-1.0)


class TestCrashEvent:
    def test_crash_window(self):
        crash = CrashEvent("n1", at=10.0, recover_at=20.0)
        assert not crash.crashed_at(9.99)
        assert crash.crashed_at(10.0)
        assert crash.crashed_at(19.99)
        assert not crash.crashed_at(20.0)

    def test_permanent_crash(self):
        crash = CrashEvent("n1", at=5.0)
        assert crash.crashed_at(1e9)

    def test_recovery_must_follow_crash(self):
        with pytest.raises(ConfigError):
            CrashEvent("n1", at=10.0, recover_at=10.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            CrashEvent("n1", at=-1.0)


class TestPartition:
    def test_separates_across_cut_only_while_active(self):
        part = Partition(members=("a", "b"), starts_at=5.0, heals_at=15.0)
        assert not part.separates("a", "c", 4.0)
        assert part.separates("a", "c", 5.0)
        assert part.separates("c", "a", 10.0)  # symmetric
        assert not part.separates("a", "b", 10.0)  # same side
        assert not part.separates("c", "d", 10.0)  # both outside
        assert not part.separates("a", "c", 15.0)  # healed

    def test_permanent_partition(self):
        part = Partition(members=("a",))
        assert part.separates("a", "b", 1e9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Partition(members=())
        with pytest.raises(ConfigError):
            Partition(members=("a",), starts_at=5.0, heals_at=5.0)


class TestFaultyLeader:
    def test_modes(self):
        assert FaultyLeader("withhold").withholds
        assert FaultyLeader("equivocate").equivocates
        with pytest.raises(ConfigError):
            FaultyLeader("grief")


class TestFaultPlan:
    def test_default_plan_is_inactive(self):
        assert not FaultPlan().is_active
        assert not FaultPlan.none().is_active

    def test_lossy_plan_is_active(self):
        assert FaultPlan.lossy(0.2).is_active

    def test_crashes_partitions_leader_activate(self):
        assert FaultPlan(crashes=(CrashEvent("n", at=1.0),)).is_active
        assert FaultPlan(partitions=(Partition(members=("n",)),)).is_active
        assert FaultPlan(leader=FaultyLeader()).is_active

    def test_per_kind_override(self):
        block_faults = MessageFaults(drop_probability=0.5)
        plan = FaultPlan(message_faults=((MessageKind.BLOCK, block_faults),))
        assert plan.faults_for(MessageKind.BLOCK) is block_faults
        assert plan.faults_for(MessageKind.TX).is_noop
        assert plan.is_active


class TestConstructionErrors:
    """Bad fault configs are SimulationErrors that name the bad field.

    ``FaultConfigError`` inherits from both ``ConfigError`` (it *is* a
    configuration mistake) and ``SimulationError`` (so sim-level catch
    blocks see it), and every message leads with the offending field so
    a failing chaos run points straight at the plan.
    """

    @pytest.mark.parametrize("field_name", [
        "drop_probability", "duplicate_probability", "delay_spike_probability",
    ])
    def test_probability_errors_name_the_field(self, field_name):
        with pytest.raises(SimulationError, match=field_name):
            MessageFaults(**{field_name: 2.0})
        with pytest.raises(SimulationError, match=field_name):
            MessageFaults(**{field_name: -0.5})

    def test_negative_delay_names_the_field(self):
        with pytest.raises(SimulationError, match="delay_spike_seconds"):
            MessageFaults(delay_spike_seconds=-0.1)

    def test_crash_errors_name_the_field(self):
        with pytest.raises(SimulationError, match="at cannot be negative"):
            CrashEvent("n1", at=-2.0)
        with pytest.raises(SimulationError, match="recover_at"):
            CrashEvent("n1", at=3.0, recover_at=1.0)

    def test_nan_times_name_the_field(self):
        # NaN fails every comparison, so a bound written as ``x < 0``
        # would let it through.
        nan = float("nan")
        with pytest.raises(SimulationError, match="delay_spike_seconds"):
            MessageFaults(delay_spike_seconds=nan)
        with pytest.raises(SimulationError, match="at cannot be negative or NaN"):
            CrashEvent("n1", at=nan)
        with pytest.raises(SimulationError, match="recover_at"):
            CrashEvent("n1", at=3.0, recover_at=nan)
        with pytest.raises(SimulationError, match="starts_at"):
            Partition(members=("a",), starts_at=nan)
        with pytest.raises(SimulationError, match="heals_at"):
            Partition(members=("a",), starts_at=2.0, heals_at=nan)

    def test_infinite_spike_names_the_field(self):
        # ``uniform(0, inf)`` is an infinite delay, or NaN when the draw
        # is exactly 0.0.
        with pytest.raises(SimulationError, match="delay_spike_seconds"):
            MessageFaults(delay_spike_seconds=float("inf"))
        with pytest.raises(SimulationError, match="delay_spike_seconds"):
            MessageFaults(delay_spike_seconds=float("-inf"))

    def test_partition_members_bare_string_names_the_field(self):
        # ``in`` on a string matches substrings: "n1" would count as a
        # member of "n10".
        with pytest.raises(SimulationError, match="members"):
            Partition(members="n10")

    def test_partition_members_non_string_names_the_field(self):
        with pytest.raises(SimulationError, match="members"):
            Partition(members=("n1", 5))

    def test_partition_errors_name_the_field(self):
        with pytest.raises(SimulationError, match="members"):
            Partition(members=())
        with pytest.raises(SimulationError, match="starts_at"):
            Partition(members=("a",), starts_at=-1.0)
        with pytest.raises(SimulationError, match="heals_at"):
            Partition(members=("a",), starts_at=2.0, heals_at=1.0)

    def test_leader_error_names_the_field(self):
        with pytest.raises(SimulationError, match="mode"):
            FaultyLeader("explode")

    def test_plan_rejects_malformed_entries(self):
        with pytest.raises(SimulationError, match="default_message_faults"):
            FaultPlan(default_message_faults=0.5)
        with pytest.raises(SimulationError, match="message_faults"):
            FaultPlan(message_faults=(MessageKind.BLOCK,))
        with pytest.raises(SimulationError, match="message_faults"):
            FaultPlan(message_faults=((MessageKind.BLOCK, 0.5),))

    def test_fault_config_error_is_both_hierarchies(self):
        assert issubclass(FaultConfigError, ConfigError)
        assert issubclass(FaultConfigError, SimulationError)


class TestFaultStats:
    def test_messages_lost_aggregates_every_cause(self):
        stats = FaultStats(drops=3, partition_drops=2, crash_drops=1)
        assert stats.messages_lost == 6

    def test_default_is_all_zero(self):
        assert FaultStats() == FaultStats()
        assert FaultStats().messages_lost == 0
