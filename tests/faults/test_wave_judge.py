"""Differential test: the wave judge against the per-recipient oracle.

:meth:`~repro.faults.model.FaultModel.judge_wave` resolves what a
fan-out's recipients share once per wave. Hypothesis draws fault plans
(per-kind and default message faults with probabilities that include 0
and 1, crashes, one of them starting exactly at a send time, and
partitions), the tracer on or off, and a run of fan-outs shaped like
``send``, ``broadcast`` and ``multicast``. Two models built from the
same plan and seed judge the same fan-outs, one with ``judge_wave`` and
one recipient by recipient with :func:`~tests.faults.oracle.judge_one`.
They must keep the same recipients at bit-equal delivery times, and end
with equal :class:`~repro.faults.plan.FaultStats`, equal RNG states and
equal ``fault.*`` records.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultModel
from repro.faults.plan import CrashEvent, FaultPlan, MessageFaults, Partition
from repro.net.messages import Message, MessageKind
from repro.observe import Tracer
from tests.faults.oracle import judge_each

NODES = [f"n{i}" for i in range(12)]
KINDS = (MessageKind.TX, MessageKind.BLOCK, MessageKind.CROSS_SHARD_VOTE)
#: Send times the fan-outs, crashes and partitions share, so a crash or
#: a partition often starts or ends exactly at a send.
TIMES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

probabilities = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
#: A no-op kind is drawn often: it skips the dice but not the partition.
message_faults = st.one_of(
    st.just(MessageFaults()),
    st.builds(
        MessageFaults,
        drop_probability=probabilities,
        duplicate_probability=probabilities,
        delay_spike_probability=probabilities,
        delay_spike_seconds=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    ),
)
times = st.one_of(st.sampled_from(TIMES), st.floats(0.0, 3.5))


@st.composite
def crashes(draw):
    at = draw(times)
    recover_at = draw(st.one_of(st.none(), st.floats(0.01, 2.0).map(lambda d: at + d)))
    return CrashEvent(draw(st.sampled_from(NODES)), at=at, recover_at=recover_at)


@st.composite
def partitions(draw):
    members = draw(
        st.lists(st.sampled_from(NODES), min_size=1, max_size=6, unique=True)
    )
    starts_at = draw(times)
    heals_at = draw(
        st.one_of(st.none(), st.floats(0.01, 2.0).map(lambda d: starts_at + d))
    )
    return Partition(members=tuple(members), starts_at=starts_at, heals_at=heals_at)


@st.composite
def plans(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=3, unique=True))
    return FaultPlan(
        default_message_faults=draw(message_faults),
        message_faults=tuple((kind, draw(message_faults)) for kind in kinds),
        crashes=tuple(draw(st.lists(crashes(), max_size=3))),
        partitions=tuple(draw(st.lists(partitions(), max_size=2))),
    )


@st.composite
def fan_outs(draw):
    """``(time, sender, kind, recipients)``, shaped like one entry point."""
    sender = draw(st.sampled_from(NODES))
    others = [node for node in NODES if node != sender]
    shape = draw(st.sampled_from(("send", "broadcast", "multicast")))
    if shape == "send":
        recipients = [draw(st.sampled_from(others))]
    elif shape == "broadcast":
        recipients = others
    else:
        recipients = draw(st.lists(st.sampled_from(others), max_size=len(others)))
    at = draw(st.sampled_from(TIMES))
    return at, sender, draw(st.sampled_from(KINDS)), recipients


def _judge(judge, plan, seed, traced, waves, delays):
    tracer = Tracer() if traced else None
    model = FaultModel(plan, seed=seed, tracer=tracer)
    outcomes = []
    for (now, sender, kind, recipients), draws in zip(waves, delays):
        message = Message(kind, sender, None, "payload")
        kept, judged, sent = judge(
            model, message, now, recipients, draws[: len(recipients)]
        )
        outcomes.append(
            ([recipients[i] for i in kept], [(now + d).hex() for d in judged], sent)
        )
    records = [] if tracer is None else [r.identity() for r in tracer.records]
    return outcomes, model.stats, model._rng.getstate(), records


@settings(max_examples=150, deadline=None)
@given(
    plan=plans(),
    seed=st.integers(0, 2**32),
    traced=st.booleans(),
    waves=st.lists(fan_outs(), min_size=1, max_size=6),
    delays=st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=len(NODES), max_size=len(NODES)),
        min_size=6,
        max_size=6,
    ),
)
def test_wave_judge_matches_per_recipient_oracle(plan, seed, traced, waves, delays):
    wave = _judge(FaultModel.judge_wave, plan, seed, traced, waves, delays)
    oracle = _judge(judge_each, plan, seed, traced, waves, delays)
    outcomes, stats, rng_state, records = wave
    ref_outcomes, ref_stats, ref_rng_state, ref_records = oracle
    assert outcomes == ref_outcomes
    assert stats == ref_stats
    assert rng_state == ref_rng_state
    assert records == ref_records


def test_filter_send_is_a_wave_of_one():
    plan = FaultPlan(
        default_message_faults=MessageFaults(
            drop_probability=0.3,
            duplicate_probability=0.4,
            delay_spike_probability=0.4,
            delay_spike_seconds=0.7,
        )
    )
    model, oracle = FaultModel(plan, seed=5), FaultModel(plan, seed=5)
    message = Message(MessageKind.TX, "a", "b")
    kinds = set()
    for __ in range(200):
        decision = model.filter_send(message, 1.0)
        kept, judged, sent = judge_each(oracle, message, 1.0, ["b"], [0.0])
        assert decision.dropped == (not sent)
        if sent:
            assert decision.extra_delay == judged[-1]
            assert decision.duplicate_delay == (judged[0] if len(kept) == 2 else None)
        kinds.add(
            (
                decision.dropped,
                decision.duplicate_delay is not None,
                decision.extra_delay > 0,
            )
        )
    assert len(kinds) >= 4
    assert model.stats == oracle.stats
