"""The per-recipient fault judge, kept as the oracle for the wave judge.

:meth:`~repro.faults.model.FaultModel.judge_wave` resolves what a
fan-out's recipients share once per wave. :func:`judge_one` below is the
judge it replaced, verbatim: it resolves everything again for each
recipient. Driving a :class:`~repro.faults.model.FaultModel` through it
recipient by recipient must leave the same RNG state, the same
:class:`~repro.faults.plan.FaultStats` and the same ``fault.*`` trace
records as one :meth:`judge_wave` call over the whole fan-out.
"""

from repro.faults.model import FaultDecision

_CLEAN = FaultDecision()
_DROPPED = FaultDecision(dropped=True)


def judge_one(model, message, time, recipient):
    """One send's fate, judged from scratch.

    Crash and partition checks come first (they are deterministic in
    time and consume no randomness), then the probabilistic message
    faults for the message's kind. Unlike
    :meth:`~repro.faults.model.FaultModel.filter_send`, the decision's
    ``duplicate_delay`` is the copy's own draw alone, added on top of the
    original's delay.
    """
    if model.crashed(message.sender, time):
        model.stats.crash_drops += 1
        model._note("fault.crash_drop", message, recipient, time)
        return _DROPPED
    if model.partitioned(message.sender, recipient, time):
        model.stats.partition_drops += 1
        model._note("fault.partition_drop", message, recipient, time)
        return _DROPPED

    faults = model.plan.faults_for(message.kind)
    if faults.is_noop:
        return _CLEAN

    if faults.drop_probability > 0 and model._rng.random() < faults.drop_probability:
        model.stats.drops += 1
        model._note("fault.drop", message, recipient, time)
        return _DROPPED

    extra_delay = 0.0
    if (
        faults.delay_spike_probability > 0
        and model._rng.random() < faults.delay_spike_probability
    ):
        extra_delay = model._rng.uniform(0.0, faults.delay_spike_seconds)
        model.stats.delay_spikes += 1
        model._note(
            "fault.delay",
            message,
            recipient,
            time,
            extra_delay=round(extra_delay, 9),
        )

    duplicate_delay = None
    if (
        faults.duplicate_probability > 0
        and model._rng.random() < faults.duplicate_probability
    ):
        # The copy takes its own (spiked) path through the network.
        duplicate_delay = model._rng.uniform(0.0, max(faults.delay_spike_seconds, 0.1))
        model.stats.duplicates += 1
        model._note("fault.duplicate", message, recipient, time)

    return FaultDecision(
        dropped=False, extra_delay=extra_delay, duplicate_delay=duplicate_delay
    )


def judge_each(model, message, now, recipients, delays):
    """:meth:`FaultModel.judge_wave`'s result, one :func:`judge_one` per
    recipient: the per-recipient loop the network's fan-out ran."""
    kept, judged, sent = [], [], 0
    for position, (recipient, delay) in enumerate(zip(recipients, delays)):
        decision = judge_one(model, message, now, recipient)
        if decision.dropped:
            continue
        sent += 1
        delay += decision.extra_delay
        if decision.duplicate_delay is not None:
            kept.append(position)
            judged.append(delay + decision.duplicate_delay)
        kept.append(position)
        judged.append(delay)
    return kept, judged, sent
