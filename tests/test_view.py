"""PolicyView lookups against linear-scan definitions, on random actor timelines."""

from operator import attrgetter, itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from policyprov.errors import CorruptLogError, UnknownPolicyError
from policyprov.model import Address, CommunicationPattern, LocalToken, TokenKind
from policyprov.prov import build_prov
from policyprov.reconstruct import query
from policyprov.storage import EventLog
from policyprov.view import view_of, views_of

from test_model import make_local, make_routed

ACTORS = (Address("n0", "a"), Address("n0", "b"), Address("n1", "c"))
TASKS = ("analyse", "review", "")
TIMES = st.integers(-1, 70)


@st.composite
def timelines(draw):
    """Tokens of one policy in log order (times never decrease), and arrivals."""
    events, arrivals, time = [], {}, 0
    for i in range(draw(st.integers(0, 40))):
        time += draw(st.integers(0, 2))
        actor = draw(st.sampled_from(ACTORS))
        if draw(st.booleans()):
            task = draw(st.sampled_from(TASKS))
            events.append(make_local(token_id=f"t{i}", who_carried_out=actor, task=task, timestamp=time))
            continue
        dest = draw(st.sampled_from([a for a in ACTORS if a != actor]))
        kind = draw(st.sampled_from(list(TokenKind)))
        declared = draw(st.sampled_from(list(CommunicationPattern)))
        events.append(make_routed(token_id=f"t{i}", source_address=actor, destination_address=dest,
                                  communication_with=dest, kind=kind, communication_pattern=declared,
                                  timestamp=time))
        if draw(st.booleans()):
            arrivals[f"t{i}"] = time + draw(st.integers(0, 12))
    return events, arrivals


def log_of(events, arrivals, policy_id="pol-1") -> EventLog:
    """The policy's log in time order, as the log requires: its creation at 0,
    each token at its timestamp and each arrival at its time, a send before
    its receive."""
    entries = [(0, "decision", {"policy_id": policy_id, "decision": "policy-created"})]
    for token in events:
        kind = "local-token" if isinstance(token, LocalToken) else "routed-token-send"
        entries.append((token.timestamp, kind, {**token.to_record(), "policy_id": policy_id}))
    for token in events:
        if token.token_id in arrivals:
            entries.append((arrivals[token.token_id], "routed-token-receive",
                            {**token.to_record(), "policy_id": policy_id}))
    log = EventLog()
    for time, kind, body in sorted(entries, key=itemgetter(0)):
        log.append(kind, body, time)
    return log


def locals_of(events):
    return [t for t in events if isinstance(t, LocalToken)]


def actor_of(token):
    return token.who_carried_out if isinstance(token, LocalToken) else token.source_address


def is_work_send(token):
    return not isinstance(token, LocalToken) and token.kind is not TokenKind.NOTIFICATION


# The definitions the view must match, one linear scan each.
def previous(events, actor, at, task=None):
    found = [t for t in locals_of(events) if t.who_carried_out == actor and t.timestamp <= at]
    return ([t for t in found if task and t.task == task] or found or [None])[-1]


def next_(events, actor, after):
    return next((t for t in locals_of(events) if t.who_carried_out == actor and t.timestamp >= after), None)


def end_time(events, token):
    return min((t.timestamp for t in events if actor_of(t) == token.who_carried_out
                and t.timestamp > token.timestamp), default=token.timestamp)


def first_response(events, arrivals, sent):
    return min((arrivals[t.token_id] for t in events if is_work_send(t) and t.token_id in arrivals
                and t.source_address == sent.destination_address
                and t.destination_address == sent.source_address and t.timestamp > sent.timestamp),
               default=None)


def timeline_of(events, actor):
    """The actor's local tokens and work sends, in log order."""
    tokens = [t for t in events if (isinstance(t, LocalToken) or is_work_send(t)) and actor_of(t) == actor]
    return [t.timestamp for t in tokens], tokens


def next_activity(events, actor, after):
    return min((time for time in timeline_of(events, actor)[0] if time > after), default=None)


def pattern(events, arrivals, sent):
    """The pattern rules of `view.py`, read off the sender's timeline."""
    if not is_work_send(sent) or sent.token_id not in arrivals:
        return sent.communication_pattern
    _, timeline = timeline_of(events, sent.source_address)
    first = last = timeline.index(sent)
    while first > 0 and is_work_send(timeline[first - 1]):
        first -= 1
    while last + 1 < len(timeline) and is_work_send(timeline[last + 1]):
        last += 1
    group = timeline[first:last + 1]
    responses = [time for time in (first_response(events, arrivals, t) for t in group) if time is not None]
    after = next_activity(events, sent.source_address, group[-1].timestamp)
    parallel = len(group) >= 2
    if not responses:
        return CommunicationPattern.PARALLEL if parallel else CommunicationPattern.SEQUENTIAL
    if after is not None and after < min(responses):
        return CommunicationPattern.ASYNCHRONOUS_PARALLEL if parallel else CommunicationPattern.ASYNCHRONOUS
    return CommunicationPattern.SYNCHRONOUS_PARALLEL if parallel else CommunicationPattern.SYNCHRONOUS


@settings(max_examples=100, deadline=None)
@given(timelines(), TIMES)
def test_previous_and_next(timeline, at):
    events, arrivals = timeline
    view = view_of(log_of(events, arrivals), "pol-1")
    for actor in ACTORS:
        assert view.next(actor, at) == next_(events, actor, at)
        for task in (None,) + TASKS:
            assert view.previous(actor, at, task) == previous(events, actor, at, task)


@settings(max_examples=100, deadline=None)
@given(timelines())
def test_end_time(timeline):
    events, arrivals = timeline
    view = view_of(log_of(events, arrivals), "pol-1")
    for token in locals_of(events):
        assert view.end_time(token) == end_time(events, token)


@settings(max_examples=100, deadline=None)
@given(timelines())
def test_first_response(timeline):
    events, arrivals = timeline
    view = view_of(log_of(events, arrivals), "pol-1")
    for sent in filter(is_work_send, events):
        assert view.first_response(sent) == first_response(events, arrivals, sent)


@settings(max_examples=100, deadline=None)
@given(timelines(), TIMES)
def test_next_activity(timeline, after):
    events, arrivals = timeline
    view = view_of(log_of(events, arrivals), "pol-1")
    for actor in ACTORS:
        assert view.next_activity(actor, after) == next_activity(events, actor, after)


def check_pattern(timeline):
    """Every send's pattern, asked for last send first, so that a sender's
    first call comes from its last group."""
    events, arrivals = timeline
    view = view_of(log_of(events, arrivals), "pol-1")
    for sent in reversed(events):
        if not isinstance(sent, LocalToken):
            assert view.pattern(sent) == pattern(events, arrivals, sent)


def handoff(token_id, source, destination, time):
    return make_routed(token_id=token_id, source_address=source, destination_address=destination,
                       communication_with=destination, kind=TokenKind.TASK_HANDOFF, timestamp=time)


# `a`'s next activity comes at its reply's arrival, 3: synchronous.
TIED = ([handoff("t0", ACTORS[0], ACTORS[1], 1), handoff("t1", ACTORS[1], ACTORS[0], 2),
         make_local(token_id="t2", who_carried_out=ACTORS[0], timestamp=3)], {"t0": 2, "t1": 3})
# `a` sends two, whose replies arrive at 3 and 6, and acts at 4: synchronous-parallel, by the first reply.
FIRST_REPLY = ([handoff("t0", ACTORS[0], ACTORS[1], 1), handoff("t1", ACTORS[0], ACTORS[2], 1),
                handoff("t2", ACTORS[1], ACTORS[0], 2), handoff("t3", ACTORS[2], ACTORS[0], 2),
                make_local(token_id="t4", who_carried_out=ACTORS[0], timestamp=4)],
               {"t0": 2, "t1": 2, "t2": 3, "t3": 6})


@settings(max_examples=100, deadline=None)
@example(TIED)
@example(FIRST_REPLY)
@given(timelines())
def test_pattern(timeline):
    check_pattern(timeline)


@settings(max_examples=100, deadline=None)
@given(timelines())
def test_timelines_keep_log_order(timeline):
    """Tokens of one logical time, which the strategy draws often, keep log order."""
    events, arrivals = timeline
    view = view_of(log_of(events, arrivals), "pol-1")
    assert view.timelines == {actor: timeline_of(events, actor) for actor in ACTORS if timeline_of(events, actor)[1]}


def test_tied_times_keep_log_order_in_timelines_and_the_prov_build():
    """A send logged before a local token of its sender at the same logical
    time comes first in the sender's timeline and is mapped to PROV first."""
    alice, bob = ACTORS[:2]
    send = make_routed(token_id="t-send", source_address=alice, destination_address=bob, communication_with=bob,
                       kind=TokenKind.TASK_HANDOFF, timestamp=1)
    work = make_local(token_id="t-local", who_carried_out=alice, timestamp=1)
    log = log_of([send, work], {})
    assert view_of(log, "pol-1").timelines == {alice: ([1, 1], [send, work])}
    assert list(build_prov(log, "pol-1").entities) == ["tok:t-send", "ent:pol-1/report", "ent:pol-1/analysis"]


@settings(max_examples=50, deadline=None)
@given(timelines(), timelines())
def test_one_pass_views_equal_separate_views(first, second):
    log = EventLog()
    for rec in sorted([*log_of(*first), *log_of(*second, policy_id="pol-2")], key=attrgetter("logical_time")):
        log.append(rec.event_kind, rec.body, rec.logical_time)
    together = views_of(log, ["pol-1", "pol-2"])
    for pid in ("pol-1", "pol-2"):
        alone = view_of(log, pid)
        assert (together[pid].locals, together[pid].sends, together[pid].receives) == (
            alone.locals, alone.sends, alone.receives)


def test_unknown_policy_raises():
    log = log_of([make_local()], {})
    with pytest.raises(UnknownPolicyError):
        views_of(log, ["pol-1", "pol-9"])


def _corrupt(token) -> dict:
    """A token record that does not decode: its task_description is missing."""
    body = token.to_record()
    del body["task_description"]
    return body


def corrupt_two_policy_log() -> EventLog:
    """pol-1 and pol-2 each hold one corrupt local token, pol-2's at offset 1
    and pol-1's, the policy listed first, later, at offset 3."""
    log = EventLog()
    log.append("local-token", make_local(token_id="t-1", policy_id="pol-1", timestamp=1).to_record(), 1)
    log.append("local-token", _corrupt(make_local(token_id="t-2", policy_id="pol-2", timestamp=2)), 2)
    log.append("local-token", make_local(token_id="t-3", policy_id="pol-2", timestamp=3).to_record(), 3)
    log.append("local-token", _corrupt(make_local(token_id="t-4", policy_id="pol-1", timestamp=4)), 4)
    return log


@pytest.mark.parametrize("wanted", [["pol-1", "pol-2"], ["pol-2", "pol-1"], ["pol-1", "pol-9", "pol-2"],
                                    ["pol-9", "pol-1", "pol-2"]])
def test_the_corrupt_record_named_is_the_lowest_offset_of_the_wanted_policies(wanted):
    with pytest.raises(CorruptLogError, match="^offset 1: local-token body is not a token"):
        views_of(corrupt_two_policy_log(), wanted)


def test_query_names_the_lowest_corrupt_offset_of_its_policies():
    # Every record is in the agenda-setting phase, so the query decodes all four.
    with pytest.raises(CorruptLogError, match="^offset 1: local-token body is not a token"):
        query(corrupt_two_policy_log(), phase_id="agenda-setting")


@pytest.mark.parametrize("wanted", [["pol-1", "pol-9"], ["pol-9", "pol-1"]])
def test_a_corrupt_record_raises_before_an_unknown_policy(wanted):
    with pytest.raises(CorruptLogError, match="^offset 3: local-token body is not a token"):
        views_of(corrupt_two_policy_log(), wanted)
