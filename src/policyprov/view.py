"""Per-policy index over the token log, shared by PROV export and reconstruction.

Every lookup of `prov` and `reconstruct` is a `bisect` or a dict lookup on a
`PolicyView`. Its one order is the log's, which is time order with ties in
log order: `EventLog._keep` keeps no time before the last record's, and
`views_of` refuses a token whose `timestamp` is not its record's logical
time. Views live for one call.

`views_of` walks each wanted policy's own record list, which the log keeps
(`EventLog.policy_records`), and no record of another policy.

A view holds the tokens `views_of` decoded, and so checked: every token record
of the policy for an export, only those its induced subgraph reads for
`reconstruct.query`. Every receive record of the policy is read either way.

`PolicyView.pattern` classifies the observed communication pattern of a
delivered work send (our operational formalization). A sender's group is a
run of its work sends with no local token between them:
  parallel      >= 2 sends in the group, and no response to any of them
  sequential    a single send with no response; the receiver acts next
  synchronous   the sender performs no further activity for the policy until
                a response token from a receiver arrives
  asynchronous  the sender performs an activity while a response is pending
  synchronous-/asynchronous-parallel   the combinations of the above
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, groupby
from typing import Callable, Optional

from .errors import CorruptLogError, UnknownPolicyError
from .model import Address, CommunicationPattern, LocalToken, RoutedToken, TokenKind
from .storage import EventLog, EventRecord

# Each token kind's class; its `from_record` is looked up at each call, as `perfbench/tracing.py` wraps it.
_TOKEN_CLASSES = {"local-token": LocalToken, "routed-token-send": RoutedToken}


def activity_id_for(token: LocalToken) -> str:
    return f"act:{token.policy_id}/{token.who_carried_out.network_id}/{token.seq_num}"


def _actor(token) -> Address:
    return token.who_carried_out if isinstance(token, LocalToken) else token.source_address


def _index(tokens, key) -> dict:
    """key(token) -> (timestamps, tokens), keeping the order of `tokens`."""
    out: dict = {}
    for token in tokens:
        k = key(token)
        entry = out.get(k)
        if entry is None:
            entry = out[k] = ([], [])
        entry[0].append(token.timestamp)
        entry[1].append(token)
    return out


class PolicyView:
    """Actors are keyed by `Address`, which compares by value; each index is built on first use."""

    def __init__(self, policy_id: str, tokens: list, receives: dict):
        self.policy_id = policy_id
        self.tokens = tokens  # local tokens and sends, in log order
        self.receives = receives  # token_id -> logical time of its receive
        self._patterns: dict = {}  # sender -> {token_id: observed pattern}, each built on first use

    @cached_property
    def locals(self) -> list:
        return [t for t in self.tokens if type(t) is LocalToken]

    @cached_property
    def sends(self) -> list:
        return [t for t in self.tokens if type(t) is RoutedToken]

    @cached_property
    def _by_actor(self) -> dict:
        return _index(self.locals, _actor)

    @cached_property
    def _by_task(self) -> dict:
        return _index(self.locals, lambda t: (t.who_carried_out, t.task))

    @cached_property
    def _event_times(self) -> dict:
        return {actor: times for actor, (times, _) in _index(self.tokens, _actor).items()}

    @cached_property
    def timelines(self) -> dict:
        """actor -> (times, local tokens and non-notification sends), in log order."""
        work = [t for t in self.tokens if type(t) is LocalToken or t.kind is not TokenKind.NOTIFICATION]
        return _index(work, _actor)

    @cached_property
    def _replies(self) -> dict:
        """(source, destination) -> delivered work sends' times, suffix minimum of arrivals."""
        delivered = [t for t in self.sends if t.kind is not TokenKind.NOTIFICATION and t.token_id in self.receives]
        out = {}
        routes = _index(delivered, lambda t: (t.source_address, t.destination_address))
        for route, (times, tokens) in routes.items():
            arrivals = reversed([self.receives[t.token_id] for t in tokens])
            out[route] = (times, list(accumulate(arrivals, min))[::-1])
        return out

    def previous(self, actor: Address, at: int, task: Optional[str] = None) -> Optional[LocalToken]:
        """The actor's last activity at or before `at`; its last one of `task` if any."""
        if task:
            found = _last_at(self._by_task.get((actor, task)), at)
            if found is not None:
                return found
        return _last_at(self._by_actor.get(actor), at)

    def next(self, actor: Address, after: int) -> Optional[LocalToken]:
        """The actor's first activity at or after `after`."""
        times, tokens = self._by_actor.get(actor, ((), ()))
        i = bisect_left(times, after)
        return tokens[i] if i < len(tokens) else None

    def end_time(self, token: LocalToken) -> int:
        """End = time of the actor's next event, or its own timestamp if terminal."""
        times = self._event_times.get(token.who_carried_out, ())
        i = bisect_right(times, token.timestamp)
        return times[i] if i < len(times) else token.timestamp

    def first_response(self, sent: RoutedToken) -> Optional[int]:
        """Arrival time of the first later work token back from the receiver."""
        route = (sent.destination_address, sent.source_address)
        times, suffix_min = self._replies.get(route, ((), ()))
        i = bisect_right(times, sent.timestamp)
        return suffix_min[i] if i < len(suffix_min) else None

    def next_activity(self, actor: Address, after: int) -> Optional[int]:
        """Time of the actor's first local token or work send after `after`."""
        times, _ = self.timelines.get(actor, ((), ()))
        i = bisect_right(times, after)
        return times[i] if i < len(times) else None

    def pattern(self, send: RoutedToken) -> CommunicationPattern:
        """A delivered work send's observed pattern, by the module's rules; any
        other send's declared one. The first call for a sender classifies all
        of its groups."""
        actor = send.source_address
        patterns = self._patterns.get(actor)
        if patterns is None:
            patterns = self._patterns[actor] = {}
            _, timeline = self.timelines.get(actor, ((), ()))
            for kind, run in groupby(timeline, key=type):
                if kind is not RoutedToken:
                    continue
                group = list(run)
                next_act = self.next_activity(actor, group[-1].timestamp)
                responses = [t for t in map(self.first_response, group) if t is not None]
                if not responses:
                    base = CommunicationPattern.SEQUENTIAL
                elif next_act is not None and next_act < min(responses):
                    base = CommunicationPattern.ASYNCHRONOUS
                else:
                    base = CommunicationPattern.SYNCHRONOUS
                if len(group) >= 2 and base is CommunicationPattern.SEQUENTIAL:
                    base = CommunicationPattern.PARALLEL
                observed = CommunicationPattern.combine(base, parallel=len(group) >= 2)
                for sent in group:
                    if sent.token_id in self.receives:
                        patterns[sent.token_id] = observed
        return patterns.get(send.token_id, send.communication_pattern)


def _last_at(entry, at: int) -> Optional[LocalToken]:
    times, tokens = entry or ((), ())
    i = bisect_right(times, at)
    return tokens[i - 1] if i else None


def views_of(log: EventLog, wanted, decodes: Optional[Callable[[EventRecord], bool]] = None) -> dict:
    """One view per wanted policy, each from that policy's own records
    (`EventLog.policy_records`). With `decodes`, a token record it returns
    false for is skipped: neither decoded, so not checked, nor in the view. A
    token record that does not decode, or whose `timestamp` is not its
    logical time, raises `CorruptLogError` naming the lowest such offset of
    the wanted policies, before a wanted policy no record names raises
    `UnknownPolicyError`."""
    found = {pid: ([], {}) for pid in wanted}
    corrupt = None  # (offset, message) of the lowest-offset record that did not decode
    addresses: dict = {}  # each distinct address text of this call, parsed once
    for pid, (tokens, receives) in found.items():
        for rec in log.policy_records(pid):
            try:
                if rec.event_kind == "routed-token-receive":
                    receives[rec.body["token_id"]] = rec.logical_time
                elif (cls := _TOKEN_CLASSES.get(rec.event_kind)) is not None and (decodes is None or decodes(rec)):
                    token = cls.from_record(rec.body, addresses)
                    if token.timestamp != rec.logical_time:
                        raise ValueError(f"timestamp {token.timestamp} is not the logical time {rec.logical_time}")
                    tokens.append(token)
            except (KeyError, TypeError, ValueError) as exc:  # a field missing, extra or of a bad type or value
                if corrupt is None or rec.offset < corrupt[0]:
                    corrupt = (rec.offset, f"offset {rec.offset}: {rec.event_kind} body is not a token: {exc!r}")
                break
    if corrupt is not None:
        raise CorruptLogError(corrupt[1])
    for pid in found:
        if not log.policy_records(pid):
            raise UnknownPolicyError(pid)
    return {pid: PolicyView(pid, *parts) for pid, parts in found.items()}


def view_of(log: EventLog, policy_id: str) -> PolicyView:
    return views_of(log, [policy_id])[policy_id]
