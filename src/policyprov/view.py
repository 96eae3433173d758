"""Per-policy index over the token log, shared by PROV export and reconstruction.

Every lookup of `prov` and `reconstruct` is a `bisect` or a dict lookup on a
`PolicyView`. Its lists are sorted by timestamp, ties in log order (which the
log's one logical time, `EventLog.tick`, makes the same order). Views live for
one call.

`views_of` walks each wanted policy's own record list, which the log keeps
(`EventLog.policy_records`), and no record of another policy.

A view holds the tokens `views_of` decoded. The exports decode every token
record of their policy, and so check each one; `reconstruct.query` decodes
only the token records its induced subgraph reads, and leaves out the rest.
Every receive record of the policy is read either way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Optional

from .errors import CorruptLogError, UnknownPolicyError
from .model import Address, LocalToken, RoutedToken, TokenKind
from .storage import EventLog, EventRecord


def activity_id_for(token: LocalToken) -> str:
    return f"act:{token.policy_id}/{token.who_carried_out.network_id}/{token.seq_num}"


_time = attrgetter("timestamp")


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

    def __init__(self, policy_id: str, locals_: list, sends: list, receives: dict):
        self.policy_id = policy_id
        self.locals = sorted(locals_, key=_time)
        self.sends = sorted(sends, key=_time)
        self.receives = receives  # token_id -> logical time of its receive

    @cached_property
    def _by_actor(self) -> dict:
        return _index(self.locals, _actor)

    @cached_property
    def _by_task(self) -> dict:
        return _index(self.locals, lambda t: (t.who_carried_out, t.task))

    @cached_property
    def _event_times(self) -> dict:
        events = sorted(self.locals + self.sends, key=_time)
        return {actor: times for actor, (times, _) in _index(events, _actor).items()}

    @cached_property
    def _work_sends(self) -> list:
        return [t for t in self.sends if t.kind is not TokenKind.NOTIFICATION]

    @cached_property
    def timelines(self) -> dict:
        """actor -> (times, local tokens and non-notification sends), locals first on equal times."""
        return _index(sorted(self.locals + self._work_sends, key=_time), _actor)

    @cached_property
    def _replies(self) -> dict:
        """(source, destination) -> delivered work sends' times, suffix minimum of arrivals."""
        delivered = [t for t in self._work_sends if t.token_id in self.receives]
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


def _last_at(entry, at: int) -> Optional[LocalToken]:
    times, tokens = entry or ((), ())
    i = bisect_right(times, at)
    return tokens[i - 1] if i else None


def views_of(log: EventLog, wanted, decodes: Optional[Callable[[EventRecord], bool]] = None) -> dict:
    """One view per wanted policy, each from that policy's own records
    (`EventLog.policy_records`). With `decodes`, each record of a wanted
    policy but a receive is passed to it first, and one it returns false for
    is skipped: a token record so skipped is neither decoded, so not checked,
    nor in the view. A token record that does not decode raises
    `CorruptLogError`, naming the lowest such offset of the wanted policies,
    before a wanted policy that no record names raises `UnknownPolicyError`."""
    found = {pid: ([], [], {}) for pid in wanted}
    corrupt = None  # (offset, message) of the lowest-offset record that did not decode
    addresses: dict = {}  # each distinct address text of this call, parsed once
    for pid, (locals_, sends, receives) in found.items():
        for rec in log.policy_records(pid):
            try:
                if rec.event_kind == "routed-token-receive":
                    receives[rec.body["token_id"]] = rec.logical_time
                elif decodes is not None and not decodes(rec):
                    continue
                elif rec.event_kind == "local-token":
                    locals_.append(LocalToken.from_record(rec.body, addresses))
                elif rec.event_kind == "routed-token-send":
                    sends.append(RoutedToken.from_record(rec.body, addresses))
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
