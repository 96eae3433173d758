"""Append-only event log and content-addressed data store.

The log is the single source of truth: every token, goal event, decision and
receipt lands here, and all downstream state is a fold over it. On-disk form
is UTF-8 JSON Lines, one record per line; the data store is a directory of
files named by payload hash.

A line is `{"body":B,"event_kind":"K","logical_time":T,"offset":N}` and a
newline: its four keys in sorted order, no spaces, ASCII only, B the body as
`_ENCODER` writes it, T and N plain ints. `_tail` writes everything after B;
`EventLog.append` writes the line with it, `EventRecord.to_json` is the line
without its newline, and `EventLog.load` finds a send line's tail with it
and a receive line's with `_RECEIVE_TAIL`, which is compiled from it.
Logs stay readable: a field added to a record is optional on read, with a
stated default, and an event kind is never renamed or removed.

Every record `append` makes and every line `load` reads passes one rule,
`EventLog._keep`: a known kind, an int logical time no earlier than the last
record's, a dict body, and a `policy_id` that is text or absent. `_keep`
files it in the log, in its `policy_id`'s list and, for a goal kind
(`GOAL_KINDS`), in the goal list, each in offset order. The log is the one
clock: `_keep` raises it to each kept record's time, so `tick` never issues
a time before the last record's.
`scan` with a `policy_id` walks that policy's list, and with none every
record; `policy_records` and `goal_records` hand out the lists that
`view.views_of` and `goals.fold_goal_state` walk, and `policy_ids` of a
whole log reads the policies' keys.
"""

from __future__ import annotations

import hashlib
import json
import re
import reprlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Optional

from .errors import CorruptLogError, TornLogError, UnknownDataIdError
from .model import Address, DataRecord, LocalToken, RoutedToken, content_hash, record_fields

EVENT_KINDS = (
    "local-token",
    "routed-token-send",
    "routed-token-receive",
    "goal-defined",
    "goal-modified",
    "metric-satisfied",
    "goal-satisfied",
    "decision",
    "receipt",
    "data-stored",
)
GOAL_KINDS = frozenset(("goal-defined", "goal-modified", "metric-satisfied", "goal-satisfied"))

# One canonical encoder for every record: sorted keys, no spaces, ASCII only.
# The token writers below take its quoting and separators from it.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_QUOTE = encode_basestring_ascii if _ENCODER.ensure_ascii else encode_basestring


def _optional_text(value) -> str:
    return "null" if value is None else _QUOTE(value)


# How `_ENCODER` writes a token field of each declared type; any other field
# (text, an enum's value, an address) is text in a record.
_WRITES = {int: int.__repr__, Optional[str]: _optional_text}
# Each token class's record keys in sorted order, as `_ENCODER` sorts them,
# each with its `"key":` head (the first one opening the object) and the
# writer of its declared type.
_TOKEN_HEADS = {
    cls: tuple(
        (name, (_ENCODER.item_separator if i else "{") + _QUOTE(name) + _ENCODER.key_separator,
         _WRITES.get(kind, _QUOTE))
        for i, (name, kind) in enumerate(record_fields(cls))
    )
    for cls in (LocalToken, RoutedToken)
}
# Each kind's part of a line between the body and the logical time.
_KIND_TEXT = {kind: f',"event_kind":"{kind}","logical_time":' for kind in EVENT_KINDS}


def _tail(event_kind: str, logical_time: int, offset: int) -> str:
    """A line's text after its body, up to its newline."""
    return f'{_KIND_TEXT[event_kind]}{logical_time},"offset":{offset}}}'


# Each kind, mapped to itself: one lookup both checks a kind and interns it.
_KINDS = {kind: kind for kind in EVENT_KINDS}
# One decoder for every line `load` reads.
_DECODE = json.JSONDecoder().raw_decode
# What a delivery's line holds after its send's head: a receive tail as
# `_tail` writes it, its logical time (T) and offset (O) each a plain JSON int
# of at most 18 digits.
_INT = r"(-?(?:0|[1-9][0-9]{0,17}))"
_RECEIVE_TAIL = re.compile(
    re.escape(_tail("routed-token-receive", "T", "O")).replace("T", _INT).replace("O", _INT).encode("ascii")
)
# The types of a flat body's values: a copy of such a body shares no mutable object.
_FLAT = frozenset((type(None), bool, int, float, str))
# What `body.get("policy_id", _NO_POLICY)` gives for a body with no policy_id.
_NO_POLICY = object()
_offset = attrgetter("offset")
# A value in an error message, cut short: a line's value may be as long as the line.
_repr = reprlib.repr

_ADDRESS_FIELDS = (
    "who_carried_out",
    "source_address",
    "destination_address",
    "created_by",
    "by",
)


@dataclass(frozen=True, slots=True)
class EventRecord:
    offset: int
    event_kind: str
    logical_time: int
    body: dict

    def to_json(self) -> str:
        return '{"body":' + _ENCODER.encode(self.body) + _tail(self.event_kind, self.logical_time, self.offset)


_SET_OFFSET, _SET_KIND, _SET_TIME, _SET_BODY = (
    EventRecord.__dict__[name].__set__ for name in ("offset", "event_kind", "logical_time", "body")
)


def record_text(cls, rec: dict) -> str:
    """The JSON text of a validated `cls` token's record `rec`, byte for byte
    what `_ENCODER` writes: the keys in sorted order, text quoted, an int as
    its repr, a missing optional text as null. Its enums and addresses are
    already text in the record."""
    return "".join([head + write(rec[name]) for name, head, write in _TOKEN_HEADS[cls]]) + "}"


def policy_ids(records) -> list[str]:
    """The policy ids the records name, in first-appearance order."""
    if isinstance(records, EventLog):
        return list(records._by_policy)
    return list(dict.fromkeys(rec.body["policy_id"] for rec in records if "policy_id" in rec.body))


def _actor_matches(body: dict, actor: str, suffix: str) -> bool:
    """Whether the bare actor id `actor`, whose `suffix` is "/" + actor, names
    an address text of `body`: one equal to it or ending in that suffix."""
    for key in _ADDRESS_FIELDS:
        value = body.get(key)
        if isinstance(value, str) and (value == actor or value.endswith(suffix)):
            return True
    return False


class EventLog:
    """Single-writer append-only log; offsets are dense from 0. It is also the
    only time source: `tick` issues every logical time, from 1."""

    def __init__(self, path: Optional[Path] = None):
        self._records: list[EventRecord] = []
        # Each policy_id's records and the goal records, in offset order.
        self._by_policy: dict[str, list[EventRecord]] = {}
        self._goal_records: list[EventRecord] = []
        self._now = 0
        # Running SHA-256 over the JSON lines of the first `_hashed` records.
        self._digest = hashlib.sha256()
        self._hashed = 0
        self._fh = None
        if path:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = path.open("wb")

    def tick(self) -> int:
        """The next logical time; each record is appended at a fresh one."""
        self._now += 1
        return self._now

    def _keep(self, offset: int, event_kind, logical_time, body) -> str:
        """The one record rule, for `append` and `load`: an unknown kind or a
        logical time before the last record's raises `ValueError`, and a
        logical time that is not an int, a body that is not a dict or a
        `policy_id` that is not text raises `TypeError`. Else the record is
        kept in the log, its policy's list and, for a goal kind, the goal
        list, the clock is raised to its time and its kind is returned,
        interned."""
        kind = _KINDS.get(event_kind) if type(event_kind) is str else None
        if kind is None:
            raise ValueError(f"unknown event kind {_repr(event_kind)}")
        if type(logical_time) is not int:
            raise TypeError(f"logical_time {_repr(logical_time)} is not an integer")
        if not isinstance(body, dict):
            raise TypeError(f"body {_repr(body)} is not a dict")
        # Every reader groups records by policy_id, so it must be text.
        policy_id = body.get("policy_id", _NO_POLICY)
        if type(policy_id) is not str and policy_id is not _NO_POLICY:
            raise TypeError(f"policy_id {_repr(policy_id)} is not text")
        records = self._records
        # The clock is never behind the last record: only a time before it may be out of order.
        if logical_time >= self._now:
            self._now = logical_time
        elif records and logical_time < records[-1].logical_time:
            raise ValueError(f"logical_time {logical_time} is before {records[-1].logical_time}")
        record = object.__new__(EventRecord)  # the frozen `__init__` sets each slot by `object.__setattr__`
        _SET_OFFSET(record, offset)
        _SET_KIND(record, kind)
        _SET_TIME(record, logical_time)
        _SET_BODY(record, body)
        records.append(record)
        if policy_id is not _NO_POLICY:
            own = self._by_policy.get(policy_id)
            if own is None:
                self._by_policy[policy_id] = [record]
            else:
                own.append(record)
        if kind in GOAL_KINDS:
            self._goal_records.append(record)
        return kind

    def append(self, event_kind: str, body: dict, logical_time: int, text: Optional[str] = None) -> int:
        """Append a record and return its offset. `text`, when given, is the
        body's JSON as `_ENCODER` writes it, and is written as it is. A body
        `_ENCODER` refuses raises `TypeError`, and a record `_keep` refuses
        raises its error; neither is kept. A log without a file keeps and
        hashes as one with a file, which writes and flushes the line it
        hashes."""
        if text is None:
            text = _ENCODER.encode(body)  # first, so that a body it refuses is not kept
        offset = len(self._records)
        kind = self._keep(offset, event_kind, logical_time, body)
        line = f'{{"body":{text}{_tail(kind, logical_time, offset)}\n'.encode("utf-8")
        if self._fh is not None:
            # The flush makes each record durable once append returns.
            self._fh.write(line)
            self._fh.flush()
        if self._hashed == offset:  # else `content_hash` hashes the records `load` read first
            self._digest.update(line)
            self._hashed += 1
        return offset

    def scan(
        self,
        policy_id: Optional[str] = None,
        goal_id: Optional[str] = None,
        phase_id: Optional[str] = None,
        actor: Optional[str] = None,
        event_kind: Optional[str] = None,
        offset_range: Optional[tuple[int, int]] = None,
    ) -> list[EventRecord]:
        """Exact-match conjunction over the filters, in offset order. With a
        `policy_id` it walks that policy's records, and with none every
        record. `offset_range` `(lo, hi)` keeps the records whose offset o
        has lo <= o <= hi, whatever numbers lo and hi are (ints or floats,
        negative, past the end or with hi < lo); it is a slice of those
        records, found by `bisect`. Each other filter is one pass, the
        actor's last."""
        base = self._records if policy_id is None else self._by_policy.get(policy_id, [])
        out = base
        if offset_range is not None:
            lo, hi = offset_range
            out = base[bisect_left(base, lo, key=_offset) : bisect_right(base, hi, key=_offset)]
        if event_kind is not None:
            out = [rec for rec in out if rec.event_kind == event_kind]
        if goal_id is not None:
            out = [rec for rec in out if rec.body.get("goal_id") == goal_id]
        if phase_id is not None:
            out = [rec for rec in out if rec.body.get("phase_id") == phase_id]
        if actor is not None:
            if "/" in actor:
                # A full address names only an equal text: each field of
                # `_ADDRESS_FIELDS` is compared inline, with no call per record.
                out = [
                    rec for rec in out
                    if (body := rec.body).get("who_carried_out") == actor or body.get("source_address") == actor
                    or body.get("destination_address") == actor or body.get("created_by") == actor
                    or body.get("by") == actor
                ]
            else:
                suffix = "/" + actor
                out = [rec for rec in out if _actor_matches(rec.body, actor, suffix)]
        return out[:] if out is base else out

    def policy_records(self, policy_id: str) -> list[EventRecord]:
        """The records whose `policy_id` is this one, in offset order; empty
        for a policy no record names. The log's own list: do not change it."""
        return self._by_policy.get(policy_id, [])

    def goal_records(self) -> list[EventRecord]:
        """The records of a kind in `GOAL_KINDS`, in offset order. The log's
        own list: do not change it."""
        return self._goal_records

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, offset: int) -> EventRecord:
        return self._records[offset]

    def content_hash(self) -> str:
        """SHA-256 of the log's JSON Lines form; each record is hashed once,
        as `append` keeps it or, for a record `load` read, here."""
        for rec in self._records[self._hashed :]:
            self._digest.update((rec.to_json() + "\n").encode("utf-8"))
        self._hashed = len(self._records)
        return self._digest.copy().hexdigest()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @classmethod
    def load(cls, path) -> "EventLog":
        """Read a JSON Lines log. A line that is not a JSON object with the
        four keys raises `CorruptLogError` naming it, and so does a record
        whose offset is not its index or that `_keep` refuses. A last line
        with no newline that is not JSON raises `TornLogError`: the writer
        stopped mid-append. The next `tick` is the last record's logical time
        + 1.

        A delivery's line is decoded once, at its send. A send line ends in
        the tail `_tail` writes from its kind, logical time and offset; the
        text before that tail is its head. A later line that is the last
        send line's head followed by a receive tail (`_RECEIVE_TAIL`) gets a
        fresh copy of that send's body, when every value of that body is
        None, a bool, an int, a float or text. This is exact: the send line was one JSON
        object, and the receive tail has the same token shapes as the send's,
        so that line is one JSON object too, whose body comes from the shared
        head alone. Every other line is decoded alone, and every record passes
        the same checks."""
        log = cls()
        records, keep = log._records, log._keep
        head = send_body = None  # the last send line's head, while its body is flat
        with Path(path).open("rb") as fh:
            for number, line in enumerate(fh, 1):
                text = line.strip(b" \t\r\n")  # JSON whitespace only
                if not text:
                    continue
                if head is not None and text.startswith(head) and (match := _RECEIVE_TAIL.fullmatch(text, len(head))):
                    offset, event_kind, logical_time, body = (
                        int(match[2]), "routed-token-receive", int(match[1]), dict(send_body)
                    )
                else:
                    try:
                        decoded = text.decode("utf-8")
                        raw, end = _DECODE(decoded)
                        if end != len(decoded):
                            raise ValueError("data after the JSON value")
                    except (ValueError, RecursionError):  # not UTF-8, not one JSON value, or nested too deep to parse
                        if not line.endswith(b"\n"):
                            raise TornLogError(f"line {number}: torn last line, cut off before its newline") from None
                        raise CorruptLogError(f"line {number}: not UTF-8 JSON") from None
                    try:
                        offset, event_kind, logical_time, body = (
                            raw["offset"], raw["event_kind"], raw["logical_time"], raw["body"]
                        )
                    except (KeyError, TypeError):  # a key missing, not an object
                        raise CorruptLogError(
                            f"line {number}: not a JSON object with offset, event_kind, logical_time and body"
                        ) from None
                if offset != len(records) or type(offset) is not int:
                    raise CorruptLogError(f"line {number}: offset {_repr(offset)} is not {len(records)}")
                try:
                    kind = keep(offset, event_kind, logical_time, body)
                except (ValueError, TypeError) as exc:
                    raise CorruptLogError(f"line {number}: {exc}") from None
                if kind == "routed-token-send":
                    tail = _tail(kind, logical_time, offset).encode("ascii")
                    flat = text.endswith(tail) and _FLAT.issuperset(map(type, body.values()))
                    head, send_body = (text[: -len(tail)], body) if flat else (None, None)
        return log


class DataStore:
    """Content-addressed store; put is idempotent for identical bytes."""

    def __init__(self, log: EventLog, root: Optional[Path] = None):
        self._log = log
        self._root = Path(root) if root else None
        self._records: dict[str, DataRecord] = {}
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)

    def put(self, payload: bytes, by: Address, media_hint: str = "") -> DataRecord:
        data_id = content_hash(payload)
        if data_id in self._records:
            return self._records[data_id]
        record = DataRecord(data_id, payload, media_hint, by, self._log.tick())
        self._records[data_id] = record
        if self._root is not None:
            # The file name fixes its content, so a file that already holds the
            # payload is left alone; a missing, truncated or altered one is written.
            path = self._root / data_id
            try:
                stored = path.read_bytes() == payload
            except FileNotFoundError:
                stored = False
            if not stored:
                path.write_bytes(payload)
        self._log.append("data-stored", record.to_record(), record.timestamp)
        return record

    def get(self, data_id: str) -> DataRecord:
        try:
            return self._records[data_id]
        except KeyError:
            raise UnknownDataIdError(data_id) from None

    def __contains__(self, data_id: str) -> bool:
        return data_id in self._records
