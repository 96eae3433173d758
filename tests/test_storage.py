"""Event log, its logical time, and content-addressed data store."""

import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import policyprov
from policyprov import Address, DataStore, EventLog, fixture_path, load_scenario, run, storage
from policyprov.errors import CorruptLogError, TornLogError, UnknownDataIdError
from policyprov.model import content_hash
from policyprov.prov import build_prov
from policyprov.reconstruct import reconstruct_process
from policyprov.storage import EVENT_KINDS

from conftest import ADDRESS_KEYS, oracle_scan

# A record that is valid as the second record of a log whose first is at logical time 1.
SECOND_RECORD = b'{"body":{"policy_id":"pol-1"},"event_kind":"decision","logical_time":2,"offset":1}'

ALICE = Address("net", "alice")
# A list nested 900 deep, whose repr is 1,800 characters; and how long a
# load error's message may be, whatever value it names.
DEEP = json.loads("[" * 900 + "]" * 900)
MESSAGE_BOUND = 100


def test_clock_is_monotonic_from_one():
    log = EventLog()
    assert [log.tick() for _ in range(3)] == [1, 2, 3]
    log.append("decision", {"policy_id": "pol-1"}, log.tick())
    assert log.tick() == 5
    assert [rec.logical_time for rec in log] == [4]


@pytest.mark.parametrize("time", [1, 2], ids=["the-last-records-time", "between-it-and-the-clock"])
def test_a_time_behind_the_clock_but_not_before_the_last_record_is_kept(time):
    """Two records may share a logical time, and the clock stays where it is."""
    log = EventLog()
    log.append("decision", {"policy_id": "pol-1"}, 1)
    assert [log.tick(), log.tick()] == [2, 3]
    log.append("decision", {"policy_id": "pol-1"}, time)
    assert [rec.logical_time for rec in log] == [1, time]
    assert log.tick() == 4


class TestEventLog:
    def test_offsets_are_dense_from_zero(self):
        log = EventLog()
        offsets = [log.append("decision", {"policy_id": "pol-1"}, i + 1) for i in range(5)]
        assert offsets == [0, 1, 2, 3, 4]
        assert [rec.offset for rec in log] == offsets

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog().append("not-a-kind", {}, 1)

    def test_append_never_mutates_existing_records(self):
        log = EventLog()
        log.append("decision", {"policy_id": "pol-1", "decision": "continue"}, 1)
        before = [rec.to_json() for rec in log]
        log.append("decision", {"policy_id": "pol-1", "decision": "terminate"}, 2)
        assert [rec.to_json() for rec in log][: len(before)] == before

    def test_content_hash_reflects_content_only(self):
        a, b = EventLog(), EventLog()
        for log in (a, b):
            log.append("decision", {"policy_id": "pol-1", "decision": "continue"}, 1)
        assert a.content_hash() == b.content_hash()
        b.append("decision", {"policy_id": "pol-1", "decision": "terminate"}, 2)
        assert a.content_hash() != b.content_hash()

    def test_persisted_log_loads_back_identically(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.append("local-token", {"policy_id": "pol-1", "who_carried_out": "net/alice"}, 1)
        log.append("receipt", {"token_id": "t", "outcome": "delivered"}, 2)
        log.close()
        loaded = EventLog.load(path)
        assert [rec.to_json() for rec in loaded] == [rec.to_json() for rec in log]
        assert loaded.content_hash() == log.content_hash()

    def test_loaded_log_ticks_after_its_last_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.append("decision", {"policy_id": "pol-1"}, 3)
        log.append("decision", {"policy_id": "pol-1"}, 7)
        log.close()
        assert log.tick() == EventLog.load(path).tick() == 8  # the clock follows the records either way
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        assert EventLog.load(empty).tick() == 1

    @staticmethod
    def _log_whose_line_3_is(path, line: bytes):
        log = EventLog()
        log.append("decision", {"policy_id": "pol-1"}, 1)
        path.write_bytes(log[0].to_json().encode("utf-8") + b"\n\n" + line + b"\n")

    def test_valid_line_3_loads_as_a_frozen_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._log_whose_line_3_is(path, SECOND_RECORD)
        record = EventLog.load(path)[1]
        assert record.to_json().encode("utf-8") == SECOND_RECORD
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.logical_time = 3

    @pytest.mark.parametrize("bad", [
        b'{"offset":0}', b'{"offset":1,"event_kind":"decision","logical_time":2}',
        b"[1,2]", b'{"offset":', b"\xff\xfe", b'{"offset":0,"event_kind":"decision","logical_time":1,"body":[]}',
        b'{"offset":0,"event_kind":"bogus","logical_time":1,"body":{}}',
        pytest.param(b'{"offset":1,"event_kind":["decision"],"logical_time":2,"body":{}}', id="kind-not-hashable"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-too-deep"),
        pytest.param(SECOND_RECORD + b"{}", id="record-then-object"),
        pytest.param(SECOND_RECORD + b" 1", id="record-then-number"),
        pytest.param(SECOND_RECORD + b"]", id="record-then-bracket"),
        pytest.param(b"\x0c" + SECOND_RECORD + b"\x0b", id="padded-with-form-feed-and-vertical-tab"),
        pytest.param(b'{"offset":1,"event_kind":%s,"logical_time":2,"body":{}}' % json.dumps(DEEP).encode(),
                     id="kind-nested-deep"),
        pytest.param(b'{"offset":1,"event_kind":"%s","logical_time":2,"body":{}}' % (b"k" * 5000), id="kind-long"),
        pytest.param(b'{"offset":1,"event_kind":"decision","logical_time":2,"body":%s}' % json.dumps(DEEP).encode(),
                     id="body-nested-deep"),
    ])
    def test_malformed_line_raises_naming_the_line(self, tmp_path, bad):
        path = tmp_path / "events.jsonl"
        self._log_whose_line_3_is(path, bad)
        with pytest.raises(CorruptLogError, match="^line 3: ") as err:
            EventLog.load(path)
        assert len(str(err.value)) <= MESSAGE_BOUND

    @pytest.mark.parametrize("kind, spoil", [
        ("local-token", lambda body: {"policy_id": body["policy_id"]}),
        ("routed-token-send", lambda body: {k: v for k, v in body.items() if k != "communication_with"}),
        ("routed-token-send", lambda body: body | {"kind": "bogus"}),
        ("local-token", lambda body: body | {"who_carried_out": "no-separator"}),
        ("local-token", lambda body: body | {"who_carried_out": 5}),
        ("local-token", lambda body: body | {"colour": "red"}),
        ("routed-token-receive", lambda body: {"policy_id": body["policy_id"]}),
        ("local-token", lambda body: body | {"timestamp": "late"}),
        ("local-token", lambda body: body | {"timestamp": True}),
        ("local-token", lambda body: body | {"seq_num": "x"}),
        ("local-token", lambda body: body | {"task": 5}),
        ("routed-token-send", lambda body: body | {"required_action": ["review"]}),
        ("routed-token-send", lambda body: body | {"kind": ["task-handoff"]}),
        ("local-token", lambda body: body | {"timestamp": body["timestamp"] + 1}),
        ("routed-token-send", lambda body: body | {"timestamp": body["timestamp"] - 1}),
    ], ids=["missing-fields", "missing-address", "bad-enum", "bad-address", "address-not-text",
            "extra-field", "receive-without-token-id", "timestamp-not-int", "timestamp-bool",
            "seq-num-not-int", "text-field-not-text", "optional-text-field-not-text", "enum-not-text",
            "local-timestamp-not-its-logical-time", "send-timestamp-not-its-logical-time"])
    def test_token_record_that_does_not_decode_raises_naming_its_offset(self, tmp_path, kind, spoil):
        path = tmp_path / "events.jsonl"
        run(load_scenario(fixture_path("pattern_sequential")), log_path=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        bad = next(raw for raw in lines if raw["event_kind"] == kind)
        bad["body"] = spoil(bad["body"])
        path.write_text("".join(json.dumps(raw) + "\n" for raw in lines))
        log = EventLog.load(path)  # every line is a record; the token inside is not
        for export in (build_prov, reconstruct_process):
            with pytest.raises(CorruptLogError, match=f"^offset {bad['offset']}: {kind} body "):
                export(log, "pol-1")

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(offset=5), "offset 5 is not 1"),
        (lambda raw: raw.update(offset="1"), "offset '1' is not 1"),
        (lambda raw: raw.update(offset=True), "offset True is not 1"),
        (lambda raw: raw.update(logical_time=1.5), "logical_time 1.5 is not an integer"),
        (lambda raw: raw.update(logical_time=None), "logical_time None is not an integer"),
        (lambda raw: raw.update(logical_time=1), "logical_time 1 is before 2"),
        (lambda raw: raw["body"].update(policy_id=["pol-1"]), "policy_id ['pol-1'] is not text"),
        (lambda raw: raw["body"].update(policy_id=None), "policy_id None is not text"),
        (lambda raw: raw.update(offset=DEEP), "offset [[[[[[[...]]]]]]] is not 1"),
        (lambda raw: raw.update(logical_time=DEEP), "logical_time [[[[[[[...]]]]]]] is not an integer"),
        (lambda raw: raw.update(body=DEEP), "body [[[[[[[...]]]]]]] is not a dict"),
        (lambda raw: raw["body"].update(policy_id=DEEP), "policy_id [[[[[[[...]]]]]]] is not text"),
        (lambda raw: raw.update(event_kind=DEEP), "unknown event kind [[[[[[[...]]]]]]]"),
        (lambda raw: raw.update(event_kind="k" * 5000), f"unknown event kind '{'k' * 12}...{'k' * 13}'"),
    ], ids=["offset-skips", "offset-text", "offset-bool", "time-float", "time-null", "time-goes-back",
            "policy-id-list", "policy-id-null", "offset-deep", "time-deep", "body-deep", "policy-id-deep",
            "kind-deep", "kind-long"])
    def test_record_out_of_place_raises_naming_the_line(self, tmp_path, edit, message):
        """The message names the value, its repr cut short: a value as long as
        its line gives a line of about the message's own length."""
        log = EventLog()
        log.append("decision", {"policy_id": "pol-1"}, 2)
        log.append("decision", {"policy_id": "pol-1"}, 2)  # equal times are in order
        raw = json.loads(log[1].to_json())
        edit(raw)
        path = tmp_path / "events.jsonl"
        path.write_text(f"{log[0].to_json()}\n\n{json.dumps(raw)}\n")
        with pytest.raises(CorruptLogError, match=f"^line 3: {re.escape(message)}$") as err:
            EventLog.load(path)
        assert len(str(err.value)) <= MESSAGE_BOUND

    @pytest.mark.parametrize("cut", [1, 20, -2])
    def test_torn_last_line_raises_its_own_error(self, tmp_path, cut):
        path = tmp_path / "events.jsonl"
        run(load_scenario(fixture_path("pattern_sequential")), log_path=path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][:cut])
        with pytest.raises(TornLogError, match=f"^line {len(lines)}: torn last line"):
            EventLog.load(path)

    def test_last_line_without_newline_that_is_a_record_loads(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run(load_scenario(fixture_path("pattern_sequential")), log_path=path)
        whole = EventLog.load(path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert [rec.to_json() for rec in EventLog.load(path)] == [rec.to_json() for rec in whole]

    def test_bad_line_before_the_last_is_not_torn(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run(load_scenario(fixture_path("pattern_sequential")), log_path=path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0][:20] + b"\n" + b"".join(lines[1:]))
        with pytest.raises(CorruptLogError, match="^line 1: not UTF-8 JSON$") as caught:
            EventLog.load(path)
        assert not isinstance(caught.value, TornLogError)

    def test_file_holds_the_records_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.append("decision", {"policy_id": "pol-1", "note": "Zoë's café — 東京"}, 1)
        log.append("receipt", {"token_id": "t", "outcome": "delivered"}, 2)
        data = path.read_bytes()  # before close: each append is flushed
        assert data == "".join(rec.to_json() + "\n" for rec in log).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == log.content_hash()
        log.close()

    @pytest.mark.parametrize("time, body, error, message", [
        (1.5, {"policy_id": "pol-1"}, TypeError, "logical_time 1.5 is not an integer"),
        (True, {"policy_id": "pol-1"}, TypeError, "logical_time True is not an integer"),
        (2, [1], TypeError, r"body \[1\] is not a dict"),
        (2, {"policy_id": 7}, TypeError, "policy_id 7 is not text"),
        (0, {"policy_id": "pol-1"}, ValueError, "logical_time 0 is before 1"),
    ], ids=["float-time", "bool-time", "list-body", "int-policy-id", "time-goes-back"])
    def test_record_load_would_refuse_is_not_appended(self, tmp_path, time, body, error, message):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.append("decision", {"policy_id": "pol-1"}, 1)
        data, digest = path.read_bytes(), log.content_hash()
        with pytest.raises(error, match=f"^{message}$"):
            log.append("decision", body, time)
        assert (path.read_bytes(), log.content_hash(), len(log), log.tick()) == (data, digest, 1, 2)
        log.append("decision", {"policy_id": "pol-1"}, 2)
        log.close()
        assert [rec.to_json() for rec in EventLog.load(path)] == [rec.to_json() for rec in log]

    def test_to_json_is_canonical(self):
        log = EventLog()
        log.append("decision", {"b": 1, "a": 2}, 1)
        parsed = json.loads(log[0].to_json())
        assert list(parsed) == sorted(parsed)


@pytest.mark.parametrize("fixture", ["neighbourhood_safety", "change_control_board", "loop_phases",
                                     "pattern_async_parallel"])
def test_fixture_run_writes_each_records_json_and_a_delivery_its_sends_body(tmp_path, fixture):
    """Token lines are written from their field tables and a receive line
    reuses its send's body text: every line is still its record's `to_json`,
    and a receive line's body bytes are its send's."""
    path = tmp_path / "events.jsonl"
    log = run(load_scenario(fixture_path(fixture)), log_path=path).log
    lines = path.read_bytes().splitlines()
    assert lines == [rec.to_json().encode("utf-8") for rec in log]
    body = {rec.offset: line[len(b'{"body":'): line.rindex(b',"event_kind":')] for rec, line in zip(log, lines)}
    sends = {rec.body["token_id"]: rec.offset for rec in log if rec.event_kind == "routed-token-send"}
    receives = [rec for rec in log if rec.event_kind == "routed-token-receive"]
    assert receives
    for rec in receives:
        assert body[rec.offset] == body[sends[rec.body["token_id"]]]


# The lines of the `pattern_sequential` run's events.jsonl.
FUZZ_LINES = [(rec.to_json() + "\n").encode("utf-8")
              for rec in run(load_scenario(fixture_path("pattern_sequential"))).log]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def spoiled_line(draw, line: bytes) -> bytes:
    """The line cut short, or replaced by bytes, text, a JSON value, or its record with one key's value redrawn."""
    how = draw(st.sampled_from(["cut", "bytes", "text", "json", "record"]))
    if how == "cut":
        return line[: draw(st.integers(0, len(line) - 1))]
    if how == "bytes":
        return draw(st.binary(max_size=120))
    if how == "text":
        return draw(st.text(max_size=120)).encode("utf-8")
    if how == "json":
        return json.dumps(draw(JSON_VALUES)).encode("utf-8") + b"\n"
    raw = json.loads(line)
    where = draw(st.sampled_from([raw, raw["body"]]))
    where[draw(st.sampled_from(sorted(where)))] = draw(JSON_VALUES)
    return json.dumps(raw).encode("utf-8") + b"\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_of_a_log_with_one_spoiled_line_returns_or_raises_corrupt_log_error(tmp_path_factory, data):
    i = data.draw(st.integers(0, len(FUZZ_LINES) - 1))
    lines = list(FUZZ_LINES)
    lines[i] = data.draw(spoiled_line(lines[i]))
    path = tmp_path_factory.getbasetemp() / "spoiled.jsonl"
    path.write_bytes(b"".join(lines))
    try:
        EventLog.load(path)
    except CorruptLogError:
        pass


def oracle_load(data: bytes) -> list:
    """The (offset, event_kind, logical_time, body) of each record of a log's
    bytes, by `json.loads` of each line and the checks `EventLog.load`
    documents. A line it refuses raises `CorruptLogError` naming the line, or
    `TornLogError` when it is the last line, has no newline and is not JSON."""
    records, last_time = [], None
    pieces = data.split(b"\n")
    for number, piece in enumerate(pieces, 1):
        text = piece.strip()
        if not text:
            continue
        try:
            raw = json.loads(text.decode("utf-8"))
        except (ValueError, RecursionError):
            raise (TornLogError if number == len(pieces) else CorruptLogError)(f"line {number}: ") from None
        if not (isinstance(raw, dict) and {"offset", "event_kind", "logical_time", "body"} <= raw.keys()
                and isinstance(raw["body"], dict) and raw["event_kind"] in EVENT_KINDS
                and type(raw["offset"]) is int and raw["offset"] == len(records)
                and type(raw["logical_time"]) is int and (last_time is None or raw["logical_time"] >= last_time)
                and type(raw["body"].get("policy_id", "")) is str):
            raise CorruptLogError(f"line {number}: ")
        last_time = raw["logical_time"]
        records.append((raw["offset"], raw["event_kind"], raw["logical_time"], raw["body"]))
    return records


def loaded(path) -> list:
    """What `EventLog.load` gives, in the form of `oracle_load`; no two records share a body."""
    records = [(rec.offset, rec.event_kind, rec.logical_time, rec.body) for rec in EventLog.load(path)]
    assert len({id(body) for *_, body in records}) == len(records)
    return records


def long_policy_scenario(work: Path) -> Path:
    """The benchmark's seed-1 `long-policy` scenario, written into `work`."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.build("long-policy", 1, work)[0].path


@pytest.mark.parametrize("scenario", [
    "change_control_board", "loop_phases", "neighbourhood_safety", "pattern_async_parallel",
    "pattern_asynchronous", "pattern_parallel", "pattern_sequential", "pattern_synchronous", "long-policy",
])
def test_load_gives_the_records_of_json_loads_per_line(tmp_path, scenario):
    path = tmp_path / "events.jsonl"
    source = long_policy_scenario(tmp_path) if scenario == "long-policy" else fixture_path(scenario)
    log = run(load_scenario(source), log_path=path).log
    assert any(rec.event_kind == "routed-token-receive" for rec in log)
    assert loaded(path) == oracle_load(path.read_bytes())


def test_a_delivery_line_is_decoded_at_its_send(tmp_path, monkeypatch):
    path = tmp_path / "events.jsonl"
    log = run(load_scenario(fixture_path("neighbourhood_safety")), log_path=path).log
    decoded = []
    monkeypatch.setattr(storage, "_DECODE", lambda text: decoded.append(text) or json.JSONDecoder().raw_decode(text))
    assert [rec.to_json() for rec in EventLog.load(path)] == [rec.to_json() for rec in log]
    assert len(decoded) == sum(rec.event_kind != "routed-token-receive" for rec in log)


# A send line of the `pattern_sequential` run and the receive line after it.
SEND_AT = next(i for i, line in enumerate(FUZZ_LINES) if b'"event_kind":"routed-token-send"' in line)
assert b'"event_kind":"routed-token-receive"' in FUZZ_LINES[SEND_AT + 1]
_TAIL_INT = {"logical_time": re.compile(rb'(?<="logical_time":)[0-9]+'), "offset": re.compile(rb'(?<="offset":)[0-9]+')}


def _canonical(raw: dict) -> bytes:
    return json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


@st.composite
def spoiled_delivery(draw) -> list:
    """The `pattern_sequential` log with its first delivery's receive line, or
    the send line before it, changed in one of the ways below; the receive
    line is last when `last` is drawn."""
    lines = list(FUZZ_LINES)
    send, receive = lines[SEND_AT], lines[SEND_AT + 1]
    head = receive[: receive.rindex(b',"event_kind":')]
    how = draw(st.sampled_from(["none", "number", "kind", "space", "duplicate", "after", "flip", "cut",
                                "reencoded-send", "send-tail", "blank", "list"]))
    if how == "number":
        key = draw(st.sampled_from(sorted(_TAIL_INT)))
        number = _TAIL_INT[key].search(receive, len(head))[0]
        new = draw(st.sampled_from([b"0" + number, b"-0", number + b".0", number + b"e0", number + b"E+00",
                                    b"1" + b"0" * 18, b"9" * 18, b"1" * 5000, b"-" + number]))
        receive = head + _TAIL_INT[key].sub(new, receive[len(head):], count=1)
    elif how == "kind":
        kind = draw(st.sampled_from([*EVENT_KINDS, "bogus"])).encode("ascii")
        receive = receive.replace(b'"routed-token-receive"', b'"' + kind + b'"')
    elif how == "space":
        at = draw(st.integers(1, len(receive) - 2))
        receive = receive[:at] + draw(st.sampled_from([b" ", b"\t", b"\r"])) + receive[at:]
    elif how == "duplicate":
        key = draw(st.sampled_from(["offset", "logical_time", "event_kind"]))
        member = json.dumps({key: json.loads(receive)[key]}, separators=(",", ":")).encode("utf-8")[1:-1]
        receive = receive.rstrip(b"}\n") + b"," + member + b"}\n"
    elif how == "after":
        receive = receive.rstrip(b"\n") + draw(st.sampled_from([b"{}", b" 1", b"]", b"x", b"}"])) + b"\n"
    elif how == "flip":
        at = draw(st.integers(0, len(head) - 1))
        receive = receive[:at] + bytes([receive[at] ^ draw(st.integers(1, 255))]) + receive[at + 1:]
    elif how == "cut":
        receive = receive[: draw(st.integers(1, len(receive) - 1))]
    elif how == "reencoded-send":
        send = json.dumps(json.loads(send)).encode("utf-8") + b"\n"
    elif how == "send-tail":
        # A space in the send's envelope tail, and a receive line whose head
        # runs that far into the send line: its text before the writer's tail
        # is no longer the body's.
        at = draw(st.integers(len(head), len(send) - 2))
        send = send[:at] + b" " + send[at:]
        receive = send[: len(head) + draw(st.integers(0, 2))] + receive[len(head):]
    elif how == "blank":
        send += draw(st.sampled_from([b"\n", b"  \n"]))
    elif how == "list":
        key = draw(st.sampled_from(sorted(json.loads(send)["body"])))
        raws = [json.loads(send), json.loads(receive)]
        for raw in raws:
            raw["body"][key] = [raw["body"][key], 1]
        send, receive = map(_canonical, raws)
    lines[SEND_AT : SEND_AT + 2] = [send, receive]
    return lines[: SEND_AT + 2] if draw(st.booleans()) else lines


@settings(max_examples=400, deadline=None)
@given(lines=spoiled_delivery())
def test_load_of_a_spoiled_delivery_line_equals_json_loads_per_line(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "delivery.jsonl"
    data = b"".join(lines)
    path.write_bytes(data)
    try:
        expected = oracle_load(data)
    except CorruptLogError as refused:
        with pytest.raises(type(refused), match=f"^{refused}") as caught:
            EventLog.load(path)
        assert type(caught.value) is type(refused)
        return
    records = loaded(path)
    assert records == expected
    # A body holding a list is decoded again for each line, so no record shares the list.
    lists = [id(value) for *_, body in records for value in body.values() if isinstance(value, list)]
    assert len(set(lists)) == len(lists)


def full_hash(log) -> str:
    """The log hash recomputed from every record."""
    digest = hashlib.sha256()
    for rec in log:
        digest.update(rec.to_json().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class TestContentHash:
    def test_equals_full_recomputation_on_disk_memory_and_loaded_logs(self, tmp_path):
        scenario = load_scenario(fixture_path("neighbourhood_safety"))
        path = tmp_path / "events.jsonl"
        on_disk = run(scenario, log_path=path).log
        in_memory = run(scenario).log
        loaded = EventLog.load(path)
        for log in (on_disk, in_memory, loaded):
            assert log.content_hash() == full_hash(log)
        assert on_disk.content_hash() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert in_memory.content_hash() == loaded.content_hash() == on_disk.content_hash()

    @pytest.mark.parametrize("start", ["memory", "file", "loaded"])
    def test_follows_appends_after_a_read(self, tmp_path, start):
        path = tmp_path / "events.jsonl"
        log = EventLog(path if start == "file" else None)
        if start == "loaded":  # a loaded log's records are hashed before those appended to it
            log.append("receipt", {"token_id": "t", "outcome": "delivered"}, 1)
            path.write_text(log[0].to_json() + "\n", encoding="utf-8")
            log = EventLog.load(path)
        hashes = [] if start == "loaded" else [log.content_hash()]
        for i in range(4):
            log.append("decision", {"policy_id": "pol-1", "n": i}, i + 1)
            if i % 2:
                hashes.append(log.content_hash())
                assert hashes[-1] == full_hash(log)
        log.close()
        log.append("decision", {"policy_id": "pol-1", "n": 4}, 5)
        assert log.content_hash() == full_hash(log)
        assert len(set(hashes)) == len(hashes)


# Runs one fixture and kills itself with SIGKILL as soon as its k-th append returns.
_KILLED_AFTER_APPEND = """
import os, signal, sys
from policyprov import fixture_path, load_scenario, run
from policyprov.storage import EventLog

path, k = sys.argv[1], int(sys.argv[2])
append = EventLog.append

def append_then_die(self, *args):
    offset = append(self, *args)
    if offset + 1 == k:
        os.kill(os.getpid(), signal.SIGKILL)
    return offset

EventLog.append = append_then_die
run(load_scenario(fixture_path("neighbourhood_safety")), log_path=path)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("k", [1, 17, 41])
def test_killed_writer_leaves_every_appended_record(tmp_path, k):
    path = tmp_path / "events.jsonl"
    src = str(Path(policyprov.__file__).resolve().parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _KILLED_AFTER_APPEND, str(path), str(k)],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == -signal.SIGKILL, result.stderr
    whole = run(load_scenario(fixture_path("neighbourhood_safety"))).log
    assert len(whole) >= k
    assert [rec.to_json() for rec in EventLog.load(path)] == [rec.to_json() for rec in whole][:k]


# Small structured strategy: logs of a few records with overlapping field values.
_BODY = st.fixed_dictionaries(
    {
        "policy_id": st.sampled_from(["pol-1", "pol-2"]),
        "goal_id": st.sampled_from(["g-1", "g-2", ""]),
        "phase_id": st.sampled_from(["agenda-setting", "analysis"]),
        "who_carried_out": st.sampled_from(["n0/a", "n0/b", "n1/a"]),
    }
)


# Address texts with no, one and two "/", empty segments, and values that are
# not text; actors with and without "/". A `policy_id`, which is never an
# address, holds such texts only: `append` refuses one that is not text.
_ADDRESS_TEXT = st.one_of(
    st.sampled_from(["a", "n0/a", "x/y/z", "x/y/a", "", "/", "a/", "/a", "n0/ba", "n0/a/"]),
    st.text(alphabet="az/", max_size=5),
)
_ADDRESS_VALUE = st.one_of(
    _ADDRESS_TEXT, st.integers(), st.none(), st.booleans(), st.lists(st.just("a"), max_size=1),
)
_ACTOR = st.one_of(st.sampled_from(["a", "z", "", "/", "n0/a", "x/y/z", "y/z", "/a", "a/"]),
                   st.text(alphabet="az/", max_size=4))


class TestScan:
    @given(
        bodies=st.lists(_BODY, max_size=12),
        policy=st.sampled_from([None, "pol-1", "pol-2"]),
        goal=st.sampled_from([None, "g-1", "g-2"]),
        phase=st.sampled_from([None, "agenda-setting"]),
        actor=st.sampled_from([None, "a", "n0/a", "n1/a", "b"]),
        kind=st.sampled_from([None, "local-token", "decision"]),
    )
    def test_scan_matches_bruteforce_oracle(self, bodies, policy, goal, phase, actor, kind):
        log = EventLog()
        for i, body in enumerate(bodies):
            log.append(EVENT_KINDS[i % 3], body, i + 1)
        filters = dict(
            policy_id=policy, goal_id=goal, phase_id=phase, actor=actor, event_kind=kind
        )
        got = log.scan(**filters)
        want = oracle_scan(log, **filters)
        assert [r.offset for r in got] == [r.offset for r in want]

    def test_offset_range_is_inclusive(self):
        log = EventLog()
        for i in range(6):
            log.append("decision", {"policy_id": "pol-1"}, i + 1)
        assert [r.offset for r in log.scan(offset_range=(2, 4))] == [2, 3, 4]

    @given(
        bodies=st.lists(st.builds(dict.__or__,
                                  st.dictionaries(st.sampled_from(ADDRESS_KEYS), _ADDRESS_VALUE, max_size=4),
                                  st.dictionaries(st.just("policy_id"), _ADDRESS_TEXT)), max_size=8),
        actor=_ACTOR,
    )
    @example(bodies=[{"by": "x/y/z"}, {"by": "n0/y/z"}, {"by": "y/z"}], actor="y/z")  # an actor holding "/"
    @example(bodies=[{"by": "n0/"}, {"by": ""}, {"by": 0}, {"by": "n0/a"}], actor="")
    def test_actor_names_the_last_segment_of_an_address(self, bodies, actor):
        # The rule `scan` keeps: an address text is named by itself and by the
        # text after its last "/"; anything that is not text is never named.
        def named(value):
            return isinstance(value, str) and (value == actor or value.rpartition("/")[2] == actor)

        log = EventLog()
        for i, body in enumerate(bodies):
            log.append("decision", body, i + 1)
        want = [i for i, body in enumerate(bodies) if any(named(body.get(key)) for key in ADDRESS_KEYS)]
        assert [r.offset for r in log.scan(actor=actor)] == want

    def test_filters_are_a_conjunction(self):
        log = EventLog()
        log.append("local-token", {"policy_id": "pol-1", "who_carried_out": "net/alice"}, 1)
        log.append("local-token", {"policy_id": "pol-2", "who_carried_out": "net/alice"}, 2)
        log.append("decision", {"policy_id": "pol-1", "by": "net/bob"}, 3)
        hits = log.scan(policy_id="pol-1", actor="alice")
        assert [r.offset for r in hits] == [0]


class TestDataStore:
    def make(self, tmp_path=None):
        log = EventLog()
        return DataStore(log, root=tmp_path), log

    def test_put_get_roundtrip(self):
        store, _ = self.make()
        record = store.put(b"payload", ALICE, "report")
        assert store.get(record.data_id).payload == b"payload"
        assert record.data_id in store

    def test_put_is_idempotent_and_logged_once(self):
        store, log = self.make()
        first = store.put(b"same", ALICE, "report")
        second = store.put(b"same", ALICE, "report")
        assert first.data_id == second.data_id
        assert len(log.scan(event_kind="data-stored")) == 1

    def test_unknown_id_raises(self):
        store, _ = self.make()
        with pytest.raises(UnknownDataIdError):
            store.get("missing")

    def test_payload_written_under_hash_name(self, tmp_path):
        store, _ = self.make(tmp_path)
        record = store.put(b"bytes", ALICE, "blob")
        assert (tmp_path / record.data_id).read_bytes() == b"bytes"

    def test_file_already_holding_the_payload_is_not_rewritten(self, tmp_path):
        path = tmp_path / content_hash(b"bytes")
        path.write_bytes(b"bytes")
        os.utime(path, ns=(10**9, 10**9))
        inode = path.stat().st_ino
        store, _ = self.make(tmp_path)
        store.put(b"bytes", ALICE, "blob")
        assert (path.stat().st_mtime_ns, path.stat().st_ino) == (10**9, inode)

    @pytest.mark.parametrize("existing", [b"byt", b"bytez"], ids=["truncated", "altered"])
    def test_damaged_file_is_rewritten(self, tmp_path, existing):
        path = tmp_path / content_hash(b"bytes")
        path.write_bytes(existing)
        store, _ = self.make(tmp_path)
        store.put(b"bytes", ALICE, "blob")
        assert path.read_bytes() == b"bytes"
