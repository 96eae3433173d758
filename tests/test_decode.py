"""Token decoding against a reference decode written apart from the program.

The reference is the plain dataclass constructor: each enum field through
its `Enum(...)`, each address through `Address.parse`, then `cls(**record)`.
"""

import json
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyprov.errors import CorruptLogError
from policyprov.model import (
    Address,
    ArtifactNature,
    CommunicationPattern,
    LocalToken,
    RoutedToken,
    StakeholderNature,
    TokenKind,
    validate_local_token,
    validate_routed_token,
)
from policyprov.storage import _ENCODER, EventLog, record_text
from policyprov.view import views_of

from test_model import make_local, make_routed

TEXT, OPTIONAL, INT = "text", "optional text", "int"

# Each class's fields in declaration order and how a record holds them.
SCHEMAS = {
    LocalToken: {
        "token_id": TEXT, "policy_id": TEXT, "phase_id": TEXT, "goal_id": TEXT, "seq_num": INT, "task": TEXT,
        "task_input": TEXT, "nature_of_task_input": ArtifactNature, "task_output": TEXT,
        "nature_of_task_output": ArtifactNature, "task_description": TEXT, "who_carried_out": Address,
        "nature_of_stakeholders": StakeholderNature, "data_details": TEXT, "source_of_evidence": TEXT,
        "timestamp": INT, "data_reference": OPTIONAL,
    },
    RoutedToken: {
        "token_id": TEXT, "policy_id": TEXT, "phase_id": TEXT, "goal_id": TEXT, "seq_num": INT,
        "previous_task": TEXT, "previous_task_output": TEXT, "nature_of_task_output": ArtifactNature,
        "task_description": TEXT, "communication_pattern": CommunicationPattern,
        "nature_of_stakeholders": StakeholderNature, "data_details": TEXT, "source_of_evidence": TEXT,
        "communication_with": Address, "timestamp": INT, "source_address": Address,
        "destination_address": Address, "kind": TokenKind, "required_action": OPTIONAL, "data_reference": OPTIONAL,
    },
}
EVENT_KIND = {LocalToken: "local-token", RoutedToken: "routed-token-send"}


def is_enum(kind) -> bool:
    return isinstance(kind, type) and issubclass(kind, Enum)


def reference_decode(cls, rec: dict):
    converted = dict(rec)
    for name, kind in SCHEMAS[cls].items():
        if name in rec and kind is Address:
            converted[name] = Address.parse(rec[name])
        elif name in rec and is_enum(kind):
            converted[name] = kind(rec[name])
    return cls(**converted)


texts = st.text(max_size=6)
# A few recurring addresses, so that one address dict sees each text again.
addresses = st.one_of(
    st.sampled_from(["n0/a", "n0/b", "n1/c"]),
    st.builds("{}/{}".format, st.text(min_size=1, max_size=4).filter(lambda t: "/" not in t),
              st.text(min_size=1, max_size=4)),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | texts,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(texts, inner, max_size=2),
    max_leaves=4,
)


def field_values(kind):
    if kind == TEXT:
        return texts
    if kind == OPTIONAL:
        return st.none() | texts
    if kind == INT:
        return st.integers()
    if kind is Address:
        return addresses
    return st.sampled_from([member.value for member in kind])


@st.composite
def records(draw, cls, policy_id=None):
    """A valid record of `cls` in random key order; an optional field may be absent."""
    rec = {}
    for name, kind in SCHEMAS[cls].items():
        if kind == OPTIONAL and draw(st.booleans()):
            continue
        rec[name] = draw(field_values(kind))
    if policy_id is not None:
        rec["policy_id"] = policy_id
    return {key: rec[key] for key in draw(st.permutations(list(rec)))}


@given(st.data())
def test_decode_equals_the_reference_decode(data):
    cls = data.draw(st.sampled_from([LocalToken, RoutedToken]))
    shared: dict = {}
    for rec in data.draw(st.lists(records(cls), min_size=1, max_size=4)):
        expected = reference_decode(cls, rec)
        for decoded in (cls.from_record(rec), cls.from_record(rec, shared)):
            assert type(decoded) is cls
            assert decoded == expected and hash(decoded) == hash(expected)
            assert list(vars(decoded).items()) == list(vars(expected).items())
            assert all(type(a) is type(b) for a, b in zip(vars(decoded).values(), vars(expected).values()))
            assert list(decoded.to_record().items()) == list(expected.to_record().items())
            # The encoder against the schema: every field in `SCHEMAS` order, an absent optional one as None.
            assert list(decoded.to_record().items()) == [(name, rec.get(name)) for name in SCHEMAS[cls]]
    assert all(address == Address.parse(text) for text, address in shared.items())


def not_text(draw, kind):
    """A JSON value that a field of `kind` (text or optional text) may not hold."""
    value = draw(json_values.filter(lambda v: not isinstance(v, str)))
    return value if value is not None or kind == TEXT else draw(st.integers())


@st.composite
def mutated(draw, cls):
    """A record of `cls` for pol-1 with one thing wrong."""
    rec = draw(records(cls, policy_id="pol-1"))
    schema = SCHEMAS[cls]
    mutation = draw(st.sampled_from(["drop", "add", "bad-enum", "bad-address", "not-int", "not-text"]))
    if mutation == "drop":
        # A record without its policy_id is simply no record of pol-1.
        del rec[draw(st.sampled_from([n for n, k in schema.items() if k != OPTIONAL and n != "policy_id"]))]
    elif mutation == "add":
        rec[draw(texts.filter(lambda key: key not in schema))] = draw(json_values)
    elif mutation == "bad-enum":
        name = draw(st.sampled_from([n for n, k in schema.items() if is_enum(k)]))
        valid = {member.value for member in schema[name]}
        rec[name] = draw(json_values.filter(lambda v: not (isinstance(v, str) and v in valid)))
    elif mutation == "bad-address":
        name = draw(st.sampled_from([n for n, k in schema.items() if k is Address]))
        not_text_values = json_values.filter(lambda v: not isinstance(v, str))
        rec[name] = draw(st.sampled_from(["", "n0", "/a", "n0/", "/"]) | not_text_values)
    elif mutation == "not-int":
        name = draw(st.sampled_from([n for n, k in schema.items() if k == INT]))
        rec[name] = draw(json_values.filter(lambda v: type(v) is not int))
    else:
        name = draw(st.sampled_from([n for n, k in schema.items() if k in (TEXT, OPTIONAL)]))
        rec[name] = not_text(draw, schema[name])
    return rec


@given(st.data())
def test_record_with_one_mutation_raises_corrupt_log_error(tmp_path_factory, data):
    cls = data.draw(st.sampled_from([LocalToken, RoutedToken]))
    rec = data.draw(mutated(cls))
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    lines = [
        {"offset": 0, "event_kind": "decision", "logical_time": 1, "body": {"policy_id": "pol-1"}},
        {"offset": 1, "event_kind": EVENT_KIND[cls], "logical_time": 2, "body": rec},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(CorruptLogError):  # a non-text policy_id fails the load, anything else the decode
        views_of(EventLog.load(path), ["pol-1"])


@pytest.mark.parametrize("cls", [LocalToken, RoutedToken])
@pytest.mark.parametrize("extra, message", [
    ({}, r"missing fields \['task_description'\], unknown fields \[\]"),
    ({"colour": "red"}, r"missing fields \['task_description'\], unknown fields \['colour'\]"),
])
def test_missing_and_unknown_fields_are_named(cls, extra, message):
    rec = (make_local() if cls is LocalToken else make_routed()).to_record()
    del rec["task_description"]
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls.from_record(rec | extra)


# Text that JSON escapes or writes as \u escapes: quotes, backslashes, control
# characters, U+2028, non-ASCII and astral characters; and empty text.
tricky_texts = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "é", "東", "\U0001f600",
                     "\U0010ffff"]) | st.characters(),
    max_size=8,
)
tricky_ids = st.text(st.characters().filter(lambda c: c != "/"), min_size=1, max_size=4)


@st.composite
def valid_tokens(draw, cls):
    """A token of `cls` its validator accepts, with tricky text and ints up to 2**70."""
    kind = draw(st.sampled_from([member.value for member in TokenKind]))
    # Every text field of a local token is mandatory; a notification must fill only three.
    optional = (set() if cls is LocalToken or kind != TokenKind.NOTIFICATION.value
                else set(SCHEMAS[cls]) - {"token_id", "policy_id", "task_description"})
    source, destination = draw(st.lists(st.builds("{}/{}".format, tricky_ids, tricky_ids),
                                        min_size=2, max_size=2, unique=True))
    rec = {}
    for name, field_kind in SCHEMAS[cls].items():
        if field_kind == TEXT:
            rec[name] = draw(tricky_texts if name in optional else tricky_texts.filter(bool))
        elif field_kind == OPTIONAL:
            rec[name] = draw(st.none() | tricky_texts)
        elif field_kind == INT:
            rec[name] = draw(st.integers(1 if name == "seq_num" else -2**70, 2**70))
        elif field_kind is Address:
            rec[name] = source if name == "source_address" else destination
        else:
            rec[name] = kind if field_kind is TokenKind else draw(field_values(field_kind))
    return reference_decode(cls, rec)


@settings(max_examples=300)
@given(st.data())
def test_record_text_equals_the_encoder(data):
    """The field-table text of a valid token's record is the log encoder's text of that record."""
    cls = data.draw(st.sampled_from([LocalToken, RoutedToken]))
    token = data.draw(valid_tokens(cls))
    validate = validate_local_token if cls is LocalToken else validate_routed_token
    assert validate(token).ok
    rec = token.to_record()
    assert record_text(cls, rec) == _ENCODER.encode(rec)
