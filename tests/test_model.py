"""Token templates, addresses, and validation rules."""

import copy
import hashlib
import pickle
from dataclasses import fields
from enum import Enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from policyprov import (
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
from policyprov.model import content_hash


def make_local(**overrides) -> LocalToken:
    base = dict(
        token_id="t-1",
        policy_id="pol-1",
        phase_id="agenda-setting",
        goal_id="g-1",
        seq_num=1,
        task="analyse",
        task_input="report",
        nature_of_task_input=ArtifactNature.DOCUMENT,
        task_output="analysis",
        nature_of_task_output=ArtifactNature.DOCUMENT,
        task_description="analyse the report",
        who_carried_out=Address("net", "alice"),
        nature_of_stakeholders=StakeholderNature.INTERNAL,
        data_details="report",
        source_of_evidence="report",
        timestamp=3,
    )
    base.update(overrides)
    return LocalToken(**base)


def make_routed(**overrides) -> RoutedToken:
    base = dict(
        token_id="t-2",
        policy_id="pol-1",
        phase_id="agenda-setting",
        goal_id="g-1",
        seq_num=2,
        previous_task="analyse",
        previous_task_output="analysis",
        nature_of_task_output=ArtifactNature.DOCUMENT,
        task_description="please review",
        required_action="review",
        communication_pattern=CommunicationPattern.SEQUENTIAL,
        nature_of_stakeholders=StakeholderNature.INTERNAL,
        data_details="analysis",
        source_of_evidence="analyse",
        communication_with=Address("net", "bob"),
        data_reference=None,
        timestamp=4,
        source_address=Address("net", "alice"),
        destination_address=Address("net", "bob"),
        kind=TokenKind.TASK_HANDOFF,
    )
    base.update(overrides)
    return RoutedToken(**base)


class TestAddress:
    def test_parse_and_str_roundtrip(self):
        addr = Address.parse("local-council/policy-owner")
        assert addr == Address("local-council", "policy-owner")
        assert str(addr) == "local-council/policy-owner"

    def test_parse_rejects_missing_separator(self):
        with pytest.raises(ValueError, match="^address must be 'network/actor': 'no-separator'$"):
            Address.parse("no-separator")

    @pytest.mark.parametrize("make", [
        lambda: Address("", "actor"),
        lambda: Address("net", ""),
        lambda: Address.parse("/actor"),
        lambda: Address.parse("net/"),
    ], ids=["empty-network", "empty-actor", "parse-empty-network", "parse-empty-actor"])
    def test_empty_part_rejected(self, make):
        with pytest.raises(ValueError, match="^address parts must be non-empty$"):
            make()

    def test_built_and_parsed_addresses_are_one_key(self):
        built, parsed = Address("local-council", "policy-owner"), Address.parse("local-council/policy-owner")
        assert built == parsed and hash(built) == hash(parsed)
        assert {built: 1}[parsed] == 1 and {parsed: 2}[built] == 2
        assert built != Address("local-council", "other") and built != Address("other", "policy-owner")
        assert (built.network_id, built.actor_id) == ("local-council", "policy-owner")

    def test_str_and_repr(self):
        address = Address("net", "a/b")
        assert str(address) == "net/a/b"
        assert repr(address) == "Address(network_id='net', actor_id='a/b')"
        assert Address.parse(str(address)) == Address("net", "a/b")

    def test_is_immutable(self):
        address = Address("net", "alice")
        with pytest.raises(AttributeError):
            address.network_id = "other"
        with pytest.raises(AttributeError):
            address.extra = 1
        assert address == Address("net", "alice")

    def test_pickle_and_deepcopy_round_trip(self):
        address = Address("net", "alice")
        for copied in (pickle.loads(pickle.dumps(address)), copy.deepcopy(address), copy.copy(address)):
            assert type(copied) is Address
            assert copied == address and hash(copied) == hash(address) and str(copied) == "net/alice"


class TestContentHash:
    def test_empty_payload_matches_sha256(self):
        # Frozen reference value: sha256 of the empty byte string.
        assert content_hash(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    @given(st.binary(max_size=64))
    def test_agrees_with_hashlib(self, payload):
        assert content_hash(payload) == hashlib.sha256(payload).hexdigest()


class TestCommunicationPattern:
    def test_combine_with_parallel(self):
        assert (
            CommunicationPattern.combine(CommunicationPattern.SYNCHRONOUS, True)
            is CommunicationPattern.SYNCHRONOUS_PARALLEL
        )
        assert (
            CommunicationPattern.combine(CommunicationPattern.ASYNCHRONOUS, True)
            is CommunicationPattern.ASYNCHRONOUS_PARALLEL
        )
        assert (
            CommunicationPattern.combine(CommunicationPattern.PARALLEL, True)
            is CommunicationPattern.PARALLEL
        )
        with pytest.raises(ValueError):
            CommunicationPattern.combine(CommunicationPattern.SEQUENTIAL, True)

    def test_combine_without_parallel_is_identity(self):
        for base in (
            CommunicationPattern.SEQUENTIAL,
            CommunicationPattern.SYNCHRONOUS,
            CommunicationPattern.ASYNCHRONOUS,
        ):
            assert CommunicationPattern.combine(base, False) is base


class TestRecordRoundtrip:
    def test_local_token(self):
        token = make_local()
        rec = token.to_record()
        assert rec["who_carried_out"] == "net/alice"
        assert LocalToken.from_record(rec) == token

    def test_routed_token(self):
        token = make_routed()
        rec = token.to_record()
        assert rec["source_address"] == "net/alice"
        assert rec["destination_address"] == "net/bob"
        assert rec["kind"] == "task-handoff"
        assert RoutedToken.from_record(rec) == token

    @given(
        task=st.text(min_size=1, max_size=20),
        output=st.text(min_size=1, max_size=20),
        seq=st.integers(min_value=1, max_value=10_000),
        nature=st.sampled_from(list(ArtifactNature)),
    )
    def test_local_roundtrip_property(self, task, output, seq, nature):
        token = make_local(task=task, task_output=output, seq_num=seq, nature_of_task_output=nature)
        assert LocalToken.from_record(token.to_record()) == token


@pytest.mark.parametrize("token", [make_local(data_reference="d-1"), make_routed(),
                                   make_routed(kind=TokenKind.NOTIFICATION, required_action=None)],
                         ids=["local", "routed", "notification"])
def test_record_keeps_field_order_with_enums_and_addresses_as_text(token):
    rec = token.to_record()
    assert list(rec) == [f.name for f in fields(token)]
    for name, value in vars(token).items():
        if isinstance(value, Enum):
            assert type(rec[name]) is str and rec[name] == value.value
        elif isinstance(value, Address):
            assert rec[name] == str(value)
        else:
            assert rec[name] is value


class TestLocalValidation:
    def test_complete_token_is_valid(self):
        assert validate_local_token(make_local()).ok

    def test_each_mandatory_field_is_enforced(self):
        for name in ("task", "task_input", "task_output", "task_description", "goal_id",
                     "data_details", "source_of_evidence"):
            result = validate_local_token(make_local(**{name: ""}))
            assert not result.ok and name in result.violations

    def test_seq_must_be_positive(self):
        result = validate_local_token(make_local(seq_num=0))
        assert "seq_num" in result.violations

    @pytest.mark.parametrize("name, value", [
        ("task", 5), ("task_input", None), ("token_id", 0), ("source_of_evidence", b"notes"), ("data_reference", 7),
        ("seq_num", "1"), ("timestamp", "x"), ("seq_num", True), ("nature_of_task_output", "document"),
        ("who_carried_out", "net/alice"),
    ])
    def test_fields_must_hold_their_type(self, name, value):
        assert validate_local_token(make_local(**{name: value})).violations == [name]

    def test_optional_text_field_may_be_none(self):
        assert validate_local_token(make_local(data_reference=None)).ok

    def test_wrong_types_come_before_empty_fields(self):
        assert validate_local_token(make_local(task=5, goal_id="")).violations == ["task", "goal_id"]


class TestRoutedValidation:
    def test_complete_token_is_valid(self):
        assert validate_routed_token(make_routed()).ok

    def test_source_equals_destination_rejected(self):
        token = make_routed(
            destination_address=Address("net", "alice"),
            communication_with=Address("net", "alice"),
        )
        assert "addresses" in validate_routed_token(token).violations

    def test_communication_with_must_match_destination(self):
        token = make_routed(communication_with=Address("net", "carol"))
        assert "communication_with" in validate_routed_token(token).violations

    def test_notification_skips_task_slots(self):
        token = make_routed(
            kind=TokenKind.NOTIFICATION,
            previous_task="",
            previous_task_output="",
            goal_id="",
            phase_id="",
            data_details="",
            source_of_evidence="",
        )
        assert validate_routed_token(token).ok

    @pytest.mark.parametrize("kind", [TokenKind.TASK_HANDOFF, TokenKind.NOTIFICATION])
    @pytest.mark.parametrize("name, value", [
        ("previous_task", 5), ("goal_id", None), ("task_description", ["review"]), ("required_action", 1),
        ("data_reference", False), ("seq_num", "1"), ("timestamp", "x"), ("communication_pattern", "sequential"),
        ("source_address", "net/alice"),
    ])
    def test_fields_must_hold_their_type(self, kind, name, value):
        assert validate_routed_token(make_routed(kind=kind, **{name: value})).violations == [name]

    def test_notification_slots_come_before_task_slots(self):
        token = make_routed(task_description="", phase_id="")
        assert validate_routed_token(token).violations == ["task_description", "phase_id"]

    def test_task_handoff_requires_task_slots(self):
        token = make_routed(previous_task="", previous_task_output="")
        result = validate_routed_token(token)
        assert "previous_task" in result.violations
        assert "previous_task_output" in result.violations
