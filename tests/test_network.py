"""Controllers, sequencing, routing, dedup, and delivery receipts."""

import random
import uuid
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policyprov.network as network_module
from policyprov import (
    Address,
    ArtifactNature,
    CommunicationPattern,
    LocalToken,
    Metric,
    MetricKind,
    RoutedToken,
    TokenKind,
    fixture_path,
    load_scenario,
)
from policyprov.errors import (
    AlreadyTerminatedError,
    IntraNetworkRouteError,
    InvalidTokenError,
    NoOwnerConfiguredError,
    SelfDestinationError,
    TerminatedPolicyError,
    UnknownActorError,
    UnknownDataIdError,
    UnknownGoalError,
    UnknownNetworkError,
    UnknownPolicyError,
)
from policyprov.goals import GoalStatus
from policyprov.model import content_hash
from policyprov.simulation import _Runner, build_system

from conftest import (
    BCU,
    COMMUNITY,
    NWT,
    OWNER,
    SNT,
    define_default_goal,
    make_system,
    open_policy,
    seq_violations,
)


def local(system, actor, policy_id, task="work", output="output"):
    return system.create_local_token(
        actor, policy_id, task=task, task_input="input", task_output=output,
        task_description=task,
    )


class TestRegistry:
    def test_unknown_network_rejected(self):
        system = make_system()
        with pytest.raises(UnknownNetworkError):
            system.register_actor("ghost", "actor")
        with pytest.raises(UnknownNetworkError):
            system.link_networks("local-council", "ghost")

    @pytest.mark.parametrize("network_id, actor_id", [("", "a"), ("n/et", "a"), ("local-council", ""),
                                                      ("local-council", "al/pha")])
    def test_ids_must_be_non_empty_and_hold_no_slash(self, network_id, actor_id):
        # An address is "network/actor" and parses at its first "/".
        system = make_system()
        with pytest.raises(ValueError):
            system.register_network(network_id)
            system.register_actor(network_id, actor_id)
        assert "n/et" not in system.networks
        assert "al/pha" not in system.networks["local-council"]

    def test_registration_is_idempotent(self):
        system = make_system()
        system.register_network("local-council")
        system.register_actor("local-council", "safer-neighbourhood-team")
        system.link_networks("local-council", "citizens")
        assert len(system.networks["local-council"]) == 4

    @pytest.mark.parametrize("address", [str(SNT), 5, None, Address("ghost", "nobody")])
    def test_only_a_registered_actors_address_is_registered(self, address):
        system = make_system()
        assert system.is_registered(SNT)
        assert not system.is_registered(address)


class TestPolicyCreation:
    def test_ids_are_sequential(self):
        system = make_system()
        a = open_policy(system, b"idea one")
        b = open_policy(system, b"idea two")
        assert (a.policy_id, b.policy_id) == ("pol-1", "pol-2")

    def test_submission_notifies_owner(self):
        system = make_system()
        policy = open_policy(system)
        decisions = system.log.scan(event_kind="decision", policy_id=policy.policy_id)
        assert decisions[0].body["decision"] == "policy-created"
        receives = system.log.scan(event_kind="routed-token-receive")
        assert len(receives) == 1
        assert receives[0].body["kind"] == "notification"
        assert receives[0].body["destination_address"] == str(OWNER)

    def test_owner_submission_skips_notification(self):
        system = make_system()
        record = system.put_data(b"own idea", OWNER, "note")
        policy, token, receipt = system.notify_new_policy(record, OWNER)
        assert token is None and receipt is None
        assert policy.policy_id == "pol-1"

    def test_requires_configured_owner(self):
        from policyprov import PolicySystem

        system = PolicySystem()
        system.register_network("n")
        system.register_actor("n", "a")
        record = system.put_data(b"x", Address("n", "a"), "note")
        with pytest.raises(NoOwnerConfiguredError):
            system.notify_new_policy(record, Address("n", "a"))

    def test_unregistered_submitter_opens_no_policy(self):
        system = make_system()
        ghost = Address("ghost", "nobody")
        with pytest.raises(UnknownActorError):
            system.put_data(b"idea", ghost, "idea")
        assert system.policies == {}
        assert list(system.log) == []

    def test_unstored_submission_rejected(self):
        from policyprov import DataRecord

        system = make_system()
        logged, digest = len(system.log), system.log.content_hash()
        phantom = DataRecord("not-stored", b"", "note", COMMUNITY, 1)
        with pytest.raises(UnknownDataIdError):
            system.notify_new_policy(phantom, COMMUNITY)
        assert (len(system.log), system.log.content_hash()) == (logged, digest)
        assert system.policies == {}


def test_readme_library_example_opens_a_policy_with_one_goal():
    """The README's `## Library` block, run as written."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    system, policy = namespace["system"], namespace["policy"]
    assert policy.policy_id == "pol-1"
    assert list(system.policies) == ["pol-1"]
    assert len(system.goals.goals_for("pol-1")) == 1


class TestSequencing:
    def test_seq_is_per_network_and_per_policy(self):
        system = make_system()
        a = open_policy(system, b"one")
        b = open_policy(system, b"two")
        define_default_goal(system, a, goal_id="g-a")
        define_default_goal(system, b, goal_id="g-b")
        t1 = local(system, SNT, a.policy_id)
        t2 = local(system, BCU, a.policy_id)
        t3 = local(system, SNT, b.policy_id)
        # The submission notifications consumed citizens seq 1 for each policy;
        # the council network starts at 1 for both.
        assert (t1.seq_num, t2.seq_num) == (1, 2)
        assert t3.seq_num == 1
        assert not seq_violations(system.log)

    @pytest.mark.parametrize("refuse", [
        lambda system, policy_id: local(system, SNT, policy_id, task=""),
        lambda system, policy_id: system.send_token(SNT, policy_id, destination=BCU, previous_task="",
                                                    previous_task_output="o", task_description="d"),
    ], ids=["local-token", "send-token"])
    def test_refused_token_takes_no_number(self, refuse):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        first = local(system, SNT, policy.policy_id)
        logged = len(system.log)
        with pytest.raises(InvalidTokenError):
            refuse(system, policy.policy_id)
        assert len(system.log) == logged
        second = local(system, SNT, policy.policy_id)
        assert (first.seq_num, second.seq_num) == (1, 2)
        assert seq_violations(system.log) == []
        # Nor a logical time or a token-id draw: the log is the one a run
        # without the refused call writes.
        first_time, second_time = (rec.logical_time for rec in system.log.scan(event_kind="local-token"))
        assert second_time == first_time + 1
        plain = make_system()
        plain_policy = open_policy(plain)
        define_default_goal(plain, plain_policy)
        local(plain, SNT, plain_policy.policy_id)
        assert local(plain, SNT, plain_policy.policy_id).token_id == second.token_id
        assert system.log.content_hash() == plain.log.content_hash()

    def test_unknown_policy_rejected(self):
        system = make_system()
        with pytest.raises(UnknownPolicyError):
            local(system, SNT, "pol-99")

    def test_unknown_actor_rejected(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        with pytest.raises(UnknownActorError):
            local(system, Address("local-council", "stranger"), policy.policy_id)


class TestStamping:
    def test_tokens_inherit_current_goal_and_phase(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        token = local(system, SNT, policy.policy_id)
        assert token.goal_id == "g-problem-identification"
        assert token.phase_id == "agenda-setting"

    def test_explicit_goal_overrides_current(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        from policyprov import Metric, MetricKind

        system.define_goal(policy.policy_id, "analysis", "later",
                           [Metric("m", MetricKind.APPROVAL, approver=BCU)],
                           by=OWNER, goal_id="g-later")
        token = system.create_local_token(
            SNT, policy.policy_id, task="t", task_input="i", task_output="o",
            task_description="d", goal_id="g-later",
        )
        assert (token.goal_id, token.phase_id) == ("g-later", "analysis")

    @pytest.mark.parametrize("create", [
        lambda system, policy_id: system.create_local_token(
            SNT, policy_id, task="t", task_input="i", task_output="o", task_description="d",
            goal_id="g-nobody",
        ),
        lambda system, policy_id: system.send_token(
            SNT, policy_id, destination=BCU, previous_task="t", previous_task_output="o",
            task_description="d", goal_id="g-nobody",
        ),
    ], ids=["local-token", "send-token"])
    def test_undefined_goal_rejected_before_anything_is_logged(self, create):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        logged = len(system.log)
        with pytest.raises(UnknownGoalError):
            create(system, policy.policy_id)
        assert len(system.log) == logged
        assert local(system, SNT, policy.policy_id).seq_num == 1

    def test_invalid_token_rejected_with_violations(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        with pytest.raises(InvalidTokenError) as err:
            system.create_local_token(SNT, policy.policy_id, task="", task_input="i",
                                      task_output="o", task_description="d")
        assert "task" in err.value.violations


TEXT = st.text(min_size=1, max_size=3)
GOAL_ID = st.sampled_from([None, "", "g-problem-identification"])
LOCAL_CALL = st.fixed_dictionaries(
    {"task": TEXT, "task_input": TEXT, "task_output": TEXT, "task_description": TEXT},
    optional={"nature_of_task_input": st.sampled_from(ArtifactNature),
              "nature_of_task_output": st.sampled_from(ArtifactNature), "data_details": TEXT,
              "source_of_evidence": TEXT, "data_reference": TEXT, "goal_id": GOAL_ID, "phase_id": TEXT},
).map(lambda kwargs: ("create_local_token", LocalToken, "validate_local_token", kwargs))
SEND_CALL = st.fixed_dictionaries(
    {"destination": st.sampled_from([BCU, NWT, COMMUNITY]), "previous_task": TEXT, "previous_task_output": TEXT,
     "task_description": TEXT},
    optional={"kind": st.sampled_from(TokenKind), "nature_of_task_output": st.sampled_from(ArtifactNature),
              "required_action": TEXT, "communication_pattern": st.sampled_from(CommunicationPattern),
              "data_details": TEXT, "source_of_evidence": TEXT, "data_reference": TEXT, "goal_id": GOAL_ID,
              "phase_id": TEXT},
).map(lambda kwargs: ("send_token", RoutedToken, "validate_routed_token", kwargs))


# Each makes, on a system with one open policy, a call that names an address by its text.
def _local_token_by_text(system, policy_id):
    return lambda: system.create_local_token(str(COMMUNITY), policy_id, task="t", task_input="i", task_output="o",
                                             task_description="d")


def _send_to_text(system, policy_id):
    return lambda: system.send_token(SNT, policy_id, destination=str(OWNER), previous_task="t",
                                     previous_task_output="o", task_description="d")


def _route_text_addresses(system, policy_id):
    token, _ = system.send_token(SNT, policy_id, destination=COMMUNITY, previous_task="t",
                                 previous_task_output="o", task_description="d")
    return lambda: system.route_external(replace(
        token, token_id="t-text", source_address=str(SNT), destination_address=str(COMMUNITY),
        communication_with=str(COMMUNITY)))


def _submit_from_text(system, policy_id):
    record = system.put_data(b"another idea", COMMUNITY, "idea")
    return lambda: system.notify_new_policy(record, str(COMMUNITY))


@pytest.mark.parametrize("call, error", [
    (_local_token_by_text, UnknownActorError),
    (_send_to_text, InvalidTokenError),
    (_route_text_addresses, InvalidTokenError),
    (_submit_from_text, UnknownActorError),
], ids=["local-token-actor", "send-destination", "route-external", "notify-new-policy"])
def test_an_address_given_as_text_is_refused_before_anything_is_logged(call, error):
    """Each engine call that takes an `Address` refuses its text with a typed
    error, as it refuses an enum field given as text, and logs nothing."""
    system = make_system()
    policy = open_policy(system)
    define_default_goal(system, policy)
    refused = call(system, policy.policy_id)
    logged, counters, policies = len(system.log), dict(system._seq), dict(system.policies)
    with pytest.raises(error):
        refused()
    assert (len(system.log), system._seq, system.policies) == (logged, counters, policies)
    assert "t-text" not in system._delivered


@pytest.mark.parametrize("by", [5, str(SNT), Address("ghost", "nobody")], ids=["int", "text", "unregistered"])
def test_put_data_refuses_a_submitter_that_is_not_a_registered_actor(by):
    system = make_system()
    policy = open_policy(system)
    define_default_goal(system, policy)
    logged, digest = len(system.log), system.log.content_hash()
    with pytest.raises(UnknownActorError):
        system.put_data(b"problem analysis", by, "problem analysis document")
    assert (len(system.log), system.log.content_hash()) == (logged, digest)
    assert content_hash(b"problem analysis") not in system.store


@st.composite
def token_calls(draw):
    """A `create_local_token` or `send_token` call: its actor and each
    argument of its type, or, half the time, one of them empty, of another
    type or an address as text."""
    method, cls, validator, kwargs = draw(st.one_of(LOCAL_CALL, SEND_CALL))
    kwargs = {"actor": SNT, **kwargs}
    if draw(st.booleans()):
        spoiled = draw(st.sampled_from(sorted(kwargs.keys() - {"goal_id"})))
        kwargs[spoiled] = draw(st.sampled_from(["", None, 5, True, b"x", "document", str(BCU)]))
    return method, cls, validator, kwargs


@settings(max_examples=120, deadline=None)
@given(token_calls())
def test_an_issued_token_is_the_one_its_fields_build(call):
    """The token the controller validates and issues equals the token its
    fields build through the dataclass constructor, its attributes in field
    declaration order; a refused call raises the violations of that built
    token, or, for an actor that is not an `Address`, `UnknownActorError`
    before any token is built, and leaves the log, the clock and the sequence
    counters as they were."""
    method, cls, validator, kwargs = call
    kwargs = dict(kwargs)
    actor = kwargs.pop("actor")
    system = make_system()
    policy = open_policy(system)
    define_default_goal(system, policy)
    validate, seen = getattr(network_module, validator), []

    def spy(token):
        seen.append(token)
        return validate(token)

    names = [f.name for f in fields(cls)]
    logged, counters, now = len(system.log), dict(system._seq), system.log.tick()
    with mock.patch.object(network_module, validator, spy):
        try:
            issued = getattr(system, method)(actor, policy.policy_id, **kwargs)
        except UnknownActorError:
            assert type(actor) is not Address and seen == []
            assert (len(system.log), system._seq, system.log.tick()) == (logged, counters, now + 1)
            return
        except InvalidTokenError as refusal:
            [token] = seen
            assert (token.token_id, token.timestamp) == ("unissued", 0)
            assert token == cls(**vars(token)) and list(vars(token)) == names
            assert refusal.violations == validate(cls(**vars(token))).violations != []
            assert (len(system.log), system._seq, system.log.tick()) == (logged, counters, now + 1)
            return
    token = issued[0] if method == "send_token" else issued
    assert seen[0] is token
    assert token == cls(**vars(token)) and list(vars(token)) == names
    assert list(token.to_record()) == names
    logged_record = system.log[logged]
    assert (logged_record.event_kind, logged_record.body) == (
        {LocalToken: "local-token", RoutedToken: "routed-token-send"}[cls], token.to_record())


class TestRouting:
    def setup_run(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        return system, policy

    def test_self_destination_rejected(self):
        system, policy = self.setup_run()
        with pytest.raises(SelfDestinationError):
            system.send_token(SNT, policy.policy_id, destination=SNT,
                              previous_task="t", previous_task_output="o",
                              task_description="d")

    def test_unregistered_actor_sending_to_itself_is_unknown(self):
        system, policy = self.setup_run()
        stranger = Address("local-council", "stranger")
        with pytest.raises(UnknownActorError):
            system.send_token(stranger, policy.policy_id, destination=stranger,
                              previous_task="t", previous_task_output="o",
                              task_description="d")

    def test_self_destination_on_a_terminated_policy_is_terminated(self):
        system, policy = self.setup_run()
        system.decide_continuation(policy.policy_id, "terminate", by=OWNER)
        with pytest.raises(TerminatedPolicyError):
            system.send_token(SNT, policy.policy_id, destination=SNT,
                              previous_task="t", previous_task_output="o",
                              task_description="d")

    def test_intra_network_delivery(self):
        system, policy = self.setup_run()
        _, receipt = system.send_token(SNT, policy.policy_id, destination=BCU,
                                       previous_task="t", previous_task_output="o",
                                       task_description="d")
        assert receipt.outcome == "delivered"

    def test_cross_network_delivery_over_link(self):
        system, policy = self.setup_run()
        _, receipt = system.send_token(SNT, policy.policy_id, destination=COMMUNITY,
                                       previous_task="t", previous_task_output="o",
                                       task_description="d")
        assert receipt.outcome == "delivered"

    def test_unlinked_network_dead_letters(self):
        system, policy = self.setup_run()
        system.register_network("far-away")
        system.register_actor("far-away", "someone")
        _, receipt = system.send_token(
            SNT, policy.policy_id, destination=Address("far-away", "someone"),
            previous_task="t", previous_task_output="o", task_description="d",
        )
        assert receipt.outcome == "dead-letter"
        assert not system.log.scan(event_kind="routed-token-receive",
                                   actor="someone")

    def test_unknown_destination_actor_dead_letters(self):
        system, policy = self.setup_run()
        _, receipt = system.send_token(
            SNT, policy.policy_id, destination=Address("citizens", "nobody"),
            previous_task="t", previous_task_output="o", task_description="d",
        )
        assert receipt.outcome == "dead-letter"

    def test_connector_rejects_intra_network_tokens(self):
        system, policy = self.setup_run()
        token, _ = system.send_token(SNT, policy.policy_id, destination=BCU,
                                     previous_task="t", previous_task_output="o",
                                     task_description="d")
        with pytest.raises(IntraNetworkRouteError):
            system.route_external(token)

    def test_receive_record_equals_the_send_record_without_sharing_it(self):
        system, policy = self.setup_run()
        token, _ = system.send_token(SNT, policy.policy_id, destination=COMMUNITY,
                                     previous_task="t", previous_task_output="o",
                                     task_description="d")
        send, receive = [r for r in system.log if r.body.get("token_id") == token.token_id][:2]
        assert (send.event_kind, receive.event_kind) == ("routed-token-send", "routed-token-receive")
        assert receive.body == send.body == token.to_record()
        assert receive.body is not send.body

    def test_connector_delivery_logs_the_tokens_record(self):
        system, policy = self.setup_run()
        token, _ = system.send_token(SNT, policy.policy_id, destination=COMMUNITY,
                                     previous_task="t", previous_task_output="o",
                                     task_description="d")
        fresh = replace(token, token_id="t-fresh")
        assert system.route_external(fresh).outcome == "delivered"
        [receive] = [r for r in system.log.scan(event_kind="routed-token-receive")
                     if r.body["token_id"] == "t-fresh"]
        assert receive.body == fresh.to_record()

    @pytest.mark.parametrize("spoil, error", [
        ({"seq_num": True}, InvalidTokenError),
        ({"task_description": 5}, InvalidTokenError),
        ({"policy_id": 5}, InvalidTokenError),
        ({"policy_id": "pol-2"}, TerminatedPolicyError),
        ({"policy_id": "pol-99"}, UnknownPolicyError),
        ({"source_address": str(SNT), "destination_address": str(COMMUNITY), "communication_with": str(COMMUNITY)},
         InvalidTokenError),
        ({"destination_address": str(SNT), "communication_with": str(SNT)}, InvalidTokenError),
    ], ids=["bool-int", "int-text", "int-policy-id", "terminated-policy", "unknown-policy", "text-addresses",
            "text-destination-of-the-senders-network"])
    def test_connector_refuses_an_invalid_token_before_any_state_changes(self, tmp_path, spoil, error):
        """A token from outside the engine that its validator refuses raises
        InvalidTokenError, and one of a terminated policy (pol-2) or of a
        policy never opened raises as `send_token` would. Either leaves no
        trace: it is not marked delivered, no record is kept or written and
        no logical time is taken, so the valid token with the same id is then
        delivered."""
        path = tmp_path / "events.jsonl"
        system = make_system(log_path=path)
        policy = open_policy(system)
        define_default_goal(system, policy)
        ended = open_policy(system, payload=b"another idea")
        system.decide_continuation(ended.policy_id, "terminate", by=OWNER)
        assert ended.policy_id == "pol-2"
        token, _ = system.send_token(SNT, policy.policy_id, destination=COMMUNITY,
                                     previous_task="t", previous_task_output="o",
                                     task_description="d")
        fresh = replace(token, token_id="t-fresh")
        logged, written, now = len(system.log), path.read_bytes(), system.log.tick()
        with pytest.raises(error):
            system.route_external(replace(fresh, **spoil))
        assert (len(system.log), path.read_bytes(), system.log.tick()) == (logged, written, now + 1)
        assert "t-fresh" not in system._delivered
        assert system.route_external(fresh).outcome == "delivered"
        system.close()
        assert path.read_bytes().splitlines() == [rec.to_json().encode() for rec in system.log]

    def test_duplicate_routing_is_ignored_and_state_preserved(self):
        system, policy = self.setup_run()
        token, first = system.send_token(SNT, policy.policy_id, destination=COMMUNITY,
                                         previous_task="t", previous_task_output="o",
                                         task_description="d")
        assert first.outcome == "delivered"
        before_receives = len(system.log.scan(event_kind="routed-token-receive"))
        before_snapshot = system.goal_display_snapshot(policy.policy_id)["goals"]
        second = system.route_external(token)
        assert second.outcome == "duplicate-ignored"
        assert len(system.log.scan(event_kind="routed-token-receive")) == before_receives
        assert system.goal_display_snapshot(policy.policy_id)["goals"] == before_snapshot

    def test_every_send_has_exactly_one_receipt(self):
        system, policy = self.setup_run()
        system.send_token(SNT, policy.policy_id, destination=BCU, previous_task="t",
                          previous_task_output="o", task_description="d")
        system.send_token(SNT, policy.policy_id, destination=Address("citizens", "nobody"),
                          previous_task="t", previous_task_output="o", task_description="d")
        sends = system.log.scan(event_kind="routed-token-send")
        receipts = system.log.scan(event_kind="receipt")
        receipt_ids = [r.body["token_id"] for r in receipts]
        for send in sends:
            assert receipt_ids.count(send.body["token_id"]) == 1


FAR = Address("far-away", "someone")  # registered, in a network not linked to any other


@pytest.mark.parametrize("destination, replay, outcome", [
    (BCU, False, "delivered"),
    (Address("local-council", "nobody"), False, "dead-letter"),
    (COMMUNITY, False, "delivered"),
    (FAR, False, "dead-letter"),
    (Address("ghost", "someone"), False, "dead-letter"),
    (Address("citizens", "nobody"), False, "dead-letter"),
    (COMMUNITY, True, "duplicate-ignored"),
    (Address("citizens", "nobody"), True, "dead-letter"),
], ids=[
    "same-network", "same-network-unknown-actor", "linked-network", "unlinked-network",
    "unregistered-network", "linked-network-unknown-actor", "replay", "replay-of-dead-letter",
])
def test_delivery_outcomes(destination, replay, outcome):
    system = make_system()
    system.register_network(FAR.network_id)
    system.register_actor(FAR.network_id, FAR.actor_id)
    policy = open_policy(system)
    define_default_goal(system, policy)
    token, receipt = system.send_token(SNT, policy.policy_id, destination=destination,
                                       previous_task="t", previous_task_output="o",
                                       task_description="d")
    if replay:
        receipt = system.route_external(token)
    assert receipt.outcome == outcome
    receipts = [r.body for r in system.log.scan(event_kind="receipt") if r.body["token_id"] == token.token_id]
    assert len(receipts) == 1 + replay
    assert receipts[-1]["outcome"] == outcome
    receives = [r for r in system.log.scan(event_kind="routed-token-receive")
                if r.body["token_id"] == token.token_id]
    assert len(receives) == (receipts[0]["outcome"] == "delivered")


class TestGoalSatisfactionNotice:
    def test_owner_is_notified_when_goal_closes(self):
        system = make_system()
        policy = open_policy(system)
        define_default_goal(system, policy)
        local(system, SNT, policy.policy_id, task="analyse",
              output="problem analysis document")
        system.send_token(BCU, policy.policy_id, destination=SNT,
                          kind=TokenKind.APPROVAL_RESPONSE, previous_task="review",
                          previous_task_output="approved", task_description="approved")
        notices = [
            rec for rec in system.log.scan(event_kind="routed-token-receive")
            if rec.body["kind"] == "notification" and "goal satisfied" in rec.body["task_description"]
        ]
        assert len(notices) == 1
        assert notices[0].body["destination_address"] == str(OWNER)
        assert notices[0].body["source_address"] == str(BCU)

    def test_no_notice_for_a_terminated_policy(self):
        """Data delivering a terminated policy's artifact satisfies its goal, and sends no token."""
        system = make_system()
        policy = open_policy(system)
        system.define_goal(policy.policy_id, "agenda-setting", "report",
                           [Metric("m", MetricKind.ARTIFACT_DELIVERY, artifact_key="report")],
                           by=OWNER, goal_id="g-report")
        system.decide_continuation(policy.policy_id, "terminate", by=OWNER)
        logged = len(system.log)
        record = system.put_data(b"the report", SNT, "Report")
        assert system.store.get(record.data_id) is record
        assert [rec.event_kind for rec in system.log][logged:] == ["data-stored", "metric-satisfied", "goal-satisfied"]

    def test_stored_bytes_put_again_log_nothing(self):
        """A second put of stored bytes returns the first record and logs
        nothing, though a goal defined after the first put wants its hint."""
        system = make_system()
        policy = open_policy(system)
        first = system.put_data(b"the report", SNT, "Report")
        system.define_goal(policy.policy_id, "agenda-setting", "report",
                           [Metric("m", MetricKind.ARTIFACT_DELIVERY, artifact_key="report")],
                           by=OWNER, goal_id="g-report")
        logged, digest = len(system.log), system.log.content_hash()
        assert system.put_data(b"the report", SNT, "Report") is first
        assert (len(system.log), system.log.content_hash()) == (logged, digest)
        assert system.goals.goal("g-report", policy.policy_id).status is GoalStatus.ACTIVE

    def test_no_notice_when_owner_satisfies_goal(self):
        system = make_system()
        policy = open_policy(system)
        from policyprov import Metric, MetricKind

        system.define_goal(policy.policy_id, "agenda-setting", "self-check",
                           [Metric("m", MetricKind.ARTIFACT_DELIVERY, artifact_key="memo")],
                           by=OWNER, goal_id="g-memo")
        local(system, OWNER, policy.policy_id, task="write", output="memo")
        notices = [
            rec for rec in system.log.scan(event_kind="routed-token-send")
            if "goal satisfied" in rec.body.get("task_description", "")
        ]
        assert notices == []


def test_token_ids_are_the_seeded_version_4_uuids():
    """Each token id, in log order, is the text of `uuid.UUID(int=..., version=4)`
    on the next 128 bits of a `random.Random(seed)`: one draw per token."""
    system = make_system(seed=42)
    policy = open_policy(system)
    define_default_goal(system, policy)
    for step in range(50):
        local(system, SNT, policy.policy_id, output=f"out {step}")
    token_ids = [rec.body["token_id"] for rec in system.log if rec.event_kind in ("local-token", "routed-token-send")]
    draws = random.Random(42)
    assert token_ids == [str(uuid.UUID(int=draws.getrandbits(128), version=4)) for _ in token_ids]


def test_identical_seeds_give_identical_token_ids():
    def run_once():
        system = make_system(seed=42)
        policy = open_policy(system)
        define_default_goal(system, policy)
        token = local(system, SNT, policy.policy_id)
        return token.token_id

    assert run_once() == run_once()


def test_different_seeds_give_different_token_ids():
    def run_once(seed):
        system = make_system(seed=seed)
        policy = open_policy(system)
        define_default_goal(system, policy)
        return local(system, SNT, policy.policy_id).token_id

    assert run_once(1) != run_once(2)


def check_statuses_after_every_record(system) -> list:
    """Wrap the system's log so that, after each appended record, every
    policy's status is compared with what the `decision` records so far say:
    `policy-created` opens a policy as active and `terminate` ends it. Returns
    the list the mismatches are put in."""
    append, expected, mismatches = system.log.append, {}, []

    def checked_append(event_kind, body, logical_time, text=None):
        offset = append(event_kind, body, logical_time, text)
        if event_kind == "decision" and body["decision"] == "policy-created":
            expected[body["policy_id"]] = "active"
        elif event_kind == "decision" and body["decision"] == "terminate":
            expected[body["policy_id"]] = "terminated"
        live = {policy_id: policy.status.value for policy_id, policy in system.policies.items()}
        if live != expected:
            mismatches.append((offset, event_kind, live, dict(expected)))
        return offset

    system.log.append = checked_append
    return mismatches


def check_counters_after_every_record(system) -> list:
    """Wrap the system's log so that, after each appended record, every
    (network, policy) sequence counter is compared with the largest `seq_num`
    among that pair's token records so far, read from the record format
    alone. Returns the list the mismatches are put in."""
    append, expected, mismatches = system.log.append, {}, []

    def checked_append(event_kind, body, logical_time, text=None):
        offset = append(event_kind, body, logical_time, text)
        sender = {"local-token": "who_carried_out", "routed-token-send": "source_address"}.get(event_kind)
        if sender is not None:
            key = (body[sender].split("/")[0], body["policy_id"])
            expected[key] = max(expected.get(key, 0), body["seq_num"])
        if system._seq != expected:
            mismatches.append((offset, event_kind, dict(system._seq), dict(expected)))
        return offset

    system.log.append = checked_append
    return mismatches


OPS = st.lists(st.one_of(
    st.tuples(st.just("open")),
    st.tuples(st.just("decide"), st.integers(0, 2), st.sampled_from(["continue", "terminate"])),
    st.tuples(st.just("put"), st.sampled_from(["report", "memo"])),
    st.tuples(st.just("work"), st.integers(0, 2), st.sampled_from(["report", "memo"])),
    st.tuples(st.just("invalid"), st.integers(0, 2)),
), max_size=25)


class TestPolicyLifecycle:
    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_statuses_follow_the_decision_records(self, ops):
        system = make_system()
        mismatches = check_statuses_after_every_record(system)
        counter_mismatches = check_counters_after_every_record(system)
        for step, (op, *args) in enumerate(ops):
            policies = list(system.policies)
            if op == "open":
                policy = open_policy(system, f"idea {step}".encode())
                system.define_goal(policy.policy_id, "agenda-setting", "report",
                                   [Metric("m", MetricKind.ARTIFACT_DELIVERY, artifact_key="report")],
                                   by=OWNER, goal_id=f"g-{policy.policy_id}")
            elif op == "put":
                system.put_data(f"{args[0]} {step}".encode(), SNT, args[0])
            elif policies:
                policy_id = policies[args[0] % len(policies)]
                try:
                    if op == "decide":
                        system.decide_continuation(policy_id, args[1], by=OWNER)
                    elif op == "invalid":
                        local(system, SNT, policy_id, task="")
                    else:
                        local(system, SNT, policy_id, output=args[1])
                except (AlreadyTerminatedError, TerminatedPolicyError, InvalidTokenError):
                    pass
        assert mismatches == []
        assert counter_mismatches == []
        assert seq_violations(system.log) == []

    @pytest.mark.parametrize("name", ["neighbourhood_safety", "change_control_board"])
    def test_fixture_statuses_follow_the_decision_records(self, name):
        scenario = load_scenario(fixture_path(name))
        system = build_system(scenario)
        mismatches = check_statuses_after_every_record(system)
        counter_mismatches = check_counters_after_every_record(system)
        _Runner(scenario, system, step_budget=1000).run()
        assert system.log.scan(event_kind="decision", policy_id="pol-1")
        assert mismatches == []
        assert counter_mismatches == []
