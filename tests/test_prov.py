"""Provenance mapping: token fragments, whole-log documents, PROV-JSON export."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from policyprov import TokenKind, build_prov, export_prov_json, token_to_prov_fragment
from policyprov.errors import UnknownPolicyError
from policyprov.prov import _RELATIONS, ProvDocument, activity_id_for, entity_id_for

from conftest import (
    BCU,
    OWNER,
    SNT,
    define_default_goal,
    make_system,
    open_policy,
    soundness_violations,
)

from test_model import make_local, make_routed


class TestFragmentMapping:
    @pytest.mark.parametrize("data_reference", [None, "d-1"])
    def test_local_token_fragment(self, data_reference):
        token = make_local(data_reference=data_reference)
        doc = token_to_prov_fragment(token)
        act_id = activity_id_for(token)
        assert act_id == "act:pol-1/net/1"
        assert doc.activities[act_id]["label"] == "analyse"
        assert doc.agents["agt:net/alice"]["actor"] == "alice"
        in_id = entity_id_for("pol-1", "report")
        out_id = entity_id_for("pol-1", "analysis")
        # A data reference, when the token has one, is on its activity and its output alone.
        assert doc.activities[act_id].get("data_reference") == doc.entities[out_id].get("data_reference") == data_reference
        assert "data_reference" not in doc.entities[in_id]
        assert (act_id, in_id) in doc.used
        assert (out_id, act_id) in doc.was_generated_by
        assert (act_id, "agt:net/alice") in doc.was_associated_with
        assert (out_id, in_id) in doc.was_derived_from

    def test_routed_token_fragment_is_message_entity(self):
        token = make_routed()
        doc = token_to_prov_fragment(token)
        tok_id = f"tok:{token.token_id}"
        assert doc.entities[tok_id]["kind"] == "task-handoff"
        # No sender activity in a standalone fragment: marked external.
        assert doc.entities[tok_id]["external_origin"] is True

    def test_non_token_rejected(self):
        with pytest.raises(TypeError):
            token_to_prov_fragment({"not": "a token"})

    def test_entity_names_unify_by_canonical_form(self):
        assert entity_id_for("pol-1", "Problem  ANALYSIS report") == entity_id_for(
            "pol-1", "problem analysis report"
        )


def build_sample():
    system = make_system()
    policy = open_policy(system)
    define_default_goal(system, policy)
    system.create_local_token(SNT, policy.policy_id, task="analyse",
                              task_input="crime complaints",
                              task_output="problem analysis document",
                              task_description="analyse complaints")
    system.send_token(SNT, policy.policy_id, destination=BCU,
                      previous_task="analyse",
                      previous_task_output="problem analysis document",
                      task_description="please approve",
                      kind=TokenKind.APPROVAL_REQUEST)
    system.create_local_token(BCU, policy.policy_id, task="review",
                              task_input="problem analysis document",
                              task_output="approval decision",
                              task_description="review analysis")
    return system, policy


class TestDocumentBuild:
    def test_unknown_policy_rejected(self):
        system, _ = build_sample()
        with pytest.raises(UnknownPolicyError):
            build_prov(system.log, "pol-99")

    def test_message_links_sender_and_receiver_activities(self):
        system, policy = build_sample()
        doc = build_prov(system.log, policy.policy_id)
        send_act = "act:pol-1/local-council/1"
        recv_act = "act:pol-1/local-council/3"
        tok_ids = [e for e in doc.entities if e.startswith("tok:")]
        handoffs = [
            e for e in tok_ids if doc.entities[e].get("kind") == "approval-request"
        ]
        assert len(handoffs) == 1
        tok = handoffs[0]
        assert doc.generator_of(tok) == send_act
        assert (recv_act, tok) in doc.used
        assert (recv_act, send_act) in doc.was_informed_by

    def test_shared_artifact_entity_unifies(self):
        system, policy = build_sample()
        doc = build_prov(system.log, policy.policy_id)
        ent = entity_id_for(policy.policy_id, "problem analysis document")
        # Generated once by the analysis activity, used by the review activity.
        assert doc.generator_of(ent) == "act:pol-1/local-council/1"
        assert ("act:pol-1/local-council/3", ent) in doc.used

    def test_first_generator_wins(self):
        system, policy = build_sample()
        system.create_local_token(BCU, policy.policy_id, task="rewrite",
                                  task_input="approval decision",
                                  task_output="problem analysis document",
                                  task_description="regenerate the analysis")
        doc = build_prov(system.log, policy.policy_id)
        ent = entity_id_for(policy.policy_id, "problem analysis document")
        assert doc.generator_of(ent) == "act:pol-1/local-council/1"

    def test_inputs_without_generator_marked_external(self):
        system, policy = build_sample()
        doc = build_prov(system.log, policy.policy_id)
        ent = entity_id_for(policy.policy_id, "crime complaints")
        assert doc.entities[ent].get("external_origin") is True

    def test_temporal_soundness_on_sample(self):
        system, policy = build_sample()
        assert soundness_violations(build_prov(system.log, policy.policy_id)) == []


class TestExport:
    def test_exactly_eight_top_level_members(self):
        system, policy = build_sample()
        exported = json.loads(export_prov_json(build_prov(system.log, policy.policy_id)))
        assert sorted(exported) == sorted(
            ["entity", "activity", "agent", "used", "wasGeneratedBy",
             "wasAssociatedWith", "wasInformedBy", "wasDerivedFrom"]
        )

    def test_export_is_deterministic_bytes(self):
        system_a, policy = build_sample()
        system_b, _ = build_sample()
        a = export_prov_json(build_prov(system_a.log, policy.policy_id))
        b = export_prov_json(build_prov(system_b.log, policy.policy_id))
        assert a == b

    @pytest.mark.parametrize("member", ["entities", "activities", "agents"])
    @pytest.mark.parametrize("value", [None, 1.5, ["a"], {"a": 1}], ids=["none", "float", "list", "dict"])
    def test_node_value_other_than_str_int_or_bool_is_refused(self, member, value):
        """A node value is written as text only when it is str, int or bool;
        any other type raises `TypeError` naming its node and key."""
        doc = ProvDocument(**{member: {"n:1": {"label": "x", "odd": value}}})
        with pytest.raises(TypeError, match=r"^node 'n:1', key 'odd': "):
            export_prov_json(doc)

    def test_relations_reference_declared_nodes(self):
        system, policy = build_sample()
        exported = json.loads(export_prov_json(build_prov(system.log, policy.policy_id)))
        entities = set(exported["entity"])
        activities = set(exported["activity"])
        agents = set(exported["agent"])
        for rel in exported["used"].values():
            assert rel["prov:activity"] in activities
            assert rel["prov:entity"] in entities
        for rel in exported["wasGeneratedBy"].values():
            assert rel["prov:entity"] in entities
            assert rel["prov:activity"] in activities
        for rel in exported["wasAssociatedWith"].values():
            assert rel["prov:activity"] in activities
            assert rel["prov:agent"] in agents
        for rel in exported["wasInformedBy"].values():
            assert rel["prov:informed"] in activities
            assert rel["prov:informant"] in activities
        for rel in exported["wasDerivedFrom"].values():
            assert rel["prov:generatedEntity"] in entities
            assert rel["prov:usedEntity"] in entities


# Text built from the characters the emitter's split must see through (raw
# newlines, tabs, quotes, backslashes, braces and the split text itself),
# non-ASCII and astral characters, and any other text.
_TRICKY = st.sampled_from(["\n", "\t", '"', "\\", "{", "}", "},\n      {", '"},\n      {"', ": ",
                           "\x00", "\x7f", "\u00e9", "\u2028", "\ud7ff", "\U0001f600", "a", "Z", " "])
TEXT = st.lists(st.one_of(_TRICKY, st.text(max_size=3)), max_size=3).map("".join)
VALUE = st.one_of(TEXT, st.integers(min_value=-(2**80), max_value=2**80), st.booleans())
LEAVES = st.dictionaries(TEXT, st.dictionaries(TEXT, VALUE, max_size=4), max_size=4)  # empty members and leaves too
PAIRS = st.lists(st.tuples(TEXT, TEXT), max_size=4)


@settings(max_examples=150, deadline=None)
@given(entities=LEAVES, activities=LEAVES, agents=LEAVES, relations=st.tuples(*[PAIRS] * len(_RELATIONS)))
@example(  # keys inserted against their sorted order, at both levels
    entities={"z": {"b": 1, "a": "x"}, "a": {}}, activities={}, agents={"m\n": {"z": True, "y": -1}},
    relations=([("b", "a"), ("a", "b")], [], [], [], []),
)
def test_export_is_json_dumps_indent_2(entities, activities, agents, relations):
    doc = ProvDocument(entities=entities, activities=activities, agents=agents,
                       **{attr: dict.fromkeys(pairs) for (attr, *_), pairs in zip(_RELATIONS, relations)})
    reference = {"entity": entities, "activity": activities, "agent": agents}
    for (attr, key, prefix, roles), pairs in zip(_RELATIONS, relations):
        reference[key] = {f"{prefix}{i}": dict(zip(roles, pair)) for i, pair in enumerate(sorted(set(pairs)), 1)}
    assert export_prov_json(doc) == json.dumps(reference, sort_keys=True, indent=2).encode("utf-8")


# Node ids holding a quote, a backslash, a raw newline, U+2028 and an astral character.
_AWKWARD = ['say "hi"', "back\\slash", "raw\nnewline", "line\u2028separator", "astral \U0001f600", "plain"]


def _dumps_reference(doc: ProvDocument) -> bytes:
    out = {"entity": doc.entities, "activity": doc.activities, "agent": doc.agents}
    for attr, key, prefix, roles in _RELATIONS:
        pairs = sorted(getattr(doc, attr))
        out[key] = {f"{prefix}{i}": dict(zip(roles, pair)) for i, pair in enumerate(pairs, 1)}
    return json.dumps(out, sort_keys=True, indent=2).encode("utf-8")


def _doc_with_relations_of(size: int) -> ProvDocument:
    """Every relation holds `size` distinct pairs, added against their sorted order."""
    ids = [f"{_AWKWARD[i % len(_AWKWARD)]} {i}" for i in range(size)]
    doc = ProvDocument(
        entities={i: {"label": i, "n": n} for n, i in enumerate(ids[::3])},
        activities={i: {"start": n, "end": n + 1} for n, i in enumerate(ids[1::3])},
        agents={i: {"actor": i, "ok": True} for i in ids[2::3]},
    )
    for step, (attr, *_) in enumerate(_RELATIONS, 2):
        relation = getattr(doc, attr)
        for i in reversed(range(size)):
            relation[ids[i], ids[(i * step + 1) % size]] = None
        assert len(relation) == size
    return doc


@pytest.mark.parametrize("size", [9, 10, 11, 99, 100, 101, 1234])  # the ids cross digit counts
def test_relations_of_many_pairs_are_json_dumps_indent_2(size):
    doc = _doc_with_relations_of(size)
    assert export_prov_json(doc) == _dumps_reference(doc)
