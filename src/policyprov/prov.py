"""Builds a W3C PROV-shaped document from the token log and exports PROV-JSON.

Mapping (our formalization):
  local token   -> one Activity (`act:<policy>/<network>/<seq>`), its actor as
                   Agent (+wasAssociatedWith), task_input/task_output as
                   Entities (+used / +wasGeneratedBy), output derived from input
  routed token  -> one message Entity (`tok:<token_id>`) generated by the
                   sender's previous-task Activity and used by the receiver's
                   next Activity, which wasInformedBy the sender's Activity
Artifacts are identified by canonical name within a policy, so entities named
in multiple tokens unify and the graph connects.

The export is the text of `json.dumps(..., sort_keys=True, indent=2)`, built
from one C-encoder call per member (`_indent2`): any `indent` would send the
standard library to its pure-Python encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .goals import canonical_artifact
from .model import Address, LocalToken, RoutedToken
from .storage import EventLog
from .view import PolicyView, activity_id_for, view_of


@dataclass
class ProvDocument:
    entities: dict = field(default_factory=dict)
    activities: dict = field(default_factory=dict)
    agents: dict = field(default_factory=dict)
    # Each relation is an insertion-ordered set of pairs: the keys of a dict,
    # added with `relation[pair] = None`.
    used: dict = field(default_factory=dict)  # (activity, entity)
    was_generated_by: dict = field(default_factory=dict)  # (entity, activity)
    was_associated_with: dict = field(default_factory=dict)  # (activity, agent)
    was_informed_by: dict = field(default_factory=dict)  # (informed, informant)
    was_derived_from: dict = field(default_factory=dict)  # (generated, source)
    # entity -> its one generator, written together with was_generated_by.
    _generator: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def add_entity(self, entity_id: str, **attrs) -> str:
        self.entities.setdefault(entity_id, {}).update(
            {k: v for k, v in attrs.items() if v is not None}
        )
        return entity_id

    def add_activity(self, activity_id: str, **attrs) -> str:
        self.activities.setdefault(activity_id, {}).update(
            {k: v for k, v in attrs.items() if v is not None}
        )
        return activity_id

    def add_agent(self, address: Address, **attrs) -> str:
        agent_id = f"agt:{address.network_id}/{address.actor_id}"
        self.agents.setdefault(
            agent_id, {"network": address.network_id, "actor": address.actor_id}
        ).update({k: v for k, v in attrs.items() if v is not None})
        return agent_id

    def generated_by(self, entity_id: str, activity_id: str) -> bool:
        """At most one generator per entity; the first one wins."""
        if entity_id in self._generator:
            return False
        self._generator[entity_id] = activity_id
        self.was_generated_by[entity_id, activity_id] = None
        return True

    def generator_of(self, entity_id: str) -> Optional[str]:
        return self._generator.get(entity_id)


def entity_id_for(policy_id: str, name: str) -> str:
    return f"ent:{policy_id}/{canonical_artifact(name)}"


def _add_local(doc: ProvDocument, token: LocalToken, view: PolicyView):
    act_id = doc.add_activity(
        activity_id_for(token),
        label=token.task,
        task_description=token.task_description,
        phase_id=token.phase_id,
        goal_id=token.goal_id,
        start=token.timestamp,
        end=view.end_time(token),
        source_of_evidence=token.source_of_evidence,
        data_reference=token.data_reference,
    )
    agent_id = doc.add_agent(
        token.who_carried_out, nature_of_stakeholders=token.nature_of_stakeholders.value
    )
    doc.was_associated_with[act_id, agent_id] = None
    in_id = doc.add_entity(
        entity_id_for(token.policy_id, token.task_input),
        label=token.task_input,
        nature=token.nature_of_task_input.value,
    )
    doc.used[act_id, in_id] = None
    if doc.generator_of(in_id) is None:
        doc.entities[in_id]["external_origin"] = True
    out_id = doc.add_entity(
        entity_id_for(token.policy_id, token.task_output),
        label=token.task_output,
        nature=token.nature_of_task_output.value,
        source_of_evidence=token.source_of_evidence,
        data_reference=token.data_reference,
    )
    if doc.generated_by(out_id, act_id):
        # An earlier external-origin mark stays: it covers uses that predate
        # this generation.
        doc.entities[out_id]["generated_at"] = token.timestamp
    doc.was_derived_from[out_id, in_id] = None


def _add_routed(doc: ProvDocument, token: RoutedToken, view: PolicyView):
    tok_id = doc.add_entity(
        f"tok:{token.token_id}",
        label=token.previous_task_output or token.task_description,
        kind=token.kind.value,
        task_description=token.task_description,
        required_action=token.required_action,
        communication_pattern=token.communication_pattern.value,
        data_reference=token.data_reference,
    )
    doc.add_agent(token.source_address)
    doc.add_agent(token.destination_address)
    prev = view.previous(token.source_address, token.timestamp, token.previous_task)
    if prev is None:
        doc.entities[tok_id]["external_origin"] = True
    else:
        doc.generated_by(tok_id, activity_id_for(prev))
        doc.entities[tok_id]["generated_at"] = token.timestamp
    receive_time = view.receives.get(token.token_id)
    if receive_time is None:
        return
    nxt = view.next(token.destination_address, receive_time)
    if nxt is not None:
        doc.used[activity_id_for(nxt), tok_id] = None
        if prev is not None:
            doc.was_informed_by[activity_id_for(nxt), activity_id_for(prev)] = None


def token_to_prov_fragment(token) -> ProvDocument:
    """Map one token to a standalone fragment."""
    doc = ProvDocument()
    if isinstance(token, LocalToken):
        _add_local(doc, token, PolicyView(token.policy_id, [token], [], {}))
    elif isinstance(token, RoutedToken):
        _add_routed(doc, token, PolicyView(token.policy_id, [], [token], {}))
    else:
        raise TypeError(f"cannot map {type(token).__name__} to provenance")
    return doc


def build_prov(log: EventLog, policy_id: str) -> ProvDocument:
    """Union of fragments over all events of the policy, in time order."""
    view = view_of(log, policy_id)
    doc = ProvDocument()
    for token in sorted(view.locals + view.sends, key=attrgetter("timestamp")):  # locals first on ties
        if isinstance(token, LocalToken):
            _add_local(doc, token, view)
        else:
            _add_routed(doc, token, view)
    return doc


# (relation attribute, PROV-JSON member, id prefix, role keys of the pair)
_RELATIONS = (
    ("used", "used", "u", ("prov:activity", "prov:entity")),
    ("was_generated_by", "wasGeneratedBy", "gen", ("prov:entity", "prov:activity")),
    ("was_associated_with", "wasAssociatedWith", "assoc", ("prov:activity", "prov:agent")),
    ("was_informed_by", "wasInformedBy", "inf", ("prov:informed", "prov:informant")),
    ("was_derived_from", "wasDerivedFrom", "der", ("prov:generatedEntity", "prov:usedEntity")),
)


# The leaves of one member, as one JSON array whose separators are the ones
# `indent=2` writes between the keys of a leaf (a leaf's keys sit 6 deep).
_LEAVES = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_LEAF_BREAK = "},\n      {"
_quote = json.encoder.encode_basestring_ascii


def _indent2(out: dict) -> str:
    """`json.dumps(out, sort_keys=True, indent=2)`, with one C-encoder call per member.

    `out` must be a dict of members, each a dict of ids to flat dicts whose
    values are str, int or bool. Each member's sorted leaves are encoded as
    one array, which is split at every `_LEAF_BREAK`. With `ensure_ascii` a
    newline inside a string is escaped, so a raw newline only comes from a
    separator, and since no leaf value is a dict, a `}` before a separator
    closes a leaf: the array splits into exactly its leaves.
    """
    members = []
    for key, items in sorted(out.items()):
        if not items:
            members.append(f"  {_quote(key)}: {{}}")
            continue
        ids = sorted(items)
        leaves = _LEAVES.encode([items[i] for i in ids])[2:-2].split(_LEAF_BREAK)
        entries = ",\n".join(
            f"    {_quote(i)}: {{\n      {leaf}\n    }}" if leaf else f"    {_quote(i)}: {{}}"
            for i, leaf in zip(ids, leaves)
        )
        members.append(f"  {_quote(key)}: {{\n{entries}\n  }}")
    return "{\n" + ",\n".join(members) + "\n}" if members else "{}"


def export_prov_json(doc: ProvDocument) -> bytes:
    """Deterministic PROV-JSON: one object with exactly the eight members,
    the bytes of `json.dumps(..., sort_keys=True, indent=2)` (see `_indent2`).

    `sort_keys` orders every object; relation ids number the sorted pairs.
    """
    out = {"entity": doc.entities, "activity": doc.activities, "agent": doc.agents}
    for attr, key, prefix, roles in _RELATIONS:
        pairs = sorted(getattr(doc, attr))
        out[key] = {f"{prefix}{i}": dict(zip(roles, pair)) for i, pair in enumerate(pairs, 1)}
    return _indent2(out).encode("utf-8")
